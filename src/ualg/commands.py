"""The handlers of the ``ualg`` commands that read algebras: ``eval``,
``check-eqs``, ``check-hom`` and ``examples``; and ``build_parser``, the
``argparse`` parser of ``cli.COMMANDS``, which words help and usage
errors.

``cli`` loads this module only to run one of these commands or to parse
a command line its match declines, and each handler imports the modules
of evaluation, model checking, equations or examples that it runs when
it runs.
"""

from __future__ import annotations

from .algebra_io import load_algebra, load_assignment, load_eqspec, load_hom_maps, resolve_assignment, varspec_from_obj
from .cli import COMMANDS
from .jsonio import FormatError, load_json
from .term_vm import parse_term
from .varspec import make_varspec, vsignature


def _parse_assign_flag(flag: str | None) -> dict[str, str]:
    if not flag:
        return {}
    out = {}
    for item in flag.split(","):
        if "=" not in item:
            raise FormatError(f"bad assignment {item!r}; expected name=label")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def cmd_eval(args) -> int:
    from .free_algebra import evaluate

    algebra = load_algebra(args.alg)
    sig = algebra.signature
    if args.vars is not None:
        obj = load_json(args.vars)
        if not isinstance(obj, dict):
            raise FormatError("variables file must be a JSON object")
        varspec = varspec_from_obj(sig, obj.get("variables"))
    else:
        varspec = make_varspec(sig, [])
    vsig = vsignature(sig, varspec)
    raw = {}
    if args.assign_file is not None:
        raw.update(load_assignment(args.assign_file))
    raw.update(_parse_assign_flag(args.assign))
    assignment = resolve_assignment(algebra, varspec, raw)
    t = parse_term(vsig, args.term)
    print(evaluate(algebra, assignment, t))
    return 0


def report_equations(algebra, spec) -> int:
    """One HOLDS/FAILS line per equation; 0 when all hold, else 1."""
    from .equations import holds

    status = 0
    for eq in spec.equations:
        verdict = holds(algebra, eq, spec.varspec)
        if verdict.holds:
            print(f"{eq.name}: HOLDS")
        else:
            status = 1
            cex = verdict.counterexample
            rendered = ", ".join(f"{v}={cex[v]}" for v in spec.varspec.vars if v in cex)
            print(f"{eq.name}: FAILS ({rendered})")
    return status


def cmd_check_eqs(args) -> int:
    algebra = load_algebra(args.alg)
    return report_equations(algebra, load_eqspec(args.eqs, algebra.signature))


def cmd_check_hom(args) -> int:
    from .modelcheck import check_hom

    src = load_algebra(args.src)
    dst = load_algebra(args.dst)
    verdict = check_hom(load_hom_maps(args.map), src, dst)
    if verdict.ok:
        print("OK")
        return 0
    nm, hom_args = verdict.counterexample
    print(f"counterexample: {nm}({', '.join(hom_args)})")
    return 1


def cmd_examples(args) -> int:
    from . import examples as ex

    {"list": ex.print_list, "monoid": ex.print_monoid, "bool": ex.print_bool}[args.name]()
    return 0


def build_parser():
    """The ``argparse`` parser of ``COMMANDS``, which words help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(prog="ualg", description="multi-sorted universal algebra toolkit")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (text, handler, flags, positionals) in COMMANDS.items():
        p = groups[words[:-1]].add_parser(words[-1], **({"help": text} if text else {}))
        if handler is None:
            groups[words] = p.add_subparsers(dest=f"{words[-1]}_command", required=True)
        for flag, required, kind, text in flags:
            p.add_argument(flag, required=required, type=kind, help=text)
        for dest, text, choices in positionals:
            p.add_argument(dest, help=text, choices=choices)
        p.set_defaults(handler=handler)
    return parser
