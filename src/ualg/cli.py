"""Command line interface.

Subcommands validate and inspect terms, evaluate them in finite algebras,
check equations and homomorphisms, enumerate terms to a depth bound, and
run the bundled example structures.

Exit codes are a stable contract: 0 when the command succeeds and any
checked property holds, 1 when a checked property fails, 2 for usage or
input errors.  Output is byte-deterministic for identical inputs.

A subcommand imports what it runs when it runs: ``term`` and
``enumerate`` load only ``signature``, ``term_vm`` and ``jsonio``, and
the modules of algebras, evaluation, model checking, equations and
examples load with the commands that use them.

``COMMANDS`` is the one grammar of the command line.  ``main`` matches a
command line in its canonical spelling against it directly: the command
words, then each flag at most once with its value, and the positionals,
none of them starting with ``-``.  Any other command line, among them
every request for help and every usage error, goes to ``build_parser``,
which builds an ``argparse`` parser from the same table; so ``argparse``
loads only for those, and on a command line that both accept the match
gives the namespace the parser gives.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .jsonio import (
    FormatError,
    load_algebra,
    load_assignment,
    load_eqspec,
    load_json,
    load_hom_maps,
    load_signature,
    resolve_assignment,
    varspec_from_obj,
)
from .signature import make_varspec, vsignature
from .term_vm import TermError, UnknownSymbolError, depth, enumerate_terms, parse_term, term_decompose, term_from_syms


def _show_check(args, t) -> int:
    if args.sort is not None and t.sort != args.sort:
        print(f"sort mismatch: got {t.sort}, expected {args.sort}")
        return 1
    print(f"sort: {t.sort}")
    return 0


def _show_decompose(args, t) -> None:
    nm, subterms = term_decompose(t)
    print(f"princop: {nm}")
    for i, sub in enumerate(subterms, start=1):
        print(f"arg {i}: {sub.text()}")


# What each ``term`` subcommand prints for a valid term; a show returns
# its exit code, or None for 0.
TERM_SHOWS = {
    "check": _show_check,
    "sort": lambda args, t: print(t.sort),
    "depth": lambda args, t: print(depth(t)),
    "decompose": _show_decompose,
}


def cmd_term(args) -> int:
    """Validate the term once; an ill-formed one prints its diagnostic
    and exits 1, an unknown symbol is an input error."""
    sig = load_signature(args.sig)
    try:
        t = term_from_syms(sig, args.term.split())
    except UnknownSymbolError:
        raise
    except TermError as err:
        print(err)
        return 1
    return TERM_SHOWS[args.term_command](args, t) or 0


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


def _report_equations(algebra, spec) -> int:
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
    return _report_equations(algebra, load_eqspec(args.eqs, algebra.signature))


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


def cmd_enumerate(args) -> int:
    sig = load_signature(args.sig)
    if args.max_depth < 1:
        raise FormatError("--max-depth must be at least 1")
    count = 0
    for t in enumerate_terms(sig, args.sort, args.max_depth):
        print(t.text())
        count += 1
    print(f"count: {count}")
    return 0


def _example_list() -> None:
    from . import examples as ex

    fix = ex.list_fixture(("a", "b"), max_len=4)
    print("list datatype over elements [a, b], lists materialized up to length 4")
    for text in ("nil", "cons a nil", "cons b cons a nil"):
        print(f"{text} -> {ex.list_eval(fix, text)}")
    arity = " ".join(fix.signature.arity_of("cons"))
    print(f"arity of cons: {arity} -> {fix.signature.sort_of('cons')}")


def _example_monoid() -> None:
    from . import examples as ex

    spec, algebra, _ = ex.monoid_fixture(3)
    for name, alg in (("+", algebra), ("-", ex.subtraction_mod_algebra(3))):
        print(f"monoid equations on (Z mod 3, {name}, 0)")
        _report_equations(alg, spec)


def _example_bool() -> None:
    from . import examples as ex

    free = ex.bool_free()
    print("boolean connectives under truth-table semantics")
    formula = parse_term(free.vsig, "conj x impl z neg y")
    value = ex.tarski_interp({"x": True, "y": True, "z": False}, formula)
    print(f"conj x impl z neg y | x=true y=true z=false -> {str(value).lower()}")
    ground = parse_term(free.vsig, "impl bot top")
    print(f"impl bot top -> {str(ex.tarski_interp({}, ground)).lower()}")
    dummett = parse_term(free.vsig, "disj impl x y impl y x")
    if all(
        ex.tarski_interp({"x": a, "y": b}, dummett)
        for a in (False, True)
        for b in (False, True)
    ):
        print("dummett: disj impl x y impl y x holds under all 4 assignments of x, y")
    else:
        print("dummett: disj impl x y impl y x FAILS")


def cmd_examples(args) -> int:
    {"list": _example_list, "monoid": _example_monoid, "bool": _example_bool}[args.name]()
    return 0


def _required(*flags: str) -> tuple:
    return tuple((flag, True, str, None) for flag in flags)


# The command grammar, per command or group of commands (handler None): its
# help text, its handler, its flags as (flag, required, type, help) and its
# positionals as (dest, help, choices).
_SIG, _TERM = ("--sig", True, str, "signature JSON file"), ("term", "whitespace-separated symbol sequence", None)
COMMANDS = {
    ("term",): ("validate and inspect terms", None, (), ()),
    ("term", "check"): (None, cmd_term, (_SIG, ("--sort", False, str, "expected sort")), (_TERM,)),
    **{("term", name): (None, cmd_term, (_SIG,), (_TERM,)) for name in TERM_SHOWS if name != "check"},
    ("eval",): ("evaluate a term in a finite algebra", cmd_eval, (
        ("--alg", True, str, "algebra JSON file"),
        ("--vars", False, str, "equations JSON file providing the variable block"),
        ("--assign", False, str, "comma-separated name=label bindings"),
        ("--assign-file", False, str, "assignment JSON file"),
    ), (("term", None, None),)),
    ("check-eqs",): ("check equations against a finite algebra", cmd_check_eqs, _required("--alg", "--eqs"), ()),
    ("check-hom",): ("check a homomorphism candidate", cmd_check_hom, _required("--src", "--dst", "--map"), ()),
    ("enumerate",): ("enumerate terms up to a depth bound", cmd_enumerate,
                     (*_required("--sig", "--sort"), ("--max-depth", True, int, None)), ()),
    ("examples",): ("run a bundled example", cmd_examples, (), (("name", None, ("list", "monoid", "bool")),)),
}


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


def _match(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, for a
    command line in the canonical spelling; None for any other."""
    words = tuple(argv[:1])
    if words in COMMANDS and COMMANDS[words][1] is None:  # a group: the next word names the command
        words = tuple(argv[:2])
    _, handler, flags, positionals = COMMANDS.get(words, (None, None, (), ()))
    if handler is None:
        return None
    args = {"command": words[0], "handler": handler, **{f"{words[0]}_command": w for w in words[1:]}}
    flags = {flag: (flag[2:].replace("-", "_"), required, kind) for flag, required, kind, _ in flags}
    args.update(dict.fromkeys(dest for dest, _, _ in flags.values()))
    rest, given = iter(argv[len(words) :]), []
    for word in rest:
        dest, _, kind = flags.pop(word, (None, False, str))  # a flag given twice is not one the second time
        value = word if dest is None else next(rest, "-")
        if value.startswith("-"):
            return None
        if dest is None:
            given.append(value)
            continue
        try:
            args[dest] = kind(value)
        except ValueError:  # argparse words the error
            return None
    if any(required for _, required, _ in flags.values()) or len(given) != len(positionals):
        return None
    if any(choices and word not in choices for (_, _, choices), word in zip(positionals, given)):
        return None
    args.update(zip((dest for dest, _, _ in positionals), given))
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv) or build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        # covers format, signature, term, binding and algebra errors
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
