"""Command line interface.

Subcommands validate and inspect terms, evaluate them in finite algebras,
check equations and homomorphisms, enumerate terms to a depth bound, and
run the bundled example structures.

Exit codes are a stable contract: 0 when the command succeeds and any
checked property holds, 1 when a checked property fails, 2 for usage or
input errors and for a command that runs out of memory.  A process
whose stdout was closed ends with 141, and an interrupted one with 130,
both quietly (``run``).  Output is byte-deterministic for identical
inputs.

A subcommand imports what it runs when it runs: ``term`` and
``enumerate`` load only ``signature``, ``term_vm`` and ``jsonio``.  The
handlers of the other commands live in ``commands``, which loads when
one of them runs and loads in turn the modules of algebras, evaluation,
model checking, equations and examples that the command uses.

``COMMANDS`` is the one grammar of the command line.  ``main`` matches a
command line in its canonical spelling against it directly: the command
words, then each flag at most once with its value, and the positionals,
none of them starting with ``-``.  Any other command line, among them
every request for help and every usage error, goes to
``commands.build_parser``, which builds an ``argparse`` parser from the
same table; so ``argparse`` loads only for those, and on a command line
that both accept the match gives the namespace the parser gives.  The
names that moved to ``commands`` stay importable from here (PEP 562).

``main`` is the in-process API; ``run``, which ``python -m ualg`` and
the ``ualg`` script call, is ``main`` as a process that exits.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from . import _lazy
from .jsonio import FormatError, load_signature
from .term_vm import TermError, UnknownSymbolError, depth, enumerate_terms, term_decompose, term_from_syms


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


def _later(name: str):
    """The handler ``name`` of ``commands``, which imports that module
    when it runs."""

    def handler(args) -> int:
        from . import commands

        return getattr(commands, name)(args)

    return handler


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
    ("eval",): ("evaluate a term in a finite algebra", _later("cmd_eval"), (
        ("--alg", True, str, "algebra JSON file"),
        ("--vars", False, str, "equations JSON file providing the variable block"),
        ("--assign", False, str, "comma-separated name=label bindings"),
        ("--assign-file", False, str, "assignment JSON file"),
    ), (("term", None, None),)),
    ("check-eqs",): ("check equations against a finite algebra", _later("cmd_check_eqs"),
                     _required("--alg", "--eqs"), ()),
    ("check-hom",): ("check a homomorphism candidate", _later("cmd_check_hom"),
                     _required("--src", "--dst", "--map"), ()),
    ("enumerate",): ("enumerate terms up to a depth bound", cmd_enumerate,
                     (*_required("--sig", "--sort"), ("--max-depth", True, int, None)), ()),
    ("examples",): ("run a bundled example", _later("cmd_examples"), (), (("name", None, ("list", "monoid", "bool")),)),
}


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
    args = _match(argv)
    if args is None:
        from .commands import build_parser

        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:  # stdout was closed: not an input error, and run ends quietly
        raise
    except (OSError, json.JSONDecodeError, ValueError) as err:
        # covers format, signature, term, binding and algebra errors
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:  # reported below, once the frames that held the memory are gone
        pass
    print("error: out of memory", file=sys.stderr)
    return 2


def run():
    """The process entry point, of ``python -m ualg`` and of the ``ualg``
    script: exit with the code of ``main`` on the command line, or with
    the usage error ``argparse`` raises.

    Two ends lie outside the 0/1/2 contract, and neither prints anything.
    A closed stdout, as when a reader such as ``head`` stops reading,
    exits with 141, the status a shell shows for a process that
    ``SIGPIPE`` ended; stdout goes to ``os.devnull`` first, as the
    ``signal`` module's documentation advises, so that the flush at
    shutdown cannot fail on it again.  An interrupt (Ctrl-C)
    exits with 130, the shell's status for ``SIGINT``.  An ``OSError``
    from an input file stays an input error, exit 2, reported by
    ``main``.

    Before it exits it moves every live object to the collector's
    permanent generation (``gc.freeze``), so the full collections that
    the interpreter makes while it shuts down walk almost nothing.  Most
    of those objects are what ``site`` loaded, and the collections cost
    about 5 of the 43 ms of CPU that a bare ``python -c pass`` uses
    (Python 3.11.7, 2 CPUs).  The exit itself is
    ``sys.exit``, not ``os._exit``: exit codes, ``atexit`` handlers and
    the flushing of stdout and stderr stay the interpreter's.  ``main``
    never touches the collector: a long-lived process that calls it, as
    the tests and the benchmark do, would never again collect a cycle it
    holds at that point.
    """
    import gc
    import os

    try:
        code = main()
    except KeyboardInterrupt:
        code = 130
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    finally:
        gc.freeze()
    sys.exit(code)


__getattr__, __dir__ = _lazy(globals(), dict.fromkeys(
    ("build_parser", "cmd_check_eqs", "cmd_check_hom", "cmd_eval", "cmd_examples"), "commands"
))

if __name__ == "__main__":
    run()
