"""Terms encoded as flat symbol sequences validated by a sort-stack machine.

A sequence of operation symbols is read as instructions executed from the
last symbol to the first: executing a symbol pops its argument sorts off
the top of a stack of sorts and pushes its result sort.  A sequence is a
term exactly when the run never underflows or meets a wrong sort and
finishes with a single sort on the stack.

``oplistexec`` is that machine, and the only one that checks sorts: one
pass, last symbol first, over a list used as the stack.  It returns an
``ExecReport`` holding either the final stack or the execution-order
position and the reason of the first failure (an unknown symbol, a stack
underflow or a sort mismatch); a run stops at its first failure, so the
failure absorbs whatever would execute after it.  ``ExecReport.error`` is
the one place where a diagnostic is rendered, and ``term_from_syms``
runs the machine once per sequence.

Validated terms carry their result sort; construction through
``build_term`` preserves validity without re-running the machine.

The same machine, run on values in place of sorts, is how a term is
consumed: ``term_fold`` and ``depth`` make one right-to-left pass over
the symbols with a list as the value stack.  A symbol pops the values of
its arguments (the first argument on top) and pushes its own, so no pass
recurses or decomposes, and a term's depth is bounded by memory alone,
not by the interpreter's recursion limit.  ``term_decompose`` remains as
the inverse of ``build_term``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .signature import OpId, Signature, SortId

R = TypeVar("R")


class TermError(ValueError):
    """Raised when a symbol sequence is not a well-formed term."""


class UnknownSymbolError(TermError):
    """Raised when a symbol sequence names an operation the signature lacks."""


class ExecReport(NamedTuple):
    """Outcome of one machine run.

    ``stack`` is the final sort stack, top first, or None when the run
    failed; then ``failed_at`` is the position of the failing symbol in
    execution order (0 for the last symbol of the sequence) and
    ``reason`` says why.
    """

    stack: Optional[tuple[SortId, ...]]
    failed_at: Optional[int] = None
    reason: Optional[str] = None

    @property
    def sort(self) -> Optional[SortId]:
        """The single sort left by a run that encodes a term, else None."""
        stack = self.stack
        return stack[0] if stack is not None and len(stack) == 1 else None

    def error(self) -> Optional[str]:
        """Diagnostic for a run that does not encode a term; None when it does."""
        if self.stack is None:
            return f"{self.reason} at symbol {self.failed_at}"
        if len(self.stack) != 1:
            return "residual stack [" + ", ".join(self.stack) + "]"
        return None


def oplistexec(sig: Signature, syms: Sequence[OpId], stack: Sequence[SortId] = ()) -> ExecReport:
    """Run the whole sequence, last symbol first, from ``stack`` (top first).

    Splitting a sequence splits the run: executing ``l1 + l2`` from ``s``
    equals executing ``l1`` from the stack that ``l2`` leaves on ``s``,
    with a failure inside ``l1`` counted ``len(l2)`` positions later.
    """
    decl = sig.decl
    st = list(reversed(stack))  # top last
    push, pop = st.append, st.pop
    for k, nm in enumerate(reversed(syms)):
        try:
            arity, res = decl[nm]
        except KeyError:
            return ExecReport(None, k, "unknown symbol")
        if len(st) < len(arity):
            return ExecReport(None, k, "stack underflow")
        for want in arity:
            if pop() != want:
                return ExecReport(None, k, "sort mismatch")
        push(res)
    return ExecReport(tuple(reversed(st)))


def infer_sort(sig: Signature, syms: Sequence[OpId]) -> Optional[SortId]:
    """The sort of the term encoded by ``syms``, or None when the run
    fails or leaves anything but a single sort."""
    return oplistexec(sig, syms).sort


@dataclass(frozen=True)
class Term:
    """A symbol sequence together with its machine-verified result sort."""

    signature: Signature
    syms: tuple[OpId, ...]
    sort: SortId

    def text(self) -> str:
        return " ".join(self.syms)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Term({self.text()!r} : {self.sort})"


def term_from_syms(sig: Signature, syms: Sequence[OpId]) -> Term:
    """Validate a raw symbol sequence and package it as a term.

    A sequence with an unknown symbol is rejected for the leftmost one,
    whatever the run met first.
    """
    syms = tuple(syms)
    rep = oplistexec(sig, syms)
    sort = rep.sort
    if sort is None:
        for nm in syms:
            if not sig.is_op(nm):
                raise UnknownSymbolError(f"unknown symbol {nm!r}")
        raise TermError(rep.error())
    return Term(sig, syms, sort)


def parse_term(sig: Signature, text: str) -> Term:
    """Parse the whitespace-separated text form; inverse of ``Term.text``."""
    return term_from_syms(sig, text.split())


def build_term(sig: Signature, nm: OpId, args: Sequence[Term]) -> Term:
    """Apply ``nm`` to argument terms matching its arity.

    The result is ``nm`` followed by the argument sequences in order; it
    is a valid term by construction and is not re-validated.
    """
    arity = sig.arity_of(nm)
    if len(args) != len(arity):
        raise TermError(f"{nm!r} expects {len(arity)} argument(s), got {len(args)}")
    for i, (a, want) in enumerate(zip(args, arity)):
        if a.signature != sig:
            raise TermError(f"argument {i} of {nm!r} belongs to a different signature")
        if a.sort != want:
            raise TermError(f"argument {i} of {nm!r} has sort {a.sort!r}, expected {want!r}")
    syms = [nm]
    for a in args:
        syms.extend(a.syms)
    return Term(sig, tuple(syms), sig.sort_of(nm))


def _segment_end(sig: Signature, syms: tuple[OpId, ...], start: int) -> int:
    """End of the shortest prefix of ``syms[start:]`` that executes to a
    single sort.

    Tracks how many produced sorts are still pending as the prefix grows;
    the run's stack height drops by at most one per symbol, so the first
    index where exactly one pending sort remains closes the segment.
    """
    nargs = sig.nargs
    pending = 1
    i = start
    n = len(syms)
    while pending:
        if i >= n:
            raise TermError(f"unterminated argument starting at symbol {start}")
        pending += nargs[syms[i]] - 1
        i += 1
    return i


def term_decompose(t: Term) -> tuple[OpId, tuple[Term, ...]]:
    """Split a term into its head symbol and argument terms.

    Inverse of ``build_term``: the arguments are the consecutive segments
    after the head, each the shortest prefix of what remains that
    executes to the corresponding arity sort.
    """
    sig = t.signature
    nm = t.syms[0]
    args = []
    i = 1
    for want in sig.arity_of(nm):
        j = _segment_end(sig, t.syms, i)
        seg = t.syms[i:j]
        if sig.sort_of(seg[0]) != want:
            raise TermError(f"argument segment {seg!r} has wrong sort for {nm!r}")
        args.append(Term(sig, seg, want))
        i = j
    if i != len(t.syms):
        raise TermError(f"{len(t.syms) - i} trailing symbol(s) after the arguments of {nm!r}")
    return nm, tuple(args)


def term_fold(step: Callable[[OpId, tuple[Term, ...], tuple[R, ...]], R], t: Term) -> R:
    """Structural fold over a term, by one run of the value machine.

    ``step`` runs once per subterm, after its arguments, last subterm
    first.  Each stack entry is the ``(start, end, value)`` of a finished
    subterm, so ``step`` still receives its argument terms.  Satisfies the
    unfolding law
    ``term_fold(step, build_term(sig, nm, v)) ==
    step(nm, v, tuple(term_fold(step, a) for a in v))``.
    """
    sig, syms = t.signature, t.syms
    arity_of = sig.arity_of
    stack: list[tuple[int, int, R]] = []
    for i in range(len(syms) - 1, -1, -1):
        nm = syms[i]
        arity = arity_of(nm)
        if arity:
            k = len(arity)
            entries = stack[: -k - 1 : -1]
            del stack[-k:]
            args = tuple([Term(sig, syms[a:b], s) for (a, b, _), s in zip(entries, arity)])
            stack.append((i, entries[-1][1], step(nm, args, tuple([e[2] for e in entries]))))
        else:
            stack.append((i, i + 1, step(nm, (), ())))
    return stack[-1][2]


def depth(t: Term) -> int:
    """Height of the term tree; a bare constant has depth 1."""
    nargs = t.signature.nargs
    stack: list[int] = []
    for nm in reversed(t.syms):
        k = nargs[nm]
        if k:
            d = max(stack[-k:]) + 1
            del stack[-k:]
            stack.append(d)
        else:
            stack.append(1)
    return stack[-1]
