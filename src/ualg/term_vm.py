"""Terms encoded as flat symbol sequences validated by a sort-stack machine.

A sequence of operation symbols is read as instructions executed from the
last symbol to the first: executing a symbol pops its argument sorts off
the top of a stack of sorts and pushes its result sort.  A sequence is a
term exactly when the run never underflows or meets a wrong sort and
finishes with a single sort on the stack.  Failure is absorbing: once the
stack is in the error state it stays there whatever executes next.

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
from typing import Callable, Optional, Sequence, TypeVar

from .signature import OpId, Signature, SortId

R = TypeVar("R")

# A sort stack is a tuple with the top at index 0; None is the absorbed
# error state.
SortStack = Optional[tuple[SortId, ...]]


class TermError(ValueError):
    """Raised when a symbol sequence is not a well-formed term."""


def prefix_remove(
    prefix: Sequence[SortId], stack: Sequence[SortId]
) -> Optional[tuple[SortId, ...]]:
    """Remainder of ``stack`` after removing ``prefix`` element-wise from
    the top; None when the stack is too short or the sorts disagree."""
    n = len(prefix)
    if len(stack) < n:
        return None
    if tuple(stack[:n]) != tuple(prefix):
        return None
    return tuple(stack[n:])


def opexec(sig: Signature, nm: OpId, stack: SortStack) -> SortStack:
    """One machine step: pop the arity of ``nm``, push its result sort."""
    if stack is None:
        return None
    rest = prefix_remove(sig.arity_of(nm), stack)
    if rest is None:
        return None
    return (sig.sort_of(nm),) + rest


def oplistexec(sig: Signature, syms: Sequence[OpId], stack: SortStack = ()) -> SortStack:
    """Run the whole sequence, last symbol first, from ``stack``.

    Splitting a sequence splits the run: executing ``l1 + l2`` from ``s``
    equals executing ``l1`` from the result of ``l2`` on ``s``.
    """
    for nm in reversed(syms):
        stack = opexec(sig, nm, stack)
        if stack is None:
            return None
    return stack


def infer_sort(sig: Signature, syms: Sequence[OpId]) -> Optional[SortId]:
    """The sort of the term encoded by ``syms``, or None when the run
    fails or leaves anything but a single sort."""
    stack = oplistexec(sig, syms)
    if stack is not None and len(stack) == 1:
        return stack[0]
    return None


def is_term(sig: Signature, sort: SortId, syms: Sequence[OpId]) -> bool:
    return infer_sort(sig, syms) == sort


@dataclass(frozen=True)
class ExecReport:
    """Outcome of a run with the failure position recovered.

    ``failed_at`` counts symbols from the end of the sequence, i.e. in
    execution order, which the error-absorbing run itself forgets.
    """

    stack: SortStack
    failed_at: int | None = None
    reason: str | None = None


def explain_oplist(sig: Signature, syms: Sequence[OpId]) -> ExecReport:
    """Like ``oplistexec`` but reports where and why a run failed."""
    stack: tuple[SortId, ...] = ()
    for k, nm in enumerate(reversed(syms)):
        arity = sig.arity_of(nm)
        n = len(arity)
        if len(stack) < n:
            return ExecReport(None, k, "stack underflow")
        if stack[:n] != arity:
            return ExecReport(None, k, "sort mismatch")
        stack = (sig.sort_of(nm),) + stack[n:]
    return ExecReport(stack)


def failure_message(sig: Signature, syms: Sequence[OpId]) -> Optional[str]:
    """Human-readable diagnostic for a sequence that is not a term, or
    None when it is one."""
    rep = explain_oplist(sig, syms)
    if rep.stack is None:
        return f"{rep.reason} at symbol {rep.failed_at}"
    if len(rep.stack) != 1:
        return "residual stack [" + ", ".join(rep.stack) + "]"
    return None


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
    """Validate a raw symbol sequence and package it as a term."""
    syms = tuple(syms)
    for nm in syms:
        if not sig.is_op(nm):
            raise TermError(f"unknown symbol {nm!r}")
    sort = infer_sort(sig, syms)
    if sort is None:
        raise TermError(failure_message(sig, syms))
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
