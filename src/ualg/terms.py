"""Terms built from terms, and the structural fold over a term.

``build_term`` applies an operation to argument terms, and
``term_decompose`` in ``term_vm`` is its inverse; ``term_fold`` runs the
value machine of ``term_vm`` with a step that receives each subterm's
argument terms.  Each builds its terms as ``term_vm`` does, in one
``tuple.__new__`` call with no machine run, from symbols that the
machine has checked or that construction keeps a term.  No command
line runs any of them, so they live apart from ``term_vm``, which
re-exports them (PEP 562).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .signature import OpId, Signature, SignatureError, SortId
from .term_vm import Term, TermError

_new = tuple.__new__


def build_term(sig: Signature, nm: OpId, args: Sequence[Term]) -> Term:
    """Apply ``nm`` to argument terms matching its arity.

    The result is ``nm`` followed by the argument sequences in order; it
    is a valid term by construction and is not re-validated.  Two
    arguments, the commonest case, are read by unpacking each term as
    its tuple (signature, symbols, sort), and the symbols are one
    concatenation: through the loop, a call on the termspace terms ran
    1.42x slower.
    """
    try:
        arity, res = sig.decl[nm]
    except (KeyError, TypeError):  # not an operation, or not hashable
        raise SignatureError(f"unknown operation {nm!r}") from None
    k = len(arity)
    if len(args) != k:
        raise TermError(f"{nm!r} expects {k} argument(s), got {len(args)}")
    if k == 2:
        (a_sig, a, a_sort), (b_sig, b, b_sort) = args
        if (
            (a_sig is not sig and a_sig != sig) or a_sort != arity[0]
            or (b_sig is not sig and b_sig != sig) or b_sort != arity[1]
        ):
            _reject_arguments(sig, nm, args, arity)
        return _new(Term, (sig, (nm,) + a + b, res))
    syms = [nm]
    for a, want in zip(args, arity):
        if (a.signature is not sig and a.signature != sig) or a.sort != want:
            _reject_arguments(sig, nm, args, arity)
        syms += a.syms
    return _new(Term, (sig, tuple(syms), res))


def _reject_arguments(sig: Signature, nm: OpId, args: Sequence[Term], arity: tuple[SortId, ...]) -> None:
    """Raise for the first argument of ``build_term`` over another
    signature or of the wrong sort, in that order per argument."""
    for i, (a, want) in enumerate(zip(args, arity)):
        if a.signature is not sig and a.signature != sig:
            raise TermError(f"argument {i} of {nm!r} belongs to a different signature")
        if a.sort != want:
            raise TermError(f"argument {i} of {nm!r} has sort {a.sort!r}, expected {want!r}")


def term_fold(step: Callable[[OpId, tuple[Term, ...], tuple[object, ...]], object], t: Term) -> object:
    """Structural fold over a term, by one run of the value machine.

    ``step`` runs once per subterm, after its arguments, last subterm
    first.  Each stack entry is the ``(end, value)`` of a finished
    subterm; a subterm's first argument starts right after its head and
    each next one where the previous ends, so ``step`` still receives
    its argument terms.  Satisfies the unfolding law
    ``term_fold(step, build_term(sig, nm, v)) ==
    step(nm, v, tuple(term_fold(step, a) for a in v))``.
    """
    sig, syms = t.signature, t.syms
    decl = sig.decl
    stack: list[tuple[int, object]] = []
    push, pop = stack.append, stack.pop
    for i in range(len(syms) - 1, -1, -1):
        nm = syms[i]
        arity = decl[nm][0]
        k = len(arity)
        if k == 0:
            push((i + 1, step(nm, (), ())))
        elif k == 2:
            mid, v = pop()
            end, w = pop()
            args = (_new(Term, (sig, syms[i + 1 : mid], arity[0])), _new(Term, (sig, syms[mid:end], arity[1])))
            push((end, step(nm, args, (v, w))))
        else:
            entries = stack[: -k - 1 : -1]
            del stack[-k:]
            args, start = [], i + 1
            for (end, _), s in zip(entries, arity):
                args.append(_new(Term, (sig, syms[start:end], s)))
                start = end
            push((end, step(nm, tuple(args), tuple([e[1] for e in entries]))))
    return stack[-1][1]
