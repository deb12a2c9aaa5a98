"""Terms encoded as flat symbol sequences validated by a sort-stack machine.

A sequence of operation symbols is read as instructions executed from the
last symbol to the first: executing a symbol pops its argument sorts off
the top of a stack of sorts and pushes its result sort.  A sequence is a
term exactly when the run never underflows or meets a wrong sort and
finishes with a single sort on the stack.

``oplistexec`` is that machine, and its loop is the only one that checks
sorts: one pass, last symbol first, over a list used as the stack, top
last.  The machine table is ``Signature.sort_steps``, which gives each
operation its number of arguments ``k``, its arity reversed and its
result sort; a step compares the stack's top ``k`` entries with the
reversed arity in one slice and replaces them by the result.  The
reason of a failure (an unknown symbol, a stack underflow or a sort
mismatch) is worked out only once a step has failed.  Over a signature
with a single sort, from a stack holding only that sort, no step can
meet a wrong sort: the stack is that sort repeated, so the run keeps
its height alone, an integer: a step of ``k`` arguments adds ``1 - k``
to it and fails by underflow when the height drops below 1.  Both
forms give the same report, position and reason.  ``oplistexec``
returns an ``ExecReport`` holding either the final stack or the
execution-order position and the reason of the first failure; a run
stops at its first failure, so the failure absorbs whatever would
execute after it.  ``ExecReport.error`` is the one place where a
diagnostic is rendered.  ``term_from_syms`` runs the same loop once:
it builds no report when the sequence is a term, and words a failure
from the report of the failed run or from its residual stack.

Every term has passed the machine.  A ``Term`` is a ``Frozen`` value,
the tuple (signature, symbols, sort): equal and hash equal over those
three fields.  The public constructor ``Term(...)`` runs the machine
through ``term_from_syms`` and rejects a non-term or a term of another
sort.  The private ``_term`` trusts its arguments and builds the same
tuple in one ``tuple.__new__`` call, which ``term_from_syms``,
``build_term``, ``term_decompose`` and ``enumerate_terms`` write out
in place of the call.  Both are used only where the machine has
checked the symbols or construction joins checked terms: those four,
``term_fold`` and ``FreeAlgebra.varterm``.  So no consumer of a
term checks it again, and a value machine never meets a sequence that
is not a term.

The same machine, run on values in place of sorts, is how a term is
consumed: ``term_fold`` and ``depth`` make one right-to-left pass over
the symbols with a list as the value stack.  A symbol pops the values of
its arguments (the first argument on top) and pushes its own, so no pass
recurses or decomposes, and a term's depth is bounded by memory alone,
not by the interpreter's recursion limit.  ``term_decompose`` remains as
the inverse of ``build_term``: one left-to-right pass over the symbols
after the head, counting the sorts each argument still has to produce,
finds where each argument but the last ends; the last is the rest.

``enumerate_terms`` builds each term from terms it has already built,
so it concatenates their symbols without checking them again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import product
from operator import length_hint

from .signature import Frozen, OpId, Signature, SignatureError, SortId


class TermError(ValueError):
    """Raised when a symbol sequence is not a well-formed term."""


class UnknownSymbolError(TermError):
    """Raised when a symbol sequence names an operation the signature lacks."""


class ExecReport(Frozen):
    """Outcome of one machine run.

    ``stack`` is the final sort stack, top first, or None when the run
    failed; then ``failed_at`` is the position of the failing symbol in
    execution order (0 for the last symbol of the sequence) and
    ``reason`` says why.
    """

    __slots__ = ()
    _fields = ("stack", "failed_at", "reason")

    def __new__(cls, stack: tuple[SortId, ...] | None, failed_at: int | None = None, reason: str | None = None):
        return tuple.__new__(cls, (stack, failed_at, reason))

    @property
    def sort(self) -> SortId | None:
        """The single sort left by a run that encodes a term, else None."""
        stack = self.stack
        return stack[0] if stack is not None and len(stack) == 1 else None

    def error(self) -> str | None:
        """Diagnostic for a run that does not encode a term; None when it does."""
        if self.stack is None:
            return f"{self.reason} at symbol {self.failed_at}"
        if len(self.stack) != 1:
            return "residual stack [" + ", ".join(self.stack) + "]"
        return None


def _run(sig: Signature, syms: tuple[OpId, ...] | list[OpId], st: list[SortId]) -> ExecReport | None:
    """Execute ``syms``, last symbol first, on ``st`` (top last) in place.

    Returns None when every symbol ran, and ``st`` is then the final
    stack; else the report of the first failure.

    When the signature has one sort and every entry of ``st`` is that
    sort, no step can meet a wrong sort, so the run keeps the stack as
    its height ``h`` alone: a step of ``k`` arguments adds ``1 - k``
    (``Signature.height_steps``) and has underflowed when ``h`` drops
    below 1.  The run counts no positions: a failure's is read off how
    many symbols the reversed iterator of a tuple or a list still holds.
    Otherwise a step compares the top of the list with the symbol's
    reversed arity in one slice, so the reason of a failure is worked
    out only once a step has failed.  Both give the same report and the
    same final stack.
    """
    sorts = sig.sorts
    if len(sorts) == 1 and (not st or st.count(sorts[0]) == len(st)):
        steps, h = sig.height_steps, len(st)
        rest = reversed(syms)
        for nm in rest:
            try:
                h += steps[nm]
            except (KeyError, TypeError):  # not an operation, or not hashable
                return ExecReport(None, len(syms) - 1 - length_hint(rest), "unknown symbol")
            if h < 1:
                return ExecReport(None, len(syms) - 1 - length_hint(rest), "stack underflow")
        st[:] = sorts * h
        return None
    steps = sig.sort_steps
    push = st.append
    for i, nm in enumerate(reversed(syms)):
        try:
            k, want, res = steps[nm]
        except (KeyError, TypeError):  # not an operation, or not hashable
            return ExecReport(None, i, "unknown symbol")
        if k:
            if st[-k:] != want:
                return ExecReport(None, i, "stack underflow" if len(st) < k else "sort mismatch")
            del st[-k:]
        push(res)
    return None


def oplistexec(sig: Signature, syms: Sequence[OpId], stack: Sequence[SortId] = ()) -> ExecReport:
    """Run the whole sequence, last symbol first, from ``stack`` (top first).

    Splitting a sequence splits the run: executing ``l1 + l2`` from ``s``
    equals executing ``l1`` from the stack that ``l2`` leaves on ``s``,
    with a failure inside ``l1`` counted ``len(l2)`` positions later.
    """
    if type(syms) is not tuple and type(syms) is not list:
        syms = tuple(syms)  # ``_run`` reads a failure's position off the reversed iterator
    st = list(reversed(stack))  # top last
    return _run(sig, syms, st) or ExecReport(tuple(reversed(st)))


def infer_sort(sig: Signature, syms: Sequence[OpId]) -> SortId | None:
    """The sort of the term encoded by ``syms``, or None when the run
    fails or leaves anything but a single sort."""
    return oplistexec(sig, syms).sort


class Term(Frozen):
    """A symbol sequence together with its machine-verified result sort.

    ``Term(signature, syms, sort)`` runs the machine once, through
    ``term_from_syms``: it raises that function's ``UnknownSymbolError``
    or ``TermError`` for a sequence that is not a term, and a
    ``TermError`` naming both sorts for a term of another sort.  Copy and
    pickle rebuild a term through it.

    A ``Frozen`` value: immutable, and equal and hash equal to another
    term when their signatures, symbol tuples and sorts are equal.
    """

    __slots__ = ()
    _fields = ("signature", "syms", "sort")

    def __new__(cls, signature: Signature, syms: Sequence[OpId], sort: SortId):
        t = term_from_syms(signature, syms)
        if t.sort != sort:
            raise TermError(f"the symbols make a term of sort {t.sort!r}, not {sort!r}")
        return t

    def text(self) -> str:
        return " ".join(self.syms)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Term({self.text()!r} : {self.sort})"


_new = tuple.__new__


def _term(signature: Signature, syms: tuple[OpId, ...], sort: SortId) -> Term:
    """The trusted constructor: the tuple of the three fields, without the
    machine run of ``Term(...)``.

    Only for a tuple ``syms`` that the machine has checked to be a term of
    ``sort`` over ``signature``, or that construction keeps one: the
    callers are ``term_fold`` and ``FreeAlgebra.varterm``, and
    ``term_from_syms``, ``build_term``, ``term_decompose`` and
    ``enumerate_terms`` write out its one ``_new`` call.
    """
    return _new(Term, (signature, syms, sort))


def term_from_syms(sig: Signature, syms: Sequence[OpId]) -> Term:
    """Validate a raw symbol sequence and package it as a term.

    The machine runs once.  A sequence with an unknown symbol is rejected
    for the leftmost one, whatever the run met first; any other failure
    is worded from the run's failure report or, when every symbol ran,
    from the residual stack.
    """
    syms = tuple(syms)
    st: list[SortId] = []
    failure = _run(sig, syms, st)
    if failure is None and len(st) == 1:
        return _new(Term, (sig, syms, st[0]))
    for nm in syms:
        if not sig.is_op(nm):
            raise UnknownSymbolError(f"unknown symbol {nm!r}")
    raise TermError((failure or ExecReport(tuple(reversed(st)))).error())


def parse_term(sig: Signature, text: str) -> Term:
    """Parse the whitespace-separated text form; inverse of ``Term.text``."""
    return term_from_syms(sig, text.split())


def build_term(sig: Signature, nm: OpId, args: Sequence[Term]) -> Term:
    """Apply ``nm`` to argument terms matching its arity.

    The result is ``nm`` followed by the argument sequences in order; it
    is a valid term by construction and is not re-validated.  Up to two
    arguments are read by unpacking each term as its tuple (signature,
    symbols, sort), and the symbols are one concatenation.
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
    if k == 1:
        ((a_sig, a, a_sort),) = args
        if (a_sig is not sig and a_sig != sig) or a_sort != arity[0]:
            _reject_arguments(sig, nm, args, arity)
        return _new(Term, (sig, (nm,) + a, res))
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


def term_decompose(t: Term) -> tuple[OpId, tuple[Term, ...]]:
    """Split a term into its head symbol and argument terms.

    Inverse of ``build_term``: the arguments are the consecutive segments
    after the head, each the shortest prefix of what remains that
    executes to a single sort.  Every ``Term`` has passed the machine,
    so each segment is a term of its arity sort and the last one is the
    rest of the symbols: only the arguments before it are scanned, and
    nothing is checked again.  One pass finds their ends: ``pending``
    counts the sorts the current segment still has to produce, as the
    height of a run, and as that height drops by at most one per symbol,
    the segment closes where it first reaches zero.  A unary head is one
    slice, and a binary head scans its first argument alone.
    """
    sig, syms, _ = t
    nm = syms[0]
    arity = sig.decl[nm][0]
    k = len(arity)
    if k == 1:
        return nm, (_new(Term, (sig, syms[1:], arity[0])),)
    steps = sig.height_steps
    if k == 2:
        i, pending = 1, 1
        while pending:
            pending -= steps[syms[i]]
            i += 1
        return nm, (_new(Term, (sig, syms[1:i], arity[0])), _new(Term, (sig, syms[i:], arity[1])))
    args = []
    i = 1
    for want in arity[:-1]:
        start, pending = i, 1
        while pending:
            pending -= steps[syms[i]]
            i += 1
        args.append(_new(Term, (sig, syms[start:i], want)))
    if arity:
        args.append(_new(Term, (sig, syms[i:], arity[-1])))
    return nm, tuple(args)


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
        elif k == 1:
            end, v = pop()
            push((end, step(nm, (_term(sig, syms[i + 1 : end], arity[0]),), (v,))))
        elif k == 2:
            mid, v = pop()
            end, w = pop()
            args = (_term(sig, syms[i + 1 : mid], arity[0]), _term(sig, syms[mid:end], arity[1]))
            push((end, step(nm, args, (v, w))))
        else:
            entries = stack[: -k - 1 : -1]
            del stack[-k:]
            args, start = [], i + 1
            for (end, _), s in zip(entries, arity):
                args.append(_term(sig, syms[start:end], s))
                start = end
            push((end, step(nm, tuple(args), tuple([e[1] for e in entries]))))
    return stack[-1][1]


def depth(t: Term) -> int:
    """Height of the term tree; a bare constant has depth 1."""
    nargs = t.signature.nargs
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for nm in reversed(t.syms):
        k = nargs[nm]
        if k == 1:
            stack[-1] += 1
        elif k == 2:
            d, top = pop(), stack[-1]
            stack[-1] = (d if d > top else top) + 1
        elif k:
            d = max(stack[-k:]) + 1
            del stack[-k:]
            push(d)
        else:
            push(1)
    return stack[-1]


def enumerate_terms(sig: Signature, sort: SortId, max_depth: int) -> Iterator[Term]:
    """All terms of ``sort`` with depth at most ``max_depth``.

    Deterministic order: by depth, then operation order, then argument
    combinations with the leftmost argument varying slowest.  The final
    depth level is streamed, so enumerating one deep level does not
    retain it.
    """
    if not sig.is_sort(sort):
        raise SignatureError(f"unknown sort {sort!r}")
    # per sort, the symbol tuples and exact depths of the terms so far,
    # for argument selection
    pools: dict[SortId, tuple[list[tuple[OpId, ...]], list[int]]] = {s: ([], []) for s in sig.sorts}

    def level(d: int) -> Iterator[tuple[Term, SortId]]:
        for nm, arity, res in zip(sig.ops, sig.arities, sig.results):
            if d == 1:
                if not arity:
                    yield _new(Term, (sig, (nm,), res)), res
                continue
            if not arity or not all(pools[a][0] for a in arity):
                continue
            # argument terms come from the pools, so each concatenation is
            # a term of ``res`` and needs no check; one argument at least
            # must have depth d - 1
            head = (nm,)
            combos = product(*(pools[a][0] for a in arity))
            depths = product(*(pools[a][1] for a in arity))
            if len(arity) == 2:
                for (a, b), deps in zip(combos, depths):
                    if d - 1 in deps:
                        yield _new(Term, (sig, head + a + b, res)), res
                continue
            for combo, deps in zip(combos, depths):
                if d - 1 in deps:
                    yield _new(Term, (sig, sum(combo, head), res)), res

    for d in range(1, max_depth + 1):
        if d == max_depth:
            for t, res in level(d):
                if res == sort:
                    yield t
        else:
            produced = list(level(d))
            for t, res in produced:
                syms, depths = pools[res]
                syms.append(t.syms)
                depths.append(d)
            for t, res in produced:
                if res == sort:
                    yield t
