"""Terms with variables as an algebra, and evaluation into other algebras.

A variable specification extends the base signature with one nullary
symbol per variable.  The terms over the extended signature form an
algebra whose operations build bigger terms; evaluating a term in a
target algebra under an assignment of the variables is the structural
fold that replaces every variable by its assigned element and every
operation symbol by the target operation.  That evaluation is the
per-sort map of the induced homomorphism out of the term algebra.

Evaluation runs the term: one right-to-left pass over its symbols with a
stack of carrier values, the sort-stack machine of ``term_vm`` carrying
values.  It neither recurses nor decomposes.  Only when the pass fails
is the term evaluated again in fold order (arguments left to right, each
before its operation), so the error names the variable or operation the
structural fold meets first: with several unbound variables, the
leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .algebra import Algebra, AlgebraError, Hom, _as_fn
from .signature import (
    OpId,
    Signature,
    SignatureError,
    SortId,
    VarId,
    VarSpec,
    vsignature,
)
from .term_vm import Term, build_term, term_decompose

Assignment = Mapping[VarId, Any]


class MissingBindingError(ValueError):
    """A term variable has no value in the assignment."""


class FreeAlgebra(Algebra):
    """The algebra of terms over a signature and a variable specification.

    Elements of sort ``s`` are the terms of sort ``s`` over the
    variable-extended signature; each base operation builds the
    corresponding bigger term.
    """

    def __init__(self, signature: Signature, varspec: VarSpec):
        self.base_signature = signature
        self.varspec = varspec
        self.vsig = vsignature(signature, varspec)
        ops = {}
        for nm in signature.ops:
            def build(*args, _nm=nm):
                return build_term(self.vsig, _nm, args)
            ops[nm] = build
        super().__init__(signature, ops)

    def varterm(self, v: VarId) -> Term:
        """The one-symbol term for a declared variable."""
        if not self.varspec.is_var(v):
            raise SignatureError(f"unknown variable {v!r}")
        return Term(self.vsig, (v,), self.varspec.sort_of(v))


def evaluate(algebra: Algebra, assignment: Assignment, t: Term) -> Any:
    """Evaluate a term in ``algebra`` under ``assignment``.

    Base operation symbols are interpreted by the algebra; any other
    symbol is looked up as a variable.  Satisfies
    ``evaluate(A, a, build_term(vsig, nm, v)) ==
    A.op(nm, *(evaluate(A, a, x) for x in v))`` and
    ``evaluate(A, a, varterm(x)) == a[x]``.
    """
    is_op = algebra.signature.is_op
    nargs = t.signature.nargs
    op = algebra.op
    stack: list[Any] = []
    try:
        for nm in reversed(t.syms):
            k = nargs[nm]
            if k:
                args = stack[: -k - 1 : -1]
                del stack[-k:]
                stack.append(op(nm, *args))
            elif is_op(nm):
                stack.append(op(nm))
            else:
                stack.append(assignment[nm])
    except Exception:  # replayed below, outside this handler, in fold order
        pass
    else:
        return stack[-1]
    return _evaluate_in_fold_order(algebra, assignment, t)


def _evaluate_in_fold_order(algebra: Algebra, assignment: Assignment, t: Term) -> Any:
    """Evaluate left to right, each symbol after its arguments: the order
    of the structural fold.  ``evaluate`` falls back on it when its pass
    fails, so the error raised is the first one the fold would meet."""
    sig = algebra.signature

    def step(nm: OpId, values: Sequence[Any]) -> Any:
        if sig.is_op(nm):
            return algebra.op(nm, *values)
        try:
            return assignment[nm]
        except KeyError:
            raise MissingBindingError(f"no binding for variable {nm!r}") from None

    nargs = t.signature.nargs
    frames: list[tuple[OpId, int, list[Any]]] = []  # (symbol, arity, argument values so far)
    for nm in t.syms:
        k = nargs[nm]
        if k:
            frames.append((nm, k, []))
            continue
        value = step(nm, ())
        while frames:
            head, k, values = frames[-1]
            values.append(value)
            if len(values) < k:
                break
            frames.pop()
            value = step(head, values)
    return value


def universal_map(algebra: Algebra, varspec: VarSpec, assignment: Assignment) -> Hom:
    """The homomorphism from the term algebra induced by an assignment.

    Its per-sort map sends a term to its evaluation; it agrees with the
    assignment on variable terms.
    """
    free = FreeAlgebra(algebra.signature, varspec)
    maps = {
        s: (lambda t, _A=algebra, _a=assignment: evaluate(_A, _a, t))
        for s in algebra.signature.sorts
    }
    return Hom(free, algebra, maps)


@dataclass(frozen=True)
class UniversalityVerdict:
    ok: bool
    at: Term | None = None
    detail: str | None = None


def _candidate_fn(candidate: Any) -> Callable[[SortId, Term], Any]:
    if callable(candidate):
        return lambda _s, t: candidate(t)

    def fn(s, t):
        try:
            m = candidate[s]
        except KeyError:
            raise AlgebraError(f"candidate has no map for sort {s!r}") from None
        return _as_fn(m)(t)

    return fn


def check_universality(
    algebra: Algebra,
    varspec: VarSpec,
    assignment: Assignment,
    candidate: Any,
    sample: Iterable[Term],
) -> UniversalityVerdict:
    """Check a candidate term map against the defining clauses of the
    induced homomorphism on a finite sample of terms.

    The candidate must agree with the assignment on every variable term
    and commute with the head operation of every sampled term.  Together
    with a depth-complete sample this pins the candidate to the canonical
    evaluation map on that sample.
    """
    cand = _candidate_fn(candidate)
    free = FreeAlgebra(algebra.signature, varspec)
    for v in varspec.vars:
        vt = free.varterm(v)
        if cand(vt.sort, vt) != assignment[v]:
            return UniversalityVerdict(False, vt, f"disagrees with the assignment at variable {v!r}")
    for t in sample:
        nm, args = term_decompose(t)
        if varspec.is_var(nm):
            expected = assignment[nm]
        else:
            expected = algebra.op(nm, *(cand(a.sort, a) for a in args))
        if cand(t.sort, t) != expected:
            return UniversalityVerdict(False, t, "homomorphism law fails at this term")
    return UniversalityVerdict(True)


def enumerate_terms(sig: Signature, sort: SortId, max_depth: int) -> Iterator[Term]:
    """All terms of ``sort`` with depth at most ``max_depth``.

    Deterministic order: by depth, then operation order, then argument
    combinations with the leftmost argument varying slowest.  The final
    depth level is streamed, so enumerating one deep level does not
    retain it.
    """
    if not sig.is_sort(sort):
        raise SignatureError(f"unknown sort {sort!r}")
    # (term, exact depth) pools per sort, for argument selection
    pools: dict[SortId, list[tuple[Term, int]]] = {s: [] for s in sig.sorts}

    def level(d: int) -> Iterator[tuple[Term, SortId]]:
        for i, nm in enumerate(sig.ops):
            arity = sig.arities[i]
            res = sig.results[i]
            if d == 1:
                if not arity:
                    yield Term(sig, (nm,), res), res
                continue
            if not arity:
                continue
            choices = [pools[a] for a in arity]
            if any(not c for c in choices):
                continue
            for combo in product(*choices):
                if max(dep for _, dep in combo) != d - 1:
                    continue
                yield build_term(sig, nm, tuple(t for t, _ in combo)), res

    for d in range(1, max_depth + 1):
        if d == max_depth:
            for t, res in level(d):
                if res == sort:
                    yield t
        else:
            produced = list(level(d))
            for t, res in produced:
                pools[res].append((t, d))
            for t, res in produced:
                if res == sort:
                    yield t
