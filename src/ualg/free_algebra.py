"""Terms with variables as an algebra, and evaluation into other algebras.

A variable specification extends the base signature with one nullary
symbol per variable.  The terms over the extended signature form an
algebra whose operations build bigger terms; evaluating a term in a
target algebra under an assignment of the variables is the structural
fold that replaces every variable by its assigned element and every
operation symbol by the target operation.  That evaluation is the
per-sort map of the induced homomorphism out of the term algebra.

Evaluation takes a term only over the algebra's signature extended by
constants, the variables; any other term is an ``AlgebraError``.  It
neither recurses nor decomposes, and it has one pass per kind of
algebra.  A ``FiniteAlgebra`` runs the term right to left on the
sort-stack machine of ``term_vm`` carrying carrier indices: a variable
pushes the index of its label, an operation pops its argument indices
and pushes the entry of its index rows they select, and only the final
index is mapped to a label.  Any other algebra evaluates in fold order:
arguments left to right, each before its operation, through ``op``.
When the index pass meets a missing binding or a label outside a
carrier, the term is evaluated again in fold order, still on the index
rows, so every error is the first one the structural fold meets and no
label view is built.  With several unbound variables that is the
leftmost.  A bad label fails only when its operation is applied, after
the later arguments are visited, so ``conj x y`` under ``{"x": "bad"}``
reports the missing ``y``.

A ``FreeAlgebra`` imports ``terms`` only when one is made, so ``ualg
eval``, which only evaluates, never compiles it; ``build_term`` stays
importable from here (PEP 562).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from . import _lazy
from .algebra import Algebra, FiniteAlgebra, Hom
from .signature import Frozen, OpId, Signature, SignatureError, VarId
from .term_vm import Term, term_decompose
from .term_vm import enumerate_terms  # noqa: F401  still importable from here
from .varspec import VarSpec, vsignature

Assignment = Mapping[VarId, object]


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
        from .terms import build_term

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
        return tuple.__new__(Term, (self.vsig, (v,), self.varspec.sort_of(v)))


def evaluate(algebra: Algebra, assignment: Assignment, t: Term) -> object:
    """Evaluate a term in ``algebra`` under ``assignment``.

    The term must be over the algebra's signature extended by constants,
    the variables (``extends_by_constants``); any other term raises
    ``AlgebraError``.  Operation symbols are interpreted by the algebra
    and the constants past them are looked up in ``assignment``.
    Satisfies ``evaluate(A, a, build_term(vsig, nm, v)) ==
    A.op(nm, *(evaluate(A, a, x) for x in v))`` and
    ``evaluate(A, a, varterm(x)) == a[x]``.

    A ``FiniteAlgebra`` runs the term on carrier indices, through its
    index rows; when that pass meets a missing binding or a label outside
    a carrier, the term is evaluated again in fold order, through the
    same rows, which raises the error.  Any other algebra evaluates in
    fold order only.

    The algebra keeps the last term signature it accepted; only a term
    over another one calls ``_accept_terms``, which checks it and builds
    what the index pass reads, so a call over the same signature pays
    one identity test and one read.
    """
    if t.signature is not algebra._term_signature:
        algebra._accept_terms(t.signature)
    table = algebra._symbols
    if table is not None:
        # one right-to-left pass on a stack of carrier indices: a variable
        # pushes the index of its label, an operation pops its argument
        # indices (the first on top) and pushes the row they select; a
        # binary step, the commonest, is one line (through the loop, a
        # call on the termspace terms ran 1.30x slower), and any other
        # count of arguments, one among them, goes through the strides
        stack: list[int] = []
        push, pop = stack.append, stack.pop
        try:
            for nm in reversed(t.syms):
                k, rows, stride = table[nm]
                if k == 2:
                    push(rows[pop() * stride + pop()])
                elif k < 0:  # a variable: rows is its carrier's index
                    push(rows[assignment[nm]])
                elif k == 0:
                    push(rows[0])
                else:
                    pos = pop()
                    for d in stride[1:]:
                        pos = pos * d + pop()
                    push(rows[pos])
        except (KeyError, TypeError):  # replayed below, outside this handler
            pass
        else:
            # the loop ends on the top symbol; only its index becomes a label
            if k < 0:
                return assignment[nm]  # a lone variable evaluates to its binding as given
            return algebra.carriers[t.signature.decl[nm][1]][stack[-1]]
    return _evaluate_in_fold_order(algebra, assignment, t)


def _evaluate_in_fold_order(algebra: Algebra, assignment: Assignment, t: Term) -> object:
    """Evaluate left to right, each symbol after its arguments: the order
    of the structural fold, so the error raised is the first one the fold
    meets.  A ``FiniteAlgebra`` applies its operations on its index rows,
    so this builds no label view."""
    decl = algebra.signature.decl
    op = algebra._op_on_rows if isinstance(algebra, FiniteAlgebra) else algebra.op
    steps = t.signature.height_steps
    frames: list[tuple[OpId, int, list[object]]] = []  # (symbol, arity, argument values so far)
    for nm in t.syms:
        k = 1 - steps[nm]
        if k:
            frames.append((nm, k, []))
            continue
        if nm in decl:
            value = op(nm)
        else:
            try:
                value = assignment[nm]
            except KeyError:
                raise MissingBindingError(f"no binding for variable {nm!r}") from None
        while frames:
            head, k, values = frames[-1]
            values.append(value)
            if len(values) < k:
                break
            frames.pop()
            value = op(head, *values)
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


class UniversalityVerdict(Frozen):
    """Whether a candidate map passed; if not, the term it failed at and why."""

    __slots__ = ()
    _fields = ("ok", "at", "detail")

    def __new__(cls, ok: bool, at: Term | None = None, detail: str | None = None):
        return tuple.__new__(cls, (ok, at, detail))


def check_universality(
    algebra: Algebra,
    varspec: VarSpec,
    assignment: Assignment,
    candidate: object,
    sample: Iterable[Term],
) -> UniversalityVerdict:
    """Check a candidate term map against the defining clauses of the
    induced homomorphism on a finite sample of terms.

    The candidate must agree with the assignment on every variable term
    and commute with the head operation of every sampled term.  Together
    with a depth-complete sample this pins the candidate to the canonical
    evaluation map on that sample.

    ``candidate`` is one callable for every sort, or one callable or term
    dictionary per sort, read through ``Hom.apply``.
    """
    free = FreeAlgebra(algebra.signature, varspec)
    if callable(candidate):
        candidate = dict.fromkeys(algebra.signature.sorts, candidate)
    cand = Hom(free, algebra, candidate).apply
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


__getattr__, __dir__ = _lazy(globals(), {"build_term": "terms"})
