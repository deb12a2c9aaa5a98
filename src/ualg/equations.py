"""Equations between same-sort terms with variables, and model checking.

An equation holds in an algebra when both sides evaluate equally under
every assignment of its variables.  Over finite algebras this is decided
by exhaustive enumeration; only the variables that actually occur in the
equation are enumerated, since the others cannot influence either side.

``holds`` works on dense indices: each side becomes a machine program
over the algebra's index tables, with every declared variable a slot,
and ``algebra.first_difference`` finds the first assignment, in
lexicographic order, on which the two programs differ; its docstring
says how.  Only that assignment is mapped back to carrier labels.
"""

from __future__ import annotations

from .algebra import Algebra, FiniteAlgebra, first_difference
from .signature import Frozen, Signature, SortId, VarId, VarSpec, vsignature
from .term_vm import Term


class EquationError(ValueError):
    """Raised for ill-sorted equations or mismatched signatures."""


class Equation(Frozen):
    """A named pair of terms of the same sort, read as a universally
    quantified identity."""

    __slots__ = ()
    _fields = ("name", "sort", "lhs", "rhs")

    def __new__(cls, name: str, sort: SortId, lhs: Term, rhs: Term):
        if lhs.signature != rhs.signature:
            raise EquationError(f"equation {name!r}: sides over different signatures")
        for side, t in (("lhs", lhs), ("rhs", rhs)):
            if t.sort != sort:
                raise EquationError(f"equation {name!r}: {side} has sort {t.sort!r}, expected {sort!r}")
        return tuple.__new__(cls, (name, sort, lhs, rhs))


EqSystem = tuple[Equation, ...]


class EqSpec(Frozen):
    """A signature, a variable specification, and equations over them."""

    __slots__ = ()
    _fields = ("signature", "varspec", "equations")

    def __new__(cls, signature: Signature, varspec: VarSpec, equations: EqSystem):
        vsig = vsignature(signature, varspec)
        for eq in equations:
            if eq.lhs.signature != vsig:
                raise EquationError(f"equation {eq.name!r} is not over this signature and variable set")
        return tuple.__new__(cls, (signature, varspec, equations))


def free_vars(t: Term, varspec: VarSpec) -> set[VarId]:
    """The variables that occur in the term."""
    return {nm for nm in t.syms if varspec.is_var(nm)}


class EqVerdict(Frozen):
    """Whether an equation holds; if not, the first failing assignment."""

    __slots__ = ()
    _fields = ("holds", "counterexample")

    def __new__(cls, holds: bool, counterexample: dict[VarId, object] | None = None):
        return tuple.__new__(cls, (holds, counterexample))


def holds(algebra: FiniteAlgebra, eq: Equation, varspec: VarSpec) -> EqVerdict:
    """Decide an equation over a finite algebra by exhausting assignments.

    Assignments range over the variables occurring in the equation, in
    variable-declaration order, each over its carrier in carrier order; a
    false verdict carries the lexicographically first failing assignment,
    naming the occurring variables only.

    Each side runs as a program with one step per symbol, last symbol
    first: a variable's slot, its declaration index, or an operation's
    index table.  A variable that does not occur keeps its slot with size
    1, so ``first_difference`` enumerates exactly the occurring ones.

    The algebra keeps one record, for the last ``(vsig, varspec)`` pair
    whose check passed, compared by identity: a call with the same pair
    checks nothing again.  The record keeps each equation it has
    compiled, keyed by the symbols of both sides: both programs, the
    slot sizes, and the slots of the occurring variables, which label a
    counterexample.  So a call that checks the same equation again under
    the same pair looks it up and runs ``first_difference`` at once.
    Another pair that passes its check replaces the record with an empty
    one; a failed check keeps the old one.  The record keeps at most
    ``_KEPT_EQUATIONS`` equations and drops the oldest first;
    ``algebra._Equations`` gives its worst-case memory.  The table pays
    only when the same equation is checked again under the same pair.
    An algebra that is not a ``FiniteAlgebra`` cannot be enumerated:
    ``holds_sampled`` searches one that can sample its elements.
    """
    if not isinstance(algebra, FiniteAlgebra):
        raise EquationError(
            f"holds needs a FiniteAlgebra to enumerate assignments, got {type(algebra).__name__}; "
            "holds_sampled searches an algebra that can sample its elements"
        )
    vsig = eq.lhs.signature
    record = algebra._equations
    if vsig is not record.vsig or varspec is not record.varspec:
        record = algebra._accept(vsig, varspec)
        if record is None:
            raise EquationError(
                f"equation {eq.name!r} is not over this algebra's signature and variable set"
            )
    lhs, rhs, sizes, slots = record[eq.lhs.syms, eq.rhs.syms]
    found = first_difference(lhs, rhs, sizes)
    if found is None:
        return EqVerdict(True)
    return EqVerdict(False, {v: carrier[found[i]] for i, v, carrier in slots})


class EqReport(Frozen):
    """Per-equation verdicts, in equation order."""

    __slots__ = ()
    _fields = ("verdicts",)

    def __new__(cls, verdicts: tuple[tuple[str, EqVerdict], ...]):
        return tuple.__new__(cls, (verdicts,))

    @property
    def ok(self) -> bool:
        return all(v.holds for _, v in self.verdicts)

    def verdict(self, name: str) -> EqVerdict:
        for nm, v in self.verdicts:
            if nm == name:
                return v
        raise KeyError(name)


def is_eqalgebra(algebra: FiniteAlgebra, spec: EqSpec) -> EqReport:
    """Check every equation of the specification; the algebra models the
    specification exactly when all verdicts hold."""
    if algebra.signature != spec.signature:
        raise EquationError("algebra and equation specification are over different signatures")
    return EqReport(
        tuple((eq.name, holds(algebra, eq, spec.varspec)) for eq in spec.equations)
    )


def holds_sampled(
    algebra: Algebra,
    eq: Equation,
    varspec: VarSpec,
    n_samples: int = 1000,
    seed: int = 0,
) -> dict[VarId, object] | None:
    """Random assignment search for algebras that cannot be enumerated.

    Returns a counterexample assignment, or None meaning "no
    counterexample found in ``n_samples`` draws" - not a proof that the
    equation holds.  On a finite algebra with an empty carrier for an
    occurring variable there is no assignment to draw, and None is the
    answer, as ``holds`` says.
    """
    import random

    from .free_algebra import evaluate

    rng = random.Random(seed)
    occurring = free_vars(eq.lhs, varspec) | free_vars(eq.rhs, varspec)
    names = [v for v in varspec.vars if v in occurring]
    if isinstance(algebra, FiniteAlgebra) and not all(algebra.elements(varspec.sort_of(v)) for v in names):
        return None
    for _ in range(n_samples):
        assignment = {v: algebra.sample_element(varspec.sort_of(v), rng) for v in names}
        if evaluate(algebra, assignment, eq.lhs) != evaluate(algebra, assignment, eq.rhs):
            return assignment
    return None
