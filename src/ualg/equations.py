"""Equations between same-sort terms with variables, and model checking.

An equation holds in an algebra when both sides evaluate equally under
every assignment of its variables.  Over finite algebras this is decided
by exhaustive enumeration; only the variables that actually occur in the
equation are enumerated, since the others cannot influence either side.

``holds`` works on dense indices: each side is compiled once into a
machine program over the algebra's index tables, the programs run on
every index tuple in lexicographic order, and only the first
counterexample is mapped back to carrier labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Optional

from .algebra import Algebra, FiniteAlgebra, run_program
from .free_algebra import evaluate
from .signature import Signature, SortId, VarId, VarSpec, vsignature
from .term_vm import Term


class EquationError(ValueError):
    """Raised for ill-sorted equations or mismatched signatures."""


@dataclass(frozen=True)
class Equation:
    """A named pair of terms of the same sort, read as a universally
    quantified identity."""

    name: str
    sort: SortId
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.lhs.signature != self.rhs.signature:
            raise EquationError(f"equation {self.name!r}: sides over different signatures")
        for side, t in (("lhs", self.lhs), ("rhs", self.rhs)):
            if t.sort != self.sort:
                raise EquationError(
                    f"equation {self.name!r}: {side} has sort {t.sort!r}, expected {self.sort!r}"
                )


EqSystem = tuple[Equation, ...]


@dataclass(frozen=True)
class EqSpec:
    """A signature, a variable specification, and equations over them."""

    signature: Signature
    varspec: VarSpec
    equations: EqSystem

    def __post_init__(self):
        vsig = vsignature(self.signature, self.varspec)
        for eq in self.equations:
            if eq.lhs.signature != vsig:
                raise EquationError(
                    f"equation {eq.name!r} is not over this signature and variable set"
                )


def make_eqspec(sig: Signature, varspec: VarSpec, equations: Iterable[Equation]) -> EqSpec:
    return EqSpec(sig, varspec, tuple(equations))


def free_vars(t: Term, varspec: VarSpec) -> set[VarId]:
    """The variables that occur in the term."""
    return {nm for nm in t.syms if varspec.is_var(nm)}


@dataclass(frozen=True)
class EqVerdict:
    holds: bool
    counterexample: dict[VarId, Any] | None = None


def holds(algebra: FiniteAlgebra, eq: Equation, varspec: VarSpec) -> EqVerdict:
    """Decide an equation over a finite algebra by exhausting assignments.

    Assignments range over the variables occurring in the equation, in
    variable-declaration order, each over its carrier in carrier order; a
    false verdict carries the lexicographically first failing assignment.
    """
    if vsignature(algebra.signature, varspec) != eq.lhs.signature:
        raise EquationError(
            f"equation {eq.name!r} is not over this algebra's signature and variable set"
        )
    occurring = free_vars(eq.lhs, varspec) | free_vars(eq.rhs, varspec)
    names = [v for v in varspec.vars if v in occurring]
    slots = {v: i for i, v in enumerate(names)}
    lhs = algebra.compile(eq.lhs, slots)
    rhs = algebra.compile(eq.rhs, slots)
    domains = [algebra.elements(varspec.sort_of(v)) for v in names]
    for combo in product(*(range(len(d)) for d in domains)):
        if run_program(lhs, combo) != run_program(rhs, combo):
            return EqVerdict(False, {v: d[i] for v, d, i in zip(names, domains, combo)})
    return EqVerdict(True)


@dataclass(frozen=True)
class EqReport:
    """Per-equation verdicts, in equation order."""

    verdicts: tuple[tuple[str, EqVerdict], ...]

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
) -> Optional[dict[VarId, Any]]:
    """Random assignment search for algebras that cannot be enumerated.

    Returns a counterexample assignment, or None meaning "no
    counterexample found in ``n_samples`` draws" - not a proof that the
    equation holds.
    """
    rng = random.Random(seed)
    occurring = free_vars(eq.lhs, varspec) | free_vars(eq.rhs, varspec)
    names = [v for v in varspec.vars if v in occurring]
    for _ in range(n_samples):
        assignment = {v: algebra.sample_element(varspec.sort_of(v), rng) for v in names}
        if evaluate(algebra, assignment, eq.lhs) != evaluate(algebra, assignment, eq.rhs):
            return assignment
    return None
