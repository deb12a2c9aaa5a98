"""Algebras over a signature and homomorphisms between them.

Two layers: a generic algebra whose operations are arbitrary Python
callables over arbitrary carrier values, and a finite refinement with
explicit ordered label carriers and total operation tables, which is what
every exhaustive check (homomorphism law, equation model checking)
enumerates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from .signature import OpId, Signature, SortId
from .term_vm import Term


class AlgebraError(ValueError):
    """Raised for ill-formed algebras, tables, or homomorphism data."""


UNIT_ELEMENT = "*"

# A compiled term: per symbol, last first, a variable slot or (index rows, dims).
Step = int | tuple[list[int], tuple[int, ...]]
Program = tuple[Step, ...]



class Algebra:
    """Interpretation of a signature: one Python callable per operation.

    Carrier elements may be arbitrary values (machine booleans, integers,
    terms); nothing here assumes they can be enumerated.
    """

    def __init__(self, signature: Signature, ops: Mapping[OpId, Callable[..., Any]]):
        missing = [nm for nm in signature.ops if nm not in ops]
        if missing:
            raise AlgebraError(f"no interpretation for operation(s) {missing}")
        self.signature = signature
        self._ops = dict(ops)

    def op(self, nm: OpId, *args: Any) -> Any:
        try:
            fn = self._ops[nm]
        except KeyError:
            raise AlgebraError(f"unknown operation {nm!r}") from None
        return fn(*args)

    def sample_element(self, sort: SortId, rng: random.Random) -> Any:
        raise AlgebraError(
            "cannot sample elements of an abstract algebra; "
            "use a finite algebra or override sample_element"
        )


class FiniteAlgebra(Algebra):
    """Finite carriers as ordered label tuples plus total operation tables.

    Labels are mapped to dense indices internally and each table is kept
    as a flat array of result indices in mixed-radix argument order;
    ``op`` maps the result index back to its label.  ``compile`` turns a
    term into a machine program over those indices, which ``run_program``
    executes without touching a label.
    """

    def __init__(
        self,
        signature: Signature,
        carriers: Mapping[SortId, Sequence[str]],
        tables: Mapping[OpId, Mapping[Sequence[str], str]],
    ):
        carr: dict[SortId, tuple[str, ...]] = {}
        for s in signature.sorts:
            if s not in carriers:
                raise AlgebraError(f"no carrier for sort {s!r}")
            labels = tuple(carriers[s])
            if len(set(labels)) != len(labels):
                raise AlgebraError(f"duplicate labels in the carrier of sort {s!r}")
            carr[s] = labels
        extra = set(carriers) - set(signature.sorts)
        if extra:
            raise AlgebraError(f"carriers for unknown sorts {sorted(extra)}")
        index = {s: {x: i for i, x in enumerate(carr[s])} for s in carr}

        extra_ops = set(tables) - set(signature.ops)
        if extra_ops:
            raise AlgebraError(f"tables for unknown operations {sorted(extra_ops)}")
        norm: dict[OpId, dict[tuple[str, ...], str]] = {}
        flat: dict[OpId, list[int]] = {}
        for nm in signature.ops:
            if nm not in tables:
                raise AlgebraError(f"no table for operation {nm!r}")
            arity = signature.arity_of(nm)
            res = signature.sort_of(nm)
            dims = [len(carr[a]) for a in arity]
            size = 1
            for d in dims:
                size *= d
            rows: list[int | None] = [None] * size
            entries: dict[tuple[str, ...], str] = {}
            for key, result in tables[nm].items():
                key = tuple(key)
                if len(key) != len(arity):
                    raise AlgebraError(
                        f"table entry for {nm!r} has {len(key)} argument(s), expected {len(arity)}"
                    )
                pos = 0
                for a, x in zip(arity, key):
                    try:
                        pos = pos * len(carr[a]) + index[a][x]
                    except KeyError:
                        raise AlgebraError(
                            f"table entry for {nm!r}: label {x!r} is not in the carrier of {a!r}"
                        ) from None
                if rows[pos] is not None:
                    raise AlgebraError(f"duplicate table entry for {nm!r} at {key}")
                try:
                    rows[pos] = index[res][result]
                except KeyError:
                    raise AlgebraError(
                        f"table result {result!r} for {nm!r} at {key} is not in the carrier of {res!r}"
                    ) from None
                entries[key] = result
            if len(entries) != size:
                missing_args = next(
                    args
                    for args in product(*(carr[a] for a in arity))
                    if args not in entries
                )
                raise AlgebraError(f"table for {nm!r} is not total: missing entry for {missing_args}")
            norm[nm] = entries
            flat[nm] = rows  # type: ignore[assignment]

        self.carriers = carr
        self.tables = norm
        self._index = index
        self._steps: dict[OpId, Step] = {}  # per operation, its (index rows, dims)
        ops: dict[OpId, Callable[..., str]] = {}
        for nm in signature.ops:
            arity = signature.arity_of(nm)
            idxs = [index[a] for a in arity]
            dims = tuple(len(carr[a]) for a in arity)
            rows = flat[nm]
            self._steps[nm] = (rows, dims)

            def fn(*args, _rows=rows, _idxs=idxs, _dims=dims, _nm=nm, _k=len(arity),
                   _labels=carr[signature.sort_of(nm)]):
                if len(args) != _k:
                    raise AlgebraError(f"{_nm!r} expects {_k} argument(s), got {len(args)}")
                pos = 0
                for i, x in enumerate(args):
                    try:
                        pos = pos * _dims[i] + _idxs[i][x]
                    except KeyError:
                        raise AlgebraError(
                            f"{x!r} is not a carrier element for argument {i} of {_nm!r}"
                        ) from None
                return _labels[_rows[pos]]

            ops[nm] = fn
        super().__init__(signature, ops)

    def compile(self, t: Term, slots: Mapping[str, int]) -> Program:
        """The machine program of ``t`` over carrier indices.

        One step per symbol, last symbol first: an operation's
        ``(index rows, dims)``, or for a variable its slot in the index
        tuple that ``run_program`` reads as the assignment.
        """
        steps = self._steps
        try:
            return tuple(steps[nm] if nm in steps else slots[nm] for nm in reversed(t.syms))
        except KeyError as err:
            raise AlgebraError(f"no slot for variable {err.args[0]!r}") from None

    def elements(self, sort: SortId) -> tuple[str, ...]:
        try:
            return self.carriers[sort]
        except KeyError:
            raise AlgebraError(f"unknown sort {sort!r}") from None

    def sample_element(self, sort: SortId, rng: random.Random) -> str:
        return rng.choice(self.elements(sort))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.carriers == other.carriers
            and self.tables == other.tables
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        sizes = {s: len(c) for s, c in self.carriers.items()}
        return f"FiniteAlgebra({sizes}, ops={list(self.signature.ops)})"


def run_program(program: Program, env: Sequence[int]) -> int:
    """Run a compiled term with ``env[slot]`` as each variable's carrier
    index; the index of the term's value.

    The sort-stack machine on indices: an operation pops its argument
    indices, first argument on top, and pushes the row they select.
    """
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for step in program:
        if step.__class__ is int:
            push(env[step])
        else:
            rows, dims = step
            pos = 0
            for d in dims:
                pos = pos * d + pop()
            push(rows[pos])
    return stack[-1]


def make_finite_algebra(
    signature: Signature,
    carriers: Mapping[SortId, Sequence[str]],
    tables: Mapping[OpId, Mapping[Sequence[str], str]],
) -> FiniteAlgebra:
    """Table-driven finite algebra; rejects non-total or ill-sorted tables."""
    return FiniteAlgebra(signature, carriers, tables)


def unit_algebra(sig: Signature) -> FiniteAlgebra:
    """The one-point algebra: singleton carriers, every operation forced."""
    carriers = {s: (UNIT_ELEMENT,) for s in sig.sorts}
    tables = {
        nm: {tuple(UNIT_ELEMENT for _ in sig.arity_of(nm)): UNIT_ELEMENT}
        for nm in sig.ops
    }
    return FiniteAlgebra(sig, carriers, tables)


SortMap = Mapping[SortId, Any]


def _as_fn(m: Any) -> Callable[[Any], Any]:
    if callable(m):
        return m

    def lookup(x, _m=m):
        try:
            return _m[x]
        except KeyError:
            raise AlgebraError(f"map has no image for element {x!r}") from None

    return lookup


@dataclass(frozen=True)
class Hom:
    """A per-sort map between algebras over the same signature.

    ``maps`` holds one callable or label dictionary per sort; the
    homomorphism law itself is checked by ``check_hom``.
    """

    source: Algebra
    target: Algebra
    maps: SortMap

    def apply(self, sort: SortId, x: Any) -> Any:
        try:
            m = self.maps[sort]
        except KeyError:
            raise AlgebraError(f"no map for sort {sort!r}") from None
        return _as_fn(m)(x)


@dataclass(frozen=True)
class HomVerdict:
    ok: bool
    counterexample: tuple[OpId, tuple[Any, ...]] | None = None


def check_hom(maps: SortMap | Hom, src: FiniteAlgebra, dst: Algebra) -> HomVerdict:
    """Exhaustively verify the homomorphism law for a candidate map.

    For every operation and every tuple of source elements, the map of
    the operation's result must equal the operation applied to the mapped
    arguments.  A false verdict carries the first counterexample in
    operation order, then lexicographic argument order over the source
    carriers.
    """
    if isinstance(maps, Hom):
        maps = maps.maps
    if not isinstance(src, FiniteAlgebra):
        raise AlgebraError("the source algebra must be finite to enumerate arguments")
    sig = src.signature
    if dst.signature != sig:
        raise AlgebraError("source and target are over different signatures")
    send = {}
    for s in sig.sorts:
        if s not in maps:
            raise AlgebraError(f"no map for sort {s!r}")
        send[s] = _as_fn(maps[s])
    for nm in sig.ops:
        arity = sig.arity_of(nm)
        res = sig.sort_of(nm)
        for args in product(*(src.elements(a) for a in arity)):
            lhs = send[res](src.op(nm, *args))
            rhs = dst.op(nm, *(send[a](x) for a, x in zip(arity, args)))
            if lhs != rhs:
                return HomVerdict(False, (nm, args))
    return HomVerdict(True)


def _same_algebra(a: Algebra, b: Algebra) -> bool:
    if a is b:
        return True
    if isinstance(a, FiniteAlgebra) and isinstance(b, FiniteAlgebra):
        return a == b
    return False


def compose_hom(g: Hom, f: Hom) -> Hom:
    """The per-sort composition ``g after f``."""
    if not _same_algebra(f.target, g.source):
        raise AlgebraError("homs are not composable: target of f is not the source of g")
    maps = {
        s: (lambda x, _s=s: g.apply(_s, f.apply(_s, x)))
        for s in f.source.signature.sorts
    }
    return Hom(f.source, g.target, maps)


def hom_to_unit(algebra: Algebra) -> Hom:
    """The constant map into the one-point algebra; the only sort-correct
    map there is, since the target carriers are singletons."""
    unit = unit_algebra(algebra.signature)
    maps = {s: (lambda _x: UNIT_ELEMENT) for s in algebra.signature.sorts}
    return Hom(algebra, unit, maps)
