"""Algebras over a signature and homomorphisms between them.

Two layers: a generic algebra whose operations are arbitrary Python
callables over arbitrary carrier values, and a finite refinement with
explicit ordered label carriers and total operation tables, which is what
every exhaustive check (homomorphism law, equation model checking)
enumerates.

Exhaustive checks run compiled terms on columns of carrier indices.
``FiniteAlgebra.compile`` turns a term into a machine program;
``run_columns`` runs it on a chunk of assignments at once, with one list
of indices per variable slot and list comprehensions for each step; and
``first_difference`` walks the product of the slot carriers in
lexicographic chunks, small at first and growing to a fixed cap, and
returns the first index tuple on which two programs differ.
``check_hom`` decides the homomorphism law with two such programs per
operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
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
        self._term_signature = signature  # the last one evaluate accepted

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
    ``op`` maps the result index back to its label, and ``tables``
    rebuilds the label view on demand.  ``compile`` turns a
    term into a machine program over those indices, which ``run_columns``
    executes on columns of assignments without touching a label.
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
            if None in rows:
                missing_args = next(
                    args for args, r in zip(product(*(carr[a] for a in arity)), rows) if r is None
                )
                raise AlgebraError(f"table for {nm!r} is not total: missing entry for {missing_args}")
            flat[nm] = rows  # type: ignore[assignment]

        self.carriers = carr
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
                    except (KeyError, TypeError):  # not a label, or not hashable
                        raise AlgebraError(
                            f"{x!r} is not a carrier element for argument {i} of {_nm!r}"
                        ) from None
                return _labels[_rows[pos]]

            ops[nm] = fn
        super().__init__(signature, ops)

    def compile(self, t: Term, slots: Mapping[str, int]) -> Program:
        """The machine program of ``t`` over carrier indices.

        One step per symbol, last symbol first: an operation's
        ``(index rows, dims)``, or for a variable its slot, the position
        of its column among those that ``run_columns`` reads.  Programs
        are compared chunk by chunk over the assignment product by
        ``first_difference``.
        """
        lookup = {**slots, **self._steps}
        try:
            return tuple(map(lookup.__getitem__, reversed(t.syms)))
        except KeyError as err:
            raise AlgebraError(f"no slot for variable {err.args[0]!r}") from None

    @property
    def tables(self) -> dict[OpId, dict[tuple[str, ...], str]]:
        """Each table as labels, argument tuple to result in lexicographic
        argument order, read off the index rows."""
        sig, carr = self.signature, self.carriers
        return {
            nm: dict(
                zip(
                    product(*(carr[a] for a in sig.arity_of(nm))),
                    map(carr[sig.sort_of(nm)].__getitem__, self._steps[nm][0]),
                )
            )
            for nm in sig.ops
        }

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
            and self._steps == other._steps
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        sizes = {s: len(c) for s, c in self.carriers.items()}
        return f"FiniteAlgebra({sizes}, ops={list(self.signature.ops)})"


def run_columns(program: Program, cols: Sequence[list[int]], size: int) -> list[int]:
    """Run a compiled term on ``size`` assignments at once; the index of
    its value under each.

    ``cols[slot]`` lists each assignment's carrier index for the variable
    in that slot.  The sort-stack machine on columns: an operation pops
    its argument columns, first argument on top, and pushes the column of
    rows they select.
    """
    stack: list[list[int]] = []
    push, pop = stack.append, stack.pop
    for step in program:
        if step.__class__ is int:
            push(cols[step])
            continue
        rows, dims = step
        k = len(dims)
        if k == 2:
            d = dims[1]
            a, b = pop(), pop()
            push([rows[x * d + y] for x, y in zip(a, b)])
        elif k == 0:
            push([rows[0]] * size)
        else:
            pos = pop()
            for d in dims[1:]:
                pos = [p * d + y for p, y in zip(pos, pop())]
            push([rows[p] for p in pos])
    return stack[-1]


# Chunks of the assignment product: the first is small, so that an early
# counterexample costs little, and each next one is larger, up to a cap
# that bounds the memory of one chunk's columns.
_FIRST_CHUNK = 2
_MAX_CHUNK = 1024


def first_difference(lhs: Program, rhs: Program, sizes: Sequence[int]) -> tuple[int, ...] | None:
    """The lexicographically first index tuple of ``product(range(n) for n
    in sizes)`` on which two compiled terms differ, or None when they agree
    on all of them.

    The product is walked in chunks; both programs run on the slot
    columns of a chunk, and only a chunk whose value columns differ is
    scanned for its first differing position.
    """
    tuples = product(*map(range, sizes))
    chunk = _FIRST_CHUNK
    while True:
        block = list(islice(tuples, chunk))
        size = len(block)
        if not size:
            return None
        cols = [list(c) for c in zip(*block)]
        left = run_columns(lhs, cols, size)
        right = run_columns(rhs, cols, size)
        if left != right:
            return next(t for t, x, y in zip(block, left, right) if x != y)
        if size < chunk:
            return None
        chunk = min(4 * chunk, _MAX_CHUNK)


def unit_algebra(sig: Signature) -> FiniteAlgebra:
    """The one-point algebra: singleton carriers, every operation forced."""
    carriers = {s: (UNIT_ELEMENT,) for s in sig.sorts}
    tables = {
        nm: {tuple(UNIT_ELEMENT for _ in sig.arity_of(nm)): UNIT_ELEMENT}
        for nm in sig.ops
    }
    return FiniteAlgebra(sig, carriers, tables)


SortMap = Mapping[SortId, Any]


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
        if callable(m):
            return m(x)
        try:
            return m[x]
        except KeyError:
            raise AlgebraError(f"map has no image for element {x!r}") from None


@dataclass(frozen=True)
class HomVerdict:
    ok: bool
    counterexample: tuple[OpId, tuple[Any, ...]] | None = None


def check_hom(maps: SortMap | Hom, src: FiniteAlgebra, dst: FiniteAlgebra) -> HomVerdict:
    """Exhaustively verify the homomorphism law for a candidate map.

    For every operation and every tuple of source elements, the map of
    the operation's result must equal the operation applied to the mapped
    arguments.  A false verdict carries the first counterexample in
    operation order, then lexicographic argument order over the source
    carriers.

    This is the one place that checks a map against the algebras, and it
    does so before any operation is checked.  Both algebras must be
    finite and over the same signature.  Then ``maps`` must hold no map
    for a sort the signature lacks, and a map for every sort: a callable
    or a label dictionary, checked sort by sort in signature order.  A
    dictionary's entries are read in its order: each key must be in the
    source carrier and each image in the target carrier, and then every
    source label must have an image.  A callable is applied once to every
    source element in carrier order, and each image must be in the target
    carrier.

    The same pass gives each sort map ``h_s`` an array of target indices,
    a unary step.  The law for an operation ``f`` of arity ``a_1 .. a_k``
    and result sort ``r`` is then two programs over slots ``x_1 .. x_k``,
    compared by ``first_difference``: ``h_r(f_src(x_1, .., x_k))`` and
    ``f_dst(h_a1(x_1), .., h_ak(x_k))``.
    """
    if isinstance(maps, Hom):
        maps = maps.maps
    if not isinstance(src, FiniteAlgebra):
        raise AlgebraError("the source algebra must be finite to enumerate arguments")
    if not isinstance(dst, FiniteAlgebra):
        raise AlgebraError("the target algebra must be finite to compare images by index")
    sig = src.signature
    if dst.signature != sig:
        raise AlgebraError("source and target are over different signatures")
    for s in maps:
        if not sig.is_sort(s):
            raise AlgebraError(f"maps[{s!r}]: {s!r} is not a sort of the signature")
    send: dict[SortId, Step] = {}
    for s in sig.sorts:
        if s not in maps:
            raise AlgebraError(f"no map for sort {s!r}")
        m, labels, keys, index = maps[s], src.elements(s), src._index[s], dst._index[s]
        pairs = zip(labels, map(m, labels)) if callable(m) else m.items()
        images: list[int | None] = [None] * len(labels)
        for x, y in pairs:
            if x not in keys:
                raise AlgebraError(f"maps[{s!r}]: {x!r} is not in the source carrier")
            try:
                images[keys[x]] = index[y]
            except (KeyError, TypeError):  # not a label, or not hashable
                raise AlgebraError(
                    f"maps[{s!r}]: image {y!r} of {x!r} is not in the target carrier"
                ) from None
        if None in images:
            raise AlgebraError(f"maps[{s!r}]: no image for {labels[images.index(None)]!r}")
        send[s] = (images, (len(images),))
    for nm in sig.ops:
        arity = sig.arity_of(nm)
        slots = range(len(arity) - 1, -1, -1)  # programs run the last symbol first
        lhs = (*slots, src._steps[nm], send[sig.sort_of(nm)])
        rhs = (*(step for i in slots for step in (i, send[arity[i]])), dst._steps[nm])
        found = first_difference(lhs, rhs, [len(src.elements(a)) for a in arity])
        if found is not None:
            return HomVerdict(False, (nm, tuple(src.elements(a)[i] for a, i in zip(arity, found))))
    return HomVerdict(True)


def compose_hom(g: Hom, f: Hom) -> Hom:
    """The per-sort composition ``g after f``.

    The target of ``f`` must be the source of ``g``: equal finite
    algebras, or else the same object.
    """
    if f.target != g.source:
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
