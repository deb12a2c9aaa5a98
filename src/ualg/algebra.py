"""Algebras over a signature and homomorphisms between them.

Two layers: a generic algebra whose operations are arbitrary Python
callables over arbitrary carrier values, and a finite refinement with
explicit ordered label carriers and total operation tables, which is what
every exhaustive check (homomorphism law, equation model checking)
enumerates.

A finite algebra keeps its tables as index rows, one flat array of
result indices per operation.  The label view, argument labels to result
label per operation, is read off those rows on the first ``op`` or
``tables`` call and then kept: ``op`` is one lookup in it, which maps
the result index back to its label, and ``tables`` copies it.  Model
checking and ``evaluate``, failed or not, read the rows only, so they
never build it.

The exhaustive checks themselves, ``check_hom`` and the machine that
``holds`` runs, live in ``modelcheck``, which a process loads only when
it checks something: ``ualg eval`` builds and evaluates in an algebra
without compiling them.  ``check_hom``, ``first_difference`` and
``HomVerdict`` stay importable from here; the first use loads
``modelcheck`` (PEP 562).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import cached_property
from itertools import product
from math import prod

from . import _lazy
from .signature import Frozen, OpId, Signature, SortId
from .varspec import VarSpec, extends_by_constants, is_vsignature


class AlgebraError(ValueError):
    """Raised for ill-formed algebras, tables, or homomorphism data."""


UNIT_ELEMENT = "*"

# Indices below _BYTE fit a bytes column and a translate table.
_BYTE = 256


class _Op:
    """An index table as a machine step: ``rows`` lists result indices in
    mixed-radix argument order over ``dims``, and ``width`` is the size of
    the result carrier.  ``padded`` is the rows as bytes, padded to a
    256-byte translate table, or None when an index of this table can
    exceed a byte; ``small`` tells whether, besides, every position fits
    a byte.  ``probe`` is its entry in the probe form that
    ``modelcheck._probe`` runs: a constant's index twice, as the pair it
    pushes, with None, and otherwise the rows with ``dims[1]`` for a
    binary table and with the dims after the first for any other.

    ``derived`` keeps what is read off the table on first use: for a
    binary table above 256 positions, ``runs(j)`` under the key ``j``,
    and under ``(j, c)`` the table that ``modelcheck._planned`` folds
    with argument ``j`` fixed at the index ``c``, one argument less.  So
    every plan over the table shares them: at most one fold per argument
    and index of the table, each a ``d``-th of its positions for that
    argument's carrier of ``d`` elements."""

    __slots__ = ("rows", "dims", "padded", "small", "probe", "derived")

    def __init__(self, rows: list[int], dims: tuple[int, ...], width: int):
        self.rows, self.dims = rows, dims
        self.probe = (rows, dims[1]) if len(dims) == 2 else (rows, dims[1:]) if dims else ((rows[0], rows[0]), None)
        wide = max((*dims, width)) > _BYTE
        self.padded = None if wide else bytes(rows).ljust(_BYTE, b"\0")
        self.small = not wide and len(rows) <= _BYTE
        self.derived = {}

    def runs(self, j: int) -> list[bytes]:
        """Per index of the other argument, the translate table that
        sends argument ``j`` of this binary table to the result."""
        rows = self.derived.get(j)
        if rows is None:
            free, other = (self.dims[1], 1) if j == 0 else (1, self.dims[1])
            d = self.dims[j] * free
            rows = self.derived[j] = [
                self.padded[x * other : x * other + d : free].ljust(_BYTE, b"\0") for x in range(self.dims[1 - j])
            ]
        return rows


class Algebra:
    """Interpretation of a signature: one Python callable per operation.

    Carrier elements may be arbitrary values (machine booleans, integers,
    terms); nothing here assumes they can be enumerated.
    """

    _symbols = None  # no table: evaluate runs in fold order, through op

    def __init__(self, signature: Signature, ops: Mapping[OpId, Callable[..., object]]):
        missing = [nm for nm in signature.ops if nm not in ops]
        if missing:
            raise AlgebraError(f"no interpretation for operation(s) {missing}")
        self.signature = signature
        self._ops = dict(ops)
        self._term_signature = None  # the last one evaluate accepted, through _accept_terms

    def _accept_terms(self, sig: Signature) -> None:
        """Keep ``sig`` as the signature of the terms ``evaluate`` runs,
        once it is this algebra's signature extended by constants, the
        variables; ``AlgebraError`` otherwise, keeping the last one.
        ``evaluate`` calls this only when a term brings another
        signature, so a loop over terms of one signature pays one
        identity test per term."""
        if not extends_by_constants(sig, self.signature):
            raise AlgebraError("the term is not over the algebra's signature extended by variables")
        self._term_signature = sig

    def op(self, nm: OpId, *args: object) -> object:
        try:
            fn = self._ops[nm]
        except (KeyError, TypeError):  # not an operation, or not hashable
            raise AlgebraError(f"unknown operation {nm!r}") from None
        return fn(*args)

    def sample_element(self, sort: SortId, rng: object) -> object:
        """An element of ``sort`` drawn with ``rng``, any object with a
        ``choice(sequence)`` method such as a ``random.Random``; an
        abstract algebra has none to draw."""
        raise AlgebraError(
            "cannot sample elements of an abstract algebra; "
            "use a finite algebra or override sample_element"
        )


class FiniteAlgebra(Algebra):
    """Finite carriers as ordered label tuples plus total operation tables.

    Labels are mapped to dense indices internally and each table is kept
    as a flat array of result indices in mixed-radix argument order.
    The label view, built from those rows on demand by the first ``op``
    or ``tables`` call, maps argument labels to the label of the result
    index: ``op`` is one lookup in it, and ``tables`` returns a copy.
    A table is a machine step over those indices, which
    ``first_difference`` runs on columns of assignments without touching
    a label; a binary table above 256 positions builds its per-index
    translate tables for that on first use.
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
        steps: dict[OpId, _Op] = {}
        for nm, arity, res in zip(signature.ops, signature.arities, signature.results):
            if nm not in tables:
                raise AlgebraError(f"no table for operation {nm!r}")
            dims = tuple(len(carr[a]) for a in arity)
            rows: list[int | None] = [None] * prod(dims)
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
            steps[nm] = _Op(rows, dims, len(carr[res]))  # type: ignore[arg-type]

        # Algebra.__init__ stores callables; this ``op`` reads the label view
        self.signature, self._term_signature = signature, None
        self._equations = None  # holds's record of the last pair _accept took
        self._symbols = None  # evaluate's table for _term_signature, built by _accept_terms
        self.carriers = carr
        self._index = index
        self._steps = steps

    def _accept_terms(self, sig: Signature) -> None:
        """``Algebra._accept_terms``, and the table that ``evaluate``'s
        index pass reads for ``sig``: per operation its argument count,
        index rows and the size of its second argument (all its sizes
        above two arguments), and per variable -1 and the index of its
        carrier."""
        super()._accept_terms(sig)
        table = {nm: (-1, self._index[s], None) for nm, s in zip(sig.ops, sig.results)}
        for nm, step in self._steps.items():
            k = len(step.dims)
            table[nm] = (k, step.rows, step.dims[1] if k == 2 else step.dims)
        self._symbols = table

    def _accept(self, vsig: Signature, varspec: VarSpec) -> _Equations | None:
        """A new, empty record of compiled equations for ``(vsig,
        varspec)``, kept in place of the last one; None, keeping the last,
        when ``vsig`` is not this algebra's signature extended by
        ``varspec``.  A variable's slot is its declaration index."""
        if not is_vsignature(vsig, self.signature, varspec):
            return None
        from .modelcheck import _Equations
        carriers = [self.carriers[s] for s in varspec.sorts]
        self._equations = record = _Equations(
            vsig,
            varspec,
            {v: i for i, v in enumerate(varspec.vars)} | self._steps,
            tuple(map(len, carriers)),
            tuple((i, v, c) for i, (v, c) in enumerate(zip(varspec.vars, carriers))),
        )
        return record

    @cached_property
    def _view(self) -> dict[OpId, dict[tuple[str, ...], str]]:
        """The label view: per operation, argument labels to result label
        in lexicographic argument order, read off the index rows once."""
        sig, carr = self.signature, self.carriers
        return {
            nm: dict(zip(product(*(carr[a] for a in arity)), map(carr[res].__getitem__, self._steps[nm].rows)))
            for nm, arity, res in zip(sig.ops, sig.arities, sig.results)
        }

    def op(self, nm: OpId, *args: str) -> str:
        try:
            return self._view[nm][args]
        except (KeyError, TypeError):  # not an operation, a wrong count, or not a label
            raise self._op_error(nm, args) from None

    def _op_on_rows(self, nm: OpId, *args: str) -> str:
        """``op`` for an operation of the signature and its full count of
        arguments, read off the index rows: it raises what ``op`` raises
        but builds no label view."""
        (arity, res), step = self.signature.decl[nm], self._steps[nm]
        pos = 0
        for a, d, x in zip(arity, step.dims, args):
            try:
                pos = pos * d + self._index[a][x]
            except (KeyError, TypeError):  # not a label, or not hashable
                raise self._op_error(nm, args) from None
        return self.carriers[res][step.rows[pos]]

    def _op_error(self, nm: OpId, args: tuple) -> AlgebraError:
        """Why ``op(nm, *args)`` has no entry in the label view."""
        if nm not in self.signature.ops:  # a tuple: no hash, so any name
            return AlgebraError(f"unknown operation {nm!r}")
        arity = self.signature.arity_of(nm)
        if len(args) != len(arity):
            return AlgebraError(f"{nm!r} expects {len(arity)} argument(s), got {len(args)}")
        for i, (x, a) in enumerate(zip(args, arity)):
            try:
                self._index[a][x]
            except (KeyError, TypeError):  # not a label, or not hashable
                break
        return AlgebraError(f"{x!r} is not a carrier element for argument {i} of {nm!r}")

    @property
    def tables(self) -> dict[OpId, dict[tuple[str, ...], str]]:
        """Each table as labels: a copy of the label view, so a caller may
        change it."""
        return {nm: dict(table) for nm, table in self._view.items()}

    def elements(self, sort: SortId) -> tuple[str, ...]:
        try:
            return self.carriers[sort]
        except KeyError:
            raise AlgebraError(f"unknown sort {sort!r}") from None

    def sample_element(self, sort: SortId, rng: object) -> str:
        """A label of ``sort``'s carrier, ``rng.choice`` of it; ``rng`` is
        any object with a ``choice(sequence)`` method such as a
        ``random.Random``."""
        carrier = self.elements(sort)
        if not carrier:
            raise AlgebraError(f"the carrier of sort {sort!r} is empty")
        return rng.choice(carrier)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.carriers == other.carriers
            and all(self._steps[nm].rows == other._steps[nm].rows for nm in self.signature.ops)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        sizes = {s: len(c) for s, c in self.carriers.items()}
        return f"FiniteAlgebra({sizes}, ops={list(self.signature.ops)})"


def unit_algebra(sig: Signature) -> FiniteAlgebra:
    """The one-point algebra: singleton carriers, every operation forced."""
    carriers = {s: (UNIT_ELEMENT,) for s in sig.sorts}
    tables = {
        nm: {tuple(UNIT_ELEMENT for _ in sig.arity_of(nm)): UNIT_ELEMENT}
        for nm in sig.ops
    }
    return FiniteAlgebra(sig, carriers, tables)


SortMap = Mapping[SortId, object]


class Hom(Frozen):
    """A per-sort map between algebras over the same signature.

    ``maps`` holds one callable or label dictionary per sort; the
    homomorphism law itself is checked by ``check_hom``.
    """

    __slots__ = ()
    _fields = ("source", "target", "maps")

    def __new__(cls, source: Algebra, target: Algebra, maps: SortMap):
        return tuple.__new__(cls, (source, target, maps))

    def apply(self, sort: SortId, x: object) -> object:
        try:
            m = self.maps[sort]
        except (KeyError, TypeError):  # no such sort, or ``maps`` is not keyed by sort
            raise AlgebraError(f"no map for sort {sort!r}") from None
        if callable(m):
            return m(x)
        if not isinstance(m, Mapping):
            raise AlgebraError(f"maps[{sort!r}]: expected a callable or a mapping, got {type(m).__name__}")
        try:
            return m[x]
        except (KeyError, TypeError):  # not a key, or not hashable
            raise AlgebraError(f"map has no image for element {x!r}") from None


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


__getattr__, __dir__ = _lazy(globals(), dict.fromkeys(
    ("HomVerdict", "check_hom", "first_difference"), "modelcheck"
))
