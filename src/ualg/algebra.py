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

Exhaustive checks run machine programs on columns of carrier indices:
one step per symbol, last first, a slot of the assignment tuples or an
index table.  ``first_difference`` returns the lexicographically first
index tuple of the slot carriers' product on which two programs differ.
It runs each program once over the first two tuples together, with
every value a pair of indices, one per tuple.  Then one machine runs
both programs once per block of at most ``_MAX_BLOCK`` tuples: once the
product passes that cap, the leading slots are looped over in Python,
each a single index, and the trailing slots are columns over the block,
kept per size pattern of the block.  A value is a scalar index or such
a column, ``bytes`` while every index fits a byte and a list above
that.  On ``bytes`` columns, a step with one column among its arguments
is one translate through the table row that the others select; a unary
step's row is its padded rows as they are.  With more, a table of at
most 256 positions takes a fixed number of C-level calls: one
big-endian integer per column, scaled by its mixed-radix stride and
summed into the column of table positions (no byte can carry), sent
through the result row.  A binary table above 256 positions whose
arguments read different innermost slots goes one run of tuples at a
time: the argument with the outer slot is constant on each run, and the
run of the other goes through one translate table, the row that
constant selects.  Every other step selects the rows element by
element.  The first differing byte of the two result columns is read
off their XOR.  ``check_hom`` decides the homomorphism law with two
such programs per operation, each sort map being a one-row table.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import cached_property, lru_cache
from itertools import product, repeat
from math import prod

from .signature import Frozen, OpId, Signature, SortId, VarSpec, is_vsignature


class AlgebraError(ValueError):
    """Raised for ill-formed algebras, tables, or homomorphism data."""


UNIT_ELEMENT = "*"

# Indices below _BYTE fit a bytes column and a translate table.  A block
# holds at most _MAX_BLOCK assignments, which bounds each column's memory.
_BYTE = 256
_MAX_BLOCK = 1 << 16


class _Op:
    """An index table as a machine step: ``rows`` lists result indices in
    mixed-radix argument order over ``dims``, and ``width`` is the size of
    the result carrier.  ``padded`` is the rows as bytes, padded to a
    256-byte translate table, or None when an index of this table can
    exceed a byte; ``small`` tells whether, besides, every position fits
    a byte.  A binary table above 256 positions builds ``runs(j)`` on
    first use."""

    __slots__ = ("rows", "dims", "padded", "small", "_runs")

    def __init__(self, rows: list[int], dims: tuple[int, ...], width: int):
        self.rows, self.dims = rows, dims
        wide = max((*dims, width)) > _BYTE
        self.padded = None if wide else bytes(rows).ljust(_BYTE, b"\0")
        self.small = not wide and len(rows) <= _BYTE
        self._runs = [None, None]

    def runs(self, j: int) -> list[bytes]:
        """Per index of the other argument, the translate table that
        sends argument ``j`` of this binary table to the result."""
        rows = self._runs[j]
        if rows is None:
            free, other = (self.dims[1], 1) if j == 0 else (1, self.dims[1])
            d = self.dims[j] * free
            rows = self._runs[j] = [
                self.padded[x * other : x * other + d : free].ljust(_BYTE, b"\0") for x in range(self.dims[1 - j])
            ]
        return rows


# A compiled term: per symbol, last first, a variable slot or an operation.
Step = int | _Op
Program = tuple[Step, ...]

# The number of compiled equations a FiniteAlgebra's record keeps.
_KEPT_EQUATIONS = 256


class _Equations(dict):
    """The record of one ``(vsig, varspec)`` pair that a finite algebra
    accepted: the lookup of variable slots and operation steps, each
    slot's carrier size, each slot's ``(index, variable, carrier)``, and,
    keyed by the symbols of both sides, the equations compiled so far.

    A compiled equation is both programs, the slot sizes with each
    variable that does not occur at 1, and the slots of the variables
    that occur, which label a counterexample.  A missing key is compiled
    and kept; past ``_KEPT_EQUATIONS`` the oldest entry goes first.  An
    entry holds two programs of one pointer per symbol and keeps the two
    symbol tuples of its key alive: about 16 bytes per symbol of both
    sides, plus about 450 bytes with three variables (measured with
    ``tracemalloc`` on CPython 3.11).  So a full record of equations of
    s symbols keeps about ``_KEPT_EQUATIONS * (16 * s + 450)`` bytes:
    150 KiB for laws of 10 symbols such as associativity, 1.1 MiB at
    250 symbols."""

    __slots__ = ("vsig", "varspec", "lookup", "sizes", "slots")

    def __init__(self, vsig=None, varspec=None, lookup=None, sizes=(), slots=()):
        self.vsig, self.varspec, self.lookup, self.sizes, self.slots = vsig, varspec, lookup, sizes, slots

    def __missing__(self, key: tuple[tuple[str, ...], tuple[str, ...]]):
        get = self.lookup.__getitem__
        lhs, rhs = (tuple(map(get, reversed(syms))) for syms in key)
        occurring = set(lhs).union(rhs)
        sizes = tuple(m if i in occurring else 1 for i, m in enumerate(self.sizes))
        if len(self) >= _KEPT_EQUATIONS:
            self.pop(next(iter(self)), None)  # another thread may have dropped it
        self[key] = compiled = lhs, rhs, sizes, tuple(slot for slot in self.slots if slot[0] in occurring)
        return compiled


class Algebra:
    """Interpretation of a signature: one Python callable per operation.

    Carrier elements may be arbitrary values (machine booleans, integers,
    terms); nothing here assumes they can be enumerated.
    """

    def __init__(self, signature: Signature, ops: Mapping[OpId, Callable[..., object]]):
        missing = [nm for nm in signature.ops if nm not in ops]
        if missing:
            raise AlgebraError(f"no interpretation for operation(s) {missing}")
        self.signature = signature
        self._ops = dict(ops)
        self._term_signature = signature  # the last one evaluate accepted

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
        self.signature = self._term_signature = signature
        self._equations = _Equations()  # holds's record of the last pair _accept took
        self._symbols = None  # evaluate's table for _term_signature, built on first use
        self.carriers = carr
        self._index = index
        self._steps = steps

    def _accept(self, vsig: Signature, varspec: VarSpec) -> _Equations | None:
        """A new, empty record of compiled equations for ``(vsig,
        varspec)``, kept in place of the last one; None, keeping the last,
        when ``vsig`` is not this algebra's signature extended by
        ``varspec``.  A variable's slot is its declaration index."""
        if not is_vsignature(vsig, self.signature, varspec):
            return None
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


def _probe(program: Program, last: int) -> tuple[int, int]:
    """The index of a compiled term at the first two tuples of the
    product at once, as a pair: every slot is 0 in both but slot
    ``last``, which is 1 in the second.  A binary step, the common one,
    unpacks both argument pairs at once; any other loops over its
    dimensions."""
    stack: list[tuple[int, int]] = []
    push, pop = stack.append, stack.pop
    for step in program:
        if step.__class__ is int:
            push((0, 1) if step == last else (0, 0))
            continue
        rows, dims = step.rows, step.dims
        if len(dims) == 2:
            (a, b), (x, y), d = pop(), pop(), dims[1]
            push((rows[a * d + x], rows[b * d + y]))
            continue
        a = b = 0
        for d in dims:
            x, y = pop()
            a, b = a * d + x, b * d + y
        push((rows[a], rows[b]))
    return stack[-1]


# The one-byte string of each index below _BYTE, repeated into the columns
# of slots, of constants and of the fixed share of a step.
_BYTES = [bytes((x,)) for x in range(_BYTE)]


def _plan(program: Program, sizes: Sequence[int], lead: int) -> Program:
    """``program`` with each binary step above 256 positions whose two
    arguments read different innermost slots of the block replaced by
    ``(step, j, run, reuse)``.

    The argument whose innermost slot is the outer one is constant on
    runs of ``run`` tuples, so each run of the other, argument ``j``,
    goes through the translate table of ``runs(j)`` that the constant
    selects.  ``reuse`` tells whether argument ``j`` reads only slots
    inside the run, so that every run of it is the same slice.  A value's
    mask has the bit of each slot it reads; the leading slots and the
    slots of size 1 are indices in every block, so they have none, and a
    value that reads no slot of the block is an index, not a column."""
    masks, planned = [], []
    push, pop = masks.append, masks.pop
    for step in program:
        if step.__class__ is int:
            push(1 << step if step >= lead and sizes[step] > 1 else 0)
        elif len(step.dims) == 2:
            args = pop(), pop()
            a, b = args[0].bit_length() - 1, args[1].bit_length() - 1
            if a != b and a >= 0 and b >= 0 and not step.small:
                j, cut = (1, a) if a < b else (0, b)
                step = (step, j, prod(sizes[cut + 1 :]), args[j] & -args[j] > 1 << cut)
            push(args[0] | args[1])
        else:
            mask = 0
            for _ in step.dims:
                mask |= pop()
            push(mask)
        planned.append(step)
    return tuple(planned)


def _packed_run(program: Program, env: list, n: int):
    """The sort-stack machine on values over one block of ``n`` tuples,
    each a scalar index or a column with one index per tuple: ``bytes``,
    or a list when an index can exceed a byte.  A slot pushes its entry
    of ``env``, an operation pops its arguments, the first on top.

    The fixed arguments select a position in the table, the sum of each
    index times its mixed-radix stride.  On ``bytes`` columns, a unary
    step is one translate through its padded rows, and any other step
    with one column is one translate through the row that column selects
    from there.  With more, on a table of at most 256 positions, each
    column, read as one big-endian integer, times its stride, plus the
    fixed share in every byte, sums to the column of table positions; no
    byte carries.  That column goes through the padded result row.  A step that
    ``_plan`` marked does one translate per run of tuples.  Every other
    step selects the rows element by element."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for step in program:
        if step.__class__ is int:
            push(env[step])
            continue
        if step.__class__ is tuple:
            step, j, run, reuse = step
            args = pop(), pop()
            col, other = args[j], args[1 - j]
            parts = repeat(col[:run]) if reuse else [col[i : i + run] for i in range(0, n, run)]
            push(b"".join(map(bytes.translate, parts, map(step.runs(j).__getitem__, other[::run]))))
            continue
        dims = step.dims
        if len(dims) == 1 and stack[-1].__class__ is bytes:
            # its padded rows are the translate table of its one argument
            push(pop().translate(step.padded))
            continue
        if step.small and len(dims) == 2 and stack[-1].__class__ is bytes and stack[-2].__class__ is bytes:
            # the common step, two columns: first argument times its stride plus the second
            pos = int.from_bytes(pop(), "big") * dims[1] + int.from_bytes(pop(), "big")
        else:
            fixed, stride, cols = 0, len(step.rows), []
            for d in dims:
                x = pop()
                stride //= d
                if x.__class__ is int:
                    fixed += x * stride
                else:
                    cols.append((x, stride, d))
            if not cols:
                push(step.rows[fixed])
                continue
            packed = cols[0][0].__class__ is bytes
            if packed and len(cols) == 1:
                ((x, stride, d),) = cols
                push(x.translate(step.padded[fixed : fixed + d * stride : stride].ljust(_BYTE, b"\0")))
                continue
            if not (packed and step.small):
                pos = repeat(fixed)
                for x, stride, _ in cols:
                    pos = [p + y * stride for p, y in zip(pos, x)]
                out = list(map(step.rows.__getitem__, pos))
                push(bytes(out) if packed else out)
                continue
            pos = sum(int.from_bytes(x, "big") * stride for x, stride, _ in cols)
            if fixed:
                pos += int.from_bytes(_BYTES[fixed] * n, "big")
        push(pos.to_bytes(n, "big").translate(step.padded))
    return stack[-1]


# The number of size patterns whose slot columns ``_slot_columns`` keeps.
_KEPT = 32


@lru_cache(maxsize=_KEPT)
def _slot_columns(sizes: tuple[int, ...]) -> tuple[bytes | int, ...]:
    """The entries of the slots of a block over ``sizes``, each at most
    256: the index 0 for a slot of size 1, else a ``bytes`` column with
    the slot's index at each tuple of their lexicographic product.

    They depend on the sizes alone, so the last ``_KEPT`` size patterns
    keep theirs, and every call and block over the same sizes shares
    them; ``bytes`` cannot change.  A pattern keeps one column of
    ``prod(sizes)`` bytes per slot of size above 1.  A block has at most
    ``_MAX_BLOCK`` = 65,536 tuples, so at most 16 such slots: at worst
    1 MiB per pattern and 32 MiB in all.  Z mod 14 with three variables
    keeps 8 KiB."""
    n, outer, cols = prod(sizes), 1, []
    for m in sizes:
        inner = n // (outer * m)
        if m == 1:  # index 0 at every tuple
            cols.append(0)
            continue
        col = bytes(range(m)) if inner == 1 else b"".join([_BYTES[x] * inner for x in range(m)])
        cols.append(col * outer)
        outer *= m
    return tuple(cols)


def _tuple_at(pos: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """The index tuple at position ``pos`` of the lexicographic product."""
    rest = []
    for n in reversed(sizes):
        pos, x = divmod(pos, n)
        rest.append(x)
    return tuple(reversed(rest))


def first_difference(lhs: Program, rhs: Program, sizes: Sequence[int]) -> tuple[int, ...] | None:
    """The lexicographically first index tuple of ``product(range(n) for n
    in sizes)`` on which two compiled terms differ, or None when they agree
    on all of them.

    The first two tuples are built directly: all zeros, then a 1 at the
    last slot of size above 1.  Each program runs once over both
    (``_probe``), so an early difference costs little; a product of one
    tuple passes it twice.  Then the product is cut into blocks of at
    most ``_MAX_BLOCK`` tuples: the leading slots are looped over in
    Python, each a single index, and both terms run once per block on
    columns over the trailing slots (``_packed_run``); a slot of size 1
    is the index 0 throughout.  Columns are ``bytes`` while every index
    fits a byte, and lists above that.  The ``bytes`` slot columns
    depend on the block's sizes alone and come from ``_slot_columns``,
    which keeps them for the last ``_KEPT`` size patterns; list columns
    are built per call.  On ``bytes``, a
    binary table above 256 positions is planned once per call
    (``_plan``) and goes through one translate per run of tuples where
    its arguments read different innermost slots.  The first block whose
    two result columns differ gives the answer: on ``bytes``, the first
    differing byte is read off the bit length of their XOR, and a list
    is scanned.
    """
    sizes = tuple(sizes)
    n = prod(sizes)
    if not n:  # a carrier is empty
        return None
    last = len(sizes) - 1
    while last >= 0 and sizes[last] == 1:
        last -= 1
    (a, b), (c, d) = _probe(lhs, last), _probe(rhs, last)
    t = (0,) * len(sizes)
    if a != c:
        return t
    if b != d:
        return (*t[:last], 1, *t[last + 1 :])
    if n <= 2:
        return None
    big = [s for s in (*lhs, *rhs) if s.__class__ is _Op and not s.small]
    wide = max(sizes) > _BYTE or None in [s.padded for s in big]
    lead = 0
    while n > _MAX_BLOCK:
        n //= sizes[lead]
        lead += 1
    if big and not wide:
        lhs, rhs = _plan(lhs, sizes, lead), _plan(rhs, sizes, lead)
    block = sizes[lead:]
    if wide:  # list columns, built per call
        env, outer = [0] * lead, 1
        for m in block:
            if m == 1:  # index 0 at every tuple
                env.append(0)
                continue
            inner = n // (outer * m)
            env.append([x for x in range(m) for _ in range(inner)] * outer)
            outer *= m
    else:
        env = [0] * lead + [*_slot_columns(block)]
    for t in product(*map(range, sizes[:lead])) if lead else [()]:
        env[:lead] = t
        a, b = _packed_run(lhs, env, n), _packed_run(rhs, env, n)
        if a.__class__ is int:
            a = [a] * n if wide else _BYTES[a] * n
        if b.__class__ is int:
            b = [b] * n if wide else _BYTES[b] * n
        if a == b:
            continue
        if wide:
            pos = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        else:
            pos = n - 1 - ((int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).bit_length() - 1) // 8
        return t + _tuple_at(pos, block)
    return None


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


class HomVerdict(Frozen):
    """Whether a map is a homomorphism; if not, the first counterexample
    as an operation and its source arguments."""

    __slots__ = ()
    _fields = ("ok", "counterexample")

    def __new__(cls, ok: bool, counterexample: tuple[OpId, tuple[object, ...]] | None = None):
        return tuple.__new__(cls, (ok, counterexample))


def check_hom(maps: SortMap | Hom, src: FiniteAlgebra, dst: FiniteAlgebra) -> HomVerdict:
    """Exhaustively verify the homomorphism law for a candidate map.

    For every operation and every tuple of source elements, the map of
    the operation's result must equal the operation applied to the mapped
    arguments.  A false verdict carries the first counterexample in
    operation order, then lexicographic argument order over the source
    carriers.

    This is the one place that checks a map against the algebras, and it
    does so before any operation is checked.  Both algebras must be
    finite and over the same signature.  Then ``maps`` must be a mapping
    keyed by sort (anything else holds no map for any sort), with no map
    for a sort the signature lacks and a map for every sort: a callable
    or a label mapping, checked sort by sort in signature order.  A
    dictionary's entries are read in its order: each key must be in the
    source carrier and each image in the target carrier, and then every
    source label must have an image.  A callable is applied once to every
    source element in carrier order, and each image must be in the target
    carrier.

    The same pass gives each sort map ``h_s`` an array of target indices,
    a one-row table.  The law for an operation ``f`` of arity ``a_1 .. a_k``
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
    if not isinstance(maps, Mapping):  # not keyed by sort: no sort has a map
        maps = {}
    for s in maps:
        if not sig.is_sort(s):
            raise AlgebraError(f"maps[{s!r}]: {s!r} is not a sort of the signature")
    send: dict[SortId, Step] = {}
    for s in sig.sorts:
        if s not in maps:
            raise AlgebraError(f"no map for sort {s!r}")
        m, labels, keys, index = maps[s], src.elements(s), src._index[s], dst._index[s]
        if callable(m):
            pairs = zip(labels, map(m, labels))
        elif isinstance(m, Mapping):
            pairs = m.items()
        else:
            raise AlgebraError(f"maps[{s!r}]: expected a callable or a mapping, got {type(m).__name__}")
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
        send[s] = _Op(images, (len(images),), len(dst.elements(s)))
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
