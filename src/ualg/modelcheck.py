"""Exhaustive model checking over finite algebras: the homomorphism law
(``check_hom``) and the machine that ``equations.holds`` runs
(``first_difference``, and the record of compiled equations that a
``FiniteAlgebra`` keeps).  ``ualg check-eqs``, ``check-hom`` and
``examples`` load this module; ``eval`` and the ``term`` commands do not.

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
that.  The blocks run a plan of both programs, which depends on the
programs, the sizes and the cut into blocks alone, so ``holds`` keeps
it with each compiled equation.  On ``bytes`` columns, a step whose
arguments are all slots of the block is one translate of a kept column
of table positions; when the positions are the identity, it is the
table's own rows.  A step with one column among its arguments is one
translate through the table row that the others select; a unary step's
row is its padded rows as they are.  With more, a table of at most 256
positions takes a fixed number of C-level calls: one big-endian integer
per column, scaled by its mixed-radix stride and summed into the column
of table positions (no byte can carry), sent through the result row.  A
binary table above 256 positions whose arguments read different
innermost slots goes one run of tuples at a time: the argument with the
outer slot is constant on each run, and the run of the other goes
through one translate table, the row that constant selects.  Every
other step selects the rows element by element.  The first differing
byte of the two result columns is read off their XOR.  ``check_hom``
decides the homomorphism law with two such programs per operation, each
sort map being a one-row table, and plans them itself.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import product, repeat
from math import prod

from .algebra import _BYTE, AlgebraError, FiniteAlgebra, Hom, SortMap, _Op
from .signature import Frozen, OpId, SortId

# A block holds at most _MAX_BLOCK assignments, which bounds each column's memory.
_MAX_BLOCK = 1 << 16

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
    variable that does not occur at 1, the slots of the variables that
    occur, which label a counterexample, and the plan ``first_difference``
    runs its blocks by, made for the cut into blocks at compile time
    (``_plan``).  A missing key is compiled and kept; past
    ``_KEPT_EQUATIONS`` the oldest entry goes first.  An entry holds the
    two programs and the two planned ones, of one pointer per symbol, and
    per step fed by slots only a key of its slots and sizes, but no
    column: the position column it reads stays in ``_positions``'s
    bounded store, and a step at the identity positions pushes its
    table's rows, at most 256 bytes or the table's own.  That is about
    45 bytes per symbol of both sides, plus about 600 bytes with three
    variables (measured with ``tracemalloc`` on CPython 3.11, on random
    monoid terms).  So a full record of equations of s symbols keeps
    about ``_KEPT_EQUATIONS * (45 * s + 600)`` bytes: 260 KiB for laws
    of 10 symbols such as associativity, 2.8 MiB at 250 symbols."""

    __slots__ = ("vsig", "varspec", "lookup", "sizes", "slots")

    def __init__(self, vsig, varspec, lookup, sizes, slots):
        self.vsig, self.varspec, self.lookup, self.sizes, self.slots = vsig, varspec, lookup, sizes, slots

    def __missing__(self, key: tuple[tuple[str, ...], tuple[str, ...]]):
        get = self.lookup.__getitem__
        lhs, rhs = (tuple(map(get, reversed(syms))) for syms in key)
        occurring = set(lhs).union(rhs)
        sizes = tuple(m if i in occurring else 1 for i, m in enumerate(self.sizes))
        if len(self) >= _KEPT_EQUATIONS:
            self.pop(next(iter(self)), None)  # another thread may have dropped it
        slots = tuple(slot for slot in self.slots if slot[0] in occurring)
        self[key] = compiled = lhs, rhs, sizes, slots, _plan(lhs, rhs, sizes, _cut(sizes))
        return compiled


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


def _cut(sizes: tuple[int, ...]) -> int:
    """The number of leading slots looped over in Python, so that the
    block of the trailing ones holds at most ``_MAX_BLOCK`` tuples."""
    n, lead = prod(sizes), 0
    while n > _MAX_BLOCK:
        n //= sizes[lead]
        lead += 1
    return lead


def _plan(lhs: Program, rhs: Program, sizes: tuple[int, ...], lead: int) -> tuple:
    """``(lead, wide, lhs, rhs)``: how both programs run over the blocks
    behind ``lead`` leading slots.  ``wide`` tells whether columns are
    lists, because a slot or a table's index passes a byte; then the
    programs run as they are, and otherwise each as ``_planned`` makes
    it.  The plan depends on the programs, the sizes and the cut alone."""
    if max(sizes, default=0) > _BYTE or None in [s.padded for s in (*lhs, *rhs) if s.__class__ is _Op]:
        return lead, True, lhs, rhs
    return lead, False, _planned(lhs, sizes, lead), _planned(rhs, sizes, lead)


def _planned(program: Program, sizes: tuple[int, ...], lead: int) -> Program:
    """``program`` on ``bytes`` columns, with each table step that gains
    from knowing which slots its arguments read rewritten.

    A step whose arguments are all slots of the block reads a column of
    table positions fixed by the block's sizes, its slots and its dims.
    When its slots are the block's, in order, and the block is its dims,
    the positions are the identity, and the step is its own rows as
    ``bytes``, pushed as they are.  Otherwise, on a table of at most 256
    positions, it is ``((block, slots, dims), padded)``: the column of
    ``_positions`` sent through the padded rows, one translate.

    A binary step above 256 positions whose two arguments read different
    innermost slots of the block is ``(step, j, run, reuse)``.  The
    argument whose innermost slot is the outer one is constant on runs
    of ``run`` tuples, so each run of the other, argument ``j``, goes
    through the translate table of ``runs(j)`` that the constant
    selects.  ``reuse`` tells whether argument ``j`` reads only slots
    inside the run, so that every run of it is the same slice.

    A value's mask has the bit of each slot it reads; the leading slots
    and the slots of size 1 are indices in every block, so they have
    none, and a value that reads no slot of the block is an index, not a
    column."""
    block, masks, planned = sizes[lead:], [], []
    for step in program:
        if step.__class__ is int:
            masks.append(1 << step if step >= lead and sizes[step] > 1 else 0)
            planned.append(step)
            continue
        k = len(step.dims)
        args = masks[len(masks) - k :][::-1]  # first argument first
        del masks[len(masks) - k :]
        mask = 0
        for m in args:
            mask |= m
        fed = planned[len(planned) - k :][::-1]  # the arguments, if all are slot pushes
        slots = tuple([s - lead for s in fed if s.__class__ is int and s >= lead])
        identity = block == step.dims and slots == tuple(range(k))
        if mask and len(slots) == k and (identity or k > 1 and step.small):
            del planned[-k:]
            step = step.padded[: len(step.rows)] if identity else ((block, slots, step.dims), step.padded)
        elif k == 2 and not step.small:
            a, b = args[0].bit_length() - 1, args[1].bit_length() - 1
            if a != b and a >= 0 and b >= 0:
                j, cut = (1, a) if a < b else (0, b)
                step = (step, j, prod(sizes[cut + 1 :]), args[j] & -args[j] > 1 << cut)
        masks.append(mask)
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
    byte carries.  That column goes through the padded result row.  Of
    the steps that ``_planned`` rewrote, a table's rows are pushed as
    they are, a step fed by slots only sends its kept position column
    through its padded rows, and a binary step above 256 positions does
    one translate per run of tuples.  Every other step selects the rows
    element by element."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for step in program:
        if step.__class__ is int:
            push(env[step])
            continue
        if step.__class__ is bytes:  # a table's rows at the identity positions
            push(step)
            continue
        if step.__class__ is tuple:
            if len(step) == 2:  # a step fed by slots only
                push(_positions(*step[0]).translate(step[1]))
                continue
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


# The number of position columns ``_positions`` keeps.
_KEPT_POSITIONS = 64


@lru_cache(maxsize=_KEPT_POSITIONS)
def _positions(block: tuple[int, ...], slots: tuple[int, ...], dims: tuple[int, ...]) -> bytes:
    """The column of positions in a table over ``dims`` of at most 256
    positions, whose argument i is slot ``slots[i]`` of a block over
    ``block``: the sum of each slot column, read as one big-endian
    integer, times the argument's mixed-radix stride (no byte can carry).

    It depends on its arguments alone, so the last ``_KEPT_POSITIONS``
    argument patterns keep theirs, one byte per tuple of the block: at
    worst 64 KiB each and 4 MiB in all.  A modelcheck pass of the
    benchmark meets 33 patterns, of at most 2,744 bytes each."""
    cols, pos, stride = _slot_columns(block), 0, prod(dims)
    for s, d in zip(slots, dims):
        stride //= d
        if cols[s].__class__ is bytes:  # a slot of size 1 is the index 0
            pos += int.from_bytes(cols[s], "big") * stride
    return pos.to_bytes(prod(block), "big")


def _tuple_at(pos: int, sizes: Sequence[int]) -> tuple[int, ...]:
    """The index tuple at position ``pos`` of the lexicographic product."""
    rest = []
    for n in reversed(sizes):
        pos, x = divmod(pos, n)
        rest.append(x)
    return tuple(reversed(rest))


def first_difference(
    lhs: Program, rhs: Program, sizes: Sequence[int], plan: tuple | None = None
) -> tuple[int, ...] | None:
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
    are built per call.  The blocks run the programs of a plan
    (``_plan``): whether columns are lists, and on ``bytes`` each
    program with its slot-fed steps and its binary steps above 256
    positions rewritten (``_planned``).  A caller that keeps the plan of
    its programs and sizes hands it in, as ``holds`` does with the plan
    its compiled equation keeps, and ``check_hom`` with its own; a plan
    made for another cut into blocks, or none, is made for this call.
    The first block whose two result columns differ gives the answer: on
    ``bytes``, the first differing byte is read off the bit length of
    their XOR, and a list is scanned.
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
    lead = _cut(sizes)
    if plan is None or plan[0] != lead:
        plan = _plan(lhs, rhs, sizes, lead)
    _, wide, lhs, rhs = plan
    block = sizes[lead:]
    n = prod(block)
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
    ``f_dst(h_a1(x_1), .., h_ak(x_k))``.  The product of the slots is
    ``f_src``'s own argument positions, so on ``bytes`` columns the left
    side is ``f_src``'s rows sent through ``h_r``, one translate, while
    the product fits one block; ``check_hom`` hands ``first_difference``
    that plan.  A constant's law compares two indices.
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
    for nm, (arity, res) in sig.decl.items():
        f, g, h = src._steps[nm], dst._steps[nm], send[res]
        if not arity:  # a constant: two indices
            if h.rows[f.rows[0]] != g.rows[0]:
                return HomVerdict(False, (nm, ()))
            continue
        lhs, rhs = [*range(len(arity) - 1, -1, -1), f, h], []  # programs run the last symbol first
        for i in lhs[:-2]:
            rhs += i, send[arity[i]]
        rhs.append(g)
        plan = None  # list columns: first_difference plans
        if f.padded is not None and g.padded is not None:  # so every map's too
            # over one block, the product itself, f_src's positions are the identity
            plan = 0, False, (f.padded[: len(f.rows)], h), rhs if g.small else _planned(rhs, f.dims, 0)
        found = first_difference(lhs, rhs, f.dims, plan)
        if found is not None:
            return HomVerdict(False, (nm, tuple(src.elements(a)[i] for a, i in zip(arity, found))))
    return HomVerdict(True)
