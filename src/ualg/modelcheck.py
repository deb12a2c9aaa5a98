"""Exhaustive model checking over finite algebras: the homomorphism law
(``check_hom``) and the machine that ``equations.holds`` runs
(``first_difference``, and the record of compiled equations that a
``FiniteAlgebra`` keeps).  ``ualg check-eqs``, ``check-hom`` and
``examples`` load this module; ``eval`` and the ``term`` commands do not.

Exhaustive checks run machine programs on columns of carrier indices:
one step per symbol, last first, a slot of the assignment tuples or an
index table.  ``first_difference`` returns the lexicographically first
index tuple of the slot carriers' product on which two programs differ.
It runs each program's probe form once over the first two tuples
together, with every value a pair of indices, one per tuple.  Then one
machine runs both programs once per block of at most ``_MAX_BLOCK``
tuples: once the product passes that cap, the leading slots are looped
over in Python, each a single index, and the trailing slots are columns
over the block, kept per size pattern of the block.  A value is a
scalar index or such a column, ``bytes`` while every index fits a byte
and a list above that.  The probe forms and the plan of both programs
depend on the programs, the sizes and the block cap alone, so ``holds``
keeps them with each compiled equation.  The plan folds each constant
into the table that reads it.

On ``bytes`` columns an operation step takes one of the paths below.
Each is measured against the generic step it would otherwise take, as
how much slower the model checking ran without it, in thread time on
the modelcheck workload's seed-1 calls (``scripts/stages.py``):

- two or more arguments, all slots of the block, on a table of at most
  256 positions: one translate of a kept column of table positions
  (``holds`` 1.14x; keeping the column, 1.22x);
- one column among the arguments: one translate through the table row
  that the others select (23x on associativity over Z mod 48, whose
  leading slot is an index), and for a unary step, such as a sort map of
  ``check_hom``, its padded rows as they are (``check_hom`` 1.10x);
- two columns on a table of at most 256 positions: one big-endian
  integer per column, the first times its stride plus the second, sent
  through the result row (``holds`` 1.12x); with more columns, the same
  sum over every column and the fixed share;
- two columns on a binary table above 256 positions that read different
  innermost slots: one run of tuples at a time, the argument with the
  outer slot constant on each run, and the run of the other through one
  translate table, the row that constant selects (``check_hom`` 2.39x);
  a run that reads only slots inside it is one slice reused (the maps
  Z mod 40 -> Z mod 20, 1.15x).

Every other step selects the rows element by element, as every step
does on list columns.  The first differing byte of the two result
columns is read off their XOR.  ``check_hom`` decides the homomorphism
law with two such programs per operation, each sort map being a
one-row table, and plans them itself (``check_hom`` 1.96x).
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
    occur, which label a counterexample, and the plan made for the block
    cap at compile time (``_plan``).  A missing key is compiled and kept;
    past ``_KEPT_EQUATIONS`` the oldest entry goes first.  An entry holds
    the two programs, their probe forms and the two planned programs, of
    one pointer per symbol (a probe form's entries are shared), and per
    step fed by slots only a key of its slots and sizes, but no column:
    the position column it reads stays in ``_positions``'s bounded
    store.  A folded constant's table is
    kept by the table it came from (``_Op.derived``).  That is about 51
    bytes per symbol of both sides, plus about 600 bytes with three
    variables, and 38 per symbol with one constant in eight symbols
    (measured with ``tracemalloc`` on CPython 3.11.7, on random monoid
    equations of 10 to 126 symbols).  So a full record of equations of s
    symbols keeps at most about ``_KEPT_EQUATIONS * (51 * s + 600)``
    bytes: 280 KiB for laws of 10 symbols such as associativity, 3.3 MiB
    at 250 symbols."""

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
        self[key] = compiled = lhs, rhs, sizes, slots, _plan(lhs, rhs, sizes)
        return compiled


def _probe(form: tuple) -> tuple[int, int]:
    """The index of a compiled term at the first two tuples of the
    product at once, as a pair, from its probe form (``_plan``): per
    step ``(rows, d)``.  With ``d`` None, a slot or a constant, ``rows``
    is the pair to push; a binary step, the common one, unpacks both
    argument pairs at once with its second dimension ``d`` (through the
    loop, the modelcheck workload's early exits ran 1.045x slower); any
    other takes its first argument's pair and loops over ``d``, the dims
    after the first."""
    stack: list[tuple[int, int]] = []
    push, pop = stack.append, stack.pop
    for rows, d in form:
        if d is None:
            push(rows)
        elif d.__class__ is int:
            (a, b), (x, y) = pop(), pop()
            push((rows[a * d + x], rows[b * d + y]))
        else:
            a, b = pop()
            for m in d:
                x, y = pop()
                a, b = a * m + x, b * m + y
            push((rows[a], rows[b]))
    return stack[-1]


# The one-byte string of each index below _BYTE, repeated into the columns
# of slots, of constants and of the fixed share of a step.
_BYTES = [bytes((x,)) for x in range(_BYTE)]


# A slot's entry in a probe form: its pair of indices at the first two
# tuples, the second for the last slot of size above 1.
_SLOTS = (((0, 0), None), ((0, 1), None))


def _plan(lhs: Program, rhs: Program, sizes: tuple[int, ...]) -> tuple:
    """``(lead, wide, lhs, rhs, last, lprobe, rprobe, cap)``: how both
    programs run over the first two tuples of the product and over its
    blocks, made for the block cap ``cap``, ``_MAX_BLOCK`` at the time.

    ``last`` is the last slot of size above 1, or -1, and each program's
    probe form, which ``_probe`` runs, has per step its ``_Op.probe`` or,
    for a slot, its pair from ``_SLOTS``.  ``lead`` is the number of
    leading slots looped over in Python, so that the block of the
    trailing ones holds at most ``cap`` tuples.  ``wide`` tells whether
    columns are lists, because a slot or a table's index passes a byte;
    then the programs run as they are, and otherwise each as
    ``_planned`` makes it.  The plan depends on the programs, the sizes
    and the cap alone."""
    last = max([i for i, m in enumerate(sizes) if m > 1], default=-1)
    probes = [tuple(_SLOTS[s == last] if s.__class__ is int else s.probe for s in p) for p in (lhs, rhs)]
    n, lead = prod(sizes), 0
    while n > _MAX_BLOCK:
        n //= sizes[lead]
        lead += 1
    if max(sizes, default=0) > _BYTE or None in [s.padded for s in (*lhs, *rhs) if s.__class__ is _Op]:
        return lead, True, lhs, rhs, last, *probes, _MAX_BLOCK
    return lead, False, _planned(lhs, sizes, lead), _planned(rhs, sizes, lead), last, *probes, _MAX_BLOCK


def _planned(program: Program, sizes: tuple[int, ...], lead: int) -> Program:
    """``program`` on ``bytes`` columns, with each table step that gains
    from knowing which slots its arguments read rewritten.

    A step of two or more arguments, all slots of the block, reads a
    column of table positions fixed by the block's sizes, its slots and
    its dims.  On a table of at most 256 positions it is ``((block,
    slots, dims), padded)``: the column of ``_positions`` sent through
    the padded rows, one translate.

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
    column.  A constant is pushed nowhere: its mask is ``-1 - c`` for
    its index ``c``, and the step that reads it runs as its table's part
    at ``c``, one argument less, which the table keeps (``_Op.derived``);
    a program whose value is a constant ends with it as a table."""
    block, masks, planned = sizes[lead:], [], []
    for step in program:
        if step.__class__ is int:
            masks.append(1 << step if step >= lead and sizes[step] > 1 else 0)
            planned.append(step)
            continue
        k = len(step.dims)
        args = masks[len(masks) - k :][::-1]  # first argument first
        del masks[len(masks) - k :]
        while min(args, default=0) < 0:  # a constant argument, folded into a smaller table
            j = args.index(min(args))
            s, d, c = prod(step.dims[j + 1 :]), step.dims[j], -1 - args.pop(j)
            if (j, c) not in step.derived:  # folded once per table, argument and index
                rows = bytes([r for o in range(c * s, len(step.rows), d * s or 1) for r in step.rows[o : o + s]])
                step.derived[j, c] = _Op(rows, step.dims[:j] + step.dims[j + 1 :], _BYTE)
            step = step.derived[j, c]
        k = len(args)
        if not k:  # a constant, pushed nowhere: the step that reads it folds it
            masks.append(-1 - step.rows[0])
            continue
        mask = 0
        for m in args:
            mask |= m
        fed = planned[len(planned) - k :][::-1]  # the arguments, if all are slot pushes
        slots = tuple([s - lead for s in fed if s.__class__ is int and s >= lead])
        if mask and len(slots) == k > 1 and step.small:
            del planned[-k:]
            step = (block, slots, step.dims), step.padded
        elif k == 2 and not step.small:
            a, b = args[0].bit_length() - 1, args[1].bit_length() - 1
            if a != b and a >= 0 and b >= 0:
                j, cut = (1, a) if a < b else (0, b)
                step = (step, j, prod(sizes[cut + 1 :]), args[j] & -args[j] > 1 << cut)
        masks.append(mask)
        planned.append(step)
    if masks[-1] < 0:  # the program's value is a constant
        planned.append(_Op([-1 - masks[-1]], (), _BYTE))
    return tuple(planned)


def _packed_run(program: Program, env: list, n: int):
    """The sort-stack machine on values over one block of ``n`` tuples,
    each a scalar index or a column with one index per tuple: ``bytes``,
    or a list when an index can exceed a byte.  A slot pushes its entry
    of ``env``, an operation pops its arguments, the first on top.

    The fixed arguments select a position in the table, the sum of each
    index times its mixed-radix stride.  On ``bytes`` columns, a unary
    step is one translate through its padded rows (``check_hom`` 1.10x
    against the one-column step), and any other step with one column is
    one translate through the row that column selects from there.  With
    two columns on a table of at most 256 positions, the first, read as
    one big-endian integer, times its stride, plus the second is the
    column of table positions (``holds`` 1.12x against the general sum);
    with more, each column times its stride plus the fixed share in
    every byte; no byte carries.  That column goes through the padded
    result row.  Of the steps that ``_planned`` rewrote, a step fed by
    slots only sends its kept position column through its padded rows,
    and a binary step above 256 positions does one translate per run of
    tuples.  ``check_hom``'s plan pushes a table's rows as they are.
    Every other step selects the rows element by element."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for step in program:
        if step.__class__ is int:
            push(env[step])
            continue
        if step.__class__ is bytes:  # f_src's rows in check_hom's plan: the identity positions
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


def _columns(sizes: tuple[int, ...], wide: bool) -> tuple[bytes | list | int, ...]:
    """The entries of the slots of a block over ``sizes``: the index 0
    for a slot of size 1, else a column with the slot's index at each
    tuple of their lexicographic product: a list when ``wide``, else
    ``bytes``, which needs every size at most 256.  Built anew on every
    call: ``first_difference`` builds list columns per call, and keeps
    ``bytes`` ones through ``_slot_columns``."""
    n, outer, cols = prod(sizes), 1, []
    for m in sizes:
        inner = n // (outer * m)
        if m == 1:  # index 0 at every tuple
            cols.append(0)
            continue
        col = [x for x in range(m) for _ in range(inner)] if wide else b"".join([_BYTES[x] * inner for x in range(m)])
        cols.append(col * outer)
        outer *= m
    return tuple(cols)


@lru_cache(maxsize=_KEPT)
def _slot_columns(sizes: tuple[int, ...]) -> tuple[bytes | int, ...]:
    """The ``bytes`` slot columns of a block over ``sizes``, each size at
    most 256 (``_columns``).

    They depend on the sizes alone, so the last ``_KEPT`` size patterns
    keep theirs, and every call and block over the same sizes shares
    them; ``bytes`` cannot change.  A pattern keeps one column of
    ``prod(sizes)`` bytes per slot of size above 1.  A block has at most
    ``_MAX_BLOCK`` = 65,536 tuples, so at most 16 such slots: at worst
    1 MiB per pattern and 32 MiB in all.  Z mod 14 with three variables
    keeps 8 KiB."""
    return _columns(sizes, False)


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

    Both programs run as a plan (``_plan``) says.  A caller that keeps
    the plan of its programs and sizes hands it in, as ``holds`` does
    with the plan its compiled equation keeps, and ``check_hom`` with
    its own; a plan made for another block cap, or none, is made for
    this call first.  The first two tuples are all zeros, then a 1 at
    the last slot of size above 1.  Each program's probe form runs once
    over both (``_probe``), so an early difference costs little; a
    product of one tuple passes it twice.  Then the product is cut into
    blocks of at most ``_MAX_BLOCK`` tuples: the leading slots are
    looped over in Python, each a single index, and both terms run once
    per block on columns over the trailing slots (``_packed_run``); a
    slot of size 1 is the index 0 throughout.  Columns are ``bytes``
    while every index fits a byte, and lists above that.  The ``bytes``
    slot columns depend on the block's sizes alone and come from
    ``_slot_columns``, which keeps them for the last ``_KEPT`` size
    patterns; list columns are built per call.  The blocks run the
    programs of the plan: as they are on lists, and on ``bytes`` with
    constants folded, slot-fed steps and binary steps above 256
    positions rewritten (``_planned``).
    The first block whose two result columns differ gives the answer: on
    ``bytes``, the first differing byte is read off the bit length of
    their XOR, and a list is scanned.
    """
    sizes = tuple(sizes)
    n = prod(sizes)
    if not n:  # a carrier is empty
        return None
    if plan is None or plan[7] != _MAX_BLOCK:  # none, or one made for another block cap
        plan = _plan(lhs, rhs, sizes)
    lead, wide, lhs, rhs, last, lprobe, rprobe, _ = plan
    (a, b), (c, d) = _probe(lprobe), _probe(rprobe)
    t = (0,) * len(sizes)
    if a != c:
        return t
    if b != d:
        return (*t[:last], 1, *t[last + 1 :])
    if n <= 2:
        return None
    block = sizes[lead:]
    n = prod(block)
    env = [0] * lead + [*(_columns(block, True) if wide else _slot_columns(block))]
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
    that plan, with the right side's probe form built in the loop that
    builds the programs and the left side's as one pair, ``h_r`` of
    ``f_src``'s positions 0 and 1.  Planned by ``first_difference``, the
    modelcheck workload's maps ran 1.96x slower.  A constant's law
    compares two indices.
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
        # programs run the last symbol first; rform is the right one's probe form
        lhs, rhs, rform, last = [*range(len(arity) - 1, -1, -1), f, h], [], [], -1
        for i in lhs[:-2]:
            last = i if last < 0 and f.dims[i] > 1 else last
            rhs += i, send[arity[i]]
            rform += _SLOTS[i == last], rhs[-1].probe
        rhs.append(g)
        plan = None  # list columns, an empty product or more than one block: first_difference plans
        if f.padded is not None and g.padded is not None and 0 < len(f.rows) <= _MAX_BLOCK:  # so every map's too
            # over one block, the product itself, f_src's positions are the identity; at
            # the first two tuples they are 0 and 1, or 0 twice in a product of one
            lprobe = ((h.rows[f.rows[0]], h.rows[f.rows[last >= 0]]), None),
            planned = (f.padded[: len(f.rows)], h), rhs if g.small else _planned(rhs, f.dims, 0)
            plan = 0, False, *planned, last, lprobe, (*rform, g.probe), _MAX_BLOCK
        found = first_difference(lhs, rhs, f.dims, plan)
        if found is not None:
            return HomVerdict(False, (nm, tuple(src.elements(a)[i] for a, i in zip(arity, found))))
    return HomVerdict(True)
