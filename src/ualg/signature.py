"""Multi-sorted signatures and variable specifications.

Sorts, operation symbols and variables are identified by plain interned
strings.  A signature fixes an ordered list of operation symbols, each
with an arity (the list of argument sorts) and a result sort; the
declaration order defines operation indices and drives every
deterministic enumeration downstream.  A variable specification assigns
a sort to each variable and can be merged into a signature, turning
every variable into a nullary operation symbol of its sort.

``Frozen`` is the base of the library's immutable values, here and in
the modules built on this one: each value is the tuple of its fields,
read by name.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from operator import itemgetter

try:  # CPython's C descriptor for one tuple item: half the cost of a property
    from _collections import _tuplegetter
except ImportError:  # another interpreter
    _tuplegetter = lambda index, doc: property(itemgetter(index), doc=doc)  # noqa: E731


SortId = str
OpId = str
VarId = str


class SignatureError(ValueError):
    """Raised for ill-formed signatures or variable specifications."""


class Frozen(tuple):
    """An immutable value: the tuple of the fields named in ``_fields``.

    A subclass lists its fields in ``_fields``, gets one read-only
    accessor per name, and builds its value in ``__new__`` with
    ``tuple.__new__(cls, fields)``.  Two values are equal when they are
    of the same class and equal as tuples, so no value equals the plain
    tuple of its fields; the hash is the hash of that tuple.  Values are
    not ordered: ``<``, ``<=``, ``>`` and ``>=`` raise ``TypeError``
    whatever the other operand.  The ``repr`` is ``Name(field=value,
    ...)``; assigning or deleting an attribute raises ``AttributeError``;
    copy and pickle rebuild a value through its constructor, without any
    cached state.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"The field {name!r}."))

    # Python tries a subclass's comparison first even when it is the right
    # operand, so a plain tuple never gets to compare itself with a value:
    # both methods answer for every other class.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    # Values are not ordered.  ``NotImplemented`` would hand the question
    # to a plain tuple's own method, which answers, so every operand raises.
    def __lt__(self, other: object) -> bool:
        raise TypeError(f"{self.__class__.__qualname__} values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(self)


class Signature(Frozen):
    """Operation symbols classified by argument sorts and a result sort.

    ``arities[i]`` and ``results[i]`` belong to ``ops[i]``.  The machine
    tables below are computed on first use and kept in the instance
    ``__dict__``.
    """

    _fields = ("sorts", "ops", "arities", "results")

    def __new__(
        cls,
        sorts: tuple[SortId, ...],
        ops: tuple[OpId, ...],
        arities: tuple[tuple[SortId, ...], ...],
        results: tuple[SortId, ...],
    ):
        return tuple.__new__(cls, (sorts, ops, arities, results))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return tuple.__hash__(self)

    @cached_property
    def nargs(self) -> dict[OpId, int]:
        """Number of arguments of each operation: how many values a machine
        step pops."""
        return {nm: len(self.arities[i]) for i, nm in enumerate(self.ops)}

    @cached_property
    def height_steps(self) -> dict[OpId, int]:
        """The ``1 - k`` of each operation of ``k`` arguments: how a step
        changes the height of a stack, which is all a run over a single
        sort keeps."""
        return {nm: 1 - len(a) for nm, a in zip(self.ops, self.arities)}

    @cached_property
    def decl(self) -> dict[OpId, tuple[tuple[SortId, ...], SortId]]:
        """The (arity, result sort) of each operation: what a machine step
        pops and pushes."""
        return {nm: (self.arities[i], self.results[i]) for i, nm in enumerate(self.ops)}

    @cached_property
    def sort_steps(self) -> dict[OpId, tuple[int, list[SortId], SortId]]:
        """The (number of arguments, arity reversed as a list, result sort)
        of each operation: a sort-machine step compares the top ``k``
        entries of a stack kept top last with the reversed arity in one
        slice, and pushes the result."""
        return {nm: (len(a), list(reversed(a)), r) for nm, a, r in zip(self.ops, self.arities, self.results)}

    def is_sort(self, s: SortId) -> bool:
        return s in self.sorts

    def is_op(self, nm: OpId) -> bool:
        return nm in self.ops

    def arity_of(self, nm: OpId) -> tuple[SortId, ...]:
        try:
            return self.decl[nm][0]
        except (KeyError, TypeError):  # not an operation, or not hashable
            raise SignatureError(f"unknown operation {nm!r}") from None

    def sort_of(self, nm: OpId) -> SortId:
        try:
            return self.decl[nm][1]
        except (KeyError, TypeError):  # not an operation, or not hashable
            raise SignatureError(f"unknown operation {nm!r}") from None

    def index_of(self, nm: OpId) -> int:
        try:
            return self.ops.index(nm)
        except ValueError:
            raise SignatureError(f"unknown operation {nm!r}") from None

    def __repr__(self) -> str:
        return f"Signature(sorts={list(self.sorts)}, ops={list(self.ops)})"


def make_signature(
    sorts: Sequence[SortId],
    ops: Iterable[tuple[OpId, Sequence[SortId], SortId]],
) -> Signature:
    """Build a signature from explicit (name, arity, result) declarations.

    Rejects duplicate sort or operation names and any reference to a sort
    not listed in ``sorts``.
    """
    sorts = tuple(sorts)
    if len(set(sorts)) != len(sorts):
        raise SignatureError("duplicate sort names")
    known = set(sorts)
    names: list[OpId] = []
    arities: list[tuple[SortId, ...]] = []
    results: list[SortId] = []
    for nm, arity, result in ops:
        if nm in names:
            raise SignatureError(f"duplicate operation name {nm!r}")
        arity = tuple(arity)
        for s in arity:
            if s not in known:
                raise SignatureError(f"operation {nm!r} uses unknown sort {s!r}")
        if result not in known:
            raise SignatureError(f"operation {nm!r} has unknown result sort {result!r}")
        names.append(nm)
        arities.append(arity)
        results.append(result)
    return Signature(sorts, tuple(names), tuple(arities), tuple(results))


def make_signature_simple(
    ns: int,
    decls: Sequence[tuple[Sequence[int], int]],
    sort_names: Sequence[SortId] | None = None,
    op_names: Sequence[OpId] | None = None,
) -> Signature:
    """Compile index-based declarations into a signature.

    Sorts are the indices ``0 .. ns-1`` (rendered as strings unless
    ``sort_names`` is given) and the k-th declaration becomes operation
    ``op<k>`` unless ``op_names`` is given.
    """
    if ns < 0:
        raise SignatureError("number of sorts must be nonnegative")
    if sort_names is None:
        sort_names = tuple(str(i) for i in range(ns))
    elif len(sort_names) != ns:
        raise SignatureError(f"expected {ns} sort names, got {len(sort_names)}")
    if op_names is None:
        op_names = tuple(f"op{k}" for k in range(len(decls)))
    elif len(op_names) != len(decls):
        raise SignatureError(f"expected {len(decls)} operation names, got {len(op_names)}")

    def resolve(i: int) -> SortId:
        if not 0 <= i < ns:
            raise SignatureError(f"sort index {i} out of range 0..{ns - 1}")
        return sort_names[i]

    ops = []
    for nm, (arity_idx, result_idx) in zip(op_names, decls):
        ops.append((nm, [resolve(i) for i in arity_idx], resolve(result_idx)))
    return make_signature(sort_names, ops)


def make_signature_single_sorted(
    arities: Sequence[int],
    names: Sequence[OpId] | None = None,
    sort: SortId = "u",
) -> Signature:
    """Signature with one sort; the k-th operation takes ``arities[k]``
    arguments of that sort and returns it."""
    decls = [([0] * n, 0) for n in arities]
    return make_signature_simple(1, decls, sort_names=[sort], op_names=names)


class VarSpec(Frozen):
    """Finite set of variables, each with a sort from a base signature.

    ``len(vs)`` is the number of variables, not of fields:
    ``tuple(vs)`` is still ``(vars, sorts)``."""

    _fields = ("vars", "sorts")

    def __new__(cls, vars: tuple[VarId, ...], sorts: tuple[SortId, ...]):
        return tuple.__new__(cls, (vars, sorts))

    @cached_property
    def _sort_by_var(self) -> dict[VarId, SortId]:
        return dict(zip(self.vars, self.sorts))

    def is_var(self, v: VarId) -> bool:
        return v in self.vars  # a tuple: no hash, so any name

    def sort_of(self, v: VarId) -> SortId:
        try:
            return self._sort_by_var[v]
        except (KeyError, TypeError):  # not a variable, or not hashable
            raise SignatureError(f"unknown variable {v!r}") from None

    def items(self) -> Iterator[tuple[VarId, SortId]]:
        return iter(zip(self.vars, self.sorts))

    def __len__(self) -> int:
        return len(self.vars)


def make_varspec(
    sig: Signature,
    decls: Mapping[VarId, SortId] | Iterable[tuple[VarId, SortId]],
) -> VarSpec:
    """Declare variables with sorts taken from ``sig``."""
    pairs = list(decls.items()) if isinstance(decls, Mapping) else list(decls)
    names = [v for v, _ in pairs]
    if len(set(names)) != len(names):
        raise SignatureError("duplicate variable names")
    for v, s in pairs:
        if not sig.is_sort(s):
            raise SignatureError(f"variable {v!r} has unknown sort {s!r}")
    return VarSpec(tuple(names), tuple(s for _, s in pairs))


def _check_var_clash(sig: Signature, vs: VarSpec) -> None:
    clash = [v for v in vs.vars if sig.is_op(v)]
    if clash:
        raise SignatureError(f"variable names collide with operations: {clash}")


def vsignature(sig: Signature, vs: VarSpec) -> Signature:
    """Extend ``sig`` with one nullary operation per variable.

    Base operations keep their declarations; variable names must not
    collide with operation names, which keeps the two halves of the
    extended symbol set disjoint and recoverable.
    """
    _check_var_clash(sig, vs)
    return Signature(
        sig.sorts,
        sig.ops + vs.vars,
        sig.arities + ((),) * len(vs.vars),
        sig.results + vs.sorts,
    )


def extends_by_constants(vsig: Signature, sig: Signature) -> bool:
    """Whether ``vsig`` is ``sig`` extended by nullary symbols only, as
    ``vsignature`` extends it by variables: the same sorts, then the
    operations of ``sig`` in the same order with the same arities and
    results, then nothing but constants."""
    n = len(sig.ops)
    return (
        vsig.sorts == sig.sorts
        and vsig.ops[:n] == sig.ops
        and vsig.arities[:n] == sig.arities
        and vsig.results[:n] == sig.results
        and not any(vsig.arities[n:])
    )


def is_vsignature(vsig: Signature, sig: Signature, vs: VarSpec) -> bool:
    """Whether ``vsig == vsignature(sig, vs)``, decided without building
    the extended signature; raises the same ``SignatureError`` on a name
    clash."""
    _check_var_clash(sig, vs)
    return (
        vsig.sorts == sig.sorts
        and vsig.ops == sig.ops + vs.vars
        and vsig.arities == sig.arities + ((),) * len(vs.vars)
        and vsig.results == sig.results + vs.sorts
    )
