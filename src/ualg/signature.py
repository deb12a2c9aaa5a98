"""Multi-sorted signatures and variable specifications.

Sorts, operation symbols and variables are identified by plain interned
strings.  A signature fixes an ordered list of operation symbols, each
with an arity (the list of argument sorts) and a result sort; the
declaration order defines operation indices and drives every
deterministic enumeration downstream.  A variable specification assigns
a sort to each variable and can be merged into a signature, turning
every variable into a nullary operation symbol of its sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

SortId = str
OpId = str
VarId = str


class SignatureError(ValueError):
    """Raised for ill-formed signatures or variable specifications."""


@dataclass(frozen=True)
class Signature:
    """Operation symbols classified by argument sorts and a result sort.

    ``arities[i]`` and ``results[i]`` belong to ``ops[i]``.
    """

    sorts: tuple[SortId, ...]
    ops: tuple[OpId, ...]
    arities: tuple[tuple[SortId, ...], ...]
    results: tuple[SortId, ...]

    @cached_property
    def nargs(self) -> dict[OpId, int]:
        """Number of arguments of each operation: how many values a machine
        step pops."""
        return {nm: len(self.arities[i]) for i, nm in enumerate(self.ops)}

    @cached_property
    def _decl(self) -> dict[OpId, tuple[tuple[SortId, ...], SortId]]:
        return {nm: (self.arities[i], self.results[i]) for i, nm in enumerate(self.ops)}

    @cached_property
    def _sort_set(self) -> frozenset[SortId]:
        return frozenset(self.sorts)

    def is_sort(self, s: SortId) -> bool:
        return s in self._sort_set

    def is_op(self, nm: OpId) -> bool:
        return nm in self._decl

    def arity_of(self, nm: OpId) -> tuple[SortId, ...]:
        try:
            return self._decl[nm][0]
        except KeyError:
            raise SignatureError(f"unknown operation {nm!r}") from None

    def sort_of(self, nm: OpId) -> SortId:
        try:
            return self._decl[nm][1]
        except KeyError:
            raise SignatureError(f"unknown operation {nm!r}") from None

    def index_of(self, nm: OpId) -> int:
        try:
            return self._op_index[nm]
        except KeyError:
            raise SignatureError(f"unknown operation {nm!r}") from None

    @cached_property
    def _op_index(self) -> dict[OpId, int]:
        return {nm: i for i, nm in enumerate(self.ops)}

    def declaration(self, nm: OpId) -> tuple[tuple[SortId, ...], SortId]:
        """The (arity, result sort) pair declared for ``nm``."""
        self.arity_of(nm)
        return self._decl[nm]

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


@dataclass(frozen=True)
class VarSpec:
    """Finite set of variables, each with a sort from a base signature."""

    vars: tuple[VarId, ...]
    sorts: tuple[SortId, ...]

    @cached_property
    def _sort_by_var(self) -> dict[VarId, SortId]:
        return dict(zip(self.vars, self.sorts))

    def is_var(self, v: VarId) -> bool:
        return v in self._sort_by_var

    def sort_of(self, v: VarId) -> SortId:
        try:
            return self._sort_by_var[v]
        except KeyError:
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


def vsignature(sig: Signature, vs: VarSpec) -> Signature:
    """Extend ``sig`` with one nullary operation per variable.

    Base operations keep their declarations; variable names must not
    collide with operation names, which keeps the two halves of the
    extended symbol set disjoint and recoverable.
    """
    clash = [v for v in vs.vars if sig.is_op(v)]
    if clash:
        raise SignatureError(f"variable names collide with operations: {clash}")
    return Signature(
        sig.sorts,
        sig.ops + vs.vars,
        sig.arities + ((),) * len(vs.vars),
        sig.results + vs.sorts,
    )
