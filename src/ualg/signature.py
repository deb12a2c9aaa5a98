"""Multi-sorted signatures.

Sorts, operation symbols and variables are identified by plain interned
strings.  A signature fixes an ordered list of operation symbols, each
with an arity (the list of argument sorts) and a result sort; the
declaration order defines operation indices and drives every
deterministic enumeration downstream.

``Frozen`` is the base of the library's immutable values, here and in
the modules built on this one: each value is the tuple of its fields,
read by name.

This module holds what checking a term needs: ``Frozen``, ``Signature``
and ``make_signature``.  The shorthand constructors live in
``shorthand``, and variable specifications and the signatures they
extend in ``varspec``; both stay importable from here, and their first
use loads their module (PEP 562).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import itemgetter

from . import _lazy

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


__getattr__, __dir__ = _lazy(globals(), {
    **dict.fromkeys(("make_signature_simple", "make_signature_single_sorted"), "shorthand"),
    **dict.fromkeys(("VarSpec", "extends_by_constants", "is_vsignature", "make_varspec", "vsignature"), "varspec"),
})
