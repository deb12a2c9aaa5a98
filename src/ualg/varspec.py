"""Variable specifications and the signatures they extend.

A variable specification assigns a sort to each variable and can be
merged into a signature, turning every variable into a nullary operation
symbol of its sort.  Checking a term needs none of it, so it lives apart
from ``signature``, which re-exports it (PEP 562).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property

from .signature import Frozen, Signature, SignatureError, SortId, VarId


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
