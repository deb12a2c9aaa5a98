"""Shorthand signature constructors: sorts and operations given by
index, and signatures with a single sort given by arities.

Both compile to ``make_signature``; checking a term needs neither, so
they live apart from ``signature``, which re-exports them (PEP 562).
"""

from __future__ import annotations

from collections.abc import Sequence

from .signature import OpId, Signature, SignatureError, SortId, make_signature


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
