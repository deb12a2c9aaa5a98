"""Independent reference implementations used to cross-check the library.

The parser here reads a symbol sequence top-down, left to right, by
recursive descent on arities: the opposite traversal order and a
different data structure (a parse tree, no sort stack) from the
right-to-left machine under test.  It was written first and its outputs
are what the tests freeze as expected values.  ``oracle_exec`` is the
machine itself, written the slow way: one sort popped and compared at a
time, on a stack kept top first.  Nothing else here runs the machine:
``Term`` and ``build_term`` only package the terms that ``random_term``
draws.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from ualg.signature import Signature, SortId
from ualg.term_vm import Term, build_term


def descend(sig: Signature, syms: tuple[str, ...], i: int) -> Optional[tuple[SortId, int]]:
    """Parse one term starting at position i; (sort, end) or None."""
    if i >= len(syms):
        return None
    nm = syms[i]
    if not sig.is_op(nm):
        return None
    j = i + 1
    for want in sig.arity_of(nm):
        got = descend(sig, syms, j)
        if got is None:
            return None
        sort, j = got
        if sort != want:
            return None
    return sig.sort_of(nm), j


def oracle_infer_sort(sig: Signature, syms) -> Optional[SortId]:
    """Sort of the whole sequence per the recursive-descent parser."""
    syms = tuple(syms)
    got = descend(sig, syms, 0)
    if got is None:
        return None
    sort, end = got
    return sort if end == len(syms) else None


def oracle_exec(sig: Signature, syms, stack=()):
    """The sort-stack machine one sort at a time, on a stack kept top first.

    Runs ``syms`` last symbol first from ``stack`` (top first) and returns
    ``(final stack top first, None, None)``, or ``(None, position,
    reason)`` for the first failing symbol, its position counted in
    execution order: an unknown symbol, a stack shorter than the arity,
    or a popped sort that is not the one the arity wants.
    """
    st = list(stack)
    n = len(syms)
    for pos in range(n):
        nm = syms[n - 1 - pos]
        if not sig.is_op(nm):
            return None, pos, "unknown symbol"
        arity = sig.arity_of(nm)
        if len(st) < len(arity):
            return None, pos, "stack underflow"
        for want in arity:
            if st.pop(0) != want:
                return None, pos, "sort mismatch"
        st.insert(0, sig.sort_of(nm))
    return tuple(st), None, None


def tree_depth(node) -> int:
    """Height of a ``parse_tree`` node; a leaf has height 1."""
    nm, children = node
    return 1 + max((tree_depth(c) for c in children), default=0)


def parse_tree(sig: Signature, syms: tuple[str, ...], i: int = 0):
    """((name, children), end) or None; used by the oracle evaluator."""
    if i >= len(syms) or not sig.is_op(syms[i]):
        return None
    nm = syms[i]
    children = []
    j = i + 1
    for want in sig.arity_of(nm):
        got = parse_tree(sig, syms, j)
        if got is None:
            return None
        child, j = got
        if sig.sort_of(child[0]) != want:
            return None
        children.append(child)
    return (nm, children), j


def oracle_eval(algebra, assignment, t: Term):
    """Evaluate via the parse tree, bypassing term_fold and decompose."""
    got = parse_tree(t.signature, t.syms)
    assert got is not None and got[1] == len(t.syms)

    def go(node):
        nm, children = node
        if algebra.signature.is_op(nm):
            return algebra.op(nm, *(go(c) for c in children))
        return assignment[nm]

    return go(got[0])


def oracle_first_failure(algebra, equation, varspec):
    """The first assignment, in lexicographic carrier order of the
    occurring variables taken in declaration order, under which the two
    sides of ``equation`` differ, or None.  Each side is parsed once into a
    tree and evaluated on labels through ``algebra.op``."""
    sides = []
    for t in (equation.lhs, equation.rhs):
        got = parse_tree(t.signature, t.syms)
        assert got is not None and got[1] == len(t.syms)
        sides.append(got[0])

    def go(node, alpha):
        nm, children = node
        if algebra.signature.is_op(nm):
            return algebra.op(nm, *(go(c, alpha) for c in children))
        return alpha[nm]

    names = [v for v in varspec.vars if v in equation.lhs.syms or v in equation.rhs.syms]
    for combo in itertools.product(*(algebra.elements(varspec.sort_of(v)) for v in names)):
        alpha = dict(zip(names, combo))
        if go(sides[0], alpha) != go(sides[1], alpha):
            return alpha
    return None


def brute_shortest_term_prefix(sig: Signature, syms, start: int, want: SortId) -> Optional[int]:
    """Smallest end such that syms[start:end] is a term of sort ``want``,
    found by parsing every candidate prefix with the descent parser."""
    for end in range(start + 1, len(syms) + 1):
        if oracle_infer_sort(sig, syms[start:end]) == want:
            return end
    return None


def min_build_depth(sig: Signature) -> dict[SortId, int]:
    """Least term depth reaching each sort; sorts with no terms are absent."""
    best: dict[SortId, int] = {}
    changed = True
    while changed:
        changed = False
        for nm in sig.ops:
            arity = sig.arity_of(nm)
            if all(a in best for a in arity):
                d = 1 + max((best[a] for a in arity), default=0)
                res = sig.sort_of(nm)
                if d < best.get(res, d + 1):
                    best[res] = d
                    changed = True
    return best


def random_term(rng: random.Random, sig: Signature, sort: SortId, max_depth: int) -> Term:
    """A uniform-by-head random term of the given sort and bounded depth."""
    best = min_build_depth(sig)
    assert best.get(sort, max_depth + 1) <= max_depth, f"no term of sort {sort!r} fits"

    def go(s: SortId, budget: int) -> Term:
        options = [
            nm
            for nm in sig.ops
            if sig.sort_of(nm) == s
            and all(best.get(a, budget) <= budget - 1 for a in sig.arity_of(nm))
        ]
        nm = rng.choice(options)
        args = [go(a, budget - 1) for a in sig.arity_of(nm)]
        return build_term(sig, nm, args)

    return go(sort, max_depth)


def oracle_hom_counterexample(maps, src, dst):
    """First (operation, argument labels) that breaks the homomorphism law,
    or None; operations in signature order, then argument tuples in
    lexicographic carrier order.

    Works on labels, one pair at a time, through ``FiniteAlgebra.op`` and
    ``elements`` only: no index arrays and no compiled programs.  A sort
    map is a dict or a callable.
    """
    sig = src.signature

    def send(sort, x):
        m = maps[sort]
        return m(x) if callable(m) else m[x]

    for nm, arity, result in zip(sig.ops, sig.arities, sig.results):
        for args in itertools.product(*(src.elements(a) for a in arity)):
            lhs = send(result, src.op(nm, *args))
            rhs = dst.op(nm, *(send(a, x) for a, x in zip(arity, args)))
            if lhs != rhs:
                return nm, args
    return None


def oracle_enumerate(sig: Signature, sort: SortId, max_depth: int) -> list[tuple[str, ...]]:
    """Symbol tuples of every term of ``sort`` with depth at most
    ``max_depth``, in the documented enumeration order: by depth, then
    operation order, then argument combinations with the leftmost
    argument varying slowest, each argument drawn from the terms of its
    sort ordered by depth and then by this same order.

    Built from that description alone, with nested recursion over the
    argument positions: no ``itertools.product`` and no library term
    construction.
    """
    # exact[d][s]: the terms of sort s and exact depth d, in order
    exact: dict[int, dict[SortId, list[tuple[str, ...]]]] = {}
    out: list[tuple[str, ...]] = []
    for d in range(1, max_depth + 1):
        exact[d] = {s: [] for s in sig.sorts}
        for nm in sig.ops:
            arity = sig.arity_of(nm)
            if d == 1:
                if not arity:
                    exact[1][sig.sort_of(nm)].append((nm,))
                continue
            if not arity:
                continue
            # (symbols, depth) of every term of depth < d per argument sort
            below = [[(t, e) for e in range(1, d) for t in exact[e][a]] for a in arity]

            def combos(i: int):
                if i == len(below):
                    yield (), 0
                    return
                for t, e in below[i]:
                    for rest, m in combos(i + 1):
                        yield t + rest, max(e, m)

            for syms, m in combos(0):
                if m == d - 1:
                    exact[d][sig.sort_of(nm)].append((nm,) + syms)
        out.extend(exact[d][sort])
    return out
