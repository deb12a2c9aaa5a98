"""Reference answers for every benchmark op.

Nothing here imports ualg.  Terms are read by descent over the prefix
symbol list (with an explicit stack, so chains deeper than the
interpreter's recursion limit still parse), monoid terms over Z mod n
reduce to linear forms, boolean terms are evaluated with dict tables,
and homomorphisms are checked with plain integer arithmetic.
"""

from __future__ import annotations

from itertools import product

MONOID_ARITY = {"mul": 2, "e": 0, "x": 0, "y": 0, "z": 0}
BOOL_ARITY = {"bot": 0, "top": 0, "neg": 1, "conj": 2, "disj": 2, "impl": 2, "x": 0, "y": 0, "z": 0}
VARS = ("x", "y", "z")

F, T = "false", "true"
BOOL_TABLE = {
    "bot": {(): F},
    "top": {(): T},
    "neg": {(F,): T, (T,): F},
    "conj": {(F, F): F, (F, T): F, (T, F): F, (T, T): T},
    "disj": {(F, F): F, (F, T): T, (T, F): T, (T, T): T},
    "impl": {(F, F): T, (F, T): T, (T, F): F, (T, T): T},
}


def descend(syms, arity, combine):
    """Value of the single term spelled by ``syms`` in prefix order.

    ``combine(sym, child_values)`` gives the value of each node.  Raises
    ValueError when ``syms`` is not exactly one term.
    """
    stack: list[tuple[str, int, list]] = []
    done = False
    result = None
    for pos, s in enumerate(syms):
        if done:
            raise ValueError(f"trailing symbol at {pos}")
        if s not in arity:
            raise ValueError(f"unknown symbol {s!r}")
        stack.append((s, arity[s], []))
        while stack and len(stack[-1][2]) == stack[-1][1]:
            head, _, args = stack.pop()
            value = combine(head, args)
            if stack:
                stack[-1][2].append(value)
            else:
                done, result = True, value
    if not done:
        raise ValueError("incomplete term")
    return result


def depth(syms, arity) -> int:
    return descend(syms, arity, lambda _s, args: 1 + max(args, default=0))


def top_segments(syms, arity) -> tuple[str, list[list[str]]]:
    """Head symbol and the symbol lists of its arguments."""
    lengths = descend(syms, arity, lambda _s, args: (1 + sum(n for n, _ in args), [n for n, _ in args]))[1]
    segs, i = [], 1
    for n in lengths:
        segs.append(list(syms[i:i + n]))
        i += n
    return syms[0], segs


def bool_value(syms, assignment) -> str:
    """Label of a boolean term under an assignment of labels to x, y, z."""

    def combine(s, args):
        if s in VARS:
            return assignment[s]
        return BOOL_TABLE[s][tuple(args)]

    return descend(syms, BOOL_ARITY, combine)


def linear_form(syms, op: str) -> tuple[int, int, int, int]:
    """Coefficients (constant, x, y, z) of a monoid term over the integers,
    reading ``mul`` as ``+`` or as ``-`` and ``e`` as 0."""
    sign = 1 if op == "+" else -1

    def combine(s, args):
        if s == "mul":
            a, b = args
            return tuple(p + sign * q for p, q in zip(a, b))
        if s == "e":
            return (0, 0, 0, 0)
        return tuple(int(s == v) for v in ("", *VARS))

    return descend(syms, MONOID_ARITY, combine)


def modelcheck_verdict(op: str, n: int, lhs, rhs) -> tuple[bool, dict[str, str] | None]:
    """Verdict and lexicographically first counterexample of lhs = rhs on
    Z mod n under ``op``.

    The difference of the sides is a linear form d0 + sum(dv * v).  It
    vanishes for every assignment exactly when every coefficient is 0 mod
    n.  Otherwise the all-zero assignment fails when d0 is nonzero, and
    else the first failing assignment sets the last variable with a
    nonzero coefficient to 1 and the rest to 0: every assignment before
    it in lexicographic order changes only variables whose coefficients
    vanish.
    """
    diff = [(a - b) % n for a, b in zip(linear_form(lhs, op), linear_form(rhs, op))]
    occurring = [v for v in VARS if v in lhs or v in rhs]
    if diff[0]:
        return False, {v: "0" for v in occurring}
    nonzero = [v for v in occurring if diff[1 + VARS.index(v)]]
    if not nonzero:
        return True, None
    return False, {v: ("1" if v == nonzero[-1] else "0") for v in occurring}


def assignments_to_verdict(op: str, n: int, lhs, rhs) -> int:
    """Assignments an exhaustive check tries before its verdict: all of
    them when the equation holds, else up to the first counterexample."""
    holds, cex = modelcheck_verdict(op, n, lhs, rhs)
    occurring = [v for v in VARS if v in lhs or v in rhs]
    if holds:
        return n ** len(occurring)
    index = 0
    for v in occurring:
        index = index * n + int(cex[v])
    return index + 1


def linear_value(syms, n: int, values: dict[str, int]) -> int:
    c = linear_form(syms, "+")
    return (c[0] + sum(c[1 + i] * values.get(v, 0) for i, v in enumerate(VARS))) % n


def hom_first_failure(k: int, image) -> tuple[str, tuple[str, ...]] | None:
    """First failure of the homomorphism law for a map Z mod 2k -> Z mod k
    under addition, in operation order (mul, then e) and then
    lexicographic argument order; None when the map is a homomorphism."""
    n = 2 * k
    for a in range(n):
        for b in range(n):
            if image[(a + b) % n] != (image[a] + image[b]) % k:
                return "mul", (str(a), str(b))
    if image[0] != 0:
        return "e", ()
    return None


def enumerate_syms(arity: dict[str, int], max_depth: int):
    """Terms of a one-sorted signature up to ``max_depth``, in the order
    the library documents: by depth, then operation order, then argument
    tuples with the leftmost argument varying slowest."""
    pool: list[tuple[tuple[str, ...], int]] = []
    for d in range(1, max_depth + 1):
        level = []
        for nm, k in arity.items():
            if d == 1:
                if k == 0:
                    level.append(((nm,), 1))
                continue
            if k == 0:
                continue
            for combo in product(pool, repeat=k):
                if max(dep for _, dep in combo) == d - 1:
                    level.append(((nm,) + tuple(s for t, _ in combo for s in t), d))
        yield from (t for t, _ in level)
        pool.extend(level)


def cli_mismatch(expect: list[dict], code: int, out: str, err: str) -> str | None:
    """None when a CLI run matches one of the accepted outcomes.

    An outcome is an exit code and the exact stdout; exit 2 also needs an
    ``error:`` line on stderr.  A traceback is never accepted.
    """
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1][:120]
    for e in expect:
        if code == e["code"] and out == e["stdout"]:
            if code != 2 or any(line.startswith("error:") for line in err.splitlines()):
                return None
    return f"exit {code}, stdout {out[:80]!r}"
