"""The model-checking kernel against the label-level oracle.

``holds`` and ``check_hom`` run compiled terms on columns of carrier
indices: ``bytes`` columns while every carrier has at most 256 elements,
lists above that, and blocks of the trailing slots once the assignment
product passes the block cap.  The randomized tests each draw their
cases from one seeded generator and compare verdicts and exact
counterexamples with ``tests/oracle.py``, which evaluates parse trees on
labels one assignment at a time.  The last two check column widening
against index arithmetic, and that no call leaves memory behind.
"""

import gc
import random
import tracemalloc
from itertools import product

from ualg import algebra as algebra_module
from ualg.algebra import FiniteAlgebra, check_hom
from ualg.equations import Equation, EqVerdict, holds
from ualg.examples import additive_mod_algebra, list_fixture, monoid_signature, monoid_varspec
from ualg.free_algebra import FreeAlgebra
from ualg.signature import make_signature, make_varspec, vsignature
from ualg.term_vm import Term, parse_term, term_from_syms

from oracle import oracle_eval, oracle_first_failure, oracle_hom_counterexample, parse_tree, random_term

# A big sort u of size n and a small sort s; f is nearly commutative, g mixes
# the sorts, h is ternary and c is a constant.
SIG = make_signature(
    ["u", "s"],
    [
        ("f", ["u", "u"], "u"),
        ("g", ["s", "u"], "u"),
        ("p", ["u"], "s"),
        ("h", ["s", "u", "s"], "s"),
        ("c", [], "s"),
    ],
)
SMALL = ("s1", "s0")  # carrier order is not label order


def mixed_algebra(rng, n):
    big = tuple(f"u{i}" for i in rng.sample(range(n), n))
    idx = {x: i for i, x in enumerate(big)}
    f = {(a, b): big[(idx[a] + idx[b]) % n] for a in big for b in big}
    for a, b in f:  # a few entries that break commutativity, so that late assignments fail
        if a != b and rng.random() < min(0.3, 2 / n):
            f[(a, b)] = big[(idx[f[(a, b)]] + 1) % n]
    tables = {
        "f": f,
        "g": {(s, a): big[(idx[a] * (2 + SMALL.index(s)) + 1) % n] for s in SMALL for a in big},
        "p": {(a,): SMALL[idx[a] % 2] for a in big},
        "h": {(s, a, t): rng.choice(SMALL) for s in SMALL for a in big for t in SMALL},
        "c": {(): "s0"},
    }
    return FiniteAlgebra(SIG, {"u": big, "s": SMALL}, tables)


def flatten(node):
    nm, children = node
    return [nm] + [s for c in children for s in flatten(c)]


def commuted(rng, t: Term) -> Term:
    """``t`` with the arguments of some of its ``f`` nodes swapped."""

    def go(node):
        nm, children = node
        children = [go(c) for c in children]
        if nm == "f" and rng.random() < 0.5:
            children.reverse()
        return nm, children

    return term_from_syms(t.signature, flatten(go(parse_tree(t.signature, t.syms)[0])))


def random_equation(rng, vsig, sort, i):
    """The same term, the term with some ``f`` arguments swapped, or two
    unrelated terms; the term has at least four symbols."""
    lhs = random_term(rng, vsig, sort, 4)
    while len(lhs.syms) < 4:
        lhs = random_term(rng, vsig, sort, 4)
    rhs = (lhs, commuted(rng, lhs), commuted(rng, lhs), random_term(rng, vsig, sort, 4))[i % 4]
    return Equation(f"r{i}", sort, lhs, rhs)


def rank(algebra, varspec, assignment):
    """The position of ``assignment`` in the lexicographic product of its
    variables' carriers."""
    pos = 0
    for v in (v for v in varspec.vars if v in assignment):
        carrier = algebra.elements(varspec.sort_of(v))
        pos = pos * len(carrier) + carrier.index(assignment[v])
    return pos


def assert_holds_as_oracle(monkeypatch, algebra, equation, varspec):
    """``holds`` gives the oracle's verdict, at the block cap and at a cap
    of 3 that splits every product of more than three assignments into
    blocks; the oracle's first failing assignment, or None."""
    found = oracle_first_failure(algebra, equation, varspec)
    want = EqVerdict(True) if found is None else EqVerdict(False, found)
    for cap in (algebra_module._MAX_BLOCK, 3):
        monkeypatch.setattr(algebra_module, "_MAX_BLOCK", cap)
        assert holds(algebra, equation, varspec) == want, (cap, equation)
    monkeypatch.undo()
    return found


def test_holds_matches_oracle_across_carrier_sizes(monkeypatch):
    rng = random.Random(81)
    verdicts = []
    for n in (0, 1, 2, 255, 256, 257, 300):
        algebra = mixed_algebra(rng, n)
        bigs = [("x", "u"), ("w", "u")] if n <= 2 else [("x", "u")]
        vs = make_varspec(SIG, bigs + [("y", "s"), ("z", "s")])
        vsig = vsignature(SIG, vs)
        for i in range(12 if n > 2 else 24):
            equation = random_equation(rng, vsig, ("u", "s")[i % 2], i)
            found = assert_holds_as_oracle(monkeypatch, algebra, equation, vs)
            verdicts.append(None if found is None else rank(algebra, vs, found))
    # both verdicts, and counterexamples past the first two assignments
    assert verdicts.count(None) > 50
    assert sum(r is not None and r >= 2 for r in verdicts) > 5


def test_holds_matches_oracle_on_lists_and_a_ternary_operation(monkeypatch):
    rng = random.Random(82)
    fix = list_fixture(("a", "b"), max_len=3)
    vs = make_varspec(fix.signature, [("x", "elem"), ("y", "elem"), ("xs", "list"), ("ys", "list")])
    vsig = vsignature(fix.signature, vs)
    for i in range(40):
        assert_holds_as_oracle(monkeypatch, fix.algebra, random_equation(rng, vsig, "list", i), vs)
    algebra = mixed_algebra(rng, 4)
    vs = make_varspec(SIG, [("x", "u"), ("y", "s"), ("z", "s"), ("w", "u")])
    vsig = vsignature(SIG, vs)
    for i in range(40):
        lhs = parse_term(vsig, "h y x z" if i % 2 else "h z f x w y")
        equation = Equation(f"t{i}", "s", lhs, random_term(rng, vsig, "s", 3))
        assert_holds_as_oracle(monkeypatch, algebra, equation, vs)


def test_holds_above_the_block_cap():
    # Z mod 200 with three variables: 8,000,000 assignments, looped over x
    # in blocks of 40,000
    vs = monoid_varspec()
    vsig = FreeAlgebra(monoid_signature(), vs).vsig
    assoc = Equation("assoc", "u", parse_term(vsig, "mul mul x y z"), parse_term(vsig, "mul x mul y z"))
    assert holds(additive_mod_algebra(200), assoc, vs) == EqVerdict(True)
    # left projection is associative; one planted entry breaks it, first
    # in the last block: at x = 199, y = 0, z = 5
    labels = tuple(map(str, range(200)))
    mul = {(a, b): a for a in labels for b in labels}
    mul[("199", "5")] = "7"
    planted = FiniteAlgebra(monoid_signature(), {"u": labels}, {"mul": mul, "e": {(): "0"}})
    want = {"x": "199", "y": "0", "z": "5"}
    assert holds(planted, assoc, vs) == EqVerdict(False, want)
    assert oracle_eval(planted, want, assoc.lhs) != oracle_eval(planted, want, assoc.rhs)
    for z in range(5):  # the assignments just before it agree
        alpha = {**want, "z": str(z)}
        assert oracle_eval(planted, alpha, assoc.lhs) == oracle_eval(planted, alpha, assoc.rhs)


def assert_hom_as_oracle(image, src, dst):
    """``check_hom`` of the map sending source index i to target index
    ``image[i]`` gives the oracle's verdict; the oracle's counterexample."""
    m = {"u": {src.elements("u")[i]: dst.elements("u")[v] for i, v in enumerate(image)}}
    verdict = check_hom(m, src, dst)
    want = oracle_hom_counterexample(m, src, dst)
    assert (verdict.ok, verdict.counterexample) == (want is None, want), image
    return want


def test_check_hom_matches_oracle_across_carrier_sizes():
    rng = random.Random(83)
    compared = failing = 0
    for k in (1, 2, 3, 7, 64, 128, 129):
        src, dst = additive_mod_algebra(2 * k), additive_mod_algebra(k)
        c = rng.randrange(k)
        right = [(c * i) % k for i in range(2 * k)]
        maps = [right]
        for _ in range(2 if k > 100 else 4):
            wrong = list(right)
            wrong[rng.randrange(2 * k)] = rng.randrange(k)
            maps.append(wrong)
        for image in maps:
            compared += 1
            failing += assert_hom_as_oracle(image, src, dst) is not None
    assert compared > failing > 10


def test_small_slots_with_results_above_a_byte(monkeypatch):
    # every slot ranges over two elements, but results index 300
    sig = make_signature(["s", "u"], [("k", ["s"], "u")])
    big = tuple(map(str, range(300)))
    vs = make_varspec(sig, [("y", "s"), ("z", "s")])
    vsig = vsignature(sig, vs)
    for image in (("299", "299"), ("0", "299"), ("299", "0")):
        algebra = FiniteAlgebra(sig, {"s": ("a", "b"), "u": big}, {"k": {("a",): image[0], ("b",): image[1]}})
        equation = Equation("k", "u", parse_term(vsig, "k y"), parse_term(vsig, "k z"))
        assert_holds_as_oracle(monkeypatch, algebra, equation, vs)
    src, dst = additive_mod_algebra(2), additive_mod_algebra(258)
    assert assert_hom_as_oracle([0, 129], src, dst) is None
    for image in ([0, 1], [0, 257], [1, 129]):
        assert assert_hom_as_oracle(image, src, dst) is not None


def test_widen_repeats_a_column_over_more_slots():
    # the column over ``have`` read at each assignment of ``want``
    rng = random.Random(85)
    for _ in range(300):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        want = tuple(sorted(rng.sample(range(len(sizes)), rng.randint(1, len(sizes)))))
        have = tuple(sorted(rng.sample(want, rng.randint(0, len(want)))))
        wide = rng.random() < 0.5
        count = 1
        for s in have:
            count *= sizes[s]
        col = [rng.randrange(256) for _ in range(count)]
        value = (have, col if wide else bytes(col)) if have else ((), col[0])
        expected = []
        for t in product(*(range(sizes[s]) for s in want)):
            pos = 0
            for s, x in zip(want, t):
                if s in have:
                    pos = pos * sizes[s] + x
            expected.append(col[pos])
        got = algebra_module._widen(value, want, sizes, wide)
        assert list(got) == expected and isinstance(got, list) == wide, (sizes, have, want)


def test_model_checking_keeps_no_memory_across_calls():
    # a cache keyed by the identity of a fresh image array would grow here
    z4, z2 = additive_mod_algebra(4), additive_mod_algebra(2)
    vs = monoid_varspec()
    vsig = FreeAlgebra(monoid_signature(), vs).vsig
    assoc = Equation("assoc", "u", parse_term(vsig, "mul mul x y z"), parse_term(vsig, "mul x mul y z"))

    def calls(count):
        for i in range(count):
            assert check_hom({"u": {str(j): str((i * j) % 2) for j in range(4)}}, z4, z2).ok
            assert holds(z2, assoc, vs).holds

    calls(10)  # the algebras build their curried rows once
    tracemalloc.start()
    try:
        gc.collect()  # a full collection also empties the interpreter's free lists
        before = tracemalloc.get_traced_memory()[0]
        calls(2000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024
