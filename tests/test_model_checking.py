"""The model-checking kernel against the label-level oracle.

``holds`` and ``check_hom`` run compiled terms on one machine, once per
block of at most the block cap of assignments, with the leading slots as
single indices once the product passes the cap.  A value is an index or
a column over the block: ``bytes`` while every index fits a byte, sent
through table rows with ``bytes.translate``, and a list above that.  A
binary table above 256 positions goes one run of tuples at a time when
its arguments read different innermost slots; the rest select element by
element.  The randomized tests each draw their cases from one seeded
generator and compare verdicts and exact counterexamples with
``tests/oracle.py``, which evaluates parse trees on labels one
assignment at a time.  One test checks that no call leaves memory
behind.  The last ones hold the machine to the oracle at its bounds: a
table of 256 positions, the block cap, constants and zero columns, a
ternary table, binary tables above 256 positions, and indices above 127.
Then ``first_difference`` meets a brute-force oracle on products of 0 to
3 tuples and more, and ``check_hom`` a broken constant, whose product
has one tuple: the probe of the first two tuples at its edges.  The
slot columns kept per size pattern meet brute force across calls that
share sizes, and what they keep stays within their bound, as do the
compiled equations an algebra keeps, whose verdicts meet the oracle;
unary steps, one translate each on ``bytes``, meet the oracle at
carriers of 256 and 257.  Steps fed by slots only, out of order, twice
or beside slots of size 1, meet the oracle through the plans an
equation keeps, and the position columns those plans read stay within
their store's cap.  ``check_hom`` meets the oracle on a ternary
operation, on a constant per sort, and above a byte, where it runs
without its own plan.
"""

import gc
import random
import tracemalloc
from itertools import product

from ualg import modelcheck
from ualg.algebra import FiniteAlgebra, _Op
from ualg.equations import Equation, EqVerdict, holds
from ualg.examples import additive_mod_algebra, list_fixture, monoid_signature, monoid_varspec, subtraction_mod_algebra
from ualg.free_algebra import FreeAlgebra, enumerate_terms
from ualg.modelcheck import HomVerdict, check_hom, first_difference
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
    for cap in (modelcheck._MAX_BLOCK, 3):
        monkeypatch.setattr(modelcheck, "_MAX_BLOCK", cap)
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

    calls(10)  # the first calls may fill caches that later calls reuse
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


# One sort, so every table's size is a power of its carrier's: f binary,
# k unary, h ternary and c a constant; each given as a function of indices.
ONE = make_signature(["u"], [("f", ["u", "u"], "u"), ("k", ["u"], "u"), ("h", ["u", "u", "u"], "u"), ("c", [], "u")])
ONE_VARS = make_varspec(ONE, [("x", "u"), ("y", "u"), ("z", "u"), ("w", "u")])
ONE_VSIG = vsignature(ONE, ONE_VARS)


def one_sorted(n, f=lambda a, b: 3 * a + b + 1, k=lambda a: a * a, h=lambda a, b, c: a + 2 * b + 4 * c, c=0):
    """``ONE`` on the indices 0 .. n - 1, each table's values and the
    constant taken mod n."""
    labels = tuple(map(str, range(n)))
    idx = range(n)
    tables = {
        "f": {(labels[a], labels[b]): labels[f(a, b) % n] for a in idx for b in idx},
        "k": {(labels[a],): labels[k(a) % n] for a in idx},
        "h": {(labels[a], labels[b], labels[c]): labels[h(a, b, c) % n] for a in idx for b in idx for c in idx},
        "c": {(): labels[c % n]},
    }
    return FiniteAlgebra(ONE, {"u": labels}, tables)


def one_equation(text, vsig=ONE_VSIG):
    lhs, rhs = (parse_term(vsig, side) for side in text.split(" = "))
    return Equation(text, "u", lhs, rhs)


def assert_one_as_oracle(algebra, equation):
    """``holds`` gives the oracle's verdict on an equation over ``ONE``,
    given as text or as an ``Equation``; the oracle's first failing
    assignment, or None."""
    if isinstance(equation, str):
        equation = one_equation(equation)
    found = oracle_first_failure(algebra, equation, ONE_VARS)
    want = EqVerdict(True) if found is None else EqVerdict(False, found)
    assert holds(algebra, equation, ONE_VARS) == want, equation
    return found


def test_holds_at_the_table_bound_of_256_positions():
    # f has 16 x 16 = 256 positions on 16 elements and 289 on 17, and h
    # 4,096 on 16
    rng = random.Random(86)
    texts = [
        "f x y = f y x",
        "f f x y z = f x f y z",
        "f x k x = k f x x",
        "f k x y = f y k x",
        "k k x = k x",
        "k k k x = k x",
        "k y = f c y",
    ]
    for n in (16, 17):
        algebra = one_sorted(n, f=lambda a, b: rng.randrange(n) if rng.random() < 0.02 else a + b)
        for equation in texts + ["h x y z = h z y x"]:
            assert_one_as_oracle(algebra, equation)
        for i in range(16):
            assert_one_as_oracle(algebra, random_equation(rng, ONE_VSIG, "u", i))


def test_holds_up_to_the_block_cap(monkeypatch):
    # 16**4 = 65,536 assignments, the block cap: the sides differ only at
    # the last one, where the minimum of x, y, z, w is 15
    algebra = one_sorted(16, f=min, k=lambda a: 0 if a == 15 else a)
    equation = one_equation("f f x y f z w = k f f x y f z w")
    last = dict.fromkeys("xyzw", "15")
    assert modelcheck._MAX_BLOCK == 16**4
    assert holds(algebra, equation, ONE_VARS) == EqVerdict(False, last)
    # one past the cap: blocks of the trailing slots, the same verdict
    monkeypatch.setattr(modelcheck, "_MAX_BLOCK", 16**4 - 1)
    assert holds(algebra, equation, ONE_VARS) == EqVerdict(False, last)
    assert oracle_eval(algebra, last, equation.lhs) != oracle_eval(algebra, last, equation.rhs)
    for before in ({**last, "w": "14"}, {"x": "14", "y": "15", "z": "15", "w": "15"}):
        assert oracle_eval(algebra, before, equation.lhs) == oracle_eval(algebra, before, equation.rhs)
    # the same at a product of 125 with the cap at 125 and at 124
    for cap in (125, 124):
        monkeypatch.setattr(modelcheck, "_MAX_BLOCK", cap)
        algebra = one_sorted(5, f=min, k=lambda a: 0 if a == 4 else a)
        assert assert_one_as_oracle(algebra, "f f x y z = k f f x y z") == dict.fromkeys("xyz", "4")
        assert assert_one_as_oracle(algebra, "f f x y z = f x f y z") is None


def test_holds_on_zero_columns_constants_and_early_counterexamples():
    # k sends everything to 0, so k x and k y are all-zero columns and
    # f k x k y sums to the integer 0
    zero = one_sorted(5, k=lambda a: 0)
    assert assert_one_as_oracle(zero, "f k x k y = f c c") is None
    assert assert_one_as_oracle(zero, "f k x k y = f k z c") is None
    assert assert_one_as_oracle(zero, "f k x k y = f k y c") is None
    # a side that reads no variable, and a constant among varying arguments
    algebra = one_sorted(6)
    texts = ("f x c = c", "h x c y = h c x y", "h c x x = f c c", "f c f x y = f c f y x", "h x y f c c = h y x f c c")
    for text in texts:
        assert_one_as_oracle(algebra, text)
    # the third tuple, the first past the two the probe runs, and the last
    third = one_sorted(6, k=lambda a: 5 if a == 2 else a)
    assert assert_one_as_oracle(third, "f x k y = f x y") == {"x": "0", "y": "2"}
    assert assert_one_as_oracle(third, "k x = x") == {"x": "2"}
    last = one_sorted(6, k=lambda a: 0 if a == 5 else a, h=min)
    assert assert_one_as_oracle(last, "k f x y = f x y") is not None
    assert assert_one_as_oracle(last, "k h x y z = h x y z") == dict.fromkeys("xyz", "5")
    assert assert_one_as_oracle(last, "k x = x") == {"x": "5"}


def test_holds_with_a_ternary_operation():
    # h has 6**3 = 216 positions on 6 elements and 343 on 7
    rng = random.Random(87)
    texts = [
        "h x y z = h z y x",
        "h x x y = h y x x",
        "h x c y = f x y",
        "h x f c c y = h y f c c x",  # a fixed middle argument of index 1
        "h f c c x y = h y x k f c c",
        "h h x y z y w = h x h y z w y",
        "k h x y z = h k x y z",
    ]
    for n in (6, 7):
        algebra = one_sorted(n, h=lambda a, b, c: rng.randrange(n) if rng.random() < 0.01 else a + b * c)
        for equation in texts:
            assert_one_as_oracle(algebra, equation)
        for i in range(20):
            assert_one_as_oracle(algebra, random_equation(rng, ONE_VSIG, "u", i))


def test_check_hom_on_z16_to_z8_and_z24_to_z12():
    # the source table of Z mod 16 has 256 positions, that of Z mod 24 576
    rng = random.Random(88)
    for k in (8, 12):
        src, dst = additive_mod_algebra(2 * k), additive_mod_algebra(k)
        right = [(3 * i) % k for i in range(2 * k)]
        assert assert_hom_as_oracle(right, src, dst) is None
        for w in (0, 1, 2 * k - 1, rng.randrange(2 * k)):
            wrong = list(right)
            wrong[w] = (wrong[w] + 1) % k
            assert assert_hom_as_oracle(wrong, src, dst) is not None


def test_binary_table_above_256_positions(monkeypatch):
    # f has 17 x 17 = 289 positions, too many for one translate table.
    # Where the two arguments of f read different innermost slots, the
    # one with the outer slot is constant on runs of tuples, and each run
    # of the other goes through one row of f: the first argument is the
    # outer one in f x y and f y f x z, the second in f y x and f f x z y.
    # The run is one slice, reused, in f x y and f x f y z, and a new
    # slice per run in f y f x z and f f x z y.  A shared innermost slot,
    # as in f k x x, and h, with 4,913 positions, select element by
    # element; c reads no slot.
    rng = random.Random(89)
    texts = [
        "f x y = f y x",
        "f f x z y = f y f x z",
        "f f x y z = f x f y z",
        "f k x x = f x k x",
        "f x c = k x",
        "f c f x y = f c f y x",
        "f y k f x z = f k f x z y",
        "h x f y z y = h f z y x y",
    ]
    noisy = one_sorted(17, f=lambda a, b: rng.randrange(17) if rng.random() < 0.02 else a + b)
    equations = [random_equation(rng, ONE_VSIG, "u", i) for i in range(12)]
    # f is min, and k sends 16 to 0: the sides differ only at the last tuple
    last = one_sorted(17, f=min, k=lambda a: 0 if a == 16 else a)
    cases = [(noisy, one_equation(t) if isinstance(t, str) else t) for t in texts + equations]
    at_last = ("f y f x z = k f y f x z", "f f x z y = k f f x z y", "f x y = k f y x")
    cases += [(last, one_equation(t)) for t in at_last]
    caps, ranks = (modelcheck._MAX_BLOCK, 17 * 17, 3), []
    for algebra, equation in cases:
        found = oracle_first_failure(algebra, equation, ONE_VARS)
        want = EqVerdict(True) if found is None else EqVerdict(False, found)
        for cap in caps:
            monkeypatch.setattr(modelcheck, "_MAX_BLOCK", cap)
            assert holds(algebra, equation, ONE_VARS) == want, (cap, equation)
        ranks.append(None if found is None else rank(algebra, ONE_VARS, found))
    monkeypatch.undo()
    # both verdicts, counterexamples past the probe, and the last
    # tuple for each equation on ``last``
    assert None in ranks and any(r is not None and r >= 2 for r in ranks[: len(texts)])
    assert ranks[-3:] == [17**3 - 1, 17**3 - 1, 17**2 - 1]
    # the source tables of Z mod 24 and Z mod 40 have 576 and 1,600 positions
    for k in (12, 20):
        src, dst = additive_mod_algebra(2 * k), additive_mod_algebra(k)
        right = [(5 * i) % k for i in range(2 * k)]
        assert assert_hom_as_oracle(right, src, dst) is None
        for w in (0, 1, k, 2 * k - 1):
            wrong = list(right)
            wrong[w] = (wrong[w] + 1) % k
            assert assert_hom_as_oracle(wrong, src, dst) is not None


def test_holds_on_indices_above_127(monkeypatch):
    # the first differing byte is read off the bit length of an XOR: here
    # the XOR of the two indices has its top bit set, and the last
    # difference is at the last byte of the column
    sig = make_signature(["u"], [("k", ["u"], "u")])
    vs = make_varspec(sig, [("x", "u")])
    labels = tuple(map(str, range(256)))
    equation = Equation("k", "u", parse_term(vsignature(sig, vs), "k x"), parse_term(vsignature(sig, vs), "x"))
    for changed in ({129: 1}, {255: 0}, {200: 100, 130: 2}, {}):
        image = {a: changed.get(int(a), int(a)) for a in labels}
        algebra = FiniteAlgebra(sig, {"u": labels}, {"k": {(a,): labels[image[a]] for a in labels}})
        assert_holds_as_oracle(monkeypatch, algebra, equation, vs)  # also at a block cap of 3
        want = EqVerdict(False, {"x": str(min(changed))}) if changed else EqVerdict(True)
        assert holds(algebra, equation, vs) == want


def program(algebra, t, varspec=ONE_VARS):
    """The machine program of a term over ``varspec``, slot i being the
    i-th variable: what ``holds`` runs."""
    steps = algebra._steps
    return tuple(steps[nm] if nm in steps else varspec.vars.index(nm) for nm in reversed(t.syms))


def brute_first_difference(algebra, equation, sizes, varspec=ONE_VARS):
    """The first tuple of the product on which the oracle evaluates the two
    sides differently, slot i ranging over the first ``sizes[i]`` elements
    of the carrier of sort ``u``."""
    labels = algebra.elements("u")
    for t in product(*map(range, sizes)):
        alpha = {v: labels[i] for v, i in zip(varspec.vars, t)}
        if oracle_eval(algebra, alpha, equation.lhs) != oracle_eval(algebra, alpha, equation.rhs):
            return t
    return None


def test_first_difference_probe_matches_brute_force():
    # products of 0, 1, 2 and 3 tuples and bigger ones, with slots of size
    # 1 first, in the middle and last; the first two tuples are the probe's
    rng = random.Random(90)
    shapes = [
        (0, 4, 4, 4), (4, 4, 0, 1),
        (1, 1, 1, 1),
        (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1, 2),
        (3, 1, 1, 1), (1, 1, 3, 1), (1, 1, 1, 3),
        (1, 4, 3, 4), (4, 1, 1, 3), (4, 3, 4, 1), (2, 3, 1, 1), (4, 4, 4, 4),
    ]
    seen = set()
    for _ in range(6):
        algebra = one_sorted(4, f=lambda a, b: rng.randrange(4), k=lambda a: rng.randrange(4))
        texts = ["k x = x", "k w = w", "f x y = f y x", "f z w = f w z", "c = k c", "f y c = k y"]
        equations = [one_equation(t) for t in texts] + [random_equation(rng, ONE_VSIG, "u", i) for i in range(12)]
        for equation in equations:
            lhs, rhs = program(algebra, equation.lhs), program(algebra, equation.rhs)
            for sizes in shapes:
                want = brute_first_difference(algebra, equation, sizes)
                assert first_difference(lhs, rhs, sizes) == want, (sizes, equation)
                tuples = list(product(*map(range, sizes)))
                rank = None if want is None else min(tuples.index(want), 2)
                seen.add((min(len(tuples), 4), rank))
    # a difference at tuple 0 and at tuple 1 of two-tuple products, at
    # tuple 0 of a one-tuple product, and past the probe
    for case in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (1, None), (0, None)]:
        assert case in seen, case


def test_probe_forms_match_brute_force(monkeypatch):
    # the plan of two programs over ONE, with binary, unary, ternary and
    # constant steps, keeps a probe form per program: run by _probe, each
    # gives its side's indices at the first two tuples of the product, and
    # first_difference with the plan, whose blocks run every constant
    # folded into the table that reads it, meets brute force; so does a
    # plan made for another block cap, which first_difference makes again
    rng = random.Random(96)
    shapes = [
        (0, 4, 4, 4), (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1, 2), (1, 1, 3, 1),
        (1, 4, 3, 4), (4, 1, 1, 3), (4, 3, 4, 1), (2, 3, 1, 1), (4, 4, 4, 4),
    ]
    texts = ["h x y z = h z y x", "k h c x w = f c k w", "h c c x = k x", "c = h c c c", "f k y z = h y c z"]
    seen = set()
    for _ in range(4):
        algebra = one_sorted(
            4,
            f=lambda a, b: rng.randrange(4),
            k=lambda a: rng.randrange(4),
            h=lambda a, b, c: rng.randrange(4),
            c=rng.randrange(1, 4),
        )
        labels = algebra.elements("u")
        equations = [one_equation(t) for t in texts] + [random_equation(rng, ONE_VSIG, "u", i) for i in range(8)]
        for equation in equations:
            lhs, rhs = program(algebra, equation.lhs), program(algebra, equation.rhs)
            for sizes in shapes:
                want = brute_first_difference(algebra, equation, sizes)
                plan = modelcheck._plan(lhs, rhs, sizes)
                first_two = list(product(*map(range, sizes)))[:2]
                for side, form in ((equation.lhs, plan[5]), (equation.rhs, plan[6])):
                    values = [
                        labels.index(oracle_eval(algebra, dict(zip(ONE_VARS.vars, map(labels.__getitem__, t))), side))
                        for t in first_two
                    ]
                    if values:  # a product of one tuple probes it twice
                        assert modelcheck._probe(form) == (values[0], values[-1]), (sizes, equation)
                assert first_difference(lhs, rhs, sizes, plan) == want, (sizes, equation)
                monkeypatch.setattr(modelcheck, "_MAX_BLOCK", 3)
                assert first_difference(lhs, rhs, sizes, plan) == want, (sizes, equation)
                monkeypatch.undo()
                seen.add(None if want is None else min(list(product(*map(range, sizes))).index(want), 2))
    assert seen == {None, 0, 1, 2}


def test_check_hom_on_constants_unary_and_ternary_operations(monkeypatch):
    # maps between algebras over ONE, on carriers of 1 to 4 elements: each
    # table is a projection, which every map keeps, or drawn at random, so
    # that the law may fail at f, k, h or the constant c; every verdict is the
    # oracle's, through the plan check_hom makes and, with the block cap
    # at 3, through the one first_difference makes
    rng = random.Random(97)
    found = set()
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        kept = [rng.random() < 0.6 for _ in range(3)]

        def draw(size):
            return one_sorted(
                size,
                f=(lambda a, b: a) if kept[0] else lambda a, b: rng.randrange(size),
                k=(lambda a: a) if kept[1] else lambda a: rng.randrange(size),
                h=(lambda a, b, c: b) if kept[2] else lambda a, b, c: rng.randrange(size),
            )

        src, dst = draw(n), draw(m)
        image = [rng.randrange(m) for _ in range(n)]
        for cap in (modelcheck._MAX_BLOCK, 3):
            monkeypatch.setattr(modelcheck, "_MAX_BLOCK", cap)
            want = assert_hom_as_oracle(image, src, dst)
        monkeypatch.undo()
        found.add(None if want is None else want[0])
    assert found == {None, "f", "k", "h", "c"}


def test_check_hom_on_a_broken_constant():
    # every element goes to "a", which mul keeps, but the constant e goes
    # to "a" where the target's e is "b": the law fails on the one tuple,
    # the empty one, of the product for e
    src = additive_mod_algebra(2)
    dst = FiniteAlgebra(
        monoid_signature(), {"u": ("a", "b")}, {"mul": dict.fromkeys(product("ab", repeat=2), "a"), "e": {(): "b"}}
    )
    maps = {"u": dict.fromkeys(src.elements("u"), "a")}
    assert check_hom(maps, src, dst) == HomVerdict(False, ("e", ()))
    assert oracle_hom_counterexample(maps, src, dst) == ("e", ())


# ``ONE`` without its ternary h, so that carriers above a byte stay cheap
PAIR = make_signature(["u"], [("f", ["u", "u"], "u"), ("k", ["u"], "u")])
PAIR_VARS = make_varspec(PAIR, [("x", "u"), ("y", "u"), ("z", "u"), ("w", "u")])
PAIR_VSIG = vsignature(PAIR, PAIR_VARS)


def pair_algebra(n, f, k):
    """``PAIR`` on the indices 0 .. n - 1, each table's values taken mod n."""
    labels = tuple(map(str, range(n)))
    tables = {
        "f": {(labels[a], labels[b]): labels[f(a, b) % n] for a in range(n) for b in range(n)},
        "k": {(labels[a],): labels[k(a) % n] for a in range(n)},
    }
    return FiniteAlgebra(PAIR, {"u": labels}, tables)


def test_kept_slot_columns_match_brute_force(monkeypatch):
    # The slot columns of a block are kept per size pattern and shared by
    # every call over it.  Interleaved with calls over the same sizes and
    # other programs: the same sizes cut at another block cap (another
    # leading slot and block length), the same block behind another
    # leading slot, the same small slots under tables whose results pass a
    # byte (list columns), and a slot above a byte.  Each call meets brute
    # force.
    rng = random.Random(91)
    narrow = pair_algebra(5, f=lambda a, b: rng.randrange(5) if rng.random() < 0.1 else a + b, k=lambda a: 2 * a)
    wide = pair_algebra(300, f=lambda a, b: 299 - a if rng.random() < 0.05 else 299 - b, k=lambda a: 299 - a)
    texts = ["f x y = f y x", "f f x y z = f x f y z", "k f x w = f k w k x", "k k z = z"]
    equations = [one_equation(t, PAIR_VSIG) for t in texts]
    equations += [random_equation(rng, PAIR_VSIG, "u", i) for i in range(8)]
    cap = modelcheck._MAX_BLOCK
    calls = []
    for equation in equations:
        for algebra in (narrow, wide):
            for sizes, caps in (((4, 4, 4, 1), (cap, 16, 3)), ((2, 4, 4, 1), (16,)), ((3, 4, 1, 4), (cap, 16))):
                calls += [(algebra, equation, sizes, c) for c in caps]
        calls.append((wide, equation, (2, 257, 1, 1) if len(calls) % 2 else (257, 2, 1, 1), cap))
    # 17**4 tuples pass the block cap: blocks of 17**3 behind x, which a
    # product of 3 * 17**3 tuples shares at a cap of 17**3; min(x, y, z, w)
    # is 1 first at tuple (1, 1, 1, 1), in the second block
    steep = pair_algebra(17, f=min, k=lambda a: 0 if a == 1 else a)
    equation = one_equation("k f f x y f z w = f f x y f z w", PAIR_VSIG)
    for sizes, c in (((17,) * 4, cap), ((3, 17, 17, 17), 17**3), ((17,) * 4, cap), ((3, 17, 17, 17), cap)):
        calls.insert(rng.randrange(len(calls)), (steep, equation, sizes, c))
    differences = 0
    for algebra, equation, sizes, c in calls:
        monkeypatch.setattr(modelcheck, "_MAX_BLOCK", c)
        lhs, rhs = (program(algebra, t, PAIR_VARS) for t in (equation.lhs, equation.rhs))
        want = brute_first_difference(algebra, equation, sizes, PAIR_VARS)
        assert first_difference(lhs, rhs, sizes) == want, (sizes, c, equation)
        differences += want is not None
    monkeypatch.undo()
    assert len(calls) > differences > 20


def test_kept_slot_columns_stay_within_their_bound():
    # calls over three times as many size patterns as the store keeps, each
    # with two columns of most of a full block: the store keeps the last
    # _KEPT patterns, so what stays after the calls is at most _KEPT such
    # patterns, one column of the block's length per slot, not one per call
    kept = modelcheck._KEPT
    sizes = [(256, 255 - i) for i in range(3 * kept)]
    modelcheck._slot_columns.cache_clear()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for s in sizes:
            assert first_difference((0,), (0,), s) is None
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    bound = 2 * sum(a * b for a, b in sizes[-kept:])
    assert bound < 2 * sum(a * b for a, b in sizes) / 3
    assert grown < bound + 64 * 1024


def test_kept_equations_stay_within_their_cap():
    # more distinct equations than the record keeps, checked twice round on
    # one algebra under one (vsig, varspec) pair: every verdict is the
    # oracle's, and the one record never holds more than the cap, so the
    # second round compiles again what the first dropped
    cap = modelcheck._KEPT_EQUATIONS
    algebra, vs = subtraction_mod_algebra(3), monoid_varspec()
    vsig = vsignature(monoid_signature(), vs)
    terms = list(enumerate_terms(vsig, "u", 3))
    count = cap + 40
    assert count <= len(terms)
    cases = []
    for i in range(count):  # distinct left sides, so distinct equations
        equation = Equation(f"e{i}", "u", terms[i], terms[(7 * i + 3) % len(terms)])
        cases.append((equation, oracle_first_failure(algebra, equation, vs)))
    assert 0 < sum(found is None for _, found in cases) < count
    holds(algebra, cases[0][0], vs)
    record = algebra._equations
    for _ in range(2):
        for equation, found in cases:
            assert holds(algebra, equation, vs) == EqVerdict(found is None, found), equation.name
            assert algebra._equations is record
            assert len(record) <= cap
    assert len(record) == cap


def test_unary_steps_at_carriers_of_256_and_257():
    # a unary step on a bytes column is one translate through its padded
    # rows; at 256 elements the rows fill the translate table, and at 257
    # the columns are lists
    rng = random.Random(92)
    vs = make_varspec(PAIR, [("x", "u"), ("y", "u")])
    vsig = vsignature(PAIR, vs)
    texts = ["k x = x", "k k x = x", "k f x x = f k x k x", "f x k x = k x", "k x = k y"]
    for n in (256, 257):
        perm = rng.sample(range(n), n)
        for k in (perm.__getitem__, lambda a: a if a != n - 1 else 0, lambda a: a):
            algebra = pair_algebra(n, f=lambda a, b: a if a == b else n - 1, k=k)
            for text in texts:
                equation = one_equation(text, vsig)
                found = oracle_first_failure(algebra, equation, vs)
                assert holds(algebra, equation, vs) == EqVerdict(found is None, found), (n, text)
        # each sort map is a unary step on the source's slot columns and
        # on the result column of its table
        zn = additive_mod_algebra(n)
        right = [(3 * i) % n for i in range(n)]
        assert assert_hom_as_oracle(right, zn, zn) is None
        for w in (0, n - 1, rng.randrange(n)):
            wrong = list(right)
            wrong[w] = (wrong[w] + 1) % n
            assert assert_hom_as_oracle(wrong, zn, zn) is not None


def test_holds_on_steps_fed_by_slots_only(monkeypatch):
    # A step whose arguments are all slots reads a kept column of table
    # positions: slots out of order (f y x), one slot twice (f x x), and
    # blocks with slots of size 1 for variables that do not occur (y in
    # f z x).  With x and y alone, f x y is over the whole block, whose
    # positions are f's own; on 17 elements f has 289 positions, too many
    # for a position column, but f x y is still f's own rows.  Each verdict is the oracle's, at the block cap and at a
    # cap of 3, which cuts the product again after the plan was kept.
    rng = random.Random(93)
    xy = make_varspec(PAIR, [("x", "u"), ("y", "u")])
    texts = [
        "f y x = f x y", "f x x = k x", "f z x = f x z", "f y y = f w x",
        "k f x x = f k x k x", "f f y x z = f y f x z", "f x f x y = f f x x y",
    ]
    kinds = set()
    for n in (5, 16, 17):
        algebra = pair_algebra(n, f=lambda a, b: rng.randrange(n) if rng.random() < 0.05 else a * b + 1, k=lambda a: 2 * a)
        equations = [(one_equation(t, PAIR_VSIG), PAIR_VARS) for t in texts]
        equations += [(one_equation(t, vsignature(PAIR, xy)), xy) for t in ("f x y = f y x", "f x y = k f y x")]
        equations += [(random_equation(rng, PAIR_VSIG, "u", i), PAIR_VARS) for i in range(8)]
        for equation, vs in equations:
            assert_holds_as_oracle(monkeypatch, algebra, equation, vs)
            holds(algebra, equation, vs)  # the record keeps its plan
            planned = algebra._equations[equation.lhs.syms, equation.rhs.syms][-1][2:4]  # lhs and rhs
            kinds.update((n, type(step).__name__, len(step) if type(step) is tuple else 0)
                         for program in planned for step in program)
    # kept position columns up to 256 positions, the identity at every size
    assert {(5, "tuple", 2), (16, "tuple", 2), (5, "bytes", 0), (16, "bytes", 0), (17, "bytes", 0)} <= kinds
    assert (17, "tuple", 2) not in kinds


def test_kept_position_columns_stay_within_their_cap():
    # f x y = y over blocks of 16 x 16 x m tuples, for three times as many
    # values of m as the store keeps columns: the store ends at its cap,
    # and what stays is the last columns, not one per call
    cap = modelcheck._positions.cache_info().maxsize
    right = _Op([b for a in range(16) for b in range(16)], (16, 16), 16)
    ms = range(1, 3 * cap + 1)
    modelcheck._positions.cache_clear()
    modelcheck._slot_columns.cache_clear()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for m in ms:
            assert first_difference((1, 0, right), (1,), (16, 16, m)) is None
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert modelcheck._positions.cache_info().currsize == cap
    # the last ``cap`` position columns and the last ``_KEPT`` patterns of
    # three slot columns, each of 256 * m bytes
    bound = 256 * (sum(ms[-cap:]) + 3 * sum(ms[-modelcheck._KEPT :]))
    assert bound < 2 * 256 * 4 * sum(ms) / 3
    assert grown < bound + 64 * 1024


def test_check_hom_on_a_ternary_operation(monkeypatch):
    # a + b * c is kept by x -> x mod k from Z mod 2k to Z mod k; the left
    # side of the law is t's own rows through the map, 4,096 positions on 16
    # elements, and at 48 elements the product passes the block cap
    sig = make_signature(["u"], [("t", ["u", "u", "u"], "u"), ("f", ["u", "u"], "u")])

    def ring(n):
        labels = tuple(map(str, range(n)))
        tables = {
            "t": {(labels[a], labels[b], labels[c]): labels[(a + b * c) % n] for a, b, c in product(range(n), repeat=3)},
            "f": {(labels[a], labels[b]): labels[(a * b) % n] for a, b in product(range(n), repeat=2)},
        }
        return FiniteAlgebra(sig, {"u": labels}, tables)

    rng = random.Random(94)
    failing = 0
    for k in (2, 3, 8, 24):
        src, dst = ring(2 * k), ring(k)
        right = [i % k for i in range(2 * k)]
        maps = [right] + [[(v + (j == w)) % k for j, v in enumerate(right)] for w in (0, 2 * k - 1, rng.randrange(2 * k))]
        for image in maps[: 2 if k == 24 else 4]:
            m = {"u": {str(i): str(v) for i, v in enumerate(image)}}
            want = oracle_hom_counterexample(m, src, dst)
            assert tuple(check_hom(m, src, dst)) == (want is None, want), (k, image)
            failing += want is not None
    assert failing > 4
    monkeypatch.setattr(modelcheck, "_MAX_BLOCK", 3)  # a plan of one block does not fit
    src, dst = ring(6), ring(3)
    for image in ([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 1]):
        m = {"u": dict(zip(src.elements("u"), map(str, image)))}
        want = oracle_hom_counterexample(m, src, dst)
        assert tuple(check_hom(m, src, dst)) == (want is None, want)


def test_check_hom_with_a_constant_per_sort():
    # sorts a and b, operations in the order m, c, q, d: x -> x mod 2 on a
    # and y -> y mod 3 on b is a homomorphism from (Z4, Z6) to (Z2, Z3)
    sig = make_signature(
        ["a", "b"], [("m", ["a", "a"], "a"), ("c", [], "a"), ("q", ["a", "b"], "b"), ("d", [], "b")]
    )

    def algebra(na, nb):
        la, lb = tuple(f"a{i}" for i in range(na)), tuple(f"b{i}" for i in range(nb))
        tables = {
            "m": {(la[x], la[y]): la[(x + y) % na] for x in range(na) for y in range(na)},
            "c": {(): la[1]},
            "q": {(la[x], lb[y]): lb[(y + 3 * x) % nb] for x in range(na) for y in range(nb)},
            "d": {(): lb[2]},
        }
        return FiniteAlgebra(sig, {"a": la, "b": lb}, tables)

    src, dst = algebra(4, 6), algebra(2, 3)

    def maps(ha, hb):
        return {"a": {f"a{i}": f"a{v}" for i, v in enumerate(ha)}, "b": {f"b{i}": f"b{v}" for i, v in enumerate(hb)}}

    cases = [
        (maps([0, 1, 0, 1], [0, 1, 2, 0, 1, 2]), None),
        (maps([0, 0, 0, 0], [0, 1, 2, 0, 1, 2]), ("c", ())),  # m holds, the constant of a fails
        (maps([0, 1, 0, 1], [0, 1, 2, 0, 1, 1]), ("q", ("a1", "b2"))),  # c holds, then q fails
        (maps([0, 1, 0, 1], [0, 0, 0, 0, 0, 0]), ("d", ())),  # q holds, the constant of b fails
        (maps([0, 1, 1, 1], [0, 1, 2, 0, 1, 2]), ("m", ("a1", "a1"))),
    ]
    for m, want in cases:
        assert oracle_hom_counterexample(m, src, dst) == want
        assert tuple(check_hom(m, src, dst)) == (want is None, want)


def test_check_hom_above_a_byte_runs_without_the_identity_rule(monkeypatch):
    # carriers above 256 elements make list columns, for which check_hom
    # hands first_difference no plan; at 256 elements and below it hands
    # the plan whose left side is the source table's own rows
    plans = []

    def spy(lhs, rhs, sizes, plan=None):
        plans.append(plan)
        return first_difference(lhs, rhs, sizes, plan)

    monkeypatch.setattr(modelcheck, "first_difference", spy)
    for k, wide in ((150, True), (128, False), (3, False)):
        src, dst = additive_mod_algebra(2 * k), additive_mod_algebra(k)
        for image in ([(7 * i) % k for i in range(2 * k)], [(7 * i + (i == 2 * k - 1)) % k for i in range(2 * k)]):
            plans.clear()
            m = {"u": {str(i): str(v) for i, v in enumerate(image)}}
            want = oracle_hom_counterexample(m, src, dst)
            assert tuple(check_hom(m, src, dst)) == (want is None, want), k
            assert len(plans) == 1  # mul; the constant e compares two indices
            if wide:
                assert plans == [None]
            else:
                assert plans[0][2][0] == bytes(src._steps["mul"].rows)
