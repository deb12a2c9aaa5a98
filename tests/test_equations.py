import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ualg.algebra import Algebra, AlgebraError, FiniteAlgebra, unit_algebra
from ualg.equations import (
    EqSpec,
    EqVerdict,
    EquationError,
    Equation,
    free_vars,
    holds,
    holds_sampled,
    is_eqalgebra,
)
from ualg.examples import (
    additive_mod_algebra,
    bool_algebra,
    list_fixture,
    monoid_eqspec,
    monoid_signature,
    monoid_varspec,
    subtraction_mod_algebra,
)
from ualg.free_algebra import FreeAlgebra, evaluate
from ualg.signature import make_signature, make_varspec, vsignature
from ualg.term_vm import parse_term

from oracle import oracle_first_failure, random_term

MONOID = monoid_signature()


def vsig():
    return FreeAlgebra(MONOID, monoid_varspec()).vsig


def eq(name, lhs, rhs):
    return Equation(name, "u", parse_term(vsig(), lhs), parse_term(vsig(), rhs))


def test_free_vars_examples():
    vs = monoid_varspec()
    assert free_vars(parse_term(vsig(), "mul e x"), vs) == {"x"}
    assert free_vars(parse_term(vsig(), "e"), vs) == set()
    assert free_vars(parse_term(vsig(), "mul x x"), vs) == {"x"}
    assert free_vars(parse_term(vsig(), "mul x mul y z"), vs) == {"x", "y", "z"}


def test_equation_rejects_sort_mismatch():
    sig_terms = vsig()
    with pytest.raises(EquationError, match="sort"):
        Equation("bad", "v", parse_term(sig_terms, "x"), parse_term(sig_terms, "x"))


def test_eqspec_rejects_foreign_terms():
    other = parse_term(MONOID, "e")  # over the bare signature, not the extended one
    with pytest.raises(EquationError):
        EqSpec(MONOID, monoid_varspec(), (Equation("bad", "u", other, other),))


def test_holds_left_identity_z3():
    verdict = holds(additive_mod_algebra(3), eq("lid", "mul e x", "x"), monoid_varspec())
    assert verdict.holds and verdict.counterexample is None


def test_holds_subtraction_identities():
    sub = subtraction_mod_algebra(3)
    vs = monoid_varspec()
    assert holds(sub, eq("rid", "mul x e", "x"), vs).holds
    verdict = holds(sub, eq("lid", "mul e x", "x"), vs)
    assert not verdict.holds
    assert verdict.counterexample == {"x": "1"}


def test_holds_reflexive_equation():
    vs = monoid_varspec()
    for algebra in (additive_mod_algebra(4), subtraction_mod_algebra(3)):
        assert holds(algebra, eq("refl", "mul x y", "mul x y"), vs).holds


def test_holds_signature_mismatch():
    with pytest.raises(EquationError):
        holds(bool_algebra(), eq("lid", "mul e x", "x"), monoid_varspec())


def test_holds_checks_every_new_signature_and_varspec():
    # the algebra keeps the last pair whose check passed; any other pair is
    # checked again, and a failed check keeps nothing
    algebra, vs = additive_mod_algebra(3), monoid_varspec()
    lid = eq("lid", "mul e x", "x")
    xy = make_varspec(MONOID, [("x", "u"), ("y", "u")])
    lid_xy = Equation("lid", "u", parse_term(vsignature(MONOID, xy), "mul e x"), parse_term(vsignature(MONOID, xy), "x"))
    assert holds(algebra, lid, vs).holds
    kept = dict(vars(algebra))
    for _ in range(2):
        with pytest.raises(EquationError):
            holds(algebra, lid, xy)  # another varspec
        with pytest.raises(EquationError):
            holds(algebra, lid_xy, vs)  # an equation over another vsig
        assert vars(algebra).keys() == kept.keys()
        assert all(vars(algebra)[k] is v for k, v in kept.items())
    assert holds(algebra, lid, vs).holds
    # an accepted pair replaces the kept one, and the old one is checked again
    assert holds(algebra, lid_xy, xy).holds
    assert holds(algebra, eq("comm", "mul x y", "mul y x"), monoid_varspec()).holds
    with pytest.raises(EquationError):
        holds(algebra, lid, xy)


def test_holds_needs_a_finite_algebra():
    # an algebra of callables cannot be enumerated; holds_sampled searches it
    algebra = Algebra(MONOID, {"mul": lambda a, b: (a - b) % 3, "e": lambda: 0})
    with pytest.raises(EquationError, match="FiniteAlgebra.*holds_sampled"):
        holds(algebra, eq("lid", "mul e x", "x"), monoid_varspec())


def test_holds_labels_counterexamples_by_the_varspec_of_the_call():
    # two sorts with carriers of 3 and 2 elements, in an order that is not
    # label order, and two varspecs that give x, y and w other slots and w
    # another sort; w never occurs.  Calls alternate between the varspecs,
    # so a label table kept from the other one names the wrong variables
    # or reads the wrong carrier.
    sig = make_signature(["a", "b"], [("f", ["a", "b"], "a")])
    carriers = {"a": ("a2", "a0", "a1"), "b": ("b1", "b0")}
    broken = {("a1", "b1"), ("a0", "b0")}
    f = {(x, y): "a2" if (x, y) in broken else x for x in carriers["a"] for y in carriers["b"]}
    algebra = FiniteAlgebra(sig, carriers, {"f": f})
    first = make_varspec(sig, [("x", "a"), ("w", "b"), ("y", "b")])
    second = make_varspec(sig, [("y", "b"), ("w", "a"), ("x", "a")])
    cases = []
    for vs, want in ((first, {"x": "a0", "y": "b0"}), (second, {"y": "b1", "x": "a1"})):
        vsig_ = vsignature(sig, vs)
        equation = Equation("fx", "a", parse_term(vsig_, "f x y"), parse_term(vsig_, "x"))
        assert oracle_first_failure(algebra, equation, vs) == want
        cases.append((vs, equation, want))
    for vs, equation, want in cases * 3:
        verdict = holds(algebra, equation, vs)
        assert verdict == EqVerdict(False, want)
        assert list(verdict.counterexample) == [v for v in vs.vars if v in want]


def test_holds_counterexample_is_lexicographically_first():
    verdict = holds(
        subtraction_mod_algebra(3),
        eq("assoc", "mul mul x y z", "mul x mul y z"),
        monoid_varspec(),
    )
    assert verdict.counterexample == {"x": "0", "y": "0", "z": "1"}


def test_holds_counterexample_reevaluates():
    verdict = holds(subtraction_mod_algebra(3), eq("lid", "mul e x", "x"), monoid_varspec())
    cex = verdict.counterexample
    sub = subtraction_mod_algebra(3)
    assert evaluate(sub, cex, parse_term(vsig(), "mul e x")) != evaluate(
        sub, cex, parse_term(vsig(), "x")
    )


def holds_over_all_vars(algebra, equation, varspec):
    # reference version quantifying over the whole variable set, not just
    # the occurring variables
    names = list(varspec.vars)
    domains = [algebra.elements(varspec.sort_of(v)) for v in names]
    for combo in product(*domains):
        alpha = dict(zip(names, combo))
        if evaluate(algebra, alpha, equation.lhs) != evaluate(algebra, alpha, equation.rhs):
            return False
    return True


@given(st.sampled_from(["mul e x", "mul x e", "mul x y", "mul y x", "e"]),
       st.sampled_from(["x", "y", "e", "mul x x"]))
def test_variable_irrelevance(lhs, rhs):
    vs = monoid_varspec()
    equation = eq("probe", lhs, rhs)
    for algebra in (additive_mod_algebra(2), subtraction_mod_algebra(3)):
        assert holds(algebra, equation, vs).holds == holds_over_all_vars(algebra, equation, vs)


@given(st.integers(0, 10**6))
def test_holds_is_symmetric(seed):
    rng = random.Random(seed)
    texts = ["x", "y", "e", "mul x y", "mul e x", "mul x x", "mul mul x y z"]
    lhs, rhs = rng.choice(texts), rng.choice(texts)
    vs = monoid_varspec()
    algebra = additive_mod_algebra(rng.choice([2, 3]))
    assert (
        holds(algebra, eq("ab", lhs, rhs), vs).holds
        == holds(algebra, eq("ba", rhs, lhs), vs).holds
    )


def test_unit_algebra_satisfies_everything():
    unit = unit_algebra(MONOID)
    vs = monoid_varspec()
    for lhs, rhs in (("mul x y", "mul y x"), ("x", "mul x x"), ("e", "x")):
        assert holds(unit, eq("any", lhs, rhs), vs).holds


def test_is_eqalgebra_additive_mod_n():
    spec = monoid_eqspec()
    for n in range(1, 6):
        report = is_eqalgebra(additive_mod_algebra(n), spec)
        assert report.ok, f"n={n}"
        assert [name for name, _ in report.verdicts] == ["lid", "rid", "assoc"]


def test_is_eqalgebra_subtraction_report():
    report = is_eqalgebra(subtraction_mod_algebra(3), monoid_eqspec())
    assert not report.ok
    assert not report.verdict("lid").holds
    assert report.verdict("rid").holds
    assert not report.verdict("assoc").holds


def test_is_eqalgebra_bool_conjunction_monoid():
    # booleans under conjunction with unit true form a monoid
    labels = ("false", "true")
    tables = {
        "mul": {(a, b): ("true" if a == b == "true" else "false") for a in labels for b in labels},
        "e": {(): "true"},
    }
    algebra = FiniteAlgebra(MONOID, {"u": labels}, tables)
    report = is_eqalgebra(algebra, monoid_eqspec())
    assert report.ok


def test_is_eqalgebra_signature_mismatch():
    with pytest.raises(EquationError):
        is_eqalgebra(bool_algebra(), monoid_eqspec())


def test_holds_sampled_finds_counterexample():
    cex = holds_sampled(
        subtraction_mod_algebra(3), eq("lid", "mul e x", "x"), monoid_varspec(),
        n_samples=200, seed=5,
    )
    assert cex is not None
    sub = subtraction_mod_algebra(3)
    assert evaluate(sub, cex, parse_term(vsig(), "mul e x")) != cex["x"]


def test_holds_sampled_none_when_no_counterexample():
    assert (
        holds_sampled(additive_mod_algebra(3), eq("lid", "mul e x", "x"), monoid_varspec())
        is None
    )


def test_holds_sampled_on_an_empty_carrier_draws_nothing():
    # no element of s, so no assignment of x: the equation holds vacuously
    sig = make_signature(["s", "t"], [("f", ["s"], "t"), ("c", [], "t")])
    vs = make_varspec(sig, [("x", "s")])
    vsig = vsignature(sig, vs)
    algebra = FiniteAlgebra(sig, {"s": (), "t": ("a", "b")}, {"f": {}, "c": {(): "a"}})
    equation = Equation("fc", "t", parse_term(vsig, "f x"), parse_term(vsig, "c"))
    assert holds(algebra, equation, vs) == EqVerdict(True)
    assert holds_sampled(algebra, equation, vs) is None
    with pytest.raises(AlgebraError, match="sort 's'"):
        algebra.sample_element("s", random.Random(0))


# -- holds against a brute-force oracle ------------------------------------------

def oracle_holds(algebra, equation, varspec):
    """First failing assignment in lexicographic carrier order, found with
    the parse-tree evaluator rather than ``evaluate``."""
    found = oracle_first_failure(algebra, equation, varspec)
    return EqVerdict(True) if found is None else EqVerdict(False, found)


def random_equations(rng, vsig_, sort, count, max_depth):
    for i in range(count):
        lhs = random_term(rng, vsig_, sort, max_depth)
        rhs = lhs if i % 5 == 0 else random_term(rng, vsig_, sort, max_depth)
        yield Equation(f"r{i}", sort, lhs, rhs)


def test_holds_matches_oracle_on_random_monoid_equations():
    rng = random.Random(11)
    vs = monoid_varspec()
    failing = 0
    for n in (1, 2, 3, 5):
        for algebra in (additive_mod_algebra(n), subtraction_mod_algebra(n)):
            for equation in random_equations(rng, vsig(), "u", 25, 4):
                verdict = holds(algebra, equation, vs)
                assert verdict == oracle_holds(algebra, equation, vs), equation
                failing += not verdict.holds
    assert failing > 20  # counterexamples were compared, not just verdicts


def test_holds_matches_oracle_on_two_sorted_lists():
    fix = list_fixture(("a", "b"), max_len=3)
    rng = random.Random(12)
    for sort in ("list", "elem"):
        for equation in random_equations(rng, fix.free.vsig, sort, 40, 4):
            assert holds(fix.algebra, equation, fix.varspec) == oracle_holds(
                fix.algebra, equation, fix.varspec
            ), equation


def test_holds_maps_indices_back_to_unsorted_labels():
    # carrier order is not label order, so an index/label mix-up shows
    labels = ("3", "0", "4", "1", "2")
    tables = {
        "mul": {(a, b): str((int(a) - int(b)) % 5) for a in labels for b in labels},
        "e": {(): "0"},
    }
    algebra = FiniteAlgebra(MONOID, {"u": labels}, tables)
    vs = monoid_varspec()
    verdict = holds(algebra, eq("lid", "mul e x", "x"), vs)
    assert verdict.counterexample == {"x": "3"}
    verdict = holds(algebra, eq("assoc", "mul mul x y z", "mul x mul y z"), vs)
    assert verdict.counterexample == {"x": "3", "y": "3", "z": "3"}
    rng = random.Random(13)
    for equation in random_equations(rng, vsig(), "u", 40, 4):
        assert holds(algebra, equation, vs) == oracle_holds(algebra, equation, vs), equation


# -- block boundaries and edge cases of holds -----------------------------------

def assert_finds_every_single_difference(carriers, arg_sorts):
    """``f x y z = g x y z`` where the tables of the ternary ``f`` and
    ``g`` agree except at one argument triple: for each triple in turn,
    ``holds`` must return exactly that triple, whatever blocks the product
    is cut into."""
    out = arg_sorts[0]
    sig = make_signature(list(carriers), [("f", arg_sorts, out), ("g", arg_sorts, out)])
    vs = make_varspec(sig, zip(("x", "y", "z"), arg_sorts))
    vsig_ = vsignature(sig, vs)
    equation = Equation("fg", out, parse_term(vsig_, "f x y z"), parse_term(vsig_, "g x y z"))
    res = carriers[out]
    base = {
        args: res[sum(i * carriers[s].index(x) for i, (s, x) in enumerate(zip(arg_sorts, args), 1)) % len(res)]
        for args in product(*(carriers[s] for s in arg_sorts))
    }
    for odd in base:
        g = dict(base)
        g[odd] = res[(res.index(base[odd]) + 1) % len(res)]
        algebra = FiniteAlgebra(sig, carriers, {"f": base, "g": g})
        assert holds(algebra, equation, vs) == EqVerdict(False, dict(zip(("x", "y", "z"), odd)))
    assert holds(FiniteAlgebra(sig, carriers, {"f": base, "g": base}), equation, vs).holds


def test_holds_finds_every_single_difference_in_a_ternary_product():
    # 216 triples over one 6-element carrier in unsorted label order
    assert_finds_every_single_difference({"u": ("c3", "c0", "c5", "c1", "c4", "c2")}, ("u", "u", "u"))
    # and over carriers of sizes 3, 2 and 4, where the mixed radix differs
    # per argument
    assert_finds_every_single_difference(
        {"a": ("a0", "a1", "a2"), "b": ("b0", "b1"), "c": ("c0", "c1", "c2", "c3")}, ("a", "b", "c")
    )


def test_holds_variable_free_equations():
    vs = monoid_varspec()
    assert holds(additive_mod_algebra(3), eq("unit", "e", "e"), vs) == EqVerdict(True)
    labels = ("0", "1")
    tables = {"mul": {(a, b): str((int(a) + int(b)) % 2) for a in labels for b in labels}, "e": {(): "1"}}
    algebra = FiniteAlgebra(MONOID, {"u": labels}, tables)
    assert holds(algebra, eq("idem", "e", "mul e e"), vs) == EqVerdict(False, {})


def test_holds_vacuously_over_an_empty_carrier():
    sig = make_signature(["u", "w"], [("e", [], "u"), ("p", ["w"], "u"), ("q", ["u"], "u")])
    vs = make_varspec(sig, [("x", "u"), ("v", "w")])
    vsig_ = vsignature(sig, vs)
    algebra = FiniteAlgebra(
        sig, {"u": ("0", "1"), "w": ()}, {"e": {(): "0"}, "p": {}, "q": {("0",): "1", ("1",): "0"}}
    )
    vacuous = Equation("vac", "u", parse_term(vsig_, "q p v"), parse_term(vsig_, "q x"))
    assert holds(algebra, vacuous, vs) == EqVerdict(True)
    failing = Equation("inv", "u", parse_term(vsig_, "q x"), parse_term(vsig_, "x"))
    assert holds(algebra, failing, vs) == EqVerdict(False, {"x": "0"})
