import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ualg.algebra import FiniteAlgebra, make_finite_algebra, unit_algebra
from ualg.equations import (
    EqVerdict,
    EquationError,
    Equation,
    free_vars,
    holds,
    holds_sampled,
    is_eqalgebra,
    make_eqspec,
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
from ualg.term_vm import parse_term

from oracle import oracle_eval, random_term

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
        make_eqspec(MONOID, monoid_varspec(), [Equation("bad", "u", other, other)])


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
    algebra = make_finite_algebra(MONOID, {"u": labels}, tables)
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


# -- holds against a brute-force oracle ------------------------------------------

def oracle_holds(algebra, equation, varspec):
    """First failing assignment in lexicographic carrier order, found with
    the parse-tree evaluator rather than ``evaluate``."""
    names = [v for v in varspec.vars if v in equation.lhs.syms or v in equation.rhs.syms]
    for combo in product(*(algebra.elements(varspec.sort_of(v)) for v in names)):
        alpha = dict(zip(names, combo))
        if oracle_eval(algebra, alpha, equation.lhs) != oracle_eval(algebra, alpha, equation.rhs):
            return EqVerdict(False, alpha)
    return EqVerdict(True)


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
