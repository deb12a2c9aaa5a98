import pytest

from ualg.algebra import AlgebraError
from ualg.examples import (
    LIST_OVERFLOW,
    ListBoundError,
    bool_algebra,
    bool_free,
    bool_signature,
    list_eval,
    list_fixture,
    list_signature_and_algebra,
    monoid_fixture,
    monoid_eqspec,
    subtraction_mod_algebra,
    tarski_interp,
)
from ualg.equations import is_eqalgebra
from ualg.term_vm import parse_term


# -- list datatype -------------------------------------------------------

def test_list_ground_terms_evaluate():
    fix = list_fixture(("a", "b"), max_len=4)
    assert list_eval(fix, "nil") == "[]"
    assert list_eval(fix, "cons a nil") == "[a]"
    assert list_eval(fix, "cons a cons b nil") == "[a,b]"


def test_list_cons_arity():
    sig, _ = list_signature_and_algebra(("a",))
    assert sig.arity_of("cons") == ("elem", "list")
    assert sig.sort_of("cons") == "list"


def test_list_carrier_is_ordered_by_length():
    _, alg = list_signature_and_algebra(("a", "b"), max_len=2)
    assert alg.elements("list") == ("[]", "[a]", "[b]", "[a,a]", "[a,b]", "[b,a]", "[b,b]", LIST_OVERFLOW)
    assert alg.elements("elem") == ("a", "b")


def test_list_bound_exhaustion():
    fix = list_fixture(("a",), max_len=2)
    assert list_eval(fix, "cons a cons a nil") == "[a,a]"
    with pytest.raises(ListBoundError, match="bound of 2"):
        list_eval(fix, "cons a cons a cons a nil")
    # overflow absorbs further conses at the table level
    assert fix.algebra.op("cons", "a", LIST_OVERFLOW) == LIST_OVERFLOW


def test_list_rejects_empty_carrier():
    with pytest.raises(AlgebraError):
        list_signature_and_algebra(())


# -- monoid fixture -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_monoid_fixture_all_hold(n):
    _, _, report = monoid_fixture(n)
    assert report.ok


def test_monoid_subtraction_variant_fails_lid():
    report = is_eqalgebra(subtraction_mod_algebra(3), monoid_eqspec())
    assert not report.verdict("lid").holds
    assert report.verdict("lid").counterexample == {"x": "1"}


# -- booleans -------------------------------------------------------------

def truth_table(nm):
    alg = bool_algebra()
    k = len(bool_signature().arity_of(nm))
    from itertools import product as prod

    return {
        args: alg.op(nm, *args) == "true"
        for args in prod(("false", "true"), repeat=k)
    }


def test_connectives_match_standard_truth_tables():
    as_bool = {"false": False, "true": True}
    assert truth_table("bot") == {(): False}
    assert truth_table("top") == {(): True}
    assert truth_table("neg") == {(a,): not as_bool[a] for a in ("false", "true")}
    for nm, fn in (
        ("conj", lambda a, b: a and b),
        ("disj", lambda a, b: a or b),
        ("impl", lambda a, b: (not a) or b),
    ):
        assert truth_table(nm) == {
            (a, b): fn(as_bool[a], as_bool[b])
            for a in ("false", "true")
            for b in ("false", "true")
        }


def test_tarski_interp_formula():
    t = parse_term(bool_free().vsig, "conj x impl z neg y")
    assert tarski_interp({"x": True, "y": True, "z": False}, t) is True
    assert tarski_interp({"x": False, "y": True, "z": False}, t) is False


def test_dummett_tautology():
    t = parse_term(bool_free().vsig, "disj impl x y impl y x")
    for x in (False, True):
        for y in (False, True):
            assert tarski_interp({"x": x, "y": y}, t) is True


def test_ground_implication():
    t = parse_term(bool_free().vsig, "impl bot top")
    assert tarski_interp({}, t) is True


def test_bool_is_a_monoid_under_conjunction():
    # with (conj, top) as (mul, e); checked through the monoid equations
    from ualg.algebra import FiniteAlgebra
    from ualg.examples import monoid_signature

    alg = bool_algebra()
    tables = {
        "mul": {key: alg.tables["conj"][key] for key in alg.tables["conj"]},
        "e": {(): "true"},
    }
    monoid_bool = FiniteAlgebra(
        monoid_signature(), {"u": ("false", "true")}, tables
    )
    assert is_eqalgebra(monoid_bool, monoid_eqspec()).ok
