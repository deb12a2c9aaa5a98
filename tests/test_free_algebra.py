import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualg.algebra import UNIT_ELEMENT, AlgebraError, unit_algebra
from ualg.examples import (
    additive_mod_algebra,
    bool_algebra,
    bool_free,
    bool_signature,
    list_signature,
    monoid_signature,
    monoid_varspec,
)
from ualg.free_algebra import (
    FreeAlgebra,
    MissingBindingError,
    check_universality,
    enumerate_terms,
    evaluate,
    universal_map,
)
from ualg.signature import SignatureError, make_varspec
from ualg.term_vm import depth, parse_term, term_decompose

from oracle import oracle_eval, random_term

MONOID = monoid_signature()
BOOL = bool_signature()


def monoid_free():
    return FreeAlgebra(MONOID, monoid_varspec())


def test_varterm_examples():
    free = monoid_free()
    x = free.varterm("x")
    assert x.syms == ("x",)
    assert x.sort == "u"
    assert depth(x) == 1
    assert free.varterm("y").text() == "y"

    lists = FreeAlgebra(list_signature(), make_varspec(list_signature(), {"a": "elem"}))
    assert lists.varterm("a").sort == "elem"


def test_varterm_rejects_unknown():
    with pytest.raises(SignatureError, match="unknown variable"):
        monoid_free().varterm("w")


def test_free_algebra_ops_build_terms():
    free = monoid_free()
    x, y = free.varterm("x"), free.varterm("y")
    t = free.op("mul", x, y)
    assert t.text() == "mul x y"
    assert t.sort == "u"
    e = free.op("e")
    assert e.text() == "e"


def test_evaluate_bool_formula():
    free = bool_free()
    t = parse_term(free.vsig, "conj x impl z neg y")
    alpha = {"x": "true", "y": "true", "z": "false"}
    assert evaluate(bool_algebra(), alpha, t) == "true"


def test_evaluate_ground_monoid():
    free = monoid_free()
    t = parse_term(free.vsig, "mul e e")
    assert evaluate(additive_mod_algebra(3), {}, t) == "0"
    assert evaluate(additive_mod_algebra(3), {"x": "2"}, t) == "0"


def test_evaluate_variable_base_case():
    free = monoid_free()
    for label in ("0", "1", "2"):
        assert evaluate(additive_mod_algebra(3), {"x": label}, free.varterm("x")) == label


def test_evaluate_missing_binding():
    free = monoid_free()
    with pytest.raises(MissingBindingError, match="'x'"):
        evaluate(additive_mod_algebra(3), {}, free.varterm("x"))


def test_evaluate_deep_chain():
    vsig = bool_free().vsig
    assert evaluate(bool_algebra(), {}, parse_term(vsig, "neg " * 5000 + "top")) == "true"
    assert evaluate(bool_algebra(), {}, parse_term(vsig, "neg " * 4999 + "top")) == "false"


def test_missing_binding_names_the_leftmost_variable():
    free = monoid_free()
    algebra = additive_mod_algebra(3)
    with pytest.raises(MissingBindingError, match="'y'"):
        evaluate(algebra, {}, parse_term(free.vsig, "mul y x"))
    with pytest.raises(MissingBindingError, match="'x'"):
        evaluate(algebra, {"y": "1"}, parse_term(free.vsig, "mul mul y x z"))


def test_bad_label_names_the_operation_the_fold_meets_first():
    # the fold applies neg to x before impl to y; the machine runs
    # right to left, so the error path must replay the fold's order
    free = bool_free()
    algebra = bool_algebra()
    t = parse_term(free.vsig, "conj neg x impl y top")
    with pytest.raises(AlgebraError, match="argument 0 of 'neg'"):
        evaluate(algebra, {"x": "bad", "y": "bad", "z": "true"}, t)
    # a bad label met before an unbound variable is reported first
    with pytest.raises(AlgebraError, match="argument 0 of 'neg'"):
        evaluate(algebra, {"x": "bad"}, parse_term(free.vsig, "conj neg x y"))


@given(st.integers(0, 10**9))
@settings(max_examples=50)
def test_evaluate_satisfies_hom_law(seed):
    # evaluate(A, a, build(nm, v)) == A.op(nm, *map(evaluate, v)) on
    # random terms up to depth 5
    rng = random.Random(seed)
    free = monoid_free()
    algebra = additive_mod_algebra(4)
    alpha = {v: rng.choice(algebra.elements("u")) for v in free.varspec.vars}
    t = random_term(rng, free.vsig, "u", 5)
    nm, args = term_decompose(t)
    if free.base_signature.is_op(nm):
        direct = algebra.op(nm, *(evaluate(algebra, alpha, a) for a in args))
        assert evaluate(algebra, alpha, t) == direct


@given(st.integers(0, 10**9))
@settings(max_examples=50)
def test_evaluate_agrees_with_oracle_evaluator(seed):
    rng = random.Random(seed)
    free = bool_free()
    algebra = bool_algebra()
    alpha = {v: rng.choice(("false", "true")) for v in free.varspec.vars}
    t = random_term(rng, free.vsig, "u", 6)
    assert evaluate(algebra, alpha, t) == oracle_eval(algebra, alpha, t)


def test_ground_evaluation_is_assignment_independent():
    free = bool_free()
    t = parse_term(free.vsig, "impl bot disj top bot")
    a1 = {"x": "true", "y": "false", "z": "true"}
    a2 = {"x": "false", "y": "true", "z": "false"}
    assert evaluate(bool_algebra(), a1, t) == evaluate(bool_algebra(), a2, t)
    assert evaluate(bool_algebra(), {}, t) == "true"


def test_universal_map_z2():
    h = universal_map(additive_mod_algebra(2), monoid_varspec(), {"x": "1", "y": "0", "z": "0"})
    t = parse_term(FreeAlgebra(MONOID, monoid_varspec()).vsig, "mul x x")
    assert h.apply("u", t) == "0"


def test_universal_map_agrees_with_assignment_on_variables():
    free = monoid_free()
    alpha = {"x": "1", "y": "2", "z": "0"}
    h = universal_map(additive_mod_algebra(3), free.varspec, alpha)
    for v in free.varspec.vars:
        assert h.apply("u", free.varterm(v)) == alpha[v]


def test_universal_map_to_unit_is_constant():
    free = monoid_free()
    unit = unit_algebra(MONOID)
    alpha = {v: UNIT_ELEMENT for v in free.varspec.vars}
    h = universal_map(unit, free.varspec, alpha)
    for text in ("e", "mul x y", "mul mul x e z"):
        assert h.apply("u", parse_term(free.vsig, text)) == UNIT_ELEMENT


def test_universal_map_dummett():
    free = bool_free()
    t = parse_term(free.vsig, "disj impl x y impl y x")
    for a in ("false", "true"):
        for b in ("false", "true"):
            h = universal_map(bool_algebra(), free.varspec, {"x": a, "y": b, "z": "false"})
            assert h.apply("u", t) == "true"


def sample_terms(sig, sort, max_depth):
    return list(enumerate_terms(sig, sort, max_depth))


def test_check_universality_accepts_eval():
    free = monoid_free()
    algebra = additive_mod_algebra(3)
    alpha = {"x": "1", "y": "2", "z": "0"}
    candidate = {"u": lambda t: evaluate(algebra, alpha, t)}
    sample = sample_terms(free.vsig, "u", 3)
    assert check_universality(algebra, free.varspec, alpha, candidate, sample).ok


def test_check_universality_rejects_deviation():
    free = monoid_free()
    algebra = additive_mod_algebra(3)
    alpha = {"x": "1", "y": "2", "z": "0"}
    bad_at = parse_term(free.vsig, "mul x y")

    def candidate(t):
        value = evaluate(algebra, alpha, t)
        if t == bad_at:
            return str((int(value) + 1) % 3)
        return value

    sample = sample_terms(free.vsig, "u", 2)
    verdict = check_universality(algebra, free.varspec, alpha, candidate, sample)
    assert not verdict.ok
    assert verdict.at is not None


def test_check_universality_rejects_ill_sorted_candidate():
    from ualg.algebra import AlgebraError

    free = monoid_free()
    algebra = additive_mod_algebra(3)
    alpha = {"x": "0", "y": "0", "z": "0"}
    with pytest.raises(AlgebraError, match="no map for sort"):
        check_universality(algebra, free.varspec, alpha, {}, sample_terms(free.vsig, "u", 2))


def test_ground_initiality_bool():
    # empty variable set: an independently written structural evaluator
    # satisfies the hom law, so it must agree with evaluate everywhere
    algebra = bool_algebra()
    empty = make_varspec(BOOL, {})

    def independent(t):
        return oracle_eval(algebra, {}, t)

    sample = sample_terms(BOOL, "u", 3)
    assert check_universality(algebra, empty, {}, independent, sample).ok
    for t in sample:
        assert independent(t) == evaluate(algebra, {}, t)


def test_uniqueness_desk_scale():
    # any candidate passing check_universality on all terms up to depth 3
    # agrees there with the canonical map
    free = monoid_free()
    algebra = additive_mod_algebra(3)
    alpha = {"x": "2", "y": "1", "z": "0"}
    sample = sample_terms(free.vsig, "u", 3)
    h = universal_map(algebra, free.varspec, alpha)

    def independent(t):
        return oracle_eval(algebra, alpha, t)

    assert check_universality(algebra, free.varspec, alpha, independent, sample).ok
    for t in sample:
        assert independent(t) == h.apply("u", t)


def test_enumerate_terms_monoid():
    assert [t.text() for t in enumerate_terms(MONOID, "u", 1)] == ["e"]
    assert [t.text() for t in enumerate_terms(MONOID, "u", 2)] == ["e", "mul e e"]
    assert [t.text() for t in enumerate_terms(MONOID, "u", 3)] == [
        "e",
        "mul e e",
        "mul e mul e e",
        "mul mul e e e",
        "mul mul e e mul e e",
    ]


def test_enumerate_terms_bool_depth_one():
    assert [t.text() for t in enumerate_terms(BOOL, "u", 1)] == ["bot", "top"]


def test_enumerate_terms_counts_bool():
    assert len(sample_terms(BOOL, "u", 2)) == 16
    assert len(sample_terms(BOOL, "u", 3)) == 786


def test_enumerate_terms_list_sorts():
    sig = list_signature()
    assert [t.text() for t in enumerate_terms(sig, "list", 3)] == ["nil"]
    assert sample_terms(sig, "elem", 3) == []


def test_enumerate_terms_all_valid():
    for t in enumerate_terms(BOOL, "u", 3):
        assert t.sort == "u"
        assert depth(t) <= 3


def test_enumerate_rejects_unknown_sort():
    with pytest.raises(SignatureError):
        list(enumerate_terms(MONOID, "v", 2))
