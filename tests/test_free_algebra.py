import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualg.algebra import UNIT_ELEMENT, Algebra, AlgebraError, FiniteAlgebra, unit_algebra
from ualg.examples import (
    additive_mod_algebra,
    bool_algebra,
    bool_free,
    bool_signature,
    list_fixture,
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
from ualg.signature import SignatureError, make_signature, make_varspec, vsignature
from ualg.term_vm import depth, parse_term, term_decompose, term_from_syms

from oracle import oracle_enumerate, oracle_eval, random_term

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


def ternary_signature():
    return make_signature(
        ["u", "v"],
        [("c", [], "u"), ("k", [], "v"), ("g", ["u"], "u"), ("f", ["u", "v", "u"], "u")],
    )


def ternary_vsig():
    sig = ternary_signature()
    return vsignature(sig, make_varspec(sig, {"x": "u", "y": "u", "w": "v"}))


def ternary_algebra():
    """Two sorts of three and two elements, a constant of each, a unary
    operation and a ternary one whose table tells every argument
    position apart, so the mixed radix (3, 2, 3) matters."""
    us, vs = ("0", "1", "2"), ("p", "q")
    tables = {
        "c": {(): "2"},
        "k": {(): "q"},
        "g": {(a,): str((int(a) + 1) % 3) for a in us},
        "f": {
            (a, b, c): str((int(a) + (2 if b == "q" else 0) + int(a) * int(c) + 2) % 3)
            for a, b, c in product(us, vs, us)
        },
    }
    return FiniteAlgebra(ternary_signature(), {"u": us, "v": vs}, tables)


def on_values(algebra):
    """The same operations as a plain ``Algebra``, which ``evaluate`` runs
    on values through ``op`` rather than on index rows."""
    return Algebra(algebra.signature, {nm: partial(algebra.op, nm) for nm in algebra.signature.ops})


def outcome(algebra, assignment, t):
    try:
        value = evaluate(algebra, assignment, t)
    except Exception as err:
        return "raised", type(err), str(err)
    return "value", type(value), value


FOREIGN = "the term is not over the algebra's signature extended by variables"


def assert_paths_agree(algebra, vsig, assignments, terms):
    generic = on_values(algebra)
    for assignment in assignments:
        for t in terms:
            assert t.signature is vsig
            got = outcome(algebra, assignment, t)
            assert got[2] != FOREIGN and got == outcome(generic, assignment, t), (t, assignment)


def test_index_evaluation_matches_value_evaluation_on_bool():
    vsig = bool_free().vsig
    terms = list(enumerate_terms(vsig, "u", 3))
    terms.append(parse_term(vsig, "neg " * 5000 + "x"))
    assignments = [dict(zip("xyz", v)) for v in product(("false", "true"), repeat=3)]
    assert_paths_agree(bool_algebra(), vsig, assignments, terms)


def test_index_evaluation_matches_value_evaluation_on_lists():
    fix = list_fixture()  # two sorts; cons past four elements hits the overflow sink
    vsig = fix.free.vsig
    terms = list(enumerate_terms(vsig, "list", 6)) + list(enumerate_terms(vsig, "elem", 1))
    assert_paths_agree(fix.algebra, vsig, [fix.assignment, {"a": "b", "b": "b"}], terms)


def test_index_evaluation_matches_value_evaluation_with_a_ternary_operation():
    vsig = ternary_vsig()
    terms = list(enumerate_terms(vsig, "u", 3)) + list(enumerate_terms(vsig, "v", 2))
    assert any(t.syms[:2] == ("f", "f") for t in terms)
    assignments = [{"x": a, "y": b, "w": c} for a, b, c in product("012", "01", "pq")]
    assert_paths_agree(ternary_algebra(), vsig, assignments, terms)


def test_index_evaluation_errors_match_value_evaluation():
    bool_vsig = bool_free().vsig
    cases = [
        # missing bindings: the leftmost variable is named
        (additive_mod_algebra(3), monoid_free().vsig, {}, "mul y x"),
        (additive_mod_algebra(3), monoid_free().vsig, {"y": "1"}, "mul mul y x z"),
        (ternary_algebra(), ternary_vsig(), {}, "f y w x"),
        # labels outside the carrier
        (bool_algebra(), bool_vsig, {"x": "bad", "y": "bad", "z": "true"}, "conj neg x impl y top"),
        (bool_algebra(), bool_vsig, {"x": "bad"}, "conj neg x y"),
        # a bad label fails only when its operation is applied, after the
        # later arguments are visited
        (bool_algebra(), bool_vsig, {"x": "bad"}, "conj x y"),
        (bool_algebra(), bool_vsig, {"x": "bad", "y": "true"}, "conj x y"),
        (ternary_algebra(), ternary_vsig(), {"x": "0", "y": "7", "w": "p"}, "f x k g y"),
        (ternary_algebra(), ternary_vsig(), {"x": "0", "w": "0"}, "f x w c"),
        (ternary_algebra(), ternary_vsig(), {"x": ["0"], "w": "p"}, "f x w c"),
        # the index pass meets the unhashable label first, the fold the unbound x
        (ternary_algebra(), ternary_vsig(), {"w": ["p"]}, "f x w c"),
    ]
    for algebra, vsig, assignment, text in cases:
        t = parse_term(vsig, text)
        got = outcome(algebra, assignment, t)
        assert got[0] == "raised" and got == outcome(on_values(algebra), assignment, t), text
    with pytest.raises(MissingBindingError, match="'y'"):
        evaluate(ternary_algebra(), {}, parse_term(ternary_vsig(), "f y w x"))
    with pytest.raises(AlgebraError, match="argument 0 of 'g'"):
        evaluate(ternary_algebra(), {"x": "0", "y": "7", "w": "p"}, parse_term(ternary_vsig(), "f x k g y"))
    with pytest.raises(MissingBindingError, match="'y'"):
        evaluate(bool_algebra(), {"x": "bad"}, parse_term(bool_vsig, "conj x y"))
    with pytest.raises(AlgebraError, match="argument 0 of 'conj'"):
        evaluate(bool_algebra(), {"x": "bad", "y": "true"}, parse_term(bool_vsig, "conj x y"))
    with pytest.raises(AlgebraError, match="\\['true'\\] is not a carrier element for argument 0 of 'conj'"):
        evaluate(bool_algebra(), {"x": ["true"], "y": "true"}, parse_term(bool_vsig, "conj x y"))


def test_a_failed_evaluation_builds_no_label_view():
    # the replay in fold order reads the index rows, as the index pass does
    z200 = additive_mod_algebra(200)
    t = parse_term(monoid_free().vsig, "mul mul x y z")
    with pytest.raises(MissingBindingError) as err:
        evaluate(z200, {"x": "1", "y": "2"}, t)
    assert str(err.value) == "no binding for variable 'z'"
    assert "_view" not in z200.__dict__
    cases = [
        (partial(additive_mod_algebra, 200), monoid_free().vsig, {"x": "1", "y": "bad", "z": "3"}, "mul mul x y z"),
        (bool_algebra, bool_free().vsig, {"x": "bad", "y": "true"}, "conj x y"),
        (bool_algebra, bool_free().vsig, {"x": ["true"], "y": "true"}, "conj x y"),
        (ternary_algebra, ternary_vsig(), {"x": "0", "y": "7", "w": "p"}, "f x k g y"),
        (ternary_algebra, ternary_vsig(), {"x": "0", "w": "0"}, "f x w c"),
        (ternary_algebra, ternary_vsig(), {"w": ["p"]}, "f x w c"),
    ]
    for make, vsig, assignment, text in cases:
        t, algebra = parse_term(vsig, text), make()
        got = outcome(algebra, assignment, t)
        assert got[0] == "raised" and "_view" not in algebra.__dict__, text
        assert got == outcome(on_values(make()), assignment, t), text


class Label(str):
    """A binding equal to a carrier label but not a ``str``."""


def test_a_lone_variable_evaluates_to_its_binding_as_given():
    vsig = bool_free().vsig
    x = parse_term(vsig, "x")
    for binding in ["bad", Label("true")]:
        got = outcome(bool_algebra(), {"x": binding}, x)
        assert got == outcome(on_values(bool_algebra()), {"x": binding}, x) == ("value", type(binding), binding)


def test_evaluation_over_a_foreign_signature_is_rejected():
    # a term over a signature that is not the algebra's extended by
    # constants would pop other arguments on the index rows, or read a
    # symbol the algebra lacks as a variable; evaluate refuses it on
    # either kind of algebra
    bools = bool_algebra()
    decls = [(nm, bools.signature.arity_of(nm), "u") for nm in bools.signature.ops]
    clashing = make_signature(["u"], [(nm, (["u", "u"] if nm == "neg" else a), s) for nm, a, s in decls])
    renamed = make_signature(["u"], [(("foo" if nm == "conj" else nm), a, s) for nm, a, s in decls])
    extended = make_signature(["u"], decls + [("x", [], "u"), ("y", [], "u"), ("h", ["u"], "u")])
    resorted = make_signature(
        ["elem", "list"], [("nil", [], "elem"), ("cons", ["elem", "list"], "list"), ("l", [], "list")]
    )
    # a variable of a sort the algebra lacks
    extra_sort = make_signature(["u", "v"], decls + [("x", [], "v")])
    cases = [
        (bools, clashing, "neg top top", {}),
        (bools, renamed, "impl foo top top bot", {"foo": "true"}),
        (bools, extended, "conj h x y", {"h": "true", "x": "false", "y": "true"}),
        (list_fixture().algebra, resorted, "cons nil l", {"l": "[]"}),
        (bools, extra_sort, "x", {"x": "true"}),
    ]
    for algebra, sig, text, assignment in cases:
        t = parse_term(sig, text)
        for target in (algebra, on_values(algebra)):
            with pytest.raises(AlgebraError, match=FOREIGN):
                evaluate(target, assignment, t)
    # the accepted signature is remembered per algebra: a foreign term
    # after a valid one is still refused, and the valid one accepted again
    valid = parse_term(bool_free().vsig, "impl x y")
    foreign = parse_term(extended, "conj h x y")
    assignment = {"h": "true", "x": "true", "y": "false"}
    for target in (bools, on_values(bools)):
        assert evaluate(target, assignment, valid) == "false"
        with pytest.raises(AlgebraError, match=FOREIGN):
            evaluate(target, assignment, foreign)
        assert evaluate(target, assignment, valid) == "false"
    # a ground term over the algebra's own signature has no constants to add
    ground = parse_term(bools.signature, "impl bot neg top")
    assert evaluate(bools, {}, ground) == evaluate(on_values(bools), {}, ground) == "true"


@pytest.mark.parametrize(
    "sig, sort, max_depth",
    [
        (bool_free().vsig, "u", 3),
        (list_fixture().free.vsig, "list", 4),
        (list_fixture().free.vsig, "elem", 2),
        (ternary_vsig(), "u", 3),
        (ternary_vsig(), "v", 3),
    ],
)
def test_enumeration_order_matches_the_documented_order(sig, sort, max_depth):
    terms = list(enumerate_terms(sig, sort, max_depth))
    assert [t.syms for t in terms] == oracle_enumerate(sig, sort, max_depth)
    # enumeration does not re-check what it concatenates: the machine must agree
    for t in terms:
        assert t == term_from_syms(sig, t.syms)
