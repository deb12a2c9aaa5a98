import pytest
from hypothesis import given
from hypothesis import strategies as st

from ualg.algebra import (
    Algebra,
    AlgebraError,
    FiniteAlgebra,
    UNIT_ELEMENT,
    check_hom,
    compose_hom,
    hom_to_unit,
    unit_algebra,
)
from ualg.examples import additive_mod_algebra, bool_algebra, monoid_signature
from ualg.signature import make_signature

MONOID = monoid_signature()


def identity_maps(algebra):
    return {s: {x: x for x in algebra.elements(s)} for s in algebra.signature.sorts}


def mod_maps(n, d):
    return {"u": {str(i): str(i % d) for i in range(n)}}


def test_generic_algebra_native_values():
    alg = Algebra(MONOID, {"mul": lambda a, b: (a + b) % 3, "e": lambda: 0})
    assert alg.op("e") == 0
    assert alg.op("mul", 2, 2) == 1
    with pytest.raises(AlgebraError):
        alg.op("nope")


def test_generic_algebra_requires_all_ops():
    with pytest.raises(AlgebraError, match="no interpretation"):
        Algebra(MONOID, {"mul": lambda a, b: a})


def test_finite_algebra_bool_tables():
    alg = bool_algebra()
    assert alg.elements("u") == ("false", "true")
    assert alg.op("conj", "true", "false") == "false"
    assert alg.op("impl", "false", "false") == "true"
    assert alg.op("neg", "false") == "true"
    assert alg.op("bot") == "false"


def test_finite_algebra_z3():
    alg = additive_mod_algebra(3)
    assert alg.op("mul", "2", "2") == "1"
    assert alg.op("e") == "0"
    assert alg.elements("u") == ("0", "1", "2")


def test_finite_algebra_forced_by_singletons():
    sig = MONOID
    alg = FiniteAlgebra(sig, {"u": ["p"]}, {"mul": {("p", "p"): "p"}, "e": {(): "p"}})
    assert alg.op("mul", "p", "p") == "p"
    assert alg == unit_algebra(sig) or alg.carriers["u"] == ("p",)


def test_finite_algebra_rejects_non_total_table():
    sig = MONOID
    with pytest.raises(AlgebraError, match="not total"):
        FiniteAlgebra(
            sig,
            {"u": ["0", "1"]},
            {"mul": {("0", "0"): "0"}, "e": {(): "0"}},
        )


def test_finite_algebra_rejects_alien_result():
    with pytest.raises(AlgebraError, match="not in the carrier"):
        FiniteAlgebra(MONOID, {"u": ["0"]}, {"mul": {("0", "0"): "9"}, "e": {(): "0"}})


def test_finite_algebra_rejects_unknown_op_and_missing_table():
    with pytest.raises(AlgebraError, match="unknown operations"):
        FiniteAlgebra(
            MONOID,
            {"u": ["0"]},
            {"mul": {("0", "0"): "0"}, "e": {(): "0"}, "extra": {(): "0"}},
        )
    with pytest.raises(AlgebraError, match="no table"):
        FiniteAlgebra(MONOID, {"u": ["0"]}, {"mul": {("0", "0"): "0"}})


def test_finite_algebra_rejects_bad_arguments():
    with pytest.raises(AlgebraError, match="carrier"):
        FiniteAlgebra(MONOID, {"u": ["0"]}, {"mul": {("0", "x"): "0"}, "e": {(): "0"}})
    with pytest.raises(AlgebraError, match="no carrier"):
        FiniteAlgebra(MONOID, {}, {"mul": {}, "e": {}})
    with pytest.raises(AlgebraError, match="duplicate labels"):
        FiniteAlgebra(MONOID, {"u": ["0", "0"]}, {"mul": {("0", "0"): "0"}, "e": {(): "0"}})


def test_unit_algebra_shapes():
    for sig in (MONOID, make_signature(["a", "b"], []), bool_algebra().signature):
        unit = unit_algebra(sig)
        for s in sig.sorts:
            assert unit.elements(s) == (UNIT_ELEMENT,)
        for nm in sig.ops:
            args = [UNIT_ELEMENT] * len(sig.arity_of(nm))
            assert unit.op(nm, *args) == UNIT_ELEMENT


def test_check_hom_identity_is_hom():
    for alg in (bool_algebra(), additive_mod_algebra(3), additive_mod_algebra(5)):
        assert check_hom(identity_maps(alg), alg, alg).ok


def test_check_hom_mod2_reduction():
    verdict = check_hom(mod_maps(4, 2), additive_mod_algebra(4), additive_mod_algebra(2))
    assert verdict.ok and verdict.counterexample is None


def test_check_hom_constant_one_fails():
    z2 = additive_mod_algebra(2)
    maps = {"u": {"0": "1", "1": "1"}}
    verdict = check_hom(maps, z2, z2)
    assert not verdict.ok
    # first counterexample in enumeration order: ops in signature order
    # (mul before e), argument tuples lexicographic; h(0+0)=1 but h(0)+h(0)=0
    assert verdict.counterexample == ("mul", ("0", "0"))
    nm, args = verdict.counterexample
    assert maps["u"][z2.op(nm, *args)] != z2.op(nm, *(maps["u"][x] for x in args))


def test_check_hom_rejects_sort_incompatible_map():
    z2 = additive_mod_algebra(2)
    with pytest.raises(AlgebraError, match="no map for sort"):
        check_hom({}, z2, z2)
    with pytest.raises(AlgebraError, match="different signatures"):
        check_hom(identity_maps(z2), z2, bool_algebra())


def test_check_hom_requires_finite_source():
    z2 = additive_mod_algebra(2)
    abstract = Algebra(MONOID, {"mul": lambda a, b: a, "e": lambda: 0})
    with pytest.raises(AlgebraError, match="finite"):
        check_hom({"u": lambda x: x}, abstract, z2)


def test_compose_hom_identities():
    from ualg.algebra import Hom

    z4 = additive_mod_algebra(4)
    z2 = additive_mod_algebra(2)
    ident = Hom(z4, z4, identity_maps(z4))
    mod2 = Hom(z4, z2, mod_maps(4, 2))
    assert check_hom(compose_hom(ident, ident), z4, z4).ok
    composed = compose_hom(mod2, ident)
    for i in range(4):
        assert composed.apply("u", str(i)) == str(i % 2)


def test_compose_hom_z8_to_z2_two_ways():
    from ualg.algebra import Hom

    z8, z4, z2 = (additive_mod_algebra(n) for n in (8, 4, 2))
    f = Hom(z8, z4, mod_maps(8, 4))
    g = Hom(z4, z2, mod_maps(4, 2))
    gf = compose_hom(g, f)
    assert check_hom(gf, z8, z2).ok
    direct = mod_maps(8, 2)["u"]
    for i in range(8):
        assert gf.apply("u", str(i)) == direct[str(i)]


def test_compose_hom_rejects_mismatch():
    from ualg.algebra import Hom

    z8, z4, z2 = (additive_mod_algebra(n) for n in (8, 4, 2))
    f = Hom(z8, z4, mod_maps(8, 4))
    h = Hom(z8, z2, mod_maps(8, 2))
    with pytest.raises(AlgebraError, match="not composable"):
        compose_hom(h, f)


@given(st.integers(1, 4), st.integers(1, 3))
def test_composition_of_quotients_is_a_hom(d2, d3):
    # mod-d reductions are homs; their composites must pass check_hom
    n = 2 * d2 * d3
    mid, small = d2 * d3, d3
    from ualg.algebra import Hom

    f = Hom(additive_mod_algebra(n), additive_mod_algebra(mid), mod_maps(n, mid))
    g = Hom(additive_mod_algebra(mid), additive_mod_algebra(small), mod_maps(mid, small))
    assert check_hom(f, f.source, f.target).ok
    assert check_hom(g, g.source, g.target).ok
    assert check_hom(compose_hom(g, f), f.source, g.target).ok


def test_hom_to_unit_examples():
    for alg in (bool_algebra(), additive_mod_algebra(3)):
        h = hom_to_unit(alg)
        assert check_hom(h, alg, h.target).ok
        for s in alg.signature.sorts:
            for x in alg.elements(s):
                assert h.apply(s, x) == UNIT_ELEMENT


def test_hom_unit_to_unit_is_identity():
    unit = unit_algebra(MONOID)
    h = hom_to_unit(unit)
    assert h.apply("u", UNIT_ELEMENT) == UNIT_ELEMENT
    assert check_hom(h, unit, h.target).ok


def test_every_map_into_unit_is_the_canonical_one():
    # target carriers are singletons, so there is exactly one sort-correct
    # map; it passes check_hom and equals hom_to_unit pointwise
    for alg in (bool_algebra(), additive_mod_algebra(4)):
        unit = unit_algebra(alg.signature)
        canonical = hom_to_unit(alg)
        maps = {s: {x: UNIT_ELEMENT for x in alg.elements(s)} for s in alg.signature.sorts}
        assert check_hom(maps, alg, unit).ok
        for s in alg.signature.sorts:
            for x in alg.elements(s):
                assert maps[s][x] == canonical.apply(s, x)


def test_finite_algebra_equality_is_structural():
    assert additive_mod_algebra(3) == additive_mod_algebra(3)
    assert additive_mod_algebra(3) != additive_mod_algebra(4)
