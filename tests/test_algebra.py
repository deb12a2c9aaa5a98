import random
import typing
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ualg.algebra import (
    Algebra,
    AlgebraError,
    FiniteAlgebra,
    HomVerdict,
    UNIT_ELEMENT,
    check_hom,
    compose_hom,
    hom_to_unit,
    unit_algebra,
)
from ualg.examples import (
    LIST_OVERFLOW,
    additive_mod_algebra,
    bool_algebra,
    list_fixture,
    monoid_eqspec,
    monoid_signature,
    subtraction_mod_algebra,
)
from ualg.equations import holds
from ualg.free_algebra import evaluate
from ualg.signature import make_signature, make_varspec

from oracle import oracle_hom_counterexample

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


def test_an_unhashable_argument_is_not_a_carrier_element():
    with pytest.raises(AlgebraError, match="\\['true'\\] is not a carrier element for argument 0 of 'neg'"):
        bool_algebra().op("neg", ["true"])
    with pytest.raises(AlgebraError, match="\\['1'\\] is not a carrier element for argument 1 of 'mul'"):
        additive_mod_algebra(3).op("mul", "0", ["1"])


def test_table_operations_of_every_arity_keep_their_values_and_messages():
    # arities 0 to 3 over two sorts: every value read off the tables, and
    # the exact message for a wrong argument count and for a bad label at
    # each position
    sig = make_signature(
        ["a", "b"],
        [("c", [], "a"), ("f", ["b"], "a"), ("g", ["a", "b"], "b"), ("h", ["a", "b", "a"], "a")],
    )
    carriers = {"a": ["0", "1", "2"], "b": ["p", "q"]}
    rng = random.Random(5)
    tables = {
        nm: {args: rng.choice(carriers[sig.sort_of(nm)]) for args in product(*(carriers[s] for s in sig.arity_of(nm)))}
        for nm in sig.ops
    }
    alg = FiniteAlgebra(sig, carriers, tables)
    for nm, table in tables.items():
        for args, result in table.items():
            assert alg.op(nm, *args) == result
        k = len(sig.arity_of(nm))
        for n in {0, k - 1, k + 1} - {-1, k}:
            with pytest.raises(AlgebraError) as err:
                alg.op(nm, *["0"] * n)
            assert str(err.value) == f"{nm!r} expects {k} argument(s), got {n}"
        good = next(iter(table))
        for i in range(k):
            for bad in ("x", ["0"]):
                args = list(good)
                args[i] = bad
                with pytest.raises(AlgebraError) as err:
                    alg.op(nm, *args)
                assert str(err.value) == f"{bad!r} is not a carrier element for argument {i} of {nm!r}"


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


def test_check_hom_holds_vacuously_over_an_empty_carrier():
    # p: w -> u reads an empty carrier, so its law holds over no argument tuple
    sig = make_signature(["u", "w"], [("e", [], "u"), ("p", ["w"], "u"), ("q", ["u"], "u")])
    algebra = FiniteAlgebra(
        sig, {"u": ("0", "1"), "w": ()}, {"e": {(): "0"}, "p": {}, "q": {("0",): "1", ("1",): "0"}}
    )
    identity = {"u": {"0": "0", "1": "1"}, "w": {}}
    assert check_hom(identity, algebra, algebra) == HomVerdict(True)
    collapse = {"u": {"0": "0", "1": "0"}, "w": {}}  # h(q 0) = 0 but q h(0) = 1
    assert check_hom(collapse, algebra, algebra) == HomVerdict(False, ("q", ("0",)))


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


def test_check_hom_requires_finite_target():
    z2 = additive_mod_algebra(2)
    abstract = Algebra(MONOID, {"mul": lambda a, b: a, "e": lambda: "0"})
    with pytest.raises(AlgebraError, match="target algebra must be finite"):
        check_hom(identity_maps(z2), z2, abstract)


def test_check_hom_rejects_bad_images_before_checking():
    z4, z2 = additive_mod_algebra(4), additive_mod_algebra(2)
    # the image of 3 is reached only after mul's counterexample at (0, 0)
    bad = {"u": {"0": "1", "1": "1", "2": "0", "3": "7"}}
    with pytest.raises(AlgebraError, match="image '7' of '3' is not in the target carrier"):
        check_hom(bad, z4, z2)
    with pytest.raises(AlgebraError, match="not in the target carrier"):
        check_hom({"u": lambda x: int(x) % 2}, z4, z2)
    with pytest.raises(AlgebraError, match="no image"):
        check_hom({"u": {"0": "1", "1": "1"}}, z4, z2)


def test_check_hom_needs_one_total_map_per_sort(monkeypatch):
    src, dst = list_fixture(("a", "b"), max_len=1).algebra, list_fixture(("a",), max_len=1).algebra
    maps = {"elem": {"a": "a", "b": "a"}, "list": {"[]": "[]", "[a]": "[a]", "[b]": "[a]", "overflow": "overflow"}}
    assert check_hom(maps, src, dst) == HomVerdict(True)
    bad = [
        ("no map for sort 'list'", {"elem": maps["elem"]}),
        ("'node' is not a sort", {**maps, "node": {}}),
        ("no image for '\\[b\\]'", {**maps, "list": {"[]": "[]", "[a]": "[a]", "overflow": "overflow"}}),
        ("maps\\['elem'\\]: 'c' is not in the source carrier", {**maps, "elem": {**maps["elem"], "c": "a"}}),
        ("maps\\['list'\\]: expected a callable or a mapping, got list", {**maps, "list": ["[]", "[a]"]}),
        # the identity sends a to a, a label of the target, and b to b, which is not
        ("maps\\['elem'\\]: image 'b' of 'b' is not in the target carrier", {**maps, "elem": lambda x: x}),
    ]

    def no_operation_is_checked(*args):
        raise AssertionError("an operation was checked")

    monkeypatch.setattr("ualg.modelcheck.first_difference", no_operation_is_checked)
    for match, m in bad:
        with pytest.raises(AlgebraError, match=match):
            check_hom(m, src, dst)


# -- check_hom against the label-level oracle ----------------------------------

def assert_agrees_with_oracle(maps, src, dst):
    verdict = check_hom(maps, src, dst)
    want = oracle_hom_counterexample(maps, src, dst)
    assert verdict.ok == (want is None)
    assert verdict.counterexample == want
    return verdict


def perturbed(rng, maps, src, dst, wrong):
    """``maps`` with ``wrong`` images, chosen at random, changed to another
    label of the target carrier."""
    out = {s: dict(m) for s, m in maps.items()}
    choices = [(s, x) for s in src.signature.sorts for x in src.elements(s) if len(dst.elements(s)) > 1]
    for s, x in rng.sample(choices, wrong):
        out[s][x] = rng.choice([y for y in dst.elements(s) if y != out[s][x]])
    return out


def test_check_hom_matches_oracle_on_mod_maps():
    rng = random.Random(21)
    failing = 0
    for k in range(1, 7):
        src, dst = additive_mod_algebra(2 * k), additive_mod_algebra(k)
        for _ in range(12):
            c = rng.randrange(k)
            maps = {"u": {str(i): str(c * i % k) for i in range(2 * k)}}
            assert assert_agrees_with_oracle(maps, src, dst).ok
            if k == 1:
                continue  # Z mod 1 has one element: no image can be wrong
            for wrong in (1, 2):
                failing += not assert_agrees_with_oracle(perturbed(rng, maps, src, dst, wrong), src, dst).ok
    assert failing > 100  # counterexamples were compared, not just verdicts


def elementwise_list_maps(src, elem_map):
    """The map of list algebras that applies ``elem_map`` to every element
    of a list and sends the overflow sink to itself."""
    def image(label):
        if label == LIST_OVERFLOW:
            return label
        items = label[1:-1].split(",") if label != "[]" else []
        return "[" + ",".join(elem_map[x] for x in items) + "]"

    return {"elem": dict(elem_map), "list": {x: image(x) for x in src.elements("list")}}


def test_check_hom_matches_oracle_on_two_sorted_lists():
    src = list_fixture(("a", "b"), max_len=3).algebra
    one = list_fixture(("a",), max_len=3).algebra
    swap = elementwise_list_maps(src, {"a": "b", "b": "a"})
    length = elementwise_list_maps(src, {"a": "a", "b": "a"})
    assert assert_agrees_with_oracle(swap, src, src).ok
    assert assert_agrees_with_oracle(length, src, one).ok
    rng = random.Random(22)
    failing = 0
    for maps, dst in ((swap, src), (length, one)):
        for wrong in (1, 2):
            for _ in range(15):
                failing += not assert_agrees_with_oracle(perturbed(rng, maps, src, dst, wrong), src, dst).ok
    assert failing > 30


def test_check_hom_matches_oracle_on_callable_maps():
    from ualg.algebra import Hom

    z8, z4, z2 = (additive_mod_algebra(n) for n in (8, 4, 2))
    f = Hom(z8, z4, mod_maps(8, 4))
    g = Hom(z4, z2, mod_maps(4, 2))
    bad = Hom(z4, z2, {"u": {"0": "0", "1": "0", "2": "1", "3": "1"}})
    assert assert_agrees_with_oracle(compose_hom(g, f).maps, z8, z2).ok
    assert not assert_agrees_with_oracle(compose_hom(bad, f).maps, z8, z2).ok
    for alg in (bool_algebra(), z4, list_fixture(("a", "b"), max_len=2).algebra):
        h = hom_to_unit(alg)
        assert assert_agrees_with_oracle(h.maps, alg, h.target).ok


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


def test_hom_apply_rejects_a_list_map_and_an_unhashable_element():
    # the wording of check_hom for the same faults
    from ualg.algebra import Hom
    from ualg.free_algebra import check_universality

    z2 = additive_mod_algebra(2)
    listed = Hom(z2, z2, {"u": ["0", "1"]})
    with pytest.raises(AlgebraError, match=r"^maps\['u'\]: expected a callable or a mapping, got list$"):
        listed.apply("u", "0")
    with pytest.raises(AlgebraError, match=r"^map has no image for element \['0'\]$"):
        Hom(z2, z2, {"u": {"0": "0", "1": "1"}}).apply("u", ["0"])
    with pytest.raises(AlgebraError, match="expected a callable or a mapping, got list"):
        compose_hom(listed, Hom(z2, z2, identity_maps(z2))).apply("u", "1")
    varspec = make_varspec(MONOID, {"x": "u"})
    with pytest.raises(AlgebraError, match="expected a callable or a mapping, got list"):
        check_universality(z2, varspec, {"x": "0"}, {"u": ["0", "1"]}, [])
    with pytest.raises(AlgebraError, match="^no map for sort 'u'$"):
        check_universality(z2, varspec, {"x": "0"}, ["0", "1"], [])


def test_check_hom_rejects_maps_not_keyed_by_sort_as_hom_apply_does():
    # a list or a string holds no map for any sort: check_hom names the
    # first sort, as Hom.apply does, not a label as if it were a sort
    from ualg.algebra import Hom

    z2 = additive_mod_algebra(2)
    for maps in (["0", "1"], "u", ("u",)):
        with pytest.raises(AlgebraError, match="^no map for sort 'u'$"):
            check_hom(maps, z2, z2)
        with pytest.raises(AlgebraError, match="^no map for sort 'u'$"):
            Hom(z2, z2, maps).apply("u", "0")
        with pytest.raises(AlgebraError, match="^no map for sort 'u'$"):
            check_hom(Hom(z2, z2, maps), z2, z2)


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
    assert additive_mod_algebra(3) != subtraction_mod_algebra(3)


def test_finite_algebra_tables_are_the_label_view():
    for alg in (bool_algebra(), subtraction_mod_algebra(4), list_fixture(("a", "b"), max_len=2).algebra):
        tables = alg.tables
        assert FiniteAlgebra(alg.signature, alg.carriers, tables) == alg
        for nm, table in tables.items():
            assert len(table) == len(list(product(*(alg.elements(a) for a in alg.signature.arity_of(nm)))))
            for args, result in table.items():
                assert alg.op(nm, *args) == result


def test_a_changed_table_changes_neither_op_nor_the_next_tables():
    alg = additive_mod_algebra(3)
    tables = alg.tables
    tables["mul"][("1", "1")] = "0"
    del tables["e"]
    assert alg.op("mul", "1", "1") == "2"
    assert alg.tables == additive_mod_algebra(3).tables
    assert alg.tables["mul"][("1", "1")] == "2"


def test_model_checking_and_evaluation_build_no_label_view():
    spec = monoid_eqspec()
    src, dst = subtraction_mod_algebra(4), additive_mod_algebra(2)
    before = [set(vars(alg)) for alg in (src, dst)]
    for eq in spec.equations:
        holds(src, eq, spec.varspec)
        holds(dst, eq, spec.varspec)
        assert evaluate(src, {"x": "1", "y": "2", "z": "3"}, eq.lhs) in src.elements("u")
    assert check_hom(mod_maps(4, 2), src, dst).ok
    assert not check_hom({"u": dict.fromkeys(src.elements("u"), "1")}, src, dst).ok
    assert [set(vars(alg)) for alg in (src, dst)] == before
    src.op("e")
    assert set(vars(src)) > before[0]


def test_an_unknown_operation_of_a_finite_algebra_is_named():
    with pytest.raises(AlgebraError) as err:
        bool_algebra().op("nope")
    assert str(err.value) == "unknown operation 'nope'"


def test_an_unhashable_operation_name_is_an_unknown_operation():
    with pytest.raises(AlgebraError) as err:
        bool_algebra().op(["neg"], "true")
    assert str(err.value) == "unknown operation ['neg']"
    alg = Algebra(MONOID, {"mul": lambda a, b: a, "e": lambda: 0})
    with pytest.raises(AlgebraError) as err:
        alg.op(["e"])
    assert str(err.value) == "unknown operation ['e']"


def test_sample_element_type_hints_resolve():
    # the hints name nothing the module does not import
    for method, result in ((Algebra.sample_element, object), (FiniteAlgebra.sample_element, str)):
        assert typing.get_type_hints(method) == {"sort": str, "rng": object, "return": result}
    assert bool_algebra().sample_element("u", random.Random(0)) in ("false", "true")
