import pytest
from hypothesis import given
from hypothesis import strategies as st

from ualg.signature import (
    SignatureError,
    make_signature,
    make_signature_simple,
    make_signature_single_sorted,
    is_vsignature,
    make_varspec,
    vsignature,
)
from ualg.examples import bool_signature, list_signature, monoid_signature
from ualg.term_vm import build_term


def test_make_signature_monoid():
    sig = make_signature(["u"], [("mul", ["u", "u"], "u"), ("e", [], "u")])
    assert sig.sorts == ("u",)
    assert sig.ops == ("mul", "e")
    assert sig.arity_of("mul") == ("u", "u")
    assert sig.sort_of("mul") == "u"
    assert sig.arity_of("e") == ()
    assert sig.index_of("e") == 1


def test_make_signature_no_ops():
    sig = make_signature(["u"], [])
    assert sig.ops == ()
    assert sig.is_sort("u")
    assert not sig.is_op("mul")


def test_make_signature_list():
    sig = make_signature(["elem", "list"], [("nil", [], "list"), ("cons", ["elem", "list"], "list")])
    assert sig.arity_of("cons") == ("elem", "list")
    assert sig.sort_of("nil") == "list"
    assert sig == list_signature()


def test_make_signature_rejects_duplicate_op():
    with pytest.raises(SignatureError):
        make_signature(["u"], [("f", [], "u"), ("f", ["u"], "u")])


def test_make_signature_rejects_unknown_sort():
    with pytest.raises(SignatureError):
        make_signature(["u"], [("f", ["v"], "u")])
    with pytest.raises(SignatureError):
        make_signature(["u"], [("f", [], "v")])


def test_make_signature_rejects_duplicate_sort():
    with pytest.raises(SignatureError):
        make_signature(["u", "u"], [])


def test_simple_signature_list_shape():
    sig = make_signature_simple(2, [([], 1), ([0, 1], 1)])
    assert sig.sorts == ("0", "1")
    assert sig.ops == ("op0", "op1")
    assert sig.arity_of("op1") == ("0", "1")
    assert sig.sort_of("op0") == "1"


def test_simple_signature_no_ops():
    sig = make_signature_simple(1, [])
    assert sig.sorts == ("0",)
    assert sig.ops == ()


def test_simple_signature_mixed_sorts():
    sig = make_signature_simple(3, [([2, 0], 1)])
    assert sig.arity_of("op0") == ("2", "0")
    assert sig.sort_of("op0") == "1"


def test_simple_signature_rejects_out_of_range():
    with pytest.raises(SignatureError):
        make_signature_simple(2, [([0, 2], 1)])
    with pytest.raises(SignatureError):
        make_signature_simple(2, [([], 2)])


def test_single_sorted_monoid():
    sig = make_signature_single_sorted([2, 0])
    assert sig.sorts == ("u",)
    assert sig.ops == ("op0", "op1")
    assert sig.arity_of("op0") == ("u", "u")
    assert sig.arity_of("op1") == ()


def test_single_sorted_bool():
    sig = make_signature_single_sorted([0, 0, 1, 2, 2, 2])
    assert len(sig.ops) == 6
    assert [len(sig.arity_of(nm)) for nm in sig.ops] == [0, 0, 1, 2, 2, 2]
    assert bool_signature().ops == ("bot", "top", "neg", "conj", "disj", "impl")


def test_single_sorted_empty():
    sig = make_signature_single_sorted([])
    assert sig.sorts == ("u",)
    assert sig.ops == ()


@given(st.lists(st.integers(min_value=0, max_value=4), max_size=6))
def test_single_sorted_reproduces_declarations(arities):
    sig = make_signature_single_sorted(arities)
    for k, n in enumerate(arities):
        nm = sig.ops[k]
        assert sig.arity_of(nm) == ("u",) * n
        assert sig.sort_of(nm) == "u"


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda ns: st.tuples(
            st.just(ns),
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, ns - 1), max_size=3),
                    st.integers(0, ns - 1),
                ),
                max_size=5,
            ),
        )
    )
)
def test_simple_signature_reproduces_declarations(case):
    ns, decls = case
    sig = make_signature_simple(ns, decls)
    assert len(sig.ops) == len(decls)
    for k, (arity_idx, result_idx) in enumerate(decls):
        nm = sig.ops[k]
        assert sig.arity_of(nm) == tuple(str(i) for i in arity_idx)
        assert sig.sort_of(nm) == str(result_idx)


def test_construction_is_deterministic():
    a = make_signature_single_sorted([2, 0], names=["mul", "e"])
    b = make_signature_single_sorted([2, 0], names=["mul", "e"])
    assert a == b
    assert hash(a) == hash(b)


def test_varspec_basics():
    sig = monoid_signature()
    vs = make_varspec(sig, {"x": "u", "y": "u"})
    assert vs.vars == ("x", "y")
    assert vs.sort_of("x") == "u"
    assert vs.is_var("y") and not vs.is_var("mul")
    assert len(vs) == 2


def test_varspec_len_counts_variables():
    vs = make_varspec(monoid_signature(), {"x": "u", "y": "u", "z": "u"})
    assert len(vs) == 3
    assert tuple(vs) == (("x", "y", "z"), ("u", "u", "u"))


def test_varspec_rejects_bad_input():
    sig = monoid_signature()
    with pytest.raises(SignatureError):
        make_varspec(sig, [("x", "u"), ("x", "u")])
    with pytest.raises(SignatureError):
        make_varspec(sig, [("x", "v")])


def test_vsignature_monoid_three_vars():
    sig = monoid_signature()
    vs = make_varspec(sig, {"x": "u", "y": "u", "z": "u"})
    ext = vsignature(sig, vs)
    assert len(ext.ops) == 5
    for v in ("x", "y", "z"):
        assert ext.arity_of(v) == ()
        assert ext.sort_of(v) == "u"
    # base operations keep their declarations
    assert ext.arity_of("mul") == ("u", "u")
    assert ext.ops[:2] == sig.ops


def test_vsignature_empty_varspec_is_the_base():
    sig = bool_signature()
    ext = vsignature(sig, make_varspec(sig, {}))
    assert ext == sig


def test_vsignature_counts_bool():
    sig = bool_signature()
    vs = make_varspec(sig, [(f"v{i}", "u") for i in range(3)])
    assert len(vsignature(sig, vs).ops) == 6 + 3


def test_vsignature_rejects_collision():
    sig = monoid_signature()
    with pytest.raises(SignatureError):
        vsignature(sig, make_varspec(sig, {"mul": "u"}))


def test_is_vsignature_agrees_with_building_it():
    lists = list_signature()
    base = [monoid_signature(), bool_signature(), lists]
    specs = [
        (sig, make_varspec(sig, decls))
        for sig in base
        for decls in ([], [("x", sig.sorts[0])], [("x", sig.sorts[0]), ("y", sig.sorts[-1])],
                      [("y", sig.sorts[-1]), ("x", sig.sorts[0])])
    ]
    built = [vsignature(sig, vs) for sig, vs in specs]
    for sig, vs in specs:
        for vsig in built + base:
            assert is_vsignature(vsig, sig, vs) == (vsig == vsignature(sig, vs))
    # the variable sorts alone tell two extensions of the list signature apart
    assert not is_vsignature(vsignature(lists, make_varspec(lists, {"x": "elem"})), lists, make_varspec(lists, {"x": "list"}))
    sig = monoid_signature()
    with pytest.raises(SignatureError, match="collide"):
        is_vsignature(sig, sig, make_varspec(sig, {"mul": "u"}))


def test_vsignature_enables_variable_only_terms():
    # with no operations the base signature has no terms at all; after
    # extension the variables are the (only) terms
    from ualg.term_vm import TermError, parse_term

    sig = make_signature(["u"], [])
    ext = vsignature(sig, make_varspec(sig, {"x": "u"}))
    assert parse_term(ext, "x").sort == "u"
    with pytest.raises(TermError, match="unknown symbol"):
        parse_term(sig, "x")


def test_vsignature_halves_stay_disjoint():
    sig = monoid_signature()
    vs = make_varspec(sig, {"x": "u"})
    ext = vsignature(sig, vs)
    # the injections have disjoint images and are recoverable
    for nm in sig.ops:
        assert ext.is_op(nm) and not vs.is_var(nm)
    for v in vs.vars:
        assert ext.is_op(v) and vs.is_var(v) and not sig.is_op(v)


def test_an_unhashable_name_is_no_sort_and_no_operation():
    sig = monoid_signature()
    assert not sig.is_sort(["u"]) and not sig.is_op(["e"])
    with pytest.raises(SignatureError) as err:
        sig.index_of(["e"])
    assert str(err.value) == "unknown operation ['e']"
    assert (sig.index_of("mul"), sig.index_of("e")) == (0, 1)
    with pytest.raises(SignatureError, match="unknown operation 'q'"):
        sig.index_of("q")


def test_an_unhashable_name_has_no_arity_no_sort_no_term_and_is_no_variable():
    sig = monoid_signature()
    for lookup in (sig.arity_of, sig.sort_of, lambda nm: build_term(sig, nm, [])):
        with pytest.raises(SignatureError) as err:
            lookup(["e"])
        assert err.type is SignatureError and str(err.value) == "unknown operation ['e']"
    assert (sig.arity_of("e"), sig.sort_of("e"), build_term(sig, "e", []).syms) == ((), "u", ("e",))
    vs = make_varspec(sig, {"x": "u"})
    assert not vs.is_var(["x"]) and vs.is_var("x")
    with pytest.raises(SignatureError) as err:
        vs.sort_of(["x"])
    assert err.type is SignatureError and str(err.value) == "unknown variable ['x']"
