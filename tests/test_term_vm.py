import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ualg.examples import (
    additive_mod_algebra,
    bool_algebra,
    bool_signature,
    list_signature,
    monoid_signature,
)
from ualg.signature import make_varspec, vsignature
from ualg.term_vm import (
    Term,
    TermError,
    build_term,
    depth,
    explain_oplist,
    failure_message,
    infer_sort,
    is_term,
    opexec,
    oplistexec,
    parse_term,
    prefix_remove,
    term_decompose,
    term_fold,
    term_from_syms,
)

from oracle import brute_shortest_term_prefix, oracle_infer_sort, random_term

MONOID = monoid_signature()
BOOL = bool_signature()


def list_vsig():
    sig = list_signature()
    return vsignature(sig, make_varspec(sig, {"a": "elem", "b": "elem"}))


# -- machine steps -------------------------------------------------------

def test_prefix_remove_examples():
    assert prefix_remove(["u", "u"], ["u", "u", "u"]) == ("u",)
    assert prefix_remove([], ["u", "v"]) == ("u", "v")
    assert prefix_remove([], []) == ()
    assert prefix_remove(["u", "u"], ["u"]) is None
    assert prefix_remove(["v"], ["u"]) is None


@given(st.lists(st.sampled_from("uvw")), st.lists(st.sampled_from("uvw")))
def test_prefix_remove_of_own_prefix(prefix, rest):
    assert prefix_remove(prefix, tuple(prefix) + tuple(rest)) == tuple(rest)


def test_opexec_examples():
    assert opexec(MONOID, "e", ()) == ("u",)
    assert opexec(MONOID, "mul", ("u", "u", "u")) == ("u", "u")
    assert opexec(MONOID, "mul", None) is None
    assert opexec(MONOID, "mul", ("u",)) is None


def test_oplistexec_examples():
    assert oplistexec(MONOID, []) == ()
    assert oplistexec(MONOID, ["mul", "e", "e"]) == ("u",)
    assert oplistexec(MONOID, ["mul"]) is None
    assert oplistexec(MONOID, ["e", "e"]) == ("u", "u")


def test_infer_sort_examples():
    assert infer_sort(MONOID, ["mul", "e", "e"]) == "u"
    assert infer_sort(MONOID, ["e", "e"]) is None
    assert infer_sort(MONOID, ["e"]) == "u"
    assert is_term(MONOID, "u", ["e"])
    assert not is_term(MONOID, "u", ["e", "e"])


@given(st.lists(st.sampled_from(MONOID.ops), max_size=8), st.lists(st.sampled_from(MONOID.ops), max_size=8))
def test_stack_compositionality(l1, l2):
    # executing a concatenation equals executing the left part from the
    # stack the right part produced
    assert oplistexec(MONOID, l1 + l2) == oplistexec(MONOID, l1, oplistexec(MONOID, l2))


@given(st.lists(st.sampled_from(BOOL.ops), max_size=10), st.integers(0, 10))
def test_error_absorption(syms, cut):
    cut = min(cut, len(syms))
    if oplistexec(BOOL, syms[cut:]) is None:
        assert oplistexec(BOOL, syms) is None


# -- diagnostics ---------------------------------------------------------

def test_explain_underflow_position():
    rep = explain_oplist(MONOID, ["mul"])
    assert rep.stack is None and rep.failed_at == 0 and rep.reason == "stack underflow"
    # counted from the end: in "mul e" the e executes first, mul second
    rep = explain_oplist(MONOID, ["mul", "e"])
    assert rep.failed_at == 1 and rep.reason == "stack underflow"


def test_explain_sort_mismatch_position():
    sig = list_signature()
    rep = explain_oplist(sig, ["cons", "nil", "nil"])
    assert rep.stack is None and rep.reason == "sort mismatch" and rep.failed_at == 2


def test_failure_messages():
    assert failure_message(MONOID, ["mul"]) == "stack underflow at symbol 0"
    assert failure_message(MONOID, ["e", "e"]) == "residual stack [u, u]"
    assert failure_message(MONOID, []) == "residual stack []"
    assert failure_message(MONOID, ["mul", "e", "e"]) is None


# -- terms ---------------------------------------------------------------

def test_parse_and_text_round_trip():
    t = parse_term(MONOID, "mul e e")
    assert t.sort == "u"
    assert t.syms == ("mul", "e", "e")
    assert t.text() == "mul e e"
    assert parse_term(MONOID, t.text()) == t


def test_parse_rejects_unknown_symbol():
    with pytest.raises(TermError, match="unknown symbol"):
        parse_term(MONOID, "mul e q")


def test_parse_rejects_non_terms():
    with pytest.raises(TermError, match="stack underflow"):
        parse_term(MONOID, "mul")
    with pytest.raises(TermError, match="residual stack"):
        parse_term(MONOID, "e e")


def test_build_term_examples():
    e = parse_term(MONOID, "e")
    t = build_term(MONOID, "mul", [e, e])
    assert t == parse_term(MONOID, "mul e e")
    assert build_term(MONOID, "e", []) == e

    vsig = list_vsig()
    a = parse_term(vsig, "a")
    nil = parse_term(vsig, "nil")
    t = build_term(vsig, "cons", [a, nil])
    assert t.text() == "cons a nil"
    assert t.sort == "list"


def test_build_term_rejects_sort_mismatch():
    vsig = list_vsig()
    nil = parse_term(vsig, "nil")
    with pytest.raises(TermError, match="sort"):
        build_term(vsig, "cons", [nil, nil])
    with pytest.raises(TermError, match="argument"):
        build_term(MONOID, "mul", [parse_term(MONOID, "e")])


def test_build_term_rejects_foreign_signature():
    with pytest.raises(TermError, match="different signature"):
        build_term(MONOID, "mul", [parse_term(MONOID, "e"), parse_term(BOOL, "top")])


def test_decompose_examples():
    e = parse_term(MONOID, "e")
    assert term_decompose(parse_term(MONOID, "mul e e")) == ("mul", (e, e))
    assert term_decompose(e) == ("e", ())
    nm, args = term_decompose(parse_term(MONOID, "mul mul e e e"))
    assert nm == "mul"
    assert [a.text() for a in args] == ["mul e e", "e"]


def test_decompose_boundaries_match_literal_shortest_prefix():
    rng = random.Random(7)
    for sig in (MONOID, BOOL, list_vsig()):
        for sort in sig.sorts:
            for _ in range(60):
                t = random_term(rng, sig, sort, 5)
                nm, args = term_decompose(t)
                i = 1
                for want, arg in zip(sig.arity_of(nm), args):
                    end = brute_shortest_term_prefix(sig, t.syms, i, want)
                    assert end == i + len(arg.syms)
                    assert t.syms[i:end] == arg.syms
                    i = end


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_round_trip_build_decompose(seed):
    rng = random.Random(seed)
    for sig in (MONOID, BOOL):
        t = random_term(rng, sig, "u", 5)
        nm, args = term_decompose(t)
        assert build_term(sig, nm, args) == t
        t2 = build_term(sig, nm, args)
        assert term_decompose(t2) == (nm, args)


def test_term_fold_examples():
    z3 = additive_mod_algebra(3)
    add_step = lambda nm, v, rec: z3.op(nm, *rec)
    assert term_fold(add_step, parse_term(MONOID, "mul e e")) == "0"
    assert depth(parse_term(MONOID, "e")) == 1
    assert depth(parse_term(MONOID, "mul e e")) == 2
    assert depth(parse_term(MONOID, "mul mul e e e")) == 3


@given(st.integers(0, 10**9))
@settings(max_examples=40)
def test_unfolding_law_sampled_to_depth_five(seed):
    # term_fold(step, build(nm, v)) == step(nm, v, map fold v) for every
    # op, argument tuples drawn up to depth 5 per example signature
    rng = random.Random(seed)
    z3 = additive_mod_algebra(3)
    folds = {
        "depth": lambda nm, v, rec: 1 + max(rec, default=0),
        "size": lambda nm, v, rec: 1 + sum(rec),
    }
    for sig in (MONOID, BOOL, list_vsig()):
        for nm in sig.ops:
            args = tuple(random_term(rng, sig, s, 4) for s in sig.arity_of(nm))
            t = build_term(sig, nm, args)
            for step in folds.values():
                assert term_fold(step, t) == step(nm, args, tuple(term_fold(step, a) for a in args))
    for nm in MONOID.ops:
        args = tuple(random_term(rng, MONOID, s, 4) for s in MONOID.arity_of(nm))
        t = build_term(MONOID, nm, args)
        step = lambda nm, v, rec: z3.op(nm, *rec)
        assert term_fold(step, t) == step(nm, args, tuple(term_fold(step, a) for a in args))


def test_term_fold_hands_step_its_argument_terms():
    t = parse_term(MONOID, "mul mul e e e")
    seen = []

    def step(nm, v, rec):
        seen.append((nm, tuple(a.text() for a in v)))
        return len(seen)

    term_fold(step, t)
    # right to left: the last argument finishes first, the head last
    assert seen == [("e", ()), ("e", ()), ("e", ()), ("mul", ("e", "e")), ("mul", ("mul e e", "e"))]


def test_deep_chain_needs_no_recursion():
    # far beyond the interpreter's recursion limit
    t = parse_term(BOOL, "neg " * 5000 + "top")
    assert depth(t) == 5001
    assert term_fold(lambda nm, v, rec: 1 + sum(rec), t) == 5001
    algebra = bool_algebra()
    assert term_fold(lambda nm, v, rec: algebra.op(nm, *rec), t) == "true"
    nm, (arg,) = term_decompose(t)
    assert (nm, len(arg.syms)) == ("neg", 5000)


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_infer_sort_of_build_term(seed):
    rng = random.Random(seed)
    sig = BOOL
    for nm in sig.ops:
        args = tuple(random_term(rng, sig, s, 3) for s in sig.arity_of(nm))
        t = build_term(sig, nm, args)
        assert infer_sort(sig, t.syms) == sig.sort_of(nm)


def test_oracle_agreement_exhaustive_short_monoid():
    from itertools import product

    for n in range(0, 5):
        for syms in product(MONOID.ops, repeat=n):
            assert infer_sort(MONOID, syms) == oracle_infer_sort(MONOID, syms)


@given(st.lists(st.sampled_from(BOOL.ops), max_size=10))
def test_oracle_agreement_random_bool(syms):
    assert infer_sort(BOOL, syms) == oracle_infer_sort(BOOL, tuple(syms))


def test_term_from_syms_matches_parse():
    assert term_from_syms(MONOID, ("mul", "e", "e")) == parse_term(MONOID, "mul e e")
