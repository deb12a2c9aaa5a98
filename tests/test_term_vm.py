import copy
import pickle
import random
from collections import UserList

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
from ualg.free_algebra import evaluate
from ualg.signature import make_signature, make_varspec, vsignature
from ualg.term_vm import (
    ExecReport,
    Term,
    TermError,
    UnknownSymbolError,
    build_term,
    depth,
    infer_sort,
    oplistexec,
    parse_term,
    term_decompose,
    term_fold,
    term_from_syms,
)

from oracle import (
    brute_shortest_term_prefix,
    oracle_exec,
    oracle_infer_sort,
    parse_tree,
    random_term,
    tree_depth,
)

MONOID = monoid_signature()
BOOL = bool_signature()
# two sorts and a ternary operation, for the k-ary paths
TERNARY = make_signature(["u", "v"], [("c", [], "u"), ("k", [], "v"), ("h", ["u", "v", "u"], "u")])
# three sorts and arities 0 to 3 whose argument sorts all differ, so that
# a step comparing its arity in the wrong order fails on valid terms
MIXED = make_signature(
    ["u", "v", "w"],
    [
        ("c", [], "u"),
        ("k", [], "v"),
        ("e", [], "w"),
        ("n", ["u"], "u"),
        ("g", ["w"], "v"),
        ("p", ["u", "v"], "w"),
        ("h", ["u", "v", "w"], "u"),
    ],
)


def list_vsig():
    sig = list_signature()
    return vsignature(sig, make_varspec(sig, {"a": "elem", "b": "elem"}))


# -- machine steps -------------------------------------------------------

def one_symbol_run(arity, stack):
    # a run of one symbol f : arity -> w from the given stack (top first)
    sig = make_signature(("u", "v", "w"), [("f", arity, "w")])
    return oplistexec(sig, ["f"], tuple(stack))


def test_prefix_remove_examples():
    # the symbol pops its arity off the top of the stack, or fails
    assert one_symbol_run(["u", "u"], ["u", "u", "u"]) == ExecReport(("w", "u"))
    assert one_symbol_run([], ["u", "v"]) == ExecReport(("w", "u", "v"))
    assert one_symbol_run([], []) == ExecReport(("w",))
    assert one_symbol_run(["u", "u"], ["u"]) == ExecReport(None, 0, "stack underflow")
    assert one_symbol_run(["v"], ["u"]) == ExecReport(None, 0, "sort mismatch")


def test_opexec_examples():
    # one symbol pops its arity and pushes its result sort, or fails
    assert oplistexec(MONOID, ["e"]) == ExecReport(("u",))
    assert oplistexec(MONOID, ["mul"], ("u", "u", "u")) == ExecReport(("u", "u"))
    assert oplistexec(MONOID, ["mul"], ("u",)) == ExecReport(None, 0, "stack underflow")
    assert oplistexec(MONOID, ["mul"], ()) == ExecReport(None, 0, "stack underflow")
    vsig = list_vsig()
    assert oplistexec(vsig, ["cons"], ("elem", "list", "elem")) == ExecReport(("list", "elem"))
    assert oplistexec(vsig, ["cons"], ("list", "list")).reason == "sort mismatch"
    assert oplistexec(vsig, ["nil"], ("elem", "list")) == ExecReport(("list", "elem", "list"))


@given(st.lists(st.sampled_from("uvw")), st.lists(st.sampled_from("uvw")))
def test_single_symbol_run_pops_its_arity(arity, rest):
    sig = make_signature(("u", "v", "w"), [("f", arity, "u")])
    assert oplistexec(sig, ["f"], tuple(arity) + tuple(rest)) == ExecReport(("u",) + tuple(rest))


def test_oplistexec_examples():
    assert oplistexec(MONOID, []) == ExecReport(())
    assert oplistexec(MONOID, ["mul", "e", "e"]) == ExecReport(("u",))
    assert oplistexec(MONOID, ["mul"]).stack is None
    assert oplistexec(MONOID, ["e", "e"]) == ExecReport(("u", "u"))
    assert oplistexec(MONOID, ["e", "q", "e"]) == ExecReport(None, 1, "unknown symbol")


def test_infer_sort_examples():
    assert infer_sort(MONOID, ["mul", "e", "e"]) == "u"
    assert infer_sort(MONOID, ["e", "e"]) is None
    assert infer_sort(MONOID, ["e"]) == "u"
    assert infer_sort(MONOID, ["mul"]) is None
    assert infer_sort(MONOID, ["q"]) is None


@given(st.lists(st.sampled_from(MONOID.ops + ("q",)), max_size=8),
       st.lists(st.sampled_from(MONOID.ops + ("q",)), max_size=8))
def test_stack_compositionality(l1, l2):
    # executing a concatenation equals executing the left part from the
    # stack the right part produced; a failure in the left part is counted
    # after the right part's symbols
    whole = oplistexec(MONOID, l1 + l2)
    right = oplistexec(MONOID, l2)
    if right.stack is None:
        assert whole == right
    else:
        left = oplistexec(MONOID, l1, right.stack)
        if left.stack is None:
            assert whole == ExecReport(None, len(l2) + left.failed_at, left.reason)
        else:
            assert whole == left


@given(st.lists(st.sampled_from(BOOL.ops), max_size=10), st.integers(0, 10))
def test_error_absorption(syms, cut):
    # a failed run of a suffix fails the whole sequence at the same symbol
    cut = min(cut, len(syms))
    rep = oplistexec(BOOL, syms[cut:])
    if rep.stack is None:
        assert oplistexec(BOOL, syms) == rep


# -- the machine against a one-sort-at-a-time reference ------------------

@st.composite
def mixed_sequences(draw, sig=MIXED, unknown=("q", "zz")):
    # loose symbols, unknown ones among them, and whole random terms
    symbol = st.sampled_from(sig.ops + unknown).map(lambda nm: (nm,))
    term = st.builds(
        lambda seed, sort: random_term(random.Random(seed), sig, sort, 3).syms,
        st.integers(0, 2**32),
        st.sampled_from(sig.sorts),
    )
    pieces = draw(st.lists(st.one_of(symbol, term), max_size=5))
    return [nm for piece in pieces for nm in piece]


@st.composite
def machine_runs(draw):
    # MIXED runs on the list of sorts; a one-sorted signature runs on the
    # stack height alone unless the start stack holds a foreign sort "z"
    sig = draw(st.sampled_from((MIXED, BOOL, MONOID)))
    syms = draw(mixed_sequences(sig, ("q", "zz", ["c"])))
    stack = draw(st.lists(st.sampled_from(sig.sorts + ("z",)), max_size=4))
    return sig, syms, stack


@given(machine_runs())
@settings(max_examples=600)
def test_machine_matches_one_sort_at_a_time_reference(run):
    sig, syms, stack = run
    want = oracle_exec(sig, syms, stack)
    assert tuple(oplistexec(sig, syms, tuple(stack))) == want
    assert tuple(oplistexec(sig, tuple(syms), stack)) == want


@given(mixed_sequences())
@settings(max_examples=300)
def test_term_from_syms_raises_the_reference_messages(syms):
    # the leftmost unknown symbol first, then the run's diagnostic
    unknown = [nm for nm in syms if not MIXED.is_op(nm)]
    stack, at, reason = oracle_exec(MIXED, syms)
    if unknown:
        with pytest.raises(UnknownSymbolError) as err:
            term_from_syms(MIXED, syms)
        assert str(err.value) == f"unknown symbol {unknown[0]!r}"
    elif stack is None:
        with pytest.raises(TermError) as err:
            term_from_syms(MIXED, syms)
        assert str(err.value) == f"{reason} at symbol {at}"
    elif len(stack) != 1:
        with pytest.raises(TermError) as err:
            term_from_syms(MIXED, syms)
        assert str(err.value) == "residual stack [" + ", ".join(stack) + "]"
    else:
        t = term_from_syms(MIXED, syms)
        assert (t.syms, t.sort) == (tuple(syms), stack[0])


@given(mixed_sequences(), st.sampled_from(MIXED.sorts + ("z",)))
@settings(max_examples=300)
def test_term_constructor_accepts_exactly_the_terms_of_its_sort(syms, sort):
    # Term(...) agrees with term_from_syms: the same term, the same
    # rejection, or a rejection naming both sorts
    try:
        want = term_from_syms(MIXED, syms)
    except TermError as err:
        with pytest.raises(TermError) as info:
            Term(MIXED, syms, sort)
        assert (info.type, str(info.value)) == (type(err), str(err))
        return
    if want.sort == sort:
        t = Term(MIXED, syms, sort)
        assert t == want and t.syms == tuple(syms) and type(t.syms) is tuple
    else:
        with pytest.raises(TermError) as info:
            Term(MIXED, syms, sort)
        assert info.type is TermError
        assert str(info.value) == f"the symbols make a term of sort {want.sort!r}, not {sort!r}"


def test_an_unhashable_symbol_is_an_unknown_symbol():
    assert oplistexec(MONOID, ["mul", ["e"], "e"]) == ExecReport(None, 1, "unknown symbol")
    for make in (lambda syms: term_from_syms(MONOID, syms), lambda syms: Term(MONOID, syms, "u")):
        with pytest.raises(UnknownSymbolError) as info:
            make(["mul", ["e"], "e"])
        assert str(info.value) == "unknown symbol ['e']"


def test_forged_terms_stop_at_construction():
    # sequences that are not terms used to reach the value machines and
    # break them with an IndexError or give a value
    z3 = additive_mod_algebra(3)
    for syms in [("mul", "e"), ("e", "e")]:
        for consume in (depth, lambda t: term_fold(lambda nm, v, rec: 0, t), lambda t: evaluate(z3, {}, t)):
            with pytest.raises(TermError):
                consume(Term(MONOID, syms, "u"))


def test_term_from_syms_runs_the_machine_once(monkeypatch):
    import ualg.term_vm as term_vm

    # the machine has two entries: _height runs a one-sorted signature,
    # _run any other, and a call may enter it once in all
    calls = []
    for name in ("_run", "_height"):
        entry = getattr(term_vm, name)
        monkeypatch.setattr(term_vm, name, lambda *a, _entry=entry: calls.append(a) or _entry(*a))
    cases = [(MONOID, text) for text in ["mul e e", "mul", "e e", "", "mul q e", "foo mul"]]
    cases += [(MIXED, text) for text in ["p c g e", "p c", "c c", "", "p c q", "foo c"]]
    for sig, text in cases:
        calls.clear()
        try:
            term_from_syms(sig, text.split())
        except TermError:
            pass
        assert len(calls) == 1, text


def test_a_list_a_tuple_and_a_user_list_fail_alike():
    # each failure at the first (0) and at the last executed position, on
    # the one-sorted run that keeps only a height and on the sort run
    cases = [
        (BOOL, "top foo", ExecReport(None, 0, "unknown symbol"), "unknown symbol 'foo'"),
        (BOOL, "foo neg top", ExecReport(None, 2, "unknown symbol"), "unknown symbol 'foo'"),
        (BOOL, "top conj", ExecReport(None, 0, "stack underflow"), "stack underflow at symbol 0"),
        (BOOL, "conj neg top", ExecReport(None, 2, "stack underflow"), "stack underflow at symbol 2"),
        (MIXED, "c foo", ExecReport(None, 0, "unknown symbol"), "unknown symbol 'foo'"),
        (MIXED, "foo n c", ExecReport(None, 2, "unknown symbol"), "unknown symbol 'foo'"),
        (MIXED, "c n", ExecReport(None, 0, "stack underflow"), "stack underflow at symbol 0"),
        (MIXED, "p n c", ExecReport(None, 2, "stack underflow"), "stack underflow at symbol 2"),
    ]
    for sig, text, report, message in cases:
        syms = text.split()
        for seq in (syms, tuple(syms), UserList(syms)):
            assert oplistexec(sig, seq) == report, (text, type(seq))
            with pytest.raises(TermError) as info:
                term_from_syms(sig, seq)
            assert str(info.value) == message, (text, type(seq))


def test_a_long_term_survives_pickle_and_copy():
    t = parse_term(BOOL, "neg " * 4999 + "top")
    assert len(t.syms) == 5000
    for clone in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert clone == t and clone.syms == t.syms and depth(clone) == 5000


@given(st.integers(0, 10**9), st.sampled_from(MIXED.sorts))
@settings(max_examples=200)
def test_depth_matches_parse_tree_height(seed, sort):
    t = random_term(random.Random(seed), MIXED, sort, 5)
    tree, end = parse_tree(MIXED, t.syms)
    assert end == len(t.syms)
    assert depth(t) == tree_depth(tree)
    assert term_from_syms(MIXED, t.syms) == t


# -- diagnostics ---------------------------------------------------------

def test_explain_underflow_position():
    rep = oplistexec(MONOID, ["mul"])
    assert rep.stack is None and rep.failed_at == 0 and rep.reason == "stack underflow"
    # counted from the end: in "mul e" the e executes first, mul second
    rep = oplistexec(MONOID, ["mul", "e"])
    assert rep.failed_at == 1 and rep.reason == "stack underflow"


def test_explain_sort_mismatch_position():
    sig = list_signature()
    rep = oplistexec(sig, ["cons", "nil", "nil"])
    assert rep.stack is None and rep.reason == "sort mismatch" and rep.failed_at == 2


def test_failure_messages():
    assert oplistexec(MONOID, ["mul"]).error() == "stack underflow at symbol 0"
    assert oplistexec(MONOID, ["e", "e"]).error() == "residual stack [u, u]"
    assert oplistexec(MONOID, []).error() == "residual stack []"
    assert oplistexec(MONOID, ["mul", "e", "e"]).error() is None
    # the residual stack is listed top first
    assert oplistexec(list_vsig(), ["nil", "a"]).error() == "residual stack [list, elem]"
    with pytest.raises(TermError) as err:
        term_from_syms(list_vsig(), ["a", "nil"])
    assert str(err.value) == "residual stack [elem, list]"


# -- terms ---------------------------------------------------------------

def test_parse_and_text_round_trip():
    t = parse_term(MONOID, "mul e e")
    assert t.sort == "u"
    assert t.syms == ("mul", "e", "e")
    assert t.text() == "mul e e"
    assert parse_term(MONOID, t.text()) == t


def test_term_value_semantics():
    one, other = monoid_signature(), monoid_signature()
    assert one is not other and one == other
    t = parse_term(one, "mul e e")
    u = build_term(other, "mul", [parse_term(other, "e")] * 2)
    assert t == u and hash(t) == hash(u)
    assert t == Term(other, ("mul", "e", "e"), "u")
    # a sequence has one sort per signature, so the term of another sort
    # is over the monoid signature on sort v
    on_v = make_signature(["v"], [("mul", ["v", "v"], "v"), ("e", [], "v")])
    assert t != Term(on_v, ("mul", "e", "e"), "v")
    assert t != parse_term(one, "e")
    assert t != ("mul", "e", "e")
    # the same symbols and sort over a signature with one more operation
    wider = make_signature(["u"], [("mul", ["u", "u"], "u"), ("e", [], "u"), ("i", ["u"], "u")])
    assert t != Term(wider, ("mul", "e", "e"), "u")
    assert len({t, u, parse_term(one, "e")}) == 2
    assert copy.copy(t) == t and copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def test_term_is_immutable():
    t = parse_term(MONOID, "mul e e")
    for name, value in [("syms", ("e",)), ("sort", "v"), ("signature", BOOL), ("extra", 1)]:
        with pytest.raises(AttributeError):
            setattr(t, name, value)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert (t.syms, t.sort, t.signature) == (("mul", "e", "e"), "u", MONOID)


def test_term_text_forms():
    t = term_from_syms(list_vsig(), ["cons", "a", "nil"])
    assert str(t) == t.text() == "cons a nil"
    assert repr(t) == "Term('cons a nil' : list)"
    assert repr(Term(MONOID, ("e",), "u")) == "Term('e' : u)"


def test_parse_rejects_unknown_symbol():
    with pytest.raises(TermError, match="unknown symbol"):
        parse_term(MONOID, "mul e q")
    # the leftmost unknown symbol is named, though the run fails earlier
    # on "mul" and would reach "foo" last
    with pytest.raises(UnknownSymbolError, match="unknown symbol 'foo'"):
        parse_term(MONOID, "foo mul")
    with pytest.raises(UnknownSymbolError, match="unknown symbol 'p'"):
        parse_term(MONOID, "mul p e q")


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


def test_build_term_messages_name_the_first_bad_argument():
    """The first failing argument is named by its index; per argument a
    foreign signature is reported before a wrong sort."""
    u, v, w = (parse_term(MIXED, s) for s in ("c", "k", "e"))
    top = parse_term(BOOL, "top")
    cases = [
        ([u, v, v], "argument 2 of 'h' has sort 'v', expected 'w'"),
        ([v, u, w], "argument 0 of 'h' has sort 'v', expected 'u'"),
        ([u, u, top], "argument 1 of 'h' has sort 'u', expected 'v'"),
        ([u, top, top], "argument 1 of 'h' belongs to a different signature"),
        ([top, u, w], "argument 0 of 'h' belongs to a different signature"),
    ]
    for args, message in cases:
        with pytest.raises(TermError) as info:
            build_term(MIXED, "h", args)
        assert str(info.value) == message
    with pytest.raises(TermError) as info:
        build_term(MIXED, "h", [u, v])
    assert str(info.value) == "'h' expects 3 argument(s), got 2"
    # the binary operation p(u, v) -> w
    binary = [
        ([top, v], "argument 0 of 'p' belongs to a different signature"),
        ([u, u], "argument 1 of 'p' has sort 'u', expected 'v'"),
        ([v, top], "argument 0 of 'p' has sort 'v', expected 'u'"),
        ([u, v, w], "'p' expects 2 argument(s), got 3"),
    ]
    for args, message in binary:
        with pytest.raises(TermError) as info:
            build_term(MIXED, "p", args)
        assert str(info.value) == message
    # an equal signature built apart is not foreign
    twin = make_signature(MIXED.sorts, zip(MIXED.ops, MIXED.arities, MIXED.results))
    assert build_term(twin, "p", [u, v]) == parse_term(twin, "p c k")


def test_decompose_examples():
    e = parse_term(MONOID, "e")
    assert term_decompose(parse_term(MONOID, "mul e e")) == ("mul", (e, e))
    assert term_decompose(e) == ("e", ())
    nm, args = term_decompose(parse_term(MONOID, "mul mul e e e"))
    assert nm == "mul"
    assert [a.text() for a in args] == ["mul e e", "e"]


def test_decompose_rejects_sequences_that_are_not_terms():
    # Term(...) runs the machine, so no such sequence reaches decompose
    vsig = list_vsig()
    cases = [
        (MONOID, ("mul", "e"), "u", "stack underflow at symbol 1"),
        (MONOID, ("mul", "mul", "e"), "u", "stack underflow at symbol 1"),
        (vsig, ("cons", "nil", "nil"), "list", "sort mismatch at symbol 2"),
        (MONOID, ("mul", "e", "e", "e", "e"), "u", "residual stack [u, u, u]"),
        (MONOID, ("e", "e"), "u", "residual stack [u, u]"),
    ]
    for sig, syms, sort, message in cases:
        with pytest.raises(TermError) as info:
            Term(sig, syms, sort)
        assert str(info.value) == message


def test_decompose_boundaries_match_literal_shortest_prefix():
    rng = random.Random(7)
    for sig in (MONOID, BOOL, list_vsig(), TERNARY):
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
    for sig in (MONOID, BOOL, list_vsig(), TERNARY):
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

    seen.clear()
    term_fold(step, parse_term(TERNARY, "h h c k c k c"))
    assert seen == [("c", ()), ("k", ()), ("c", ()), ("k", ()), ("c", ()), ("h", ("c", "k", "c")),
                    ("h", ("h c k c", "k", "c"))]


def test_term_fold_rebuilds_each_subterm_from_its_argument_terms():
    # each step gets its argument terms, sorts included, and their values
    for sig, text in [(list_vsig(), "cons a cons b nil"), (TERNARY, "h h c k c k h c k c")]:
        t = parse_term(sig, text)

        def rebuild(nm, args, values):
            assert values == args
            return build_term(sig, nm, args)

        assert term_fold(rebuild, t) == t


def test_deep_chain_needs_no_recursion():
    # far beyond the interpreter's recursion limit
    t = parse_term(BOOL, "neg " * 5000 + "top")
    assert depth(t) == 5001
    assert term_fold(lambda nm, v, rec: 1 + sum(rec), t) == 5001
    algebra = bool_algebra()
    assert term_fold(lambda nm, v, rec: algebra.op(nm, *rec), t) == "true"
    nm, (arg,) = term_decompose(t)
    assert (nm, len(arg.syms)) == ("neg", 5000)


def test_left_nested_deep_term():
    # the sort stack grows to 20001 entries: linear in the length
    z3 = additive_mod_algebra(3)
    t = term_from_syms(MONOID, ["mul"] * 20000 + ["e"] * 20001)
    assert t.sort == "u"
    assert depth(t) == 20001
    nm, (left, right) = term_decompose(t)
    assert (nm, len(left.syms), right.text()) == ("mul", 39999, "e")
    assert evaluate(z3, {}, t) == "0"


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
