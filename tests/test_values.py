"""Value semantics of the immutable classes, each the tuple of its fields:
equality and hash over their fields within one class and never with a
plain tuple, the repr text, immutability, defaults, construction checks,
and copy and pickle without cached state."""

import copy
import operator
import pickle

import pytest

from ualg.algebra import Algebra, Hom, HomVerdict
from ualg.equations import EqReport, EqSpec, EquationError, EqVerdict, Equation
from ualg.examples import ListFixture, list_fixture
from ualg.free_algebra import UniversalityVerdict
from ualg.signature import Signature, VarSpec, make_signature, make_varspec, vsignature
from ualg.term_vm import ExecReport, Term, parse_term

SIG = make_signature(["u"], [("mul", ["u", "u"], "u"), ("e", [], "u")])
VARS = make_varspec(SIG, [("x", "u"), ("y", "u")])
VSIG = vsignature(SIG, VARS)
LID = Equation("lid", "u", parse_term(VSIG, "mul e x"), parse_term(VSIG, "x"))
SPEC = EqSpec(SIG, VARS, (LID,))
ALG = Algebra(SIG, {"mul": lambda a, b: a + b, "e": lambda: 0})


def fields_of(value):
    """Each class's fields, in declaration order, by name."""
    names = {
        Signature: ("sorts", "ops", "arities", "results"),
        VarSpec: ("vars", "sorts"),
        Equation: ("name", "sort", "lhs", "rhs"),
        EqSpec: ("signature", "varspec", "equations"),
        EqVerdict: ("holds", "counterexample"),
        EqReport: ("verdicts",),
        HomVerdict: ("ok", "counterexample"),
        UniversalityVerdict: ("ok", "at", "detail"),
        Hom: ("source", "target", "maps"),
        ListFixture: ("signature", "algebra", "varspec", "assignment", "max_len"),
        Term: ("signature", "syms", "sort"),
        ExecReport: ("stack", "failed_at", "reason"),
    }[type(value)]
    return tuple(getattr(value, f) for f in names)


def rebuilt(value):
    """An equal value built apart from ``value``, from copies of its fields."""
    return type(value)(*copy.copy(fields_of(value)))


HASHABLE = [
    SIG,
    VARS,
    LID,
    SPEC,
    EqVerdict(True),
    EqReport((("lid", EqVerdict(True)),)),
    HomVerdict(False, ("mul", ("0", "1"))),
    UniversalityVerdict(False, parse_term(VSIG, "x"), "bad"),
    Hom(ALG, ALG, ("u",)),
    parse_term(VSIG, "mul e x"),
    ExecReport(None, 1, "unknown symbol"),
]
UNHASHABLE = [
    EqVerdict(False, {"x": "1"}),
    Hom(ALG, ALG, {"u": {"0": "0"}}),
    list_fixture(("a",), 1),
]


@pytest.mark.parametrize("value", HASHABLE + UNHASHABLE, ids=lambda v: type(v).__name__)
def test_equal_fields_make_equal_values(value):
    twin = rebuilt(value)
    assert twin is not value
    assert twin == value and not twin != value
    assert value != fields_of(value) and fields_of(value) != value


@pytest.mark.parametrize("value", HASHABLE + UNHASHABLE, ids=lambda v: type(v).__name__)
def test_no_value_equals_the_tuple_of_its_fields(value):
    fields = fields_of(value)
    assert tuple(value) == fields and value[0] is fields[0]
    assert not value == fields and not fields == value
    assert value != fields and fields != value


@pytest.mark.parametrize("value", HASHABLE, ids=lambda v: type(v).__name__)
def test_hash_is_the_hash_of_the_fields(value):
    assert hash(value) == hash(rebuilt(value)) == hash(fields_of(value))
    assert {value: 1}[rebuilt(value)] == 1


@pytest.mark.parametrize("value", UNHASHABLE, ids=lambda v: type(v).__name__)
def test_a_value_with_an_unhashable_field_is_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_a_different_field_or_class_makes_a_different_value():
    assert EqVerdict(True) != EqVerdict(False)
    assert HomVerdict(True) != EqVerdict(True)
    assert HomVerdict(True) != UniversalityVerdict(True)
    assert VarSpec(("x",), ("u",)) != VarSpec(("x",), ("v",))
    assert SIG != VSIG
    assert Hom(ALG, ALG, ("u",)) != Hom(ALG, ALG, ("v",))


def test_values_are_not_ordered():
    t = parse_term(VSIG, "mul e x")
    with pytest.raises(TypeError):
        sorted([t, t])
    with pytest.raises(TypeError):
        EqVerdict(True) < HomVerdict(False)
    with pytest.raises(TypeError):
        t < (1,)
    for value in HASHABLE + UNHASHABLE:  # every operator, the value on either side
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            for a, b in ((value, value), (value, ()), ((), value)):
                with pytest.raises(TypeError):
                    compare(a, b)


def test_repr_text():
    assert repr(SIG) == "Signature(sorts=['u'], ops=['mul', 'e'])"
    assert repr(VARS) == "VarSpec(vars=('x', 'y'), sorts=('u', 'u'))"
    assert repr(LID) == "Equation(name='lid', sort='u', lhs=Term('mul e x' : u), rhs=Term('x' : u))"
    assert repr(SPEC) == (
        "EqSpec(signature=Signature(sorts=['u'], ops=['mul', 'e']), "
        "varspec=VarSpec(vars=('x', 'y'), sorts=('u', 'u')), "
        "equations=(Equation(name='lid', sort='u', lhs=Term('mul e x' : u), rhs=Term('x' : u)),))"
    )
    assert repr(EqVerdict(True)) == "EqVerdict(holds=True, counterexample=None)"
    assert repr(EqVerdict(False, {"x": "1"})) == "EqVerdict(holds=False, counterexample={'x': '1'})"
    assert repr(EqReport((("lid", EqVerdict(True)),))) == (
        "EqReport(verdicts=(('lid', EqVerdict(holds=True, counterexample=None)),))"
    )
    assert repr(HomVerdict(True)) == "HomVerdict(ok=True, counterexample=None)"
    assert repr(HomVerdict(False, ("mul", ("0", "1")))) == "HomVerdict(ok=False, counterexample=('mul', ('0', '1')))"
    assert repr(UniversalityVerdict(True)) == "UniversalityVerdict(ok=True, at=None, detail=None)"
    assert repr(UniversalityVerdict(False, parse_term(VSIG, "x"), "bad")) == (
        "UniversalityVerdict(ok=False, at=Term('x' : u), detail='bad')"
    )
    assert repr(Hom(1, 2, {"u": {"0": "0"}})) == "Hom(source=1, target=2, maps={'u': {'0': '0'}})"
    assert repr(list_fixture(("a",), 1)) == (
        "ListFixture(signature=Signature(sorts=['elem', 'list'], ops=['nil', 'cons']), "
        "algebra=FiniteAlgebra({'elem': 1, 'list': 3}, ops=['nil', 'cons']), "
        "varspec=VarSpec(vars=('a',), sorts=('elem',)), assignment={'a': 'a'}, max_len=1)"
    )


@pytest.mark.parametrize("value", HASHABLE + UNHASHABLE, ids=lambda v: type(v).__name__)
def test_fields_refuse_assignment(value):
    for name in ("sorts", "vars", "name", "holds", "ok", "verdicts", "source", "max_len", "signature"):
        if hasattr(value, name):
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            assert getattr(value, name) is before
            with pytest.raises(AttributeError):
                delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert not hasattr(value, "extra")


def test_verdict_defaults():
    assert HomVerdict(True).counterexample is None
    assert EqVerdict(True).counterexample is None
    v = UniversalityVerdict(True)
    assert v.at is None and v.detail is None
    assert HomVerdict(ok=True) == HomVerdict(True, None)


def test_equation_and_eqspec_check_their_parts():
    x, e = parse_term(VSIG, "x"), parse_term(SIG, "e")
    with pytest.raises(EquationError) as info:
        Equation("bad", "u", x, e)
    assert str(info.value) == "equation 'bad': sides over different signatures"
    with pytest.raises(EquationError) as info:
        Equation("bad", "v", x, parse_term(VSIG, "e"))
    assert str(info.value) == "equation 'bad': lhs has sort 'u', expected 'v'"
    bool_sig = make_signature(["u", "b"], [("e", [], "u"), ("t", [], "b")])
    with pytest.raises(EquationError) as info:
        Equation("bad", "u", parse_term(bool_sig, "e"), parse_term(bool_sig, "t"))
    assert str(info.value) == "equation 'bad': rhs has sort 'b', expected 'u'"
    with pytest.raises(EquationError) as info:
        EqSpec(SIG, make_varspec(SIG, [("x", "u")]), (LID,))
    assert str(info.value) == "equation 'lid' is not over this signature and variable set"


@pytest.mark.parametrize("value", [SIG, VARS, SPEC, VSIG], ids=lambda v: type(v).__name__)
def test_copy_and_pickle_round_trip(value):
    if isinstance(value, Signature):
        value.sort_steps  # a cached table does not change the value
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
    restored = pickle.loads(pickle.dumps(SPEC))
    assert restored.equations[0].lhs.signature == vsignature(restored.signature, restored.varspec)


def test_copy_and_pickle_carry_no_cached_state():
    sig = make_signature(["u"], [("mul", ["u", "u"], "u"), ("e", [], "u")])
    hash(sig)
    sig.sort_steps
    assert sig.__dict__
    for other in (copy.copy(sig), copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
        assert other == sig and other.__dict__ == {}


def test_a_pickled_term_runs_the_machine_once(monkeypatch):
    import ualg.term_vm as term_vm

    t = parse_term(VSIG, "mul e mul x y")
    data = pickle.dumps(t)
    run, calls = term_vm._run, []
    monkeypatch.setattr(term_vm, "_run", lambda *a: calls.append(a) or run(*a))
    assert pickle.loads(data) == t
    assert len(calls) == 1
