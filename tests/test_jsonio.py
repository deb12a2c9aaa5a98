import json
from importlib import resources

import pytest

from ualg.equations import holds
from ualg.examples import (
    additive_mod_algebra,
    bool_algebra,
    bool_signature,
    list_signature_and_algebra,
    monoid_eqspec,
    monoid_signature,
)
from ualg.jsonio import (
    FormatError,
    algebra_from_obj,
    algebra_to_obj,
    assignment_from_obj,
    eqspec_from_obj,
    eqspec_to_obj,
    hom_maps_from_obj,
    load_algebra,
    load_eqspec,
    load_signature,
    resolve_assignment,
    signature_from_obj,
    signature_to_obj,
)


def data_path(name):
    return resources.files("ualg") / "data" / name


def test_signature_round_trip():
    for sig in (monoid_signature(), bool_signature(), list_signature_and_algebra()[0]):
        assert signature_from_obj(signature_to_obj(sig)) == sig


def test_signature_file_format_shape():
    obj = signature_to_obj(monoid_signature())
    assert obj == {
        "sorts": ["u"],
        "operations": [
            {"name": "mul", "arity": ["u", "u"], "sort": "u"},
            {"name": "e", "arity": [], "sort": "u"},
        ],
    }


def test_operations_array_order_defines_indices():
    obj = {
        "sorts": ["u"],
        "operations": [
            {"name": "e", "arity": [], "sort": "u"},
            {"name": "mul", "arity": ["u", "u"], "sort": "u"},
        ],
    }
    sig = signature_from_obj(obj)
    assert sig.ops == ("e", "mul")
    assert sig.index_of("mul") == 1


def test_algebra_round_trip():
    for algebra in (additive_mod_algebra(3), bool_algebra(), list_signature_and_algebra()[1]):
        assert algebra_from_obj(algebra_to_obj(algebra)) == algebra


def test_algebra_file_shape():
    obj = algebra_to_obj(additive_mod_algebra(2))
    assert obj["carriers"] == {"u": ["0", "1"]}
    assert {"args": ["0", "0"], "result": "0"} in obj["operations"]["mul"]
    assert obj["operations"]["e"] == [{"args": [], "result": "0"}]


def test_eqspec_round_trip():
    spec = monoid_eqspec()
    obj = eqspec_to_obj(spec)
    assert obj["variables"] == {"x": "u", "y": "u", "z": "u"}
    assert obj["equations"][0] == {"name": "lid", "sort": "u", "lhs": "mul e x", "rhs": "x"}
    again = eqspec_from_obj(monoid_signature(), obj)
    assert again == spec


def test_assignment_format():
    assert assignment_from_obj({"assign": {"x": "true"}}) == {"x": "true"}
    with pytest.raises(FormatError):
        assignment_from_obj({})
    with pytest.raises(FormatError):
        assignment_from_obj({"assign": {"x": 1}})


def test_resolve_assignment_validates():
    spec = monoid_eqspec()
    algebra = additive_mod_algebra(3)
    assert resolve_assignment(algebra, spec.varspec, {"x": "2"}) == {"x": "2"}
    with pytest.raises(FormatError, match="undeclared"):
        resolve_assignment(algebra, spec.varspec, {"w": "2"})
    with pytest.raises(FormatError, match="carrier"):
        resolve_assignment(algebra, spec.varspec, {"x": "9"})


def test_hom_maps_format():
    maps = hom_maps_from_obj({"maps": {"u": {"0": "0", "1": "1"}}})
    assert maps == {"u": {"0": "0", "1": "1"}}
    with pytest.raises(FormatError):
        hom_maps_from_obj({"maps": {"u": ["0"]}})


def test_bundled_data_loads_and_checks():
    sig = load_signature(data_path("monoid_signature.json"))
    assert sig == monoid_signature()
    algebra = load_algebra(data_path("monoid_z3.json"))
    assert algebra == additive_mod_algebra(3)
    spec = load_eqspec(data_path("monoid_equations.json"), sig)
    for eq in spec.equations:
        assert holds(algebra, eq, spec.varspec).holds


def test_bundled_bool_equations_hold():
    algebra = load_algebra(data_path("bool_algebra.json"))
    spec = load_eqspec(data_path("bool_equations.json"), algebra.signature)
    names = [eq.name for eq in spec.equations]
    assert names == ["dummett", "excluded_middle"]
    for eq in spec.equations:
        assert holds(algebra, eq, spec.varspec).holds


def test_malformed_documents_rejected():
    with pytest.raises(FormatError):
        signature_from_obj({"sorts": ["u"]})
    with pytest.raises(FormatError):
        algebra_from_obj({"signature": signature_to_obj(monoid_signature())})
    with pytest.raises(FormatError):
        eqspec_from_obj(monoid_signature(), {"variables": {"x": "u"}})


# -- leaf types and duplicates ---------------------------------------------------

def monoid_algebra_obj(carrier):
    return {
        "signature": signature_to_obj(monoid_signature()),
        "carriers": {"u": carrier},
        "operations": {
            "mul": [{"args": ["0", "0"], "result": "0"}],
            "e": [{"args": [], "result": "0"}],
        },
    }


def test_nested_arity_rejected():
    obj = {"sorts": ["u"], "operations": [{"name": "f", "arity": [["u"]], "sort": "u"}]}
    with pytest.raises(FormatError, match="'arity' must be a list of strings"):
        signature_from_obj(obj)


def test_list_valued_carrier_label_rejected():
    assert algebra_from_obj(monoid_algebra_obj(["0"])) == additive_mod_algebra(1)
    with pytest.raises(FormatError, match="list of strings"):
        algebra_from_obj(monoid_algebra_obj([["0"], "1"]))


def test_string_carrier_rejected():
    # a string is not read as the list of its characters
    with pytest.raises(FormatError, match="carriers: 'u' must be a list"):
        algebra_from_obj(monoid_algebra_obj("0"))


def test_non_string_variable_sort_rejected():
    with pytest.raises(FormatError, match="'variables'"):
        eqspec_from_obj(monoid_signature(), {"variables": {"x": ["u"]}, "equations": []})


def test_non_string_map_image_rejected():
    with pytest.raises(FormatError, match="maps\\['u'\\]"):
        hom_maps_from_obj({"maps": {"u": {"0": ["0"]}}})


def test_duplicate_table_rows_rejected():
    obj = algebra_to_obj(additive_mod_algebra(2))
    obj["operations"]["mul"].append({"args": ["0", "0"], "result": "1"})
    with pytest.raises(FormatError, match="operations\\['mul'\\]: duplicate row for args \\['0', '0'\\]"):
        algebra_from_obj(obj)


def test_duplicate_equation_names_rejected():
    obj = eqspec_to_obj(monoid_eqspec())
    obj["equations"].append(dict(obj["equations"][0], rhs="mul x e"))
    with pytest.raises(FormatError, match="duplicate equation name 'lid'"):
        eqspec_from_obj(monoid_signature(), obj)
