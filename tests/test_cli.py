"""Golden-file tests for the command line interface: byte-exact output
and the 0/1/2 exit code contract."""

import json
from importlib import resources

import pytest

from ualg.cli import main


def data(name):
    return str(resources.files("ualg") / "data" / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- term subcommands ------------------------------------------------------

def test_term_check_valid(capsys):
    code, out, _ = run(capsys, "term", "check", "--sig", data("monoid_signature.json"), "mul e e")
    assert (code, out) == (0, "sort: u\n")


def test_term_check_expected_sort(capsys):
    code, out, _ = run(
        capsys, "term", "check", "--sig", data("monoid_signature.json"), "--sort", "u", "mul e e"
    )
    assert (code, out) == (0, "sort: u\n")
    code, out, _ = run(
        capsys, "term", "check", "--sig", data("list_signature.json"), "--sort", "elem", "nil"
    )
    assert (code, out) == (1, "sort mismatch: got list, expected elem\n")


def test_term_check_underflow(capsys):
    code, out, _ = run(capsys, "term", "check", "--sig", data("monoid_signature.json"), "mul")
    assert (code, out) == (1, "stack underflow at symbol 0\n")


def test_term_check_residual_stack(capsys):
    code, out, _ = run(capsys, "term", "check", "--sig", data("monoid_signature.json"), "e e")
    assert (code, out) == (1, "residual stack [u, u]\n")


def test_term_check_sort_mismatch_position(capsys):
    code, out, _ = run(capsys, "term", "check", "--sig", data("list_signature.json"), "cons nil nil")
    assert (code, out) == (1, "sort mismatch at symbol 2\n")


def test_term_check_unknown_symbol(capsys):
    code, out, err = run(capsys, "term", "check", "--sig", data("monoid_signature.json"), "mul e q")
    assert code == 2
    assert out == ""
    assert "unknown symbol 'q'" in err


def test_term_sort(capsys):
    code, out, _ = run(capsys, "term", "sort", "--sig", data("monoid_signature.json"), "mul e e")
    assert (code, out) == (0, "u\n")


def test_term_depth(capsys):
    code, out, _ = run(capsys, "term", "depth", "--sig", data("monoid_signature.json"), "mul mul e e e")
    assert (code, out) == (0, "3\n")


def test_term_depth_invalid(capsys):
    code, out, _ = run(capsys, "term", "depth", "--sig", data("monoid_signature.json"), "mul e")
    assert (code, out) == (1, "stack underflow at symbol 1\n")


def test_term_depth_deep_chain(capsys):
    chain = "neg " * 5000 + "top"
    code, out, _ = run(capsys, "term", "depth", "--sig", data("bool_signature.json"), chain)
    assert (code, out) == (0, "5001\n")


def test_term_decompose(capsys):
    code, out, _ = run(
        capsys, "term", "decompose", "--sig", data("monoid_signature.json"), "mul mul e e e"
    )
    assert (code, out) == (0, "princop: mul\narg 1: mul e e\narg 2: e\n")


def test_term_decompose_nullary(capsys):
    code, out, _ = run(capsys, "term", "decompose", "--sig", data("monoid_signature.json"), "e")
    assert (code, out) == (0, "princop: e\n")


# -- eval -------------------------------------------------------------------

def test_eval_bool_formula(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--alg", data("bool_algebra.json"),
        "--vars", data("bool_equations.json"),
        "--assign", "x=true,y=true,z=false",
        "conj x impl z neg y",
    )
    assert (code, out) == (0, "true\n")


def test_eval_ground_monoid(capsys):
    code, out, _ = run(capsys, "eval", "--alg", data("monoid_z3.json"), "mul e e")
    assert (code, out) == (0, "0\n")


def test_eval_missing_binding(capsys):
    code, out, err = run(
        capsys,
        "eval",
        "--alg", data("bool_algebra.json"),
        "--vars", data("bool_equations.json"),
        "--assign", "y=true",
        "conj x y",
    )
    assert code == 2
    assert "no binding for variable 'x'" in err


def test_eval_bad_label(capsys):
    code, _, err = run(
        capsys,
        "eval",
        "--alg", data("monoid_z3.json"),
        "--vars", data("monoid_equations.json"),
        "--assign", "x=7",
        "mul x e",
    )
    assert code == 2
    assert "carrier" in err


def test_eval_deep_chain(capsys):
    code, out, _ = run(capsys, "eval", "--alg", data("bool_algebra.json"), "neg " * 5000 + "top")
    assert (code, out) == (0, "true\n")


def test_eval_invalid_term_is_an_input_error(capsys):
    code, _, err = run(capsys, "eval", "--alg", data("monoid_z3.json"), "mul e")
    assert code == 2
    assert "stack underflow" in err


def test_eval_assignment_file(capsys, tmp_path):
    path = tmp_path / "assign.json"
    path.write_text(json.dumps({"assign": {"x": "true", "y": "true", "z": "false"}}))
    code, out, _ = run(
        capsys,
        "eval",
        "--alg", data("bool_algebra.json"),
        "--vars", data("bool_equations.json"),
        "--assign-file", str(path),
        "conj x impl z neg y",
    )
    assert (code, out) == (0, "true\n")


# -- check-eqs ----------------------------------------------------------------

def test_check_eqs_additive(capsys):
    code, out, _ = run(
        capsys, "check-eqs", "--alg", data("monoid_z3.json"), "--eqs", data("monoid_equations.json")
    )
    assert (code, out) == (0, "lid: HOLDS\nrid: HOLDS\nassoc: HOLDS\n")


def test_check_eqs_subtraction(capsys):
    code, out, _ = run(
        capsys, "check-eqs", "--alg", data("monoid_sub3.json"), "--eqs", data("monoid_equations.json")
    )
    assert code == 1
    assert out == "lid: FAILS (x=1)\nrid: HOLDS\nassoc: FAILS (x=0, y=0, z=1)\n"


def test_check_eqs_bool(capsys):
    code, out, _ = run(
        capsys, "check-eqs", "--alg", data("bool_algebra.json"), "--eqs", data("bool_equations.json")
    )
    assert (code, out) == (0, "dummett: HOLDS\nexcluded_middle: HOLDS\n")


def test_check_eqs_empty_list(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"variables": {}, "equations": []}))
    code, out, _ = run(capsys, "check-eqs", "--alg", data("monoid_z3.json"), "--eqs", str(path))
    assert (code, out) == (0, "")


def test_check_eqs_signature_mismatch(capsys):
    code, _, err = run(
        capsys, "check-eqs", "--alg", data("bool_algebra.json"), "--eqs", data("monoid_equations.json")
    )
    assert code == 2
    assert err != ""


# -- check-hom -----------------------------------------------------------------

def test_check_hom_ok(capsys):
    code, out, _ = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", data("hom_z4_to_z2.json"),
    )
    assert (code, out) == (0, "OK\n")


def test_check_hom_counterexample(capsys, tmp_path):
    path = tmp_path / "bad_map.json"
    path.write_text(json.dumps({"maps": {"u": {"0": "0", "1": "1", "2": "0", "3": "0"}}}))
    code, out, _ = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", str(path),
    )
    assert (code, out) == (1, "counterexample: mul(1, 2)\n")


def test_check_hom_incomplete_map(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"maps": {"u": {"0": "0"}}}))
    code, _, err = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", str(path),
    )
    assert code == 2
    assert "no image" in err


# -- enumerate -----------------------------------------------------------------

def test_enumerate_monoid_depths(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--sig", data("monoid_signature.json"), "--sort", "u", "--max-depth", "1"
    )
    assert (code, out) == (0, "e\ncount: 1\n")
    code, out, _ = run(
        capsys, "enumerate", "--sig", data("monoid_signature.json"), "--sort", "u", "--max-depth", "2"
    )
    assert (code, out) == (0, "e\nmul e e\ncount: 2\n")


def test_enumerate_bool_depth_one(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--sig", data("bool_signature.json"), "--sort", "u", "--max-depth", "1"
    )
    assert (code, out) == (0, "bot\ntop\ncount: 2\n")


def test_enumerate_unknown_sort(capsys):
    code, _, err = run(
        capsys, "enumerate", "--sig", data("monoid_signature.json"), "--sort", "v", "--max-depth", "2"
    )
    assert code == 2
    assert "unknown sort" in err


def test_enumerate_bad_depth(capsys):
    code, _, err = run(
        capsys, "enumerate", "--sig", data("monoid_signature.json"), "--sort", "u", "--max-depth", "0"
    )
    assert code == 2


def test_enumerate_output_terms_all_check(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--sig", data("bool_signature.json"), "--sort", "u", "--max-depth", "2"
    )
    assert code == 0
    *terms, footer = out.splitlines()
    assert footer == f"count: {len(terms)}"
    for text in terms:
        code, out, _ = run(capsys, "term", "check", "--sig", data("bool_signature.json"), text)
        assert code == 0


# -- examples ------------------------------------------------------------------

def test_examples_list(capsys):
    code, out, _ = run(capsys, "examples", "list")
    assert code == 0
    assert out == (
        "list datatype over elements [a, b], lists materialized up to length 4\n"
        "nil -> []\n"
        "cons a nil -> [a]\n"
        "cons b cons a nil -> [b,a]\n"
        "arity of cons: elem list -> list\n"
    )


def test_examples_monoid(capsys):
    code, out, _ = run(capsys, "examples", "monoid")
    assert code == 0
    assert out == (
        "monoid equations on (Z mod 3, +, 0)\n"
        "lid: HOLDS\n"
        "rid: HOLDS\n"
        "assoc: HOLDS\n"
        "monoid equations on (Z mod 3, -, 0)\n"
        "lid: FAILS (x=1)\n"
        "rid: HOLDS\n"
        "assoc: FAILS (x=0, y=0, z=1)\n"
    )


def test_examples_bool(capsys):
    code, out, _ = run(capsys, "examples", "bool")
    assert code == 0
    assert out == (
        "boolean connectives under truth-table semantics\n"
        "conj x impl z neg y | x=true y=true z=false -> true\n"
        "impl bot top -> true\n"
        "dummett: disj impl x y impl y x holds under all 4 assignments of x, y\n"
    )


def test_examples_unknown_name_fails_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["examples", "groups"])
    assert exc.value.code == 2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "term", "check", "--sig", "/nonexistent.json", "e")
    assert code == 2
    assert err != ""


# -- malformed input files -------------------------------------------------------

def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def assert_input_error(code, out, err, needle):
    assert (code, out) == (2, "")
    assert err.startswith("error:") and needle in err


def test_nested_arity_is_an_input_error(capsys, tmp_path):
    sig = write(tmp_path, "sig.json", {
        "sorts": ["u"],
        "operations": [
            {"name": "f", "arity": [["u"]], "sort": "u"},
            {"name": "c", "arity": [], "sort": "u"},
        ],
    })
    assert_input_error(*run(capsys, "term", "check", "--sig", sig, "f c"), "'arity'")


def test_list_valued_label_is_an_input_error(capsys, tmp_path):
    alg = write(tmp_path, "alg.json", {
        "signature": {"sorts": ["u"], "operations": [{"name": "e", "arity": [], "sort": "u"}]},
        "carriers": {"u": [["a"], "b"]},
        "operations": {"e": [{"args": [], "result": "b"}]},
    })
    assert_input_error(*run(capsys, "eval", "--alg", alg, "e"), "carriers: 'u'")


def test_string_carrier_is_an_input_error(capsys, tmp_path):
    alg = write(tmp_path, "alg.json", {
        "signature": {"sorts": ["u"], "operations": [{"name": "e", "arity": [], "sort": "u"}]},
        "carriers": {"u": "ab"},
        "operations": {"e": [{"args": [], "result": "a"}]},
    })
    assert_input_error(*run(capsys, "eval", "--alg", alg, "e"), "carriers: 'u'")


def test_duplicate_equation_names_are_an_input_error(capsys, tmp_path):
    eqs = write(tmp_path, "eqs.json", {
        "variables": {"x": "u"},
        "equations": [
            {"name": "lid", "sort": "u", "lhs": "mul e x", "rhs": "x"},
            {"name": "lid", "sort": "u", "lhs": "mul x e", "rhs": "x"},
        ],
    })
    assert_input_error(
        *run(capsys, "check-eqs", "--alg", data("monoid_sub3.json"), "--eqs", eqs),
        "duplicate equation name",
    )
