"""Golden-file tests for the command line interface: byte-exact output
and the 0/1/2 exit code contract.

Every command line that ``run`` and ``run_quiet`` pass is matched twice: by the fast match
of ``cli._match``, and by the ``argparse`` parser that ``build_parser``
builds from the same table; the match either declines or gives the
parser's namespace, on those and on command lines Hypothesis draws from
the grammar's words and edge tokens.  Help texts and usage errors are
golden too, and so are the two ends of a process outside the contract:
a closed stdout and an interrupt."""

import copy
import functools
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ualg
from ualg.cli import COMMANDS, _match, build_parser, main
from ualg.jsonio import load_algebra, load_json, load_signature
from ualg.signature import make_varspec, vsignature
from ualg.term_vm import parse_term

from oracle import oracle_eval, oracle_hom_counterexample, oracle_infer_sort, random_term


def data(name):
    return str(resources.files("ualg") / "data" / name)


@functools.cache
def parser():
    return build_parser()


def matched(argv):
    """The fast match of ``argv``, after checking that it declines or
    gives the namespace ``argparse`` gives."""
    fast = _match(argv)
    if fast is not None:
        assert vars(fast) == vars(parser().parse_args(argv)), argv
    return fast


def run(capsys, *argv):
    matched(list(argv))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    matched(argv)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


def test_term_check_left_nested_deep_term(capsys):
    # the sort stack grows with the term, unlike a unary chain
    term = "mul " * 20000 + "e " * 20001
    code, out, _ = run(capsys, "term", "check", "--sig", data("monoid_signature.json"), term)
    assert (code, out) == (0, "sort: u\n")


def test_term_decompose(capsys):
    code, out, _ = run(
        capsys, "term", "decompose", "--sig", data("monoid_signature.json"), "mul mul e e e"
    )
    assert (code, out) == (0, "princop: mul\narg 1: mul e e\narg 2: e\n")


def test_term_decompose_nullary(capsys):
    code, out, _ = run(capsys, "term", "decompose", "--sig", data("monoid_signature.json"), "e")
    assert (code, out) == (0, "princop: e\n")


UNKNOWN = "foo"
FUZZ_SIGS = ("monoid_signature.json", "bool_signature.json", "list_signature.json")


@st.composite
def symbol_strings(draw):
    name = draw(st.sampled_from(FUZZ_SIGS))
    sig = load_signature(data(name))
    syms = draw(st.lists(st.sampled_from(sig.ops + (UNKNOWN,)), max_size=12))
    return name, sig, syms


@pytest.mark.parametrize("command", ["check", "sort", "depth", "decompose"])
@given(case=symbol_strings())
@settings(max_examples=150, deadline=None)
def test_term_subcommands_exit_contract(command, case):
    name, sig, syms = case
    code, out, err = run_quiet(["term", command, "--sig", data(name), " ".join(syms)])
    if UNKNOWN in syms:
        assert (code, out) == (2, "")
        assert err == f"error: unknown symbol {UNKNOWN!r}\n"
        return
    assert err == ""
    sort = oracle_infer_sort(sig, syms)
    assert code == (1 if sort is None else 0)
    if command == "sort" and sort is not None:
        assert out == sort + "\n"


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


def test_eval_malformed_assign_item(capsys):
    for flag in ("x", "y=true,x"):
        code, out, err = run(
            capsys,
            "eval",
            "--alg", data("bool_algebra.json"),
            "--vars", data("bool_equations.json"),
            "--assign", flag,
            "conj x y",
        )
        assert (code, out, err) == (2, "", "error: bad assignment 'x'; expected name=label\n")


BOOL_ALGEBRA = load_algebra(data("bool_algebra.json"))
BOOL_VARS = ("x", "y", "z")  # the variable block of bool_equations.json
BOOL_VSIG = vsignature(BOOL_ALGEBRA.signature, make_varspec(BOOL_ALGEBRA.signature, dict.fromkeys(BOOL_VARS, "u")))


@st.composite
def eval_inputs(draw):
    # symbols at random, or a well-formed term so that many runs reach a value
    if draw(st.booleans()):
        syms = draw(st.lists(st.sampled_from(BOOL_VSIG.ops + (UNKNOWN,)), max_size=12))
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        syms = list(random_term(rng, BOOL_VSIG, "u", draw(st.integers(1, 5))).syms)
    labels = BOOL_ALGEBRA.elements("u") + ("bad",)
    assignment = draw(st.dictionaries(st.sampled_from(BOOL_VARS), st.sampled_from(labels)))
    return syms, assignment


@given(case=eval_inputs())
@settings(max_examples=300, deadline=None)
def test_eval_exit_contract(case):
    syms, assignment = case
    code, out, err = run_quiet([
        "eval",
        "--alg", data("bool_algebra.json"),
        "--vars", data("bool_equations.json"),
        "--assign", ",".join(f"{v}={label}" for v, label in assignment.items()),
        " ".join(syms),
    ])
    assert code in (0, 1, 2)
    valid = (
        UNKNOWN not in syms
        and oracle_infer_sort(BOOL_VSIG, syms) is not None
        and "bad" not in assignment.values()
        and all(nm in assignment for nm in syms if nm in BOOL_VARS)
    )
    if code == 2:
        assert not valid and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert valid and (code, err) == (0, "")
    expected = oracle_eval(BOOL_ALGEBRA, assignment, parse_term(BOOL_VSIG, " ".join(syms)))
    assert out == f"{expected}\n"


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


def test_check_eqs_duplicate_table_row(capsys, tmp_path):
    obj = json.loads(open(data("monoid_z2.json"), encoding="utf-8").read())
    obj["operations"]["mul"].append({"args": ["0", "0"], "result": "1"})
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check-eqs", "--alg", str(path), "--eqs", data("monoid_equations.json"))
    assert (code, out) == (2, "")
    assert err == "error: operations['mul']: duplicate row for args ['0', '0']\n"


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


def test_check_hom_image_outside_target_carrier(capsys, tmp_path):
    # rejected before any operation is checked, whichever operation the
    # bad image would first reach
    path = tmp_path / "bad_image.json"
    path.write_text(json.dumps({"maps": {"u": {"false": "nope", "true": "true"}}}))
    code, out, err = run(
        capsys,
        "check-hom",
        "--src", data("bool_algebra.json"),
        "--dst", data("bool_algebra.json"),
        "--map", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: maps['u']: image 'nope' of 'false' is not in the target carrier\n"
    path.write_text(json.dumps({"maps": {"u": {"0": "0", "1": "1", "2": "0", "3": "nope"}}}))
    code, out, err = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: maps['u']: image 'nope' of '3' is not in the target carrier\n"


def test_check_hom_key_outside_source_carrier(capsys, tmp_path):
    path = tmp_path / "bad_key.json"
    path.write_text(json.dumps({"maps": {"u": {"0": "0", "1": "1", "2": "0", "3": "1", "7": "0"}}}))
    code, out, err = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: maps['u']: '7' is not in the source carrier\n"


def test_check_hom_map_for_unknown_sort(capsys, tmp_path):
    good = json.loads(open(data("hom_z4_to_z2.json")).read())["maps"]["u"]
    path = tmp_path / "extra_sort.json"
    path.write_text(json.dumps({"maps": {"u": good, "zzz": {"a": "b"}}}))
    code, out, err = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: maps['zzz']: 'zzz' is not a sort of the signature\n"


def test_check_hom_map_missing_source_elements(capsys, tmp_path):
    # mul(0, 0) breaks the law, but the map is rejected before any
    # operation is checked because 2 and 3 have no image
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"maps": {"u": {"0": "1", "1": "1"}}}))
    code, out, err = run(
        capsys,
        "check-hom",
        "--src", data("monoid_z4.json"),
        "--dst", data("monoid_z2.json"),
        "--map", str(path),
    )
    assert (code, out) == (2, "")
    assert err == "error: maps['u']: no image for '2'\n"


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


def assert_exit_contract(code, out, err):
    """Exit 0, 1 or 2; exit 2 prints nothing but one ``error:`` line, and
    exits 0 and 1 print no error."""
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


HOM_SRC = load_algebra(data("monoid_z4.json"))
HOM_DST = load_algebra(data("monoid_z2.json"))
HOM_MUTATIONS = ("drop", "key 7", "image nope", "number image", "extra sort", "empty maps", "list", "no maps")


@st.composite
def hom_map_files(draw):
    """The map file hom_z4_to_z2.json with other target labels, and half
    the time one to three of the mutations above."""
    table = {x: draw(st.sampled_from(HOM_DST.elements("u"))) for x in load_json(data("hom_z4_to_z2.json"))["maps"]["u"]}
    maps = {"u": table}
    obj = {"maps": maps}
    mutations = st.lists(st.sampled_from(HOM_MUTATIONS), min_size=1, max_size=3)
    for kind in draw(mutations) if draw(st.booleans()) else ():
        if kind == "drop" and table:
            del table[draw(st.sampled_from(sorted(table)))]
        elif kind == "key 7":
            table["7"] = draw(st.sampled_from(HOM_DST.elements("u")))
        elif kind in ("image nope", "number image"):
            table[draw(st.sampled_from(HOM_SRC.elements("u")))] = "nope" if kind == "image nope" else 1
        elif kind == "extra sort":
            maps["zzz"] = {"a": "b"}
        elif kind == "empty maps":
            obj["maps"] = {}
        elif kind == "list":
            if draw(st.booleans()):
                obj["maps"] = [maps]
            else:
                maps["u"] = sorted(table.items())
        else:
            obj = {"map": maps}
    return obj


def is_total_label_map(obj):
    maps = obj.get("maps")
    return (
        isinstance(maps, dict)
        and list(maps) == ["u"]
        and isinstance(maps["u"], dict)
        and sorted(maps["u"]) == sorted(HOM_SRC.elements("u"))
        and all(y in HOM_DST.elements("u") for y in maps["u"].values())
    )


@given(obj=hom_map_files())
@settings(max_examples=300, deadline=None)
def test_check_hom_exit_contract(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/map.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, out, err = run_quiet(
            ["check-hom", "--src", data("monoid_z4.json"), "--dst", data("monoid_z2.json"), "--map", path]
        )
    assert_exit_contract(code, out, err)
    assert (code == 2) == (not is_total_label_map(obj))
    if code != 2:
        cex = oracle_hom_counterexample(obj["maps"], HOM_SRC, HOM_DST)
        if cex is None:
            assert (code, out) == (0, "OK\n")
        else:
            assert (code, out) == (1, f"counterexample: {cex[0]}({', '.join(cex[1])})\n")


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


def test_enumerate_stops_at_the_first_empty_level(tmp_path, capsys):
    # c : u and f : v -> u, with no term of sort v: no term has depth 2,
    # so none is deeper, and a huge bound returns at once with the
    # output of --max-depth 2
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({
        "sorts": ["u", "v"],
        "operations": [{"name": "c", "arity": [], "sort": "u"}, {"name": "f", "arity": ["v"], "sort": "u"}],
    }))
    code, out, _ = run(capsys, "enumerate", "--sig", str(sig), "--sort", "u", "--max-depth", "2")
    assert (code, out) == (0, "c\ncount: 1\n")
    src = str(Path(ualg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "ualg", "enumerate", "--sig", str(sig), "--sort", "u", "--max-depth", "100000000"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


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


# -- the fast match and argparse -------------------------------------------------

def canonical_argvs():
    sig, alg, eqs = data("monoid_signature.json"), data("monoid_z3.json"), data("monoid_equations.json")
    argvs = [["term", name, "--sig", sig, "mul e e"] for name in ("check", "sort", "depth", "decompose")]
    argvs += [
        ["term", "check", "--sig", sig, "--sort", "u", "mul e e"],
        ["term", "check", "mul e e", "--sort", "u", "--sig", sig],
        ["term", "depth", "--sig", sig, ""],
        ["eval", "--alg", alg, "--vars", eqs, "--assign", "x=1,y=2", "--assign-file", eqs, "mul x y"],
        ["eval", "mul e e", "--alg", alg],
        ["check-eqs", "--alg", alg, "--eqs", eqs],
        ["check-hom", "--src", data("monoid_z4.json"), "--dst", data("monoid_z2.json"), "--map", data("hom_z4_to_z2.json")],
        ["enumerate", "--sig", sig, "--sort", "u", "--max-depth", "2"],
        ["enumerate", "--max-depth", "0", "--sort", "u", "--sig", sig],
        ["enumerate", "--sig", sig, "--sort", "u", "--max-depth", "+2"],
    ]
    return argvs + [["examples", name] for name in ("list", "monoid", "bool")]


def declined_argvs():
    """Command lines outside the canonical spelling: argparse alone parses
    them, or words their usage error or help."""
    sig, alg, eqs = data("monoid_signature.json"), data("monoid_z3.json"), data("monoid_equations.json")
    argvs = [
        ["enumerate", "--sig", sig, "--sort", "u", "--max", "2"],
        ["term", "check", f"--sig={sig}", "mul e e"],
        ["check-eqs", "--alg", alg, "--alg", alg, "--eqs", eqs],
        ["check-eqs", "--alg", alg],
        ["check-eqs", "--alg", alg, "--eqs", eqs, "extra"],
        ["term", "check", "--sig", sig, "mul e e", "e"],
        ["term", "check", "--sig"],
        ["enumerate", "--sig", sig, "--sort", "u", "--max-depth", "x"],
        ["enumerate", "--sig", sig, "--sort", "u", "--max-depth", "-1"],
        ["term", "check", "--sig", sig, "--sort", "-u", "mul e e"],
        ["term", "check", "--sig", sig, "--", "mul e e"],
        ["examples", "groups"],
        [], ["term"], ["term", "nope"], ["nope"],
    ]
    for argv in canonical_argvs():
        argvs += [argv[:i] + ["-h"] + argv[i:] for i in range(len(argv) + 1)]
    return argvs


def test_the_fast_match_is_argparse_on_canonical_command_lines():
    for argv in canonical_argvs():
        assert matched(argv) is not None, argv


def test_the_fast_match_leaves_every_other_command_line_to_argparse():
    for argv in declined_argvs():
        assert matched(argv) is None, argv


# The words of the grammar, and tokens at the edges of what the match and
# argparse read alike: empty, a lone dash, the end of options, an inline
# flag value, signed, underscored and non-ASCII digits, and a NUL.
GRAMMAR_WORDS = sorted(
    {word for words in COMMANDS for word in words}
    | {flag for _, _, flags, _ in COMMANDS.values() for flag, *_ in flags}
    | {choice for _, _, _, positionals in COMMANDS.values() for *_, choices in positionals for choice in choices or ()}
)
EDGE_TOKENS = ["", "-", "--", "--sig=x", "+2", "1_0", "\u0663", "\0", "-h"]


@st.composite
def command_lines(draw):
    """A command's words, its required flags and some of the others,
    each with a value, one token per positional, in any order, and up to
    two tokens put in anywhere; every value and token a grammar word or
    an edge token."""
    words = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, flags, positionals = COMMANDS[words]
    tokens = GRAMMAR_WORDS + EDGE_TOKENS
    # a value is three times as likely to be a token that no flag reads
    token = st.sampled_from(3 * [t for t in tokens if not t.startswith("-")] + tokens)
    parts = [[flag, draw(token)] for flag, required, *_ in flags if required or draw(st.booleans())]
    parts += [[draw(token)] for _ in positionals]
    rest = [word for part in draw(st.permutations(parts)) for word in part]
    for _ in range(draw(st.integers(0, 2))):
        rest.insert(draw(st.integers(0, len(rest))), draw(token))
    return [*words, *rest]


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_the_fast_match_declines_or_agrees_with_argparse(argv):
    fast = _match(argv)
    if fast is None:
        return
    with redirect_stderr(io.StringIO()) as err:
        try:
            slow = parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"the match accepts what argparse refuses: {argv!r}\n{err.getvalue()}") from None
    assert vars(fast) == vars(slow), argv


def test_an_int_that_int_refuses_is_left_to_argparse():
    # past the interpreter's limit on int digits, int() raises ValueError;
    # the match declines, and argparse words the usage error
    argv = ["enumerate", "--sig", data("monoid_signature.json"), "--sort", "u", "--max-depth", "9" * 5000]
    fast = matched(argv)
    if hasattr(sys, "get_int_max_str_digits"):  # the limit came with 3.10.7 and 3.11
        assert fast is None


HELP = {
    ("--help",): (
        "usage: ualg [-h] {term,eval,check-eqs,check-hom,enumerate,examples} ...\n"
        "\n"
        "multi-sorted universal algebra toolkit\n"
        "\n"
        "positional arguments:\n"
        "  {term,eval,check-eqs,check-hom,enumerate,examples}\n"
        "    term                validate and inspect terms\n"
        "    eval                evaluate a term in a finite algebra\n"
        "    check-eqs           check equations against a finite algebra\n"
        "    check-hom           check a homomorphism candidate\n"
        "    enumerate           enumerate terms up to a depth bound\n"
        "    examples            run a bundled example\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    ("term", "check", "--help"): (
        "usage: ualg term check [-h] --sig SIG [--sort SORT] term\n"
        "\n"
        "positional arguments:\n"
        "  term         whitespace-separated symbol sequence\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --sig SIG    signature JSON file\n"
        "  --sort SORT  expected sort\n"
    ),
    ("eval", "--help"): (
        "usage: ualg eval [-h] --alg ALG [--vars VARS] [--assign ASSIGN]\n"
        "                 [--assign-file ASSIGN_FILE]\n"
        "                 term\n"
        "\n"
        "positional arguments:\n"
        "  term\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --alg ALG             algebra JSON file\n"
        "  --vars VARS           equations JSON file providing the variable block\n"
        "  --assign ASSIGN       comma-separated name=label bindings\n"
        "  --assign-file ASSIGN_FILE\n"
        "                        assignment JSON file\n"
    ),
}


@pytest.mark.parametrize("argv", list(HELP), ids=" ".join)
def test_help_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[argv], "")


USAGE_ERRORS = [
    (
        ["enumerate", "--sig", "S", "--sort", "u", "--max-depth", "x"],
        "usage: ualg enumerate [-h] --sig SIG --sort SORT --max-depth MAX_DEPTH\n"
        "ualg enumerate: error: argument --max-depth: invalid int value: 'x'\n",
    ),
    (
        ["term", "check", "--sig", "S"],
        "usage: ualg term check [-h] --sig SIG [--sort SORT] term\n"
        "ualg term check: error: the following arguments are required: term\n",
    ),
]


@pytest.mark.parametrize("argv, want", USAGE_ERRORS, ids=["invalid-int", "missing-positional"])
def test_usage_error_text(capsys, monkeypatch, argv, want):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", want)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "term", "check", "--sig", "/nonexistent.json", "e")
    assert code == 2
    assert err != ""


# -- the ends of a process outside the contract --------------------------------------

def test_a_closed_stdout_ends_quietly():
    # the reader takes one line of an enumeration of about 110 MB and closes
    # the pipe: the process exits 141, with nothing on stderr, at shutdown too
    src = str(Path(ualg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "ualg", "enumerate", "--sig", data("bool_signature.json"), "--sort", "u", "--max-depth", "4"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"bot\n"
    assert (code, err) == (141, b"")


def test_an_interrupt_ends_with_130_and_an_input_error_with_2(monkeypatch, capsys):
    from ualg import cli

    def interrupted(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(gc, "freeze", lambda: None)  # run freezes the collector of the process it ends
    monkeypatch.setattr(cli, "main", interrupted)
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert stop.value.code == 130
    assert capsys.readouterr() == ("", "")
    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(sys, "argv", ["ualg", "term", "check", "--sig", "/nonexistent.json", "e"])
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno 2]")


def test_running_out_of_memory_is_exit_2_with_one_line(monkeypatch, capsys):
    # a simulated MemoryError after the first term: never exhaust real memory
    from ualg import cli

    def enumerate_terms(sig, sort, max_depth):
        yield parse_term(sig, "bot")
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_terms", enumerate_terms)
    argv = ["enumerate", "--sig", data("bool_signature.json"), "--sort", "u", "--max-depth", "5"]
    assert run(capsys, *argv) == (2, "bot\n", "error: out of memory\n")
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr(sys, "argv", ["ualg", *argv])
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert stop.value.code == 2
    assert capsys.readouterr() == ("bot\n", "error: out of memory\n")


# -- malformed input files -------------------------------------------------------

def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def assert_input_error(code, out, err, needle):
    assert (code, out) == (2, "")
    assert err.startswith("error:") and needle in err


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    # deeper than the JSON parser's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    deep = str(path)
    for argv in (
        ("term", "check", "--sig", deep, "x"),
        ("eval", "--alg", deep, "e"),
        ("check-eqs", "--alg", data("monoid_sub3.json"), "--eqs", deep),
    ):
        assert_input_error(*run(capsys, *argv), "nested too deeply")


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


# -- exit contract on mutated data files -------------------------------------------

DEEP_MARK = "<nested deeper than the JSON parser's recursion limit>"


def nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from nodes(v, (*path, k))


def node_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


# per mutation, the nodes it applies to
DATA_MUTATIONS = {
    "drop key": lambda v: isinstance(v, dict) and bool(v),
    "wrong leaf type": lambda v: isinstance(v, str) and v != DEEP_MARK,
    "list for string": lambda v: isinstance(v, str) and v != DEEP_MARK,
    "string for list": lambda v: isinstance(v, list),
    "duplicate": lambda v: isinstance(v, list) and bool(v),
    "deep nesting": lambda v: True,
}


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three mutations, each at a node drawn from
    those it applies to: a dropped key, a leaf of the wrong type, a list
    swapped for a string or back, a duplicated list item (a name, a
    label, a row), or a node nested too deeply to parse."""
    doc = copy.deepcopy(doc)
    for kind in draw(st.lists(st.sampled_from(sorted(DATA_MUTATIONS)), min_size=1, max_size=3)):
        paths = [path for path, v in nodes(doc) if DATA_MUTATIONS[kind](v)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        value = node_at(doc, path)
        if kind == "drop key":
            del value[draw(st.sampled_from(sorted(value)))]
            continue
        if kind == "duplicate":
            value.append(copy.deepcopy(draw(st.sampled_from(value))))
            continue
        new = {
            "wrong leaf type": lambda: draw(st.sampled_from([7, 1.5, None, True, {}])),
            "list for string": lambda: [value],
            "string for list": lambda: "u",
            "deep nesting": lambda: DEEP_MARK,
        }[kind]()
        if path:
            node_at(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
    return doc


def run_on_docs(argv, docs):
    """Run the CLI with each ``{name}`` in ``argv`` replaced by the path of
    a file holding ``docs[name]``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = f"{tmp}/{name}.json"
            text = json.dumps(doc).replace(json.dumps(DEEP_MARK), "[" * 100_000 + "]" * 100_000)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        return run_quiet([arg.format(**paths) for arg in argv])


# every command that reads a data file, with the files it reads
DATA_RUNS = [
    (["check-eqs", "--alg", "{alg}", "--eqs", "{eqs}"], {"alg": "monoid_z3.json", "eqs": "monoid_equations.json"}),
    (["check-eqs", "--alg", "{alg}", "--eqs", "{eqs}"], {"alg": "monoid_sub3.json", "eqs": "monoid_equations.json"}),
    (["check-eqs", "--alg", "{alg}", "--eqs", "{eqs}"], {"alg": "bool_algebra.json", "eqs": "bool_equations.json"}),
    (["check-hom", "--src", "{src}", "--dst", "{dst}", "--map", "{map}"],
     {"src": "monoid_z4.json", "dst": "monoid_z2.json", "map": "hom_z4_to_z2.json"}),
    (["eval", "--alg", "{alg}", "--vars", "{vars}", "--assign", "x=true,y=false", "impl x y"],
     {"alg": "bool_algebra.json", "vars": "bool_equations.json"}),
    (["enumerate", "--sig", "{sig}", "--sort", "u", "--max-depth", "2"], {"sig": "monoid_signature.json"}),
    (["enumerate", "--sig", "{sig}", "--sort", "u", "--max-depth", "2"], {"sig": "bool_signature.json"}),
    (["enumerate", "--sig", "{sig}", "--sort", "list", "--max-depth", "2"], {"sig": "list_signature.json"}),
    (["term", "check", "--sig", "{sig}", "cons nil nil"], {"sig": "list_signature.json"}),
]


@st.composite
def mutated_runs(draw):
    argv, files = draw(st.sampled_from(DATA_RUNS))
    docs = {name: load_json(data(file)) for name, file in files.items()}
    name = draw(st.sampled_from(sorted(docs)))
    docs[name] = draw(mutated(docs[name]))
    return argv, docs


@given(case=mutated_runs())
@settings(max_examples=500, deadline=None)
def test_exit_contract_on_mutated_data_files(case):
    assert_exit_contract(*run_on_docs(*case))
