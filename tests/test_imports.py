"""The package's import diet: lazy exports, and the modules a command
line loads beyond a bare interpreter."""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ualg

SRC = str(Path(ualg.__file__).resolve().parent.parent)
SIG = str(resources.files("ualg") / "data" / "monoid_signature.json")
ALG = str(resources.files("ualg") / "data" / "monoid_z3.json")
EQS = str(resources.files("ualg") / "data" / "monoid_equations.json")

# Run one command line through ``ualg.cli.main`` as ``python -m ualg``
# does, then print the names of the loaded modules on a last line.
WRAPPER = (
    "import sys\n"
    "import ualg.cli\n"
    "code = ualg.cli.main(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def added_modules(*argv):
    """What the command prints, and the modules it loads that a bare
    interpreter has not loaded."""
    bare = set(python("-c", "import sys; print(' '.join(sys.modules))").stdout.split())
    proc = python("-c", WRAPPER, *argv)
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines()
    return out, set(modules.split()) - bare


def test_every_export_resolves():
    for name in ualg.__all__:
        assert getattr(ualg, name) is not None
    namespace = {}
    exec("from ualg import *", namespace)
    assert set(ualg.__all__) <= set(namespace)
    assert namespace["holds"] is ualg.holds is ualg.equations.holds
    assert set(ualg.__all__) <= set(dir(ualg))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        ualg.nosuch
    assert not hasattr(ualg, "cli_main")


def test_term_check_loads_no_algebra_equations_or_dataclasses():
    out, added = added_modules("term", "check", "--sig", SIG, "mul e e")
    assert out == ["sort: u"]
    assert {"ualg.cli", "ualg.jsonio", "ualg.signature", "ualg.term_vm"} <= added
    for name in ("ualg.algebra", "ualg.equations", "ualg.free_algebra", "ualg.examples", "dataclasses"):
        assert name not in added


def test_enumerate_loads_no_algebra_or_free_algebra():
    from ualg.free_algebra import enumerate_terms

    assert enumerate_terms is ualg.enumerate_terms
    out, added = added_modules("enumerate", "--sig", SIG, "--sort", "u", "--max-depth", "2")
    assert out == ["e", "mul e e", "count: 2"]
    for name in ("ualg.algebra", "ualg.free_algebra", "ualg.equations", "ualg.examples", "dataclasses"):
        assert name not in added


def test_eval_loads_no_equations_or_examples():
    out, added = added_modules("eval", "--alg", ALG, "--vars", EQS, "--assign", "x=1,y=2", "mul x y")
    assert out == ["0"]
    assert {"ualg.algebra", "ualg.free_algebra"} <= added
    for name in ("ualg.equations", "ualg.examples", "dataclasses"):
        assert name not in added


def test_check_eqs_loads_no_free_algebra_or_examples():
    out, added = added_modules("check-eqs", "--alg", ALG, "--eqs", EQS)
    assert out == ["lid: HOLDS", "rid: HOLDS", "assoc: HOLDS"]
    assert {"ualg.algebra", "ualg.equations"} <= added
    for name in ("ualg.free_algebra", "ualg.examples", "dataclasses"):
        assert name not in added


def test_eval_without_site_loads_no_random():
    # an interpreter started with -S loads neither random nor typing, and
    # the sample_element hints ask for neither
    bare = set(python("-S", "-c", "import sys; print(' '.join(sys.modules))").stdout.split())
    proc = python("-S", "-c", WRAPPER, "eval", "--alg", ALG, "--vars", EQS, "--assign", "x=1,y=2", "mul x y")
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines()
    assert out == ["0"]
    added = set(modules.split()) - bare
    assert "ualg.algebra" in added
    assert not {"random", "typing"} & added
