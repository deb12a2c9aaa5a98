"""The package's import diet: lazy exports, and the modules a command
line loads beyond a bare interpreter.  A well-formed command line loads
no ``argparse``, only the commands that check something load the model
checker, and ``term`` and ``enumerate`` load none of the code they never
run; every name that moved out of their modules stays importable from
where it was.  Both entry points end through ``cli.run``, which freezes
the collector before the interpreter shuts down, and ``cli.main`` in
process never touches it."""

import ast
import gc
import importlib
import importlib.util
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ualg

SRC = str(Path(ualg.__file__).resolve().parent.parent)
ROOT = Path(SRC).parent
SIG = str(resources.files("ualg") / "data" / "monoid_signature.json")
ALG = str(resources.files("ualg") / "data" / "monoid_z3.json")
EQS = str(resources.files("ualg") / "data" / "monoid_equations.json")
Z4, Z2 = (str(resources.files("ualg") / "data" / f"monoid_z{n}.json") for n in (4, 2))
HOM = str(resources.files("ualg") / "data" / "hom_z4_to_z2.json")

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


def test_the_checker_stays_importable_from_algebra():
    from ualg import algebra, modelcheck

    for name in ("HomVerdict", "check_hom", "first_difference"):
        assert getattr(algebra, name) is getattr(modelcheck, name)
    assert ualg.check_hom is modelcheck.check_hom
    with pytest.raises(AttributeError, match="nosuch"):
        algebra.nosuch


def test_algebra_lists_the_checker_before_its_first_use():
    names = ("HomVerdict", "check_hom", "first_difference")
    proc = python("-c", (
        "import sys\n"
        "import ualg.algebra as algebra\n"
        f"print(all(name in dir(algebra) for name in {names!r}), 'ualg.modelcheck' in sys.modules)\n"
        "import ualg.modelcheck as modelcheck\n"
        f"print(all(getattr(algebra, name) is getattr(modelcheck, name) for name in {names!r}))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "True"]


# The modules that hold what ``term`` and ``enumerate`` never run.
MOVED_TO = ("ualg.algebra_io", "ualg.commands", "ualg.shorthand", "ualg.terms", "ualg.varspec")

# The names each module re-exports from the module that defines them
# now: the term path's modules, and ``free_algebra``'s ``build_term``.
MOVED = {
    "ualg.jsonio": dict.fromkeys((
        "algebra_from_obj", "algebra_to_obj", "assignment_from_obj", "dump_json", "eqspec_from_obj",
        "eqspec_to_obj", "hom_maps_from_obj", "load_algebra", "load_assignment", "load_eqspec", "load_hom_maps",
        "resolve_assignment", "signature_to_obj", "varspec_from_obj",
    ), "ualg.algebra_io"),
    "ualg.signature": {
        **dict.fromkeys(("make_signature_simple", "make_signature_single_sorted"), "ualg.shorthand"),
        **dict.fromkeys(
            ("VarSpec", "extends_by_constants", "is_vsignature", "make_varspec", "vsignature"), "ualg.varspec"
        ),
    },
    "ualg.term_vm": dict.fromkeys(("build_term", "term_fold"), "ualg.terms"),
    "ualg.cli": dict.fromkeys(
        ("build_parser", "cmd_check_eqs", "cmd_check_hom", "cmd_eval", "cmd_examples"), "ualg.commands"
    ),
    "ualg.free_algebra": {"build_term": "ualg.terms"},
}


def test_term_check_loads_no_algebra_equations_or_dataclasses():
    out, added = added_modules("term", "check", "--sig", SIG, "mul e e")
    assert out == ["sort: u"]
    assert {"ualg.cli", "ualg.jsonio", "ualg.signature", "ualg.term_vm"} <= added
    for name in ("ualg.algebra", "ualg.equations", "ualg.free_algebra", "ualg.examples", "dataclasses", *MOVED_TO):
        assert name not in added


def test_enumerate_loads_no_algebra_or_free_algebra():
    from ualg.free_algebra import enumerate_terms

    assert enumerate_terms is ualg.enumerate_terms
    out, added = added_modules("enumerate", "--sig", SIG, "--sort", "u", "--max-depth", "2")
    assert out == ["e", "mul e e", "count: 2"]
    for name in ("ualg.algebra", "ualg.free_algebra", "ualg.equations", "ualg.examples", "dataclasses", *MOVED_TO):
        assert name not in added


def imported_names(*paths):
    """Per ``ualg`` module, the names that ``from ualg.<module> import``
    statements in the Python files under ``paths`` import."""
    names = {}
    for path in paths:
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ualg."):
                    names.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return names


def test_every_imported_name_resolves_where_it_was():
    # what the benchmark, the data script and the tests import from the
    # term path's modules, and every name that moved out of them
    wanted = imported_names(ROOT / "bench", ROOT / "scripts" / "make_data.py", ROOT / "tests")
    assert set(MOVED["ualg.jsonio"]) & wanted["ualg.jsonio"]  # the scan sees the moved names
    for module in MOVED:
        old = importlib.import_module(module)
        for name in wanted.get(module, set()) | set(MOVED[module]):
            value = getattr(old, name)
            assert name in dir(old), (module, name)
            if name in MOVED[module]:
                new = importlib.import_module(MOVED[module][name])
                assert value is getattr(new, name), (module, name)
                assert value.__module__ == new.__name__, (module, name)
            else:
                assert name in vars(old), (module, name)
        namespace = {}
        exec(f"from {module} import {', '.join(sorted(MOVED[module]))}", namespace)
        assert all(namespace[name] is getattr(old, name) for name in MOVED[module])
        with pytest.raises(AttributeError, match="nosuch"):
            old.nosuch
    # the package exports a moved name from its new module: the same object
    for module, moved in MOVED.items():
        for name in set(moved) & set(ualg.__all__):
            assert getattr(ualg, name) is getattr(importlib.import_module(module), name), name


def code_lines_of(files):
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sum(module.code_lines(Path(f)) for f in files)


# ``python -m ualg`` with the given arguments, after which the files of
# the loaded ``ualg`` modules, and ``ualg/__main__.py``, are printed.
RUN_MAIN = (
    "import runpy, sys\n"
    "sys.argv[0], code = 'ualg', 0\n"
    "try:\n"
    "    runpy.run_module('ualg', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as stop:\n"
    "    code = stop.code\n"
    "import ualg\n"
    "files = {m.__file__ for n, m in sys.modules.items() if n == 'ualg' or n.startswith('ualg.')}\n"
    "files.add(ualg.__file__.replace('__init__.py', '__main__.py'))\n"
    "print(*sorted(files), sep='\\n')\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "argv",
    [("term", "check", "--sig", SIG, "mul e e"), ("enumerate", "--sig", SIG, "--sort", "u", "--max-depth", "3")],
    ids=lambda argv: argv[0],
)
def test_the_term_path_compiles_at_most_650_code_lines(argv):
    proc = python("-c", RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    files = [line for line in proc.stdout.splitlines() if line.endswith(".py")]
    names = {Path(f).name for f in files}
    assert names == {"__init__.py", "__main__.py", "cli.py", "jsonio.py", "signature.py", "term_vm.py"}
    assert code_lines_of(files) <= 650


def test_the_moved_code_loads_neither_typing_nor_dataclasses():
    proc = python("-S", "-c", "import sys; import " + ", ".join(MOVED_TO) + "; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert not {"typing", "dataclasses"} & set(proc.stdout.split())


def test_eval_loads_no_equations_or_examples():
    out, added = added_modules("eval", "--alg", ALG, "--vars", EQS, "--assign", "x=1,y=2", "mul x y")
    assert out == ["0"]
    assert {"ualg.algebra", "ualg.free_algebra"} <= added
    for name in ("ualg.equations", "ualg.examples", "ualg.terms", "dataclasses"):
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


@pytest.mark.parametrize(
    "argv",
    [
        ("term", "check", "--sig", SIG, "mul e e"),
        ("enumerate", "--sig", SIG, "--sort", "u", "--max-depth", "2"),
        ("eval", "--alg", ALG, "--vars", EQS, "--assign", "x=1,y=2", "mul x y"),
        ("check-eqs", "--alg", ALG, "--eqs", EQS),
    ],
    ids=lambda argv: argv[0],
)
def test_well_formed_command_lines_load_no_argparse(argv):
    _, added = added_modules(*argv)
    assert "ualg.cli" in added
    assert not {"argparse", "gettext"} & added


def test_eval_loads_no_model_checker():
    # neither the module that defines the checker nor the one that defines
    # its machine, wherever they are
    from ualg.algebra import first_difference

    out, added = added_modules("eval", "--alg", ALG, "--assign", "", "mul e e")
    assert out == ["0"]
    assert {"ualg.algebra", "ualg.free_algebra"} <= added
    assert not {ualg.check_hom.__module__, first_difference.__module__, "ualg.modelcheck"} & added


def test_check_eqs_and_check_hom_load_the_model_checker():
    out, added = added_modules("check-eqs", "--alg", ALG, "--eqs", EQS)
    assert out == ["lid: HOLDS", "rid: HOLDS", "assoc: HOLDS"]
    assert "ualg.modelcheck" in added
    out, added = added_modules("check-hom", "--src", Z4, "--dst", Z2, "--map", HOM)
    assert out == ["OK"]
    assert {"ualg.algebra", "ualg.modelcheck"} <= added
    assert not {"ualg.equations", "ualg.free_algebra", "argparse"} & added


def test_main_in_process_leaves_the_collector_alone(capsys):
    from ualg.cli import main

    frozen = gc.get_freeze_count()
    assert main(["term", "check", "--sig", SIG, "mul e e"]) == 0
    assert main(["term", "check", "--sig", SIG + ".missing", "mul e e"]) == 2
    with pytest.raises(SystemExit) as stop:
        main(["term", "check", "--sig", SIG])
    assert stop.value.code == 2
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().out == "sort: u\n"


# Prints, from an atexit handler, whether the collector was frozen when
# the interpreter began to shut down.
AT_EXIT = "import atexit, gc\natexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"


def test_python_m_ualg_exits_with_a_frozen_collector():
    proc = python("-c", AT_EXIT + RUN_MAIN, "term", "check", "--sig", SIG, "mul e e")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "sort: u"
    assert lines[-1] == "frozen True"
    proc = python("-c", AT_EXIT + RUN_MAIN, "term", "check", "--sig", SIG, "mul e")
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (1, "frozen True")


def test_the_script_and_python_m_ualg_share_one_exit_path(monkeypatch):
    import runpy

    from ualg import cli

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    entries = dict(line.replace('"', "").split(" = ") for line in scripts.splitlines())
    module, _, name = entries["ualg"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("ualg", run_name="__main__")
    assert calls == ["run"]
    # the process ends through sys.exit, never os._exit
    for file in Path(ualg.__file__).parent.glob("*.py"):
        tree = ast.parse(file.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Attribute) and node.attr == "_exit" for node in ast.walk(tree)), file
