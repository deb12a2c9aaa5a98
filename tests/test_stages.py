"""One round of ``scripts/stages.py`` with the working tree on both sides,
loaded as two packages: every stage is timed on each side, and the two
copies agree on every stage's results; a copy that gives another
verdict stops the comparison."""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import stages  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "ualg"


def test_one_round_times_every_stage_on_two_copies_of_the_package():
    rows = stages.compare(SRC, SRC, rounds=1, max_depth=2)
    assert list(rows) == list(stages.STAGES)
    assert {"holds", "check_hom"} <= set(rows)
    for row in rows.values():
        assert row["base_us"] > 0 and row["work_us"] > 0 and row["ratio"] > 0
        assert row["wins"] in (0, 1)
    assert sys.modules["ualg_base.term_vm"] is not sys.modules["ualg_work.term_vm"]
    assert sys.modules["ualg_base.modelcheck"] is not sys.modules["ualg_work.modelcheck"]


@pytest.mark.parametrize(
    "module, patch",
    [
        (
            "equations.py",
            "_holds = holds\n\n\ndef holds(algebra, eq, varspec):\n"
            "    v = _holds(algebra, eq, varspec)\n    return EqVerdict(not v.holds, v.counterexample)\n",
        ),
        (
            "modelcheck.py",
            "_check_hom = check_hom\n\n\ndef check_hom(maps, src, dst):\n"
            "    v = _check_hom(maps, src, dst)\n    return HomVerdict(not v.ok, v.counterexample)\n",
        ),
    ],
)
def test_a_tree_that_gives_another_verdict_stops_the_comparison(tmp_path, module, patch):
    wrong = tmp_path / "ualg"
    shutil.copytree(SRC, wrong, ignore=shutil.ignore_patterns("__pycache__"))
    with open(wrong / module, "a") as f:
        f.write("\n\n" + patch)
    with pytest.raises(SystemExit, match="disagree on a model-checking verdict"):
        stages.compare(SRC, wrong, rounds=1, max_depth=2)
