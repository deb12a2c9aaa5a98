"""One round of ``scripts/stages.py`` with the working tree on both sides,
loaded as two packages: every stage is timed on each side, and the two
copies agree on the pipeline's results."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import stages  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "ualg"


def test_one_round_times_every_stage_on_two_copies_of_the_package():
    rows = stages.compare(SRC, SRC, rounds=1, max_depth=2)
    assert list(rows) == list(stages.STAGES)
    for row in rows.values():
        assert row["base_us"] > 0 and row["work_us"] > 0 and row["ratio"] > 0
        assert row["wins"] in (0, 1)
    assert sys.modules["ualg_base.term_vm"] is not sys.modules["ualg_work.term_vm"]
