"""The arithmetic of ``scripts/ab.py`` on fixed samples: quartiles, wins
with ties, the bound and the claim rule, over even and odd numbers of
pairs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import ab  # noqa: E402

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.15}
P50 = {"name": "latency_p50_ms", "better": "lower", "bound": 0.2}


def test_quartiles_interpolate_between_sorted_values():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    base, work = [10, 10, 10, 10], [11, 9, 10, 12]
    assert ab.wins(base, work, "higher") == (1, 2)
    assert ab.wins(base, work, "lower") == (2, 1)


def test_a_gain_on_nine_of_ten_pairs_beyond_the_base_iqr_is_claimed():
    base = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    work = [120, 121, 122, 123, 124, 125, 126, 127, 128, 100]  # the last pair is lost
    s = ab.summarize(OPS, base, work)
    assert s["base"] == (102.25, 104.5, 106.75)
    assert s["base_iqr"] == 4.5
    assert (s["base_wins"], s["work_wins"]) == (1, 9)
    assert s["ratio"] == pytest.approx(s["work"][1] / 104.5)
    assert s["bound"] == "holds" and s["claim"]


def test_eight_wins_of_ten_or_a_gap_within_the_iqr_claims_nothing():
    base = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert not ab.summarize(OPS, base, [120] * 8 + [90, 90])["claim"]
    # ten wins, but the medians lie 4 apart against a base IQR of 4.5
    assert not ab.summarize(OPS, base, [b + 4 for b in base])["claim"]


def test_an_odd_number_of_pairs_takes_the_middle_run():
    base, work = [30.0, 10.0, 20.0], [8.0, 9.0, 25.0]
    s = ab.summarize(P50, base, work)
    assert s["base"] == (15.0, 20.0, 25.0) and s["work"] == (8.5, 9.0, 17.0)
    assert s["base_iqr"] == 10.0
    assert (s["base_wins"], s["work_wins"]) == (1, 2)
    # a gain of 11 beyond an IQR of 10, but 2 wins of 3 is below nine tenths
    assert not s["claim"]
    assert ab.summarize(P50, base, [8.0, 9.0, 15.0])["claim"]


def test_the_bound_holds_fails_or_is_unresolved():
    base = [100.0, 100.0, 100.0, 100.0]
    assert ab.summarize(OPS, base, [86.0] * 4)["bound"] == "holds"  # 14% worse, bound 15%
    assert ab.summarize(OPS, base, [84.0] * 4)["bound"] == "fails"
    assert ab.summarize(P50, base, [119.0] * 4)["bound"] == "holds"
    assert ab.summarize(P50, base, [121.0] * 4)["bound"] == "fails"
    # base runs spread wider than the bound: unresolved, unless every
    # work run beats every base run
    wide = [60.0, 80.0, 120.0, 140.0]
    assert ab.summarize(OPS, wide, [100.0] * 4)["bound"] == "unresolved"
    assert ab.summarize(OPS, wide, [150.0] * 4)["bound"] == "holds"
    assert ab.summarize(OPS, wide, [10.0] * 4)["bound"] == "fails"


def test_unequal_or_empty_samples_are_refused():
    with pytest.raises(ValueError):
        ab.summarize(OPS, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab.summarize(OPS, [], [])
