"""The arithmetic of ``scripts/ab.py`` on fixed samples: quartiles, wins
with ties, the bound and the claim rule, over even and odd numbers of
pairs; for ``--pytest``, a test's duration read off a JUnit XML report
and compared without a bound; and the final JSON line, over runs that stand in for the benchmark's."""

import json
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


REPORT = """<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest" tests="2">
<testcase classname="tests.test_x" name="test_y[a]" time="1.500" />
<testcase classname="tests.test_x" name="test_y[b]" time="0.250"><system-out>noise</system-out></testcase>
</testsuite></testsuites>"""


def test_a_junit_report_sums_the_times_of_passed_cases():
    assert ab.junit_seconds(REPORT) == 1.75
    for tag in ("failure", "error", "skipped"):
        bad = REPORT.replace("<system-out>noise</system-out>", f'<{tag} message="m">m</{tag}>')
        with pytest.raises(ValueError, match=tag):
            ab.junit_seconds(bad)
    with pytest.raises(ValueError, match="no test case"):
        ab.junit_seconds('<testsuites><testsuite name="pytest" tests="0"></testsuite></testsuites>')


def test_a_test_duration_has_no_bound_but_may_claim_a_gain():
    base = [10.0, 10.5, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.6]
    s = ab.summarize(ab.DURATION, base, [b - 3 for b in base])
    assert s["bound"] is None
    assert (s["base_wins"], s["work_wins"]) == (0, 10) and s["claim"]
    assert s["ratio"] == pytest.approx((s["base"][1] - 3) / s["base"][1])
    # a loss is reported, never judged against a bound
    assert ab.summarize(ab.DURATION, base, [2 * b for b in base])["bound"] is None
    runs = {side: [{"metrics": {"duration_s": {"value": v}}} for v in values]
            for side, values in (("base", base), ("work", [b - 3 for b in base]))}
    header, row = ab.report([ab.DURATION], runs)
    assert row.split()[0] == "duration_s" and row.split()[-2:] == ["-", "yes"]


def test_the_last_line_holds_every_run_and_each_metric_summary(monkeypatch, capsys):
    # three pairs whose runs stand in for bench/run.py: nothing is extracted or run
    values = iter([100.0, 110.0, 104.0, 112.0, 102.0, 120.0])  # base, work, work, base, base, work
    monkeypatch.setattr(ab, "extract", lambda rev, dest: None)
    monkeypatch.setattr(ab, "snapshot", lambda dest: None)

    def run(spec, tree, args, env):
        v = next(values)
        names = [m["name"] for m in spec["end_to_end"]]
        return {"correct": True, "failed": 0, "metrics": {name: {"value": v} for name in names}}

    monkeypatch.setattr(ab, "run", run)
    assert ab.main(["--workload", "modelcheck", "--seed", "1", "--pairs", "3"]) == 0
    written = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [r["ops_per_s"] for r in written["base"]] == [100.0, 112.0, 102.0]
    assert [r["ops_per_s"] for r in written["work"]] == [110.0, 104.0, 120.0]
    ops = written["summary"]["ops_per_s"]
    assert ops["base"] == [101.0, 102.0, 107.0] and ops["work"][1] == 110.0
    assert (ops["base_wins"], ops["work_wins"]) == (1, 2)
    assert ops["ratio"] == pytest.approx(110.0 / 102.0)
    assert written["summary"]["latency_p50_ms"]["base_wins"] == 2  # lower is better
