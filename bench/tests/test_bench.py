"""Tests of the benchmark itself: seeded inputs, the references, and the
trace arithmetic.  Run with ``python -m pytest bench/tests``."""

from __future__ import annotations

import itertools
import json
import math
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from spans import Tracer, percentile, self_times  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = json.dumps(inputs.generate(workload, 7), sort_keys=True)
    assert json.dumps(inputs.generate(workload, 7), sort_keys=True) == first
    assert json.dumps(inputs.generate(workload, 8), sort_keys=True) != first


def _brute_verdict(op, n, lhs, rhs):
    """Exhaustive check with integer arithmetic, lexicographic order."""
    occurring = [v for v in ref.VARS if v in lhs or v in rhs]
    sign = 1 if op == "+" else -1

    def value(syms, env):
        def combine(s, args):
            if s == "mul":
                return (args[0] + sign * args[1]) % n
            return 0 if s == "e" else env[s]

        return ref.descend(syms, ref.MONOID_ARITY, combine)

    for combo in itertools.product(range(n), repeat=len(occurring)):
        env = dict(zip(occurring, combo))
        if value(lhs, env) != value(rhs, env):
            return False, {v: str(a) for v, a in env.items()}
    return True, None


@pytest.mark.parametrize("seed", [1, 2])
def test_linear_form_verdicts_match_exhaustive_search(seed):
    for e in inputs.modelcheck_inputs(seed)["equations"]:
        if e["n"] <= 12:
            assert ref.modelcheck_verdict(e["op"], e["n"], e["lhs"], e["rhs"]) == _brute_verdict(
                e["op"], e["n"], e["lhs"], e["rhs"]
            ), e["name"]


def test_reference_depth_value_and_segments():
    syms = "conj neg x impl y bot".split()
    assert ref.depth(syms, ref.BOOL_ARITY) == 3
    assert ref.top_segments(syms, ref.BOOL_ARITY) == ("conj", [["neg", "x"], ["impl", "y", "bot"]])
    assert ref.bool_value(syms, {"x": "false", "y": "true"}) == "false"
    assert ref.depth(["neg"] * 5000 + ["top"], ref.BOOL_ARITY) == 5001
    with pytest.raises(ValueError):
        ref.descend(["conj", "x"], ref.BOOL_ARITY, lambda s, a: 0)


def test_reference_enumeration_count():
    assert sum(1 for _ in ref.enumerate_syms(ref.BOOL_ARITY, inputs.ENUM_DEPTH)) == inputs.ENUM_COUNT


def test_planted_wrong_verdict_and_counterexample_are_flagged():
    import workloads

    assoc = {"op": "-", "n": 5, "lhs": "mul mul x y z".split(), "rhs": "mul x mul y z".split()}
    right = SimpleNamespace(holds=False, counterexample={"x": "0", "y": "0", "z": "1"})
    assert workloads._check_eq(assoc, right) is None
    assert workloads._check_eq(assoc, SimpleNamespace(holds=True, counterexample=None)) is not None
    wrong_cex = SimpleNamespace(holds=False, counterexample={"x": "0", "y": "1", "z": "0"})
    assert workloads._check_eq(assoc, wrong_cex) is not None

    hom = {"k": 2, "image": [0, 1, 1, 1]}
    assert workloads._check_hom(hom, SimpleNamespace(ok=False, counterexample=("mul", ("1", "1")))) is None
    assert workloads._check_hom(hom, SimpleNamespace(ok=False, counterexample=("mul", ("1", "2")))) is not None
    assert workloads._check_hom(hom, SimpleNamespace(ok=True, counterexample=None)) is not None


def test_planted_wrong_exit_code_is_flagged():
    ok = [{"code": 0, "stdout": "3\n"}]
    assert ref.cli_mismatch(ok, 0, "3\n", "") is None
    assert ref.cli_mismatch(ok, 1, "3\n", "") is not None
    assert ref.cli_mismatch(ok, 0, "4\n", "") is not None
    error = [{"code": 2, "stdout": ""}]
    assert ref.cli_mismatch(error, 2, "", "error: bad input\n") is None
    assert ref.cli_mismatch(error, 2, "", "bad input\n") is not None
    traceback = "Traceback (most recent call last):\nTypeError: unhashable type: 'list'\n"
    assert ref.cli_mismatch(error, 1, "", traceback).startswith("traceback")


def test_failed_ops_sort_as_infinite_latency():
    assert percentile([3.0, 1.0, math.inf, 2.0], 50) == 2.0
    assert percentile([3.0, 1.0, math.inf, 2.0], 90) == math.inf
    res = run.Results(known_defects={"op1"})
    for pos, (seconds, reason) in enumerate([(0.001, None), (0.002, "raised RecursionError"), (0.003, None)]):
        res.record(pos, f"op{pos}", seconds, 1, reason, "raised")
    for pos, seconds in enumerate([0.003, 0.004, 0.005, 0.006]):  # a second pass and part of a third
        reason = "raised RecursionError" if pos == 1 else None
        res.record(pos % 3, f"op{pos % 3}", seconds, 2, reason, "raised")
    res.scale(SimpleNamespace(factor=lambda j: 1.0))
    assert sorted(res.latencies()) == [0.001, 0.003, 0.003, 0.005, 0.006, math.inf, math.inf]
    # attempted and failed count inputs, whatever the number of passes;
    # the per-run counts are kept apart.
    assert (res.attempted, res.failed, res.correct) == (3, 1, True)
    assert (res.ops_run, res.ops_failed) == (7, 2)
    # Every op of the two completed passes counts, the failed ones' times too.
    assert res.ops_per_s == pytest.approx(4 / 0.018)


class _PlantedWorkload:
    """Three ops, one of which raises; its name decides whether that is a
    known defect."""

    def __init__(self, crashing_name):
        import workloads

        self.crashing_name = crashing_name
        self.reference = workloads.Reference(lambda: 1e-3, 1e-3, 0.0)

    def ops(self, tracer):
        yield "enum#0", lambda: 1, lambda out: None
        yield self.crashing_name, partial(_raise, KeyError("planted")), lambda out: None
        yield "enum#2", lambda: 2, lambda out: None if out == 2 else "wrong"

    def peak_rss_mb(self):
        return 1.0


def _raise(exc):
    raise exc


def test_a_crash_outside_the_known_defects_makes_the_run_incorrect():
    planted = run.run_loop(_PlantedWorkload("enum#1"), 0.0, run.NullTracer())
    assert not planted.correct
    assert planted.unexpected["enum#1"].startswith("raised KeyError")
    known = run.run_loop(_PlantedWorkload("chain.neg1000"), 0.0, run.NullTracer())
    assert known.correct and known.failed == 1
    assert known.failures["chain.neg1000"].startswith("raised KeyError")


def test_a_wrong_answer_on_a_known_defect_makes_the_run_incorrect():
    res = run.Results(known_defects={"defect.list_label"})
    res.record(0, "defect.list_label", 0.1, 1, "exit code 0, expected 2", "raised")
    assert not res.correct


def test_reference_scales_by_the_samples_around_an_op():
    import workloads

    times = iter([2.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    ref = workloads.Reference(lambda: next(times), 1.0, 0.5)
    assert ref.before_op() == 1  # first call always samples
    ref.after_op(0.1)
    assert ref.before_op() == 1  # not due yet
    ref.after_op(0.5)
    assert ref.before_op() == 2
    for _ in range(5):
        ref.sample()
    assert ref.factor(1) == pytest.approx(1 / 3.0)  # median of samples 0..3: 2, 2, 4, 4
    assert ref.factor(6) == pytest.approx(1 / 4.0)
    ref.exponent, ref._factors = 0.5, {}
    assert ref.factor(6) == pytest.approx(1 / 2.0)


def test_self_time_subtracts_merged_and_clipped_children():
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (2.0, 5.0, 0), (9.0, 12.0, 0), (3.0, 4.0, 2)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0])


def test_tracer_records_parent_op_and_summarises_self_time():
    tracer = Tracer()
    tracer.set_phase("ops")
    tracer.begin_op()
    assert tracer.call("work", sum, [1, 2]) == 3
    tracer.note(lambda: (5, 0))
    tracer.end_op()
    with pytest.raises(RecursionError):
        tracer.call("deep", _raise_recursion)
    assert list(tracer.parent) == [-1, 0, -1]
    assert tracer.select("work", "ops") == [1] and tracer.n[1] == 5
    summary = tracer.summary()
    op = summary["op"]
    assert op["self_ms"] == pytest.approx(op["total_ms"] - summary["work"]["total_ms"], abs=2e-3)
    assert tracer.flags[2] == 3


def _raise_recursion():
    raise RecursionError
