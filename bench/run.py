#!/usr/bin/env python3
"""The ualg benchmark: one seeded workload per run.

    python3 bench/run.py --workload {modelcheck,termspace,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the library is imported from
``src/``, and without ``src/ualg`` the command exits non-zero before
printing a result.  The last line of stdout is the result object; the
line before it is a report with the seed, the Python version, the CPU
count, failures by input name and, for traced runs, self times per
span.  DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path
from time import perf_counter, thread_time

from inputs import KNOWN_DEFECTS
from layers import layer_metrics
from spans import RAISED, NullTracer, Tracer, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_SAMPLES = 11  # fresh processes per run whose set-up time gives setup_s
BARE_SAMPLES = 5  # bare-interpreter runs per run, for cli.bare_python_ms


def load_library() -> None:
    """Put this checkout's ``src`` first on the path and import ualg from it."""
    src = ROOT / "src"
    if not (src / "ualg" / "__init__.py").is_file():
        raise SystemExit(f"error: no ualg package under {src}")
    sys.path.insert(0, str(src))
    import ualg

    if Path(ualg.__file__).resolve().parent != (src / "ualg").resolve():
        raise SystemExit(f"error: imported ualg from {ualg.__file__}, not from {src}")


class Results:
    """Outcomes of the ops of one timed loop.

    The loop runs the same sequence of ops pass after pass, so each op
    position has one sample per pass.  Throughput is taken over every op
    of the completed passes, so the partial last pass does not tilt the
    mix; latency percentiles are taken over every op the loop ran.  Pauses
    such as garbage collections count in both, wherever they fall.

    A failure is expected only when the op crashes on one of
    ``known_defects``; any other failure makes the run incorrect.

    ``attempted`` and ``failed`` count inputs, that is op positions: the
    first pass always completes, so every input is attempted, and an input
    fails if it failed in any pass.  Both then depend on the seed alone,
    not on how many passes the machine's speed allowed.  ``ops_run`` and
    ``ops_failed`` count every op the loop ran.
    """

    def __init__(self, known_defects=frozenset()):
        self.known_defects = known_defects
        self.passes: list[array] = []  # per pass, CPU seconds per op position
        self.refs: list[array] = []  # per pass, reference samples before each op
        self.pass_failed: list[int] = []  # per pass, ops that failed
        self.failed_at: set[tuple[int, int]] = set()  # (pass, op position) of each failure
        self.failures: dict[str, str] = {}  # input name -> first reason
        self.unexpected: dict[str, str] = {}  # the same, for unexpected failures
        self.ops_run = 0
        self.ops_failed = 0
        self.cpu_s = 0.0  # summed op CPU times, before scaling
        self.wall_s = 0.0  # wall time of the whole loop
        self.peak_rss_mb = 0.0

    def record(self, pos: int, name: str, seconds: float, ref: int, reason: str | None, raised_prefix: str) -> None:
        if pos == 0:
            self.passes.append(array("d"))
            self.refs.append(array("i"))
            self.pass_failed.append(0)
        self.passes[-1].append(seconds)
        self.refs[-1].append(ref)
        self.cpu_s += seconds
        self.ops_run += 1
        if reason is None:
            return
        self.ops_failed += 1
        self.pass_failed[-1] += 1
        self.failed_at.add((len(self.passes) - 1, pos))
        self.failures.setdefault(name, reason)
        if name not in self.known_defects or not reason.startswith(raised_prefix):
            self.unexpected.setdefault(name, reason)

    @property
    def attempted(self) -> int:
        return len(self.passes[0])

    @property
    def failed_positions(self) -> set[int]:
        return {pos for _, pos in self.failed_at}

    @property
    def failed(self) -> int:
        return len(self.failed_positions)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def scale(self, reference) -> None:
        """Scale every op time to the reference speed, once the loop is over."""
        self.passes = [array("d", (t * reference.factor(j) for t, j in zip(p, r))) for p, r in zip(self.passes, self.refs)]

    @property
    def ops_per_s(self) -> float:
        """Correct ops per scaled second, over the completed passes."""
        full = len(self.passes[0])
        done = [(p, f) for p, f in zip(self.passes, self.pass_failed) if len(p) == full]
        return sum(len(p) - f for p, f in done) / sum(sum(p) for p, _ in done)

    def latencies(self) -> list[float]:
        """Scaled seconds of every op the loop ran, +inf where it failed."""
        return [
            math.inf if (k, i) in self.failed_at else t for k, p in enumerate(self.passes) for i, t in enumerate(p)
        ]


def run_loop(workload, seconds: float, tracer) -> Results:
    """Passes over the workload's ops until ``seconds`` of wall time have
    gone by; the first pass always completes, so every op has a sample.

    An op's time is the CPU time it takes, its thread's or that of the
    process it runs, scaled by the workload's reference job (see
    ``workloads.Reference``).  CPU time leaves out what the virtual
    machine's host gives to other guests.
    """
    from workloads import RAISED_PREFIX

    spawns = getattr(workload, "spawns_children", False)
    reference = workload.reference
    res = Results(KNOWN_DEFECTS)
    wall0, deadline = perf_counter(), perf_counter() + seconds
    first_done = False
    while True:
        for pos, (name, thunk, check) in enumerate(workload.ops(tracer)):
            if first_done and perf_counter() >= deadline:
                break
            ref = reference.before_op()
            tracer.begin_op()
            t0 = thread_time()
            try:
                out = thunk()
            except Exception as exc:  # a failing op is an outcome to count
                cpu = thread_time() - t0
                tracer.end_op(RAISED)
                reason = f"{RAISED_PREFIX} {type(exc).__name__}: {str(exc)[:100]}"
            else:
                cpu = out[4] if spawns else thread_time() - t0
                tracer.end_op()
                reason = check(out)
            reference.after_op(cpu)
            res.record(pos, name, cpu, ref, reason, RAISED_PREFIX)
        first_done = True
        if perf_counter() >= deadline:
            break
    res.wall_s = perf_counter() - wall0
    # Read before the summaries below allocate per-op lists.
    res.peak_rss_mb = workload.peak_rss_mb()
    reference.sample()
    res.scale(reference)
    return res


def measure_setup(args, env, work) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, from spawn to the first op being
    ready: scaled CPU time and wall time, per sample.  The CPU time is
    scaled by bare interpreter starts run between the set-up processes,
    as ``cli`` ops are (see ``workloads.bare_reference``); the process
    start is most of the set-up work, and the kernel job times short
    processes poorly."""
    from workloads import bare_reference, run_child

    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    reference = bare_reference(env, work, every_s=0.0)
    cpu, refs, wall = [], [], []
    for _ in range(SETUP_SAMPLES):
        refs.append(reference.before_op())
        t0 = perf_counter()
        code, out, _, _, _ = run_child(argv, env, work)
        wall.append(perf_counter() - t0)
        if code != 0 or not out.startswith("ready "):
            raise SystemExit("error: set-up process failed")
        cpu.append(float(out.split()[1]))
    reference.sample()
    return [t * reference.factor(j) for t, j in zip(cpu, refs)], wall


def bare_python_ms(env, work) -> list[float]:
    from workloads import run_child

    out = []
    for _ in range(BARE_SAMPLES):
        t0 = perf_counter()
        run_child([sys.executable, "-c", "pass"], env, work)
        out.append((perf_counter() - t0) * 1e3)
    return out


def base_report(args, res: Results) -> dict:
    beyond = res.ops_run - math.ceil(0.99 * res.ops_run)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(res.passes),
        "ops_per_pass": len(res.passes[0]),
        "ops_run": res.ops_run,
        "ops_failed": res.ops_failed,
        "fail_ratio": res.ops_failed / res.ops_run,
        "inputs": res.attempted,
        "inputs_failed": res.failed,
        "failures": res.failures,
        "unexpected_failures": res.unexpected,
        "latency_p99_ms": percentile_ms(res, 99) if beyond >= 10 else None,
        "latency_p99_samples_beyond": beyond,
        "loop_cpu_s": res.cpu_s,
        "loop_wall_s": res.wall_s,
    }


def percentile_ms(res: Results, q: float) -> float:
    return percentile(res.latencies(), q) * 1e3


def untraced(args, work: Path) -> tuple[dict, dict]:
    from workloads import WORKLOADS, child_env

    env = child_env(ROOT)
    setup, setup_wall = measure_setup(args, env, work)
    wl = WORKLOADS[args.workload](args.seed, work)
    res = run_loop(wl, args.seconds, NullTracer())
    bare = bare_python_ms(env, work)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": res.ops_per_s,
        "latency_p50_ms": percentile_ms(res, 50),
        "latency_p90_ms": percentile_ms(res, 90),
        "peak_rss_mb": res.peak_rss_mb,
    }
    report = base_report(args, res)
    report.update(
        setup_scaled_samples_s=setup,
        setup_wall_samples_s=setup_wall,
        reference={
            "nominal_s": wl.reference.nominal_s,
            "median_s": statistics.median(wl.reference.samples),
            "samples": len(wl.reference.samples),
        },
        **{"cli.bare_python_ms": statistics.median(bare)},
    )
    return report, result_object(res.correct, res.attempted, res.failed, values, SPEC["end_to_end"])


def traced(args, work: Path) -> tuple[dict, dict]:
    from workloads import WORKLOADS, child_env, decompose_cache_counts, run_child, run_probe

    wl = WORKLOADS[args.workload](args.seed, work)
    plain = run_loop(wl, args.seconds / 2, NullTracer())
    tracer = Tracer()
    cache = {}
    tracer.set_phase("ops")
    before = decompose_cache_counts()
    res = run_loop(wl, args.seconds / 2, tracer)
    after = decompose_cache_counts()
    cache["ops"] = (after[0] - before[0], after[1] - before[1])
    tracer.set_phase("direct")
    run_probe(wl.probe(), tracer)
    env = child_env(ROOT)
    for _ in range(BARE_SAMPLES):
        tracer.call("cli.bare_python", run_child, [sys.executable, "-c", "pass"], env, work)
        tracer.call("cli.import", run_child, [sys.executable, "-c", "import ualg.cli"], env, work)
    end = decompose_cache_counts()
    cache["direct"] = (end[0] - after[0], end[1] - after[1])

    values, sources = layer_metrics(tracer, cache, res.ops_per_s / plain.ops_per_s)
    report = base_report(args, res)
    report.update(
        untraced_ops_per_s=plain.ops_per_s,
        traced_ops_per_s=res.ops_per_s,
        sources=sources,
        spans=tracer.summary(),
        **{"cli.bare_python_ms": values["cli.bare_python_ms"]},
    )
    report["unexpected_failures"] = {**plain.unexpected, **res.unexpected}
    correct = plain.correct and res.correct
    failed = len(plain.failed_positions | res.failed_positions)
    return report, result_object(correct, res.attempted, failed, values, SPEC["per_layer"])


def result_object(correct: bool, attempted: int, failed: int, values: dict, listed: list[dict]) -> dict:
    """The result object, with the metrics ``BENCHMARK.json`` lists."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_library()

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        if args.setup_only:
            from workloads import WORKLOADS

            WORKLOADS[args.workload](args.seed, work)
            print("ready", time.process_time(), flush=True)
            return 0
        report, result = (traced if args.trace else untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
