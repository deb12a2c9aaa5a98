#!/usr/bin/env python3
"""Compare the benchmark on a base commit and on the working tree.

    python3 scripts/ab.py --workload modelcheck --seed 1 [--base HEAD] [--pairs 10]
    python3 scripts/ab.py --pytest tests/test_x.py::test_y [--base HEAD] [--pairs 10]

Both sides run from fresh copies in a temporary directory: the base
commit extracted with ``git archive``, and the working tree this script
sits in as ``git add -A`` would take it, its tracked files and the
untracked ones that are not ignored.  Each pair runs ``bench/run.py
--trace 0`` once on each side, for ``run_seconds`` of ``BENCHMARK.json``,
and the side that runs first alternates from pair to pair.  The runs
get ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, so
each process compiles the library
from source, as in a fresh checkout that writes no bytecode, and reads
the standard library's bytecode as usual.

Per end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartiles, the ratio of the medians (work over base), the base IQR, the
pairs each side won (ties count for neither), whether the metric stays
within its bound, and whether the change may claim a gain on it: a win
in at least nine tenths of the pairs, and medians further apart than
the base IQR.  The bound reads ``unresolved`` when the base runs spread
wider than the bound and not every work run beats every base run.  The
last line is a JSON object with every run's metrics.  The exit status
is 1 when a run is not correct or has a failed input.

With ``--pytest NODEID`` each run is one ``python -m pytest NODEID`` in
its tree, with the tree's ``src`` first on ``PYTHONPATH``, and the one
metric is ``duration_s``: the summed time of the test cases its JUnit
XML report lists (setup, call and teardown).  A test that does not pass
stops the comparison.  That metric has no bound, so its bound column
reads ``-``.  Standard library and git only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent

# The metric of a --pytest comparison, in the shape of BENCHMARK.json's.
DURATION = {"name": "duration_s", "better": "lower", "bound": None}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between
    the sorted values; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(base: list[float], work: list[float], better: str) -> tuple[int, int]:
    """Pairs won by the base and by the work side; a tie counts for
    neither."""
    sign = 1 if better == "higher" else -1
    work_wins = sum(sign * (w - b) > 0 for b, w in zip(base, work))
    base_wins = sum(sign * (b - w) > 0 for b, w in zip(base, work))
    return base_wins, work_wins


def summarize(metric: dict, base: list[float], work: list[float]) -> dict:
    """The comparison of one metric over paired runs: ``metric`` is its
    entry in ``BENCHMARK.json`` (``better``, and ``bound``, which is None
    for a metric without one)."""
    if len(base) != len(work) or not base:
        raise ValueError("need the same positive number of base and work runs")
    higher = metric["better"] == "higher"
    bq1, bmed, bq3 = quartiles(base)
    wq1, wmed, wq3 = quartiles(work)
    iqr = bq3 - bq1
    base_wins, work_wins = wins(base, work, metric["better"])
    gain = wmed - bmed if higher else bmed - wmed  # positive when the work side is better
    bound = metric["bound"]
    if bound is None:
        verdict = None
    elif -gain > bmed * bound:  # a larger loss than the bound allows
        verdict = "fails"
    elif bmed and iqr / abs(bmed) > bound and not (
        min(work) > max(base) if higher else max(work) < min(base)
    ):
        verdict = "unresolved"
    else:
        verdict = "holds"
    return {
        "base": (bq1, bmed, bq3),
        "work": (wq1, wmed, wq3),
        "ratio": wmed / bmed if bmed else math.inf,
        "base_iqr": iqr,
        "base_wins": base_wins,
        "work_wins": work_wins,
        "bound": verdict,
        "claim": 10 * work_wins >= 9 * len(base) and gain > iqr,
    }


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def snapshot(dest: Path) -> None:
    """The working tree's files that ``git add -A`` would take, copied
    under ``dest``: no bytecode or other ignored leftovers."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run(spec: dict, tree: Path, args, env: dict) -> dict:
    """One untraced benchmark run in ``tree``; its result object."""
    argv = [*spec["command"], "--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
            "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: run in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def junit_seconds(report: str) -> float:
    """The summed ``time`` of the test cases of a JUnit XML report, every
    one of which must have passed; ValueError otherwise, or when the
    report lists none."""
    total, count = 0.0, 0
    for case in ElementTree.fromstring(report).iter("testcase"):
        for child in case:
            if child.tag in ("failure", "error", "skipped"):
                raise ValueError(f"{case.get('classname')}::{case.get('name')}: {child.tag}")
        total += float(case.get("time"))
        count += 1
    if not count:
        raise ValueError("the report lists no test case")
    return total


def run_pytest(nodeid: str, tree: Path, env: dict) -> dict:
    """One pytest run of ``nodeid`` in ``tree``, as a result object with
    the one metric ``duration_s``."""
    xml = tree / "ab-junit.xml"
    path = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={xml}", nodeid]
    proc = subprocess.run(argv, cwd=tree, env=dict(env, PYTHONPATH=path), capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: pytest in {tree} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    seconds = junit_seconds(xml.read_text(encoding="utf-8"))
    xml.unlink()
    return {"correct": True, "failed": 0, "metrics": {DURATION["name"]: {"value": seconds}}}


def fmt(x: float) -> str:
    return f"{x:.4g}"


def spread(q: tuple[float, float, float]) -> str:
    """Quartiles as ``median [q1, q3]``."""
    return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """The table of the given metrics over the paired runs."""
    lines = [f"{'metric':<16} {'base median [q1, q3]':<34} {'work median [q1, q3]':<34} "
             f"{'ratio':>6} {'base IQR':>9} {'wins b/w':>8}  {'bound':<16} claim"]
    for metric in metrics:
        name = metric["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        work = [r["metrics"][name]["value"] for r in runs["work"]]
        s = summarize(metric, base, work)
        wins_bw = f"{s['base_wins']}/{s['work_wins']}"
        bound = "-" if s["bound"] is None else f"{s['bound']} ({metric['bound']:.0%})"
        lines.append(
            f"{name:<16} {spread(s['base']):<34} {spread(s['work']):<34} {s['ratio']:>6.3f} "
            f"{fmt(s['base_iqr']):>9} {wins_bw:>8}  {bound:<16} {'yes' if s['claim'] else 'no'}"
        )
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    what.add_argument("--pytest", metavar="NODEID", help="pair the duration of one test instead")
    parser.add_argument("--seed", type=int, help="the workload's seed")
    parser.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    if args.pytest:
        metrics, shown = [DURATION], [DURATION["name"]]
        title = f"{args.pytest}: {args.pairs} pairs"
    else:
        metrics, shown = spec["end_to_end"], ["ops_per_s", "latency_p50_ms"]
        title = f"{args.workload}, seed {args.seed}: {args.pairs} pairs of {spec['run_seconds']:g} s"
    runs: dict[str, list[dict]] = {"base": [], "work": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "work": Path(tmp) / "work"}
        extract(args.base, trees["base"])
        snapshot(trees["work"])
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPYCACHEPREFIX", None)
        for i in range(args.pairs):
            for side in ("base", "work") if i % 2 == 0 else ("work", "base"):
                tree = trees[side]
                runs[side].append(run_pytest(args.pytest, tree, env) if args.pytest else run(spec, tree, args, env))
                m = runs[side][-1]["metrics"]
                print(f"pair {i + 1} {side}: " + ", ".join(f"{k} {fmt(m[k]['value'])}" for k in shown),
                      file=sys.stderr, flush=True)
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                         capture_output=True, text=True).stdout.strip()
    print(f"{title}, base {args.base} ({sha}) against the working tree")
    print("\n".join(report(metrics, runs)))
    bad = [(side, i + 1) for side, rs in runs.items() for i, r in enumerate(rs)
           if r.get("correct") is not True or r.get("failed") != 0]
    print("every run correct with failed 0" if not bad else f"runs not correct or with failures: {bad}")
    print(json.dumps({side: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
                      for side, rs in runs.items()}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
