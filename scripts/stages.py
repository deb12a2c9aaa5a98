#!/usr/bin/env python3
"""Time the termspace and model-checking stages on a base commit and on the working tree, in one process.

    python3 scripts/stages.py [--base HEAD] [--rounds 9]

The base commit's ``src/ualg``, extracted with ``git archive``, and the
working tree's load side by side as two packages, ``ualg_base`` and
``ualg_work``; ``ualg`` imports itself only relatively, so each copy
runs its own code.  Each side builds its own inputs: the bool signature
over x, y, z, its 21,765 terms of depth at most 3, the bool algebra,
and the eight assignments of x, y, z, cycled over the terms; and the
modelcheck workload's seed-1 data from ``bench/inputs.py``, its 240
monoid equations over Z mod n and its 20 maps Z mod 2k -> Z mod k.
Before timing, both sides run every stage's calls once and must agree
on every term, depth, split, rebuilt term, value and verdict; the
script exits with status 1 when they do not.

A stage is one pass: the six calls that each termspace op makes, over
every term (``enumerate_terms``, one term per step; ``term_from_syms``
on the term's symbols as a list; ``depth``; ``term_decompose``;
``build_term`` on the split; ``evaluate``), ``pipeline``, the six in
turn per term, as one op runs them, and the two op classes of the
modelcheck workload: ``holds`` over every equation and ``check_hom``
over every map, each repeated so that a pass lasts about as long as a
term stage.  A pass drains an iterator of the calls, mostly a ``map``,
through a ``deque``, so the loop itself adds little, and it is timed in
thread time after a collection.  Each round times every stage on both
sides back to back, and the side that goes first alternates from round
to round.  Per stage it prints the median µs per call on each side, the
median of the per-round ratios (work over base) and the rounds the
working tree won.  Standard library and git only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from collections import deque
from itertools import cycle, islice, product, repeat
from pathlib import Path

from ab import ROOT, extract

sys.path.insert(0, str(ROOT / "bench"))  # inputs imports its neighbour reference
import inputs  # noqa: E402

STAGES = (
    "enumerate_terms", "term_from_syms", "depth", "term_decompose", "build_term", "evaluate", "pipeline",
    "holds", "check_hom",
)

# The modelcheck workload's data, and how many times a pass runs each
# model-checking call, so that it lasts about as long as a term stage.
MODELCHECK = inputs.modelcheck_inputs(1)
REPEATS = {"holds": 20, "check_hom": 80}


def load(src: Path, name: str):
    """The package whose ``__init__.py`` is in ``src``, imported as
    ``name``; its submodules import as ``name.<module>``, none of
    them kept from an earlier load under that name."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class Side:
    """One copy of the package, its inputs and its stages."""

    def __init__(self, src: Path, name: str, max_depth: int):
        load(src, name)
        vm, ex, sig, terms, fa, eqs, mc = (
            importlib.import_module(f"{name}.{m}")
            for m in ("term_vm", "examples", "signature", "terms", "free_algebra", "equations", "modelcheck")
        )
        self.vsig = vsig = sig.vsignature(ex.bool_signature(), ex.bool_varspec())
        self.algebra = algebra = ex.bool_algebra()
        self.enumerate = lambda: vm.enumerate_terms(vsig, "u", max_depth)
        self.term_from_syms, self.depth = vm.term_from_syms, vm.depth
        self.term_decompose, self.build_term, self.evaluate = vm.term_decompose, terms.build_term, fa.evaluate
        self.terms = list(self.enumerate())
        self.syms = [list(t.syms) for t in self.terms]
        self.splits = [(vsig, *vm.term_decompose(t)) for t in self.terms]
        labels = product(("false", "true"), repeat=3)
        self.assignments = list(islice(cycle([dict(zip("xyz", bits)) for bits in labels]), len(self.terms)))
        self.holds, self.check_hom = eqs.holds, mc.check_hom
        self.varspec = ex.monoid_varspec()
        msig = sig.vsignature(ex.monoid_signature(), self.varspec)
        build, algebras = {"+": ex.additive_mod_algebra, "-": ex.subtraction_mod_algebra}, {}

        def algebra(op: str, n: int):
            """Z mod n under ``op``, one algebra per pair, as the workload shares them."""
            if (op, n) not in algebras:
                algebras[op, n] = build[op](n)
            return algebras[op, n]

        self.equations = []
        for e in MODELCHECK["equations"]:
            lhs, rhs = (vm.term_from_syms(msig, e[side]) for side in ("lhs", "rhs"))
            self.equations.append((algebra(e["op"], e["n"]), eqs.Equation(e["name"], "u", lhs, rhs)))
        self.homs = [
            ({"u": {str(i): str(v) for i, v in enumerate(h["image"])}}, algebra("+", 2 * h["k"]), algebra("+", h["k"]))
            for h in MODELCHECK["homs"]
        ]

    def op(self, t, assignment):
        """What one termspace op runs on an enumerated term."""
        u = self.term_from_syms(self.vsig, list(t.syms))
        d = self.depth(u)
        nm, args = self.term_decompose(u)
        rebuilt = self.build_term(self.vsig, nm, args)
        value = self.evaluate(self.algebra, assignment, u)
        return u.syms, u.sort, d, nm, tuple(a.syms for a in args), rebuilt.syms, value

    def verdicts(self) -> tuple[list, list]:
        """Every equation's and every map's verdict, as plain data."""
        holds = [tuple(self.holds(algebra, eq, self.varspec)) for algebra, eq in self.equations]
        homs = [tuple(self.check_hom(*h)) for h in self.homs]
        return holds, homs

    def calls(self) -> dict[str, int]:
        """Per stage, the number of calls one pass makes."""
        return dict.fromkeys(STAGES, len(self.terms)) | {
            "holds": len(self.equations) * REPEATS["holds"], "check_hom": len(self.homs) * REPEATS["check_hom"],
        }

    def passes(self) -> dict:
        """Per stage, a callable that returns the iterator of one pass."""
        holds, homs = self.equations * REPEATS["holds"], self.homs * REPEATS["check_hom"]
        return {
            "enumerate_terms": self.enumerate,
            "term_from_syms": lambda: map(self.term_from_syms, repeat(self.vsig), self.syms),
            "depth": lambda: map(self.depth, self.terms),
            "term_decompose": lambda: map(self.term_decompose, self.terms),
            "build_term": lambda: (self.build_term(*split) for split in self.splits),
            "evaluate": lambda: map(self.evaluate, repeat(self.algebra), self.assignments, self.terms),
            "pipeline": lambda: map(self.op, self.enumerate(), self.assignments),
            "holds": lambda: (self.holds(algebra, eq, self.varspec) for algebra, eq in holds),
            "check_hom": lambda: (self.check_hom(*h) for h in homs),
        }


def seconds(one_pass) -> float:
    """Thread time of draining one pass."""
    gc.collect()
    start = time.thread_time()
    deque(one_pass(), 0)
    return time.thread_time() - start


def compare(base_src: Path, work_src: Path, rounds: int, max_depth: int = 3) -> dict[str, dict]:
    """Per stage: the median µs per call on each side, the median ratio
    of work over base and the rounds the work side won."""
    sides = {side: Side(src, f"ualg_{side}", max_depth) for side, src in (("base", base_src), ("work", work_src))}
    outputs = {side: list(map(s.op, s.enumerate(), s.assignments)) for side, s in sides.items()}
    if outputs["base"] != outputs["work"]:
        raise SystemExit("error: the two trees disagree on the pipeline's results")
    if sides["base"].verdicts() != sides["work"].verdicts():
        raise SystemExit("error: the two trees disagree on a model-checking verdict")
    passes = {side: s.passes() for side, s in sides.items()}
    calls = sides["base"].calls()
    times: dict[str, dict[str, list[float]]] = {stage: {"base": [], "work": []} for stage in STAGES}
    for r in range(rounds):
        for stage in STAGES:
            for side in ("base", "work") if r % 2 == 0 else ("work", "base"):
                times[stage][side].append(seconds(passes[side][stage]))
    rows = {}
    for stage, t in times.items():
        ratios = [w / b for b, w in zip(t["base"], t["work"])]
        rows[stage] = {
            "base_us": statistics.median(t["base"]) / calls[stage] * 1e6,
            "work_us": statistics.median(t["work"]) / calls[stage] * 1e6,
            "ratio": statistics.median(ratios),
            "wins": sum(x < 1 for x in ratios),
        }
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no bytecode in either tree
    with tempfile.TemporaryDirectory(prefix="stages-") as tmp:
        extract(args.base, Path(tmp))
        rows = compare(Path(tmp) / "src" / "ualg", ROOT / "src" / "ualg", args.rounds)
    print(f"library stages, {args.rounds} rounds, base {args.base} against the working tree (µs per call)")
    print(f"{'stage':<16} {'base':>8} {'work':>8} {'ratio':>7} {'wins':>6}")
    for stage, row in rows.items():
        print(f"{stage:<16} {row['base_us']:>8.3f} {row['work_us']:>8.3f} {row['ratio']:>7.3f} "
              f"{row['wins']:>3}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
