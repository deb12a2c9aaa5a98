"""Per-layer metrics of a traced run, computed from its spans.

A metric about a function is taken from the spans of the traced ops when
the ops call that function, and otherwise from the direct pass over the
same workload's inputs; ``sources`` says which.
"""

from __future__ import annotations

import statistics

from spans import FAILS, RECURSION

# metric -> (scale, span names): the median span duration
MEDIANS = {
    "term_vm.validate_us": (1e6, ["term_vm.term_from_syms"]),
    "term_vm.fold_us": (1e6, ["term_vm.depth"]),
    "term_vm.decompose_us": (1e6, ["term_vm.term_decompose"]),
    "term_vm.build_us": (1e6, ["term_vm.build_term"]),
    "free_algebra.evaluate_us": (1e6, ["free_algebra.evaluate"]),
    "equations.holds_ms": (1e3, ["equations.holds"]),
    "algebra.check_hom_ms": (1e3, ["algebra.check_hom"]),
    "jsonio.parse_ms": (1e3, ["jsonio.load_json"]),
    "jsonio.from_obj_ms": (1e3, ["jsonio.algebra_from_obj", "jsonio.signature_from_obj", "jsonio.eqspec_from_obj"]),
    "cli.main_ms": (1e3, ["cli.main"]),
    "cli.bare_python_ms": (1e3, ["cli.bare_python"]),
}

# metric -> span name: work count over time spent
RATES = {
    "term_vm.symbols_per_s": "term_vm.term_from_syms",
    "free_algebra.enumerate_terms_per_s": "free_algebra.enumerate_terms",
    "equations.assignments_per_s": "equations.holds",
    "algebra.hom_pairs_per_s": "algebra.check_hom",
    "algebra.build_rows_per_s": "algebra.FiniteAlgebra",
}


def _pick(tracer, names) -> tuple[str, list[int]]:
    """Spans with these names from the ops phase, or else the direct pass."""
    for phase in ("ops", "direct"):
        found = [i for nm in names for i in tracer.select(nm, phase)]
        if found:
            return phase, found
    return "none", []


def layer_metrics(tracer, cache: dict[str, tuple[int, int]], overhead_ratio: float):
    """Every per-layer metric of BENCHMARK.json, and the phase each came from.

    ``cache`` maps a phase to its (hits, misses) delta of the decompose
    cache.
    """
    values: dict[str, float] = {}
    sources: dict[str, str] = {}

    def dur(i):
        return tracer.end[i] - tracer.start[i]

    for metric, (scale, names) in MEDIANS.items():
        sources[metric], idx = _pick(tracer, names)
        values[metric] = statistics.median(dur(i) for i in idx) * scale if idx else 0.0
    for metric, name in RATES.items():
        sources[metric], idx = _pick(tracer, [name])
        busy = sum(dur(i) for i in idx)
        values[metric] = sum(tracer.n[i] for i in idx) / busy if busy else 0.0

    sources["equations.first_cex_ms"], idx = _pick(tracer, ["equations.holds"])
    fails = [dur(i) for i in idx if tracer.flags[i] & FAILS]
    values["equations.first_cex_ms"] = statistics.median(fails) * 1e3 if fails else 0.0

    src, idx = _pick(tracer, ["free_algebra.evaluate", "equations.holds"])
    sources["free_algebra.evaluations"] = src
    holds_id = tracer.names.index("equations.holds") if "equations.holds" in tracer.names else -1
    values["free_algebra.evaluations"] = sum(2 * tracer.n[i] if tracer.name[i] == holds_id else 1 for i in idx)

    phase = "ops" if sum(cache.get("ops", (0, 0))) else "direct"
    hits, misses = cache.get(phase, (0, 0))
    values["term_vm.decompose_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    sources["term_vm.decompose_cache_hit_ratio"] = phase

    values["term_vm.recursion_errors"] = sum(1 for f in tracer.flags if f & RECURSION)
    sources["term_vm.recursion_errors"] = "ops+direct"

    sources["cli.import_ms"], idx = _pick(tracer, ["cli.import"])
    imports = [dur(i) for i in idx]
    values["cli.import_ms"] = (statistics.median(imports) * 1e3 - values["cli.bare_python_ms"]) if imports else 0.0

    values["trace.overhead_ratio"] = overhead_ratio
    sources["trace.overhead_ratio"] = "ops"
    return values, sources
