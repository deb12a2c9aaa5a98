"""The three workloads: set-up, one pass of ops, and the direct layer
passes of a traced run.

``ops(tracer)`` yields one pass of (name, thunk, check) triples.  The
thunk runs inside the timed window and returns the op's output;
``check(output)`` runs outside it and returns None, or why the output
disagrees with the reference.  Generator code between yields also runs
outside the timed windows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import thread_time

import inputs
import reference as ref
from spans import FAILS, RECURSION

from ualg import cli, examples as ex
from ualg.algebra import FiniteAlgebra, check_hom
from ualg.equations import Equation, holds
from ualg.free_algebra import enumerate_terms, evaluate
from ualg.jsonio import (
    algebra_from_obj,
    eqspec_from_obj,
    load_json,
    signature_from_obj,
    varspec_from_obj,
)
from ualg.signature import make_varspec, vsignature
from ualg.term_vm import build_term, depth, term_decompose, term_from_syms

RAISED_PREFIX = "raised"  # a check reason with this prefix is a crash, not a wrong answer
DATA = Path(cli.__file__).resolve().parent / "data"
ZEROS = {v: "0" for v in ref.VARS}
ZEROS_BOOL = {v: "false" for v in ref.VARS}


# -- traced calls shared by ops and direct passes -----------------------------

def term_pipeline(tracer, vsig, syms, algebra, assignment):
    """Validate raw symbols, fold to the depth, decompose and rebuild, and
    evaluate when an algebra is given."""
    t = tracer.call("term_vm.term_from_syms", term_from_syms, vsig, syms)
    tracer.note(lambda: (len(syms), 0))
    d = tracer.call("term_vm.depth", depth, t)
    nm, args = tracer.call("term_vm.term_decompose", term_decompose, t)
    rebuilt = tracer.call("term_vm.build_term", build_term, vsig, nm, args)
    value = None if algebra is None else tracer.call("free_algebra.evaluate", evaluate, algebra, assignment, t)
    return t.sort, d, rebuilt.syms, value


def assignments_needed(algebra, eq, varspec, verdict) -> int:
    """Assignments ``holds`` must try for this verdict: the whole product
    when the equation holds, else the counterexample's lexicographic
    index plus 1."""
    names = [v for v in varspec.vars if v in eq.lhs.syms or v in eq.rhs.syms]
    index, total = 0, 1
    for v in names:
        dom = algebra.elements(varspec.sort_of(v))
        total *= len(dom)
        if not verdict.holds:
            index = index * len(dom) + dom.index(verdict.counterexample[v])
    return total if verdict.holds else index + 1


def hom_pairs_needed(src, verdict) -> int:
    """Argument tuples ``check_hom`` must try, in operation order and then
    lexicographic order, up to and including the first failure."""
    sig = src.signature
    count = 0
    for nm in sig.ops:
        doms = [src.elements(a) for a in sig.arity_of(nm)]
        if not verdict.ok and verdict.counterexample[0] == nm:
            index = 0
            for dom, x in zip(doms, verdict.counterexample[1]):
                index = index * len(dom) + dom.index(x)
            return count + index + 1
        size = 1
        for dom in doms:
            size *= len(dom)
        count += size
    return count


def traced_holds(tracer, algebra, eq, varspec):
    verdict = tracer.call("equations.holds", holds, algebra, eq, varspec)
    tracer.note(lambda: (assignments_needed(algebra, eq, varspec, verdict), 0 if verdict.holds else FAILS))
    return verdict


def traced_check_hom(tracer, maps, src, dst):
    verdict = tracer.call("algebra.check_hom", check_hom, maps, src, dst)
    tracer.note(lambda: (hom_pairs_needed(src, verdict), 0 if verdict.ok else FAILS))
    return verdict


def clear_decompose_cache() -> None:
    clear = getattr(term_decompose, "cache_clear", None)
    if clear is not None:
        clear()


def decompose_cache_counts() -> tuple[int, int]:
    info = getattr(term_decompose, "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


def run_child(argv, env, work) -> tuple[int, str, str, int, float]:
    """Run a process to completion; exit code, stdout, stderr, its own
    peak RSS in KiB and its CPU seconds.  stderr goes to a file so the
    two pipes cannot block each other."""
    with tempfile.TemporaryFile(dir=work) as err_file:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_file, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out.decode(), err.decode(errors="replace"), usage.ru_maxrss, cpu


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


_KERNEL_RNG = random.Random("reference kernel")
_KERNEL_BOOL = inputs.bool_term(_KERNEL_RNG, 60, 12)
_KERNEL_MONOID = inputs.monoid_term(_KERNEL_RNG, 30)


def kernel_cpu() -> float:
    """CPU seconds of a fixed pure-Python job: the benchmark's own
    dict-table evaluator and linear forms on two fixed terms.  It does
    the same kinds of work as the library: calls, small tuples and
    lists, dict lookups."""
    t0 = thread_time()
    for _ in range(4):
        ref.bool_value(_KERNEL_BOOL, ZEROS_BOOL)
        ref.linear_form(_KERNEL_MONOID, "-")
    return thread_time() - t0


class Reference:
    """A fixed job timed between ops, so that op times can be scaled to a
    reference machine speed.

    Shared machines change speed by up to 2x within minutes, in CPU time
    as well as in wall time; the ratio of an op's time to a nearby
    reference job's time stays within a few percent.  An op's CPU time t
    is reported as ``t * (nominal_s / m) ** exponent``, with m the median
    of the three reference samples before the op and the three after it.
    An exponent below 1 is for a job that slows more than the ops do
    when the machine slows.
    """

    def __init__(self, job, nominal_s: float, every_s: float, exponent: float = 1.0):
        self.job = job
        self.nominal_s = nominal_s
        self.every_s = every_s  # op time between samples
        self.exponent = exponent
        self.samples: list[float] = []
        self._since = math.inf
        self._factors: dict[int, float] = {}

    def before_op(self) -> int:
        """Time the job if ``every_s`` of op time has passed since it was
        last timed; return the number of samples so far.  Call it between
        ops."""
        if self._since >= self.every_s:
            self.sample()
        return len(self.samples)

    def sample(self) -> None:
        self.samples.append(self.job())
        self._since = 0.0

    def after_op(self, op_seconds: float) -> None:
        self._since += op_seconds

    def factor(self, j: int) -> float:
        """Scale for an op timed after the first ``j`` samples."""
        if j not in self._factors:
            m = statistics.median(self.samples[max(0, j - 3):j + 3])
            self._factors[j] = (self.nominal_s / m) ** self.exponent
        return self._factors[j]


KERNEL_NOMINAL_S = 1e-3
# Over 2 s windows on a 2-CPU virtual machine whose speed swung by 10-15%,
# library ops (holds, and term_from_syms/depth/evaluate) took time in
# proportion to the kernel's to the power 0.8 (fitted 0.83 for both):
# the kernel slows more than they do.  Scaling with that power left a
# 2% coefficient of variation in the op/kernel ratio, against 3.5% with
# plain proportion.
KERNEL_EXPONENT = 0.8
BARE_NOMINAL_S = 0.070


def kernel_reference() -> Reference:
    return Reference(kernel_cpu, KERNEL_NOMINAL_S, 0.025, KERNEL_EXPONENT)


def bare_reference(env, work, every_s: float) -> Reference:
    """A bare interpreter start as the reference job: the part of every
    new process that ualg does not control."""
    bare = [sys.executable, "-c", "pass"]
    return Reference(lambda: run_child(bare, env, work)[4], BARE_NOMINAL_S, every_s)


@dataclass
class Probe:
    """Inputs for the direct layer passes of a traced run, covering the
    layers that a workload's ops reach only through another layer or not
    at all."""

    terms: list = field(default_factory=list)      # (vsig, syms, algebra | None, assignment)
    equations: list = field(default_factory=list)  # (algebra, equation, varspec)
    homs: list = field(default_factory=list)       # (maps, src, dst)
    enums: list = field(default_factory=list)      # (signature, sort, max_depth)
    tables: list = field(default_factory=list)     # (signature, carriers, tables)
    files: list = field(default_factory=list)      # (kind, path, signature | None)
    argvs: list = field(default_factory=list)      # ualg command lines


def _table_args(obj: dict):
    """Signature, carriers and tables of an algebra in the JSON format,
    read by the benchmark so that only the table build is timed."""
    sig = signature_from_obj(obj["signature"])
    tables = {nm: {tuple(r["args"]): r["result"] for r in rows} for nm, rows in obj["operations"].items()}
    return sig, obj["carriers"], tables


def run_probe(probe: Probe, tracer) -> None:
    """One pass over every probe input; failures are recorded on spans."""
    attempts = (
        [partial(term_pipeline, tracer, *t) for t in probe.terms]
        + [partial(traced_holds, tracer, *e) for e in probe.equations]
        + [partial(traced_check_hom, tracer, *h) for h in probe.homs]
        + [partial(_probe_enum, tracer, *e) for e in probe.enums]
        + [partial(_probe_build, tracer, *t) for t in probe.tables]
        + [partial(_probe_file, tracer, *f) for f in probe.files]
        + [partial(_probe_main, tracer, a) for a in probe.argvs]
    )
    for attempt in attempts:
        try:
            attempt()
        except Exception:  # the span carries the failure
            pass


def _probe_enum(tracer, sig, sort, max_depth):
    terms = tracer.call("free_algebra.enumerate_terms", lambda: list(enumerate_terms(sig, sort, max_depth)))
    tracer.note(lambda: (len(terms), 0))


def _probe_build(tracer, sig, carriers, tables):
    tracer.call("algebra.FiniteAlgebra", FiniteAlgebra, sig, carriers, tables)
    tracer.note(lambda: (sum(len(t) for t in tables.values()), 0))


def _probe_file(tracer, kind, path, sig):
    obj = tracer.call("jsonio.load_json", load_json, path)
    if kind == "algebra":
        tracer.call("jsonio.algebra_from_obj", algebra_from_obj, obj)
    elif kind == "signature":
        tracer.call("jsonio.signature_from_obj", signature_from_obj, obj)
    elif kind == "eqspec":
        tracer.call("jsonio.eqspec_from_obj", eqspec_from_obj, sig, obj)


def _probe_main(tracer, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracer.call("cli.main", cli.main, argv)


# -- modelcheck ----------------------------------------------------------------

class Modelcheck:
    """Verdicts of monoid laws, random equations and candidate maps over
    Z mod n; one op is one verdict."""

    def __init__(self, seed: int, work: Path):
        data = inputs.modelcheck_inputs(seed)
        self.work = work
        self.varspec = ex.monoid_varspec()
        self.vsig = vsignature(ex.monoid_signature(), self.varspec)
        build = {"+": ex.additive_mod_algebra, "-": ex.subtraction_mod_algebra}
        self.algebras = {}
        for e in data["equations"]:
            key = (e["op"], e["n"])
            if key not in self.algebras:
                self.algebras[key] = build[e["op"]](e["n"])
        self.equations = [
            (
                e,
                self.algebras[(e["op"], e["n"])],
                Equation(e["name"], "u", term_from_syms(self.vsig, e["lhs"]), term_from_syms(self.vsig, e["rhs"])),
            )
            for e in data["equations"]
        ]
        zn = {}
        for h in data["homs"]:
            for n in (2 * h["k"], h["k"]):
                if n not in zn:
                    zn[n] = self.algebras.get(("+", n)) or ex.additive_mod_algebra(n)
        self.homs = [
            (h, {"u": {str(i): str(v) for i, v in enumerate(h["image"])}}, zn[2 * h["k"]], zn[h["k"]])
            for h in data["homs"]
        ]
        self.order = data["order"]
        self.reference = kernel_reference()

    def ops(self, tracer):
        for kind, i in self.order:
            if kind == "eq":
                spec, algebra, eq = self.equations[i]
                yield spec["name"], partial(traced_holds, tracer, algebra, eq, self.varspec), partial(_check_eq, spec)
            else:
                spec, maps, src, dst = self.homs[i]
                yield spec["name"], partial(traced_check_hom, tracer, maps, src, dst), partial(_check_hom, spec)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def probe(self) -> Probe:
        p = Probe()
        seen = set()
        for spec, algebra, _ in self.equations:
            for side in ("lhs", "rhs"):
                key = (tuple(spec[side]), id(algebra))
                if key not in seen:
                    seen.add(key)
                    p.terms.append((self.vsig, spec[side], algebra, ZEROS))
        p.enums = [(self.vsig, "u", 3)] * 3
        for (op, n) in sorted(self.algebras):
            obj = inputs.monoid_algebra_obj(n, op)
            p.tables.append(_table_args(obj))
            if n in (5, 10):
                path = self.work / f"{'add' if op == '+' else 'sub'}{n}.json"
                write_json(path, obj)
                p.files.append(("algebra", path, None))
        eqs = self.work / "monoid_equations.json"
        write_json(eqs, inputs.eqs_obj([(nm, lhs.split(), rhs.split()) for nm, (lhs, rhs) in inputs.LAWS.items()]))
        write_json(self.work / "map10to5.json", {"maps": {"u": {str(i): str(i % 5) for i in range(10)}}})
        p.files.append(("eqspec", eqs, ex.monoid_signature()))
        for alg in ("add5", "add10", "sub10"):
            p.argvs.append(["check-eqs", "--alg", str(self.work / f"{alg}.json"), "--eqs", str(eqs)])
        p.argvs.append(
            ["check-hom", "--src", str(self.work / "add10.json"), "--dst", str(self.work / "add5.json"),
             "--map", str(self.work / "map10to5.json")]
        )
        return p


def _check_eq(spec, verdict):
    want = ref.modelcheck_verdict(spec["op"], spec["n"], spec["lhs"], spec["rhs"])
    got = (verdict.holds, verdict.counterexample)
    return None if got == want else f"verdict {got}, reference {want}"


def _check_hom(spec, verdict):
    want = ref.hom_first_failure(spec["k"], spec["image"])
    got = None if verdict.ok else verdict.counterexample
    return None if got == want else f"counterexample {got}, reference {want}"


# -- termspace -------------------------------------------------------------------

class Termspace:
    """Every bool term over x, y, z up to depth 3, plus random terms and
    unary chains, each taken once through validate, depth, decompose and
    rebuild, and evaluate; one op is one term."""

    def __init__(self, seed: int, work: Path):
        data = inputs.termspace_inputs(seed)
        self.work = work
        self.algebra = ex.bool_algebra()
        self.varspec = ex.bool_varspec()
        self.vsig = vsignature(ex.bool_signature(), self.varspec)
        self.extra = data["extra"]
        self.positions = data["positions"]
        self.assignments = [inputs.BOOL_ASSIGNMENTS[i] for i in data["assignments"]]
        self.reference = kernel_reference()

    def ops(self, tracer):
        # Each pass starts from a cold decompose cache, as a fresh process would.
        clear_decompose_cache()
        gen = enumerate_terms(self.vsig, "u", inputs.ENUM_DEPTH)
        expected = ref.enumerate_syms(ref.BOOL_ARITY, inputs.ENUM_DEPTH)
        k = 0
        extra = iter(zip(self.positions, self.extra))
        pending = next(extra, None)
        for pos in range(inputs.ENUM_COUNT + 1):
            while pending is not None and pending[0] == pos:
                spec = pending[1]
                asg = self.assignments[k]
                yield (
                    spec["name"],
                    partial(term_pipeline, tracer, self.vsig, spec["syms"], self.algebra, asg),
                    partial(_check_term, spec["syms"], asg),
                )
                k += 1
                pending = next(extra, None)
            if pos < inputs.ENUM_COUNT:
                want = next(expected)
                asg = self.assignments[k]
                yield f"enum#{pos}", partial(self._enum_op, tracer, gen, asg), partial(_check_enum, want, asg)
                k += 1

    def _enum_op(self, tracer, gen, assignment):
        t = tracer.call("free_algebra.enumerate_terms", next, gen)
        return t.syms, term_pipeline(tracer, self.vsig, list(t.syms), self.algebra, assignment)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def probe(self) -> Probe:
        p = Probe()
        small = [e["syms"] for e in self.extra if e["name"].startswith("rand") and len(e["syms"]) <= 40]
        terms = [term_from_syms(self.vsig, s) for s in small]
        x = term_from_syms(self.vsig, ["x"])
        pairs = [(x, term_from_syms(self.vsig, ["neg", "x"]))]
        pairs += [(t, term_from_syms(self.vsig, ["neg", "neg", *t.syms])) for t in terms]
        pairs += list(zip(terms, terms[1:]))
        p.equations = [(self.algebra, Equation(f"p{i}", "u", a, b), self.varspec) for i, (a, b) in enumerate(pairs)]
        labels = ("false", "true")
        p.homs = [
            ({"u": {v: v for v in labels}}, self.algebra, self.algebra),
            ({"u": {"false": "true", "true": "false"}}, self.algebra, self.algebra),
            ({"u": {"false": "true", "true": "true"}}, self.algebra, self.algebra),
        ]
        base = {nm: ref.BOOL_TABLE[nm] for nm in ex.bool_signature().ops}
        p.tables = [(ex.bool_signature(), {"u": labels}, base)] * 5
        p.files = [
            ("signature", DATA / "bool_signature.json", None),
            ("algebra", DATA / "bool_algebra.json", None),
            ("eqspec", DATA / "bool_equations.json", ex.bool_signature()),
        ]
        vsig_path = self.work / "bool_vsig.json"
        write_json(vsig_path, inputs.BOOL_VSIG)
        for syms in small[:6]:
            text = " ".join(syms)
            p.argvs.append(["term", "depth", "--sig", str(vsig_path), text])
            p.argvs.append(
                ["eval", "--alg", str(DATA / "bool_algebra.json"), "--vars", str(DATA / "bool_equations.json"),
                 "--assign", "x=true,y=false,z=true", text]
            )
        return p


def _check_term(syms, assignment, out):
    sort, d, rebuilt, value = out
    want = ("u", ref.depth(syms, ref.BOOL_ARITY), tuple(syms), ref.bool_value(syms, assignment))
    got = (sort, d, tuple(rebuilt), value)
    return None if got == want else f"got {got[:2] + got[3:]}, reference {want[:2] + want[3:]}"


def _check_enum(want_syms, assignment, out):
    syms, rest = out
    if syms != want_syms:
        return f"enumerated {' '.join(syms)!r}, reference {' '.join(want_syms)!r}"
    return _check_term(want_syms, assignment, rest)


# -- cli ----------------------------------------------------------------------------

class Cli:
    """``python -m ualg`` runs, one at a time; one op is one process, and
    its time is the CPU time of that process."""

    spawns_children = True

    def __init__(self, seed: int, work: Path):
        data = inputs.cli_inputs(seed)
        self.work = work
        for name, obj in data["files"].items():
            write_json(work / name, obj)
        self.cases = [
            (c["name"], [a.replace("{data}", str(DATA)).replace("{work}", str(work)) for a in c["argv"]], c["expect"])
            for c in data["cases"]
        ]
        self.env = child_env(DATA.parent.parent.parent)
        self.rss_kb = 0
        self.reference = bare_reference(self.env, work, 0.8)

    def ops(self, tracer):
        for name, argv, expect in self.cases:
            yield name, partial(self._run, tracer, argv), partial(self._check, expect)

    def _run(self, tracer, argv):
        out = tracer.call("cli.subprocess", run_child, [sys.executable, "-m", "ualg", *argv], self.env, self.work)
        tracer.note(lambda: (1, RECURSION if "RecursionError" in out[2] else 0))
        return out

    def _check(self, expect, out):
        code, stdout, stderr, rss_kb, _ = out
        self.rss_kb = max(self.rss_kb, rss_kb)
        reason = ref.cli_mismatch(expect, code, stdout, stderr)
        if reason is not None and reason.startswith("traceback"):
            return f"{RAISED_PREFIX} in child: {reason}"
        return reason

    def peak_rss_mb(self) -> float:
        return self.rss_kb / 1024

    def probe(self) -> Probe:
        p = Probe()
        for _, argv, _ in self.cases:
            p.argvs.append(argv)
            try:
                _probe_inputs(p, argv)
            except Exception:  # a malformed input file: cli.main still runs it above
                pass
        return p


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _probe_inputs(p: Probe, argv) -> None:
    """Load what one command line reads, and add it to the probe."""
    cmd = argv[0]
    if cmd == "term":
        sig = signature_from_obj(load_json(_flag(argv, "--sig")))
        p.files.append(("signature", _flag(argv, "--sig"), None))
        p.terms.append((sig, argv[-1].split(), None, {}))
    elif cmd == "eval":
        obj = load_json(_flag(argv, "--alg"))
        algebra = algebra_from_obj(obj)
        p.tables.append(_table_args(obj))
        p.files.append(("algebra", _flag(argv, "--alg"), None))
        varspec = make_varspec(algebra.signature, [])
        if _flag(argv, "--vars"):
            varspec = varspec_from_obj(algebra.signature, load_json(_flag(argv, "--vars")).get("variables"))
            p.files.append(("eqspec", _flag(argv, "--vars"), algebra.signature))
        assign = dict(item.split("=", 1) for item in (_flag(argv, "--assign") or "").split(",") if item)
        p.terms.append((vsignature(algebra.signature, varspec), argv[-1].split(), algebra, assign))
    elif cmd == "check-eqs":
        obj = load_json(_flag(argv, "--alg"))
        algebra = algebra_from_obj(obj)
        p.tables.append(_table_args(obj))
        p.files.append(("algebra", _flag(argv, "--alg"), None))
        p.files.append(("eqspec", _flag(argv, "--eqs"), algebra.signature))
        spec = eqspec_from_obj(algebra.signature, load_json(_flag(argv, "--eqs")))
        p.equations += [(algebra, eq, spec.varspec) for eq in spec.equations]
    elif cmd == "check-hom":
        src, dst = (algebra_from_obj(load_json(_flag(argv, f))) for f in ("--src", "--dst"))
        p.files += [("algebra", _flag(argv, "--src"), None), ("json", _flag(argv, "--map"), None)]
        p.homs.append((load_json(_flag(argv, "--map"))["maps"], src, dst))
    elif cmd == "enumerate":
        sig = signature_from_obj(load_json(_flag(argv, "--sig")))
        p.enums.append((sig, _flag(argv, "--sort"), int(_flag(argv, "--max-depth"))))


WORKLOADS = {"modelcheck": Modelcheck, "termspace": Termspace, "cli": Cli}
