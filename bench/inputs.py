"""Seeded inputs for the three workloads, as plain JSON-ready data.

Nothing here imports ualg: the library receives only what these
functions generate, and the same seed gives byte-identical inputs.
Expected answers that depend on the seed come from ``reference``;
the rest of the CLI expectations are written out by hand below.
"""

from __future__ import annotations

import random

import reference as ref

WORKLOADS = ("modelcheck", "termspace", "cli")

# Inputs that crash with the library as it stood when the benchmark was
# added (the ROADMAP's baseline defects).  A crash on one of these counts
# in `failed` only; any other failure, and a wrong answer on one of these,
# makes the run incorrect.
KNOWN_DEFECTS = frozenset({
    "chain.neg1000",
    "chain.neg2000",
    "chain.neg5000",
    "defect.term_depth_neg5000",
    "defect.eval_neg5000",
    "defect.nested_arity",
    "defect.list_label",
})

# -- modelcheck ---------------------------------------------------------------

MONOID_LEAVES = ("e", "x", "y", "z")
LAWS = {
    "lid": ("mul e x", "x"),
    "rid": ("mul x e", "x"),
    "comm": ("mul x y", "mul y x"),
    "assoc": ("mul mul x y z", "mul x mul y z"),
}
# At most 14**3 = 2,744 assignments per law: the reference job is timed only
# between ops, so one op much longer than 0.1 s is timed at a speed
# sampled around it, not during it.
LAW_MODULI = (5, 8, 10, 12, 14)
# Random equations come in two fixed cost classes, so that seeds change
# the terms but not the shape of the latency distribution: early exits
# (the verdict fails within the first two assignments) and full
# enumerations (the verdict holds over all n**3 assignments of x, y, z).
EARLY_EXITS = 150
EARLY_MODULI = (3, 5, 8, 12)
FULL_ENUMERATIONS = 50
FULL_MODULI = (5, 8)
HOM_KS = (3, 5, 8, 12, 20)
WRONG_MAPS_PER_K = 3

# -- termspace ----------------------------------------------------------------

BOOL_LEAVES = ("bot", "top", "x", "y", "z")
BOOL_BINARY = ("conj", "disj", "impl")
ENUM_DEPTH = 3
ENUM_COUNT = 21765  # bool terms over x, y, z of depth <= 3
TERM_SIZES = tuple(round(10 * 300 ** (i / 39)) for i in range(40))  # 10 .. 3000 symbols
TERM_MAX_DEPTH = 40
CHAIN_LENGTHS = (10, 50, 200, 400, 1000, 2000, 5000)
BOOL_ASSIGNMENTS = tuple(
    {"x": x, "y": y, "z": z} for x in ("false", "true") for y in ("false", "true") for z in ("false", "true")
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def monoid_term(rng: random.Random, leaves: int) -> list[str]:
    if leaves == 1:
        return [rng.choice(MONOID_LEAVES)]
    left = rng.randint(1, leaves - 1)
    return ["mul"] + monoid_term(rng, left) + monoid_term(rng, leaves - left)


def _shape(rng: random.Random, leaves: list[str]) -> list[str]:
    """A random bracketing of the given leaves, in their order."""
    if len(leaves) == 1:
        return list(leaves)
    cut = rng.randint(1, len(leaves) - 1)
    return ["mul"] + _shape(rng, leaves[:cut]) + _shape(rng, leaves[cut:])


def bool_term(rng: random.Random, size: int, max_depth: int) -> list[str]:
    """A random boolean term of about ``size`` symbols and depth at most
    ``max_depth``; binary splits stay between 30/70 so depth grows with
    the logarithm of the size."""
    if size <= 1 or max_depth <= 1:
        return [rng.choice(BOOL_LEAVES)]
    if size == 2 or rng.random() < 0.1:
        return ["neg"] + bool_term(rng, size - 1, max_depth - 1)
    left = min(size - 2, max(1, round((size - 1) * rng.uniform(0.3, 0.7))))
    return (
        [rng.choice(BOOL_BINARY)]
        + bool_term(rng, left, max_depth - 1)
        + bool_term(rng, size - 1 - left, max_depth - 1)
    )


def _wrap_unit(rng: random.Random, syms: list[str]) -> list[str]:
    """Replace one random subterm t by ``mul t e``, which keeps the value
    under both + and -."""
    i = rng.randrange(len(syms))
    j, pending = i, 1
    while pending:
        pending += (2 if syms[j] == "mul" else 0) - 1
        j += 1
    return syms[:i] + ["mul"] + syms[i:j] + ["e"] + syms[j:]


def _early_exit(rng: random.Random, op: str, n: int, leaves: int) -> tuple[list[str], list[str]]:
    while True:
        lhs, rhs = monoid_term(rng, leaves), monoid_term(rng, 7 - leaves)
        if ref.assignments_to_verdict(op, n, lhs, rhs) <= 2:
            return lhs, rhs


def _full_enumeration(rng: random.Random, op: str) -> tuple[list[str], list[str]]:
    while True:
        lhs = monoid_term(rng, 4)
        if all(v in lhs for v in ref.VARS):
            break
    if op == "+":
        leaves = [s for s in lhs if s != "mul"]
        return lhs, _shape(rng, rng.sample(leaves, len(leaves)))
    return lhs, _wrap_unit(rng, lhs)


def modelcheck_inputs(seed: int) -> dict:
    """Monoid laws on Z mod n under + and -, random monoid equations, and
    candidate maps Z mod 2k -> Z mod k, in a seeded order."""
    rng = _rng("modelcheck", seed)
    equations = []
    for n in LAW_MODULI:
        for op, tag in (("+", "add"), ("-", "sub")):
            for law, (lhs, rhs) in LAWS.items():
                equations.append(
                    {"name": f"{tag}{n}.{law}", "op": op, "n": n, "lhs": lhs.split(), "rhs": rhs.split()}
                )
    for i in range(EARLY_EXITS + FULL_ENUMERATIONS):
        op = "+-"[i % 2]
        if i < EARLY_EXITS:
            n = EARLY_MODULI[i // 2 % len(EARLY_MODULI)]
            lhs, rhs = _early_exit(rng, op, n, 1 + i % 6)
        else:
            n = FULL_MODULI[i // 2 % len(FULL_MODULI)]
            lhs, rhs = _full_enumeration(rng, op)
        tag = "add" if op == "+" else "sub"
        equations.append({"name": f"rand{i:03d}@{tag}{n}", "op": op, "n": n, "lhs": lhs, "rhs": rhs})
    homs = []
    for k in HOM_KS:
        c = rng.randrange(k)
        image = [(c * i) % k for i in range(2 * k)]
        homs.append({"name": f"hom{2 * k}to{k}.times{c}", "k": k, "image": image})
        for j in range(WRONG_MAPS_PER_K):
            w = rng.randrange(2 * k)
            bad = list(image)
            bad[w] = (bad[w] + rng.randrange(1, k)) % k
            homs.append({"name": f"hom{2 * k}to{k}.wrong{j}", "k": k, "image": bad})
    order = [["eq", i] for i in range(len(equations))] + [["hom", i] for i in range(len(homs))]
    rng.shuffle(order)
    return {"equations": equations, "homs": homs, "order": order}


def termspace_inputs(seed: int) -> dict:
    """Random boolean terms of spread sizes and unary chains, each placed at
    a seeded position in the enumeration stream, plus one seeded
    assignment index per op."""
    rng = _rng("termspace", seed)
    extra = [
        {"name": f"rand{i:02d}.size{size}", "syms": bool_term(rng, size, TERM_MAX_DEPTH)}
        for i, size in enumerate(TERM_SIZES)
    ]
    extra += [{"name": f"chain.neg{k}", "syms": ["neg"] * k + ["top"]} for k in CHAIN_LENGTHS]
    rng.shuffle(extra)
    positions = sorted(rng.randrange(ENUM_COUNT + 1) for _ in extra)
    assignments = [rng.randrange(len(BOOL_ASSIGNMENTS)) for _ in range(ENUM_COUNT + len(extra))]
    return {"extra": extra, "positions": positions, "assignments": assignments}


# -- cli ----------------------------------------------------------------------

# The bool signature with x, y, z as constants, so `ualg term` accepts variables.
BOOL_VSIG = {
    "sorts": ["u"],
    "operations": [{"name": nm, "arity": ["u"] * k, "sort": "u"} for nm, k in ref.BOOL_ARITY.items()],
}


def _ok(stdout: str) -> list[dict]:
    return [{"code": 0, "stdout": stdout}]


def _fails(stdout: str) -> list[dict]:
    return [{"code": 1, "stdout": stdout}]


ERROR = [{"code": 2, "stdout": ""}]


def _case(name: str, argv: list[str], expect: list[dict]) -> dict:
    return {"name": name, "argv": argv, "expect": expect}


def _hand_written_cases() -> list[dict]:
    monoid, boolsig, listsig = "{data}/monoid_signature.json", "{data}/bool_signature.json", "{data}/list_signature.json"
    z2, z3, z4, sub3 = (f"{{data}}/monoid_{s}.json" for s in ("z2", "z3", "z4", "sub3"))
    meqs, beqs, balg = "{data}/monoid_equations.json", "{data}/bool_equations.json", "{data}/bool_algebra.json"
    return [
        _case("term.check", ["term", "check", "--sig", monoid, "mul e e"], _ok("sort: u\n")),
        _case("term.check.sort", ["term", "check", "--sig", monoid, "--sort", "u", "mul e e"], _ok("sort: u\n")),
        _case(
            "term.check.wrong_sort",
            ["term", "check", "--sig", listsig, "--sort", "elem", "nil"],
            _fails("sort mismatch: got list, expected elem\n"),
        ),
        _case("term.check.underflow", ["term", "check", "--sig", monoid, "mul"], _fails("stack underflow at symbol 0\n")),
        _case("term.check.residual", ["term", "check", "--sig", monoid, "e e"], _fails("residual stack [u, u]\n")),
        _case(
            "term.check.mismatch",
            ["term", "check", "--sig", listsig, "cons nil nil"],
            _fails("sort mismatch at symbol 2\n"),
        ),
        _case("term.check.unknown", ["term", "check", "--sig", monoid, "mul e q"], ERROR),
        _case("term.sort", ["term", "sort", "--sig", monoid, "mul e e"], _ok("u\n")),
        _case("term.depth", ["term", "depth", "--sig", monoid, "mul mul e e e"], _ok("3\n")),
        _case("term.depth.invalid", ["term", "depth", "--sig", monoid, "mul e"], _fails("stack underflow at symbol 1\n")),
        _case(
            "term.decompose",
            ["term", "decompose", "--sig", monoid, "mul mul e e e"],
            _ok("princop: mul\narg 1: mul e e\narg 2: e\n"),
        ),
        _case("term.decompose.nullary", ["term", "decompose", "--sig", monoid, "e"], _ok("princop: e\n")),
        _case(
            "eval.bool",
            ["eval", "--alg", balg, "--vars", beqs, "--assign", "x=true,y=true,z=false", "conj x impl z neg y"],
            _ok("true\n"),
        ),
        _case("eval.ground", ["eval", "--alg", z3, "mul e e"], _ok("0\n")),
        _case("eval.missing_binding", ["eval", "--alg", balg, "--vars", beqs, "--assign", "y=true", "conj x y"], ERROR),
        _case("eval.list", ["eval", "--alg", "{data}/list_algebra.json", "nil"], _ok("[]\n")),
        _case("check-eqs.z2", ["check-eqs", "--alg", z2, "--eqs", meqs], _ok("lid: HOLDS\nrid: HOLDS\nassoc: HOLDS\n")),
        _case("check-eqs.z3", ["check-eqs", "--alg", z3, "--eqs", meqs], _ok("lid: HOLDS\nrid: HOLDS\nassoc: HOLDS\n")),
        _case("check-eqs.z4", ["check-eqs", "--alg", z4, "--eqs", meqs], _ok("lid: HOLDS\nrid: HOLDS\nassoc: HOLDS\n")),
        _case(
            "check-eqs.sub3",
            ["check-eqs", "--alg", sub3, "--eqs", meqs],
            _fails("lid: FAILS (x=1)\nrid: HOLDS\nassoc: FAILS (x=0, y=0, z=1)\n"),
        ),
        _case("check-eqs.bool", ["check-eqs", "--alg", balg, "--eqs", beqs], _ok("dummett: HOLDS\nexcluded_middle: HOLDS\n")),
        _case("check-eqs.mismatch", ["check-eqs", "--alg", balg, "--eqs", meqs], ERROR),
        _case("check-hom.ok", ["check-hom", "--src", z4, "--dst", z2, "--map", "{data}/hom_z4_to_z2.json"], _ok("OK\n")),
        _case("check-hom.partial", ["check-hom", "--src", z4, "--dst", z2, "--map", "{work}/partial_map.json"], ERROR),
        _case("enumerate.monoid1", ["enumerate", "--sig", monoid, "--sort", "u", "--max-depth", "1"], _ok("e\ncount: 1\n")),
        _case(
            "enumerate.monoid2",
            ["enumerate", "--sig", monoid, "--sort", "u", "--max-depth", "2"],
            _ok("e\nmul e e\ncount: 2\n"),
        ),
        _case("enumerate.bool1", ["enumerate", "--sig", boolsig, "--sort", "u", "--max-depth", "1"], _ok("bot\ntop\ncount: 2\n")),
        _case(
            "examples.list",
            ["examples", "list"],
            _ok(
                "list datatype over elements [a, b], lists materialized up to length 4\n"
                "nil -> []\ncons a nil -> [a]\ncons b cons a nil -> [b,a]\n"
                "arity of cons: elem list -> list\n"
            ),
        ),
        _case(
            "examples.monoid",
            ["examples", "monoid"],
            _ok(
                "monoid equations on (Z mod 3, +, 0)\nlid: HOLDS\nrid: HOLDS\nassoc: HOLDS\n"
                "monoid equations on (Z mod 3, -, 0)\nlid: FAILS (x=1)\nrid: HOLDS\n"
                "assoc: FAILS (x=0, y=0, z=1)\n"
            ),
        ),
        _case(
            "examples.bool",
            ["examples", "bool"],
            _ok(
                "boolean connectives under truth-table semantics\n"
                "conj x impl z neg y | x=true y=true z=false -> true\n"
                "impl bot top -> true\n"
                "dummett: disj impl x y impl y x holds under all 4 assignments of x, y\n"
            ),
        ),
        # Baseline defects: the contract accepts the right answer with exit 0
        # or exit 2 with an error line; today each ends in a traceback.
        _case(
            "defect.term_depth_neg5000",
            ["term", "depth", "--sig", boolsig, "neg " * 5000 + "top"],
            _ok("5001\n") + ERROR,
        ),
        _case("defect.eval_neg5000", ["eval", "--alg", balg, "neg " * 5000 + "top"], _ok("true\n") + ERROR),
        _case("defect.nested_arity", ["term", "check", "--sig", "{work}/nested_arity.json", "f c"], ERROR),
        _case("defect.list_label", ["eval", "--alg", "{work}/list_label.json", "e"], ERROR),
    ]


def monoid_algebra_obj(n: int, op: str) -> dict:
    """Z mod n under + or - in the library's JSON algebra format."""
    sign = 1 if op == "+" else -1
    return {
        "signature": {
            "sorts": ["u"],
            "operations": [
                {"name": "mul", "arity": ["u", "u"], "sort": "u"},
                {"name": "e", "arity": [], "sort": "u"},
            ],
        },
        "carriers": {"u": [str(i) for i in range(n)]},
        "operations": {
            "mul": [
                {"args": [str(a), str(b)], "result": str((a + sign * b) % n)} for a in range(n) for b in range(n)
            ],
            "e": [{"args": [], "result": "0"}],
        },
    }


def eqs_obj(equations: list[tuple[str, list[str], list[str]]]) -> dict:
    return {
        "variables": {v: "u" for v in ref.VARS},
        "equations": [
            {"name": nm, "sort": "u", "lhs": " ".join(lhs), "rhs": " ".join(rhs)} for nm, lhs, rhs in equations
        ],
    }


def _render_verdicts(equations, op: str, n: int) -> tuple[int, str]:
    lines, code = [], 0
    for nm, lhs, rhs in equations:
        holds, cex = ref.modelcheck_verdict(op, n, lhs, rhs)
        if holds:
            lines.append(f"{nm}: HOLDS\n")
        else:
            code = 1
            lines.append(f"{nm}: FAILS ({', '.join(f'{v}={cex[v]}' for v in ref.VARS if v in cex)})\n")
    return code, "".join(lines)


def cli_inputs(seed: int) -> dict:
    """CLI invocations with their accepted outcomes, and the files they
    read from the work directory.  ``{data}`` and ``{work}`` in an argv
    stand for the bundled data directory and the work directory."""
    rng = _rng("cli", seed)
    cases = _hand_written_cases()
    boolsig, balg, beqs = "{data}/bool_signature.json", "{data}/bool_algebra.json", "{data}/bool_equations.json"
    for i, size in enumerate((5, 9, 17, 33)):
        syms = bool_term(rng, size, 12)
        text = " ".join(syms)
        head, segs = ref.top_segments(syms, ref.BOOL_ARITY)
        decomposed = f"princop: {head}\n" + "".join(f"arg {j}: {' '.join(s)}\n" for j, s in enumerate(segs, 1))
        vsig = "{work}/bool_vsig.json"
        assignment = rng.choice(BOOL_ASSIGNMENTS)
        flag = ",".join(f"{v}={assignment[v]}" for v in ref.VARS)
        cases += [
            _case(f"term.check.rand{i}", ["term", "check", "--sig", vsig, text], _ok("sort: u\n")),
            _case(f"term.sort.rand{i}", ["term", "sort", "--sig", vsig, text], _ok("u\n")),
            _case(f"term.depth.rand{i}", ["term", "depth", "--sig", vsig, text], _ok(f"{ref.depth(syms, ref.BOOL_ARITY)}\n")),
            _case(f"term.decompose.rand{i}", ["term", "decompose", "--sig", vsig, text], _ok(decomposed)),
            _case(
                f"eval.bool.rand{i}",
                ["eval", "--alg", balg, "--vars", beqs, "--assign", flag, text],
                _ok(ref.bool_value(syms, assignment) + "\n"),
            ),
        ]

    bool_ops = {k: v for k, v in ref.BOOL_ARITY.items() if k not in ref.VARS}
    monoid_ops = {k: v for k, v in ref.MONOID_ARITY.items() if k not in ref.VARS}
    for name, sig, ops, d in (("bool2", boolsig, bool_ops, 2), ("monoid3", "{data}/monoid_signature.json", monoid_ops, 3)):
        lines = [" ".join(t) for t in ref.enumerate_syms(ops, d)]
        out = "".join(line + "\n" for line in lines) + f"count: {len(lines)}\n"
        cases.append(_case(f"enumerate.{name}", ["enumerate", "--sig", sig, "--sort", "u", "--max-depth", str(d)], _ok(out)))

    # Z mod 4 -> Z mod 2 with one wrong image.
    image = [0, 1, 0, 1]
    w = rng.randrange(4)
    image[w] = 1 - image[w]
    cex = ref.hom_first_failure(2, image)
    cases.append(
        _case(
            "check-hom.wrong",
            ["check-hom", "--src", "{data}/monoid_z4.json", "--dst", "{data}/monoid_z2.json", "--map", "{work}/wrong_map.json"],
            _fails(f"counterexample: {cex[0]}({', '.join(cex[1])})\n"),
        )
    )

    # Z mod 100: lid, rid and a seeded two-variable equation that fails.
    while True:
        lhs = monoid_term(rng, rng.randint(2, 5))
        rhs = monoid_term(rng, rng.randint(1, 5))
        used = {s for s in lhs + rhs if s in ref.VARS}
        if len(used) <= 2 and not ref.modelcheck_verdict("+", 100, lhs, rhs)[0]:
            break
    z100_eqs = [("lid", ["mul", "e", "x"], ["x"]), ("rid", ["mul", "x", "e"], ["x"]), ("seeded", lhs, rhs)]
    code, out = _render_verdicts(z100_eqs, "+", 100)
    cases.append(
        _case("check-eqs.z100", ["check-eqs", "--alg", "{work}/z100.json", "--eqs", "{work}/z100_eqs.json"], [{"code": code, "stdout": out}])
    )
    for leaves in (4, 8, 16):
        term = monoid_term(rng, leaves)
        values = {v: rng.randrange(100) for v in ref.VARS}
        cases.append(
            _case(
                f"eval.z100.size{leaves}",
                [
                    "eval", "--alg", "{work}/z100.json", "--vars", "{work}/z100_eqs.json",
                    "--assign", ",".join(f"{v}={values[v]}" for v in ref.VARS), " ".join(term),
                ],
                _ok(f"{ref.linear_value(term, 100, values)}\n"),
            )
        )
    rng.shuffle(cases)

    files = {
        "z100.json": monoid_algebra_obj(100, "+"),
        "z100_eqs.json": eqs_obj(z100_eqs),
        "bool_vsig.json": BOOL_VSIG,
        "wrong_map.json": {"maps": {"u": {str(i): str(v) for i, v in enumerate(image)}}},
        "partial_map.json": {"maps": {"u": {"0": "0"}}},
        "nested_arity.json": {
            "sorts": ["u"],
            "operations": [{"name": "f", "arity": [["u"]], "sort": "u"}, {"name": "c", "arity": [], "sort": "u"}],
        },
        "list_label.json": {
            "signature": {"sorts": ["u"], "operations": [{"name": "e", "arity": [], "sort": "u"}]},
            "carriers": {"u": [["a"], "b"]},
            "operations": {"e": [{"args": [], "result": "b"}]},
        },
    }
    return {"cases": cases, "files": files}


def generate(workload: str, seed: int) -> dict:
    return {"modelcheck": modelcheck_inputs, "termspace": termspace_inputs, "cli": cli_inputs}[workload](seed)
