"""The three workloads: which operations run, on which inputs, checked how.

An operation is one closed-loop call: a CLI command through
``leavitt.cli.main(argv)`` with stdout captured, or one library product.
Each operation is charged to one end-to-end metric (``classify_s``,
``product_s``, ...) and carries a check against the closed-form answers
of ``families``.  A check returns None when the output is right and a
short reason otherwise.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import families as fam

DEFAULT_LIMIT_S = 20.0  # per-operation time limit; exceeding it is a failure
PROBE_LIMIT_S = 1.0  # for the defect probes, which may hang at the seed
SAMPLES = 4  # regular-witness samples per graph
DIMS_BOUND = 10  # the CLI default degree bound, passed explicitly
MERSENNE_61 = 2**61 - 1  # prime; trial division up to its root hangs

COMMANDS = (
    "classify",
    "decompose",
    "dims",
    "verify-iso",
    "regular-witness",
    "idempotent-report",
    "type-witness",
)


@dataclass
class Op:
    metric: str  # end-to-end metric the elapsed time is charged to
    label: str
    kind: str  # "cli" or "lib"
    argv: tuple = ()  # for "cli"
    call: object = None  # for "lib": () -> result
    check: object = None  # result -> None | reason
    limit: float = DEFAULT_LIMIT_S
    reseed: object = None  # pass index -> (argv, check), for sampling commands

    def at(self, pass_index):
        """The (argv, check) of one timed pass.

        A sampling command draws new elements in every timed pass, so the
        median over a run covers many draws and does not hang on the cost
        of the few drawn for one seed.
        """
        if self.reseed is None or pass_index is None:
            return self.argv, self.check
        return self.reseed(pass_index)


@dataclass
class Workload:
    smallest: fam.Case  # the graph `setup_s` classifies in a fresh process
    smallest_path: str
    ops: list
    probes: list


# -- output checks -------------------------------------------------------------


def _json(out):
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not JSON"


def _expect_code(code, want):
    return None if code == want else f"exit code {code}, expected {want}"


def check_refusal(result):
    code, out = result
    return _expect_code(code, 2) or (None if out == "" else "refusal wrote to stdout")


def check_classify(case):
    count = len(case.blocks)
    if case.no_exit:
        flags = {"block_count": count, "graded_prime": count == 1, "central_triple": [1, 0, 0]}
        note = f"decomposes into {count} matrix block(s)"
    else:
        flags = {"block_count": 0, "graded_prime": None, "central_triple": None}
        note = "a cycle has an exit"
    for key in ("no_exit", "graded_self_injective", "graded_regular", "graded_sigma_v",
                "graded_type_one"):
        flags[key] = case.no_exit

    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        for key, want in flags.items():
            if data.get(key) != want:
                return f"{key} = {data.get(key)!r}, expected {want!r}"
        return None if note in data.get("note", "") else "note does not match"

    return check


def check_decompose(case, characteristic):
    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        if data["field_characteristic"] != characteristic:
            return "wrong field characteristic"
        if len(data["blocks"]) != len(case.blocks):
            return f"{len(data['blocks'])} blocks, expected {len(case.blocks)}"
        for got, want in zip(data["blocks"], case.blocks):
            if got["kind"] != want.kind:
                return f"block kind {got['kind']}, expected {want.kind}"
            if tuple(got["shifts"]) != want.shifts:
                return f"block at {want.anchor}: wrong shifts (size {len(got['shifts'])})"
            if [len(p["edges"]) for p in got["paths"]] != list(want.shifts):
                return f"block at {want.anchor}: path lengths differ from shifts"
            if want.kind == "sink":
                if got["vertex"] != want.anchor or got["base"] != "K":
                    return f"sink block at {got['vertex']}, expected {want.anchor}"
            elif (got["cycle"]["base"], got["t"], got["base"]) != (
                want.anchor, want.t, {"laurent_t": want.t}
            ):
                return f"cycle block at {got['cycle']['base']}, expected {want.anchor}"
        return None

    return check


def check_dims(case, bound):
    rows = [
        {"degree": m, "lpa_dim": d, "block_dim": d, "equal": True}
        for m, d in fam.dims_rows(case, bound)
    ]
    want = {"degree_bound": bound, "all_equal": True, "rows": rows}

    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        return None if data == want else "graded dimensions differ from the closed form"

    return check


def check_verify(case):
    total = fam.verify_total(case)

    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        if (data["total"], data["failed"], data["all_passed"]) != (total, 0, True):
            return f"{data['total']} checks, {data['failed']} failed; expected {total}, 0"
        if len(data["checks"]) != total or not all(c["passed"] for c in data["checks"]):
            return "check list does not match the totals"
        return None

    return check


def check_regular(seed, samples):
    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        ws = data["witnesses"]
        if data["seed"] != seed or len(ws) != samples:
            return f"{len(ws)} witnesses for seed {data['seed']}"
        for w in ws:
            if not w["aba_equals_a"] or not w["element"]:
                return "a b a != a"
            if not -3 <= w["degree"] <= 3 or w["inverse_degree"] != -w["degree"]:
                return f"degree {w['degree']} with inverse degree {w['inverse_degree']}"
        return None

    return check


def _type_one_report(case):
    return {
        "is_idempotent": True,
        "is_homogeneous_degree_zero": True,
        "block_ranks": [1] * len(case.blocks),
        "abelian": True,
        "faithful": True,
        "directly_finite": True,
    }


def check_idempotent(case):
    want = _type_one_report(case)

    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        return None if data == want else f"report {data}, expected {want}"

    return check


def vertex_terms(vertices):
    return [{"p": [], "p_base": v, "q": [], "q_base": v, "coeff": "1"} for v in vertices]


def check_type_witness(case):
    want = {"witness": vertex_terms(fam.type_one_vertices(case)), "report": _type_one_report(case)}

    def check(result):
        code, out = result
        data, bad = _json(out)
        if _expect_code(code, 0) or bad:
            return _expect_code(code, 0) or bad
        return None if data == want else "witness or its report differs from the anchors"

    return check


def check_vertex_sum(want, modulus):
    """Check an LpaElement equals sum of want[v] * v, without leavitt."""
    want = {v: c % modulus if modulus else c for v, c in want.items()}
    want = {v: c for v, c in want.items() if c}

    def check(element):
        got = {}
        for m, c in element.terms.items():
            if m.p.edges or m.q.edges or m.p.base != m.q.base:
                return f"non-vertex term {m.p.edges} ({m.q.edges})*"
            got[m.p.base] = c
        return None if got == want else f"{len(got)} vertex terms, expected {len(want)}"

    return check


# -- building operations --------------------------------------------------------


class Inputs:
    """Writes graph and element JSON files into the run's work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name, data):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _characteristic(field):
    return int(field[3:]) if field.startswith("fp:") else 0


def cli_ops(inputs, case, field, seed, commands=COMMANDS):
    """One operation per command on one graph."""
    path = inputs.write(case.name, case.graph)
    anchors = fam.type_one_vertices(case) or case.vertices[:1]
    element = inputs.write(case.name + "-element", vertex_terms(anchors))
    base = ("--input", path, "--field", field)
    checks = {
        "classify": lambda: ((), check_classify(case)),
        "decompose": lambda: ((), check_decompose(case, _characteristic(field))),
        "dims": lambda: (("--bound", str(DIMS_BOUND)), check_dims(case, DIMS_BOUND)),
        "verify-iso": lambda: ((), check_verify(case)),
        "regular-witness": lambda: (
            ("--seed", str(seed), "--samples", str(SAMPLES)),
            check_regular(seed, SAMPLES),
        ),
        "idempotent-report": lambda: (("--element", element), check_idempotent(case)),
        "type-witness": lambda: ((), check_type_witness(case)),
    }
    ops = []
    for cmd in commands:
        extra, check = checks[cmd]()
        op = Op(
            metric=cmd.replace("-", "_") + "_s",
            label=f"{cmd} {case.name}",
            kind="cli",
            argv=(cmd,) + base + extra,
            check=check if case.no_exit or cmd == "classify" else check_refusal,
        )
        if cmd == "regular-witness" and case.no_exit:
            op.reseed = lambda p, op=op: _reseeded(op, seed * 1000 + p)
        ops.append(op)
    return ops


def _reseeded(op, seed):
    argv = list(op.argv)
    argv[argv.index("--seed") + 1] = str(seed)
    return tuple(argv), check_regular(seed, SAMPLES)


def product_ops(leavitt, case, field, lengths, ystar_lengths):
    """Library normal forms and products on one graph.

    For each length L: the normal form of the sum of p p* over paths of
    length L (`LeavittAlgebra.element`), and y* y for y the sum of those
    paths (`LpaElement.__mul__`).  Inputs are built here, outside the
    timed call.
    """
    from leavitt.graph import Path
    from leavitt.lpa import Monomial

    fld = leavitt.PrimeField(_characteristic(field)) if field != "q" else leavitt.Rationals()
    algebra = leavitt.LeavittAlgebra(leavitt.Graph.from_json_dict(case.graph), fld)
    one = fld.one()
    modulus = _characteristic(field)
    ops = []

    def paths(length):
        return [Path(b, es, end) for b, es, end in fam.paths_of_length(case, length)]

    for length in lengths:
        terms = [(Monomial(p, p), one) for p in paths(length)]
        ops.append(
            Op(
                metric="product_s",
                label=f"sum pp* L={length} {case.name}",
                kind="lib",
                call=lambda terms=terms: algebra.element(terms),
                check=check_vertex_sum(fam.sum_ppstar(case, length), modulus),
            )
        )
    for length in ystar_lengths:
        terms = [(Monomial(p, Path(p.end, (), p.end)), one) for p in paths(length)]

        def ystar_y(terms=terms):
            y = algebra.element(terms)
            return y.star() * y

        ops.append(
            Op(
                metric="product_s",
                label=f"y*y L={length} {case.name}",
                kind="lib",
                call=ystar_y,
                check=check_vertex_sum(fam.ystar_y(case, length), modulus),
            )
        )
    return ops


# -- the workloads -----------------------------------------------------------------


def build(name, seed, leavitt, workdir) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    inputs = Inputs(workdir)
    if name == "sink_blocks":
        field = "q"
        cases = [fam.line(rng, 8), fam.diamond_chain(rng, 1), fam.in_tree(rng, 2)]
        ops = []
        for k, case in enumerate(cases):
            ops += cli_ops(inputs, case, field, seed + k)
        for case in cases:
            ops += product_ops(leavitt, case, field, (1, 2), (1, 2))
        ops += product_ops(leavitt, fam.diamond_chain(rng, 6), field, (6, 8), (6, 8))
        return Workload(cases[1], inputs.write(cases[1].name, cases[1].graph), ops, [])
    if name == "cycle_blocks":
        field = "fp:1000003"
        cases = [
            fam.fed_cycle(rng, 5, 3),
            fam.mixed(rng, (1, 2), (1, 3), 2),
            fam.cycle(rng, 6),
        ]
        ops = []
        for k, case in enumerate(cases):
            ops += cli_ops(inputs, case, field, seed + k)
        for case in cases:
            ops += product_ops(leavitt, case, field, (2, 4), (2, 4))
        ops += product_ops(leavitt, fam.fed_cycle(rng, 60, 7), field, (10, 20), (10, 20))
        return Workload(cases[2], inputs.write(cases[2].name, cases[2].graph), ops, [])
    if name == "graph_rewrite":
        field = "q"
        big = [fam.complete(rng, 8), fam.line(rng, 200), fam.cycle(rng, 200)]
        rose = fam.rose(rng, 2)
        ops = []
        for case in big:
            ops += cli_ops(inputs, case, field, seed, ("classify", "decompose"))
        for case in (rose, fam.complete(rng, 6)):
            ops += cli_ops(inputs, case, field, seed)
        ops += product_ops(leavitt, rose, field, (8, 9), (9,))
        return Workload(rose, inputs.write(rose.name, rose.graph), ops, probes(inputs, rng, rose))
    raise ValueError(f"unknown workload {name!r}")


def probes(inputs, rng, rose):
    """The size and field defects of the baseline, run under a time limit.

    At the seed the 1500-vertex graphs overflow the recursion limit and
    the 61-bit prime hangs in trial division; they are reported apart
    from the workload's own operations.
    """
    out = []
    for case in (fam.line(rng, 1500), fam.cycle(rng, 1500)):
        out += cli_ops(inputs, case, "q", 0, ("classify", "decompose"))
    big_field = cli_ops(inputs, rose, f"fp:{MERSENNE_61}", 0, ("classify",))
    big_field[0].label += " over F_(2^61-1)"
    for op in out + big_field:
        op.limit = PROBE_LIMIT_S
    return out + big_field


WORKLOADS = ("sink_blocks", "cycle_blocks", "graph_rewrite")
