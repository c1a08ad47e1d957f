"""Self-tests of the benchmark: its oracle, its checker and its tracer.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import families as fam  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import leavitt  # noqa: E402


def tiny_cases(rng):
    return [
        fam.line(rng, 3),
        fam.cycle(rng, 2),
        fam.fed_cycle(rng, 1, 2),
        fam.diamond_chain(rng, 1),
        fam.in_tree(rng, 1),
        fam.mixed(rng, (1, 1), (0, 2), 2),
        fam.complete(rng, 3),
        fam.rose(rng, 2),
    ]


@pytest.fixture
def runner():
    _, modules = run.load_leavitt()
    return run.Runner(modules["cli"])


def run_all(runner, ops):
    return [(op.label, runner.run_op(op)[1]) for op in ops]


@pytest.mark.parametrize("field", ["q", "fp:1000003"])
def test_oracle_agrees_with_leavitt_on_tiny_graphs(tmp_path, runner, field):
    rng = random.Random(7)
    inputs = workloads.Inputs(str(tmp_path))
    for case in tiny_cases(rng):
        ops = workloads.cli_ops(inputs, case, field, 3)
        ops += workloads.product_ops(leavitt, case, field, (0, 1, 2), (0, 1, 2))
        failures = [(label, err) for label, err in run_all(runner, ops) if err]
        assert failures == []


def test_block_sizes_match_the_closed_forms():
    rng = random.Random(1)
    for case, n in [
        (fam.line(rng, 5), 5),
        (fam.cycle(rng, 4), 4),
        (fam.fed_cycle(rng, 3, 2), 5),
        (fam.diamond_chain(rng, 2), 2 ** 4 - 3),
        (fam.in_tree(rng, 2), 2 ** 3 - 1),
    ]:
        report = leavitt.decompose(leavitt.Graph.from_json_dict(case.graph))
        assert [b.n for b in report.blocks] == [n]
        assert tuple(report.blocks[0].shifts) == case.blocks[0].shifts


def test_seed_changes_names_not_shape():
    a, b = fam.diamond_chain(random.Random(1), 2), fam.diamond_chain(random.Random(2), 2)
    assert a.graph != b.graph
    assert [x.shifts for x in a.blocks] == [x.shifts for x in b.blocks]
    assert fam.diamond_chain(random.Random(1), 2).graph == a.graph


def test_checker_counts_corrupt_images_as_failure(tmp_path, runner):
    case = fam.line(random.Random(0), 3)
    inputs = workloads.Inputs(str(tmp_path))
    verify = next(op for op in workloads.cli_ops(inputs, case, "q", 0) if op.metric == "verify_iso_s")
    assert runner.run_op(verify)[1] is None
    verify.argv += ("--corrupt",)
    _, error, _ = runner.run_op(verify)
    assert error == "exit code 3, expected 0"


def test_checker_counts_wrong_block_size_as_failure(tmp_path, runner):
    case = fam.fed_cycle(random.Random(0), 2, 3)
    wrong = fam.Case(case.name, case.graph, True, [fam.Block("cycle", case.blocks[0].anchor,
                                                             (0, 1, 1, 2), 3)])
    inputs = workloads.Inputs(str(tmp_path))
    for metric in ("decompose_s", "dims_s"):
        op = next(o for o in workloads.cli_ops(inputs, wrong, "q", 0) if o.metric == metric)
        assert runner.run_op(op)[1] is not None


def test_time_limit_stops_a_hanging_operation(runner):
    def forever():
        while True:
            pass

    op = workloads.Op("product_s", "hang", "lib", call=forever, check=lambda r: None, limit=0.2)
    elapsed, error, _ = runner.run_op(op)
    assert error == "over the 0.2 s limit" and 0.2 <= elapsed < 2


def snapshot(modules):
    seen = {}
    for mod in modules.values():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("leavitt"):
                for name, member in vars(value).items():
                    seen[(value.__qualname__, name)] = member
    return seen


def test_wrappers_leave_no_patch_behind(tmp_path, runner):
    _, modules = run.load_leavitt()
    before = snapshot(modules)
    inputs = workloads.Inputs(str(tmp_path))
    case = fam.fed_cycle(random.Random(0), 1, 2)
    ops = workloads.cli_ops(inputs, case, "fp:101", 0)
    plain = [runner.run_op(op)[2] for op in ops]
    with tracing.Tracer(modules) as tracer:
        assert modules["structure"].no_exit_condition is not before[("leavitt.structure", "no_exit_condition")]
        traced = [runner.run_op(op)[2] for op in ops]
    after = snapshot(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    # reached only through intra-package calls
    assert {"graph.no_exit_condition", "gmatrix.mul", "scalar.smith_normal_form"} <= names
    assert tracer.counts["scalar.laurent_mul.calls"] > 0


def test_layer_self_time_subtracts_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("structure.phi", 1.0, 5.0, 0, 0),
        ("gmatrix.mul", 2.0, 4.0, 1, 0),
        ("gmatrix.mul", 6.0, 7.0, 0, 0),
    ]
    m = tracing.layer_metrics(spans, 0, {})
    assert m["cli.self_s"] == 10.0 - 4.0 - 1.0
    assert m["structure.self_s"] == 4.0 - 2.0
    assert m["gmatrix.self_s"] == 3.0 and m["gmatrix.mul.s"] == 3.0
    assert m["gmatrix.mul.calls"] == 2


def result_line(workload, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, bypassed",
    [
        ("sink_blocks", "scalar.smith_normal_form.calls"),
        ("cycle_blocks", None),
        ("graph_rewrite", "gmatrix.mul.calls"),
    ],
)
def test_counters_repeat_across_hash_seeds(workload, bypassed):
    runs = [result_line(workload, dict(os.environ, PYTHONHASHSEED=str(seed))) for seed in (1, 2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
    counters = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "bytes")}
        for res in runs
    ]
    assert counters[0] == counters[1]
    if bypassed:
        assert counters[0][bypassed] == 0


def test_result_line_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sink_blocks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
