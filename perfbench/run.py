"""The leavitt benchmark: one closed-loop caller, three graph workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sink_blocks --seed 1 --seconds 20 --trace 0

Each workload is a list of operations (CLI commands through
``leavitt.cli.main`` in this warm interpreter, and library products);
one pass runs each once, in order, each starting after the previous one
returned.  After a checked warm-up pass, passes repeat until --seconds
have gone by.  Every output is checked against the closed-form answers
of ``families``; a wrong answer, an exception, a wrong exit code or the
per-operation time limit counts the operation as failed, and its time
still counts.

--trace 0 reports the end-to-end metrics: upper quartiles over passes
of the seconds each command takes per pass, the upper quartile of the
set-up times of fresh CLI processes spread over the run, and peak
memory.  (A shared machine may switch between a fast and a slow state
every few seconds; a median over such a mixture jumps with the share of
passes that fell in the fast state, the upper quartile does not.
DESIGN.md has the numbers.)  --trace 1 spends half the time on untraced
passes and half on traced ones, and reports the per-layer metrics of
``tracing.layer_metrics`` plus the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 12  # fresh processes per run, spread over it; setup_s is their upper quartile
MIN_PASSES = 3

COMMAND_METRICS = (
    "classify_s",
    "decompose_s",
    "dims_s",
    "verify_iso_s",
    "regular_witness_s",
    "idempotent_report_s",
    "type_witness_s",
    "product_s",
)
END_TO_END = (("setup_s", "s"), ("pass_s", "s")) + tuple((m, "s") for m in COMMAND_METRICS) + (
    ("peak_rss_mb", "MB"),
)

# the per-layer metrics in the result line: every counter, and the times
# of the layers that run on all three workloads (a layer that a workload
# bypasses reads 0 s there; those times are printed in the table only)
PER_LAYER = (
    ("gmatrix.mul.calls", "count"),
    ("gmatrix.mul.cells", "count"),
    ("gmatrix.mul.useful_frac", "ratio"),
    ("gmatrix.add.calls", "count"),
    ("structure.decompose.s", "s"),
    ("structure.verify_phi.checks", "count"),
    ("structure.block_n_max", "count"),
    ("structure.image_nonzeros", "count"),
    ("structure.self_s", "s"),
    ("graph.no_exit_condition.s", "s"),
    ("graph.no_exit_condition.calls", "count"),
    ("graph.simple_cycles.s", "s"),
    ("graph.simple_cycles.cycles", "count"),
    ("graph.paths_into.s", "s"),
    ("graph.paths_into.paths", "count"),
    ("graph.self_s", "s"),
    ("lpa.normal_form.s", "s"),
    ("lpa.normal_form.calls", "count"),
    ("lpa.normal_form.terms_in", "count"),
    ("lpa.normal_form.terms_out", "count"),
    ("lpa.element_mul.s", "s"),
    ("lpa.basis_monomials.size", "count"),
    ("lpa.self_s", "s"),
    ("regularity.rank_sum", "count"),
    ("scalar.field_mul.calls", "count"),
    ("scalar.field_add.calls", "count"),
    ("scalar.laurent_mul.calls", "count"),
    ("scalar.smith_normal_form.calls", "count"),
    ("cli.load.s", "s"),
    ("cli.emit.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def unit_of(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


class OpTimeout(BaseException):
    """Raised by the interval timer inside an operation over its limit.

    A BaseException, so that no handler in the program swallows it.
    """


class Runner:
    """Runs operations one after another, timing and checking each."""

    def __init__(self, cli):
        self.cli = cli
        self.armed = False
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (label, reason), first few only
        self.stdout_seen = {}  # op index -> stdout of the untraced run
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def _call_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def run_op(self, op, pass_index=None):
        """(elapsed seconds, failure reason or None, stdout or None)."""
        argv, check = op.at(pass_index)
        result, error = None, None
        signal.setitimer(signal.ITIMER_REAL, op.limit)
        self.armed = True
        start = time.perf_counter()
        try:
            result = self._call_cli(argv) if op.kind == "cli" else op.call()
            self.armed = False
        except OpTimeout:
            error = f"over the {op.limit} s limit"
        except Exception as exc:  # the operation failed; the run goes on
            self.armed = False
            error = f"{type(exc).__name__}: {str(exc)[:80]}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False
        if error is None:
            error = check(result)
        return elapsed, error, (result[1] if op.kind == "cli" and result else None)

    def run_pass(self, ops, pass_index=None, tracer=None, compare_stdout=False):
        """One closed-loop pass; returns ({metric: seconds}, stdout bytes).

        `pass_index` selects the draws of sampling commands (None: the
        same draws in every pass, as the traced run needs).
        """
        gc.collect()
        totals = Counter()
        stdout_bytes = 0
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            elapsed, error, out = self.run_op(op, pass_index)
            if out is not None:
                stdout_bytes += len(out.encode())
                if compare_stdout and error is None and out != self.stdout_seen.get(k, out):
                    error = "stdout differs between traced and untraced runs"
                self.stdout_seen.setdefault(k, out)
            totals[op.metric] += elapsed
            totals["pass_s"] += elapsed
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append((op.label, error))
        return totals, stdout_bytes

    def passes(self, ops, seconds, minimum):
        """Passes with the same draws for `seconds`, at least `minimum`."""
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < minimum or time.perf_counter() < deadline:
            out.append(self.run_pass(ops))
        return out


# -- statistics and printing -------------------------------------------------------


def tail(values):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when there are fewer than twenty."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) >= 1000:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def upper_quartile(values):
    """The reported value of a timing: q3 of `values`, quartiles as
    `statistics.quantiles(values, n=4)` gives them."""
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def describe(name, values, unit):
    med = statistics.median(values)
    t = tail(values)
    spread = f"p{t[0]} {t[1]:.6g}" if t else "no tail percentile"
    return (f"  {name:<34} {upper_quartile(values):.6g} {unit}  "
            f"(upper quartile; median {med:.6g}; {spread}; n={len(values)})")


def fresh_classify(case_path, check):
    """(wall time, failure reason or None) of one fresh
    `python -m leavitt.cli classify` process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "leavitt.cli", "classify", "--input", case_path]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    reason = check((proc.returncode, proc.stdout))
    return elapsed, (f"fresh classify: {reason}" if reason else None)


def load_leavitt():
    sys.path.insert(0, SRC)
    import leavitt
    import leavitt.cli

    modules = {"": leavitt}
    for name in tracing.MODULES:
        modules[name] = sys.modules["leavitt." + name]
    return leavitt, modules


def run_e2e(runner, wl, seconds):
    """Timed passes for `seconds`, with the fresh set-up processes spread
    evenly over the same time, so that both see the same machine."""
    check = workloads.check_classify(wl.smallest)
    setups = [fresh_classify(wl.smallest_path, check)]  # fills the bytecode cache
    runner.run_pass(wl.ops)  # warm-up, checked like any other pass
    results = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter() - start
        if len(setups) <= SETUP_RUNS and now >= seconds * (len(setups) - 1) / SETUP_RUNS:
            setups.append(fresh_classify(wl.smallest_path, check))
        elif now < seconds or len(results) < MIN_PASSES:
            results.append(runner.run_pass(wl.ops, len(results)))
        else:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_failures = [reason for _, reason in setups if reason]
    runner.attempted += len(setups)
    runner.failed += len(setup_failures)
    runner.failures += [("setup", r) for r in setup_failures[:2]]

    series = {"setup_s": [t for t, _ in setups[1:]], "peak_rss_mb": [peak_rss_mb]}
    for name in ("pass_s",) + COMMAND_METRICS:
        series[name] = [totals[name] for totals, _ in results]
    lines = [describe(name, series[name], unit) for name, unit in END_TO_END if unit == "s"]
    lines.append(f"  {'peak_rss_mb':<34} {peak_rss_mb:.6g} MB")
    metrics = {
        name: {"value": upper_quartile(series[name]), "unit": unit} for name, unit in END_TO_END
    }

    probe_failed = 0
    probe_lines = []
    for op in wl.probes:
        elapsed, error, _ = runner.run_op(op)
        probe_failed += error is not None
        probe_lines.append(f"  probe {op.label:<30} {elapsed:.4f} s  {error or 'ok'}")
    total = runner.attempted + len(wl.probes)
    failed = runner.failed + probe_failed
    lines.append(f"  {'failed_frac':<34} {failed / total:.6g} ratio  ({failed} of {total}, "
                 f"{probe_failed} of them among {len(wl.probes)} defect probes)")
    return metrics, lines + probe_lines, len(results)


def run_traced(runner, wl, seconds, leavitt_modules, spans_path):
    runner.run_pass(wl.ops)  # warm-up
    plain = runner.passes(wl.ops, seconds / 2, MIN_PASSES)
    tracer = tracing.Tracer(leavitt_modules)
    per_pass = []
    deadline = time.perf_counter() + seconds / 2
    with tracer:
        while len(per_pass) < 2 or time.perf_counter() < deadline:
            first = len(tracer.spans)
            tracer.stack.clear()
            tracer.counts.clear()
            totals, stdout_bytes = runner.run_pass(wl.ops, tracer=tracer, compare_stdout=True)
            layer = tracing.layer_metrics(tracer.spans, first, tracer.counts)
            layer["cli.stdout_bytes"] = stdout_bytes
            per_pass.append((totals["pass_s"], layer))
    tracer.write(spans_path)

    plain_s = statistics.median(t["pass_s"] for t, _ in plain)
    traced_s = statistics.median(p for p, _ in per_pass)
    table = {}
    unsteady = []
    for name, value in per_pass[0][1].items():
        values = [layer[name] for _, layer in per_pass]
        if unit_of(name) == "s":
            table[name] = statistics.median(values)
        else:
            table[name] = value
            unsteady += [name] if any(v != value for v in values) else []
    table["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    lines = [f"  {name:<36} {value:.6g} {unit_of(name)}" for name, value in table.items()]
    lines.append(f"  traced passes {len(per_pass)}, untraced {len(plain)}; "
                 f"pass_s {traced_s:.4f} s traced, {plain_s:.4f} s untraced; "
                 f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    if unsteady:
        lines.append("  counters that differ between traced passes: " + ", ".join(unsteady))
    metrics = {name: {"value": table[name], "unit": unit} for name, unit in PER_LAYER}
    return metrics, lines, len(plain) + len(per_pass)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "leavitt", "cli.py")):
        print(f"perfbench: no leavitt sources under {SRC}", file=sys.stderr)
        return 2
    leavitt, modules = load_leavitt()
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, leavitt, workdir)
        runner = Runner(modules["cli"])
        start = time.perf_counter()
        if args.trace:
            spans_path = os.path.join(build_dir, f"spans-{args.workload}.jsonl")
            metrics, lines, npasses = run_traced(runner, wl, args.seconds, modules, spans_path)
        else:
            metrics, lines, npasses = run_e2e(runner, wl, args.seconds)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {npasses} passes, "
          f"{runner.attempted} operations, {runner.failed} failed, {wall:.1f} s")
    for label, reason in runner.failures:
        print(f"  FAILED {label}: {reason}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
