"""Record benchmark snapshots: every workload at seeds 1 and 2.

Usage, from the root of a checkout:

    python3 bench/snapshot.py --label pr21
    python3 bench/snapshot.py --label pr20 --checkout /tmp/parent --revision 960d668
    python3 bench/snapshot.py --label pr27 --against /tmp/parent --against-label pr26

It runs ``perfbench/run.py`` of the checkout (this one by default) once
per workload and seed, with ``--seconds 38``, one run after another, and
writes ``BENCH_<label>.json`` into the current directory: the git
revision of the checkout, the Python version, the platform and each
run's result line, the last line of its stdout, verbatim.  A checkout
without a ``.git`` directory, such as one unpacked by ``git archive``,
needs ``--revision`` (or ``--against-revision``).

With ``--against``, a second checkout (the parent of a change) is run
too, alternately with the first: for each workload and seed, the parent
runs, then the change.  So a drift of the machine falls on both files
alike.  Both files are written, ``BENCH_<against-label>.json`` for the
parent; in both, each run records its place in the common order and the
time it started, so a reader can set the two side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

SEEDS = (1, 2)
SECONDS = 38


def workloads(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def revision(checkout):
    proc = subprocess.run(
        ["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"snapshot: {checkout} is not a git checkout; pass its revision")
    return proc.stdout.strip()


def result_line(checkout, workload, seed):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"snapshot: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def write_snapshot(label, rev, runs):
    snapshot = {
        "label": label,
        "revision": rev,
        "python": sys.version,
        "platform": platform.platform(),
        "runs": runs,
    }
    with open(f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="the checkout to measure (default: this one)")
    parser.add_argument("--revision", help="the checkout's git revision (default: git rev-parse HEAD)")
    parser.add_argument("--against", help="a parent checkout to run alternately with the checkout")
    parser.add_argument("--against-label", help="names the parent's file (required with --against)")
    parser.add_argument("--against-revision", help="the parent's git revision")
    args = parser.parse_args(argv)
    if args.against and not args.against_label:
        parser.error("--against needs --against-label")

    sides = [(args.label, os.path.abspath(args.checkout), args.revision)]
    if args.against:
        sides.insert(0, (args.against_label, os.path.abspath(args.against), args.against_revision))
    revs = [rev or revision(checkout) for _, checkout, rev in sides]
    runs = {label: [] for label, _, _ in sides}
    order = 0
    for workload in workloads(sides[-1][1]):
        for seed in SEEDS:
            for label, checkout, _ in sides:
                started = time.time()
                line = result_line(checkout, workload, seed)
                print(f"{label} {workload} seed {seed}: {line}", flush=True)
                runs[label].append({"workload": workload, "seed": seed, "seconds": SECONDS,
                                    "order": order, "started": round(started, 3), "result": line})
                order += 1
    for (label, _, _), rev in zip(sides, revs):
        write_snapshot(label, rev, runs[label])
    return 0


if __name__ == "__main__":
    sys.exit(main())
