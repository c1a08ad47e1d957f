"""Record one benchmark snapshot: every workload at seeds 1 and 2.

Usage, from the root of a checkout:

    python3 bench/snapshot.py --label pr21
    python3 bench/snapshot.py --label pr20 --checkout /tmp/parent --revision 960d668

It runs ``perfbench/run.py`` of the checkout (this one by default) once
per workload and seed, with ``--seconds 38``, one run after another, and
writes ``BENCH_<label>.json`` into the current directory: the git
revision of the checkout, the Python version, the platform and each
run's result line, the last line of its stdout, verbatim.  A checkout
without a ``.git`` directory, such as one unpacked by ``git archive``,
needs ``--revision``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

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
        raise SystemExit(f"snapshot: {checkout} is not a git checkout; pass --revision")
    return proc.stdout.strip()


def result_line(checkout, workload, seed):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"snapshot: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="the checkout to measure (default: this one)")
    parser.add_argument("--revision", help="the checkout's git revision (default: git rev-parse HEAD)")
    args = parser.parse_args(argv)

    checkout = os.path.abspath(args.checkout)
    rev = args.revision or revision(checkout)
    runs = []
    for workload in workloads(checkout):
        for seed in SEEDS:
            line = result_line(checkout, workload, seed)
            print(f"{workload} seed {seed}: {line}", flush=True)
            runs.append({"workload": workload, "seed": seed, "seconds": SECONDS, "result": line})
    snapshot = {
        "label": args.label,
        "revision": rev,
        "python": sys.version,
        "platform": platform.platform(),
        "runs": runs,
    }
    with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
