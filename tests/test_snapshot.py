"""`bench/snapshot.py` on two stub checkouts: with --against it runs the
parent and the change alternately and writes a file for each, every run
with its place in the common order and its start time."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# a perfbench/run.py that prints one result line naming its checkout
STUB = """import json, os, sys
print("warming up")
print(json.dumps({"checkout": os.path.basename(os.getcwd()), "argv": sys.argv[1:]}))
"""


def load_snapshot():
    spec = importlib.util.spec_from_file_location("snapshot", ROOT / "bench" / "snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_checkout(root, name):
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    workloads = [{"name": "w1"}, {"name": "w2"}]
    (path / "BENCHMARK.json").write_text(json.dumps({"workloads": workloads}))
    return path


def test_against_alternates_runs_and_writes_both_files(tmp_path, monkeypatch):
    snapshot = load_snapshot()
    parent, change = stub_checkout(tmp_path, "parent"), stub_checkout(tmp_path, "change")
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    assert snapshot.main([
        "--label", "new", "--checkout", str(change), "--revision", "bbb",
        "--against", str(parent), "--against-label", "old", "--against-revision", "aaa",
    ]) == 0
    old = json.loads((out / "BENCH_old.json").read_text())
    new = json.loads((out / "BENCH_new.json").read_text())
    assert (old["revision"], new["revision"]) == ("aaa", "bbb")
    runs = sorted(old["runs"] + new["runs"], key=lambda r: r["order"])
    assert [r["order"] for r in runs] == list(range(8))
    assert [json.loads(r["result"])["checkout"] for r in runs] == ["parent", "change"] * 4
    assert [(r["workload"], r["seed"]) for r in runs[::2]] == [("w1", 1), ("w1", 2), ("w2", 1), ("w2", 2)]
    assert [(r["workload"], r["seed"]) for r in runs[1::2]] == [(r["workload"], r["seed"]) for r in runs[::2]]
    starts = [r["started"] for r in runs]
    assert starts == sorted(starts)
    argv = json.loads(runs[0]["result"])["argv"]
    assert argv == ["--workload", "w1", "--seed", "1", "--seconds", str(snapshot.SECONDS)]


def test_single_checkout_mode_stays(tmp_path, monkeypatch):
    snapshot = load_snapshot()
    change = stub_checkout(tmp_path, "change")
    monkeypatch.chdir(tmp_path)
    assert snapshot.main(["--label", "one", "--checkout", str(change), "--revision", "ccc"]) == 0
    one = json.loads((tmp_path / "BENCH_one.json").read_text())
    assert one["revision"] == "ccc"
    assert [r["order"] for r in one["runs"]] == [0, 1, 2, 3]
    assert not (tmp_path / "BENCH_None.json").exists()
