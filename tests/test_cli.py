"""End-to-end command line checks: exit codes, output shapes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from corpus import build_corpus, build_negative
from leavitt import Graph, PrimeField, Rationals, cli


def write_graph(tmp_path, graph, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph.to_json_dict()))
    return str(path)


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["a3"])
    code, out, _ = run_main(capsys, ["classify", "--input", p])
    assert code == 0
    data = json.loads(out)
    assert data["no_exit"] is True
    assert data["block_count"] == 1
    assert data["central_triple"] == [1, 0, 0]


def test_classify_text_format(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["sink_loop"])
    code, out, _ = run_main(capsys, ["classify", "--input", p, "--format", "text"])
    assert code == 0
    assert "no_exit: True" in out
    assert "block_count: 2" in out


def test_decompose_reports_blocks(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["fedcycle"])
    code, out, _ = run_main(capsys, ["decompose", "--input", p])
    assert code == 0
    data = json.loads(out)
    assert len(data["blocks"]) == 1
    blk = data["blocks"][0]
    assert blk["kind"] == "cycle"
    assert len(blk["paths"]) == 5
    assert blk["shifts"] == [0, 1, 1, 2, 2]
    assert blk["t"] == 3


def test_decompose_rejects_exit(tmp_path, capsys):
    for g in build_negative().values():
        p = write_graph(tmp_path, g)
        code, out, err = run_main(capsys, ["decompose", "--input", p])
        assert code == 2
        assert out == ""
        assert "error" in err


def test_classify_tolerates_exit(tmp_path, capsys):
    """classify never needs the exit condition, it reports the flags."""
    p = write_graph(tmp_path, build_negative()["toeplitz"])
    code, out, _ = run_main(capsys, ["classify", "--input", p])
    assert code == 0
    data = json.loads(out)
    assert data["no_exit"] is False
    assert data["graded_regular"] is False


def test_malformed_input_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, out, err = run_main(capsys, ["classify", "--input", str(bad)])
    assert code == 1 and out == "" and "malformed" in err

    code, out, err = run_main(capsys, ["classify", "--input", str(tmp_path / "no.json")])
    assert code == 1 and out == ""

    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"vertices": ["v"], "edges": [{"id": "e"}]}))
    code, out, err = run_main(capsys, ["classify", "--input", str(shape)])
    assert code == 1 and out == ""

    dangling = tmp_path / "dangling.json"
    dangling.write_text(
        json.dumps({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "w"}]})
    )
    code, out, err = run_main(capsys, ["classify", "--input", str(dangling)])
    assert code == 1 and out == ""


def _element_file(tmp_path, terms):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(terms))
    return str(path)


def _assert_malformed(code, out, err):
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed input: ")


@pytest.mark.parametrize(
    "coeff, field",
    [("abc", "q"), ("1/0", "q"), ("1.5", "fp:7"), (1.5, "fp:7"), (0.1, "q"), (True, "q")],
    ids=[
        "not-a-number",
        "zero-denominator",
        "fraction-over-fp",
        "json-float-over-fp",
        "json-float-over-q",
        "json-bool",
    ],
)
def test_unparsable_coefficient_is_exit_1(tmp_path, capsys, coeff, field):
    p = write_graph(tmp_path, build_corpus()["loop"])
    elem = _element_file(
        tmp_path, [{"p": ["c"], "p_base": "v1", "q": [], "q_base": "v1", "coeff": coeff}]
    )
    argv = ["regular-witness", "--input", p, "--element", elem, "--field", field]
    _assert_malformed(*run_main(capsys, argv))


COMMANDS = (
    "classify",
    "decompose",
    "dims",
    "verify-iso",
    "regular-witness",
    "idempotent-report",
    "type-witness",
)


@pytest.mark.parametrize("command", COMMANDS)
def test_graph_without_vertices_is_exit_1(tmp_path, capsys, command):
    """A graph needs a vertex: every command refuses an empty one as input."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    argv = [command, "--input", str(empty)]
    if command == "idempotent-report":
        argv += ["--element", _element_file(tmp_path, [])]
    _assert_malformed(*run_main(capsys, argv))


@pytest.mark.parametrize("command", COMMANDS)
def test_deeply_nested_input_is_exit_1(tmp_path, capsys, command):
    """JSON nested past the decoder's recursion limit is malformed input."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    argv = [command, "--input", str(deep)]
    if command == "idempotent-report":
        argv += ["--element", _element_file(tmp_path, [])]
    _assert_malformed(*run_main(capsys, argv))


@pytest.mark.parametrize("command", ["regular-witness", "idempotent-report"])
@pytest.mark.parametrize("text", ["[" * 200000, "[" * 5000 + "]" * 5000])
def test_deeply_nested_element_is_exit_1(tmp_path, capsys, command, text):
    p = write_graph(tmp_path, build_corpus()["loop"])
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    _assert_malformed(*run_main(capsys, [command, "--input", p, "--element", str(deep)]))


@pytest.mark.parametrize("path", ["c", {"c": 1}, None], ids=["string", "object", "null"])
@pytest.mark.parametrize("side", ["p", "q"])
def test_element_path_must_be_an_array(tmp_path, capsys, side, path):
    """A path given as a string or an object is refused, not read as its
    characters or keys."""
    p = write_graph(tmp_path, build_corpus()["loop"])
    term = {"p": ["c"], "p_base": "v1", "q": ["c"], "q_base": "v1", "coeff": "1"}
    term[side] = path
    elem = _element_file(tmp_path, [term])
    _assert_malformed(*run_main(capsys, ["idempotent-report", "--input", p, "--element", elem]))
    _assert_malformed(*run_main(capsys, ["regular-witness", "--input", p, "--element", elem]))


def test_decimal_string_coefficient_is_exact(tmp_path, capsys):
    """The string "0.1" is read as exactly 1/10, unlike the JSON number 0.1."""
    p = write_graph(tmp_path, build_corpus()["loop"])
    elem = _element_file(
        tmp_path, [{"p": ["c"], "p_base": "v1", "q": [], "q_base": "v1", "coeff": "0.1"}]
    )
    code, out, _ = run_main(capsys, ["regular-witness", "--input", p, "--element", elem])
    assert code == 0
    (term,) = json.loads(out)["witnesses"][0]["element"]
    assert term["coeff"] == "1/10"


def test_internal_error_is_exit_4(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    p = write_graph(tmp_path, build_corpus()["a3"])
    code, out, err = run_main(capsys, ["classify", "--input", p])
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: internal: RuntimeError: boom"]


def test_inhomogeneous_regular_witness_element_is_exit_1(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["loop"])
    elem = _element_file(
        tmp_path,
        [
            {"p": ["c"], "p_base": "v1", "q": [], "q_base": "v1", "coeff": "1"},
            {"p": [], "p_base": "v1", "q": [], "q_base": "v1", "coeff": "1"},
        ],
    )
    argv = ["regular-witness", "--input", p, "--element", elem]
    _assert_malformed(*run_main(capsys, argv))


def test_dims_all_equal(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["tree"])
    code, out, _ = run_main(capsys, ["dims", "--input", p, "--bound", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["all_equal"] is True
    assert len(data["rows"]) == 13


def test_verify_iso_passes(tmp_path, capsys):
    for name in ("a3", "cyc3", "fedcycle"):
        p = write_graph(tmp_path, build_corpus()[name])
        code, out, _ = run_main(capsys, ["verify-iso", "--input", p])
        assert code == 0
        data = json.loads(out)
        assert data["failed"] == 0 and data["total"] > 0


def test_verify_iso_corrupt_is_exit_3(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["a3"])
    code, out, _ = run_main(capsys, ["verify-iso", "--input", p, "--corrupt"])
    assert code == 3
    data = json.loads(out)
    assert data["failed"] > 0


def test_verify_iso_corrupt_over_f3(tmp_path, capsys):
    """The corruption stays visible in characteristic 3 (it is not a doubling)."""
    p = write_graph(tmp_path, build_corpus()["loop"])
    code, out, _ = run_main(
        capsys, ["verify-iso", "--input", p, "--corrupt", "--field", "fp:3"]
    )
    assert code == 3


def test_regular_witness_deterministic(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["cyc2"])
    argv = ["regular-witness", "--input", p, "--seed", "7", "--samples", "3"]
    code1, out1, _ = run_main(capsys, argv)
    code2, out2, _ = run_main(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 7
    assert len(data["witnesses"]) == 3
    assert all(w["aba_equals_a"] for w in data["witnesses"])


def test_regular_witness_explicit_element(tmp_path, capsys):
    g = build_corpus()["loop"]
    p = write_graph(tmp_path, g)
    elem = tmp_path / "elem.json"
    elem.write_text(
        json.dumps([{"p": ["c"], "p_base": "v1", "q": [], "q_base": "v1", "coeff": "2"}])
    )
    code, out, _ = run_main(
        capsys, ["regular-witness", "--input", p, "--element", str(elem)]
    )
    assert code == 0
    data = json.loads(out)
    w = data["witnesses"][0]
    assert w["degree"] == 1 and w["inverse_degree"] == -1 and w["aba_equals_a"]


def test_idempotent_report_command(tmp_path, capsys):
    g = build_corpus()["sink_loop"]
    p = write_graph(tmp_path, g)
    elem = tmp_path / "vertex.json"
    elem.write_text(
        json.dumps([{"p": [], "p_base": "s", "q": [], "q_base": "s", "coeff": "1"}])
    )
    code, out, _ = run_main(
        capsys, ["idempotent-report", "--input", p, "--element", str(elem)]
    )
    assert code == 0
    data = json.loads(out)
    assert data["is_idempotent"] is True
    assert data["block_ranks"] == [1, 0]
    assert data["abelian"] is True and data["faithful"] is False


def test_type_witness_command(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["tree"])
    code, out, _ = run_main(capsys, ["type-witness", "--input", p])
    assert code == 0
    data = json.loads(out)
    assert data["report"]["abelian"] is True
    assert data["report"]["faithful"] is True
    assert len(data["witness"]) == 2  # one vertex per block


@pytest.mark.parametrize("closed", [False, True], ids=["line", "cycle"])
def test_classify_1500_vertices(tmp_path, capsys, closed):
    """Deeper than the recursion limit: no RecursionError, no exit 4."""
    n = 1500
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n if closed else n - 1)])
    code, out, err = run_main(capsys, ["classify", "--input", write_graph(tmp_path, g)])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["no_exit"] is True and data["block_count"] == 1


def test_field_option_prime(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["cyc3"])
    code, out, _ = run_main(capsys, ["verify-iso", "--input", p, "--field", "fp:7"])
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_field_option_rejects_composite(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["a2"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--input", p, "--field", "fp:10003"])
    assert exc.value.code == 2  # argparse usage error
    capsys.readouterr()


def test_installed_script_runs(tmp_path):
    p = write_graph(tmp_path, build_corpus()["a2"])
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt.cli", "classify", "--input", p],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["no_exit"] is True


def test_closed_stdout_is_exit_141(tmp_path):
    """A reader that leaves early: exit 141 (128 + SIGPIPE), what a shell
    reports for such a writer, and nothing on stderr."""
    n = 400
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "leavitt.cli", "decompose", "--input", write_graph(tmp_path, g)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


@pytest.mark.parametrize("target", ["input", "element"])
def test_non_utf8_file_is_exit_1(tmp_path, capsys, target):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    if target == "input":
        argv = ["classify", "--input", str(bad)]
    else:
        p = write_graph(tmp_path, build_corpus()["sink_loop"])
        argv = ["idempotent-report", "--input", p, "--element", str(bad)]
    _assert_malformed(*run_main(capsys, argv))


def test_non_string_identifier_is_exit_1(tmp_path, capsys):
    p = tmp_path / "graph.json"
    p.write_text(json.dumps({"vertices": ["a", ["b"]], "edges": []}))
    _assert_malformed(*run_main(capsys, ["classify", "--input", str(p)]))


def test_only_verify_iso_builds_generator_tables(tmp_path, capsys, monkeypatch):
    """The witness commands apply the isomorphism and never read its
    generator tables; the relation replay of verify-iso reads all three."""
    made, original = [], cli.phi

    def recording_phi(report):
        made.append(original(report))
        return made[-1]

    monkeypatch.setattr(cli, "phi", recording_phi)
    p = write_graph(tmp_path, build_corpus()["sink_loop"])
    elem = _element_file(tmp_path, [{"p": [], "p_base": "s", "q": [], "q_base": "s", "coeff": "1"}])
    tables = {"vertices", "edges", "ghosts"}
    for argv in (
        ["regular-witness", "--input", p, "--samples", "3"],
        ["idempotent-report", "--input", p, "--element", elem],
        ["type-witness", "--input", p],
    ):
        assert run_main(capsys, argv)[0] == 0
        assert not tables & vars(made[-1]).keys(), argv[0]
    assert run_main(capsys, ["verify-iso", "--input", p])[0] == 0
    assert len(made) == 4 and tables <= vars(made[-1]).keys()


# -- one parser per process: repeated main() calls share nothing else ---------


def _recorder(monkeypatch, name):
    """Replace one command function by one that records its arguments."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    monkeypatch.setattr(cli, name, record)
    return seen


def test_field_option_does_not_carry_over(tmp_path, capsys, monkeypatch):
    seen = _recorder(monkeypatch, "cmd_decompose")
    p = write_graph(tmp_path, build_corpus()["a3"])
    assert cli.main(["decompose", "--input", p, "--field", "fp:7"]) == 0
    assert cli.main(["decompose", "--input", p]) == 0
    assert isinstance(seen[0].field, PrimeField) and seen[0].field.p == 7
    assert isinstance(seen[1].field, Rationals)


def test_element_option_does_not_carry_over(tmp_path, capsys, monkeypatch):
    seen = _recorder(monkeypatch, "cmd_regular_witness")
    p = write_graph(tmp_path, build_corpus()["loop"])
    elem = _element_file(tmp_path, [])
    assert cli.main(["regular-witness", "--input", p, "--element", elem]) == 0
    assert cli.main(["regular-witness", "--input", p]) == 0
    assert seen[0].element == elem and seen[1].element is None
    assert (seen[1].seed, seen[1].samples) == (0, 1)


def test_valid_call_after_argparse_rejection(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["a2"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--input", p, "--field", "fp:10003"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--input", p, "--bound", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_main(capsys, ["dims", "--input", p, "--bound", "3"])
    assert (code, err) == (0, "")
    assert json.loads(out)["all_equal"] is True


@pytest.mark.parametrize(
    "command, option, value",
    [("dims", "--bound", "-2"), ("regular-witness", "--samples", "-3")],
)
def test_negative_counts_are_usage_errors(tmp_path, capsys, command, option, value):
    """A negative count used to run: dims over zero degrees reported
    all_equal, regular-witness printed no witness; both exited 0."""
    p = write_graph(tmp_path, build_corpus()["loop"])
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", p, option, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: must be a non-negative integer, got {value}" in err
    # a non-integer keeps argparse's own message
    with pytest.raises(SystemExit):
        cli.main([command, "--input", p, option, "many"])
    assert f"argument {option}: invalid int value: 'many'" in capsys.readouterr().err
    # zero is a count too
    code, out, err = run_main(capsys, [command, "--input", p, option, "0"])
    assert (code, err) == (0, "")
    key, want = ("rows", [{"degree": 0, "lpa_dim": 1, "block_dim": 1, "equal": True}])
    if command == "regular-witness":
        key, want = "witnesses", []
    assert json.loads(out)[key] == want


def test_parser_built_once_per_process(tmp_path, capsys):
    p = write_graph(tmp_path, build_corpus()["a2"])
    parser = cli.build_parser()
    before = cli.build_parser.cache_info()
    for command in ("classify", "decompose", "type-witness"):
        assert run_main(capsys, [command, "--input", p])[0] == 0
    after = cli.build_parser.cache_info()
    assert after.misses == before.misses == 1
    assert after.hits == before.hits + 3
    assert cli.build_parser() is parser


# sha256 of stdout, recorded before graded bases were built from admissible
# pairs directly; `regular-witness` samples its elements from
# `basis_monomials`, so these pin the basis order at the CLI boundary
FROZEN_STDOUT = {
    ("cyc2", "dims"): "6a6dfa24acf7eb896f60be477b22c9d6937b86ab10b320d203307ea20c61fcc0",
    ("fedcycle", "dims"): "109b2dcf16441c69975a66d4ac07ea5e01bebccc83468780ef992258aa0fbcd0",
    ("tree", "dims"): "3895eebad168361db4a7d030869f053fe21d1f0615f17992a983c1c3557154e2",
    ("cyc2", "regular-witness", "q"): "95b66b5f8c517ef3d8e8e749a89ebf57cb88ee9f3db1df80bcf3f5ae5d2d620b",
    ("cyc2", "regular-witness", "fp:5"): "1bb813e9d80466687d04b9a2fce25695c26b88acd8cc7742e5fc548f05e0a966",
    ("fedcycle", "regular-witness", "q"): "708e09c7e994521fdee859018ea409346848c539598205bace2aa41efab4bbf1",
    ("fedcycle", "regular-witness", "fp:5"): "08ef8cb8f3b8d2ed0ae5e2e298536c52cde2e8ef1d3657f12a5583048bbf5c4f",
    ("tree", "regular-witness", "q"): "2bd340d8ada5bc8e02aaa0da5903af96c7d2e46924a2a30c263f838cba1287e3",
    ("tree", "regular-witness", "fp:5"): "592f9c223a8ef18b141bb9b40b05f75dd964ca682cfa84f6a7c6ff94d152f998",
}


@pytest.mark.parametrize("field", ["q", "fp:5"])
@pytest.mark.parametrize("name", ["cyc2", "fedcycle", "tree"])
def test_frozen_dims_and_witness_stdout(tmp_path, capsys, name, field):
    """`dims` prints no coefficient, so its digest is the same over both fields."""
    p = write_graph(tmp_path, build_corpus()[name])
    for argv in (["dims", "--bound", "10"], ["regular-witness", "--seed", "7", "--samples", "4"]):
        code, out, err = run_main(capsys, argv + ["--input", p, "--field", field])
        assert (code, err) == (0, "")
        key = (name, argv[0]) if argv[0] == "dims" else (name, argv[0], field)
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_STDOUT[key]
