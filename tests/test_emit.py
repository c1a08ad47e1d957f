"""The JSON emitter writes the bytes of json.dumps(indent=2, sort_keys=True).

`cli._json_text` encodes every dict or list of scalars, and every list of
flat dicts, with the C encoder and walks the containers around them; here
it is compared with the stdlib call on random JSON trees and on random
lists of flat dicts, and every command of the CLI is run on
the test corpus with `_json_text` switched back to the stdlib call.
`decompose` writes its own JSON, which is compared with the library's
report through the stdlib call on random no-exit graphs.
"""

import contextlib
import io
import json
import math
import tracemalloc

import pytest

from corpus import build_corpus, build_negative
from leavitt import Graph, cli, decompose

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def stdlib_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def outcome(encode, obj):
    """The text, or the type and message of the error encoding raised."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# text with non-ASCII letters, control characters, quotes and backslashes
texts = st.text(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.sampled_from('\x00\x01\x1f\x7f\n\t"\\/é中😀 ﻿'),
        st.characters(),
    ),
    max_size=8,
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
)
ints = st.one_of(st.integers(-3, 3), st.integers(), st.integers(-(10**40), 10**40))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
# dict keys: str, one non-str kind per dict (they sort against each
# other), or mixed kinds (where they do not sort, both encoders must
# raise the same error)
key_kinds = st.one_of(texts, ints, st.booleans(), floats, st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.sampled_from([ints, floats, st.booleans() | st.integers(-2, 2)]).flatmap(
            lambda keys: st.dictionaries(keys, children, max_size=4)
        ),
        st.dictionaries(key_kinds, children, max_size=3),
    )


json_trees = st.recursive(scalars, containers, max_leaves=25)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(json_trees)
def test_json_text_matches_stdlib(obj):
    assert outcome(cli._json_text, obj) == outcome(stdlib_text, obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        [[], {}, [[]], {"a": {}}],
        {"b": [1, True, None], "a": [{"x": ()}, -0.0]},
        {"k": [float("nan"), float("inf"), -float("inf"), 1e300, 10**30, -(10**30)]},
        {"ctl\x00\n": "é 😀\x1f", "": ""},
        {2: [1], 1: {"z": None}, 3: "c"},
        {True: 1, None: [2], 1.5: "x"},
        [{"deep": [[[[{"deeper": [1, [2, [3]]]}]]]]}],
        [{"relation": "r", "instance": "}\n{", "passed": True}, {"relation": "r", "instance": "a,b", "passed": False}],
        {"checks": [{"z": None, "a": float("nan")}, {"{": "}"}], "total": 2},
        [{"a": 1}, {}, {"b": [2]}],
        "top-level string",
        -0.0,
        None,
    ],
)
def test_json_text_examples(obj):
    assert outcome(cli._json_text, obj) == outcome(stdlib_text, obj)


# lists of flat dicts (str keys, scalar values) are one C-encoder call whose
# newlines are re-indented by text replacement; their strings hold the
# separators that replacement looks for, escaped
brace_texts = st.one_of(
    texts,
    st.sampled_from(["}\n{", "},\n{", "}", "{", "}{", "\\n", '"}\n{"', "é}\n{中", "\n  "]),
    st.lists(st.sampled_from(["}", "{", "\n", ",", " ", "\\", '"', ":", "é", "😀"]), max_size=6).map("".join),
)
flat_scalars = st.one_of(st.none(), st.booleans(), ints, floats, brace_texts)
flat_dicts = st.dictionaries(brace_texts, flat_scalars, min_size=1, max_size=4)
odd_items = st.one_of(
    st.just({}),
    st.dictionaries(brace_texts, json_trees, min_size=1, max_size=3),
    st.dictionaries(st.one_of(ints, st.booleans(), st.none(), floats), flat_scalars, min_size=1, max_size=3),
    st.dictionaries(key_kinds, flat_scalars, min_size=2, max_size=3),
    flat_scalars,
)


@st.composite
def dict_lists(draw):
    """A list of flat dicts, or one with an empty, nested, non-str-keyed or
    scalar item put in, as a tuple or a list, placed at depth 0 to 2."""
    items = draw(st.lists(flat_dicts, min_size=1, max_size=6))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(odd_items))
    if draw(st.booleans()):
        items = tuple(items)
    return draw(st.sampled_from([
        lambda x: x,
        lambda x: {"checks": x, "total": len(x)},
        lambda x: [x, {"deeper": [x]}],
    ]))(items)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(dict_lists())
def test_dict_list_text_matches_stdlib(obj):
    assert outcome(cli._json_text, obj) == outcome(stdlib_text, obj)


def test_json_text_rejects_what_stdlib_rejects():
    for obj in (
        {"a": [object()]},
        {(1, 2): "tuple key"},
        [{1: 1, "a": 2}],
        {"s": {1}},
        [{"a": 1}, {"b": object()}],
        [{"a": 1}, {"b": 10**5000}],
        {"checks": [{"a": "x"}, {2: "y", "b": "z"}]},
    ):
        expected = outcome(stdlib_text, obj)
        assert isinstance(expected, tuple)
        assert outcome(cli._json_text, obj) == expected


# -- every command, both formats, the whole corpus ---------------------------


def _argv_sets(graph_path, vertex_path):
    common = ["--input", graph_path]
    yield ["classify"] + common
    yield ["decompose"] + common
    yield ["decompose"] + common + ["--field", "fp:7"]
    yield ["dims"] + common + ["--bound", "4"]
    yield ["verify-iso"] + common
    yield ["verify-iso"] + common + ["--corrupt", "--field", "fp:3"]
    yield ["regular-witness"] + common + ["--seed", "3", "--samples", "2"]
    yield ["regular-witness"] + common + ["--element", vertex_path, "--field", "fp:5"]
    yield ["idempotent-report"] + common + ["--element", vertex_path]
    yield ["type-witness"] + common


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_bytes_match_stdlib_emitter(tmp_path, capsys, monkeypatch):
    runs = []
    graphs = dict(build_corpus(), **build_negative())
    for name, g in graphs.items():
        graph_path = tmp_path / f"{name}.json"
        graph_path.write_text(json.dumps(g.to_json_dict()))
        v = g.vertices[0]
        vertex_path = tmp_path / f"{name}_vertex.json"
        vertex_path.write_text(
            json.dumps([{"p": [], "p_base": v, "q": [], "q_base": v, "coeff": "1"}])
        )
        for argv in _argv_sets(str(graph_path), str(vertex_path)):
            for fmt in ("json", "text"):
                runs.append(argv + ["--format", fmt])

    fast = [_run(capsys, argv) for argv in runs]
    monkeypatch.setattr(cli, "_json_text", stdlib_text)
    slow = [_run(capsys, argv) for argv in runs]
    for argv, a, b in zip(runs, fast, slow):
        assert a == b, argv
    # the sweep reaches success, refusal (exit 2) and failed replays (exit 3)
    assert {code for code, _, _ in fast} == {0, 2, 3}


# -- decompose writes its own JSON -------------------------------------------
#
# `cli._write_decomposition` streams the report and builds each index
# path's edge text from its tail's.  The oracle here is the library's
# report through the stdlib encoder, which never touches that writer.

# ids holding what JSON escapes or what the writer's separators look like;
# a JSON integer id names the same vertex or edge as its decimal string
ids = st.one_of(
    st.integers(-(10**6), 10**6),
    st.text(st.sampled_from('"\\,[]{}\n:\t é中😀ab0'), max_size=5),
)


@st.composite
def no_exit_graph_data(draw):
    """The JSON of a no-exit multigraph: a few cycles of length 1 to 3 at
    the end of the vertex order, each vertex on one emitting only its cycle
    edge, and forward edges, parallel ones included, from every other
    vertex to any later one.  Vertices left with no edge out are sinks;
    sparse edges leave several components."""
    vs = draw(st.lists(ids, min_size=1, max_size=9, unique_by=str))
    lengths = draw(st.lists(st.integers(1, 3), max_size=3))
    ends, start = [], len(vs)
    for t in lengths:
        if start - t < 0:
            break
        start -= t
        ends += [(start + k, start + (k + 1) % t) for k in range(t)]
    sources = min(start, len(vs) - 1)  # the vertices off the cycles with a later one
    if sources:
        forward = st.integers(0, sources - 1).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(i + 1, len(vs) - 1))
        )
        pairs = draw(st.lists(forward, max_size=12))
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
        ends += pairs
    eids = draw(st.lists(ids, min_size=len(ends), max_size=len(ends), unique_by=str))
    edges = [{"id": e, "src": vs[i], "dst": vs[j]} for e, (i, j) in zip(eids, ends)]
    return {"vertices": draw(st.permutations(vs)), "edges": draw(st.permutations(edges))}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(no_exit_graph_data(), st.sampled_from(["q", "fp:2", "fp:5"]))
def test_decompose_stdout_matches_library_report(tmp_path_factory, data, field):
    path = tmp_path_factory.mktemp("graph") / "graph.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decompose", "--input", str(path), "--field", field])
    report = decompose(Graph.from_json_dict(data), cli._field_arg(field))
    assert code == 0
    assert out.getvalue() == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def _line(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])


class _Sink:
    """A stdout that keeps only the byte count."""

    size = 0

    def write(self, text):
        self.size += len(text)


@pytest.mark.parametrize(
    "g",
    [
        _line(200),
        # each of 8 steps doubled: 511 index paths on 16 edges, so most
        # edges start many paths
        Graph(range(9), [(f"{k}{i}", i, i + 1) for i in range(8) for k in "ab"]),
    ],
    ids=["line200", "doubled8"],
)
def test_decompose_writer_encodes_each_id_once(monkeypatch, g):
    """On the 200-vertex line the index paths hold 19900 edge ids."""
    report = decompose(g)
    calls = []
    encode = cli.encode_basestring_ascii
    monkeypatch.setattr(cli, "encode_basestring_ascii", lambda s: calls.append(s) or encode(s))
    sink = _Sink()
    with contextlib.redirect_stdout(sink):
        cli._write_decomposition(report)
    assert sink.size == len(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    assert len(calls) <= len(g.edges) + len(g.vertices) + 10


def test_decompose_writer_keeps_two_path_lengths():
    """On a line there is one index path of each length, so a memo of every
    path's text would hold the Θ(n²) bytes of the whole output at once."""
    report = decompose(_line(200))
    output = len(json.dumps(report.to_json(), indent=2, sort_keys=True))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            cli._write_decomposition(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < output // 4
