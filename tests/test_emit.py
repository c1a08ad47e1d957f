"""The JSON emitter writes the bytes of json.dumps(indent=2, sort_keys=True).

`cli._json_text` encodes every dict or list of scalars with the C encoder
and walks the containers around them; here it is compared with the
stdlib call on random JSON trees, and every command of the CLI is run on
the test corpus with the JSON branch of `_emit` switched back to the
stdlib call.
"""

import json
import math

import pytest

from corpus import build_corpus, build_negative
from leavitt import cli

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
        "top-level string",
        -0.0,
        None,
    ],
)
def test_json_text_examples(obj):
    assert outcome(cli._json_text, obj) == outcome(stdlib_text, obj)


def test_json_text_rejects_what_stdlib_rejects():
    for obj in ({"a": [object()]}, {(1, 2): "tuple key"}, [{1: 1, "a": 2}], {"s": {1}}):
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
