"""Blocks keep their index paths as a tree; here against the path tuples.

A block's index paths are closed under dropping their first edge, so
`decompose` stores them as the tree `graph.path_tree` grows (first edge
and parent index per path) with a child table, and `Block.locate` walks
a path through that table.  The oracles are the routes the tree
replaced: the recursive walk of `tests/test_no_exit.py` for the index
paths, concatenation plus `factor_through_cycle` plus a lookup keyed by
whole paths for `locate`, the dense unit sums of
`tests/test_closed_form.py` for the generator tables, and a forward walk
for `paths_up_to`.  The graphs are random no-exit multigraphs with
loops, parallel edges and fed cycles, and random multigraphs with exits
in bounded mode.
"""

import contextlib
import functools
import io
import json
import tracemalloc

import pytest

from leavitt import Graph, GraphError, PrimeField, Rationals, decompose, paths_up_to, phi
from leavitt import cli
from leavitt.graph import Path, concat, factor_through_cycle
from test_closed_form import oracle_generators
from test_emit import no_exit_graph_data
from test_no_exit import multigraphs, no_exit_multigraphs, recursive_paths_ending_at

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)

# the first draws few cycles and labels out of creation order; the second
# feeds cycles of length 1 to 3 by parallel edges and odd ids
no_exit_graphs = st.one_of(no_exit_multigraphs(), no_exit_graph_data().map(Graph.from_json_dict))


def concat_route(g, block):
    """`locate` as it was: p q_k concatenated, the cycle powers factored
    off the right, the rest looked up among the whole index paths."""
    index = {q: k for k, q in enumerate(block.index_paths)}

    def locate(p, k):
        path, w = concat(p, block.index_paths[k]), 0
        if block.cycle is not None:
            path, w = factor_through_cycle(g, block.cycle, path)
        return index[path], w

    return locate


def walk_back(g, data, at, length):
    """A random path of at most `length` edges ending at `at`."""
    edges = []
    for _ in range(length):
        into = g.in_edges(at)
        if not into:
            break
        e = data.draw(st.sampled_from(into))
        edges.append(e.id)
        at = e.src
    return g.path(at, tuple(reversed(edges)))


@SETTINGS
@hypothesis.given(no_exit_graphs)
def test_index_paths_match_recursive_walk(g):
    for block in decompose(g).blocks:
        avoid = () if block.cycle is None else block.cycle.path.edges
        want = recursive_paths_ending_at(g, block.anchor, None, avoid)
        assert block.index_paths == want
        assert block.n == len(want) and block.bases == tuple(q.base for q in want)
        assert block.shifts == tuple(len(q) for q in want)
        for k, q in enumerate(want[1:], 1):
            assert q.edges == (block.first[k],) + want[block.parent[k]].edges
        for v, ks in block.columns.items():
            assert ks == [k for k, q in enumerate(want) if q.base == v]


@SETTINGS
@hypothesis.given(no_exit_graphs, st.data())
def test_locate_matches_concat_route(g, data):
    for block in decompose(g).blocks:
        oracle = concat_route(g, block)
        for _ in range(4):
            k = data.draw(st.integers(0, block.n - 1))
            p = walk_back(g, data, block.bases[k], data.draw(st.integers(0, 8)))
            assert block.locate(p, k) == oracle(p, k)


def test_locate_refuses_paths_that_do_not_compose():
    g = Graph(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c"), ("l", "c", "c")])
    (block,) = decompose(g).blocks
    assert block.locate(g.path("a", ("e", "f", "l", "l")), 0) == (2, 2)
    with pytest.raises(GraphError):
        block.locate(g.path("a", ("e",)), 0)


@SETTINGS
@hypothesis.given(no_exit_graphs, st.sampled_from([Rationals(), PrimeField(5)]))
def test_generator_tables_match_dense_oracle(g, field):
    report = decompose(g, field)
    images = phi(report)
    tables = images.vertices, images.edges, images.ghosts
    # the tables are read off the tree: no block built its Path tuples
    assert not any("index_paths" in vars(b) for b in report.blocks)
    vertices, edges = oracle_generators(report)
    assert tables == (vertices, edges, {e: tuple(m.star() for m in ms) for e, ms in edges.items()})


def forward_paths_up_to(g, max_len):
    """`paths_up_to` as it was: every path grown at its end from the empty ones."""
    out = [g.empty_path(v) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        frontier = [Path(p.base, p.edges + (e.id,), e.dst) for p in frontier for e in g.out_edges(p.end)]
        out += frontier
    out.sort(key=Path.sort_key)
    return tuple(out)


@SETTINGS
@hypothesis.given(multigraphs(max_edges=9), st.integers(0, 3))
def test_paths_up_to_matches_forward_walk(g, max_len):
    assert paths_up_to(g, max_len) == forward_paths_up_to(g, max_len)


# -- memory and encoder work on the tree ----------------------------------------


def _line(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])


def _decompose_peak(g):
    tracemalloc.start()
    try:
        decompose(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decompose_memory_is_linear_on_a_line():
    """A line of n vertices has index paths holding n(n-1)/2 edge ids, 2 M
    slots (16 MB) at n = 2000, which the tree never builds: about 0.6 MB
    there, and 2.3 times the n = 1000 figure, where quadratic growth
    would give 4."""
    small, large = _decompose_peak(_line(1000)), _decompose_peak(_line(2000))
    assert large < 2_000_000
    assert large < 3 * small


@SETTINGS
@hypothesis.given(no_exit_graph_data())
def test_path_writer_reads_the_tree(data):
    """Each block's path list is the stdlib's text, and every vertex and
    edge id in it is encoded exactly once."""
    for block in decompose(Graph.from_json_dict(data)).blocks:
        calls = []
        encode = functools.cache(lambda s: calls.append(s) or cli.encode_basestring_ascii(s))
        out = io.StringIO()
        cli._write_paths(out.write, block, encode, 0)
        paths = [q.to_json() for q in block.index_paths]
        assert out.getvalue() == json.dumps(paths, indent=2, sort_keys=True)
        assert sorted(calls) == sorted(set(block.bases) | set(block.first[1:]))


def test_decompose_stdout_on_a_fed_cycle_with_parallel_edges(tmp_path):
    """Two parallel edges into a 2-cycle, fed by a doubled chain: the cycle
    block's tree stops where a path would run round the cycle."""
    g = Graph(
        ["a", "b", "c", "d"],
        [("x", "a", "b"), ("y", "a", "b"), ("p", "b", "c"), ("q", "b", "c"),
         ("r", "c", "d"), ("s", "d", "c")],
    )
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json_dict()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", "--input", str(path)]) == 0
    report = decompose(g)
    assert out.getvalue() == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    (block,) = report.blocks
    assert [q.edges for q in block.index_paths] == [
        (), ("p",), ("q",), ("s",), ("x", "p"), ("x", "q"), ("y", "p"), ("y", "q"),
    ]
