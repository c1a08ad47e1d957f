"""The linear no-exit test against cycle enumeration.

``no_exit_condition`` and ``Graph.no_exit_cycles`` decide the no-exit
condition by one peeling pass.  Here they are compared with the
definition (every simple cycle, none with an exit) on random and on
fixed multigraphs, with networkx (when installed) as a second oracle,
and the iterative path walks are compared with the recursive ones they
replaced.  The counted graded dimensions of both sides of `dims` are
compared with listed bases and per-position counts.
"""

import sys

import pytest

from corpus import build_corpus, build_negative
from leavitt import (
    ExitConditionError,
    Graph,
    InfiniteEnumerationError,
    LeavittAlgebra,
    classify,
    decompose,
    dim_series_check,
)
from leavitt import Monomial, paths_up_to
from leavitt import graph as graph_module
from leavitt.graph import (
    Cycle,
    Path,
    has_exit,
    no_exit_condition,
    paths_into,
    paths_into_cycle,
    simple_cycles,
    sinks,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# labels whose string order differs from their creation order
LABELS = ("v2", "v10", "a", "z", "m1", "m0", "b7")


@st.composite
def multigraphs(draw, max_vertices=7, max_edges=12):
    """Digraphs on up to 7 vertices; loops and parallel edges allowed."""
    vs = draw(st.permutations(LABELS))[: draw(st.integers(1, max_vertices))]
    ends = draw(
        st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=max_edges)
    )
    return Graph(vs, [(f"e{k}", s, d) for k, (s, d) in enumerate(ends)])


@st.composite
def no_exit_multigraphs(draw):
    """Graphs where no cycle has an exit: the edges of a random graph,
    each kept when the enumeration rule still holds with it."""
    g = draw(multigraphs())
    keep = []
    for e in g.edges:
        if rule_by_enumeration(Graph(g.vertices, keep + [e])):
            keep.append(e)
    return Graph(g.vertices, keep)


def rule_by_enumeration(g):
    return all(not has_exit(g, c) for c in simple_cycles(g))


def networkx_cycle_count(g):
    """Simple cycles of the multigraph: each node cycle of networkx,
    once per choice among parallel edges along it."""
    nx = pytest.importorskip("networkx")
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((e.src, e.dst) for e in g.edges)
    total = 0
    for nodes in nx.simple_cycles(h):
        ways = 1
        for k, u in enumerate(nodes):
            ways *= h.number_of_edges(u, nodes[(k + 1) % len(nodes)])
        total += ways
    return total


SETTINGS = hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


@SETTINGS
@hypothesis.given(multigraphs())
def test_scc_rule_matches_enumeration(g):
    assert no_exit_condition(g) == rule_by_enumeration(g)
    if no_exit_condition(g):
        assert g.no_exit_cycles == simple_cycles(g)


@SETTINGS
@hypothesis.given(no_exit_multigraphs())
def test_cached_cycles_equal_simple_cycles(g):
    assert no_exit_condition(g) and rule_by_enumeration(g)
    assert g.no_exit_cycles == simple_cycles(g)
    assert len(g.no_exit_cycles) == networkx_cycle_count(g)


@SETTINGS
@hypothesis.given(multigraphs())
def test_cycle_count_matches_networkx(g):
    assert len(simple_cycles(g)) == networkx_cycle_count(g)


def networkx_no_exit_cycles(g):
    """The cycles when none has an exit, else None, from networkx alone:
    the vertices on cycles are the nontrivial strongly connected
    components plus the vertices with a loop, and each needs out-degree
    1; each component is then one cycle, walked from its smallest vertex."""
    nx = pytest.importorskip("networkx")
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((e.src, e.dst, e.id) for e in g.edges)
    on_cycles = [
        comp
        for comp in nx.strongly_connected_components(h)
        if len(comp) > 1 or any(h.has_edge(v, v) for v in comp)
    ]
    if any(h.out_degree(v) != 1 for comp in on_cycles for v in comp):
        return None
    cycles = []
    for base in sorted(min(comp) for comp in on_cycles):
        edges, at = [], base
        while not edges or at != base:
            ((_, at, eid),) = h.out_edges(at, keys=True)
            edges.append(eid)
        cycles.append(Cycle(Path(base, tuple(edges), base)))
    return tuple(cycles)


@SETTINGS
@hypothesis.given(st.one_of(multigraphs(), no_exit_multigraphs()))
def test_peeling_matches_networkx(g):
    expected = networkx_no_exit_cycles(g)
    assert no_exit_condition(g) is (expected is not None)
    assert g.no_exit_cycles == expected


FIXED = {
    # edges written src>dst; their ids are e0, e1, ... in that order
    "cycle-path-cycle": "a>b b>a b>c c>d d>d",
    "figure-eight": "u>v v>u v>w w>v",
    "cycle-sink": "x>y y>x y>s",
    "tail-cycle": "t0>t1 t1>c1 c0>c1 c1>c2 c2>c0",
    "two-loops": "v>v v>v",
    "cycle-feeds-cycle": "p>q q>p q>r r>s s>r",
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_peeling_on_fixed_graphs(name):
    ends = [arrow.split(">") for arrow in FIXED[name].split()]
    vs = sorted({v for pair in ends for v in pair})
    g = Graph(vs, [(f"e{k}", s, d) for k, (s, d) in enumerate(ends)])
    ne = rule_by_enumeration(g)
    assert ne is (name == "tail-cycle")
    assert no_exit_condition(g) is ne
    assert g.no_exit_cycles == (simple_cycles(g) if ne else None)
    if ne:
        (c,) = g.no_exit_cycles
        assert c.base == "c0" and c.path.edges == ("e2", "e3", "e4")


# -- the recursive walks the iterative ones replaced, as oracles ------------------


def recursive_simple_cycles(g):
    found = []

    def walk(base, at, edges_so_far, visited):
        for e in g.out_edges(at):
            if e.dst == base:
                found.append(Cycle(Path(base, edges_so_far + (e.id,), base)))
            elif e.dst > base and e.dst not in visited:
                walk(base, e.dst, edges_so_far + (e.id,), visited | {e.dst})

    for base in sorted(g.vertices):
        walk(base, base, (), {base})
    found.sort(key=lambda c: (c.base, c.length, c.path.edges))
    return tuple(found)


def recursive_paths_ending_at(g, end, length_bound, avoid=()):
    t = len(avoid)
    out = []

    def grow(base, edge_ids):
        out.append(Path(base, edge_ids, end))
        if length_bound is not None and len(edge_ids) >= length_bound:
            return
        for e in g.in_edges(base):
            new = (e.id,) + edge_ids
            if t and len(new) >= t and new[:t] == avoid:
                continue
            grow(e.src, new)

    grow(end, ())
    out.sort(key=Path.sort_key)
    return tuple(out)


@SETTINGS
@hypothesis.given(multigraphs(max_edges=9))
def test_iterative_walks_match_recursive(g):
    assert simple_cycles(g) == recursive_simple_cycles(g)
    for v in g.vertices:
        assert paths_into(g, v, length_bound=3) == recursive_paths_ending_at(g, v, 3)
    for c in simple_cycles(g):
        assert paths_into_cycle(g, c, length_bound=4) == recursive_paths_ending_at(
            g, c.base, 4, c.path.edges
        )


@SETTINGS
@hypothesis.given(no_exit_multigraphs())
def test_unbounded_walks_match_recursive(g):
    for v in sinks(g):
        assert paths_into(g, v) == recursive_paths_ending_at(g, v, None)
    for c in g.no_exit_cycles:
        assert paths_into_cycle(g, c) == recursive_paths_ending_at(g, c.base, None, c.path.edges)


# -- graded bases cut from one path enumeration ----------------------------------


def basis_from_fresh_paths(algebra, degree, cap):
    """The admissible monomials of one degree built from their own
    `paths_up_to(cap)`, one enumeration per cap."""
    by_end_len = {}
    for p in paths_up_to(algebra.graph, cap):
        by_end_len.setdefault((p.end, len(p.edges)), []).append(p)
    out = []
    for (end, lp), ps in by_end_len.items():
        for p in ps:
            for q in by_end_len.get((end, lp - degree), ()):
                if algebra.is_admissible(Monomial(p, q)):
                    out.append(Monomial(p, q))
    return tuple(sorted(out, key=Monomial.sort_key))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    no_exit_multigraphs(),
    st.lists(
        st.tuples(st.integers(-3, 3), st.none() | st.integers(0, 6)), min_size=1, max_size=6
    ),
)
def test_basis_cut_from_longest_enumeration(g, asks):
    """Caps asked rising, falling and in drawn order give, tuple for
    tuple, the basis built from a fresh enumeration at that cap."""
    def cap(ask):
        degree, bound = ask
        return 2 * len(g.vertices) + abs(degree) if bound is None else bound

    for order in (sorted(asks, key=cap), sorted(asks, key=cap, reverse=True), asks):
        algebra = LeavittAlgebra(g)
        for degree, bound in order:
            expected = basis_from_fresh_paths(algebra, degree, cap((degree, bound)))
            assert algebra.basis_monomials(degree, bound) == expected


@st.composite
def exit_multigraphs(draw):
    """Graphs on up to 4 vertices with 1 to 3 out-edges at every vertex,
    so nearly every cycle has an exit and every vertex has a distinguished
    edge among several."""
    vs = draw(st.permutations(LABELS))[: draw(st.integers(1, 4))]
    edges = []
    for v in vs:
        for w in draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3)):
            edges.append((f"e{len(edges)}", v, w))
    return Graph(vs, edges)


def bounded_asks(degrees, bounds):
    return st.lists(st.tuples(degrees, bounds), min_size=1, max_size=6)


def check_bounded_orders(g, asks):
    """`length_bound` asks in rising, falling and drawn order match the
    all-pairs basis of a fresh enumeration, order included."""
    by_bound = lambda ask: ask[1]
    for order in (sorted(asks, key=by_bound), sorted(asks, key=by_bound, reverse=True), asks):
        algebra = LeavittAlgebra(g)
        for degree, bound in order:
            expected = basis_from_fresh_paths(algebra, degree, bound)
            assert algebra.basis_monomials(degree, bound) == expected, (degree, bound)


@pytest.mark.parametrize("name", ["rose2", "K3"])
@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(asks=bounded_asks(st.integers(-5, 5), st.integers(0, 4)))
def test_basis_cut_on_fixed_graphs_with_exits(name, asks):
    g = build_negative()["rose2"] if name == "rose2" else complete(3)
    check_bounded_orders(g, asks)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(exit_multigraphs(), bounded_asks(st.integers(-4, 4), st.integers(0, 4)))
def test_basis_cut_on_random_graphs_with_exits(g, asks):
    check_bounded_orders(g, asks)


def test_basis_negative_bound_and_degree_beyond_cap():
    for g in (build_negative()["rose2"], complete(3), build_corpus()["fedcycle"]):
        fresh = LeavittAlgebra(g)
        # nothing enumerated yet, then after an enumeration at cap 3
        assert fresh.basis_monomials(0, -1) == fresh.basis_monomials(0, -5) == ()
        assert fresh.basis_monomials(2, 3)
        for degree in (-1, 0, 1):
            assert fresh.basis_monomials(degree, -1) == ()
        # |degree| > cap: no path pair has that length difference
        assert fresh.basis_monomials(4, 3) == fresh.basis_monomials(-4, 3) == ()
        assert fresh.basis_monomials(9, 2) == ()


def test_basis_listing_builds_only_basis_paths(monkeypatch):
    """Work pin: on a 200-cycle each degree -3..3 has 200 monomials, and
    listing them builds one path per monomial with p or q nonempty (1200
    paths, 2400 edge ids) and never enumerates paths by length (the full
    enumeration held about 80800 paths per cap)."""
    def forbidden(*args):
        raise AssertionError("paths_up_to called while listing a basis")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "leavitt"]:
        if vars(module).get("paths_up_to") is graph_module.paths_up_to:
            monkeypatch.setattr(module, "paths_up_to", forbidden)
    built = {"calls": 0, "paths": 0, "edges": 0}
    paths_ending_in = LeavittAlgebra._paths_ending_in

    def counting(self, e, length):
        out = paths_ending_in(self, e, length)
        built["calls"] += 1
        built["paths"] += len(out)
        built["edges"] += sum(len(p.edges) for p in out)
        return out

    monkeypatch.setattr(LeavittAlgebra, "_paths_ending_in", counting)
    algebra = LeavittAlgebra(big_cycle(200))
    assert [len(algebra.basis_monomials(d)) for d in range(-3, 4)] == [200] * 7
    assert built == {"calls": 1200, "paths": 1200, "edges": 2400}


# -- graded dimensions counted, not listed ------------------------------------------


def check_dim_orders(g, asks, cap):
    """`graded_dim` asked in rising, falling and drawn cap order, each
    order on one algebra, equals the size of the basis built from a
    fresh enumeration at that cap."""
    for order in (sorted(asks, key=cap), sorted(asks, key=cap, reverse=True), asks):
        algebra = LeavittAlgebra(g)
        for degree, bound in order:
            expected = len(basis_from_fresh_paths(algebra, degree, cap((degree, bound))))
            assert algebra.graded_dim(degree, bound) == expected, (degree, bound)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(no_exit_multigraphs(), st.lists(st.integers(-5, 5), min_size=1, max_size=6))
def test_graded_dim_counts_basis_on_no_exit_graphs(g, degrees):
    check_dim_orders(g, [(d, None) for d in degrees], lambda ask: 2 * len(g.vertices) + abs(ask[0]))
    # the block side: the shift-difference histogram of each block, over K
    # for a sink and over K[x^t, x^-t] for a cycle, against one test per
    # position (i, j); then both sides of `dims` agree
    report = decompose(LeavittAlgebra(g))
    for block in report.blocks:
        M = block.algebra
        for m in degrees + [d + 7 for d in degrees]:
            by_position = sum(M.base.has_component(m + sj - si) for si in M.shifts for sj in M.shifts)
            assert M.hom_component_dim(m) == by_position, (m, M)
    assert dim_series_check(report, 5).all_equal


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(exit_multigraphs(), bounded_asks(st.integers(-6, 6), st.integers(0, 4)))
def test_graded_dim_counts_basis_on_graphs_with_exits(g, asks):
    check_dim_orders(g, asks, lambda ask: ask[1])


def test_graded_dim_negative_bound_and_degree_beyond_cap():
    for g in (build_negative()["rose2"], complete(3), build_corpus()["fedcycle"]):
        fresh = LeavittAlgebra(g)
        # nothing counted yet, then after the series reach cap 3
        assert fresh.graded_dim(0, -1) == fresh.graded_dim(0, -5) == 0
        assert fresh.graded_dim(2, 3) == len(fresh.basis_monomials(2, 3)) > 0
        for degree in (-1, 0, 1):
            assert fresh.graded_dim(degree, -1) == 0
        # |degree| > cap: no path pair has that length difference
        assert fresh.graded_dim(4, 3) == fresh.graded_dim(-4, 3) == 0
        assert fresh.graded_dim(9, 2) == 0


def test_path_count_series_stop_at_longest_path():
    """On an acyclic graph the series end at the longest path, so a huge
    length bound costs no more than the graph."""
    line = Graph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    algebra = LeavittAlgebra(line)
    assert [algebra.graded_dim(d, 10**6) for d in (-3, -2, 0, 2, 3)] == [0, 1, 3, 1, 0]
    sinks, nonsinks, lengths = algebra._path_counts(10**6)
    assert lengths == 3 and sinks == [[1, 1, 1]] and nonsinks == [[1, 0, 0], [1, 1, 0]]


def test_graded_dim_lists_no_paths(monkeypatch):
    """`graded_dim` and `dims` neither enumerate paths nor list a basis."""
    corpus = dict(build_corpus(), **build_negative())
    listed = {
        name: [
            len(LeavittAlgebra(g).basis_monomials(d, None if no_exit_condition(g) else 3))
            for d in range(-6, 7)
        ]
        for name, g in corpus.items()
    }

    def forbidden(*args):
        raise AssertionError("paths listed while counting dimensions")

    monkeypatch.setattr(LeavittAlgebra, "_paths_ending_in", forbidden)
    monkeypatch.setattr(LeavittAlgebra, "basis_monomials", forbidden)
    for name, g in corpus.items():
        ne = no_exit_condition(g)
        algebra = LeavittAlgebra(g)
        counted = [algebra.graded_dim(d, None if ne else 3) for d in range(-6, 7)]
        assert counted == listed[name], name
        if ne:
            assert dim_series_check(decompose(algebra), 6).all_equal, name


# -- the hot path never enumerates cycles ------------------------------------------


def complete(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}_{j}", a, b) for i, a in enumerate(vs) for j, b in enumerate(vs)])


def big_cycle(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def test_hot_path_never_calls_simple_cycles(monkeypatch):
    corpus = dict(build_corpus(), **build_negative())
    # the answers by enumeration, before it is switched off
    expected = {
        name: (rule_by_enumeration(g), len(sinks(g)) + len(simple_cycles(g)))
        for name, g in corpus.items()
    }
    dims = {
        name: dim_series_check(decompose(LeavittAlgebra(g)), 4).rows
        for name, g in corpus.items()
        if expected[name][0]
    }
    fresh = {name: Graph(g.vertices, g.edges) for name, g in corpus.items()}

    def forbidden(g):
        raise AssertionError("simple_cycles called on the no-exit path")

    original = graph_module.simple_cycles
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "leavitt"]:
        if vars(module).get("simple_cycles") is original:
            monkeypatch.setattr(module, "simple_cycles", forbidden)
    passes = []
    peel = graph_module._cycles_without_exit
    monkeypatch.setattr(
        graph_module, "_cycles_without_exit", lambda g: passes.append(g) or peel(g)
    )

    for name, g in fresh.items():
        ne, count = expected[name]
        assert no_exit_condition(g) is ne, name
        report = classify(g)
        assert report.no_exit is ne and report.block_count == (count if ne else 0), name
        if ne:
            algebra = LeavittAlgebra(g)
            assert len(decompose(algebra).blocks) == count, name
            assert dim_series_check(decompose(algebra), 4).rows == dims[name], name
        else:
            with pytest.raises(ExitConditionError):
                decompose(g)
    # one linear pass per graph, however often the condition is asked
    assert len(passes) == len(fresh)

    k10 = complete(10)
    assert not no_exit_condition(k10) and k10.no_exit_cycles is None
    assert classify(k10).block_count == 0
    with pytest.raises(ExitConditionError):
        decompose(k10)
    with pytest.raises(InfiniteEnumerationError):
        LeavittAlgebra(k10).graded_dim(0)

    ring = big_cycle(10**4)
    assert no_exit_condition(ring)
    report = classify(ring)
    assert report.no_exit and report.block_count == 1
    (c,) = ring.no_exit_cycles
    assert c.base == "v0" and c.length == 10**4
    assert c.path.edges[:3] == ("e0", "e1", "e2")
    assert len(passes) == len(fresh) + 2
