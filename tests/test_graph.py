"""Graph construction, cycle enumeration, exit analysis, path indexing."""

import itertools

import pytest

from corpus import build_corpus, build_negative
from leavitt import Edge, Graph, GraphError, InfiniteEnumerationError
from leavitt.graph import (
    concat,
    cycle_power,
    factor_through_cycle,
    has_exit,
    is_prefix,
    no_exit_condition,
    paths_into,
    paths_into_cycle,
    paths_up_to,
    simple_cycles,
    sinks,
    strip_prefix,
)


def line3():
    return Graph(["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3")])


def test_construction_validation():
    with pytest.raises(GraphError):
        Graph(["v", "v"], [])
    with pytest.raises(GraphError):
        Graph(["v"], [("e", "v", "w")])
    with pytest.raises(GraphError):
        Graph(["v"], [("e", "w", "v")])
    with pytest.raises(GraphError):
        Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])


def test_edge_is_a_plain_tuple():
    e = Edge("e", "a", "b")
    assert e == ("e", "a", "b") and hash(e) == hash(("e", "a", "b"))
    assert repr(e) == "Edge(id='e', src='a', dst='b')"
    eid, src, dst = e
    assert (eid, src, dst) == (e.id, e.src, e.dst) == (e[0], e[1], e[2])
    assert Graph(["a", "b"], [e]).edges == (e,)


@pytest.mark.parametrize(
    "bad", [None, True, False, 1.5, ["b"], {"b": 1}],
    ids=["null", "true", "false", "float", "array", "object"],
)
@pytest.mark.parametrize("field", ["vertex", "id", "src", "dst"])
def test_json_identifiers_are_strings_or_integers(field, bad):
    data = {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}]}
    if field == "vertex":
        data["vertices"].append(bad)
    else:
        data["edges"][0][field] = bad
    with pytest.raises(GraphError, match="must be a string or an integer"):
        Graph.from_json_dict(data)


def test_json_integer_identifiers():
    g = Graph.from_json_dict({"vertices": [1, 2], "edges": [{"id": 7, "src": 1, "dst": 2}]})
    assert g.vertices == ("1", "2") and g.edges == (Edge("7", "1", "2"),)
    # called from Python, Graph still converts every identifier with str()
    assert Graph([None], [(True, None, None)]).edges == (Edge("True", "None", "None"),)


def test_json_round_trip():
    g = line3()
    assert Graph.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(GraphError):
        Graph.from_json_dict({"vertices": ["v"]})
    with pytest.raises(GraphError):
        Graph.from_json_dict({"vertices": ["v"], "edges": [{"id": "e"}]})
    with pytest.raises(GraphError):
        Graph.from_json_dict("nope")


def test_sinks():
    g = line3()
    assert sinks(g) == {"v3"}
    assert g.is_sink("v3") and not g.is_sink("v1")


def test_edge_lists_are_stored_once():
    g = Graph(["a", "b"], [("y", "a", "b"), ("x", "a", "b"), ("w", "b", "a")])
    assert [e.id for e in g.out_edges("a")] == ["x", "y"]
    assert g.out_edges("a") is g.out_edges("a")
    assert g.in_edges("b") is g.in_edges("b")
    assert isinstance(g.in_edges("a"), tuple)
    with pytest.raises(GraphError):
        g.in_edges("nope")


def test_path_factory():
    g = line3()
    p = g.path("v1", ("e1", "e2"))
    assert p.base == "v1" and p.end == "v3" and len(p) == 2
    assert g.empty_path("v2").end == "v2"
    with pytest.raises(GraphError):
        g.path("v1", ("e2",))  # e2 starts at v2
    with pytest.raises(GraphError):
        g.path("nope")


def test_path_helpers():
    g = line3()
    a = g.path("v1", ("e1",))
    b = g.path("v1", ("e1", "e2"))
    assert is_prefix(a, b) and not is_prefix(b, a)
    assert strip_prefix(a, b) == g.path("v2", ("e2",))
    assert concat(a, g.path("v2", ("e2",))) == b
    with pytest.raises(GraphError):
        concat(b, a)
    with pytest.raises(GraphError):
        strip_prefix(b, a)


# -- cycles ----------------------------------------------------------------


def brute_force_cycle_count(g):
    """Independent oracle: closed edge walks with distinct sources, up to
    rotation.  Exponential, fine for the tiny graphs used here."""
    seen = set()
    for length in range(1, len(g.vertices) + 1):
        for combo in itertools.product(g.edges, repeat=length):
            if any(combo[i].dst != combo[(i + 1) % length].src for i in range(length)):
                continue
            srcs = [e.src for e in combo]
            if len(set(srcs)) != length:
                continue
            ids = tuple(e.id for e in combo)
            rotations = {ids[k:] + ids[:k] for k in range(length)}
            seen.add(min(rotations))
    return len(seen)


def test_simple_cycles_shapes():
    assert simple_cycles(line3()) == ()
    corpus = build_corpus()
    assert len(simple_cycles(corpus["loop"])) == 1
    assert len(simple_cycles(corpus["cyc3"])) == 1
    assert len(simple_cycles(corpus["fedcycle"])) == 1
    negatives = build_negative()
    assert len(simple_cycles(negatives["rose2"])) == 2
    # two disjoint loops
    g = Graph(["a", "b"], [("x", "a", "a"), ("y", "b", "b")])
    assert len(simple_cycles(g)) == 2
    # parallel return edges give two distinct cycles through v1, v2
    g = Graph(["v1", "v2"], [("f", "v1", "v2"), ("r1", "v2", "v1"), ("r2", "v2", "v1")])
    assert len(simple_cycles(g)) == 2


def test_simple_cycles_canonical_base():
    corpus = build_corpus()
    c = simple_cycles(corpus["cyc3"])[0]
    assert c.base == "v1" and c.length == 3
    assert c.path.edges == ("g1", "g2", "g3")
    c = simple_cycles(corpus["fedcycle"])[0]
    assert c.base == "c1" and c.path.edges == ("k1", "k2", "k3")


def test_simple_cycles_against_brute_force():
    graphs = list(build_corpus().values()) + list(build_negative().values())
    graphs.append(Graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "a"),
                                          ("e3", "b", "c"), ("e4", "c", "b"),
                                          ("e5", "a", "a")]))
    for g in graphs:
        assert len(simple_cycles(g)) == brute_force_cycle_count(g)


def test_simple_cycles_relabel_invariance():
    g = build_corpus()["fedcycle"]
    ren = {v: f"w{9 - i}" for i, v in enumerate(g.vertices)}
    h = Graph(
        [ren[v] for v in g.vertices],
        [(e.id, ren[e.src], ren[e.dst]) for e in g.edges],
    )
    assert sorted(c.length for c in simple_cycles(g)) == sorted(
        c.length for c in simple_cycles(h)
    )


def test_cycle_factory():
    g = build_corpus()["cyc3"]
    c = g.cycle(["g2", "g3", "g1"])  # any rotation in
    assert c.base == "v1" and c.path.edges == ("g1", "g2", "g3")  # canonical out
    with pytest.raises(GraphError):
        g.cycle(["g1"])
    with pytest.raises(GraphError):
        g.cycle([])


def test_has_exit():
    corpus, negatives = build_corpus(), build_negative()
    for name in ("loop", "cyc2", "cyc3", "fedcycle"):
        (c,) = simple_cycles(corpus[name])
        assert not has_exit(corpus[name], c)
    t = negatives["toeplitz"]
    (c,) = simple_cycles(t)
    assert has_exit(t, c)
    for c in simple_cycles(negatives["rose2"]):
        assert has_exit(negatives["rose2"], c)


def test_no_exit_condition_corpus():
    for name, g in build_corpus().items():
        assert no_exit_condition(g), name
    for name, g in build_negative().items():
        assert not no_exit_condition(g), name


# -- path enumeration ---------------------------------------------------------


def test_paths_into_line():
    g = line3()
    ps = paths_into(g, "v3")
    assert [len(p) for p in ps] == [0, 1, 2]
    assert ps[0].base == "v3" and ps[2].edges == ("e1", "e2")


def test_paths_into_parallel():
    g = build_corpus()["parallel"]
    ps = paths_into(g, "v2")
    assert [p.edges for p in ps] == [(), ("a",), ("b",)]


def test_paths_into_guards():
    g = line3()
    with pytest.raises(InfiniteEnumerationError):
        paths_into(g, "v2")  # not a sink
    t = build_negative()["toeplitz"]
    with pytest.raises(InfiniteEnumerationError):
        paths_into(t, "v2")
    # truncated mode works anywhere
    ps = paths_into(t, "v2", length_bound=3)
    assert [p.edges for p in ps] == [(), ("e",), ("c", "e"), ("c", "c", "e")]
    with pytest.raises(GraphError):
        paths_into(g, "nope")


def test_paths_into_cycle_small():
    corpus = build_corpus()
    g = corpus["loop"]
    (c,) = simple_cycles(g)
    assert [p.edges for p in paths_into_cycle(g, c)] == [()]
    g = corpus["cyc2"]
    (c,) = simple_cycles(g)
    assert [p.edges for p in paths_into_cycle(g, c)] == [(), ("f2",)]


def test_paths_into_cycle_fed():
    g = build_corpus()["fedcycle"]
    (c,) = simple_cycles(g)
    ps = paths_into_cycle(g, c)
    assert [p.edges for p in ps] == [
        (),
        ("h2",),
        ("k3",),
        ("h1", "h2"),
        ("k2", "k3"),
    ]
    # none contains the full based cycle
    cyc = c.path.edges
    for p in ps:
        for k in range(len(p.edges) - len(cyc) + 1):
            assert p.edges[k : k + len(cyc)] != cyc


def test_paths_into_cycle_guards():
    t = build_negative()["toeplitz"]
    (c,) = simple_cycles(t)
    with pytest.raises(InfiniteEnumerationError):
        paths_into_cycle(t, c)
    ps = paths_into_cycle(t, c, length_bound=2)
    assert [p.edges for p in ps] == [()]  # every feeder would repeat the loop


def test_factor_through_cycle():
    g = build_corpus()["fedcycle"]
    (c,) = simple_cycles(g)
    index = set(paths_into_cycle(g, c))
    # every path into the base factors uniquely through the index set
    for p in paths_up_to(g, 9):
        if p.end != c.base:
            continue
        q, k = factor_through_cycle(g, c, p)
        assert q in index
        assert concat(q, cycle_power(c, k)) == p
    with pytest.raises(GraphError):
        factor_through_cycle(g, c, g.empty_path("u1"))


def test_paths_up_to():
    g = line3()
    ps = paths_up_to(g, 2)
    assert len(ps) == 6  # 3 empty, e1, e2, e1e2
    assert len(paths_up_to(g, 0)) == 3
    # sorted by length first
    assert [len(p) for p in ps] == sorted(len(p) for p in ps)


def test_enumeration_never_hits_safety_bound_on_corpus():
    # with the no-exit condition, a generous explicit bound changes nothing
    for name, g in build_corpus().items():
        for v in sinks(g):
            free = paths_into(g, v)
            capped = paths_into(g, v, length_bound=4 * len(g.vertices))
            assert free == capped, name
        for c in simple_cycles(g):
            free = paths_into_cycle(g, c)
            capped = paths_into_cycle(g, c, length_bound=4 * len(g.vertices))
            assert free == capped, name
