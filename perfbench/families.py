"""Seeded graph families and their closed-form answers.

Nothing here imports ``leavitt``: every expected answer the benchmark
checks is derived from the family parameters alone (or, for walk counts,
from a plain dynamic program over the edge list), so a fast wrong answer
from the program cannot also fix the answer it is checked against.

A generated graph is a ``Case``: the graph JSON the CLI reads, plus the
expected block list.  The seed changes the vertex and edge names (random
but order-preserving, so every family keeps the same label order along
its paths and the same cost) and the order in which vertices and edges
are listed in the JSON.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Block:
    """One expected matrix block: anchor vertex, shifts, cycle length."""

    kind: str  # "sink" or "cycle"
    anchor: str  # the sink, or the smallest vertex id on the cycle
    shifts: tuple  # sorted lengths of the index paths
    t: int = 0  # cycle length (0 for sinks)

    @property
    def n(self) -> int:
        return len(self.shifts)


@dataclass
class Case:
    name: str
    graph: dict  # {"vertices": [...], "edges": [{"id", "src", "dst"}, ...]}
    no_exit: bool
    blocks: list = field(default_factory=list)  # [Block], in decompose order

    @property
    def vertices(self):
        return self.graph["vertices"]

    @property
    def edges(self):
        return self.graph["edges"]


class Namer:
    """Order-preserving random names: the k-th name drawn sorts k-th."""

    def __init__(self, rng: random.Random, prefix: str, count: int):
        labels = sorted(rng.sample(range(10**6, 10**7), count))
        self._names = iter(f"{prefix}{x}" for x in labels)

    def __call__(self) -> str:
        return next(self._names)


def _finish(rng, name, vertices, edges, no_exit, blocks) -> Case:
    vertices = list(vertices)
    edges = [{"id": e, "src": s, "dst": d} for e, s, d in edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    order = {"sink": 0, "cycle": 1}
    blocks = sorted(blocks, key=lambda b: (order[b.kind], b.anchor))
    return Case(name, {"vertices": vertices, "edges": edges}, no_exit, blocks)


# -- building blocks (vertex lists, edge triples, expected blocks) -----------


def _line(vn, en, n):
    vs = [vn() for _ in range(n)]
    es = [(en(), vs[i], vs[i + 1]) for i in range(n - 1)]
    return vs, es, [Block("sink", vs[-1], tuple(range(n)))]


def _fed_cycle(vn, en, tail, t):
    """A cycle of length t whose smallest vertex is fed by a tail path.

    Index paths into the base: t on the cycle (lengths 0..t-1) and one
    per tail vertex (lengths 1..tail), so n = tail + t.
    """
    us = [vn() for _ in range(tail)]
    cs = [vn() for _ in range(t)]
    es = [(en(), cs[i], cs[(i + 1) % t]) for i in range(t)]
    chain = us + [cs[0]]
    es += [(en(), chain[i], chain[i + 1]) for i in range(tail)]
    shifts = tuple(sorted(list(range(t)) + list(range(1, tail + 1))))
    return us + cs, es, [Block("cycle", cs[0], shifts, t)]


# -- the families ----------------------------------------------------------------


def line(rng, n) -> Case:
    """Path of n vertices into one sink: n = n, shifts 0..n-1."""
    vs, es, bl = _line(Namer(rng, "v", n), Namer(rng, "e", n), n)
    return _finish(rng, f"line{n}", vs, es, True, bl)


def cycle(rng, t) -> Case:
    """A bare cycle of length t: one block over K[x^t, x^-t], n = t."""
    vs, es, bl = _fed_cycle(Namer(rng, "c", t), Namer(rng, "k", t), 0, t)
    return _finish(rng, f"cycle{t}", vs, es, True, bl)


def fed_cycle(rng, tail, t) -> Case:
    """A tail of `tail` edges feeding a cycle of length t: n = tail + t."""
    vn, en = Namer(rng, "u", tail + t), Namer(rng, "h", tail + t)
    vs, es, bl = _fed_cycle(vn, en, tail, t)
    return _finish(rng, f"fed{tail}_{t}", vs, es, True, bl)


def diamond_chain(rng, k) -> Case:
    """k diamonds in series into a sink: n = 2^(k+2) - 3.

    From the i-th join vertex there are 2^(k-i) paths of length 2(k-i)
    to the sink; from each of the two middle vertices of diamond i,
    2^(k-i) paths of length 2(k-i)+1.
    """
    vn, en = Namer(rng, "d", 3 * k + 1), Namer(rng, "f", 4 * k)
    joins = [vn()]
    vs, es = list(joins), []
    for _ in range(k):
        a, b, s = vn(), vn(), vn()
        prev = joins[-1]
        es += [(en(), prev, a), (en(), prev, b), (en(), a, s), (en(), b, s)]
        joins.append(s)
        vs += [a, b, s]
    shifts = []
    for i in range(k + 1):
        shifts += [2 * (k - i)] * 2 ** (k - i)
        if i:
            shifts += [2 * (k - i) + 1] * 2 ** (k - i + 1)
    return _finish(
        rng, f"diamond{k}", vs, es, True, [Block("sink", joins[-1], tuple(sorted(shifts)))]
    )


def in_tree(rng, depth) -> Case:
    """Complete binary tree with every edge pointing at the root (the sink).

    n = 2^(depth+1) - 1: one index path per vertex, of length its depth.
    """
    size = 2 ** (depth + 1) - 1
    vn, en = Namer(rng, "t", size), Namer(rng, "r", size)
    vs = [vn() for _ in range(size)]
    es = [(en(), vs[i], vs[(i - 1) // 2]) for i in range(1, size)]
    shifts = tuple(sorted(j for j in range(depth + 1) for _ in range(2**j)))
    return _finish(rng, f"tree{depth}", vs, es, True, [Block("sink", vs[0], shifts)])


def mixed(rng, fed_a, fed_b, line_n) -> Case:
    """Two fed cycles and a line into a sink, as three components."""
    parts = (fed_a, fed_b)
    count = sum(a + b for a, b in parts) + line_n
    vn, en = Namer(rng, "m", count), Namer(rng, "g", count)
    vs, es, bl = _line(vn, en, line_n)
    for tail, t in parts:
        v2, e2, b2 = _fed_cycle(vn, en, tail, t)
        vs, es, bl = vs + v2, es + e2, bl + b2
    name = f"mixed{fed_a[0]}_{fed_a[1]}+{fed_b[0]}_{fed_b[1]}+{line_n}"
    return _finish(rng, name, vs, es, True, bl)


def complete(rng, n) -> Case:
    """K_n, the complete digraph without loops: every cycle has an exit."""
    vn, en = Namer(rng, "w", n), Namer(rng, "x", n * (n - 1))
    vs = [vn() for _ in range(n)]
    es = [(en(), a, b) for a in vs for b in vs if a != b]
    return _finish(rng, f"K{n}", vs, es, False, [])


def rose(rng, k) -> Case:
    """One vertex with k loops: each loop is an exit for the others."""
    v = Namer(rng, "o", 1)()
    en = Namer(rng, "l", k)
    return _finish(rng, f"rose{k}", [v], [(en(), v, v) for _ in range(k)], False, [])


# -- closed-form answers -----------------------------------------------------------


def out_degrees(case: Case) -> dict:
    deg = {v: 0 for v in case.vertices}
    for e in case.edges:
        deg[e["src"]] += 1
    return deg


def hom_dim(block: Block, m: int) -> int:
    """Dimension of the degree-m component of one shifted matrix block.

    Position (i, j) carries degree m when its base entry sits in degree
    m + d_j - d_i: only 0 over a field, any multiple of t over K[x^t, x^-t].
    """
    counts = Counter(block.shifts)
    total = 0
    for di, ci in counts.items():
        for dj, cj in counts.items():
            d = m + dj - di
            if (d % block.t == 0) if block.kind == "cycle" else d == 0:
                total += ci * cj
    return total


def dims_rows(case: Case, bound: int):
    """The expected `dims` rows: both sides equal the block-side count."""
    return [(m, sum(hom_dim(b, m) for b in case.blocks)) for m in range(-bound, bound + 1)]


def verify_total(case: Case) -> int:
    """Relation checks `verify-iso` replays: |V|^2 orthogonality, 1 identity,
    2|E| endpoint, |E|^2 ghost-edge, one per non-sink, |V| + |E| degree,
    one coverage check per block."""
    nv, ne = len(case.vertices), len(case.edges)
    non_sinks = sum(1 for d in out_degrees(case).values() if d)
    return nv * nv + 1 + 2 * ne + ne * ne + non_sinks + nv + ne + len(case.blocks)


def type_one_vertices(case: Case):
    """The canonical faithful abelian idempotent: all block anchors."""
    return sorted(b.anchor for b in case.blocks)


def paths_of_length(case: Case, length: int):
    """Every path of exactly `length` edges, as (base, edge ids, end)."""
    out_edges = {v: [] for v in case.vertices}
    for e in case.edges:
        out_edges[e["src"]].append(e)
    paths = [(v, (), v) for v in case.vertices]
    for _ in range(length):
        paths = [(b, es + (e["id"],), e["dst"]) for b, es, end in paths for e in out_edges[end]]
    return paths


def sink_distance(case: Case) -> dict:
    """Shortest distance from each vertex to a sink (absent: none reachable)."""
    into = {v: [] for v in case.vertices}
    for e in case.edges:
        into[e["dst"]].append(e["src"])
    dist = {v: 0 for v, d in out_degrees(case).items() if d == 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for v in frontier:
            for u in into[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def sum_ppstar(case: Case, length: int) -> dict:
    """Normal form of the sum of p p* over paths of one length.

    Applying v = sum e e* at each step shows the sum is the vertex v for
    every v with no path of length < `length` into a sink.  In these
    families every path from such a v into a sink has one length, so the
    other vertices start no path of that length and contribute nothing.
    Returned as {vertex: coefficient}.
    """
    dist = sink_distance(case)
    return {v: 1 for v in case.vertices if dist.get(v, length) >= length}


def ystar_y(case: Case, length: int) -> dict:
    """y* y for y the sum of all paths of one length: p* q is r(p) when
    p == q and 0 otherwise, so y* y = sum over v of N(v) v, N(v) the
    number of such paths ending at v."""
    counts: dict = {}
    for _, _, end in paths_of_length(case, length):
        counts[end] = counts.get(end, 0) + 1
    return counts
