"""Finite directed multigraphs and the path machinery built on them.

A graph is a finite set of vertex identifiers plus a finite set of
labelled edges (id, source, range).  Parallel edges and loops are fine;
edge ids are the identity of an edge, so two parallel edges are distinct
walks.

The key structural notion: a cycle *has an exit* when some vertex on it
emits an edge not belonging to the cycle.  ``no_exit_condition`` asks
that no simple cycle has an exit; all of the matrix decomposition theory
downstream is gated on it, and it is exactly what makes the path
enumerations here finite without a length bound.

The test never lists cycles.  A simple cycle leaves each of its vertices
by exactly one of its own edges, so no cycle has an exit exactly when
every vertex lying on a cycle has out-degree 1.  One pass of Kahn's
peeling (drop the vertices of in-degree 0 until none is left) keeps
exactly the vertices reachable from a cycle, in O(|V| + |E|); under the
condition those are the cycle vertices, and each cycle is read off by
following the unique out-edges from its smallest vertex.
``Graph.no_exit_cycles`` caches the outcome on the (immutable) graph:
the cycles sorted by base, or None when some cycle has an exit.
``simple_cycles`` remains the general enumerator for graphs with exits.

Every walk here uses an explicit stack, so graph size is never bounded
by the interpreter's recursion limit.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple


class GraphError(ValueError):
    """Malformed graph data: duplicate ids, dangling endpoints, bad paths."""


def check_ids(*groups) -> None:
    """Vertex and edge ids read from JSON, in the sequences `groups`, are
    strings or integers, by exact type, so a JSON true or false is refused
    like null or 1.5.  An integer id names the vertex or edge whose id is
    its decimal text (`str`)."""
    if not set(map(type, chain(*groups))) <= {str, int}:
        bad = next(x for x in chain(*groups) if type(x) not in (str, int))
        raise GraphError(f"an identifier must be a string or an integer, not {bad!r}")


class InfiniteEnumerationError(RuntimeError):
    """A path enumeration was requested that is not guaranteed finite."""


class Edge(NamedTuple):
    id: str
    src: str
    dst: str


class Path(NamedTuple):
    """A finite directed path: a base vertex and a composable edge id tuple.

    `base` is the source; `end` is the range.  The empty path at a vertex
    v has base == end == v and no edges.  `end` is stored so path algebra
    never needs a graph lookup, but only `Graph.path` and the helpers
    below construct paths, keeping the three fields consistent.  `len`
    counts the edges, so the named tuple's `_make` and `_replace` do not
    apply to paths.
    """

    base: str
    edges: tuple
    end: str

    def __len__(self):
        return len(self.edges)

    @property
    def is_empty(self) -> bool:
        return not self.edges

    def sort_key(self):
        return (len(self.edges), self.edges, self.base)

    def to_json(self) -> dict:
        return {"base": self.base, "edges": list(self.edges)}


class Cycle(NamedTuple):
    """A simple closed path, stored based at its minimal vertex.

    Simple means no repeated vertex except the base at the two ends.
    Two rotations of the same closed walk are the same cycle; the stored
    representative starts at the smallest vertex id on the walk.
    """

    path: Path

    @property
    def base(self) -> str:
        return self.path.base

    @property
    def length(self) -> int:
        return len(self.path.edges)

    def edge_set(self) -> frozenset:
        return frozenset(self.path.edges)

    def to_json(self) -> dict:
        return {"base": self.base, "edges": list(self.path.edges)}


class Graph:
    """A finite directed multigraph with string vertex and edge identifiers."""

    def __init__(self, vertices, edges):
        vs = tuple(str(v) for v in vertices)
        if not vs:
            raise GraphError("a graph needs at least one vertex")
        self.vertices = vs
        vset = set(vs)
        if len(vset) != len(vs):
            raise GraphError("duplicate vertex identifiers")
        self.edges = es = tuple(Edge(str(i), str(s), str(d)) for i, s, d in edges)
        for eid, src, dst in es:
            if src not in vset:
                raise GraphError(f"edge {eid}: unknown source vertex {src}")
            if dst not in vset:
                raise GraphError(f"edge {eid}: unknown range vertex {dst}")
        self._by_id = {e.id: e for e in es}
        if len(self._by_id) != len(es):
            raise GraphError("duplicate edge identifiers")
        out = {v: [] for v in vs}
        into = {v: [] for v in vs}
        for e in sorted(es):  # ids are unique, so this is id order
            out[e.src].append(e)
            into[e.dst].append(e)
        self._out = {v: tuple(x) for v, x in out.items()}
        self._in = {v: tuple(x) for v, x in into.items()}

    # -- basic queries ---------------------------------------------------

    def edge(self, eid: str) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise GraphError(f"unknown edge identifier {eid}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._out

    def out_edges(self, v: str):
        try:
            return self._out[v]
        except KeyError:
            raise GraphError(f"unknown vertex identifier {v}") from None

    def in_edges(self, v: str):
        try:
            return self._in[v]
        except KeyError:
            raise GraphError(f"unknown vertex identifier {v}") from None

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    @cached_property
    def no_exit_cycles(self):
        """The cycles, sorted by base, when none has an exit; else None.

        Computed once per graph by one linear peeling pass; equal to
        ``simple_cycles(self)`` whenever it is not None.
        """
        return _cycles_without_exit(self)

    # -- path construction -------------------------------------------------

    def path(self, base: str, edge_ids=()) -> Path:
        if not self.has_vertex(base):
            raise GraphError(f"unknown vertex identifier {base}")
        at = base
        for eid in edge_ids:
            e = self.edge(eid)
            if e.src != at:
                raise GraphError(f"edges do not compose at {at}: got edge {eid} from {e.src}")
            at = e.dst
        return Path(base, tuple(edge_ids), at)

    def empty_path(self, v: str) -> Path:
        return self.path(v)

    def cycle(self, edge_ids) -> Cycle:
        """Build the canonical cycle through the given closed simple edge walk."""
        if not edge_ids:
            raise GraphError("a cycle needs at least one edge")
        p = self.path(self.edge(edge_ids[0]).src, edge_ids)
        if p.end != p.base:
            raise GraphError("edge walk is not closed")
        visited = [self.edge(eid).src for eid in p.edges]
        if len(set(visited)) != len(visited):
            raise GraphError("closed walk revisits a vertex; not a simple cycle")
        k = visited.index(min(visited))
        rotated = p.edges[k:] + p.edges[:k]
        return Cycle(self.path(visited[k], rotated))

    # -- io -----------------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data) -> "Graph":
        if not isinstance(data, dict):
            raise GraphError("graph serialization must be an object")
        try:
            vertices, edges = data["vertices"], data["edges"]
        except (KeyError, TypeError):
            raise GraphError("graph serialization needs 'vertices' and 'edges'") from None
        if not isinstance(vertices, list) or not isinstance(edges, list):
            raise GraphError("'vertices' and 'edges' must be arrays")
        try:
            triples = [(rec["id"], rec["src"], rec["dst"]) for rec in edges]
        except (KeyError, TypeError):
            raise GraphError("each edge needs 'id', 'src' and 'dst'") from None
        check_ids(vertices, *triples)
        return cls(vertices, triples)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in self.edges],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and other.vertices == self.vertices
            and other.edges == self.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


# ---------------------------------------------------------------------------
# path helpers (graph-free thanks to the stored endpoints)
# ---------------------------------------------------------------------------


def concat(a: Path, b: Path) -> Path:
    if a.end != b.base:
        raise GraphError(f"paths do not compose: {a.end} != {b.base}")
    return Path(a.base, a.edges + b.edges, b.end)


def is_prefix(a: Path, b: Path) -> bool:
    """True when b = a . (something), as composable paths from the same base."""
    return a.base == b.base and b.edges[: len(a.edges)] == a.edges


def strip_prefix(a: Path, b: Path) -> Path:
    """The path r with b = a . r; requires is_prefix(a, b)."""
    if not is_prefix(a, b):
        raise GraphError("not a prefix")
    return Path(a.end, b.edges[len(a.edges):], b.end)


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------


def sinks(g: Graph) -> set:
    return {v for v in g.vertices if g.is_sink(v)}


def simple_cycles(g: Graph):
    """All simple cycles, canonically based, sorted by (base, length, edges).

    Rooted search: for each base in increasing order, walk only through
    vertices strictly larger than the base, so every cycle is found once,
    already at its canonical rotation.  Parallel edges give distinct
    cycles.  The number of cycles, and so the cost, can be exponential
    in the size of g; the no-exit test does not use this.
    """
    found = []
    for base in sorted(g.vertices):
        edges = []  # the walk from base; the frames below are its vertices
        on_walk = {base}
        frames = [(base, iter(g.out_edges(base)))]
        while frames:
            at, pending = frames[-1]
            for e in pending:
                if e.dst == base:
                    found.append(Cycle(Path(base, tuple(edges) + (e.id,), base)))
                elif e.dst > base and e.dst not in on_walk:
                    edges.append(e.id)
                    on_walk.add(e.dst)
                    frames.append((e.dst, iter(g.out_edges(e.dst))))
                    break
            else:
                frames.pop()
                on_walk.discard(at)
                if edges:
                    edges.pop()
    found.sort(key=lambda c: (c.base, c.length, c.path.edges))
    return tuple(found)


def has_exit(g: Graph, c: Cycle) -> bool:
    """Does some vertex on the cycle emit an edge not belonging to it?"""
    cycle_edges = c.edge_set()
    on_cycle = {g.edge(eid).src for eid in c.path.edges}
    for v in on_cycle:
        for e in g.out_edges(v):
            if e.id not in cycle_edges:
                return True
    return False


def _cycles_without_exit(g: Graph):
    """The cycles of g sorted by base if none has an exit, else None.

    Kahn's peeling: drop the vertices of in-degree 0, one at a time,
    discounting their out-edges.  The vertices left are exactly those
    reachable from a cycle.  One of them on no cycle is reached along a
    path leaving some cycle, an exit; and every cycle survives.  So no
    cycle has an exit exactly when every vertex left has out-degree 1,
    and then the vertices left are the cycle vertices.  Walking the
    unique out-edges from each unvisited one, in sorted order, gives
    each cycle once, based at its smallest vertex and sorted by base.
    """
    out = g._out
    indegree = {v: len(es) for v, es in g._in.items()}
    stack = [v for v, d in indegree.items() if not d]
    while stack:
        for e in out[stack.pop()]:
            indegree[e.dst] -= 1
            if not indegree[e.dst]:
                stack.append(e.dst)
    left = sorted(v for v, d in indegree.items() if d)
    if any(len(out[v]) != 1 for v in left):
        return None
    cycles, seen = [], set()
    for base in left:
        edges, at = [], base
        while at not in seen:
            seen.add(at)
            (e,) = out[at]
            edges.append(e.id)
            at = e.dst
        if edges:
            cycles.append(Cycle(Path(base, tuple(edges), base)))
    return tuple(cycles)


def no_exit_condition(g: Graph) -> bool:
    """True when no simple cycle of g has an exit.

    Equivalently, every vertex on a cycle has out-degree 1.  Decided by
    the linear peeling pass behind ``Graph.no_exit_cycles`` and cached
    on g, so repeated calls are lookups.
    """
    return g.no_exit_cycles is not None


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------


def paths_up_to(g: Graph, max_len: int):
    """Every path of length <= max_len, sorted by (length, edges, base)."""
    out = [g.empty_path(v) for v in g.vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e in g.out_edges(p.end):
                nxt.append(Path(p.base, p.edges + (e.id,), e.dst))
        out.extend(nxt)
        frontier = nxt
    out.sort(key=Path.sort_key)
    return tuple(out)


def _paths_ending_at(g: Graph, end: str, length_bound, avoid=()):
    """Paths ending at `end`, grown edge by edge at their front.

    A path of length `length_bound` is not grown further.  A path that
    starts with the edge sequence `avoid` (when nonempty) is neither kept
    nor grown; since every other path was checked when it was emitted,
    only the fresh front can complete a copy.
    """
    t = len(avoid)
    out = []
    stack = [(end, ())]
    while stack:
        base, edge_ids = stack.pop()
        out.append(Path(base, edge_ids, end))
        if length_bound is not None and len(edge_ids) >= length_bound:
            continue
        for e in g.in_edges(base):
            new = (e.id,) + edge_ids
            if t and new[:t] == avoid:
                continue
            stack.append((e.src, new))
    out.sort(key=Path.sort_key)
    return tuple(out)


def paths_into(g: Graph, v: str, length_bound=None):
    """All paths ending at the sink v (the empty path included).

    Without a bound this requires the no-exit condition and v a sink;
    everything feeding a sink is then cycle-free, so the enumeration is
    finite.  With `length_bound` set, paths of length <= bound ending at
    any vertex v are enumerated instead (truncated mode).
    """
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex identifier {v}")
    if length_bound is None:
        if not no_exit_condition(g):
            raise InfiniteEnumerationError(
                "a cycle with an exit feeds unboundedly many paths; pass length_bound"
            )
        if not g.is_sink(v):
            raise InfiniteEnumerationError(
                f"{v} is not a sink; unbounded enumeration is only supported into sinks"
            )
    return _paths_ending_at(g, v, length_bound)


def paths_into_cycle(g: Graph, c: Cycle, length_bound=None):
    """All paths ending at c.base that do not contain the based cycle itself.

    These index the matrix block attached to c: every path into the cycle
    factors uniquely as (one of these) . c^k.  Containment means the full
    edge sequence of c occurring contiguously; under the no-exit
    condition the enumeration is finite without a bound.
    """
    if length_bound is None and not no_exit_condition(g):
        raise InfiniteEnumerationError(
            "a cycle with an exit feeds unboundedly many paths; pass length_bound"
        )
    return _paths_ending_at(g, c.base, length_bound, c.path.edges)


def cycle_power(c: Cycle, k: int) -> Path:
    """The path c^k based at c.base (k >= 0; k = 0 is the empty path)."""
    if k < 0:
        raise ValueError("negative cycle power")
    return Path(c.base, c.path.edges * k, c.base)


def factor_through_cycle(g: Graph, c: Cycle, p: Path):
    """Factor a path ending at c.base as q . c^k with q cycle-free.

    Returns (q, k).  Strips copies of the based cycle from the right; the
    remainder contains no full copy, and the factorization is unique.  The
    copies are matched by moving an end index back t edges at a time, and
    q is sliced once, so the cost is linear in len(p).
    """
    if p.end != c.base:
        raise GraphError(f"path does not end at the cycle base {c.base}")
    cyc = c.path.edges
    t = len(cyc)
    edges = p.edges
    end = len(edges)
    while end >= t and edges[end - t:end] == cyc:
        end -= t
    return Path(p.base, edges[:end], c.base), (len(edges) - end) // t
