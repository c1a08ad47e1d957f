"""Graded structure of the path algebra in the no-exit case.

When no simple cycle of the graph has an exit, the algebra splits as a
finite direct sum of graded matrix algebras, one block per sink and one
per cycle:

* a sink v contributes M_n(K) where n counts the paths ending at v,
  regraded by the shift tuple of their lengths;
* a cycle c of length t contributes M_n(K[x^t, x^(-t)]) where n counts
  the paths ending at c.base that do not contain the based cycle,
  regraded the same way.

These index paths are closed under dropping their first edge, so a
block keeps them as a tree rooted at the empty path, with a child table
(k, e) -> index of e q_k.  Each generator image, and the image of every
monomial p q*, is a monomial matrix given in closed form by
``GeneratorImages.apply``, which walks p and q through that table and
never concatenates paths; ``phi`` only wraps the report.  The vertex,
edge and ghost tables are built on first read, which only
``verify_phi`` (behind ``verify-iso``) does: it replays every defining
relation on them by products of their unit dicts, so it checks the
closed form rather than trusting it.  ``phi_inverse_basis`` and
``pull_back`` invert the map explicitly, sending the matrix unit
e_ij(x^(w t)) back to the canonical form of q_i c^w q_j*, with q_i and
q_j read off the tree (a negative w putting the cycle power on the
ghost side).

``classify`` reports the graded structure flags; they all reduce to the
no-exit condition.  ``dim_series_check`` compares graded dimensions on
both sides of phi degree by degree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, islice
from operator import attrgetter
from typing import NamedTuple

from .gmatrix import GradedMatrixAlgebra, _add_into, unit_product
from .graph import (
    Graph,
    GraphError,
    Path,
    no_exit_condition,
    path_tree,
    sinks,
    tree_paths,
)
from .lpa import LeavittAlgebra, LpaElement, Monomial
from .scalar import LaurentRing


class ExitConditionError(RuntimeError):
    """The graph has a cycle with an exit; no matrix decomposition exists."""


class VerificationError(RuntimeError):
    """An internal consistency replay failed."""


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TypeReport(NamedTuple):
    """Graded structure flags for one graph.

    The five flags are equivalent for these algebras, so they are all
    equal to the no-exit test; they are reported separately because they
    are separately meaningful.  `central_triple` decomposes the identity
    of the graded central idempotent lattice by type: all weight sits in
    the first slot when the flags hold.  `graded_prime` and
    `central_triple` are None when the flags fail.
    """

    no_exit: bool
    graded_self_injective: bool
    graded_regular: bool
    graded_sigma_v: bool
    graded_type_one: bool
    block_count: int
    graded_prime: object
    central_triple: object
    note: str

    def to_json(self) -> dict:
        triple = self.central_triple
        return dict(self._asdict(), central_triple=list(triple) if triple else None)


def classify(g: Graph) -> TypeReport:
    ne = no_exit_condition(g)
    count = len(sinks(g)) + len(g.no_exit_cycles) if ne else 0
    if ne:
        prime = count == 1
        triple = (1, 0, 0)
        note = (
            "graded type I_f: graded regular, graded self-injective, directly finite; "
            f"decomposes into {count} matrix block(s)"
        )
    else:
        prime = None
        triple = None
        note = "not graded self-injective; a cycle has an exit, no matrix decomposition"
    return TypeReport(
        no_exit=ne,
        graded_self_injective=ne,
        graded_regular=ne,
        graded_sigma_v=ne,
        graded_type_one=ne,
        block_count=count,
        graded_prime=prime,
        central_triple=triple,
        note=note,
    )


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


class Block:
    """One matrix summand: M_n(K) at a sink, M_n(K[x^t, x^(-t)]) at a
    cycle of length t, with its index paths and grading shifts.

    The index paths q_0, ..., q_(n-1) are the paths into the anchor (the
    sink, or the cycle base, cycle-free), kept as the tree that
    `graph.path_tree` grows: q_k starts at `bases[k]` and is the edge
    `first[k]` followed by q_(parent[k]).  `shifts[k]` is the length of
    q_k and `columns[v]` lists the k with s(q_k) = v; the child table
    behind `locate` and the `Path`s of `index_paths` are built when first
    read.  `cycle` is None at a sink: there every path into the anchor is
    an index path, every winding is 0 and `t` is 1.  Blocks compare by
    identity.
    """

    def __init__(self, anchor: str, cycle, bases, first, parent, base):
        self.anchor, self.cycle, self.n = anchor, cycle, len(bases)
        self.bases, self.first, self.parent = bases, first, parent
        self.kind, self.t = ("sink", 1) if cycle is None else ("cycle", cycle.length)
        shifts, self.columns = [0], {anchor: [0]}
        for k, (up, v) in enumerate(zip(parent[1:], bases[1:]), 1):
            shifts.append(shifts[up] + 1)
            self.columns.setdefault(v, []).append(k)
        self.shifts = tuple(shifts)
        self.algebra = GradedMatrixAlgebra(base, self.shifts)

    @cached_property
    def _child(self) -> dict:  # (k, e): the index of e q_k
        return dict(zip(zip(self.parent[1:], self.first[1:]), range(1, self.n)))

    @cached_property
    def index_paths(self) -> tuple:
        return tree_paths(self.anchor, self.bases, self.first, self.parent)

    def locate(self, p: Path, k: int):
        """(i, w) with p q_k = q_i c^w; needs r(p) = s(q_k).  Walks p's
        edges from last to first through the child table; at a cycle block
        e q_j is no index path only when it is the cycle itself (no cycle
        has an exit), and the walk goes on from q_0 with w one higher."""
        if p.end != self.bases[k]:
            raise GraphError(f"paths do not compose: {p.end} != {self.bases[k]}")
        child, w = self._child, 0
        for e in reversed(p.edges):
            i = child.get((k, e))
            if i is None:
                if self.cycle is None or e != self.cycle.path.edges[0]:
                    raise VerificationError(
                        f"{e} q_{k} missed the index set of the {self.kind} block at {self.anchor}"
                    )
                i, w = 0, w + 1
            k = i
        return k, w

    def _path(self, k: int, w: int = 0) -> Path:
        """q_k c^w, read off the tree by walking k's parents."""
        base, edges = self.bases[k], []
        while k:
            edges.append(self.first[k])
            k = self.parent[k]
        if w:
            edges += self.cycle.path.edges * w
        return Path(base, tuple(edges), self.anchor)

    def preimage(self, i: int, j: int, w: int = 0) -> Monomial:
        """The path pair q_i c^w q_j* mapping to the unit e_ij(x^(w t)); for
        w < 0 the cycle power sits on the ghost side, q_i (q_j c^(-w))*."""
        if w and self.cycle is None:
            raise ValueError("sink blocks carry no cycle power; w must be 0")
        return Monomial(self._path(i, max(w, 0)), self._path(j, max(-w, 0)))

    def fields_json(self) -> dict:
        """Every field of `to_json` but the index paths; the CLI writes
        those itself, and these through its emitter."""
        out = {
            "kind": self.kind,
            "shifts": list(self.shifts),
            "base": self.algebra.base_to_json(),
        }
        if self.cycle is None:
            out["vertex"] = self.anchor
        else:
            out["cycle"] = self.cycle.to_json()
            out["t"] = self.t
        return out

    def to_json(self) -> dict:
        return dict(self.fields_json(), paths=[p.to_json() for p in self.index_paths])


class DecompositionReport(NamedTuple):
    """The full block decomposition of one algebra (no-exit case)."""

    algebra: LeavittAlgebra
    blocks: tuple

    @property
    def graph(self) -> Graph:
        return self.algebra.graph

    def fields_json(self) -> dict:
        """Every field of `to_json` but the blocks."""
        return {"field_characteristic": getattr(self.algebra.field, "characteristic", 0)}

    def to_json(self) -> dict:
        return dict(self.fields_json(), blocks=[b.to_json() for b in self.blocks])


def decompose(algebra_or_graph, field=None) -> DecompositionReport:
    """The graded matrix block decomposition; requires the no-exit condition.

    Accepts a LeavittAlgebra, or a Graph plus an optional field (exact
    rationals by default).  Blocks are ordered: sinks by vertex id, then
    cycles by base vertex id.
    """
    if isinstance(algebra_or_graph, LeavittAlgebra):
        algebra = algebra_or_graph
    else:
        algebra = LeavittAlgebra(algebra_or_graph, field)
    g = algebra.graph
    if not no_exit_condition(g):
        raise ExitConditionError(
            "a cycle has an exit; the graded matrix decomposition does not apply"
        )

    K = algebra.field
    blocks = []
    for v, c in [(v, None) for v in sorted(sinks(g))] + [(c.base, c) for c in g.no_exit_cycles]:
        avoid, base = ((), K) if c is None else (c.path.edges, LaurentRing(K, c.length))
        blocks.append(Block(v, c, *path_tree(g, v, avoid=avoid), base))
    if not blocks:
        raise VerificationError("no sinks and no cycles in a finite graph; impossible")
    return DecompositionReport(algebra=algebra, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# the generator isomorphism
# ---------------------------------------------------------------------------


class GeneratorImages:
    """The block isomorphism of one decomposition, in closed form.

    For each block with index paths q_0, ..., q_(n-1):

    * vertex u: sum of e_kk over k with s(q_k) = u;
    * edge f: for each k with s(q_k) = r(f), e_ik with q_i = f q_k the
      child of q_k along f; at a cycle block f q_k may instead be the
      cycle itself, giving e_0k(x^t);
    * ghost f: the star of the image of f.

    Degrees come out right automatically: w t + len(q_i) - len(q_k) = 1.
    `apply` maps any element by this closed form and reads only `report`.
    The tables `vertices[v]`, `edges[e]` and `ghosts[e]` (tuples of
    GradedMatrix, one per block) are built by `apply` when first read,
    and only `verify-iso` reads them; editing one (as its `--corrupt`
    does) changes what `verify_phi` replays, not what `apply` computes.
    Two images compare by identity.
    """

    def __init__(self, report: DecompositionReport):
        self.report = report

    @cached_property
    def vertices(self) -> dict:
        vertex = self.report.algebra.vertex
        return {v: self.apply(vertex(v)) for v in self.report.graph.vertices}

    @cached_property
    def edges(self) -> dict:
        edge = self.report.algebra.edge
        return {e.id: self.apply(edge(e.id)) for e in self.report.graph.edges}

    @cached_property
    def ghosts(self) -> dict:
        ghost = self.report.algebra.ghost
        return {e.id: self.apply(ghost(e.id)) for e in self.report.graph.edges}

    @cached_property
    def _blocks_at(self) -> dict:  # vertex v: the indexes of the blocks with a column at v
        at = {}
        for bi, block in enumerate(self.report.blocks):
            for v in block.columns:
                at.setdefault(v, []).append(bi)
        return at

    @cached_property
    def _zero(self) -> tuple:
        return tuple([b.algebra.zero() for b in self.report.blocks])

    def zero(self):
        """The zero of every block.  A matrix is never changed after
        construction, so these zeros are shared: every image that misses a
        block holds that block's zero."""
        return self._zero

    def identity(self):
        return tuple(b.algebra.identity() for b in self.report.blocks)

    def apply(self, x: LpaElement):
        """Image of an arbitrary element: a tuple of block matrices.

        In each block, a term c p q* puts c x^((w_p - w_q) t) at
        (i_p, i_q) for every column k with s(q_k) = r(p), where
        p q_k = q_(i_p) c^(w_p) and q q_k = q_(i_q) c^(w_q).  Only the
        blocks with a column at r(p) are visited; the others get their
        zero.
        """
        blocks, blocks_at = self.report.blocks, self._blocks_at
        units = {}  # block index: its units, in term order, then column order
        for m, c in x.terms.items():
            p, q = m
            for bi in blocks_at.get(p.end, ()):
                block = blocks[bi]
                locate, t, monomial = block.locate, block.t, block.algebra.base.monomial
                add = units.setdefault(bi, []).append
                for k in block.columns[p.end]:
                    i, wp = locate(p, k)
                    j, wq = locate(q, k)
                    add((i, j, monomial(c, (wp - wq) * t)))
        out = list(self._zero) if len(units) < len(blocks) else [None] * len(blocks)
        for bi, block_units in units.items():
            out[bi] = blocks[bi].algebra.sum_of_units(block_units)
        return tuple(out)


def phi(report: DecompositionReport) -> GeneratorImages:
    """The block isomorphism of `report`: its tables are built when first read."""
    return GeneratorImages(report)


# ---------------------------------------------------------------------------
# relation replay
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    relation: str
    instance: str
    passed: bool

    def to_json(self) -> dict:
        relation, instance, passed = self
        return {"relation": relation, "instance": instance, "passed": passed}


class CheckFamily(NamedTuple):
    """A run of consecutive checks of a report: one check per relation of
    `relations` for each instance in turn.  The instances are the `ids`,
    or with `pairs` (one relation only) the texts "a,b" over a in `ids`,
    then b in `ids`."""

    relations: tuple
    ids: tuple
    pairs: bool = False

    @property
    def size(self) -> int:
        return len(self.relations) * len(self.ids) ** (2 if self.pairs else 1)

    def labels(self):
        """The (relation, instance) of each check, in order."""
        ids = self.ids
        if self.pairs:
            (relation,) = self.relations
            return ((relation, f"{a},{b}") for a in ids for b in ids)
        return ((r, i) for i in ids for r in self.relations)


class VerificationReport:
    """The outcome of `verify_phi`: `flags`, one bool per check in report
    order, labelled by the runs of `families` (`CheckFamily`).  `checks`,
    the tuple of `Check`s, is built when first read; the counts, the
    failures and the CLI's writer read the flags.  Reports compare by
    identity."""

    def __init__(self, families, flags):
        self.families, self.flags = tuple(families), flags

    @cached_property
    def checks(self) -> tuple:
        labels = chain.from_iterable(f.labels() for f in self.families)
        return tuple(Check(r, i, ok) for (r, i), ok in zip(labels, self.flags))

    @property
    def all_passed(self) -> bool:
        return all(self.flags)

    @property
    def total(self) -> int:
        return len(self.flags)

    @property
    def failed(self) -> int:
        return self.flags.count(False)

    def failures(self):
        """The failed `Check`s, in report order; only the families with a
        failure are labelled."""
        out, start, flags = [], 0, self.flags
        for family in self.families:
            stop = start + family.size
            if False in islice(flags, start, stop):
                out += (
                    Check(r, i, False)
                    for (r, i), ok in zip(family.labels(), islice(flags, start, stop))
                    if not ok
                )
            start = stop
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "total": self.total,
            "failed": self.failed,
            "checks": [c.to_json() for c in self.checks],
        }


def _nonzero_blocks(images, nblocks: int) -> list:
    """For each tuple of block images, the indexes of its nonzero ones;
    each tuple is scanned by one C-level pass."""
    return [list(compress(range(nblocks), map(attrgetter("units"), mats))) for mats in images]


def _by_block(nonzero, nblocks: int) -> list:
    """Per block, the positions of the images nonzero there, ascending."""
    out = [[] for _ in range(nblocks)]
    for pos, bis in enumerate(nonzero):
        for bi in bis:
            out[bi].append(pos)
    return out


def _holders(positions, rows) -> dict:
    """Row k: the positions among `positions` whose image, of row index
    `rows[pos]`, stores row k."""
    out = {}
    for pos in positions:
        for k in rows[pos]:
            out.setdefault(k, []).append(pos)
    return out


def verify_phi(images: GeneratorImages) -> VerificationReport:
    """Replay every defining relation and grading constraint on the images.

    Covered: vertex orthogonality, identity decomposition, the edge
    endpoint relations and their ghost mirrors, the ghost-edge
    contraction, the range decomposition at non-sinks, and homogeneity
    of every generator image (vertices in degree 0, edges in 1, ghosts
    in -1).  The relations are replayed by multiplying and adding the
    images, never by reading the closed form of ``apply``.

    The replay runs block by block on the images' unit dicts: every
    product is one ``unit_product`` call against the right factor's row
    index (built at most once per image and kept), a sum merges unit
    dicts, a result is compared with the wanted unit dict and a zero is
    an empty dict.  A relation holds when it holds in every block.

    A product with a zero factor is zero, and a product x y of images is
    zero unless some stored column k of x is a stored row of y.  So in
    each block the replay reads its support off the tables: the vertices
    S_V with a nonzero image there, and the edges S_E whose edge or ghost
    image, or the image of whose source or range, is nonzero there.  It
    multiplies (u, u) for u in S_V and the pairs (u, v) that meet through
    a map from row k to the vertex images storing row k, likewise the
    ghost-edge pairs (e1, e2) for e1 in S_E, and runs the endpoint and
    range checks over S_E and its sources.  Every other flag compares
    two zeros or tests a zero product, so it holds and keeps its
    preallocated True.  A block thus makes at most |S_V(b)| + 6|S_E(b)|
    kernel calls plus one per meeting pair.  The grading and coverage
    checks skip zero images, which are homogeneous of every degree.
    """
    g = images.report.graph
    blocks = images.report.blocks
    vs, es = g.vertices, g.edges
    nv, ne, nb = len(vs), len(es), len(blocks)
    vimg = [images.vertices[v] for v in vs]
    eimg = [images.edges[e.id] for e in es]
    gimg = [images.ghosts[e.id] for e in es]
    vpos = {v: i for i, v in enumerate(vs)}
    src = [vpos[e.src] for e in es]
    dst = [vpos[e.dst] for e in es]
    incident = [[] for _ in vs]  # vertex: the edges into and out of it
    outgoing = [[] for _ in vs]
    for k, (s, d) in enumerate(zip(src, dst)):
        incident[s].append(k)
        incident[d].append(k)
        outgoing[s].append(k)
    sources = [v for v in vs if g.out_edges(v)]

    # the report positions of the families; a flag is cleared where a
    # block computes it False
    ident = nv * nv
    ends = ident + 1
    contract = ends + 2 * ne
    ranges = contract + ne * ne
    rpos = {vpos[v]: ranges + i for i, v in enumerate(sources)}
    vdeg = ranges + len(sources)
    edeg = vdeg + nv
    cover = edeg + ne
    passed = [True] * (cover + nb)

    vnz, enz, gnz = _nonzero_blocks(vimg, nb), _nonzero_blocks(eimg, nb), _nonzero_blocks(gimg, nb)
    vsupport, esupport, gsupport = _by_block(vnz, nb), _by_block(enz, nb), _by_block(gnz, nb)
    product = unit_product

    for bi, block in enumerate(blocks):
        base = block.algebra.base
        mul, add, is_zero = base.mul, base.add, base.is_zero
        V = vsupport[bi]
        E = set(esupport[bi]).union(gsupport[bi], *(incident[v] for v in V))
        vu = {v: vimg[v][bi].units for v in V}
        vr = {v: vimg[v][bi].row_index for v in V}

        # A1: vertices are orthogonal idempotents
        holders = _holders(V, vr)
        for u in V:
            x = vu[u]
            meet = {v for _, k in x for v in holders.get(k, ())}
            meet.add(u)
            row = u * nv
            for v in meet:
                p = product(x, vr[v], mul, add, is_zero)
                if not (p == x if u == v else not p):
                    passed[row + v] = False

        # the vertex images resolve the identity
        acc = {}
        for v in V:
            for key, y in vu[v].items():
                _add_into(acc, key, y, add, is_zero)
        if acc != block.algebra.identity().units:
            passed[ident] = False

        # A2: endpoint relations for edges and ghosts
        eu = {e: eimg[e][bi].units for e in E}
        er = {e: eimg[e][bi].row_index for e in E}
        gu = {e: gimg[e][bi].units for e in E}
        gr = {e: gimg[e][bi].row_index for e in E}
        for e in E:
            f, h = eu[e], gu[e]
            s, d = vimg[src[e]][bi], vimg[dst[e]][bi]
            if not (
                product(s.units, er[e], mul, add, is_zero) == f
                and product(f, d.row_index, mul, add, is_zero) == f
            ):
                passed[ends + 2 * e] = False
            if not (
                product(d.units, gr[e], mul, add, is_zero) == h
                and product(h, s.row_index, mul, add, is_zero) == h
            ):
                passed[ends + 2 * e + 1] = False

        # CK1: ghost-edge contraction
        holders = _holders(E, er)
        for e1 in E:
            x, want = gu[e1], vimg[dst[e1]][bi].units
            meet = {e2 for _, k in x for e2 in holders.get(k, ())}
            meet.add(e1)
            row = contract + e1 * ne
            for e2 in meet:
                p = product(x, er[e2], mul, add, is_zero)
                if not (p == want if e1 == e2 else not p):
                    passed[row + e2] = False

        # CK2: range decomposition at every non-sink
        for v in {src[e] for e in E}:
            acc = {}
            for e in outgoing[v]:
                f = eimg[e][bi].units
                if f:
                    for key, y in product(f, gimg[e][bi].row_index, mul, add, is_zero).items():
                        _add_into(acc, key, y, add, is_zero)
            if acc != vimg[v][bi].units:
                passed[rpos[v]] = False

        # the block column space is hit: every diagonal unit appears in
        # some vertex image (so phi does not silently drop a block corner)
        hit = [False] * block.n
        for v in V:
            for i, j in vu[v]:
                if i == j:
                    hit[i] = True
        passed[cover + bi] = all(hit)

    # grading: generator images are homogeneous of the right degree
    for v, (mats, bis) in enumerate(zip(vimg, vnz)):
        passed[vdeg + v] = all(mats[bi].is_homogeneous(0) for bi in bis)
    for e in range(ne):
        ok = all(eimg[e][bi].is_homogeneous(1) for bi in enz[e])
        passed[edeg + e] = ok and all(gimg[e][bi].is_homogeneous(-1) for bi in gnz[e])

    eids = tuple(e.id for e in es)
    families = (
        CheckFamily(("orthogonal-idempotents",), vs, pairs=True),
        CheckFamily(("identity-resolution",), ("sum of vertices",)),
        CheckFamily(("edge-endpoints", "ghost-endpoints"), eids),
        CheckFamily(("ghost-edge",), eids, pairs=True),
        CheckFamily(("range-decomposition",), tuple(sources)),
        CheckFamily(("vertex-degree-0",), vs),
        CheckFamily(("edge-degree-1",), eids),
        CheckFamily(("block-coverage",), tuple(f"block {bi}" for bi in range(nb))),
    )
    return VerificationReport(families, passed)


# ---------------------------------------------------------------------------
# the inverse map
# ---------------------------------------------------------------------------


def phi_inverse_basis(report: DecompositionReport, block_index: int, i: int, j: int, w: int = 0) -> LpaElement:
    """Canonical preimage of the matrix unit e_ij(x^(w t)) of one block.

    For w >= 0 this is the class of q_i c^w q_j*; for w < 0 the cycle
    power moves to the ghost side, q_i (q_j c^(-w))*.  Sink blocks only
    admit w = 0.
    """
    algebra = report.algebra
    try:
        block = report.blocks[block_index]
    except IndexError:
        raise IndexError(f"no block {block_index}; have {len(report.blocks)}") from None
    if not (0 <= i < block.n and 0 <= j < block.n):
        raise IndexError(f"unit position ({i}, {j}) out of range for block size {block.n}")
    return algebra.normal_form({block.preimage(i, j, w): algebra.field.one()})


def pull_back(report: DecompositionReport, mats) -> LpaElement:
    """Linear extension of `phi_inverse_basis` to a tuple of block matrices."""
    if len(mats) != len(report.blocks):
        raise ValueError(f"expected {len(report.blocks)} block matrices, got {len(mats)}")
    pairs = []
    for block, mat in zip(report.blocks, mats):
        if mat.algebra != block.algebra:
            raise ValueError("block matrix bound to the wrong graded algebra")
        terms = block.algebra.base.terms
        for i, j in sorted(mat.units):
            for exp, c in terms(mat.units[i, j]).items():
                pairs.append((block.preimage(i, j, exp // block.t), c))
    return report.algebra.element(pairs)


# ---------------------------------------------------------------------------
# dimension series
# ---------------------------------------------------------------------------


class DimSeriesReport(NamedTuple):
    degree_bound: int
    rows: tuple  # (degree, algebra side, block side)

    @property
    def all_equal(self) -> bool:
        return all(a == b for _, a, b in self.rows)

    def to_json(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "all_equal": self.all_equal,
            "rows": [
                {"degree": n, "lpa_dim": a, "block_dim": b, "equal": a == b}
                for n, a, b in self.rows
            ],
        }


def dim_series_check(report: DecompositionReport, degree_bound: int = 10) -> DimSeriesReport:
    """Compare graded dimensions of the algebra and its block sum for
    every degree in [-degree_bound, degree_bound]."""
    algebra = report.algebra
    rows = []
    for n in range(-degree_bound, degree_bound + 1):
        lhs = algebra.graded_dim(n)
        rhs = sum(b.algebra.hom_component_dim(n) for b in report.blocks)
        rows.append((n, lhs, rhs))
    return DimSeriesReport(degree_bound=degree_bound, rows=tuple(rows))
