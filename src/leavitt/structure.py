"""Graded structure of the path algebra in the no-exit case.

When no simple cycle of the graph has an exit, the algebra splits as a
finite direct sum of graded matrix algebras, one block per sink and one
per cycle:

* a sink v contributes M_n(K) where n counts the paths ending at v,
  regraded by the shift tuple of their lengths;
* a cycle c of length t contributes M_n(K[x^t, x^(-t)]) where n counts
  the paths ending at c.base that do not contain the based cycle,
  regraded the same way.

Each generator image, and the image of every monomial p q*, is a
monomial matrix given in closed form by ``GeneratorImages.apply``;
``phi`` only wraps the report.  The vertex, edge and ghost tables are
built on first read, which only ``verify_phi`` (behind ``verify-iso``)
does: it replays every defining relation on them by products of their
unit dicts, so it checks the closed form rather than trusting it.
``phi_inverse_basis`` and ``pull_back`` invert the map explicitly,
sending the matrix unit e_ij(x^(w t)) back to the canonical form of
q_i c^w q_j* (a negative w putting the cycle power on the ghost side).

``classify`` reports the graded structure flags; they all reduce to the
no-exit condition.  ``dim_series_check`` compares graded dimensions on
both sides of phi degree by degree.
"""

from __future__ import annotations

from functools import cached_property
from operator import and_
from typing import NamedTuple

from .gmatrix import GradedMatrixAlgebra, _add_into, unit_product
from .graph import (
    Graph,
    Path,
    concat,
    cycle_power,
    factor_through_cycle,
    no_exit_condition,
    paths_into,
    paths_into_cycle,
    sinks,
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
        return {
            "no_exit": self.no_exit,
            "graded_self_injective": self.graded_self_injective,
            "graded_regular": self.graded_regular,
            "graded_sigma_v": self.graded_sigma_v,
            "graded_type_one": self.graded_type_one,
            "block_count": self.block_count,
            "graded_prime": self.graded_prime,
            "central_triple": list(self.central_triple) if self.central_triple else None,
            "note": self.note,
        }


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

    `index_paths[k]` is the k-th basis path into the anchor (the sink, or
    the cycle base, cycle-free); `shifts[k]` is its length.  `cycle` is
    None at a sink: there every path into the anchor is an index path,
    every winding is 0 and `t` counts as 1.  Blocks compare by identity.
    """

    def __init__(self, anchor: str, cycle, index_paths: tuple, shifts: tuple,
                 algebra: GradedMatrixAlgebra):
        self.anchor = anchor
        self.cycle = cycle
        self.index_paths = index_paths
        self.shifts = shifts
        self.algebra = algebra

    @property
    def kind(self) -> str:
        return "sink" if self.cycle is None else "cycle"

    @property
    def n(self) -> int:
        return len(self.index_paths)

    @property
    def t(self) -> int:
        return 1 if self.cycle is None else self.cycle.length

    @cached_property
    def _index(self) -> dict:
        return {q: k for k, q in enumerate(self.index_paths)}

    def locate(self, g: Graph, p: Path, k: int):
        """(i, w) with p q_k = q_i c^w; needs r(p) = s(q_k)."""
        path, w = concat(p, self.index_paths[k]), 0
        if self.cycle is not None:
            path, w = factor_through_cycle(g, self.cycle, path)
        i = self._index.get(path)
        if i is None:
            raise VerificationError(
                f"path {path} missed the index set of the {self.kind} block at {self.anchor}"
            )
        return i, w

    def preimage(self, i: int, j: int, w: int = 0) -> Monomial:
        """The path pair q_i c^w q_j* mapping to the unit e_ij(x^(w t)); for
        w < 0 the cycle power sits on the ghost side, q_i (q_j c^(-w))*."""
        qi, qj = self.index_paths[i], self.index_paths[j]
        if w == 0:
            return Monomial(qi, qj)
        if self.cycle is None:
            raise ValueError("sink blocks carry no cycle power; w must be 0")
        if w > 0:
            return Monomial(concat(qi, cycle_power(self.cycle, w)), qj)
        return Monomial(qi, concat(qj, cycle_power(self.cycle, -w)))

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

    def block(anchor, cycle, paths, base):
        shifts = tuple(len(p.edges) for p in paths)
        return Block(anchor, cycle, paths, shifts, GradedMatrixAlgebra(base, shifts))

    K = algebra.field
    blocks = [block(v, None, paths_into(g, v), K) for v in sorted(sinks(g))]
    blocks += [
        block(c.base, c, paths_into_cycle(g, c), LaurentRing(K, c.length))
        for c in g.no_exit_cycles
    ]
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
    * edge f: for each k with s(q_k) = r(f), the path f q_k ends at the
      block anchor and factors as q_i c^w, contributing e_ik(x^(w t))
      (w = 0 always at a sink block);
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

    def zero(self):
        return tuple(b.algebra.zero() for b in self.report.blocks)

    def identity(self):
        return tuple(b.algebra.identity() for b in self.report.blocks)

    def apply(self, x: LpaElement):
        """Image of an arbitrary element: a tuple of block matrices.

        In each block, a term c p q* puts c x^((w_p - w_q) t) at
        (i_p, i_q) for every column k with s(q_k) = r(p), where
        p q_k = q_(i_p) c^(w_p) and q q_k = q_(i_q) c^(w_q).
        """
        g = self.report.graph
        out = []
        for block in self.report.blocks:
            base = block.algebra.base
            units = []
            for m, c in x.terms.items():
                for k, q in enumerate(block.index_paths):
                    if q.base != m.p.end:
                        continue
                    i, wp = block.locate(g, m.p, k)
                    j, wq = block.locate(g, m.q, k)
                    units.append((i, j, base.monomial(c, (wp - wq) * block.t)))
            out.append(block.algebra.sum_of_units(units))
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


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "total": len(self.checks),
            "failed": len(self.failures()),
            "checks": [c.to_json() for c in self.checks],
        }


def _block_view(table: dict, bi: int):
    """The unit dicts and the row indexes of block `bi` of a table of images."""
    mats = [(key, images[bi]) for key, images in table.items()]
    return {key: m.units for key, m in mats}, {key: m.row_index for key, m in mats}


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
    an empty dict.  A relation holds when it holds in every block.  So a
    product of two monomial images costs at most n scalar products, and
    no relation builds a matrix object.
    """
    g = images.report.graph
    vs, es = g.vertices, g.edges
    vertices, edges, ghosts = images.vertices, images.edges, images.ghosts
    product = unit_product
    # the flags of the relation checks, in report order; each block ANDs
    # its own flags into them
    passed = None
    for bi, block in enumerate(images.report.blocks):
        base = block.algebra.base
        mul, add, is_zero = base.mul, base.add, base.is_zero
        vu, vr = _block_view(vertices, bi)
        eu, er = _block_view(edges, bi)
        gu, gr = _block_view(ghosts, bi)
        flags = []
        flag = flags.append

        # A1: vertices are orthogonal idempotents
        for u in vs:
            x = vu[u]
            for v in vs:
                p = product(x, vr[v], mul, add, is_zero)
                flag(p == x if u == v else not p)

        # the vertex images resolve the identity
        acc = {}
        for v in vs:
            for key, y in vu[v].items():
                _add_into(acc, key, y, add, is_zero)
        flag(acc == block.algebra.identity().units)

        # A2: endpoint relations for edges and ghosts
        for e in es:
            f, h = eu[e.id], gu[e.id]
            flag(
                product(vu[e.src], er[e.id], mul, add, is_zero) == f
                and product(f, vr[e.dst], mul, add, is_zero) == f
            )
            flag(
                product(vu[e.dst], gr[e.id], mul, add, is_zero) == h
                and product(h, vr[e.src], mul, add, is_zero) == h
            )

        # CK1: ghost-edge contraction
        for e1 in es:
            x, want = gu[e1.id], vu[e1.dst]
            for e2 in es:
                p = product(x, er[e2.id], mul, add, is_zero)
                flag(p == want if e1.id == e2.id else not p)

        # CK2: range decomposition at every non-sink
        for v in vs:
            out = g.out_edges(v)
            if not out:
                continue
            acc = {}
            for e in out:
                for key, y in product(eu[e.id], gr[e.id], mul, add, is_zero).items():
                    _add_into(acc, key, y, add, is_zero)
            flag(acc == vu[v])

        passed = flags if passed is None else list(map(and_, passed, flags))

    labels = [("orthogonal-idempotents", f"{u},{v}") for u in vs for v in vs]
    labels.append(("identity-resolution", "sum of vertices"))
    for e in es:
        labels += (("edge-endpoints", e.id), ("ghost-endpoints", e.id))
    labels += [("ghost-edge", f"{e1.id},{e2.id}") for e1 in es for e2 in es]
    labels += [("range-decomposition", v) for v in vs if g.out_edges(v)]
    checks = [Check(r, i, ok) for (r, i), ok in zip(labels, passed)]

    # grading: generator images are homogeneous of the right degree
    for v in vs:
        ok = all(m.is_homogeneous(0) for m in vertices[v])
        checks.append(Check("vertex-degree-0", v, ok))
    for e in es:
        ok = all(m.is_homogeneous(1) for m in edges[e.id])
        ok = ok and all(m.is_homogeneous(-1) for m in ghosts[e.id])
        checks.append(Check("edge-degree-1", e.id, ok))

    # the block column spaces are hit: every diagonal unit appears in
    # some vertex image (so phi does not silently drop a block corner)
    for bi, block in enumerate(images.report.blocks):
        hit = [False] * block.n
        for v in vs:
            for i, j in vertices[v][bi].units:
                if i == j:
                    hit[i] = True
        checks.append(Check("block-coverage", f"block {bi}", all(hit)))

    return VerificationReport(checks=tuple(checks))


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
