"""`verify_phi` replays the relations on unit dicts, block by block; here
it is compared, check by check, with the replay by `GradedMatrix`
products it replaced, on random no-exit graphs over Q and F_3 with and
without one corrupted image unit."""

import pytest

from leavitt import (
    GradedMatrix,
    Graph,
    LeavittAlgebra,
    PrimeField,
    Rationals,
    decompose,
    no_exit_condition,
    phi,
    verify_phi,
)
from leavitt.structure import Check

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def replay_by_matrix_products(images):
    """The oracle of `verify_phi`: every relation is replayed by products,
    sums and comparisons of `GradedMatrix` tuples, one matrix per block."""
    g = images.report.graph
    vertices, edges, ghosts = images.vertices, images.edges, images.ghosts
    checks = []

    def tuple_mul(a, b):
        return tuple(x * y for x, y in zip(a, b))

    def tuple_add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def tuple_eq(a, b):
        return all(x == y for x, y in zip(a, b))

    zero = images.zero()
    for u in g.vertices:
        for v in g.vertices:
            prod = tuple_mul(vertices[u], vertices[v])
            want = vertices[u] if u == v else zero
            checks.append(Check("orthogonal-idempotents", f"{u},{v}", tuple_eq(prod, want)))
    acc = zero
    for v in g.vertices:
        acc = tuple_add(acc, vertices[v])
    checks.append(Check("identity-resolution", "sum of vertices", tuple_eq(acc, images.identity())))
    for e in g.edges:
        fe, ge = edges[e.id], ghosts[e.id]
        checks.append(Check(
            "edge-endpoints",
            e.id,
            tuple_eq(tuple_mul(vertices[e.src], fe), fe) and tuple_eq(tuple_mul(fe, vertices[e.dst]), fe),
        ))
        checks.append(Check(
            "ghost-endpoints",
            e.id,
            tuple_eq(tuple_mul(vertices[e.dst], ge), ge) and tuple_eq(tuple_mul(ge, vertices[e.src]), ge),
        ))
    for e1 in g.edges:
        for e2 in g.edges:
            prod = tuple_mul(ghosts[e1.id], edges[e2.id])
            want = vertices[e1.dst] if e1.id == e2.id else zero
            checks.append(Check("ghost-edge", f"{e1.id},{e2.id}", tuple_eq(prod, want)))
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            continue
        acc = zero
        for e in out:
            acc = tuple_add(acc, tuple_mul(edges[e.id], ghosts[e.id]))
        checks.append(Check("range-decomposition", v, tuple_eq(acc, vertices[v])))
    for v in g.vertices:
        checks.append(Check("vertex-degree-0", v, all(m.is_homogeneous(0) for m in vertices[v])))
    for e in g.edges:
        ok = all(m.is_homogeneous(1) for m in edges[e.id])
        ok = ok and all(m.is_homogeneous(-1) for m in ghosts[e.id])
        checks.append(Check("edge-degree-1", e.id, ok))
    for bi, block in enumerate(images.report.blocks):
        hit = [False] * block.n
        for v in g.vertices:
            for i, j in vertices[v][bi].units:
                if i == j:
                    hit[i] = True
        checks.append(Check("block-coverage", f"block {bi}", all(hit)))
    return tuple(checks)


@st.composite
def no_exit_block_graphs(draw):
    """Multigraphs on up to 6 vertices, loops and parallel edges allowed,
    each drawn edge kept when no cycle gets an exit: sink and cycle blocks."""
    vs = ["v2", "v10", "a", "z", "m1", "m0"][: draw(st.integers(1, 6))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=10))
    keep = []
    for k, (s, d) in enumerate(ends):
        if no_exit_condition(Graph(vs, keep + [(f"e{k}", s, d)])):
            keep.append((f"e{k}", s, d))
    return Graph(vs, keep)


@st.composite
def corrupted_images(draw, field):
    """The images of a random no-exit graph, untouched or with one unit of
    one vertex, edge or ghost image changed: a unit added, replaced (by a
    homogeneous or an inhomogeneous entry) or deleted."""
    g = draw(no_exit_block_graphs())
    images = phi(decompose(LeavittAlgebra(g, field)))
    kinds = ["none", "vertex"] + (["edge", "ghost"] if g.edges else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return images
    table = {"vertex": images.vertices, "edge": images.edges, "ghost": images.ghosts}[kind]
    key = draw(st.sampled_from(sorted(table)))
    bi = draw(st.integers(0, len(images.report.blocks) - 1))
    mat = table[key][bi]
    M, base = mat.algebra, mat.algebra.base
    units = dict(mat.units)
    if units and draw(st.booleans()):
        position = draw(st.sampled_from(sorted(units)))
    else:
        position = draw(st.integers(0, M.n - 1)), draw(st.integers(0, M.n - 1))
    t = getattr(base, "step", None)
    coeff = field.from_int(draw(st.integers(1, 2)))
    if t is None:
        entry = coeff
    else:
        entry = base.monomial(coeff, t * draw(st.integers(-1, 1)))
        if draw(st.booleans()):
            entry = base.add(entry, base.monomial(field.one(), t * draw(st.integers(2, 3))))
    if position in units and draw(st.booleans()):
        del units[position]
    else:
        units[position] = entry
    mats = list(table[key])
    mats[bi] = GradedMatrix(M, units)
    table[key] = tuple(mats)
    return images


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)], ids=["Q", "F3"])
def test_unit_dict_replay_matches_matrix_product_replay(field):
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(corrupted_images(field))
    def check(images):
        expected = replay_by_matrix_products(images)
        got = verify_phi(images).checks
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a == b

    check()
