"""`verify_phi` replays the relations on unit dicts, block by block, and
multiplies only the pairs of images that meet; here it is compared,
check by check, with the replay by `GradedMatrix` products of every
pair, on random no-exit graphs over Q and F_3 with and without one
corrupted image unit, and on disjoint unions of such graphs with up to
three.  A work pin shows the replay and the tables linear in the number
of components."""

from collections import Counter

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
from leavitt import gmatrix, structure
from leavitt.structure import Block, Check

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


def corrupt_unit(draw, images, field, kind):
    """Change one unit of one vertex, edge or ghost image in one block: a
    unit added, replaced (by a homogeneous or an inhomogeneous entry) or
    deleted."""
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


def corruption_kinds(g):
    return ["vertex"] + (["edge", "ghost"] if g.edges else [])


@st.composite
def corrupted_images(draw, field):
    """The images of a random no-exit graph, untouched or with one unit of
    one vertex, edge or ghost image changed."""
    g = draw(no_exit_block_graphs())
    images = phi(decompose(LeavittAlgebra(g, field)))
    kind = draw(st.sampled_from(["none"] + corruption_kinds(g)))
    if kind != "none":
        corrupt_unit(draw, images, field, kind)
    return images


@st.composite
def corrupted_unions(draw, field):
    """The images of a disjoint union of 2 to 4 random no-exit graphs, so
    several blocks whose images miss each other, with 0 to 3 units
    changed, each in a table and block of its own draw."""
    vs, es = [], []
    for c in range(draw(st.integers(2, 4))):
        part = draw(no_exit_block_graphs())
        vs += [f"{c}.{v}" for v in part.vertices]
        es += [(f"{c}.{e.id}", f"{c}.{e.src}", f"{c}.{e.dst}") for e in part.edges]
    g = Graph(vs, es)
    images = phi(decompose(LeavittAlgebra(g, field)))
    for _ in range(draw(st.integers(0, 3))):
        corrupt_unit(draw, images, field, draw(st.sampled_from(corruption_kinds(g))))
    return images


def assert_same_checks(images):
    expected = replay_by_matrix_products(images)
    got = verify_phi(images).checks
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a == b


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


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)], ids=["Q", "F3"])
def test_disjoint_union_replay_matches_matrix_product_replay(field):
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(corrupted_unions(field))
    def check(images):
        assert_same_checks(images)

    check()


def blocks_graph(k):
    """k disjoint 3-cycles and k disjoint 3-vertex lines: 2k blocks of size 3."""
    vs, es = [], []
    for c in range(k):
        cyc, line = [f"c{c}_{i}" for i in range(3)], [f"l{c}_{i}" for i in range(3)]
        vs += cyc + line
        es += [(f"ce{c}_{i}", cyc[i], cyc[(i + 1) % 3]) for i in range(3)]
        es += [(f"le{c}_{i}", line[i], line[i + 1]) for i in range(2)]
    return Graph(vs, es)


def _tables_and_replay_work(monkeypatch, k):
    """(`Block.locate` calls and block matrices built by the three generator
    tables, kernel calls of the replay) on blocks_graph(k)."""
    counts = Counter()
    locate, kernel = Block.locate, gmatrix.unit_product
    sum_of_units = gmatrix.GradedMatrixAlgebra.sum_of_units

    def counting_sum_of_units(self, units):
        counts["matrices"] += 1
        return sum_of_units(self, units)

    def counting_locate(self, p, j):
        counts["locate"] += 1
        return locate(self, p, j)

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(Block, "locate", counting_locate)
    monkeypatch.setattr(gmatrix.GradedMatrixAlgebra, "sum_of_units", counting_sum_of_units)
    monkeypatch.setattr(structure, "unit_product", counting_kernel)
    images = phi(decompose(blocks_graph(k)))
    images.vertices, images.edges, images.ghosts
    assert counts["kernel"] == 0
    assert verify_phi(images).all_passed
    return counts["locate"], counts["matrices"], counts["kernel"]


def test_tables_and_replay_work_linear_in_components(monkeypatch):
    """Every image lives in the blocks of its own component, so the tables
    locate and the replay multiplies only there: both counts are exactly
    proportional to the number k of components.  Replaying every vertex
    pair and edge pair in all 2k blocks took 2k (36k² + 20k + 25k² + 5k)
    kernel calls."""
    work10 = _tables_and_replay_work(monkeypatch, 10)
    work20 = _tables_and_replay_work(monkeypatch, 20)
    assert work20 == tuple(2 * x for x in work10)
    # per component, 16 generators of one column each in one block: p and
    # q located once, 32 calls, and one matrix built for each (2k per
    # generator were built before, the rest of them zero); every image is
    # one unit and no two images of a block meet, so a 3-cycle block costs
    # 3 orthogonality + 12 endpoint + 3 ghost-edge + 3 range calls and a
    # 3-vertex line block 3 + 8 + 2 + 2
    assert work10 == (10 * 32, 10 * 16, 10 * 36)
