"""Classification, block decomposition, the generator isomorphism."""

import dataclasses
import random
import sys
from collections import Counter

import pytest

from corpus import build_corpus, build_negative
from leavitt import gmatrix
from leavitt import (
    ExitConditionError,
    Graph,
    LaurentRing,
    LeavittAlgebra,
    PrimeField,
    Rationals,
    classify,
    decompose,
    dim_series_check,
    phi,
    phi_inverse_basis,
    pull_back,
    sample_homogeneous,
    verify_phi,
)


def rep_of(name, field=None):
    return decompose(LeavittAlgebra(build_corpus()[name], field))


# -- classify -----------------------------------------------------------------


def test_classify_no_exit_graphs():
    r = classify(build_corpus()["loop"])
    assert r.no_exit and r.graded_self_injective and r.graded_regular
    assert r.graded_sigma_v and r.graded_type_one
    assert r.block_count == 1 and r.graded_prime is True
    assert r.central_triple == (1, 0, 0)
    r = classify(build_corpus()["sink_loop"])
    assert r.block_count == 2 and r.graded_prime is False
    assert r.central_triple == (1, 0, 0)


def test_classify_exit_graphs():
    for name, g in build_negative().items():
        r = classify(g)
        assert not r.no_exit and not r.graded_self_injective, name
        assert not r.graded_regular and not r.graded_sigma_v, name
        assert not r.graded_type_one, name
        assert r.graded_prime is None and r.central_triple is None, name
        assert "no matrix decomposition" in r.note, name


def test_classify_flags_always_agree():
    for g in list(build_corpus().values()) + list(build_negative().values()):
        r = classify(g)
        flags = {
            r.no_exit,
            r.graded_self_injective,
            r.graded_regular,
            r.graded_sigma_v,
            r.graded_type_one,
        }
        assert len(flags) == 1


def test_classify_json():
    data = classify(build_corpus()["a2"]).to_json()
    assert data["central_triple"] == [1, 0, 0]
    assert data["block_count"] == 1


# -- decompose -----------------------------------------------------------------


def test_decompose_line():
    rep = rep_of("a3")
    (b,) = rep.blocks
    assert b.kind == "sink" and b.anchor == "v3"
    assert b.shifts == (0, 1, 2)
    assert b.algebra.base == Rationals()
    assert [p.edges for p in b.index_paths] == [(), ("e2",), ("e1", "e2")]


def test_decompose_cycles():
    for name, t in (("loop", 1), ("cyc2", 2), ("cyc3", 3)):
        rep = rep_of(name)
        (b,) = rep.blocks
        assert b.kind == "cycle" and b.algebra.base == LaurentRing(Rationals(), t)
        assert b.shifts == tuple(range(t))


def test_decompose_parallel_repeats_shifts():
    rep = rep_of("parallel")
    (b,) = rep.blocks
    assert b.shifts == (0, 1, 1)


def test_decompose_tree():
    rep = rep_of("tree")
    assert [b.anchor for b in rep.blocks] == ["v3", "v4"]
    assert all(b.shifts == (0, 1, 2, 3) for b in rep.blocks)


def test_decompose_fedcycle():
    rep = rep_of("fedcycle")
    (b,) = rep.blocks
    assert b.kind == "cycle" and b.anchor == "c1"
    assert b.shifts == (0, 1, 1, 2, 2)
    assert b.algebra.base.step == 3


def test_decompose_block_order():
    # sinks first (by vertex id), then cycles (by base id)
    rep = rep_of("sink_loop")
    assert [b.kind for b in rep.blocks] == ["sink", "cycle"]
    assert [b.anchor for b in rep.blocks] == ["s", "z"]


@pytest.mark.parametrize("closed", [False, True], ids=["line", "cycle"])
def test_decompose_1500_vertices(closed):
    """One block whose index paths are 1500 deep: no recursion limit."""
    n = 1500
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n if closed else n - 1)])
    (block,) = decompose(g).blocks
    assert block.kind == ("cycle" if closed else "sink")
    assert block.shifts == tuple(range(n))


def test_decompose_respects_field():
    rep = decompose(LeavittAlgebra(build_corpus()["loop"], PrimeField(5)))
    assert rep.blocks[0].algebra.base == LaurentRing(PrimeField(5), 1)


def test_decompose_accepts_bare_graph():
    rep = decompose(build_corpus()["a2"])
    assert rep.algebra.field == Rationals()


def test_decompose_rejects_exits():
    for name, g in build_negative().items():
        with pytest.raises(ExitConditionError):
            decompose(LeavittAlgebra(g))


def test_decomposition_json():
    data = rep_of("sink_loop").to_json()
    assert len(data["blocks"]) == 2
    kinds = [b["kind"] for b in data["blocks"]]
    assert kinds == ["sink", "cycle"]
    assert data["blocks"][1]["t"] == 1


# -- phi and verification ---------------------------------------------------------


def test_phi_line_frozen_images():
    rep = rep_of("a3")
    im = phi(rep)
    b = rep.blocks[0].algebra
    one = Rationals().one()
    assert im.edges["e1"][0] == b.unit(2, 1, one)
    assert im.edges["e2"][0] == b.unit(1, 0, one)
    assert im.vertices["v3"][0] == b.unit(0, 0, one)
    assert im.ghosts["e1"][0] == b.unit(1, 2, one)


def test_phi_loop_frozen_images():
    rep = rep_of("loop")
    im = phi(rep)
    alg = rep.blocks[0].algebra
    R = alg.base
    one = Rationals().one()
    assert im.edges["c"][0] == alg.unit(0, 0, R.monomial(one, 1))
    assert im.ghosts["c"][0] == alg.unit(0, 0, R.monomial(one, -1))


def test_phi_fedcycle_image():
    rep = rep_of("fedcycle")
    im = phi(rep)
    alg = rep.blocks[0].algebra
    one = alg.base.one()
    # h2 arrives at c1 = base: index path () extends to (h2,) at slot 1
    assert im.edges["h2"][0] == alg.unit(1, 0, one)
    # the closing cycle edge k3: (k3) extends () with winding 0 at slot 2,
    # and (k2, k3) extends (k2,)... k3 q_k for q_k = (k2, k3)? source is c2, not r(k3)
    m = im.edges["k3"][0]
    assert not alg.base.is_zero(m.entry(2, 0))


def test_verify_phi_corpus():
    for name, g in build_corpus().items():
        rep = decompose(LeavittAlgebra(g))
        result = verify_phi(phi(rep))
        assert result.all_passed, (name, result.failures())


def test_verify_phi_check_count_line():
    rep = rep_of("a3")
    result = verify_phi(phi(rep))
    # 9 orthogonality + 1 identity + 4 endpoint + 4 ghost-edge + 2 range
    # + 3 vertex-degree + 2 edge-degree + 1 coverage
    assert len(result.checks) == 26


def test_verify_phi_catches_corruption():
    rep = rep_of("cyc2")
    im = phi(rep)
    eid = rep.graph.edges[0].id
    src = rep.graph.edges[0].src
    im.edges[eid] = tuple(m + v for m, v in zip(im.edges[eid], im.vertices[src]))
    result = verify_phi(im)
    assert not result.all_passed
    assert any(c.relation == "edge-degree-1" for c in result.failures())


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("name", sorted(build_corpus()))
def test_generator_tables_are_apply_on_generators(name, field):
    """`phi` keeps only the report; each table, built on first read, is
    `apply` on the matching generators."""
    rep = decompose(LeavittAlgebra(build_corpus()[name], field))
    A, g, images = rep.algebra, rep.graph, phi(rep)
    assert [f.name for f in dataclasses.fields(images)] == ["report"]
    assert not {"vertices", "edges", "ghosts"} & vars(images).keys()
    assert images.vertices == {v: images.apply(A.vertex(v)) for v in g.vertices}
    assert images.edges == {e.id: images.apply(A.edge(e.id)) for e in g.edges}
    assert images.ghosts == {e.id: images.apply(A.ghost(e.id)) for e in g.edges}


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` in every leavitt module namespace that holds it."""
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "leavitt"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _replay_work(monkeypatch, n):
    """(unit products, base-field multiplications, base-field zero tests)
    of the relation replay on an n-vertex line: one sink block of size n.
    A unit product is one call of the kernel `gmatrix.unit_product`, which
    `verify_phi` runs once per block of every relation product.  Also
    checks that the replay builds each image's row index exactly once and
    that a second replay builds none."""
    vs = [f"v{i}" for i in range(n)]
    g = Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])
    images = phi(decompose(LeavittAlgebra(g, Rationals())))
    tables = (images.vertices, images.edges, images.ghosts)  # built before counting
    counts = {"mul": 0, "products": 0, "is_zero": 0}
    built = Counter()
    field_mul, field_is_zero = Rationals.mul, Rationals.is_zero
    kernel, index_rows = gmatrix.unit_product, gmatrix.index_rows

    def counting_field_mul(self, a, b):
        counts["mul"] += 1
        return field_mul(self, a, b)

    def counting_is_zero(self, a):
        counts["is_zero"] += 1
        return field_is_zero(self, a)

    def counting_kernel(*args):
        counts["products"] += 1
        return kernel(*args)

    def counting_index_rows(units):
        built[id(units)] += 1
        return index_rows(units)

    monkeypatch.setattr(Rationals, "mul", counting_field_mul)
    monkeypatch.setattr(Rationals, "is_zero", counting_is_zero)
    _patch_everywhere(monkeypatch, kernel, counting_kernel)
    _patch_everywhere(monkeypatch, index_rows, counting_index_rows)
    assert verify_phi(images).all_passed
    work = counts["products"], counts["mul"], counts["is_zero"]
    image_units = {id(m.units) for table in tables for mats in table.values() for m in mats}
    assert set(built) == image_units and set(built.values()) == {1}
    assert verify_phi(images).all_passed
    assert sum(built.values()) == len(image_units)
    return work


def test_verify_phi_multiplication_count_line_12(monkeypatch):
    """Deterministic work gate: base-ring multiplications of the relation
    replay on a 12-vertex line (one sink block, n = 12).  The dense
    kernel spent n^3 = 1728 of them per product, 552960 in all.  Zero
    tests: 34 homogeneity tests, one per stored image entry; block
    coverage reads the diagonal units and tests no entry (the row storage
    made 178, the dense grid storage 97234)."""
    products, mul, is_zero = _replay_work(monkeypatch, 12)
    # 144 orthogonality + 44 endpoint + 121 ghost-edge + 11 range products
    assert products == 320
    assert mul == 78
    assert mul <= products * 12
    assert is_zero == 34
    assert is_zero <= products


def test_verify_phi_work_count_line_40(monkeypatch):
    """The same gate on a 40-vertex line: products and comparisons visit
    only stored nonzeros, so zero tests stay below the product count
    (the row storage made 1718 of them, the dense grid storage 10801718)."""
    products, mul, is_zero = _replay_work(monkeypatch, 40)
    # 1600 orthogonality + 156 endpoint + 1521 ghost-edge + 39 range products
    assert products == 3316
    assert mul == 274
    assert is_zero == 118
    assert is_zero <= products


def test_verify_phi_json():
    data = verify_phi(phi(rep_of("a2"))).to_json()
    assert data["all_passed"] is True and data["failed"] == 0
    assert data["total"] == len(data["checks"])


def test_phi_degree_preservation():
    rng = random.Random(13)
    for name in ("a3", "cyc2", "tree", "fedcycle"):
        rep = rep_of(name)
        im = phi(rep)
        A = rep.algebra
        for _ in range(20):
            x = sample_homogeneous(A, rng)
            d = x.degree()
            for mat in im.apply(x):
                assert mat.is_homogeneous(d), name


# -- the inverse direction ----------------------------------------------------------


def test_phi_inverse_basis_frozen():
    rep = rep_of("loop")
    A = rep.algebra
    assert phi_inverse_basis(rep, 0, 0, 0, 1) == A.edge("c")
    assert phi_inverse_basis(rep, 0, 0, 0, -1) == A.ghost("c")
    assert phi_inverse_basis(rep, 0, 0, 0, 0) == A.vertex("v1")
    rep = rep_of("a3")
    A = rep.algebra
    g = A.graph
    el = phi_inverse_basis(rep, 0, 0, 2)
    assert el == A.monomial_element(g.empty_path("v3"), g.path("v1", ("e1", "e2")))


def test_phi_inverse_basis_guards():
    rep = rep_of("a3")
    with pytest.raises(ValueError):
        phi_inverse_basis(rep, 0, 0, 0, 1)  # sink block, no winding
    with pytest.raises(IndexError):
        phi_inverse_basis(rep, 0, 0, 9)
    with pytest.raises(IndexError):
        phi_inverse_basis(rep, 5, 0, 0)


def test_unit_round_trip_all_blocks():
    one = Rationals().one()
    for name in build_corpus():
        rep = rep_of(name)
        im = phi(rep)
        for bi, block in enumerate(rep.blocks):
            ws = (0,) if block.kind == "sink" else (-2, -1, 0, 1, 2)
            for i in range(block.n):
                for j in range(block.n):
                    for w in ws:
                        el = phi_inverse_basis(rep, bi, i, j, w)
                        mats = im.apply(el)
                        for bj, mat in enumerate(mats):
                            if bj != bi:
                                assert mat.is_zero(), name
                        if block.kind == "sink":
                            x = one
                        else:
                            x = block.algebra.base.monomial(one, w * block.cycle.length)
                        assert mats[bi] == block.algebra.unit(i, j, x), name


def test_pull_back_inverts_apply():
    for name in build_corpus():
        rep = rep_of(name)
        im = phi(rep)
        A = rep.algebra
        for n in range(-4, 5):
            for m in A.basis_monomials(n):
                el = A.element([(m, A.field.one())])
                assert pull_back(rep, im.apply(el)) == el, name


def test_pull_back_linear():
    rng = random.Random(14)
    rep = rep_of("sink_loop")
    im = phi(rep)
    A = rep.algebra
    for _ in range(15):
        x, y = sample_homogeneous(A, rng), sample_homogeneous(A, rng)
        mx, my = im.apply(x), im.apply(y)
        summed = tuple(a + b for a, b in zip(mx, my))
        assert pull_back(rep, summed) == pull_back(rep, mx) + pull_back(rep, my)


def test_pull_back_guards():
    rep = rep_of("sink_loop")
    with pytest.raises(ValueError):
        pull_back(rep, (rep.blocks[0].algebra.zero(),))
    other = rep_of("a3")
    with pytest.raises(ValueError):
        pull_back(rep, (other.blocks[0].algebra.zero(), rep.blocks[1].algebra.zero()))


# -- dimension series -----------------------------------------------------------------


def test_dim_series_frozen_rows():
    series = dim_series_check(rep_of("a3"), 3)
    rows = {n: (a, b) for n, a, b in series.rows}
    assert rows[0] == (3, 3) and rows[1] == (2, 2) and rows[3] == (0, 0)
    assert series.all_equal
    series = dim_series_check(rep_of("loop"), 5)
    assert all((a, b) == (1, 1) for _, a, b in series.rows)


def test_dim_series_all_corpus():
    for name, g in build_corpus().items():
        series = dim_series_check(decompose(LeavittAlgebra(g)), 10)
        assert series.all_equal, name


def test_dim_series_work_count_fed_cycle(monkeypatch):
    """Work gate for the algebra side of `dims`: on a 3-cycle fed by a
    5-edge tail, degrees -10..10 count the 448 admissible monomials from
    the path-count series, with no path built and no admissibility test
    (listing the basis enumerated the paths once per algebra;
    filtering every same-range pair made 6766 tests)."""
    tail, cycle = [f"u{i}" for i in range(5)], ["c0", "c1", "c2"]
    chain = tail + ["c0"]
    edges = [(f"h{i}", chain[i], chain[i + 1]) for i in range(5)]
    edges += [(f"k{i}", cycle[i], cycle[(i + 1) % 3]) for i in range(3)]
    g = Graph(tail + cycle, edges)
    reports = [decompose(LeavittAlgebra(g, field)) for field in (Rationals(), PrimeField(1000003))]
    counts = {"is_admissible": 0, "paths_ending_in": 0}
    is_admissible, paths_ending_in = LeavittAlgebra.is_admissible, LeavittAlgebra._paths_ending_in

    def counting_is_admissible(self, m):
        counts["is_admissible"] += 1
        return is_admissible(self, m)

    def counting_paths_ending_in(self, e, length):
        counts["paths_ending_in"] += 1
        return paths_ending_in(self, e, length)

    monkeypatch.setattr(LeavittAlgebra, "is_admissible", counting_is_admissible)
    monkeypatch.setattr(LeavittAlgebra, "_paths_ending_in", counting_paths_ending_in)
    for report in reports:
        series = dim_series_check(report, 10)
        assert series.all_equal
        assert sum(lhs for _, lhs, _ in series.rows) == 448
        assert counts == {"is_admissible": 0, "paths_ending_in": 0}


def test_dim_series_json():
    data = dim_series_check(rep_of("a2"), 2).to_json()
    assert data["all_equal"] is True
    assert len(data["rows"]) == 5
    assert all(r["equal"] for r in data["rows"])
