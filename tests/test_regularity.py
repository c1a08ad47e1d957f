"""Inner inverses, graded regularity witnesses, idempotent classification."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from corpus import build_corpus
from test_scalar import dense_smith_normal_form
from leavitt import (
    BlockSelection,
    Graph,
    GradedMatrix,
    GradedMatrixAlgebra,
    LaurentElement,
    LaurentRing,
    LeavittAlgebra,
    NotRegularError,
    PrimeField,
    Rationals,
    bgr_enumerate,
    block_ranks,
    central_idempotent,
    decompose,
    graded_inner_inverse,
    idempotent_report,
    inner_inverse,
    inner_inverse_field,
    inner_inverse_laurent,
    no_exit_condition,
    phi,
    phi_inverse_basis,
    pull_back,
    sample_homogeneous,
    type_I_witness,
)
from leavitt import regularity
from leavitt.regularity import field_rank, regularity_witness_report

Q = Rationals()


def setup(name, field=None):
    rep = decompose(LeavittAlgebra(build_corpus()[name], field))
    return rep, phi(rep)


# -- inner inverses over a field ------------------------------------------------


def test_field_inner_inverse_frozen():
    M = GradedMatrixAlgebra(Q, (0, 0))
    one = Q.one()
    e11, e12, e21 = M.unit(0, 0, one), M.unit(0, 1, one), M.unit(1, 0, one)
    assert inner_inverse_field(e11) == e11
    assert inner_inverse_field(e12) == e21
    assert inner_inverse_field(M.zero()) == M.zero()


def test_field_inner_inverse_random():
    rng = random.Random(15)
    for field in (Q, PrimeField(5), PrimeField(10007)):
        for _ in range(60):
            n = rng.randint(1, 4)
            M = GradedMatrixAlgebra(field, tuple(0 for _ in range(n)))
            a = M.matrix(
                [[field.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            )
            b = inner_inverse_field(a)
            assert a * b * a == a


def test_laurent_inner_inverse_frozen():
    R = LaurentRing(Q, 1)
    M = GradedMatrixAlgebra(R, (0,))
    one = Q.one()
    a = M.unit(0, 0, R.monomial(one, 2))
    assert inner_inverse_laurent(a) == M.unit(0, 0, R.monomial(one, -2))
    with pytest.raises(NotRegularError):
        inner_inverse_laurent(M.unit(0, 0, R.from_terms({0: one, 1: one})))
    M2 = GradedMatrixAlgebra(R, (0, 0))
    d = M2.matrix([[R.monomial(one, 1), R.zero()], [R.zero(), R.zero()]])
    assert inner_inverse_laurent(d) == M2.matrix(
        [[R.monomial(one, -1), R.zero()], [R.zero(), R.zero()]]
    )


def test_laurent_inner_inverse_homogeneous_random():
    """Homogeneous matrices have monomial entries, hence always an inverse."""
    rng = random.Random(16)
    for _ in range(50):
        step = rng.randint(1, 3)
        R = LaurentRing(Q, step)
        n = rng.randint(1, 3)
        shifts = tuple(rng.randint(0, 2) for _ in range(n))
        M = GradedMatrixAlgebra(R, shifts)
        lam = rng.randint(-4, 4)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                d = lam + shifts[j] - shifts[i]
                if d % step == 0 and rng.random() < 0.7:
                    row.append(R.monomial(Fraction(rng.randint(-3, 3)), d))
                else:
                    row.append(R.zero())
            rows.append(row)
        a = M.matrix(rows)
        assert a.is_homogeneous(lam)
        b = inner_inverse_laurent(a)
        assert a * b * a == a


def test_laurent_inner_inverse_general_random():
    """Arbitrary matrices: either a verified inverse or an honest refusal."""
    rng = random.Random(17)
    R = LaurentRing(Q, 1)
    regular = irregular = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        M = GradedMatrixAlgebra(R, tuple(0 for _ in range(n)))
        a = M.matrix(
            [
                [
                    R.from_terms(
                        {e: Fraction(rng.randint(-2, 2)) for e in range(0, 2) if rng.random() < 0.5}
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        try:
            b = inner_inverse_laurent(a)
        except NotRegularError:
            irregular += 1
            continue
        regular += 1
        assert a * b * a == a
    assert regular > 0 and irregular > 0  # the sample hits both behaviors


def test_inner_inverse_dispatch():
    M = GradedMatrixAlgebra(Q, (0,))
    assert inner_inverse(M.unit(0, 0, Q.one())) == M.unit(0, 0, Q.one())
    R = LaurentRing(Q, 1)
    ML = GradedMatrixAlgebra(R, (0,))
    x = ML.unit(0, 0, R.monomial(Q.one(), 1))
    assert inner_inverse(x) == x.star()


# -- graded inner inverses in the algebra ------------------------------------------


def test_graded_inner_inverse_loop_edge():
    rep, im = setup("loop")
    c = rep.algebra.edge("c")
    b = graded_inner_inverse(im, c)
    assert b == c.star()
    assert c * b * c == c


def test_graded_inner_inverse_samples():
    rng = random.Random(18)
    for name in build_corpus():
        rep, im = setup(name)
        A = rep.algebra
        for _ in range(12):
            a = sample_homogeneous(A, rng)
            b = graded_inner_inverse(im, a)
            assert a * b * a == a, name
            assert b.degree() == -a.degree(), name


def test_graded_inner_inverse_projection():
    rng = random.Random(19)
    for name in ("tree", "fedcycle", "parallel"):
        rep, im = setup(name)
        A = rep.algebra
        for _ in range(12):
            a = sample_homogeneous(A, rng)
            raw = graded_inner_inverse(im, a, project=False)
            proj = raw.component(-a.degree())
            assert a * raw * a == a, name
            assert a * proj * a == a, name
            assert proj == graded_inner_inverse(im, a), name


def test_graded_inner_inverse_guards():
    rep, im = setup("a3")
    A = rep.algebra
    assert graded_inner_inverse(im, A.zero()).is_zero()
    mixed = A.vertex("v1") + A.edge("e1")
    with pytest.raises(ValueError):
        graded_inner_inverse(im, mixed)


# -- ranks and idempotent reports ----------------------------------------------------


def test_block_ranks():
    rep, im = setup("tree")
    assert block_ranks(im, rep.algebra.identity()) == (4, 4)
    rep, im = setup("sink_loop")
    assert block_ranks(im, rep.algebra.vertex("s")) == (1, 0)
    assert block_ranks(im, rep.algebra.vertex("z")) == (0, 1)
    assert block_ranks(im, rep.algebra.zero()) == (0, 0)


def test_idempotent_report_flags():
    rep, im = setup("sink_loop")
    A = rep.algebra
    r = idempotent_report(im, A.vertex("s"))
    assert r.is_idempotent and r.is_homogeneous_degree_zero
    assert r.block_ranks == (1, 0)
    assert r.abelian is True and r.faithful is False
    assert r.directly_finite is True
    r = idempotent_report(im, A.identity())
    assert r.abelian is True and r.faithful is True  # both blocks have size 1
    rep, im = setup("tree")
    r = idempotent_report(im, rep.algebra.identity())
    assert r.abelian is False and r.faithful is True  # rank-4 blocks


def test_idempotent_report_rejects_non_idempotent():
    rep, im = setup("a3")
    r = idempotent_report(im, rep.algebra.edge("e1"))
    assert r.is_idempotent is False
    assert r.block_ranks is None and r.abelian is None and r.faithful is None


def test_type_I_witness_all_corpus():
    for name in build_corpus():
        rep, im = setup(name)
        w = type_I_witness(rep)
        assert w * w == w, name
        assert w.degree() == 0, name
        r = idempotent_report(im, w)
        assert r.abelian is True and r.faithful is True, name
        # the witness is the sum of the block anchor vertices
        anchors = {b.anchor for b in rep.blocks}
        assert w == sum(
            (rep.algebra.vertex(v) for v in anchors), rep.algebra.zero()
        ), name


# -- the central idempotent lattice -----------------------------------------------


def test_bgr_enumerate_counts():
    rep, _ = setup("sink_loop")
    assert len(bgr_enumerate(rep)) == 4
    rep, _ = setup("a3")
    assert len(bgr_enumerate(rep)) == 2


def test_central_idempotents_behave():
    rng = random.Random(20)
    for name in ("sink_loop", "tree", "cyc2"):
        rep, im = setup(name)
        A = rep.algebra
        sels = bgr_enumerate(rep)
        elements = {}
        for sel in sels:
            e = central_idempotent(rep, sel)
            elements[sel.selected] = e
            assert e * e == e, name
            assert e.is_zero() or e.degree() == 0, name
            for _ in range(6):
                x = sample_homogeneous(A, rng)
                assert e * x == x * e, name
        # full selection is the identity, empty is zero
        assert elements[tuple(True for _ in rep.blocks)] == A.identity()
        assert elements[tuple(False for _ in rep.blocks)] == A.zero()
        # the lattice is closed under products: pointwise AND
        for s1 in sels:
            for s2 in sels:
                both = tuple(a and b for a, b in zip(s1.selected, s2.selected))
                assert elements[s1.selected] * elements[s2.selected] == elements[both]


def test_faithful_means_no_central_annihilator():
    for name in build_corpus():
        rep, im = setup(name)
        w = type_I_witness(rep)
        for sel in bgr_enumerate(rep):
            if not any(sel.selected):
                continue
            e = central_idempotent(rep, sel)
            assert not (e * w).is_zero(), name


def test_direct_finiteness_probe():
    """xy = 1 forces yx = 1 among small homogeneous elements."""
    for name in ("loop", "cyc2"):
        A = LeavittAlgebra(build_corpus()[name])
        one = A.identity()
        hits = 0
        for alpha in (0, 1, 2):
            xs = _small_homogeneous(A, alpha)
            ys = _small_homogeneous(A, -alpha)
            for x in xs:
                for y in ys:
                    if x * y == one:
                        hits += 1
                        assert y * x == one, name
        assert hits > 0, name


def _small_homogeneous(A, degree):
    basis = A.basis_monomials(degree)
    out = []
    coeffs = (A.field.one(), A.field.neg(A.field.one()))
    for r in (1, 2):
        for combo in itertools.combinations(basis, r):
            for cs in itertools.product(coeffs, repeat=r):
                out.append(A.element(list(zip(combo, cs))))
    return out


def test_sample_homogeneous_determinism():
    A = LeavittAlgebra(build_corpus()["fedcycle"])
    a = sample_homogeneous(A, random.Random(42))
    b = sample_homogeneous(A, random.Random(42))
    assert a == b
    assert not a.is_zero() and a.degree() is not None


def _cycle(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)])


def _fed_cycle(tail, n):
    us, cs = [f"u{i}" for i in range(tail)], [f"c{i}" for i in range(n)]
    chain = us + ["c0"]
    edges = [(f"h{i}", chain[i], chain[i + 1]) for i in range(tail)]
    return Graph(us + cs, edges + [(f"k{i}", cs[i], cs[(i + 1) % n]) for i in range(n)])


def _line(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])


# sha256 of json.dumps([a.to_json() for the 20 elements a drawn over Q by
# sample_homogeneous with random.Random(0)]), recorded while
# basis_monomials still cut each basis from a full path enumeration
@pytest.mark.parametrize(
    "graph, digest",
    [
        (_cycle(40), "09d8df601103b0bb62f1cc7697714393c1170e49d0010fbf052c4bb6a6264c1f"),
        (_fed_cycle(30, 5), "df1ad30e1def42e702af9a449871457d1e18949ee8a911fbce7708fa82910e70"),
        (_line(60), "0d6f267385be443c6750ac9c20b671a8eaec2588d9dbb5ad2ccee23469ee2918"),
    ],
    ids=["cycle40", "fed30_5", "line60"],
)
def test_sample_homogeneous_frozen_on_larger_graphs(graph, digest):
    """Sampling draws its terms from `basis_monomials`, so these pin the
    basis order on graphs larger than the corpus."""
    A, rng = LeavittAlgebra(graph), random.Random(0)
    draws = [sample_homogeneous(A, rng).to_json() for _ in range(20)]
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == digest


# -- the sparse one-pass inverses against the dense routes they replaced -------------
#
# The oracles are the earlier dense versions: a field inverse from two
# Gauss-Jordan passes (one on the matrix, one on its pivot columns) and a
# placement-matrix product, the dense rank, and the Laurent inverse as the
# dense product V D^+ U.  The one-pass inverse equals the two-pass one
# exactly, not only as some inner inverse: the second pass repeats the row
# operations of the first, so its transform is the first one's.


def oracle_row_reduce(rows, field):
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    t = [[field.one() if i == j else field.zero() for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pick = next((i for i in range(r, m) if not field.is_zero(a[i][c])), None)
        if pick is None:
            continue
        a[r], a[pick] = a[pick], a[r]
        t[r], t[pick] = t[pick], t[r]
        inv = field.invert(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        t[r] = [field.mul(inv, x) for x in t[r]]
        for i in range(m):
            if i == r or field.is_zero(a[i][c]):
                continue
            f = a[i][c]
            a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
            t[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(t[i], t[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, t, pivots


def oracle_mat_mul(a, b, ring):
    if not a or not b:
        return []
    out = [[ring.zero() for _ in range(len(b[0]))] for _ in range(len(a))]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            acc = ring.zero()
            for s, x in enumerate(row):
                acc = ring.add(acc, ring.mul(x, b[s][j]))
            out[i][j] = acc
    return out


def oracle_field_rank(grid, field):
    return len(oracle_row_reduce(grid, field)[2])


def oracle_inner_inverse_field(a):
    """b = R^+ C^+ from a rank factorization a = C R."""
    alg, field, n = a.algebra, a.algebra.base, a.algebra.n
    grid = a.entries
    _, _, pivots = oracle_row_reduce(grid, field)
    r = len(pivots)
    if r == 0:
        return alg.zero()
    cmat = [[grid[i][c] for c in pivots] for i in range(n)]
    rplus = [[field.zero() for _ in range(r)] for _ in range(n)]
    for k, c in enumerate(pivots):
        rplus[c][k] = field.one()
    _, ct, cpiv = oracle_row_reduce(cmat, field)
    assert len(cpiv) == r
    return alg.matrix(oracle_mat_mul(rplus, ct[:r], field))


def oracle_inner_inverse_laurent(a):
    alg, ring, n = a.algebra, a.algebra.base, a.algebra.n
    u, d, v = dense_smith_normal_form(a.entries, ring)
    dplus = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        x = d[i][i]
        if ring.is_zero(x):
            continue
        if not ring.is_unit(x):
            raise NotRegularError("diagonal form has the nonzero non-unit entry " + ring.format(x))
        dplus[i][i] = ring.unit_inverse(x)
    return alg.matrix(oracle_mat_mul(v, oracle_mat_mul(dplus, u, ring), ring))


def oracle_inner_inverse(a):
    if a.algebra.is_laurent:
        return oracle_inner_inverse_laurent(a)
    return oracle_inner_inverse_field(a)


def _outcome(fn, a):
    """('ok', b) or ('refused', message): NotRegularError is an answer too."""
    try:
        return "ok", fn(a)
    except NotRegularError as exc:
        return "refused", str(exc)


def _random_scalar_grid(rng, field, n, shape):
    def x():
        return field.from_int(rng.randint(-3, 3))

    if shape == "zero":
        return [[field.zero()] * n for _ in range(n)]
    if shape == "monomial":
        grid = [[field.zero()] * n for _ in range(n)]
        for i, j in zip(range(n), rng.sample(range(n), n)):
            if rng.random() < 0.8:
                grid[i][j] = field.from_int(rng.randint(1, 6))
        return grid
    if shape == "low_rank":  # an n x k times a k x n product, k < n
        k = rng.randint(1, n - 1) if n > 1 else 0
        if k == 0:
            return [[field.zero()] * n for _ in range(n)]
        left = [[x() for _ in range(k)] for _ in range(n)]
        right = [[x() for _ in range(n)] for _ in range(k)]
        return oracle_mat_mul(left, right, field)
    return [[x() if rng.random() < 0.6 else field.zero() for _ in range(n)] for _ in range(n)]


def _random_laurent_matrix(rng, n, shape):
    step = rng.randint(1, 3)
    R = LaurentRing(Q, step)
    shifts = tuple(rng.randint(0, 2) for _ in range(n))
    M = GradedMatrixAlgebra(R, shifts)
    if shape == "homogeneous":
        lam = rng.randint(-4, 4)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                d = lam + shifts[j] - shifts[i]
                if d % step == 0 and rng.random() < 0.6:
                    row.append(R.monomial(Fraction(rng.randint(-3, 3)), d))
                else:
                    row.append(R.zero())
            rows.append(row)
        return M.matrix(rows)
    if shape == "zero":
        return M.zero()
    # arbitrary entries: a mix of inverses and NotRegularError refusals
    def entry():
        return R.from_terms(
            {e: Fraction(rng.randint(-2, 2)) for e in (0, step) if rng.random() < 0.4}
        )

    return M.matrix([[entry() for _ in range(n)] for _ in range(n)])


def random_inverse_cases(seed=23):
    """Seeded matrices over Q, F_7 and Q[x^t, x^-t], n = 1..8, in every shape."""
    rng = random.Random(seed)
    cases = []
    for field in (Q, PrimeField(7)):
        for shape in ("dense", "low_rank", "monomial", "zero"):
            for n in range(1, 9):
                for _ in range(6):
                    M = GradedMatrixAlgebra(field, tuple(rng.randint(0, 2) for _ in range(n)))
                    cases.append(M.matrix(_random_scalar_grid(rng, field, n, shape)))
    for shape in ("homogeneous", "general", "zero"):
        for n in range(1, 9 if shape != "general" else 5):
            for _ in range(6):
                cases.append(_random_laurent_matrix(rng, n, shape))
    return cases


def mismatches(cases, expected):
    """How many cases get another answer than the oracle's: another b (as
    a GradedMatrix, so a stored zero counts), another refusal, a crash."""
    bad = 0
    for a, want in zip(cases, expected):
        try:
            got = _outcome(inner_inverse, a)
        except Exception:  # a mutant may crash outright
            bad += 1
            continue
        if got != want or (got[0] == "ok" and got[1].to_json() != want[1].to_json()):
            bad += 1
    return bad


def test_inner_inverse_equals_dense_oracle():
    cases = random_inverse_cases()
    expected = [_outcome(oracle_inner_inverse, a) for a in cases]
    assert {kind for kind, _ in expected} == {"ok", "refused"}  # both behaviors
    assert mismatches(cases, expected) == 0
    for a, (kind, b) in zip(cases, expected):
        if kind == "ok":
            assert a * b * a == a
        if not a.algebra.is_laurent:
            assert field_rank(a.rows, a.algebra.base) == oracle_field_rank(
                a.entries, a.algebra.base
            )


_sparse_row_reduce = regularity._row_reduce


def _wrong_pivot_row_reduce(rows, field):
    a, t, pivots = _sparse_row_reduce(rows, field)
    return a, t, pivots[1:] + pivots[:1]


def _sub_row_keeping_zeros(a, t, i, j, q, ring):
    for rows in (a, t):
        dst = rows[i]
        for k, y in rows[j].items():
            qy = ring.mul(q, y)
            dst[k] = ring.sub(dst[k], qy) if k in dst else ring.neg(qy)


def _no_dplus_scaling(ring, x):
    return ring.one()


@pytest.mark.parametrize(
    "owner, name, mutant",
    [
        (regularity, "_row_reduce", _wrong_pivot_row_reduce),
        (regularity, "_sub_row", _sub_row_keeping_zeros),
        (LaurentRing, "unit_inverse", _no_dplus_scaling),
    ],
    ids=["transform-row-at-wrong-pivot", "cancelled-sum-stored", "no-dplus-scaling"],
)
def test_oracle_comparison_catches_mutants(monkeypatch, owner, name, mutant):
    cases = random_inverse_cases()
    expected = [_outcome(oracle_inner_inverse, a) for a in cases]
    monkeypatch.setattr(owner, name, mutant)
    assert mismatches(cases, expected) > 0


def no_exit_graphs(st):
    """Random no-exit multigraphs on up to five vertices: edges are drawn
    and each is kept only when the graph stays without exits."""
    labels = ("v2", "v10", "a", "z", "m1")

    @st.composite
    def graphs(draw):
        vs = draw(st.permutations(labels))[: draw(st.integers(1, len(labels)))]
        ends = draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=8))
        keep = []
        for k, (s, d) in enumerate(ends):
            if no_exit_condition(Graph(vs, keep + [(f"e{k}", s, d)])):
                keep.append((f"e{k}", s, d))
        return Graph(vs, keep)

    return graphs()


def test_witness_report_matches_oracle_route_on_random_graphs():
    """regular-witness transcripts on random no-exit multigraphs, over Q and
    F_3, are the ones the dense oracle route gives, term for term."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        no_exit_graphs(st), st.sampled_from((Q, PrimeField(3))), st.integers(0, 2**32 - 1)
    )
    def check(g, field, seed):
        images = phi(decompose(LeavittAlgebra(g, field)))
        rng = random.Random(seed)
        for _ in range(3):
            a = sample_homogeneous(images.report.algebra, rng)
            got = regularity_witness_report(images, a)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regularity, "inner_inverse", oracle_inner_inverse)
                want = regularity_witness_report(images, a)
            assert got == want

    check()


def _inner_inverse_mul_counts(monkeypatch, graph, field, counted):
    """Base-ring multiplications `counted.mul` per inner_inverse of each
    edge image (every edge lies in one block here)."""
    images = phi(decompose(LeavittAlgebra(graph, field)))
    A = images.report.algebra
    mats = [next(m for m in images.apply(A.edge(e.id)) if not m.is_zero()) for e in graph.edges]
    count = [0]
    mul = counted.mul

    def counting_mul(self, x, y):
        count[0] += 1
        return mul(self, x, y)

    monkeypatch.setattr(counted, "mul", counting_mul)
    out = set()
    for m in mats:
        count[0] = 0
        inner_inverse(m)
        out.add(count[0])
    return out


def test_inner_inverse_work_count_edge_images(monkeypatch):
    """Deterministic work gate: an edge image is one matrix unit, so over
    K its inverse costs two multiplications (scaling the pivot row of the
    reduced matrix and of the transform), and over K[x^t, x^-t] also two
    (scaling the one nonzero row of D^+ U and the one product of stored
    entries).  The two-pass inverse with its dense products spent 1721
    field multiplications on a 40-vertex line (n = 40) and 2 * 35^3 =
    85750 Laurent ones on a 5-cycle fed by a 30-edge tail (n = 35)."""
    vs = [f"v{i}" for i in range(40)]
    line = Graph(vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(39)])
    assert _inner_inverse_mul_counts(monkeypatch, line, Q, Rationals) == {2}
    us = [f"u{i}" for i in range(35)]
    edges = [(f"h{i}", us[i], us[i + 1]) for i in range(30)]
    edges += [(f"c{i}", us[30 + i], us[30 + (i + 1) % 5]) for i in range(5)]
    fed = Graph(us, edges)
    assert _inner_inverse_mul_counts(monkeypatch, fed, Q, LaurentRing) == {2}


def test_laurent_inner_inverse_builds_few_elements(monkeypatch):
    """Deterministic work gate: an edge of a 200-cycle maps to one matrix
    unit of M_n(K[x^n, x^-n]), n = 200.  Its inverse builds at most 4n
    Laurent elements, n of them the zeros of the dense input grid.
    Identity grids with a fresh zero per entry and a dense V factor built
    80203."""
    n = 200
    images = phi(decompose(LeavittAlgebra(_cycle(n))))
    (m,) = images.apply(images.report.algebra.edge("e0"))
    built = [0]
    init = LaurentElement.__init__

    def counting_init(self, ring, terms):
        built[0] += 1
        init(self, ring, terms)

    monkeypatch.setattr(LaurentElement, "__init__", counting_init)
    b = inner_inverse_laurent(m)
    assert built[0] <= 4 * n
    assert m * b * m == m


def test_laurent_inner_inverse_tests_no_zeros(monkeypatch):
    """Deterministic work gate: the inverse of an edge image of a 200-cycle
    (one matrix unit, n = 200) runs on sparse rows from input to product,
    so it tests no Laurent element for zero.  Scanning the dense input
    grid and the three dense results made n^2 + 3n = 40600 tests."""
    n = 200
    images = phi(decompose(LeavittAlgebra(_cycle(n))))
    (m,) = images.apply(images.report.algebra.edge("e0"))
    calls = [0]
    is_zero = LaurentRing.is_zero

    def counting_is_zero(self, x):
        calls[0] += 1
        return is_zero(self, x)

    monkeypatch.setattr(LaurentRing, "is_zero", counting_is_zero)
    b = inner_inverse_laurent(m)
    assert calls[0] == 0
    monkeypatch.undo()
    assert m * b * m == m


@pytest.mark.parametrize("field", [Q, PrimeField(5)], ids=["Q", "F5"])
def test_graded_inner_inverse_reads_no_dense_grid(monkeypatch, field):
    """Graded inner inverses of sampled elements of a fed cycle beside a
    line (a block over K[x^t, x^-t] and one over K) never build the dense
    `entries` view."""
    fed = _fed_cycle(6, 4)
    g = Graph(fed.vertices + ("s0", "s1"), [tuple(e) for e in fed.edges] + [("f", "s0", "s1")])
    images = phi(decompose(LeavittAlgebra(g, field)))
    assert {b.algebra.is_laurent for b in images.report.blocks} == {True, False}
    A = images.report.algebra
    rng = random.Random(5)
    samples = [sample_homogeneous(A, rng) for _ in range(12)]

    def no_grid(self):
        raise AssertionError("dense entries read")

    monkeypatch.setattr(GradedMatrix, "entries", property(no_grid))
    for a in samples:
        b = graded_inner_inverse(images, a)
        assert a * b * a == a


def test_identity_diagonal_form_skips_divisibility(monkeypatch):
    """Deterministic work gate: the identity of a 100-vertex cycle maps to
    the identity matrix (one block, n = 100); every pivot is a unit, so
    the diagonal form never tests divisibility.  Scanning the trailing
    submatrix after each pivot made 328350 `divides` calls."""
    vs = [f"v{i}" for i in range(100)]
    g = Graph(vs, [(f"e{i}", vs[i], vs[(i + 1) % 100]) for i in range(100)])
    rep = decompose(LeavittAlgebra(g))
    images = phi(rep)
    calls = [0]
    divides = LaurentRing.divides

    def counting_divides(self, d, a):
        calls[0] += 1
        return divides(self, d, a)

    monkeypatch.setattr(LaurentRing, "divides", counting_divides)
    report = regularity_witness_report(images, rep.algebra.identity())
    assert report["aba_equals_a"] and calls[0] == 0


# -- block ranks at x = 1, against fraction-free elimination ----------------------


def oracle_laurent_rank(rows, ring):
    """The deleted `regularity.laurent_rank`, verbatim: rank over the
    fraction field by fraction-free elimination.

    Cross-multiplication keeps everything inside the ring; only
    nonzero-ness of entries matters, so the growth is harmless at these
    sizes.
    """
    if not rows:
        return 0
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(n):
        pick = None
        for i in range(row, m):
            if not ring.is_zero(a[i][col]):
                pick = i
                break
        if pick is None:
            continue
        a[row], a[pick] = a[pick], a[row]
        for i in range(row + 1, m):
            if ring.is_zero(a[i][col]):
                continue
            p, q = a[row][col], a[i][col]
            a[i] = [ring.sub(ring.mul(p, x), ring.mul(q, y)) for x, y in zip(a[i], a[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def _sink_and_fed_cycle(n, t, s):
    """A t-cycle fed by a tail of n - t edges, next to a line of s vertices
    into a sink: blocks M_s(K) and M_n(K[x^t, x^-t])."""
    tail = [f"u{i}" for i in range(n - t)] + [f"c{i}" for i in range(t)]
    line = [f"s{i}" for i in range(s)]
    edges = [(f"h{i}", tail[i], tail[i + 1]) for i in range(n - t)]
    edges += [(f"k{i}", f"c{i}", f"c{(i + 1) % t}") for i in range(t)]
    edges += [(f"l{i}", line[i], line[i + 1]) for i in range(s - 1)]
    return Graph(tail + line, edges)


def _random_homogeneous_matrix(rng, M):
    """A random homogeneous matrix of M: one random degree, each entry
    the base monomial that degree forces, kept with probability 1/2."""
    base, n = M.base, M.n
    field = base.field if M.is_laurent else base
    m = rng.randint(-3, 3)
    units = []
    for i in range(n):
        for j in range(n):
            e = m + M.shifts[j] - M.shifts[i]
            if base.has_component(e) and rng.random() < 0.5:
                units.append((i, j, base.monomial(field.from_int(rng.randint(1, 6)), e)))
    return M.sum_of_units(units)


def _random_idempotent(rng, M):
    """P D P^-1 with D a random 0/1 diagonal and P a product of
    elementary matrices I + c x^(kt) e_ij (i != j) and diagonal units."""
    base, n = M.base, M.n
    field = base.field if M.is_laurent else base
    step = base.step if M.is_laurent else 0
    invert = base.unit_inverse if M.is_laurent else base.invert
    p, p_inv = M.identity(), M.identity()
    for _ in range(rng.randint(0, 8)):
        c = field.from_int(rng.randint(1, 6))
        if field.is_zero(c):
            continue
        x = base.monomial(c, step * rng.randint(-2, 2))
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            rest = [(k, k, base.one()) for k in range(n) if k != i]
            f = M.sum_of_units(rest + [(i, i, x)])
            f_inv = M.sum_of_units(rest + [(i, i, invert(x))])
        else:
            f = M.identity() + M.unit(i, j, x)
            f_inv = M.identity() - M.unit(i, j, x)
        p, p_inv = p * f, f_inv * p_inv
    d = M.sum_of_units([(k, k, base.one()) for k in range(n) if rng.random() < 0.5])
    e = p * d * p_inv
    assert e * e == e
    return e


def test_block_ranks_match_fraction_free_oracle():
    """Setting the Laurent variable to 1 and ranking over K gives the rank
    over the fraction field, on homogeneous matrices (and products of two
    of them) and on P D P^-1 idempotents, over Q, F_3 and F_7."""
    rng = random.Random(31)
    kinds = {"homogeneous": 0, "idempotent": 0}
    proper = 0  # Laurent block images of rank strictly between 0 and n
    inhomogeneous = 0  # Laurent block idempotents that are not homogeneous
    for field in (Q, PrimeField(3), PrimeField(7)):
        for t in (1, 2, 3):
            for n in range(t, 6):
                g = _sink_and_fed_cycle(n, t, rng.randint(1, 3))
                rep = decompose(LeavittAlgebra(g, field))
                images = phi(rep)
                algebras = [b.algebra for b in rep.blocks]
                for trial in range(8):
                    if trial % 2:
                        mats = tuple(_random_idempotent(rng, M) for M in algebras)
                        kinds["idempotent"] += 1
                    else:
                        mats = tuple(
                            _random_homogeneous_matrix(rng, M) * _random_homogeneous_matrix(rng, M)
                            if trial % 4 else _random_homogeneous_matrix(rng, M)
                            for M in algebras
                        )
                        kinds["homogeneous"] += 1
                    x = pull_back(rep, mats)
                    assert images.apply(x) == mats
                    want = tuple(oracle_laurent_rank(m.entries, m.algebra.base) for m in mats)
                    assert block_ranks(images, x) == want, (field, t, n, mats)
                    proper += 0 < want[-1] < n
                    inhomogeneous += mats[-1].degree() is None and not mats[-1].is_zero()
    assert kinds == {"homogeneous": 144, "idempotent": 144}
    assert proper > 100 and inhomogeneous > 40


def test_block_ranks_reject_image_neither_homogeneous_nor_idempotent():
    rep, im = setup("loop")
    A = rep.algebra
    x = A.vertex("v1") - A.edge("c")  # image 1 - x
    with pytest.raises(ValueError, match="homogeneous or idempotent"):
        block_ranks(im, x)
    assert block_ranks(im, A.edge("c")) == (1,)
    # 1 - x^2 is neither homogeneous nor idempotent either
    with pytest.raises(ValueError):
        block_ranks(im, A.vertex("v1") - A.edge("c") * A.edge("c"))


# -- central idempotents and the type I witness through pull_back ------------------


def oracle_central_idempotent(report, sel):
    """The per-unit loop `central_idempotent` used before it went through
    `pull_back`: the sum of the preimages of the selected diagonal units."""
    acc = report.algebra.zero()
    for bi, (block, keep) in enumerate(zip(report.blocks, sel.selected)):
        if not keep:
            continue
        for k in range(block.n):
            acc = acc + phi_inverse_basis(report, bi, k, k, 0)
    return acc


def oracle_type_I_witness(report):
    acc = report.algebra.zero()
    for bi in range(len(report.blocks)):
        acc = acc + phi_inverse_basis(report, bi, 0, 0, 0)
    return acc


def _assert_idempotents_match_oracle(rep):
    assert type_I_witness(rep) == oracle_type_I_witness(rep)
    for sel in bgr_enumerate(rep):
        assert central_idempotent(rep, sel) == oracle_central_idempotent(rep, sel), sel


def test_idempotents_match_per_unit_loops_on_corpus():
    for name, g in build_corpus().items():
        for field in (Q, PrimeField(3)):
            _assert_idempotents_match_oracle(decompose(LeavittAlgebra(g, field)))


def test_idempotents_match_per_unit_loops_on_random_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(no_exit_graphs(st), st.sampled_from((Q, PrimeField(3))))
    def check(g, field):
        _assert_idempotents_match_oracle(decompose(LeavittAlgebra(g, field)))

    check()


def test_central_idempotent_rejects_wrong_length_selection():
    rep, _ = setup("fedcycle")  # one block
    for bits in ((), (True, False)):
        with pytest.raises(ValueError):
            central_idempotent(rep, BlockSelection(bits))
    rep, _ = setup("sink_loop")  # two blocks
    for bits in ((True,), (True, True, True)):
        with pytest.raises(ValueError):
            central_idempotent(rep, BlockSelection(bits))
    assert central_idempotent(rep, BlockSelection((True, True))) == rep.algebra.identity()
