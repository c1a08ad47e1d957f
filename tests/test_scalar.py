"""Exact arithmetic: fields, Laurent rings, and the diagonal form."""

import random
from fractions import Fraction

import pytest

from leavitt import (
    Graph,
    LaurentRing,
    LeavittAlgebra,
    PrimeField,
    Rationals,
    decompose,
    phi,
    sample_homogeneous,
    scalar,
    smith_normal_form,
)


def test_rationals_basics():
    Q = Rationals()
    a = Q.parse("5/6")
    assert a == Fraction(5, 6)
    assert Q.mul(a, Q.invert(a)) == Q.one()
    assert Q.format(Q.add(a, Fraction(1, 6))) == "1"
    assert Q.is_zero(Q.sub(a, a))
    with pytest.raises(ZeroDivisionError):
        Q.invert(Q.zero())


def test_rationals_trivial_grading():
    Q = Rationals()
    assert Q.has_component(0) and not Q.has_component(1)
    assert Q.component(Fraction(3), 0) == Fraction(3)
    assert Q.component(Fraction(3), 2) == 0
    assert Q.homogeneous_degree(Fraction(3)) == 0
    with pytest.raises(ValueError):
        Q.homogeneous_degree(Fraction(0))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(7)], ids=["Q", "F7"])
def test_parse_reads_strings_and_integers_only(field):
    assert field.parse(3) == field.parse("3") == field.from_int(3)
    for number in (1.5, 0.1, 2.0, True, None, [1]):
        with pytest.raises(ValueError):
            field.parse(number)


def test_rationals_parse_decimal_string_exactly():
    assert Rationals().parse("0.1") == Fraction(1, 10)


def test_rationals_parse_refuses_what_format_cannot_write():
    """Numerator and denominator may have as many digits as `str` writes
    for an int (4300 by default) and no more; an exponent far past that is
    refused before the value is built."""
    Q = Rationals()
    limit = scalar._max_digits()
    assert Q.format(Q.parse(f"1e{limit - 1}")) == "1" + "0" * (limit - 1)
    assert Q.format(Q.parse(f"-3e-{limit - 1}")) == "-3/1" + "0" * (limit - 1)
    assert Q.parse(f"{'9' * limit}/7") == Fraction(10**limit - 1, 7)
    for text in (f"1e{limit}", f"1e-{limit}", "1e5000", "-2.5E-5000", "1e10000000", 10**limit):
        with pytest.raises(ValueError):
            Q.parse(text)


def test_prime_field():
    F = PrimeField(5)
    assert F.invert(2) == 3
    assert F.add(3, 4) == 2
    assert F.neg(1) == 4
    assert F.parse("-1") == 4
    with pytest.raises(ZeroDivisionError):
        F.invert(0)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_inverse_table():
    F = PrimeField(10007)
    rng = random.Random(1)
    for _ in range(50):
        a = rng.randrange(1, 10007)
        assert F.mul(a, F.invert(a)) == 1


def test_prime_field_rejects_composite_order():
    # 10003 = 7 * 1429; there is no field with that many elements
    with pytest.raises(ValueError):
        PrimeField(10003)


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _accepted(p):
    try:
        PrimeField(p)
    except ValueError:
        return False
    return True


def test_prime_field_accepts_large_primes():
    # trial division up to sqrt(2^61 - 1) would not finish
    for p in (2**31 - 1, 2**61 - 1):
        assert PrimeField(p).p == p


def test_prime_field_rejects_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7 at once
    for n in (561, 3215031751):
        with pytest.raises(ValueError):
            PrimeField(n)


def test_prime_field_rejects_moduli_beyond_the_exact_range():
    # the least strong pseudoprime to every base 2..37 is composite; it and
    # everything above it is refused rather than guessed at
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    for m in (n, n + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(m)


def test_prime_field_agrees_with_trial_division():
    for n in range(10**4):
        assert _accepted(n) is _trial_division(n), n


def test_fields_share_trivial_grading():
    for K, c in ((Rationals(), Fraction(3, 4)), (PrimeField(7), 5)):
        assert K.monomial(c, 0) == c
        with pytest.raises(ValueError):
            K.monomial(c, 1)
        assert K.terms(c) == {0: c} and K.terms(K.zero()) == {}
        assert K.component(c, 0) == c and K.is_zero(K.component(c, 1))
        assert K.star(c) == c and K.homogeneous_degree(c) == 0
        assert K.to_json(c) == K.format(c)
    R = LaurentRing(Rationals(), 3)
    a = R.from_terms({3: Fraction(2), -6: Fraction(1)})
    assert R.terms(a) == {3: Fraction(2), -6: Fraction(1)}


def test_field_equality():
    assert Rationals() == Rationals()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert Rationals() != PrimeField(5)


def test_laurent_construction():
    R = LaurentRing(Rationals(), 2)
    a = R.from_terms({2: Fraction(1), 0: Fraction(1)})
    b = R.monomial(Fraction(1), -2)
    prod = R.mul(a, b)
    # (x^2 + 1) x^-2 = 1 + x^-2
    assert prod == R.from_terms({0: Fraction(1), -2: Fraction(1)})
    with pytest.raises(ValueError):
        R.monomial(Fraction(1), 3)
    with pytest.raises(ValueError):
        R.from_terms({1: Fraction(1)})
    # canonical: zero coefficients never stored
    z = R.sub(a, a)
    assert z.terms == {} and R.is_zero(z)


def test_laurent_ring_axioms():
    R = LaurentRing(PrimeField(7), 1)
    rng = random.Random(2)

    def rand():
        return R.from_terms(
            {e: rng.randrange(7) for e in rng.sample(range(-4, 5), rng.randint(0, 4))}
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert R.mul(a, R.mul(b, c)) == R.mul(R.mul(a, b), c)
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.mul(a, b) == R.mul(b, a)
        assert R.add(a, R.neg(a)) == R.zero()


def test_laurent_units():
    R = LaurentRing(Rationals(), 1)
    x = R.monomial(Fraction(2), 3)
    assert R.is_unit(x)
    assert R.mul(x, R.unit_inverse(x)) == R.one()
    assert not R.is_unit(R.from_terms({0: Fraction(1), 1: Fraction(1)}))
    assert not R.is_unit(R.zero())
    with pytest.raises(ValueError):
        R.unit_inverse(R.zero())


def test_laurent_star_and_components():
    R = LaurentRing(Rationals(), 2)
    a = R.from_terms({-2: Fraction(3), 4: Fraction(1, 2)})
    assert R.star(a) == R.from_terms({2: Fraction(3), -4: Fraction(1, 2)})
    assert R.component(a, 4) == R.monomial(Fraction(1, 2), 4)
    assert R.is_zero(R.component(a, 0))
    assert R.has_component(4) and not R.has_component(3)
    assert R.homogeneous_degree(R.monomial(Fraction(1), -6)) == -6
    with pytest.raises(ValueError):
        R.homogeneous_degree(a)


def test_laurent_divmod_properties():
    R = LaurentRing(Rationals(), 1)
    rng = random.Random(3)

    def rand(nonzero=False):
        while True:
            v = R.from_terms(
                {
                    e: Fraction(rng.randint(-3, 3))
                    for e in rng.sample(range(-3, 4), rng.randint(0, 3))
                }
            )
            if not nonzero or not R.is_zero(v):
                return v

    for _ in range(300):
        a, b = rand(), rand(nonzero=True)
        q, r = R.divmod(a, b)
        assert R.add(R.mul(q, b), r) == a
        assert R.is_zero(r) or R.width(r) < R.width(b)
    assert R.divides(R.monomial(Fraction(1), 1), R.monomial(Fraction(5), 9))
    assert not R.divides(R.from_terms({0: Fraction(1), 1: Fraction(1)}), R.one())


def test_laurent_json_round_trip():
    R = LaurentRing(Rationals(), 3)
    a = R.from_terms({-3: Fraction(1, 3), 6: Fraction(2)})
    assert R.parse(R.to_json(a)) == a
    with pytest.raises(ValueError):
        R.parse({"t": 2, "terms": {}})
    with pytest.raises(ValueError):
        R.parse([1, 2])


# -- smith normal form -------------------------------------------------------


def _mat_mul(a, b, ring):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [
            sum_ring(ring, [ring.mul(a[i][s], b[s][j]) for s in range(k)])
            for j in range(m)
        ]
        for i in range(n)
    ]


def sum_ring(ring, xs):
    acc = ring.zero()
    for x in xs:
        acc = ring.add(acc, x)
    return acc


def _det(m, ring):
    # cofactor expansion; fine for the sizes used here
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = ring.zero()
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = ring.mul(m[0][j], _det(minor, ring))
        acc = ring.add(acc, term if sign > 0 else ring.neg(term))
        sign = -sign
    return acc


def _dense(rows, n, ring):
    """The dense grid, n columns wide, of sparse rows."""
    return [[row.get(j, ring.zero()) for j in range(n)] for row in rows]


def dense_smith_normal_form(m, ring):
    """`smith_normal_form` on a dense grid: the grid's sparse rows go in,
    and the sparse (U, D, V) come back as dense grids, as the dense
    oracles write them."""
    cols = len(m[0]) if m else 0
    u, d, v = smith_normal_form(
        [{j: x for j, x in enumerate(r) if not ring.is_zero(x)} for r in m], cols, ring
    )
    return _dense(u, len(m), ring), _dense(d, cols, ring), _dense(v, cols, ring)


def test_snf_permutation_example():
    R = LaurentRing(Rationals(), 1)
    x = R.monomial(Fraction(1), 1)
    m = [[R.zero(), R.one()], [x, R.zero()]]
    u, d, v = dense_smith_normal_form(m, R)
    assert d[0][0] == R.one() and d[1][1] == x
    assert R.is_zero(d[0][1]) and R.is_zero(d[1][0])
    assert _mat_mul(_mat_mul(u, m, R), v, R) == d


def test_snf_rank_deficient():
    R = LaurentRing(Rationals(), 1)
    x = R.monomial(Fraction(1), 1)
    m = [[x, x], [x, x]]
    u, d, v = dense_smith_normal_form(m, R)
    assert d[0][0] == x
    assert all(R.is_zero(d[i][j]) for i in range(2) for j in range(2) if (i, j) != (0, 0))


def test_snf_zero_matrix():
    R = LaurentRing(Rationals(), 2)
    z = R.zero()
    u, d, v = dense_smith_normal_form([[z, z], [z, z]], R)
    assert all(R.is_zero(e) for row in d for e in row)
    assert u == [[R.one(), z], [z, R.one()]]


def test_snf_random_properties():
    rng = random.Random(4)
    for step in (1, 2):
        R = LaurentRing(Rationals(), step)
        for _ in range(40):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            mat = [
                [
                    R.from_terms(
                        {
                            step * e: Fraction(rng.randint(-2, 2))
                            for e in rng.sample(range(-2, 3), rng.randint(0, 2))
                        }
                    )
                    for _ in range(m)
                ]
                for _ in range(n)
            ]
            u, d, v = dense_smith_normal_form([row[:] for row in mat], R)
            # transformation equation
            assert _mat_mul(_mat_mul(u, mat, R), v, R) == d
            # diagonal
            for i in range(n):
                for j in range(m):
                    if i != j:
                        assert R.is_zero(d[i][j])
            # divisibility chain along the diagonal
            diag = [d[i][i] for i in range(min(n, m))]
            for a, b in zip(diag, diag[1:]):
                if not R.is_zero(a):
                    assert R.divides(a, b)
                else:
                    assert R.is_zero(b)
            # U, V invertible: determinants are units
            assert R.is_unit(_det(u, R))
            assert R.is_unit(_det(v, R))


# -- the diagonal form against its earlier implementation ---------------------


def _identity(ring, n):
    """The deleted `scalar._identity` (verbatim), for the oracle below."""
    return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]


def _smith_normal_form_before(m, ring):
    """The routine as it was before pivots of width 0 stopped the pivot
    scan and unit pivots skipped the divisibility scan (verbatim), kept
    as the oracle for those two shortcuts."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[m[i][j] for j in range(cols)] for i in range(rows)]
    u = _identity(ring, rows)
    v = _identity(ring, cols)

    def row_sub(i, j, q):
        # row_i -= q * row_j
        for k in range(cols):
            a[i][k] = a[i][k] - q * a[j][k]
        for k in range(rows):
            u[i][k] = u[i][k] - q * u[j][k]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        for k in range(rows):
            a[k][i] = a[k][i] - q * a[k][j]
        for k in range(cols):
            v[k][i] = v[k][i] - q * v[k][j]

    def row_add(i, j):
        for k in range(cols):
            a[i][k] = a[i][k] + a[j][k]
        for k in range(rows):
            u[i][k] = u[i][k] + u[j][k]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for k in range(rows):
                a[k][i], a[k][j] = a[k][j], a[k][i]
            for k in range(cols):
                v[k][i], v[k][j] = v[k][j], v[k][i]

    def pick_pivot(s):
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if not ring.is_zero(a[i][j]):
                    w = ring.width(a[i][j])
                    if best is None or w < best[0]:
                        best = (w, i, j)
        return best

    s = 0
    while s < min(rows, cols):
        found = pick_pivot(s)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(s, pi)
        swap_cols(s, pj)

        while True:
            # clear the pivot column; a nonzero remainder becomes the new,
            # strictly smaller pivot, so this loop terminates
            dirty = False
            for i in range(s + 1, rows):
                if ring.is_zero(a[i][s]):
                    continue
                q, r = ring.divmod(a[i][s], a[s][s])
                row_sub(i, s, q)
                if not ring.is_zero(r):
                    swap_rows(s, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(s + 1, cols):
                if ring.is_zero(a[s][j]):
                    continue
                q, r = ring.divmod(a[s][j], a[s][s])
                col_sub(j, s, q)
                if not ring.is_zero(r):
                    swap_cols(s, j)
                    dirty = True
                    break
            if dirty:
                continue
            # pivot row and column clean; enforce divisibility of the rest
            culprit = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if not ring.divides(a[s][s], a[i][j]):
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_add(s, culprit)
        s += 1

    return u, a, v


def _random_laurent_matrix(rng, ring, rows, cols):
    field, step = ring.field, ring.step
    def entry():
        kind = rng.random()
        if kind < 0.3:
            return ring.zero()
        if kind < 0.6:  # a unit c x^(k step)
            return ring.monomial(field.from_int(rng.randint(1, 4)), step * rng.randint(-2, 2))
        return ring.from_terms(
            {
                step * e: field.from_int(rng.randint(-3, 3))
                for e in rng.sample(range(-2, 3), rng.randint(1, 3))
            }
        )
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _binomial(rng, ring):
    """c0 + c1 x^(k step) with k >= 1: a non-unit."""
    field = ring.field
    return ring.from_terms(
        {0: field.from_int(rng.randint(1, 2)), ring.step * rng.randint(1, 2): field.one()}
    )


def test_snf_matches_before_shortcuts():
    """Same U, D and V, entry for entry, as the routine without the
    width-0 pivot stop and the unit-pivot divisibility skip."""
    rng = random.Random(8)
    rings = [LaurentRing(Rationals(), 1), LaurentRing(Rationals(), 2), LaurentRing(PrimeField(3), 1)]
    for trial in range(300):
        ring = rings[trial % len(rings)]
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_laurent_matrix(rng, ring, rows, cols)
        if trial % 10 == 0:  # unit diagonals: the skip taken at every pivot
            mat = [[ring.one() if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        if trial % 10 == 5:  # non-unit diagonals: the divisibility repair runs
            mat = [[_binomial(rng, ring) if i == j else ring.zero() for j in range(cols)]
                   for i in range(rows)]
        expect = _smith_normal_form_before([row[:] for row in mat], ring)
        assert dense_smith_normal_form([row[:] for row in mat], ring) == expect


def test_snf_matches_before_on_every_shape():
    """Same U, D and V, entry for entry, as the routine with both halves
    written out: with no rows, with no columns, on every shape up to
    6 x 6, and over K[x^t, x^-t] for t = 1, 2, 3 over Q and F_5."""
    rng = random.Random(19)
    for field in (Rationals(), PrimeField(5)):
        for step in (1, 2, 3):
            ring = LaurentRing(field, step)
            shapes = [(0, 0), (1, 0), (4, 0)]
            shapes += [(r, c) for r in range(1, 7) for c in range(1, 7)]
            for rows, cols in shapes:
                mat = _random_laurent_matrix(rng, ring, rows, cols)
                expect = _smith_normal_form_before([row[:] for row in mat], ring)
                assert dense_smith_normal_form([row[:] for row in mat], ring) == expect


def _cycle_fed_by_tree(rng, cycle, tree, fan=2):
    """A cycle fed by `tree` vertices, each with 1 to `fan` out-edges to
    earlier vertices: no cycle has an exit, and there is one cycle block,
    of size cycle + tree when fan is 1."""
    vertices = [f"c{i}" for i in range(cycle)]
    edges = [(f"k{i}", vertices[i], vertices[(i + 1) % cycle]) for i in range(cycle)]
    for t in range(tree):
        for j in range(rng.randint(1, fan)):
            edges.append((f"e{t}_{j}", f"t{t}", rng.choice(vertices)))
        vertices.append(f"t{t}")
    return Graph(vertices, edges)


def test_snf_matches_before_on_cycle_block_images():
    """Same U, D and V as the oracle on the cycle-block images (n up to
    40) of homogeneous elements drawn by `sample_homogeneous`."""
    rng = random.Random(20)
    graphs = [(_cycle_fed_by_tree(rng, 40, 0), Rationals())]
    graphs += [(_cycle_fed_by_tree(rng, 5, 30, fan=1), PrimeField(7))]
    graphs += [(_cycle_fed_by_tree(rng, rng.randint(1, 4), rng.randint(0, 6)), field)
               for field in (Rationals(), PrimeField(5)) for _ in range(6)]
    seen = set()
    for graph, field in graphs:
        images = phi(decompose(LeavittAlgebra(graph, field)))
        algebra = images.report.algebra
        for _ in range(4):
            for m in images.apply(sample_homogeneous(algebra, rng)):
                n, ring = m.algebra.n, m.algebra.base
                if not isinstance(ring, LaurentRing) or n > 40 or m.is_zero():
                    continue
                seen.add(n)
                expect = _smith_normal_form_before(m.entries, ring)
                assert dense_smith_normal_form(m.entries, ring) == expect
    assert 40 in seen and 35 in seen and len(seen) >= 5


def test_snf_ignores_the_key_order_of_its_rows():
    """`GradedMatrix.rows` hands in rows whose keys come in the order of
    the stored units, not in column order.  With each row's keys inserted
    in a shuffled order, U, D and V are still the oracle's, entry for
    entry: on rectangular shapes, with no rows or no columns, over
    K[x^t, x^-t] for t = 1, 2, 3 over Q and F_5."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        field = draw(st.sampled_from((Rationals(), PrimeField(5))))
        ring = LaurentRing(field, draw(st.integers(1, 3)))
        rows = draw(st.integers(0, 5))
        cols = draw(st.integers(0, 5)) if rows else 0
        terms = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3)

        def entry():
            return ring.from_terms(
                {ring.step * e: field.from_int(c) for e, c in draw(terms).items()}
            )

        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
        orders = [draw(st.permutations(range(cols))) for _ in range(rows)]
        return ring, grid, orders

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        ring, grid, orders = case
        cols = len(grid[0]) if grid else 0
        shuffled = [
            {j: row[j] for j in order if not ring.is_zero(row[j])}
            for row, order in zip(grid, orders)
        ]
        u, d, v = smith_normal_form(shuffled, cols, ring)
        got = _dense(u, len(grid), ring), _dense(d, cols, ring), _dense(v, cols, ring)
        assert got == _smith_normal_form_before([row[:] for row in grid], ring)

    check()
    # with no rows, V is the identity on the columns
    ring = LaurentRing(Rationals(), 1)
    assert smith_normal_form([], 3, ring) == ([], [], [{j: ring.one()} for j in range(3)])
