"""Shifted gradings on matrix algebras: unit degrees, components, counting."""

import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from leavitt import GradedMatrixAlgebra, LaurentRing, PrimeField, Rationals


Q = Rationals()


def test_unit_products():
    M = GradedMatrixAlgebra(Q, (0, 0))
    one = Q.one()
    e12, e21, e11 = M.unit(0, 1, one), M.unit(1, 0, one), M.unit(0, 0, one)
    assert e12 * e21 == e11
    assert (e12 * e12).is_zero()
    R = LaurentRing(Q, 1)
    ML = GradedMatrixAlgebra(R, (0,))
    x = R.monomial(one, 1)
    xi = R.monomial(one, -1)
    assert ML.unit(0, 0, x) * ML.unit(0, 0, xi) == ML.identity()


def test_unit_degree_and_shift_arithmetic():
    M = GradedMatrixAlgebra(Q, (0, 1, 2))
    one = Q.one()
    assert M.unit_degree(0, 1, one) == -1
    assert M.unit_degree(2, 0, one) == 2
    assert M.unit_degree(1, 1, one) == 0
    R = LaurentRing(Q, 2)
    ML = GradedMatrixAlgebra(R, (0, 1))
    assert ML.unit_degree(0, 0, R.monomial(one, 2)) == 2
    assert ML.unit_degree(0, 1, R.monomial(one, 2)) == 1
    with pytest.raises(ValueError):
        M.unit_degree(0, 0, Q.zero())
    with pytest.raises(ValueError):
        ML.unit_degree(0, 0, R.from_terms({0: one, 2: one}))
    with pytest.raises(IndexError):
        M.unit_degree(0, 5, one)


def test_is_homogeneous():
    M = GradedMatrixAlgebra(Q, (0, 1))
    c = Fraction(3)
    m = M.matrix([[0, 0], [c, 0]])
    # entry (1, 0) forces degree 1: need c in the component of 1 + d_0 - d_1 = 0
    assert m.is_homogeneous(1)
    assert not m.is_homogeneous(0)
    assert m.degree() == 1
    bad = M.matrix([[Q.one(), Q.one()], [0, 0]])
    for k in range(-3, 4):
        assert not bad.is_homogeneous(k)
    assert bad.degree() is None
    assert M.identity().is_homogeneous(0) and M.identity().degree() == 0
    assert M.zero().degree() is None
    # zero matrix is homogeneous of every degree
    assert all(M.zero().is_homogeneous(k) for k in range(-2, 3))


def test_components():
    R = LaurentRing(Q, 1)
    M = GradedMatrixAlgebra(R, (0, 1))
    a = M.matrix(
        [
            [R.from_terms({0: Q.one(), 1: Q.one()}), R.zero()],
            [R.monomial(Q.one(), 2), R.one()],
        ]
    )
    # components over a window reassemble the matrix
    acc = M.zero()
    for k in range(-4, 5):
        comp = a.component(k)
        assert comp.is_homogeneous(k)
        acc = acc + comp
    assert acc == a


def test_hom_component_dim_frozen():
    M = GradedMatrixAlgebra(Q, (0, 1, 2))
    assert [M.hom_component_dim(k) for k in (-3, -2, -1, 0, 1, 2, 3)] == [
        0, 1, 2, 3, 2, 1, 0,
    ]
    R = LaurentRing(Q, 2)
    ML = GradedMatrixAlgebra(R, (0, 1))
    assert all(ML.hom_component_dim(k) == 2 for k in range(-6, 7))


def test_hom_component_dim_against_unit_enumeration():
    """Independent double count: list the units of each degree directly."""
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 4)
        shifts = tuple(rng.randint(-2, 2) for _ in range(n))
        if rng.random() < 0.5:
            base = Q
            exps = [None]
        else:
            step = rng.randint(1, 3)
            base = LaurentRing(Q, step)
            # wide enough that every unit with degree in the check window
            # below (|k| <= 8, shifts within +-2) appears
            exps = [e for e in range(-15, 16) if e % step == 0]
        M = GradedMatrixAlgebra(base, shifts)
        window = range(-8, 9)
        counts = {k: 0 for k in window}
        for i in range(n):
            for j in range(n):
                for e in exps:
                    x = Q.one() if e is None else base.monomial(Q.one(), e)
                    d = M.unit_degree(i, j, x)
                    if d in counts:
                        counts[d] += 1
        for k in window:
            # laurent exponent windows wide enough to catch every unit in range
            assert M.hom_component_dim(k) == counts[k], (shifts, k)


def hom_component_dim_by_positions(M, m):
    """The per-position double loop that counted components before the
    shift multiplicities did."""
    count = 0
    for i in range(M.n):
        for j in range(M.n):
            if M.base.has_component(m + M.shifts[j] - M.shifts[i]):
                count += 1
    return count


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=12),
    st.sampled_from([None, 1, 2, 3, 4]),
)
def test_hom_component_dim_equals_position_count(shifts, step):
    """K and K[x^t, x^-t] for t = 1..4, every degree in -12..12."""
    M = GradedMatrixAlgebra(Q if step is None else LaurentRing(Q, step), shifts)
    for m in range(-12, 13):
        assert M.hom_component_dim(m) == hom_component_dim_by_positions(M, m), (shifts, step, m)


def test_star():
    R = LaurentRing(Q, 1)
    M = GradedMatrixAlgebra(R, (0, 1))
    rng = random.Random(11)

    def rand():
        return M.matrix(
            [
                [
                    R.from_terms(
                        {e: Fraction(rng.randint(-2, 2)) for e in range(-2, 3) if rng.random() < 0.3}
                    )
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
        )

    for _ in range(30):
        a, b = rand(), rand()
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a
    x = R.monomial(Q.one(), 1)
    assert M.unit(0, 1, x).star() == M.unit(1, 0, R.monomial(Q.one(), -1))


def test_star_flips_degree():
    R = LaurentRing(Q, 3)
    M = GradedMatrixAlgebra(R, (0, 1, 2))
    one = Q.one()
    for i in range(3):
        for j in range(3):
            for w in (-1, 0, 2):
                u = M.unit(i, j, R.monomial(one, 3 * w))
                assert u.star().degree() == -u.degree()


def test_identity_is_neutral():
    M = GradedMatrixAlgebra(PrimeField(5), (0, 2, 1))
    rng = random.Random(12)
    for _ in range(20):
        a = M.matrix([[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        assert M.identity() * a == a and a * M.identity() == a


def test_json_round_trip():
    M = GradedMatrixAlgebra(Q, (0, 1))
    a = M.matrix([[Fraction(1, 2), Fraction(0)], [Fraction(3), Fraction(-1)]])
    data = a.to_json()
    assert data["base"] == "K" and data["shifts"] == [0, 1]
    assert M.matrix_from_json(data) == a
    R = LaurentRing(Q, 2)
    ML = GradedMatrixAlgebra(R, (0, 1))
    b = ML.unit(0, 1, R.monomial(Fraction(5), -4))
    data = b.to_json()
    assert data["base"] == {"laurent_t": 2}
    assert ML.matrix_from_json(data) == b
    with pytest.raises(ValueError):
        ML.matrix_from_json({"entries": [[...]], "shifts": [3, 3]})


def test_shape_and_algebra_guards():
    M = GradedMatrixAlgebra(Q, (0, 1))
    N = GradedMatrixAlgebra(Q, (0, 2))
    with pytest.raises(ValueError):
        M.matrix([[Q.one()]])
    with pytest.raises(ValueError):
        M.identity() + N.identity()
    with pytest.raises(IndexError):
        M.unit(2, 0, Q.one())
    # a bad row, a negative row or a bad column, whatever the entry
    for i, j in ((2, 0), (-1, 0), (0, 2), (0, -1)):
        for x in (Q.one(), Q.zero()):
            with pytest.raises(IndexError):
                M.sum_of_units([(0, 0, Q.one()), (i, j, x)])
        with pytest.raises(IndexError):
            M.identity().entry(i, j)
    with pytest.raises(ValueError):
        GradedMatrixAlgebra(Q, ())


# -- the sparse product against the dense triple loop ------------------------


def dense_product(a, b):
    """The schoolbook n^3 product, kept as the oracle for ``*``."""
    base = a.algebra.base
    n = a.algebra.n
    ga, gb = a.entries, b.entries
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = base.zero()
            for k in range(n):
                acc = base.add(acc, base.mul(ga[i][k], gb[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


F7 = PrimeField(7)
L2 = LaurentRing(Q, 2)


def _random_scalar(base, rng):
    if base is Q:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if base is F7:
        return rng.randrange(7)
    return base.from_terms(
        {e: Fraction(rng.randint(-2, 2)) for e in (-4, -2, 0, 2, 4) if rng.random() < 0.4}
    )


def _random_nonzero(base, rng):
    while True:
        x = _random_scalar(base, rng)
        if not base.is_zero(x):
            return x


def _dense(M, rng):
    n = M.n
    return M.matrix([[_random_scalar(M.base, rng) for _ in range(n)] for _ in range(n)])


def _monomial(M, rng):
    """At most one nonzero c * x^k per row and per column."""
    base, n = M.base, M.n
    rows = [[base.zero()] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        if rng.random() < 0.8:
            if base is L2:
                rows[i][j] = L2.monomial(_random_nonzero(Q, rng), 2 * rng.randint(-2, 2))
            else:
                rows[i][j] = _random_nonzero(base, rng)
    return M.matrix(rows)


def _cancelling(M, rng):
    """A pair whose product has zero entries made of nonzero terms that
    cancel: columns k1 and k2 of the left factor agree, row k2 of the
    right factor is minus row k1, and every other right row vanishes on
    a random nonempty column set J, so each column in J of the product
    sums x*y - x*y terms to zero.  (For n = 1 the right factor is zero.)"""
    base, n = M.base, M.n
    a = [[_random_nonzero(base, rng) for _ in range(n)] for _ in range(n)]
    b = [[_random_nonzero(base, rng) for _ in range(n)] for _ in range(n)]
    if n == 1:
        return M.matrix(a), M.zero()
    k1, k2 = rng.sample(range(n), 2)
    cols = rng.sample(range(n), rng.randint(1, n))
    for row in a:
        row[k2] = row[k1]
    b[k2] = [base.neg(y) for y in b[k1]]
    for k in range(n):
        if k not in (k1, k2):
            for j in cols:
                b[k][j] = base.zero()
    return M.matrix(a), M.matrix(b)


@pytest.mark.parametrize("base", [Q, F7, L2], ids=["Q", "F7", "K[x^2,x^-2]"])
@pytest.mark.parametrize("shape", ["dense", "monomial", "cancelling"])
def test_product_matches_dense_oracle(base, shape):
    rng = random.Random(f"{shape}-{base!r}")
    zero = base.zero()
    for n in range(1, 9):
        M = GradedMatrixAlgebra(base, tuple(rng.randint(-2, 2) for _ in range(n)))
        for _ in range(6):
            if shape == "dense":
                a, b = _dense(M, rng), _dense(M, rng)
            elif shape == "monomial":
                a, b = _monomial(M, rng), _monomial(M, rng)
            else:
                a, b = _cancelling(M, rng)
            got = (a * b).entries
            assert got == dense_product(a, b), (shape, n)
            for row in got:
                for x in row:
                    if base.is_zero(x):
                        # canonical: Fraction(0), 0 mod p, the empty Laurent dict
                        assert type(x) is type(zero) and x == zero
            if shape == "cancelling" and n > 1:
                assert any(base.is_zero(x) for row in got for x in row)


@pytest.mark.parametrize("base", [Q, F7, L2], ids=["Q", "F7", "K[x^2,x^-2]"])
def test_component_and_homogeneity_match_entrywise_definition(base):
    """The zero-skipping ``component`` and ``is_homogeneous`` against the
    definition applied to every entry, zeros included."""
    rng = random.Random(f"components-{base!r}")
    for n in range(1, 6):
        M = GradedMatrixAlgebra(base, tuple(rng.randint(-2, 2) for _ in range(n)))
        for a in (_dense(M, rng), _monomial(M, rng), M.zero()):
            for m in range(-6, 7):
                want = [
                    [base.component(a.entry(i, j), m + M.shifts[j] - M.shifts[i]) for j in range(n)]
                    for i in range(n)
                ]
                assert a.component(m) == M.matrix(want)
                assert a.is_homogeneous(m) == (a.component(m) == a)


# -- sparse storage against dense oracles --------------------------------------
#
# Each oracle works entrywise on the dense grid ``entries``, zeros
# included; the operations under test visit only the stored nonzeros of
# the row dicts.


def dense_sum(a, b):
    add = a.algebra.base.add
    return tuple(
        tuple(add(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(a.entries, b.entries)
    )


def dense_neg(a):
    neg = a.algebra.base.neg
    return tuple(tuple(neg(x) for x in row) for row in a.entries)


def dense_star(a):
    star, grid, n = a.algebra.base.star, a.entries, a.algebra.n
    return tuple(tuple(star(grid[j][i]) for j in range(n)) for i in range(n))


def dense_component(a, m):
    base, shifts = a.algebra.base, a.algebra.shifts
    return tuple(
        tuple(base.component(x, m + shifts[j] - shifts[i]) for j, x in enumerate(row))
        for i, row in enumerate(a.entries)
    )


def dense_is_homogeneous(a, m):
    base = a.algebra.base
    return all(
        base.is_zero(base.sub(x, y))
        for row, crow in zip(a.entries, dense_component(a, m))
        for x, y in zip(row, crow)
    )


def dense_degree(a):
    base, shifts = a.algebra.base, a.algebra.shifts
    degrees = set()
    for i, row in enumerate(a.entries):
        for j, x in enumerate(row):
            if base.is_zero(x):
                continue
            try:
                degrees.add(base.homogeneous_degree(x) + shifts[i] - shifts[j])
            except ValueError:
                return None
    return degrees.pop() if len(degrees) == 1 else None


def dense_is_zero(a):
    return all(a.algebra.base.is_zero(x) for row in a.entries for x in row)


def dense_to_json(M, grid):
    return {
        "base": M.base_to_json(),
        "shifts": list(M.shifts),
        "entries": [[M.entry_to_json(x) for x in row] for row in grid],
    }


def _assert_sparse(a):
    """Every stored unit is in range and nonzero, the row and dense views
    agree with the units, and the dense view puts the canonical zero
    elsewhere."""
    base = a.algebra.base
    n = a.algebra.n
    assert all(0 <= i < n and 0 <= j < n for i, j in a.units)
    assert not any(base.is_zero(x) for x in a.units.values())
    assert {(i, j): x for i, row in enumerate(a.rows) for j, x in row.items()} == a.units
    grid = a.entries
    assert all(grid[i][j] == x for (i, j), x in a.units.items())
    assert len(a.rows) == a.algebra.n
    for row in a.rows:
        assert all(0 <= j < a.algebra.n for j in row)
        assert not any(base.is_zero(x) for x in row.values())
    zero = base.zero()
    for i, row in enumerate(a.entries):
        for j, x in enumerate(row):
            if j not in a.rows[i]:
                assert type(x) is type(zero) and x == zero


def _assert_matches(got, grid):
    """`got` is the matrix with dense grid `grid`: same entries, same JSON,
    same (canonical) matrix as the dense constructor builds."""
    M = got.algebra
    _assert_sparse(got)
    assert got.entries == grid
    assert got.to_json() == dense_to_json(M, grid)
    want = M.matrix(grid)
    assert got == want and hash(got) == hash(want)
    assert got.is_zero() == dense_is_zero(want)


def _partial_negation(M, a, rng):
    """-a on a random set of a's entries, random values elsewhere: a sum
    with a that cancels only at the chosen positions."""
    base = M.base
    grid = [list(row) for row in a.entries]
    for row in grid:
        for j, x in enumerate(row):
            row[j] = base.neg(x) if rng.random() < 0.5 else _random_scalar(base, rng)
    return M.matrix(grid)


def _pairs(M, shape, rng):
    if shape == "dense":
        return _dense(M, rng), _dense(M, rng)
    if shape == "monomial":
        return _monomial(M, rng), _monomial(M, rng)
    return _cancelling(M, rng)


@pytest.mark.parametrize("base", [Q, F7, L2], ids=["Q", "F7", "K[x^2,x^-2]"])
@pytest.mark.parametrize("shape", ["dense", "monomial", "cancelling"])
def test_sparse_operations_match_dense_oracles(base, shape):
    rng = random.Random(f"sparse-{shape}-{base!r}")
    for n in range(1, 9):
        M = GradedMatrixAlgebra(base, tuple(rng.randint(-2, 2) for _ in range(n)))
        for _ in range(6):
            a, b = _pairs(M, shape, rng)
            for x in (a, b):
                _assert_matches(x, x.entries)
                _assert_matches(-x, dense_neg(x))
                _assert_matches(x.star(), dense_star(x))
                assert x.is_zero() == dense_is_zero(x)
                assert x.degree() == dense_degree(x)
                for m in range(-6, 7):
                    _assert_matches(x.component(m), dense_component(x, m))
                    assert x.is_homogeneous(m) == dense_is_homogeneous(x, m)
            _assert_matches(a + b, dense_sum(a, b))
            c = _partial_negation(M, a, rng)
            _assert_matches(a + c, dense_sum(a, c))
            _assert_matches(a - b, dense_sum(a, M.matrix(dense_neg(b))))
            _assert_matches(a * b, dense_product(a, b))
            # a cancelled sum stores nothing, whatever order built it
            assert a + (-a) == M.zero() and (a - a).is_zero()
            assert not any((a - a).rows) and (-a) + a == M.zero()
            # equal matrices built along different routes hash alike
            for x, y in ((a + b, b + a), ((a + b) - b, a), (a.star().star(), a)):
                assert x == y and hash(x) == hash(y)
            if shape == "cancelling" and n > 1:
                assert any(base.is_zero(x) for row in (a * b).entries for x in row)


def test_dense_constructor_drops_zeros():
    M = GradedMatrixAlgebra(Q, (0, 1))
    a = M.matrix([[0, Fraction(2)], [Fraction(0), 0]])
    assert a.rows == ({1: Fraction(2)}, {})
    assert a.entry(1, 0) == 0 and a.entry(0, 1) == 2
    assert M.unit(0, 1, Q.zero()) == M.zero() and M.zero().is_zero()
    assert M.sum_of_units([(0, 0, Q.one()), (0, 0, -Q.one()), (1, 1, Q.one())]) == M.unit(
        1, 1, Q.one()
    )
    R = LaurentRing(F7, 2)
    ML = GradedMatrixAlgebra(R, (0,))
    assert ML.matrix([[R.zero()]]).rows == ({},)


def test_operations_store_only_nonzeros_at_large_n():
    """Each operation costs O(nonzeros), never O(n): at n = 100000 every
    result below stores at most one unit.  No row or dense view is read."""
    n = 100_000
    M = GradedMatrixAlgebra(Q, (0,) * n)
    one = Q.one()
    a, b = M.unit(n - 1, 7, one), M.unit(7, 3, Fraction(2))
    assert len(M.zero().units) == 0 and M.zero().is_zero()
    assert len(a.units) == 1
    assert (a * b).units == {(n - 1, 3): Fraction(2)}
    assert len((b * a).units) == 0
    assert len((a + M.unit(n - 1, 7, -one)).units) == 0
    assert a.star().units == {(7, n - 1): one}
