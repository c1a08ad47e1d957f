"""Matrix algebras with a shifted grading.

``GradedMatrixAlgebra(base, shifts)`` is the n x n matrix algebra over a
graded base ring (a field concentrated in degree 0, or a Laurent ring
K[x^t, x^(-t)] graded by exponent), regraded by a shift tuple
(d_1, ..., d_n): the (i, j) entry of the degree-m component lives in the
base component of degree m + d_j - d_i.  Equivalently the matrix unit
e_ij(x) is homogeneous of degree deg(x) + d_i - d_j.

``hom_component_dim`` counts a basis of one homogeneous component: one
generator per entry position the base ring can populate in that degree,
read off a histogram of the shift differences d_i - d_j rather than
counted per position.

A matrix is the sum of its matrix units: one dict maps a position (i, j)
to its nonzero entry, so products, sums, comparisons and the grading
tests cost O(nonzeros) with no term in n.  A product of two monomial
matrices (at most one nonzero per row and column, as every generator
image is) visits at most n pairs.  ``rows`` and ``entries`` are views
built on demand for row elimination and for routines on a full grid.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .scalar import LaurentRing


def _add_into(d: dict, key, x, add, is_zero) -> None:
    """d[key] += x for a nonzero x, deleting the entry if the sum cancels."""
    y = d.get(key)
    if y is None:
        d[key] = x
        return
    s = add(y, x)
    if is_zero(s):
        del d[key]
    else:
        d[key] = s


class GradedMatrixAlgebra:
    """n x n matrices over a graded base, with grading shifts."""

    def __init__(self, base, shifts):
        self.base = base
        self.shifts = tuple(int(d) for d in shifts)
        if not self.shifts:
            raise ValueError("need at least one shift (matrix size >= 1)")

    @property
    def n(self) -> int:
        return len(self.shifts)

    @cached_property
    def _shift_differences(self) -> tuple:
        """(delta, D[delta]) pairs, where D[delta] counts the positions
        (i, j) with d_i - d_j = delta: the sum of c_s * c_s' over the pairs
        of shift values with s - s' = delta, c_s the multiplicity of s.
        Built on the first dimension query."""
        counts = Counter(self.shifts).items()
        hist = Counter()
        for si, ci in counts:
            for sj, cj in counts:
                hist[si - sj] += ci * cj
        return tuple(hist.items())

    @property
    def is_laurent(self) -> bool:
        return isinstance(self.base, LaurentRing)

    # -- construction ------------------------------------------------------

    def matrix(self, entries) -> "GradedMatrix":
        """The matrix with a dense n x n entry grid; zero entries are dropped."""
        grid = tuple(tuple(row) for row in entries)
        if len(grid) != self.n or any(len(r) != self.n for r in grid):
            raise ValueError(f"expected a {self.n} x {self.n} entry grid")
        is_zero = self.base.is_zero
        return GradedMatrix(
            self,
            {(i, j): x for i, r in enumerate(grid) for j, x in enumerate(r) if not is_zero(x)},
        )

    def sum_of_units(self, units) -> "GradedMatrix":
        """The sum of the matrix units e_ij(x) over (i, j, x) in `units`.
        A position outside the n x n grid raises IndexError."""
        add, is_zero = self.base.add, self.base.is_zero
        n = self.n
        out = {}
        for i, j, x in units:
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"unit position ({i}, {j}) out of range for n = {n}")
            if not is_zero(x):
                _add_into(out, (i, j), x, add, is_zero)
        return GradedMatrix(self, out)

    def zero(self) -> "GradedMatrix":
        return GradedMatrix(self, {})

    def identity(self) -> "GradedMatrix":
        one = self.base.one()
        return GradedMatrix(self, {(i, i): one for i in range(self.n)})

    def unit(self, i: int, j: int, x) -> "GradedMatrix":
        """The matrix with x in entry (i, j) and zeros elsewhere (0-indexed)."""
        return self.sum_of_units([(i, j, x)])

    # -- grading -------------------------------------------------------------

    def unit_degree(self, i: int, j: int, x) -> int:
        """Degree of the matrix unit e_ij(x) for homogeneous nonzero x."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"unit position ({i}, {j}) out of range for n = {self.n}")
        return self.base.homogeneous_degree(x) + self.shifts[i] - self.shifts[j]

    def hom_component_dim(self, m: int) -> int:
        """Dimension over the ground field of the degree-m component.

        One basis unit per position (i, j) whose required base degree
        m + d_j - d_i is realized in the base ring: always for degree 0
        over a field, for multiples of the step over a Laurent ring.  That
        degree depends only on delta = d_i - d_j, so the count is the sum
        of D[delta] over the shift differences delta whose degree
        m - delta is realized; the histogram D is built once per algebra.
        """
        has = self.base.has_component
        return sum(c for delta, c in self._shift_differences if has(m - delta))

    # -- io ---------------------------------------------------------------------

    def base_to_json(self):
        if self.is_laurent:
            return {"laurent_t": self.base.step}
        return "K"

    def entry_to_json(self, x):
        return self.base.to_json(x)

    def entry_from_json(self, data):
        return self.base.parse(data)

    def matrix_from_json(self, data) -> "GradedMatrix":
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError("matrix serialization needs an 'entries' grid")
        if "shifts" in data and tuple(data["shifts"]) != self.shifts:
            raise ValueError(f"shift mismatch: expected {list(self.shifts)}")
        return self.matrix(
            [[self.entry_from_json(x) for x in row] for row in data["entries"]]
        )

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GradedMatrixAlgebra)
            and other.base == self.base
            and other.shifts == self.shifts
        )

    def __hash__(self):
        return hash((self.base, self.shifts))

    def __repr__(self):
        return f"GradedMatrixAlgebra({self.base!r}, shifts={self.shifts})"


class GradedMatrix:
    """A square matrix bound to its graded algebra.  Entries immutable.

    `units` maps a position (i, j) to the nonzero entry there; the matrix
    is the sum of the units e_ij(units[i, j]).  A zero entry is never
    stored, so two matrices are equal exactly when their unit dicts are.
    Every operation builds a new dict; none is changed after
    construction.  The base rings are domains (fields and Laurent rings
    over them), so a product of two stored entries is never zero and only
    a sum can cancel.
    """

    __slots__ = ("algebra", "units")

    def __init__(self, algebra: GradedMatrixAlgebra, units: dict):
        self.algebra = algebra
        self.units = units

    def entry(self, i: int, j: int):
        n = self.algebra.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry position ({i}, {j}) out of range for n = {n}")
        x = self.units.get((i, j))
        return self.algebra.base.zero() if x is None else x

    @property
    def rows(self):
        """Row view for elimination: `rows[i]` maps j to the nonzero (i, j) entry."""
        rows = tuple({} for _ in range(self.algebra.n))
        for (i, j), x in self.units.items():
            rows[i][j] = x
        return rows

    @property
    def entries(self):
        """Dense read-only view: a tuple of n row tuples, zeros included."""
        n = self.algebra.n
        grid = [[self.algebra.base.zero()] * n for _ in range(n)]
        for (i, j), x in self.units.items():
            grid[i][j] = x
        return tuple(map(tuple, grid))

    def _check_same(self, other: "GradedMatrix"):
        if not isinstance(other, GradedMatrix):
            raise TypeError(f"cannot combine GradedMatrix with {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ValueError("matrices live in different graded algebras")

    def __add__(self, other):
        self._check_same(other)
        b = self.algebra.base
        add, is_zero = b.add, b.is_zero
        units = dict(self.units)
        for key, y in other.units.items():
            _add_into(units, key, y, add, is_zero)
        return GradedMatrix(self.algebra, units)

    def __neg__(self):
        neg = self.algebra.base.neg
        return GradedMatrix(self.algebra, {key: neg(x) for key, x in self.units.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Entry (i, j) sums x * y over the stored x at (i, k) and y at
        (k, j); the right factor is indexed by row once per product."""
        self._check_same(other)
        b = self.algebra.base
        add, is_zero, mul = b.add, b.is_zero, b.mul
        right = {}
        for (k, j), y in other.units.items():
            right.setdefault(k, []).append((j, y))
        units = {}
        for (i, k), x in self.units.items():
            for j, y in right.get(k, ()):
                _add_into(units, (i, j), mul(x, y), add, is_zero)
        return GradedMatrix(self.algebra, units)

    def scale(self, x) -> "GradedMatrix":
        b = self.algebra.base
        if b.is_zero(x):
            return self.algebra.zero()
        return GradedMatrix(self.algebra, {key: b.mul(x, e) for key, e in self.units.items()})

    def star(self) -> "GradedMatrix":
        """Transpose with the base involution applied entrywise."""
        star = self.algebra.base.star
        return GradedMatrix(self.algebra, {(j, i): star(x) for (i, j), x in self.units.items()})

    def is_zero(self) -> bool:
        return not self.units

    def is_homogeneous(self, m: int) -> bool:
        """Does every entry sit in the base component forced by degree m?
        (A zero entry lies in every component, so only stored ones count.)"""
        b = self.algebra.base
        shifts = self.algebra.shifts
        return all(
            b.is_zero(b.sub(x, b.component(x, m + shifts[j] - shifts[i])))
            for (i, j), x in self.units.items()
        )

    def degree(self):
        """Degree of a nonzero homogeneous matrix; None for zero or mixed."""
        found = None
        b = self.algebra.base
        shifts = self.algebra.shifts
        for (i, j), x in self.units.items():
            try:
                d = b.homogeneous_degree(x)
            except ValueError:
                return None
            m = d + shifts[i] - shifts[j]
            if found is None:
                found = m
            elif found != m:
                return None
        return found

    def component(self, m: int) -> "GradedMatrix":
        b = self.algebra.base
        shifts = self.algebra.shifts
        units = {}
        for (i, j), x in self.units.items():
            c = b.component(x, m + shifts[j] - shifts[i])
            if not b.is_zero(c):
                units[i, j] = c
        return GradedMatrix(self.algebra, units)

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.algebra == self.algebra
            and other.units == self.units
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.units.items())))

    def to_json(self) -> dict:
        return {
            "base": self.algebra.base_to_json(),
            "shifts": list(self.algebra.shifts),
            "entries": [[self.algebra.entry_to_json(x) for x in row] for row in self.entries],
        }

    def __repr__(self):
        b = self.algebra.base
        rows = "; ".join(
            " ".join(b.format(x) for x in row) for row in self.entries
        )
        return f"[{rows}]"
