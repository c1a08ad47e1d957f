"""Matrix algebras with a shifted grading.

``GradedMatrixAlgebra(base, shifts)`` is the n x n matrix algebra over a
graded base ring (a field concentrated in degree 0, or a Laurent ring
K[x^t, x^(-t)] graded by exponent), regraded by a shift tuple
(d_1, ..., d_n): the (i, j) entry of the degree-m component lives in the
base component of degree m + d_j - d_i.  Equivalently the matrix unit
e_ij(x) is homogeneous of degree deg(x) + d_i - d_j.

``hom_component_dim`` counts a basis of one homogeneous component: one
generator per entry position the base ring can populate in that degree,
counted per pair of shift values rather than per position.

A matrix stores only its nonzero entries, one dict per row, so products,
sums, comparisons and the grading tests cost O(nonzeros) rather than
O(n^2): a product of two monomial matrices (at most one nonzero per row
and column, as every generator image is) costs O(n).  ``entries`` is a
dense view built on demand for the routines that work on a full grid.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .scalar import LaurentRing


def _add_into(row: dict, j: int, x, add, is_zero) -> None:
    """row[j] += x for a nonzero x, deleting the entry if the sum cancels."""
    y = row.get(j)
    if y is None:
        row[j] = x
        return
    s = add(y, x)
    if is_zero(s):
        del row[j]
    else:
        row[j] = s


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
    def _shift_counts(self) -> tuple:
        """(shift, multiplicity) pairs, counted on the first dimension query."""
        return tuple(Counter(self.shifts).items())

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
            self, tuple({j: x for j, x in enumerate(r) if not is_zero(x)} for r in grid)
        )

    def sum_of_units(self, units) -> "GradedMatrix":
        """The sum of the matrix units e_ij(x) over (i, j, x) in `units`."""
        b = self.base
        rows = tuple({} for _ in range(self.n))
        for i, j, x in units:
            if not b.is_zero(x):
                _add_into(rows[i], j, x, b.add, b.is_zero)
        return GradedMatrix(self, rows)

    def zero(self) -> "GradedMatrix":
        return GradedMatrix(self, tuple({} for _ in range(self.n)))

    def identity(self) -> "GradedMatrix":
        one = self.base.one()
        return GradedMatrix(self, tuple({i: one} for i in range(self.n)))

    def unit(self, i: int, j: int, x) -> "GradedMatrix":
        """The matrix with x in entry (i, j) and zeros elsewhere (0-indexed)."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"unit position ({i}, {j}) out of range for n = {self.n}")
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
        degree depends only on the two shifts, so with c_s rows of shift s
        the count is the sum of c_s * c_s' over the ordered pairs (s, s')
        of shift values whose degree m + s' - s is realized.
        """
        has = self.base.has_component
        counts = self._shift_counts
        return sum(ci * cj for si, ci in counts for sj, cj in counts if has(m + sj - si))

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
        return (
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

    `rows` is a tuple of n dicts: `rows[i]` maps a column j to the
    nonzero (i, j) entry.  A zero entry is never stored, so two matrices
    are equal exactly when their row dicts are.  Every operation builds
    new dicts; none is changed after construction.  The base rings are
    domains (fields and Laurent rings over them), so a product of two
    stored entries is never zero and only a sum can cancel.
    """

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: GradedMatrixAlgebra, rows):
        self.algebra = algebra
        self.rows = rows

    def entry(self, i: int, j: int):
        x = self.rows[i].get(j)
        return self.algebra.base.zero() if x is None else x

    @property
    def entries(self):
        """Dense read-only view: a tuple of n row tuples, zeros included."""
        z = self.algebra.base.zero()
        n = self.algebra.n
        return tuple(tuple(row.get(j, z) for j in range(n)) for row in self.rows)

    def _check_same(self, other: "GradedMatrix"):
        if not isinstance(other, GradedMatrix):
            raise TypeError(f"cannot combine GradedMatrix with {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ValueError("matrices live in different graded algebras")

    def __add__(self, other):
        self._check_same(other)
        b = self.algebra.base
        add, is_zero = b.add, b.is_zero
        rows = []
        for r1, r2 in zip(self.rows, other.rows):
            row = dict(r1)
            for j, y in r2.items():
                _add_into(row, j, y, add, is_zero)
            rows.append(row)
        return GradedMatrix(self.algebra, tuple(rows))

    def __neg__(self):
        neg = self.algebra.base.neg
        return GradedMatrix(
            self.algebra, tuple({j: neg(x) for j, x in row.items()} for row in self.rows)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Row i of the product sums x * (row k of other) over the stored
        x = self[i][k], visiting only the stored entries of that row."""
        self._check_same(other)
        b = self.algebra.base
        add, is_zero, mul = b.add, b.is_zero, b.mul
        right = other.rows
        rows = []
        for left in self.rows:
            row = {}
            for k, x in left.items():
                for j, y in right[k].items():
                    _add_into(row, j, mul(x, y), add, is_zero)
            rows.append(row)
        return GradedMatrix(self.algebra, tuple(rows))

    def scale(self, x) -> "GradedMatrix":
        b = self.algebra.base
        if b.is_zero(x):
            return self.algebra.zero()
        return GradedMatrix(
            self.algebra, tuple({j: b.mul(x, e) for j, e in row.items()} for row in self.rows)
        )

    def star(self) -> "GradedMatrix":
        """Transpose with the base involution applied entrywise."""
        star = self.algebra.base.star
        rows = tuple({} for _ in range(self.algebra.n))
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                rows[j][i] = star(x)
        return GradedMatrix(self.algebra, rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_homogeneous(self, m: int) -> bool:
        """Does every entry sit in the base component forced by degree m?
        (A zero entry lies in every component, so only stored ones count.)"""
        b = self.algebra.base
        shifts = self.algebra.shifts
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                if not b.is_zero(b.sub(x, b.component(x, m + shifts[j] - shifts[i]))):
                    return False
        return True

    def degree(self):
        """Degree of a nonzero homogeneous matrix; None for zero or mixed."""
        found = None
        b = self.algebra.base
        shifts = self.algebra.shifts
        for i, row in enumerate(self.rows):
            for j, x in row.items():
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
        rows = []
        for i, row in enumerate(self.rows):
            out = {}
            for j, x in row.items():
                c = b.component(x, m + shifts[j] - shifts[i])
                if not b.is_zero(c):
                    out[j] = c
            rows.append(out)
        return GradedMatrix(self.algebra, tuple(rows))

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.algebra == self.algebra
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.algebra, tuple(frozenset(row.items()) for row in self.rows)))

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
