"""Matrix algebras with a shifted grading.

``GradedMatrixAlgebra(base, shifts)`` is the n x n matrix algebra over a
graded base ring (a field concentrated in degree 0, or a Laurent ring
K[x^t, x^(-t)] graded by exponent), regraded by a shift tuple
(d_1, ..., d_n): the (i, j) entry of the degree-m component lives in the
base component of degree m + d_j - d_i.  Equivalently the matrix unit
e_ij(x) is homogeneous of degree deg(x) + d_i - d_j.

``hom_component_dim`` counts a basis of one homogeneous component: one
generator per entry position the base ring can populate in that degree.

Products, ``is_homogeneous`` and ``component`` visit nonzero entries
only; storage stays a dense row grid (``entries``, a tuple of rows).
"""

from __future__ import annotations

from .scalar import LaurentRing


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

    @property
    def is_laurent(self) -> bool:
        return isinstance(self.base, LaurentRing)

    # -- construction ------------------------------------------------------

    def matrix(self, entries) -> "GradedMatrix":
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ValueError(f"expected a {self.n} x {self.n} entry grid")
        return GradedMatrix(self, rows)

    def zero(self) -> "GradedMatrix":
        z = self.base.zero()
        return GradedMatrix(self, tuple(tuple(z for _ in range(self.n)) for _ in range(self.n)))

    def identity(self) -> "GradedMatrix":
        z, o = self.base.zero(), self.base.one()
        return GradedMatrix(
            self, tuple(tuple(o if i == j else z for j in range(self.n)) for i in range(self.n))
        )

    def unit(self, i: int, j: int, x) -> "GradedMatrix":
        """The matrix with x in entry (i, j) and zeros elsewhere (0-indexed)."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"unit position ({i}, {j}) out of range for n = {self.n}")
        z = self.base.zero()
        rows = [[z] * self.n for _ in range(self.n)]
        rows[i][j] = x
        return GradedMatrix(self, tuple(tuple(r) for r in rows))

    # -- grading -------------------------------------------------------------

    def unit_degree(self, i: int, j: int, x) -> int:
        """Degree of the matrix unit e_ij(x) for homogeneous nonzero x."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"unit position ({i}, {j}) out of range for n = {self.n}")
        return self.base.homogeneous_degree(x) + self.shifts[i] - self.shifts[j]

    def hom_component_dim(self, m: int) -> int:
        """Dimension over the ground field of the degree-m component.

        One basis unit per position (i, j) whose required base degree is
        realized in the base ring: always for degree 0 over a field, for
        multiples of the step over a Laurent ring.
        """
        count = 0
        for i in range(self.n):
            for j in range(self.n):
                if self.base.has_component(m + self.shifts[j] - self.shifts[i]):
                    count += 1
        return count

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
    """A square matrix bound to its graded algebra.  Entries immutable."""

    __slots__ = ("algebra", "entries")

    def __init__(self, algebra: GradedMatrixAlgebra, entries):
        self.algebra = algebra
        self.entries = entries

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def _check_same(self, other: "GradedMatrix"):
        if not isinstance(other, GradedMatrix):
            raise TypeError(f"cannot combine GradedMatrix with {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ValueError("matrices live in different graded algebras")

    def __add__(self, other):
        self._check_same(other)
        b = self.algebra.base
        return GradedMatrix(
            self.algebra,
            tuple(
                tuple(b.add(x, y) for x, y in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self):
        b = self.algebra.base
        return GradedMatrix(
            self.algebra, tuple(tuple(b.neg(x) for x in row) for row in self.entries)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Row i of the product sums x * (row k of other) over the nonzero
        x = self[i][k], visiting only the nonzeros of that row."""
        self._check_same(other)
        b = self.algebra.base
        is_zero, add, mul = b.is_zero, b.add, b.mul
        z = b.zero()
        n = self.algebra.n
        support = [
            [(j, y) for j, y in enumerate(row) if not is_zero(y)] for row in other.entries
        ]
        rows = []
        for left in self.entries:
            row = [z] * n
            for k, x in enumerate(left):
                if is_zero(x):
                    continue
                for j, y in support[k]:
                    row[j] = add(row[j], mul(x, y))
            rows.append(tuple(row))
        return GradedMatrix(self.algebra, tuple(rows))

    def scale(self, x) -> "GradedMatrix":
        b = self.algebra.base
        return GradedMatrix(
            self.algebra, tuple(tuple(b.mul(x, e) for e in row) for row in self.entries)
        )

    def star(self) -> "GradedMatrix":
        """Transpose with the base involution applied entrywise."""
        b = self.algebra.base
        n = self.algebra.n
        return GradedMatrix(
            self.algebra,
            tuple(tuple(b.star(self.entries[j][i]) for j in range(n)) for i in range(n)),
        )

    def is_zero(self) -> bool:
        b = self.algebra.base
        return all(b.is_zero(x) for row in self.entries for x in row)

    def is_homogeneous(self, m: int) -> bool:
        """Does every entry sit in the base component forced by degree m?"""
        b = self.algebra.base
        shifts = self.algebra.shifts
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                # a zero entry lies in every component
                if b.is_zero(x):
                    continue
                if not b.is_zero(b.sub(x, b.component(x, m + shifts[j] - shifts[i]))):
                    return False
        return True

    def degree(self):
        """Degree of a nonzero homogeneous matrix; None for zero or mixed."""
        found = None
        b = self.algebra.base
        for i in range(self.algebra.n):
            for j in range(self.algebra.n):
                x = self.entries[i][j]
                if b.is_zero(x):
                    continue
                try:
                    d = b.homogeneous_degree(x)
                except ValueError:
                    return None
                m = d + self.algebra.shifts[i] - self.algebra.shifts[j]
                if found is None:
                    found = m
                elif found != m:
                    return None
        return found

    def component(self, m: int) -> "GradedMatrix":
        b = self.algebra.base
        shifts = self.algebra.shifts
        return GradedMatrix(
            self.algebra,
            tuple(
                tuple(
                    x if b.is_zero(x) else b.component(x, m + shifts[j] - shifts[i])
                    for j, x in enumerate(row)
                )
                for i, row in enumerate(self.entries)
            ),
        )

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and other.algebra == self.algebra
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.algebra, self.entries))

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
