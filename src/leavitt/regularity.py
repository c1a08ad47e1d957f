"""Constructive regularity and idempotent structure.

An inner inverse of a is any b with a b a = a.  Over a field every
matrix has one, read off one sparse Gauss-Jordan pass on the rows of
its stored units; over a Laurent ring a matrix has one exactly when its
diagonal form has unit-or-zero entries, which for the homogeneous
matrices arising here is automatic.  Both eliminate on sparse rows
with the row operations of ``scalar`` and build b with the product of
``gmatrix``; no dense grid is formed.  Transporting a homogeneous
algebra element through the block isomorphism, inverting blockwise,
pulling back and projecting onto the single degree that can matter
produces a graded inner inverse; `graded_inner_inverse` is that
pipeline and the witness that the algebra is graded von Neumann regular.

The graded central idempotents are exactly the block selections
(`bgr_enumerate`); `central_idempotent` and `type_I_witness` build their
elements as `pull_back` of one matrix per block.  A homogeneous
idempotent is classified by the ranks of its block images: all ranks
<= 1 means abelian, all ranks >= 1 means faithful.  The ranks are taken
over K after setting x = 1, so no elimination runs over a Laurent ring.
Direct finiteness holds across the board here; `directly_finite` says
so and the test suite probes it by brute force on bounded degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .gmatrix import GradedMatrix
from .lpa import LpaElement
from .scalar import _sub_row, _swap, smith_normal_form
from .structure import DecompositionReport, GeneratorImages, VerificationError, pull_back


class NotRegularError(RuntimeError):
    """No inner inverse exists (a diagonal entry is a nonzero non-unit)."""


# ---------------------------------------------------------------------------
# linear algebra over an exact field
# ---------------------------------------------------------------------------


def _row_reduce(rows, field):
    """Gauss-Jordan over `field` on sparse rows (dicts column -> nonzero entry).

    Returns (rref, transform, pivot_cols), the matrices as lists of row
    dicts, with transform * input = rref.  A column that is zero in the
    input stays zero under row operations, so only the stored columns
    are scanned for pivots.
    """
    m = len(rows)
    a = [dict(r) for r in rows]
    t = [{i: field.one()} for i in range(m)]
    pivots = []
    r = 0
    for c in sorted(set().union(*a)):
        pick = next((i for i in range(r, m) if c in a[i]), None)
        if pick is None:
            continue
        _swap(a, t, r, pick)
        inv = field.invert(a[r][c])
        a[r] = {j: field.mul(inv, x) for j, x in a[r].items()}
        t[r] = {j: field.mul(inv, x) for j, x in t[r].items()}
        for i in range(m):
            if i != r and c in a[i]:
                _sub_row(a, t, i, r, a[i][c], field)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, t, pivots


def field_rank(rows, field) -> int:
    """Rank of a matrix given by its sparse rows (`GradedMatrix.rows`)."""
    return len(_row_reduce(rows, field)[2])


def inner_inverse_field(a: GradedMatrix) -> GradedMatrix:
    """An inner inverse over the field base, from one Gauss-Jordan pass.

    With T a = E reduced and pivot columns c_0 < ... < c_(r-1), let S put
    row k at row c_k.  E has an identity block at the pivot columns, so
    E S E = E, and b = S T gives a b a = T^-1 E S E = a: row c_k of b is
    row k of T and every other row is zero.  Zero maps to zero.
    """
    alg = a.algebra
    _, t, pivots = _row_reduce(a.rows, alg.base)
    return GradedMatrix(alg, {(c, j): x for c, row in zip(pivots, t) for j, x in row.items()})


# ---------------------------------------------------------------------------
# linear algebra over a Laurent ring
# ---------------------------------------------------------------------------


def inner_inverse_laurent(a: GradedMatrix) -> GradedMatrix:
    """An inner inverse over a Laurent base, via the diagonal form.

    With U a V = D diagonal, b = V (D^+ U) works whenever every nonzero
    diagonal entry is a unit; a nonzero non-unit entry certifies that no
    inner inverse exists at all (d = d^2 r in a domain forces d a unit),
    and raises NotRegularError.  D^+ is diagonal, so D^+ U scales the
    stored entries of the rows of U at the pivots (the i with d_ii != 0),
    only those columns of V meet a nonzero row of D^+ U, and the one
    product is the sparse matrix product.  Every factor stays in sparse
    rows, so no zero entry is built or tested.
    """
    alg = a.algebra
    ring = alg.base
    u, d, v = smith_normal_form(a.rows, alg.n, ring)
    units = {}
    for i, (drow, urow) in enumerate(zip(d, u)):
        if not drow:
            continue
        x = drow[i]
        if not ring.is_unit(x):
            raise NotRegularError(
                "diagonal form has the nonzero non-unit entry " + ring.format(x)
            )
        inv = ring.unit_inverse(x)
        for j, y in urow.items():
            units[i, j] = ring.mul(inv, y)
    left = {(k, i): x for k, row in enumerate(v) for i, x in row.items() if d[i]}
    return GradedMatrix(alg, left) * GradedMatrix(alg, units)


def inner_inverse(a: GradedMatrix) -> GradedMatrix:
    if a.algebra.is_laurent:
        return inner_inverse_laurent(a)
    return inner_inverse_field(a)


def block_ranks(images: GeneratorImages, x: LpaElement):
    """Rank of the image of x in each block, over the block's fraction field.

    Each image is read with the Laurent variable set to 1 (an entry
    becomes the sum of its coefficients) and ranked over K by
    `field_rank`.  That is exact for a homogeneous image, which is its
    scalar matrix conjugated by a diagonal of powers of the variable, and
    for an idempotent one: over the PID K[x^t, x^(-t)] it is
    P diag(1, ..., 1, 0, ..., 0) P^-1, and det P is a monomial, nonzero at
    1.  An image that is neither raises ValueError.
    """
    field = images.report.algebra.field
    out = []
    for block, mat in zip(images.report.blocks, images.apply(x)):
        if mat.degree() is None and not mat.is_zero() and mat * mat != mat:
            raise ValueError("block ranks need each block image homogeneous or idempotent")
        terms = block.algebra.base.terms
        rows = [
            {
                j: c
                for j, y in row.items()
                if not field.is_zero(c := reduce(field.add, terms(y).values()))
            }
            for row in mat.rows
        ]
        out.append(field_rank(rows, field))
    return tuple(out)


# ---------------------------------------------------------------------------
# graded regularity
# ---------------------------------------------------------------------------


def graded_inner_inverse(
    images: GeneratorImages, a: LpaElement, project: bool = True
) -> LpaElement:
    """A graded inner inverse of a homogeneous element.

    Requires a homogeneous (zero is fine and maps to zero).  The
    blockwise inner inverses pull back to some b0 with a b0 a = a; when
    `project` is set, b0 is cut down to its degree -deg(a) component,
    which still works: in a b0 a = a only that component of b0 can
    contribute to the (homogeneous) right side.
    """
    if a.is_zero():
        return a.algebra.zero()
    deg = a.degree()
    if deg is None:
        raise ValueError("graded inner inverses are defined for homogeneous elements")
    mats = images.apply(a)
    inverses = tuple(inner_inverse(m) for m in mats)
    b = pull_back(images.report, inverses)
    if project:
        b = b.component(-deg)
    return b


# ---------------------------------------------------------------------------
# the graded central idempotent lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSelection:
    """A graded central idempotent, named by which blocks it keeps."""

    selected: tuple

    def to_json(self) -> dict:
        return {"selected": [bool(b) for b in self.selected]}


def bgr_enumerate(report: DecompositionReport):
    """All graded central idempotents: one per subset of blocks."""
    k = len(report.blocks)
    return tuple(
        BlockSelection(selected=bits) for bits in itertools.product((False, True), repeat=k)
    )


def central_idempotent(report: DecompositionReport, sel: BlockSelection) -> LpaElement:
    """The algebra element selecting the given blocks: the preimage of the
    identity in each selected block and of zero in the others.  A
    selection of the wrong length raises ValueError."""
    return pull_back(
        report,
        tuple(
            b.algebra.identity() if keep else b.algebra.zero()
            for b, keep in zip(report.blocks, sel.selected, strict=True)
        ),
    )


def type_I_witness(report: DecompositionReport) -> LpaElement:
    """The canonical faithful abelian idempotent: the preimage of the
    corner e_00 of every block, i.e. the sum of all sink vertices and all
    cycle bases."""
    return pull_back(
        report, tuple(b.algebra.unit(0, 0, b.algebra.base.one()) for b in report.blocks)
    )


# ---------------------------------------------------------------------------
# idempotent classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentReport:
    is_idempotent: bool
    is_homogeneous_degree_zero: bool
    block_ranks: tuple
    abelian: object
    faithful: object
    directly_finite: object

    def to_json(self) -> dict:
        return {
            "is_idempotent": self.is_idempotent,
            "is_homogeneous_degree_zero": self.is_homogeneous_degree_zero,
            "block_ranks": list(self.block_ranks) if self.block_ranks is not None else None,
            "abelian": self.abelian,
            "faithful": self.faithful,
            "directly_finite": self.directly_finite,
        }


def idempotent_report(images: GeneratorImages, e: LpaElement) -> IdempotentReport:
    """Classify an idempotent by the ranks of its block images.

    Non-idempotents get a report with only the first flag set and no
    type fields.  Direct finiteness needs no computation: with every
    corner a matrix algebra over a field or a Laurent ring, one-sided
    inverses in corners are two-sided.
    """
    if not (e * e == e):
        return IdempotentReport(
            is_idempotent=False,
            is_homogeneous_degree_zero=False,
            block_ranks=None,
            abelian=None,
            faithful=None,
            directly_finite=None,
        )
    hom0 = e.is_zero() or e.degree() == 0
    ranks = block_ranks(images, e)
    return IdempotentReport(
        is_idempotent=True,
        is_homogeneous_degree_zero=hom0,
        block_ranks=ranks,
        abelian=all(r <= 1 for r in ranks),
        faithful=all(r >= 1 for r in ranks),
        directly_finite=True,
    )


_DEGREE_WINDOW = 3
_MAX_TERMS = 3


def sample_homogeneous(algebra, rng) -> LpaElement:
    """A random nonzero homogeneous element, drawn from the canonical basis.

    Degree is uniform over -_DEGREE_WINDOW.._DEGREE_WINDOW where a basis
    exists (degree 0 always has the vertices, so this terminates), there
    are 1 to _MAX_TERMS terms, and coefficients are small nonzero field
    scalars.  Admissible monomials with nonzero
    coefficients are already canonical, so the result is never zero.
    """
    field = algebra.field
    while True:
        d = rng.randint(-_DEGREE_WINDOW, _DEGREE_WINDOW)
        basis = algebra.basis_monomials(d)
        if basis:
            break
    k = rng.randint(1, min(_MAX_TERMS, len(basis)))
    monos = rng.sample(basis, k)
    pairs = []
    for m in monos:
        c = field.zero()
        while field.is_zero(c):
            c = field.from_int(rng.randint(1, 7))
        pairs.append((m, c))
    return algebra.element(pairs)


def regularity_witness_report(images: GeneratorImages, a: LpaElement) -> dict:
    """The full a b a = a transcript for one homogeneous element."""
    b = graded_inner_inverse(images, a)
    aba = a * b * a
    ok = aba == a
    if not ok:
        raise VerificationError("inner inverse replay failed: a b a != a")
    return {
        "element": a.to_json(),
        "degree": a.degree(),
        "inverse": b.to_json(),
        "inverse_degree": b.degree(),
        "aba_equals_a": ok,
    }
