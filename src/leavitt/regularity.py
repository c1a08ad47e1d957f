"""Constructive regularity and idempotent structure.

An inner inverse of a is any b with a b a = a.  Over a field every
matrix has one (rank factorization); over a Laurent ring a matrix has
one exactly when its diagonal form has unit-or-zero entries, which for
the homogeneous matrices arising here is automatic.  Transporting a
homogeneous algebra element through the block isomorphism, inverting
blockwise, pulling back and projecting onto the single degree that can
matter produces a graded inner inverse; `graded_inner_inverse` is that
pipeline and the witness that the algebra is graded von Neumann regular.

The graded central idempotents are exactly the block-selection sums
(`bgr_enumerate` / `central_idempotent`), and a homogeneous idempotent
is classified by the ranks of its block images: all ranks <= 1 means
abelian, all ranks >= 1 means faithful.  Direct finiteness holds across
the board here; `directly_finite` says so and the test suite probes it
by brute force on bounded degrees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gmatrix import GradedMatrix
from .lpa import LpaElement
from .scalar import LaurentRing, smith_normal_form
from .structure import (
    DecompositionReport,
    GeneratorImages,
    VerificationError,
    phi_inverse_basis,
    pull_back,
)


class NotRegularError(RuntimeError):
    """No inner inverse exists (a diagonal entry is a nonzero non-unit)."""


# ---------------------------------------------------------------------------
# linear algebra over an exact field
# ---------------------------------------------------------------------------


def _row_reduce(rows, field):
    """Gauss-Jordan over `field` on a list-of-lists copy.

    Returns (rref, transform, pivot_cols) with transform * input = rref.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    t = [[field.one() if i == j else field.zero() for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pick = None
        for i in range(r, m):
            if not field.is_zero(a[i][c]):
                pick = i
                break
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


def _mat_mul(a, b, field):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[field.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = field.zero()
            for s in range(k):
                acc = field.add(acc, field.mul(a[i][s], b[s][j]))
            out[i][j] = acc
    return out


def field_rank(rows, field) -> int:
    if not rows:
        return 0
    _, _, pivots = _row_reduce(rows, field)
    return len(pivots)


def inner_inverse_field(a: GradedMatrix) -> GradedMatrix:
    """An inner inverse over the field base, via rank factorization.

    Write a = C R with C the pivot columns and R the nonzero rows of the
    reduced form; then b = R^+ C^+ built from one-sided inverses
    satisfies a b a = a.  Zero maps to zero.
    """
    alg = a.algebra
    field = alg.base
    n = alg.n
    grid = a.entries  # a view built on every read: read it once
    rref, _, pivots = _row_reduce(grid, field)
    r = len(pivots)
    if r == 0:
        return alg.zero()
    cmat = [[grid[i][c] for c in pivots] for i in range(n)]  # n x r
    rmat = rref[:r]  # r x n
    # R has an identity block at the pivot columns, so placing 1s there
    # transposed gives a right inverse of R
    rplus = [[field.zero() for _ in range(r)] for _ in range(n)]
    for k, c in enumerate(pivots):
        rplus[c][k] = field.one()
    # a left inverse of C: row-reduce C, keep the first r transform rows
    _, ct, cpiv = _row_reduce(cmat, field)
    if len(cpiv) != r:
        raise AssertionError("pivot columns lost rank; exact arithmetic bug")
    cplus = ct[:r]  # r x n
    b = _mat_mul(rplus, cplus, field)  # n x n
    return alg.matrix(b)


# ---------------------------------------------------------------------------
# linear algebra over a Laurent ring
# ---------------------------------------------------------------------------


def inner_inverse_laurent(a: GradedMatrix) -> GradedMatrix:
    """An inner inverse over a Laurent base, via the diagonal form.

    With U a V = D diagonal, b = V D^+ U works whenever every nonzero
    diagonal entry is a unit; a nonzero non-unit entry certifies that no
    inner inverse exists at all (d = d^2 r in a domain forces d a unit),
    and raises NotRegularError.
    """
    alg = a.algebra
    ring = alg.base
    n = alg.n
    u, d, v = smith_normal_form(a.entries, ring)
    dplus = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        x = d[i][i]
        if ring.is_zero(x):
            continue
        if not ring.is_unit(x):
            raise NotRegularError(
                "diagonal form has the nonzero non-unit entry " + ring.format(x)
            )
        dplus[i][i] = ring.unit_inverse(x)
    b = _mat_mul(v, _mat_mul(dplus, u, ring), ring)
    return alg.matrix(b)


def inner_inverse(a: GradedMatrix) -> GradedMatrix:
    if a.algebra.is_laurent:
        return inner_inverse_laurent(a)
    return inner_inverse_field(a)


def laurent_rank(rows, ring: LaurentRing) -> int:
    """Rank over the fraction field, by fraction-free elimination.

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


def block_ranks(images: GeneratorImages, x: LpaElement):
    """Rank of the image of x in each block (over the block's fraction field)."""
    mats = images.apply(x)
    out = []
    for block, mat in zip(images.report.blocks, mats):
        rows = mat.entries
        if block.algebra.is_laurent:
            out.append(laurent_rank(rows, block.algebra.base))
        else:
            out.append(field_rank(rows, block.algebra.base))
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
    """The algebra element selecting the given blocks: the sum, over each
    selected block, of the preimages of its diagonal matrix units."""
    acc = report.algebra.zero()
    for bi, (block, keep) in enumerate(zip(report.blocks, sel.selected)):
        if not keep:
            continue
        for k in range(block.n):
            acc = acc + phi_inverse_basis(report, bi, k, k, 0)
    return acc


def type_I_witness(report: DecompositionReport) -> LpaElement:
    """The canonical faithful abelian idempotent: one diagonal corner per
    block, i.e. the sum of all sink vertices and all cycle bases."""
    acc = report.algebra.zero()
    for bi in range(len(report.blocks)):
        acc = acc + phi_inverse_basis(report, bi, 0, 0, 0)
    return acc


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


def sample_homogeneous(algebra, rng, degree_window: int = 3, max_terms: int = 3) -> LpaElement:
    """A random nonzero homogeneous element, drawn from the canonical basis.

    Degree is uniform over the window where a basis exists (degree 0
    always has the vertices, so this terminates), coefficients are small
    nonzero field scalars.  Admissible monomials with nonzero
    coefficients are already canonical, so the result is never zero.
    """
    field = algebra.field
    while True:
        d = rng.randint(-degree_window, degree_window)
        basis = algebra.basis_monomials(d)
        if basis:
            break
    k = rng.randint(1, min(max_terms, len(basis)))
    monos = rng.sample(list(basis), k)
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
