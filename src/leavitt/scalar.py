"""Exact scalar arithmetic for the algebra engine.

Three coefficient domains, all exact:

* ``Rationals`` -- the field Q, elements are ``fractions.Fraction``;
* ``PrimeField`` -- the field F_p, elements are ints in ``range(p)``;
* ``LaurentRing`` -- K[x^t, x^(-t)] over one of the fields above, elements
  are ``LaurentElement`` (sparse exponent -> coefficient maps, every
  exponent a multiple of the step t).

All three expose the same small protocol (zero/one/add/sub/mul/neg/
is_zero/parse/format/to_json plus the grading hooks ``has_component``,
``component``, ``star``, ``homogeneous_degree``, ``monomial`` and
``terms``) so matrix code can stay generic over the base.  A field is
viewed as trivially graded: everything sits in degree 0, so
``monomial(c, 0)`` is c itself and ``terms(c)`` is {0: c}.

``smith_normal_form`` diagonalizes a matrix over a LaurentRing by row and
column operations, using the Euclidean width max(exp) - min(exp).  It
works on sparse rows in and out and keeps V transposed, so one clearing
step serves the pivot column and the pivot row; its row operations
``_swap`` and ``_sub_row`` serve the elimination over a field as well.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction


# deterministic Miller-Rabin: these bases decide primality exactly below
# _MR_LIMIT, the least strong pseudoprime to all of them (OEIS A014233)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Exact primality for n < _MR_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_coefficient(s) -> None:
    """Coefficients are read from strings or integers only: a JSON float
    (1.5, 0.1) has already lost its decimal text."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"a coefficient must be a string or an integer, not {s!r}")


# the exponent of a decimal coefficient such as "1.5e-3"
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _max_digits() -> int:
    """The digit bound on coefficients: Python's limit on converting an
    int to text, or that limit's default of 4300 where it is off or absent."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


class TriviallyGradedField:
    """Grading hooks shared by the fields: everything sits in degree 0."""

    def has_component(self, d: int) -> bool:
        return d == 0

    def component(self, a, d: int):
        return a if d == 0 else self.zero()

    def star(self, a):
        return a

    def homogeneous_degree(self, a) -> int:
        if self.is_zero(a):
            raise ValueError("zero has no degree")
        return 0

    def monomial(self, coeff, exp: int):
        if exp != 0:
            raise ValueError(f"a field has no component of degree {exp}")
        return coeff

    def terms(self, a) -> dict:
        """The nonzero homogeneous components, keyed by degree."""
        return {} if self.is_zero(a) else {0: a}

    def to_json(self, a):
        return self.format(a)


class Rationals(TriviallyGradedField):
    """The field Q.  Elements are `fractions.Fraction` values."""

    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in Q")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s):
        """An exact rational from a string or an integer; one whose
        numerator or denominator has more digits than `str` writes is
        refused.  A decimal exponent beyond that limit plus the length of
        the text is refused before the value is built, since 10**exponent
        alone would take seconds."""
        _check_coefficient(s)
        m = _EXPONENT.search(s) if isinstance(s, str) else None
        if m and abs(int(m.group(1))) > _max_digits() + len(s):
            raise ValueError("decimal exponent too large for an exact coefficient")
        a = Fraction(s)
        str(a)  # raises ValueError past the digit limit
        return a

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField(TriviallyGradedField):
    """The field F_p for a prime p.  Elements are ints in range(p)."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        if p >= _MR_LIMIT:
            raise ValueError(f"modulus {p} is too large; primality is decided below {_MR_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s):
        _check_coefficient(s)
        return int(s) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class LaurentElement:
    """An element of K[x^t, x^(-t)]: a sparse map exponent -> coefficient.

    Exponents are actual powers of x (so always multiples of the ring
    step).  The map is canonical: no zero coefficients are stored.
    Arithmetic goes through the owning ring so coefficients stay exact.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "LaurentRing", terms: dict):
        self.ring = ring
        self.terms = terms

    def __add__(self, other):
        return self.ring.add(self, other)

    def __sub__(self, other):
        return self.ring.sub(self, other)

    def __mul__(self, other):
        return self.ring.mul(self, other)

    def __neg__(self):
        return self.ring.neg(self)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElement)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentElement({self.ring.format(self)!r})"


class LaurentRing:
    """K[x^t, x^(-t)]: Laurent polynomials over `field` in the variable x^t.

    `step` is t.  Every exponent of every element is a multiple of t, so
    the ring is a Laurent polynomial ring in one variable y = x^t; the
    x-exponent bookkeeping keeps the embedding into the graded world
    explicit (the degree of x^m is m).
    """

    def __init__(self, field, step: int):
        if step < 1:
            raise ValueError("step must be a positive integer")
        self.field = field
        self.step = step

    # -- construction --------------------------------------------------

    def _make(self, terms: dict) -> LaurentElement:
        clean = {e: c for e, c in terms.items() if not self.field.is_zero(c)}
        return LaurentElement(self, clean)

    def monomial(self, coeff, exp: int) -> LaurentElement:
        if exp % self.step != 0:
            raise ValueError(f"exponent {exp} is not a multiple of {self.step}")
        return self._make({exp: coeff})

    def zero(self) -> LaurentElement:
        return LaurentElement(self, {})

    def one(self) -> LaurentElement:
        return self.monomial(self.field.one(), 0)

    def from_int(self, n: int) -> LaurentElement:
        return self._make({0: self.field.from_int(n)})

    def from_terms(self, terms: dict) -> LaurentElement:
        for e in terms:
            if e % self.step != 0:
                raise ValueError(f"exponent {e} is not a multiple of {self.step}")
        acc: dict = {}
        for e, c in terms.items():
            acc[e] = self.field.add(acc.get(e, self.field.zero()), c)
        return self._make(acc)

    # -- arithmetic -----------------------------------------------------

    def add(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        acc = dict(a.terms)
        for e, c in b.terms.items():
            acc[e] = self.field.add(acc.get(e, self.field.zero()), c)
        return self._make(acc)

    def sub(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        return self.add(a, self.neg(b))

    def neg(self, a: LaurentElement) -> LaurentElement:
        return LaurentElement(self, {e: self.field.neg(c) for e, c in a.terms.items()})

    def mul(self, a: LaurentElement, b: LaurentElement) -> LaurentElement:
        acc: dict = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = e1 + e2
                acc[e] = self.field.add(acc.get(e, self.field.zero()), self.field.mul(c1, c2))
        return self._make(acc)

    def is_zero(self, a: LaurentElement) -> bool:
        return not a.terms

    # -- units and Euclidean structure -----------------------------------

    def is_unit(self, a: LaurentElement) -> bool:
        """Units are exactly the nonzero monomials c * x^(kt)."""
        return len(a.terms) == 1

    def unit_inverse(self, a: LaurentElement) -> LaurentElement:
        if not self.is_unit(a):
            raise ValueError("not a unit: " + self.format(a))
        ((e, c),) = a.terms.items()
        return self.monomial(self.field.invert(c), -e)

    def width(self, a: LaurentElement) -> int:
        """max exponent - min exponent; the Euclidean size of a nonzero element."""
        if not a.terms:
            raise ValueError("zero has no width")
        return max(a.terms) - min(a.terms)

    def divmod(self, a: LaurentElement, b: LaurentElement):
        """Return (q, r) with a = q*b + r and r = 0 or width(r) < width(b).

        Shift both operands into ordinary polynomials in y = x^step, run
        long division there, then shift back.
        """
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero")
        if self.is_zero(a):
            return self.zero(), self.zero()
        shift_a = min(a.terms)
        shift_b = min(b.terms)
        rem = {e - shift_a: c for e, c in a.terms.items()}
        den = {e - shift_b: c for e, c in b.terms.items()}
        deg_b = max(den)
        lead_inv = self.field.invert(den[deg_b])
        quo: dict = {}
        while rem and max(rem) >= deg_b:
            deg_r = max(rem)
            factor = self.field.mul(rem[deg_r], lead_inv)
            shift = deg_r - deg_b
            quo[shift] = self.field.add(quo.get(shift, self.field.zero()), factor)
            for e, c in den.items():
                tgt = e + shift
                val = self.field.sub(rem.get(tgt, self.field.zero()), self.field.mul(factor, c))
                if self.field.is_zero(val):
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = val
        q = self._make({e + shift_a - shift_b: c for e, c in quo.items()})
        r = self._make({e + shift_a: c for e, c in rem.items()})
        return q, r

    def divides(self, d: LaurentElement, a: LaurentElement) -> bool:
        if self.is_zero(d):
            return self.is_zero(a)
        _, r = self.divmod(a, d)
        return self.is_zero(r)

    # -- grading ----------------------------------------------------------

    def has_component(self, d: int) -> bool:
        return d % self.step == 0

    def component(self, a: LaurentElement, d: int) -> LaurentElement:
        if d in a.terms:
            return LaurentElement(self, {d: a.terms[d]})
        return self.zero()

    def star(self, a: LaurentElement) -> LaurentElement:
        """The graded involution x^m -> x^(-m), coefficients fixed."""
        return LaurentElement(self, {-e: c for e, c in a.terms.items()})

    def homogeneous_degree(self, a: LaurentElement) -> int:
        if not a.terms:
            raise ValueError("zero has no degree")
        if len(a.terms) != 1:
            raise ValueError("not homogeneous: " + self.format(a))
        return next(iter(a.terms))

    def terms(self, a: LaurentElement) -> dict:
        """The nonzero homogeneous components: exponent -> coefficient."""
        return a.terms

    # -- io ----------------------------------------------------------------

    def parse(self, data) -> LaurentElement:
        """Read {"t": step, "terms": {"exp": "coeff", ...}}."""
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError("Laurent serialization must be a dict with a 'terms' key")
        if "t" in data and int(data["t"]) != self.step:
            raise ValueError(f"step mismatch: expected {self.step}, got {data['t']}")
        return self.from_terms({int(e): self.field.parse(c) for e, c in data["terms"].items()})

    def to_json(self, a: LaurentElement) -> dict:
        return {
            "t": self.step,
            "terms": {str(e): self.field.format(c) for e, c in sorted(a.terms.items())},
        }

    def format(self, a: LaurentElement) -> str:
        if not a.terms:
            return "0"
        parts = []
        for e in sorted(a.terms):
            c = self.field.format(a.terms[e])
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append(f"{c}*x" if c != "1" else "x")
            else:
                parts.append(f"{c}*x^{e}" if c != "1" else f"x^{e}")
        return " + ".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and other.field == self.field
            and other.step == self.step
        )

    def __hash__(self):
        return hash(("Laurent", self.field, self.step))

    def __repr__(self):
        return f"LaurentRing({self.field!r}, step={self.step})"


# ---------------------------------------------------------------------------
# Smith normal form over a Laurent ring
# ---------------------------------------------------------------------------


def _pick_pivot(a, s, width):
    """(width, i, j) of the row-major first nonzero of least width in rows >= s, or None."""
    best = None
    for i in range(s, len(a)):
        if a[i]:
            w, j = min((width(x), j) for j, x in a[i].items())
            if best is None or w < best[0]:
                best = w, i, j
                if w == 0:
                    break
    return best


def _swap(a, t, i, j):
    for rows in (a, t):
        rows[i], rows[j] = rows[j], rows[i]


def _sub_row(a, t, i, j, q, ring):
    """Row i -= q * row j in the sparse rows of `a` and `t`.  As x - q*0 = x,
    only the stored entries of row j are visited."""
    for rows in (a, t):
        dst = rows[i]
        for k, y in rows[j].items():
            qy = ring.mul(q, y)
            z = dst[k] = ring.sub(dst[k], qy) if k in dst else ring.neg(qy)
            if ring.is_zero(z):
                del dst[k]


def _clear(a, t, s, ring):
    """Clear column s of `a` below the pivot a[s][s] by row operations on `a`
    and `t`; True when a narrower remainder was swapped in as the pivot."""
    for i in range(s + 1, len(a)):
        if s in a[i]:
            q, r = ring.divmod(a[i][s], a[s][s])
            _sub_row(a, t, i, s, q, ring)
            if not ring.is_zero(r):
                _swap(a, t, s, i)
                return True
    return False


def _transpose(a, n):
    """The sparse rows of the transpose of the sparse rows `a` (n columns)."""
    out = [{} for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


def smith_normal_form(rows, cols: int, ring: LaurentRing):
    """Diagonalize the matrix m with sparse rows `rows` (dicts column ->
    nonzero entry, as `GradedMatrix.rows` gives them) and `cols` columns.

    Returns (U, D, V), sparse rows too, with U * m * V = D, U and V
    invertible over the ring, D diagonal, and each diagonal entry
    dividing the next; the entries are not normalized.  A column
    operation on m is a row operation on m^T, so V is kept as V^T: each
    step runs `_clear` on (a, U) for the pivot column and on (a^T, V^T)
    for the pivot row.
    """
    n = len(rows)
    one = ring.one()
    a = [dict(r) for r in rows]
    u, vt = [{i: one} for i in range(n)], [{j: one} for j in range(cols)]
    for s in range(min(n, cols)):
        found = _pick_pivot(a, s, ring.width)
        if found is None:
            break
        _swap(a, u, s, found[1])
        # the column swap is a row swap of a^T and V^T
        at = _transpose(a, cols)
        _swap(at, vt, s, found[2])
        a = _transpose(at, n)
        while True:
            if _clear(a, u, s, ring):
                continue
            at = _transpose(a, cols)
            dirty = _clear(at, vt, s, ring)
            a = _transpose(at, n)
            if dirty:
                continue
            # a unit pivot divides the rest; else add a row it does not divide
            p = a[s][s]
            if ring.is_unit(p):
                break
            culprit = next((i for i in range(s + 1, n)
                            if not all(ring.divides(p, x) for x in a[i].values())), None)
            if culprit is None:
                break
            _sub_row(a, u, s, culprit, ring.from_int(-1), ring)
    return u, a, _transpose(vt, cols)
