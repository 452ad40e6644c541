"""Exact scalar, polynomial and radial-sum arithmetic.

Every quantity the library computes is an arbitrary-precision rational
(``fractions.Fraction``); nothing in this module ever rounds.  Three value
classes cover the integrand types used downstream:

* :class:`MultiPoly` -- sparse multivariate polynomials with rational
  coefficients, keyed by exponent multi-index (body and facet integrands),
* :class:`RadialSum` -- finite sums ``sum_j p_j(x) * X**k_j`` where
  ``X = x_1 + ... + x_n`` and the ``k_j`` are integers, possibly negative
  (the integrands produced by the radial family),
* :class:`LogLinear` -- exact pairs ``q0 + q1*log(base)``, which close the
  radial integrals under the ``X**-1`` antiderivative.

A small exact linear-algebra kit over rational matrices lives here as
well; the polytope, integrate and family modules share it.  Determinant,
solve, inverse and rank all run one forward elimination (``_row_reduce``),
followed where needed by back substitution.
All values are immutable after construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

Rational = Fraction
RationalLike = Union[int, str, Fraction]

# Hard cap on total degree: integration cost grows factorially with degree
# and the exact Dirichlet moments below assume small multi-indices.
MAX_TOTAL_DEGREE = 64

# Cap on the coefficient bits a parsed power may build, estimated before
# it is computed (3^4000000000 ran past 90 s).  Exact integration slows
# with coefficient size: the body integral of (c1*x1 + c2*x2 + c3)^8 over
# P(2, 3) took 0.7 s with 2048-bit c's (at the cap) and 8.3 s with
# 8192-bit ones, on a 2-core host whose perfbench/speed.py factor read 1.5.
MAX_COEFFICIENT_BITS = 16_384

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction; reject anything else."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r} (expected p or p/q)")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce int/str/Fraction to Fraction, refusing floats outright.

    Floats are rejected rather than converted because a binary float that
    "looks like" 1/3 would silently poison every exact result downstream.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational parameter")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, float):
        raise TypeError(
            f"float {x!r} rejected: pass an int, Fraction, or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def format_rational(x: Fraction) -> str:
    """Canonical ``p/q`` (or ``p`` for integers) string form."""
    return str(x)


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction matrices.


def _copy_matrix(rows: Sequence[Sequence[RationalLike]]) -> list[list[Fraction]]:
    return [[as_fraction(v) for v in row] for row in rows]


def _row_reduce(a: list[list[Fraction]], ncols: int) -> tuple[list[int], int]:
    """Forward elimination: bring ``a`` to row echelon form in place.

    Pivots are sought in the first ``ncols`` columns only; further columns
    (an augmented right-hand side) are carried along.  Returns the pivot
    column of each leading row and the sign of the row permutation.
    """
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        pivot = next((k for k in range(r, len(a)) if a[k][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        inv = 1 / a[r][col]
        for k in range(r + 1, len(a)):
            if a[k][col] != 0:
                factor = a[k][col] * inv
                for c in range(col, len(a[k])):
                    a[k][c] -= factor * a[r][c]
        pivots.append(col)
    return pivots, sign


def _null_vector(
    a: list[list[Fraction]], pivots: list[int], free: int, width: int
) -> list[Fraction]:
    """Back substitution: the solution of the echelon rows ``a @ x = 0`` with
    ``x[free] = 1`` and every other non-pivot entry 0."""
    x = [Fraction(0)] * width
    x[free] = Fraction(1)
    for r in range(len(pivots) - 1, -1, -1):
        p = pivots[r]
        x[p] = -sum(a[r][c] * x[c] for c in range(p + 1, width)) / a[r][p]
    return x


def mat_det(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Determinant of a square rational matrix."""
    a = _copy_matrix(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    pivots, sign = _row_reduce(a, n)
    if len(pivots) < n:
        return Fraction(0)
    return math.prod((a[i][i] for i in range(n)), start=Fraction(sign))


def mat_solve(
    rows: Sequence[Sequence[RationalLike]], rhs: Sequence[RationalLike]
) -> list[Fraction] | None:
    """Solve ``A x = b`` exactly; return None when A is singular."""
    a = _copy_matrix(rows)
    b = [as_fraction(v) for v in rhs]
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve requires square A and matching rhs")
    for row, v in zip(a, b):
        row.append(-v)
    pivots, _ = _row_reduce(a, n)
    if len(pivots) < n:
        return None
    # The augmented column is the one free column: x = (solution, 1).
    return _null_vector(a, pivots, n, n + 1)[:n]


def mat_inverse(rows: Sequence[Sequence[RationalLike]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Rows of the inverse of a square rational matrix; None when it is singular."""
    a = _copy_matrix(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse requires a square matrix")
    for k, row in enumerate(a):
        row.extend(Fraction(-1 if c == k else 0) for c in range(n))
    pivots, _ = _row_reduce(a, n)
    if len(pivots) < n:
        return None
    # Augmented column n + k is free for column k of the inverse: A x = e_k.
    return tuple(zip(*(_null_vector(a, pivots, n + k, 2 * n)[:n] for k in range(n))))


def mat_rank(rows: Sequence[Sequence[RationalLike]]) -> int:
    """Rank of a rational matrix (any shape)."""
    a = _copy_matrix(rows)
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    return len(_row_reduce(a, ncols)[0])


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials.

Exponent = tuple[int, ...]


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms are stored as a map from exponent multi-index ``(e_1, ..., e_n)``
    to a nonzero Fraction.  Instances are immutable; all operators return
    new polynomials.  Serialization and printing order terms
    lexicographically (descending) so output is deterministic.
    """

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[Exponent, RationalLike] | Iterable[tuple[Exponent, RationalLike]] = (),
    ):
        if not isinstance(n, int) or n < 1:
            raise ValueError("number of variables must be a positive int")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponent, Fraction] = {}
        for alpha, coeff in items:
            alpha = tuple(alpha)
            if len(alpha) != n:
                raise ValueError(f"exponent {alpha} has wrong length for n={n}")
            if any((not isinstance(e, int)) or e < 0 for e in alpha):
                raise ValueError(f"exponents must be non-negative ints: {alpha}")
            if sum(alpha) > MAX_TOTAL_DEGREE:
                raise ValueError(
                    f"total degree {sum(alpha)} exceeds cap {MAX_TOTAL_DEGREE}"
                )
            c = clean.get(alpha, Fraction(0)) + as_fraction(coeff)
            if c == 0:
                clean.pop(alpha, None)
            else:
                clean[alpha] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "MultiPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: RationalLike) -> "MultiPoly":
        return cls(n, {(0,) * n: as_fraction(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "MultiPoly":
        """The coordinate function ``x_{i+1}`` (0-based index ``i``)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        alpha = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {alpha: Fraction(1)})

    # -- introspection -----------------------------------------------------

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical (descending lexicographic) order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def coefficient(self, alpha: Exponent) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self._terms:
            return -1
        return max(sum(alpha) for alpha in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.items())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.n != self.n:
                raise ValueError(
                    f"variable-count mismatch: {self.n} vs {other.n}"
                )
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return MultiPoly.constant(self.n, other)
        return None

    def __add__(self, other: object) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return MultiPoly(self.n, [*self._terms.items(), *q._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other: object) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: object) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other: object) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        products = (
            (tuple(e1 + e2 for e1, e2 in zip(a1, a2)), c1 * c2)
            for a1, c1 in self._terms.items() for a2, c2 in q._terms.items()
        )
        return MultiPoly(self.n, products)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        result = MultiPoly.constant(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = MultiPoly.constant(self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact evaluation at a rational point."""
        xs = [as_fraction(v) for v in point]
        if len(xs) != self.n:
            raise ValueError(f"point has length {len(xs)}, expected {self.n}")
        total = Fraction(0)
        for alpha, c in self._terms.items():
            term = c
            for x, e in zip(xs, alpha):
                if e:
                    term *= x**e
            total += term
        return total

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        """Float evaluation on an ``(m, n)`` array of points."""
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) array")
        out = np.zeros(pts.shape[0])
        for alpha, c in self._terms.items():
            term = np.full(pts.shape[0], float(c))
            for j, e in enumerate(alpha):
                if e:
                    term *= pts[:, j] ** e
            out += term
        return out

    def shift(self, t: Sequence[RationalLike]) -> "MultiPoly":
        """Substitute ``x -> x + t``, i.e. return ``p(x + t)``."""
        ts = [as_fraction(v) for v in t]
        if len(ts) != self.n:
            raise ValueError(f"shift vector has length {len(ts)}, expected {self.n}")
        result = MultiPoly.zero(self.n)
        for alpha, c in self._terms.items():
            term = MultiPoly.constant(self.n, c)
            for j, e in enumerate(alpha):
                if e:
                    term = term * (MultiPoly.variable(self.n, j) + ts[j]) ** e
            result = result + term
        return result

    # -- formatting ---------------------------------------------------------

    def _format_monomial(self, alpha: Exponent) -> str:
        parts = []
        for j, e in enumerate(alpha):
            if e == 1:
                parts.append(f"x{j + 1}")
            elif e > 1:
                parts.append(f"x{j + 1}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for alpha, c in self.items():
            mono = self._format_monomial(alpha)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly(n={self.n}, {str(self)!r})"


# ---------------------------------------------------------------------------
# q0 + q1*log(base) values.


@dataclass(frozen=True)
class LogLinear:
    """An exact value ``q0 + q1*log(base)`` with rational components.

    The base itself is context (the radial integrator documents which one
    it used); since ``log(base)`` is irrational for rational ``base != 1``,
    equality is componentwise.
    """

    q0: Fraction
    q1: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q0", as_fraction(self.q0))
        object.__setattr__(self, "q1", as_fraction(self.q1))

    def to_float(self, base: RationalLike | float) -> float:
        b = float(base) if isinstance(base, float) else float(as_fraction(base))
        if b <= 0:
            raise ValueError("log base must be positive")
        return float(self.q0) + float(self.q1) * math.log(b)

    def __str__(self) -> str:
        if self.q1 == 0:
            return str(self.q0)
        return f"{self.q0} + {self.q1}*log(b)"


# ---------------------------------------------------------------------------
# Finite sums of p_k(x) * X**k.


class RadialSum:
    """Finite sum ``sum_k p_k(x) * X**k`` with ``X = x_1 + ... + x_n``.

    Exponents ``k`` are integers and may be negative; each ``p_k`` is a
    :class:`MultiPoly` in the same variables.  This is the integrand class
    produced by radially structured maps, where negative powers of the
    coordinate sum appear naturally.  Immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Iterable[tuple[MultiPoly, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError("number of variables must be a positive int")
        clean: dict[int, MultiPoly] = {}
        for poly, k in terms:
            if not isinstance(poly, MultiPoly):
                raise TypeError("RadialSum terms must pair a MultiPoly with an int power")
            if poly.n != n:
                raise ValueError(f"polynomial has {poly.n} variables, expected {n}")
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError("radial exponents must be ints")
            if abs(k) > MAX_TOTAL_DEGREE:
                raise ValueError(
                    f"radial exponent {k} exceeds cap {MAX_TOTAL_DEGREE} in absolute value"
                )
            merged = clean.get(k, MultiPoly.zero(n)) + poly
            if merged.is_zero:
                clean.pop(k, None)
            else:
                clean[k] = merged
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadialSum is immutable")

    @classmethod
    def from_poly(cls, poly: MultiPoly, k: int = 0) -> "RadialSum":
        return cls(poly.n, [(poly, k)])

    @classmethod
    def constant(cls, n: int, c: RationalLike, k: int = 0) -> "RadialSum":
        return cls(n, [(MultiPoly.constant(n, c), k)])

    def terms(self) -> list[tuple[MultiPoly, int]]:
        """Terms as (polynomial, power) pairs, ascending in the power."""
        return [(self._terms[k], k) for k in sorted(self._terms)]

    def mul_poly(self, poly: MultiPoly) -> "RadialSum":
        """Multiply every term by a polynomial factor."""
        if poly.n != self.n:
            raise ValueError(f"variable-count mismatch: {self.n} vs {poly.n}")
        return RadialSum(self.n, [(p * poly, k) for k, p in self._terms.items()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadialSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def eval(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact evaluation; requires ``sum(point) != 0`` if any power is negative."""
        xs = [as_fraction(v) for v in point]
        if len(xs) != self.n:
            raise ValueError(f"point has length {len(xs)}, expected {self.n}")
        X = sum(xs, Fraction(0))
        if X == 0 and any(k < 0 for k in self._terms):
            raise ZeroDivisionError("negative radial power at a point with zero coordinate sum")
        total = Fraction(0)
        for k, p in self._terms.items():
            factor = X**k if k != 0 else Fraction(1)
            total += p.eval(xs) * factor
        return total

    def eval_array(self, pts: np.ndarray) -> np.ndarray:
        """Float evaluation on an ``(m, n)`` array of points."""
        import numpy as np

        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"expected an (m, {self.n}) array")
        X = pts.sum(axis=1)
        out = np.zeros(pts.shape[0])
        for k, p in self._terms.items():
            vals = p.eval_array(pts)
            out += vals * X**k if k != 0 else vals
        return out

    def to_poly(self) -> MultiPoly:
        """Expand into a plain polynomial; requires all powers non-negative."""
        if any(k < 0 for k in self._terms):
            raise ValueError("cannot expand a radial sum with negative powers")
        X = MultiPoly.zero(self.n)
        for i in range(self.n):
            X = X + MultiPoly.variable(self.n, i)
        result = MultiPoly.zero(self.n)
        for k, p in self._terms.items():
            result = result + p * X**k
        return result

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({p})*X^{k}" for p, k in self.terms())

    def __repr__(self) -> str:
        return f"RadialSum(n={self.n}, {str(self)!r})"
