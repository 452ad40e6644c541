"""The blow-up family: radial transition maps and their Jacobian minors.

Fix projective n-space blown up at a point, with polytope
``{x >= 0, 1 <= X <= b}`` (``X = x_1 + ... + x_n``) for the reference
class of size ``b`` and exceptional size 1.  A second class of size ``a``
admits a radially symmetric potential solving the relevant coupled
equation exactly when the slope threshold

    ``lam = n * (a*b**(n-1) - 1) / (b**n - 1) > n - 1``

holds; the associated moment-map transition is ``x -> A*x + B*x/X**n``
with ``A = (a*b**(n-1) - 1)/(b**n - 1)``, ``B = 1 - A``.  This module
builds validated parameter specs, the transition map, its Jacobian (a
rank-one perturbation of a multiple of the identity), and the sum of 2x2
principal minors both pointwise and as an exact :class:`RadialSum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import (
    MultiPoly,
    Point,
    RadialSum,
    RationalLike,
    as_fraction,
    as_point,
    mat_det,
    over_lcm,
)

# Largest dimension accepted, also by the CLI's polytope loader.  A report
# on a new reference class re-triangulates the polytope, and its time grows
# steeply with n: about 1.3 s at n = 8 and 3.6 s at n = 10 on a 2-core
# machine (CLI, median of 3, speed factor 0.9 by perfbench/speed.py).
MAX_DIM = 10


class UnsolvableClassError(ValueError):
    """Raised when the slope threshold fails and no radial solution exists."""


def intersection_numbers(
    n: int, a: Fraction, b: Fraction
) -> tuple[Fraction, Fraction]:
    """Top self-intersection of the reference class and its pairing with
    the second class: ``(b**n - 1, a*b**(n-1) - 1)``.

    On the blow-up, a class of size ``t`` has top power ``t**n - 1`` (the
    exceptional piece always has size 1 here), and the mixed pairing with
    one factor of the second class replaces one ``b`` by ``a``.
    """
    return b**n - 1, a * b ** (n - 1) - 1


def slope_lambda_intersection(n: int, a: RationalLike, b: RationalLike) -> Fraction:
    """The slope constant ``lam = n * pairing / top power``."""
    _check_dim(n)
    af, bf = as_fraction(a), as_fraction(b)
    if bf <= 1:
        raise ValueError(f"b must exceed 1 (got {bf}); the reference class degenerates")
    if af <= 0:
        raise ValueError(f"a must be positive (got {af})")
    top, mixed = intersection_numbers(n, af, bf)
    return n * mixed / top


def _check_dim(n: int, least: int = 2) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError(f"dimension must be an int >= {least}, got {n!r}")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DIM}")


@dataclass(frozen=True)
class FamilySpec:
    """Validated parameters of one member of the blow-up family.

    ``A`` and ``B`` are the slopes of the radial profile
    ``f(X) = A*X + B*X**(1-n)``; they satisfy ``A + B = 1`` (the profile
    fixes the inner sphere) and ``A*b**n + B = a*b**(n-1)`` (it maps the
    outer sphere to size ``a``).
    """

    n: int
    a: Fraction
    b: Fraction
    A: Fraction
    B: Fraction
    lam: Fraction
    solvable: bool

    @property
    def integral_class(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1


def make_spec(
    n: int, a: RationalLike, b: RationalLike, force: bool = False
) -> FamilySpec:
    """Build a :class:`FamilySpec`, refusing unsolvable parameters.

    ``force=True`` constructs the spec anyway (the closed-form integrals
    remain well defined as formal expressions); downstream reports flag the
    violated hypothesis.
    """
    lam = slope_lambda_intersection(n, a, b)
    af, bf = as_fraction(a), as_fraction(b)
    ok = lam > n - 1
    if not ok and not force:
        raise UnsolvableClassError(
            f"no radial solution for n={n}, a={af}, b={bf}: slope constant "
            f"{lam} fails the strict bound > {n - 1} (pass force=True to "
            f"evaluate the formulas regardless)"
        )
    A = lam / n
    return FamilySpec(n=n, a=af, b=bf, A=A, B=1 - A, lam=lam, solvable=ok)


# ---------------------------------------------------------------------------
# Radial profile and transition map.


def radial_profile(spec: FamilySpec, X: RationalLike) -> Fraction:
    """``f(X) = A*X + B*X**(1-n)``, the radial coordinate transform."""
    Xf = as_fraction(X)
    if Xf <= 0:
        raise ValueError("radial coordinate must be positive")
    return spec.A * Xf + spec.B * Xf ** (1 - spec.n)


def transition_map(spec: FamilySpec, x: Sequence[RationalLike]) -> Point:
    """The moment-map transition ``U(x) = A*x + B*x/X**n``.

    Defined for points with positive coordinate sum; rays through the
    origin are rescaled so the coordinate sum ``X`` maps to ``f(X)``.
    """
    pt = as_point(x, spec.n)
    X = sum(pt, Fraction(0))
    if X <= 0:
        raise ValueError("transition map needs a positive coordinate sum")
    scale = spec.A + spec.B * X ** (-spec.n)
    return tuple(scale * c for c in pt)


def jacobian(spec: FamilySpec, x: Sequence[RationalLike]) -> list[list[Fraction]]:
    """Exact Jacobian matrix ``DU(x)``.

    With ``s = A + B*X**-n`` and ``r = -n*B*X**-(n+1)`` this is the
    rank-one perturbation ``s*I + r * x (1,...,1)^T``: entry ``(i, j)`` is
    ``s*delta_ij + r*x_i``.  Over the lcm ``D`` of its denominators the
    point is ``S_i / D``; ``s`` and ``r*x_i`` are formed in ints from these,
    and each row's two distinct entries become Fractions once.
    """
    (Si,), D = over_lcm([as_point(x, spec.n)])
    S = sum(Si)
    if S <= 0:
        raise ValueError("Jacobian needs a positive coordinate sum")
    n = spec.n
    (An, Ad), (Bn, Bd) = spec.A.as_integer_ratio(), spec.B.as_integer_ratio()
    r_num, r_den = -n * Bn * D**n, Bd * S ** (n + 1)
    # s over Ad * r_den, the denominator the diagonal entries share.
    s_num = An * r_den + Ad * Bn * D**n * S
    rows = []
    for i, c in enumerate(Si):
        row = [Fraction(r_num * c, r_den)] * n
        row[i] = Fraction(s_num + Ad * r_num * c, Ad * r_den)
        rows.append(row)
    return rows


def jacobian_det(spec: FamilySpec, x: Sequence[RationalLike]) -> Fraction:
    """Exact determinant of the Jacobian (by direct elimination)."""
    return mat_det(jacobian(spec, x))


def jacobian_det_factored(spec: FamilySpec, x: Sequence[RationalLike]) -> Fraction:
    """Closed-form determinant ``(A + B*X**-n)**(n-1) * (A - (n-1)*B*X**-n)``.

    The rank-one structure of the Jacobian forces this factorization: the
    matrix has eigenvalue ``s`` with multiplicity ``n - 1`` on the
    hyperplane ``sum(dx) = 0`` and eigenvalue ``s + r*X`` on the radial
    direction.
    """
    pt = as_point(x, spec.n)
    X = sum(pt, Fraction(0))
    if X <= 0:
        raise ValueError("Jacobian needs a positive coordinate sum")
    n = spec.n
    s = spec.A + spec.B * X ** (-n)
    return s ** (n - 1) * (spec.A - (n - 1) * spec.B * X ** (-n))


def minor_sum(spec: FamilySpec, x: Sequence[RationalLike]) -> Fraction:
    """Sum of all 2x2 principal minors of the Jacobian at ``x``.

    Computed directly from the matrix entries; see
    :func:`minor_sum_radial` for the closed form this must agree with.
    """
    m = jacobian(spec, x)
    n = spec.n
    k, L = over_lcm(m)
    total = sum(
        k[i][i] * k[j][j] - k[i][j] * k[j][i] for i in range(n) for j in range(i + 1, n)
    )
    return Fraction(total, L * L)


def minor_sum_radial(spec: FamilySpec) -> RadialSum:
    """The minor sum as an exact radial integrand.

    For the rank-one Jacobian every 2x2 principal minor is
    ``s**2 + s*r*(x_i + x_j)``; summing over pairs and using
    ``sum_{i<j}(x_i + x_j) = (n-1)*X`` collapses the cross terms to
    ``binom(n, 2) * (A**2 - B**2 * X**(-2*n))``.
    """
    n = spec.n
    coeff = Fraction(n * (n - 1), 2)
    const = MultiPoly.constant(n, coeff * spec.A**2)
    tail = MultiPoly.constant(n, -coeff * spec.B**2)
    return RadialSum(n, [(const, 0), (tail, -2 * n)])
