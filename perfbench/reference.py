"""Independent answers for every request the benchmark sends.

Nothing here imports ``toricfutaki``.  The boundary and bulk terms of the
blow-up family are restated from Dirichlet simplex moments (Baldoni,
Berline, De Loera, Koeppe and Vergne, "How to integrate a polynomial over a
simplex", Math. Comp. 80 (2011)): on the slab ``{x >= 0, lo <= X <= hi}``,
``X = x_1 + ... + x_n``, a monomial ``x^alpha`` times ``X^k`` integrates to

    ``prod(alpha_i!) / (n - 1 + |alpha|)!  *  int_lo^hi X^(n - 1 + |alpha| + k) dX``

and, against the lattice measure of the facet ``X = t``, to
``t^(n - 1 + |alpha|) * prod(alpha_i!) / (n - 1 + |alpha|)!``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from random import Random


def family_slopes(n: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """``(A, B, lambda)`` of the radial profile ``A*X + B*X^(1-n)``."""
    A = (a * b ** (n - 1) - 1) / (b**n - 1)
    return A, 1 - A, n * A


def solvable(n: int, a: Fraction, b: Fraction) -> bool:
    """The slope condition ``lambda > n - 1``."""
    return family_slopes(n, a, b)[2] > n - 1


def slab_volume(n: int, b: Fraction) -> Fraction:
    """Volume of ``{x >= 0, 1 <= X <= b}`` in ``n`` variables."""
    return (b**n - 1) / factorial(n)


def slab_first_moment(n: int, b: Fraction) -> Fraction:
    """Integral of ``x_1`` over ``{x >= 0, 1 <= X <= b}`` in ``n`` variables."""
    return (b ** (n + 1) - 1) / factorial(n + 1)


def slab_x1_decay(n: int, b: Fraction) -> Fraction:
    """Integral of ``x_1 * X^(-2n)`` over the slab: ``(1/n!) * int_1^b X^-n dX``."""
    return (1 - b ** (1 - n)) / ((n - 1) * factorial(n))


def axis_terms(n: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """``(boundary, bulk)`` along ``x_1`` for the family member ``(n, a, b)``.

    The boundary term integrates ``x_1 + c`` (``c`` makes its body mean zero)
    over the ``n + 2`` facets: the two simplices ``X = b`` and ``X = 1`` and
    the ``n`` coordinate facets, each an ``(n-1)``-dimensional slab.  The
    bulk term pairs ``x_1 + c`` with ``binom(n,2) * (A^2 - B^2*X^(-2n))``;
    the ``A^2`` part vanishes by the choice of ``c``.
    """
    _, B, _ = family_slopes(n, a, b)
    m = n - 1
    c = -slab_first_moment(n, b) / slab_volume(n, b)
    outer = b**n / factorial(n) + c * b**m / factorial(m)
    inner = Fraction(1, factorial(n)) + c / factorial(m)
    facet_volume = slab_volume(m, b)
    facet_moment = slab_first_moment(m, b)
    coordinate = c * facet_volume + m * (facet_moment + c * facet_volume)
    boundary = outer + inner + coordinate
    x1_part = (1 - b ** (1 - n)) / (n - 1) / factorial(n)
    c_part = c * (1 - b ** (-n)) / n / factorial(m)
    bulk = -comb(n, 2) * B**2 * (x1_part + c_part)
    return boundary, bulk


def closed_form_ratio(n: int, a: Fraction, b: Fraction) -> Fraction | None:
    """Printed-and-corrected closed forms of the required ratio at n = 2, 3."""
    if a == b:
        return None
    if n == 2:
        return -(b**2 - 1) / (b - a) ** 2
    if n == 3:
        return -(3 * b + 1) * (b - 1) * (b**2 + b + 1) / (3 * b * (b + 1) * (b - a) ** 2)
    return None


def character_answer(
    n: int, a: Fraction, b: Fraction, alpha0: Fraction | None, alpha1: Fraction | None
) -> dict:
    """Expected report fields of ``character --json`` for one request."""
    A, B, lam = family_slopes(n, a, b)
    bd, bk = axis_terms(n, a, b)
    ratio = None if bk == 0 else -bd / (2 * bk)
    closed = closed_form_ratio(n, a, b)
    if closed is not None and closed != ratio:
        raise AssertionError(f"reference disagrees with its closed form at {(n, a, b)}")
    out = {
        "n": n,
        "a": str(a),
        "b": str(b),
        "A": str(A),
        "B": str(B),
        "lambda": str(lam),
        "solvable": lam > n - 1,
        "boundary_term": str(bd),
        "bulk_term": str(bk),
        "required_ratio": None if ratio is None else str(ratio),
        "closed_form_match": None if closed is None else True,
        "character": None,
        "verdict": None,
    }
    if alpha0 is not None:
        char = alpha0 / 2 * bd + alpha1 * bk
        out["character"] = str(char)
        out["verdict"] = verdict(bk, ratio, char, alpha0, alpha1)
    return out


def verdict(
    bulk: Fraction,
    ratio: Fraction | None,
    char: Fraction,
    alpha0: Fraction,
    alpha1: Fraction,
) -> str:
    """The verdict rule: vanishing first, then a dead bulk term, then sign."""
    if char == 0:
        return "VanishesAtRatio"
    if bulk == 0:
        return "NoVanishingPossible"
    if ratio < 0 and alpha0 > 0 and alpha1 > 0:
        return "ObstructedForPositiveAlpha"
    return "Obstructed"


def mc_exact(n: int, b: Fraction, integrand: str) -> Fraction:
    """Exact value of a Monte Carlo integrand over the slab polytope."""
    if integrand == "volume":
        return slab_volume(n, b)
    if integrand == "x1":
        return slab_first_moment(n, b)
    if integrand == "x1*X^(-2n)":
        return slab_x1_decay(n, b)
    raise ValueError(f"unknown integrand {integrand!r}")


def mc_agrees(estimate: float, stderr: float, exact: Fraction) -> bool:
    """``|estimate - exact| <= max(4 * stderr, 1e-9 * |exact|)``."""
    x = float(exact)
    return abs(estimate - x) <= max(4.0 * stderr, 1e-9 * abs(x))


def ample_scan_checked(grid_bound: int, samples: int, seed: int) -> int:
    """Pairs an ampleness scan must visit: the grid without the origin, plus
    every drawn rational pair except ``(0, 0)``."""
    grid = (2 * grid_bound + 1) ** 2 - 1
    rng = Random(seed)
    drawn = 0
    for _ in range(samples):
        p1, _q1 = rng.randint(-999, 999), rng.randint(1, 999)
        p2, _q2 = rng.randint(-999, 999), rng.randint(1, 999)
        drawn += not (p1 == 0 and p2 == 0)
    return grid + drawn
