"""Obstruction characters on the blow-up family and the coupling ratio.

For a coupled metric equation with weights ``(alpha0, alpha1)`` the
normalized character along the i-th torus generator is

    ``(alpha0 / 2) * F_bd[i] + alpha1 * F_bulk[i]``

where ``F_bd[i]`` is the classical boundary-vs-volume obstruction
(the lattice boundary integral of the volume-normalized affine function
``x_i + c_i``) and ``F_bulk[i]`` pairs the same function with the sum of
2x2 principal Jacobian minors of the radial transition.  By symmetry all
axes of the blow-up family agree, so vanishing of the character pins down
a single required ratio ``alpha1 / alpha0``.  This module computes both
terms exactly, derives the ratio, classifies the outcome, and carries an
independent cross-check coming from ruled surfaces over a curve.

The boundary term and the centring constants ``c_i`` depend only on the
reference class ``(n, b)``; only the bulk term sees the second class
``a``.  :func:`build_report` therefore reads the b-determined half (each
axis's ``x_i + c_i`` and boundary term) from a bounded memo keyed by
``(n, b)``, holding the last ``SLAB_CACHE_SIZE`` reference classes, and
computes only the bulk term per call.  The polytope-generic
:func:`classical_futaki_axis` and :func:`bulk_axis` recompute everything
and stay the oracle the checks and tests compare against.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import MultiPoly, RadialSum, RationalLike, as_fraction, format_rational
from .family import FamilySpec, make_spec, minor_sum_radial
from .integrate import c_constant, integrate_poly_boundary, integrate_radial
from .polytope import DelzantPolytope, standard_blowup_polytope

# Reference classes (n, b) whose b-determined terms are kept.  Each entry
# is a few rationals; repeated reports over one b (a scan column, the
# verify checks) share them.
SLAB_CACHE_SIZE = 64


class InconsistencyError(AssertionError):
    """An internal exactness invariant failed; results are not trustworthy."""


class Verdict(enum.Enum):
    """Outcome of the vanishing question for given weights.

    ``VANISHES_AT_RATIO``: the supplied weights kill the character.
    ``OBSTRUCTED_FOR_POSITIVE_ALPHA``: the required ratio is negative, so
    no positive weight pair can work (the supplied positive pair fails).
    ``OBSTRUCTED``: the character is nonzero at the supplied weights, with
    no claim about other weights.
    ``NO_VANISHING_POSSIBLE``: the bulk term vanishes while the boundary
    term does not, so no choice of ``alpha1`` rescues vanishing.
    """

    VANISHES_AT_RATIO = "VanishesAtRatio"
    OBSTRUCTED_FOR_POSITIVE_ALPHA = "ObstructedForPositiveAlpha"
    OBSTRUCTED = "Obstructed"
    NO_VANISHING_POSSIBLE = "NoVanishingPossible"


def normalized_affine(P: DelzantPolytope, i: int) -> MultiPoly:
    """The affine function ``x_i + c_i`` with zero mean over the body."""
    return MultiPoly.variable(P.n, i) + c_constant(P, i)


def classical_futaki_axis(P: DelzantPolytope, i: int) -> Fraction:
    """Boundary obstruction along axis ``i``: the ``d(sigma)`` integral of
    the volume-normalized affine function.  Polytope-generic."""
    return integrate_poly_boundary(P, normalized_affine(P, i))


def bulk_axis(spec: FamilySpec, i: int, P: DelzantPolytope | None = None) -> Fraction:
    """Bulk obstruction along axis ``i``: the body integral of
    ``(x_i + c_i) * (sum of 2x2 principal minors)``.

    Evaluated through the exact radial slab integrator.  The zero-mean
    normalization kills the constant part of the minor sum, so the result
    has no logarithmic piece; that is asserted, not assumed.
    """
    if P is None:
        P = standard_blowup_polytope(spec.n, spec.b)
    return _bulk_term(spec, minor_sum_radial(spec), normalized_affine(P, i))


def _bulk_term(spec: FamilySpec, minors: RadialSum, affine: MultiPoly) -> Fraction:
    """The radial integral of ``affine * minors``, asserted log-free."""
    val = integrate_radial(spec.n, spec.b, minors.mul_poly(affine))
    if val.q1 != 0:
        raise InconsistencyError(
            f"bulk term produced a log coefficient {val.q1} != 0; the "
            "zero-mean normalization should have cancelled it"
        )
    return val.q0


@functools.lru_cache(maxsize=SLAB_CACHE_SIZE)
def _slab_terms(n: int, b: Fraction) -> tuple[tuple[MultiPoly, Fraction], ...]:
    """Per axis, the b-determined ``(x_i + c_i, boundary term)`` of the
    model polytope ``P(n, b)``, memoized: what :func:`normalized_affine`
    builds and :func:`classical_futaki_axis` integrates."""
    P = standard_blowup_polytope(n, b)
    affines = [normalized_affine(P, i) for i in range(n)]
    return tuple((f, integrate_poly_boundary(P, f)) for f in affines)


def _axis_terms(spec: FamilySpec) -> tuple[Fraction, Fraction]:
    """Per-axis (boundary, bulk) pair, asserting agreement across axes.

    The boundary terms and ``x_i + c_i`` come from :func:`_slab_terms`;
    the bulk term is the integral :func:`bulk_axis` takes.
    """
    slab = _slab_terms(spec.n, spec.b)
    minors = minor_sum_radial(spec)
    bk = [_bulk_term(spec, minors, affine) for affine, _ in slab]
    bd = [boundary for _, boundary in slab]
    if len(set(bd)) != 1 or len(set(bk)) != 1:
        raise InconsistencyError(
            f"axis symmetry broken: boundary terms {bd}, bulk terms {bk}"
        )
    return bd[0], bk[0]


def required_ratio(spec: FamilySpec) -> Fraction | None:
    """The unique ``alpha1/alpha0`` killing the character, if any.

    Returns None when the bulk term vanishes: then either no ratio works
    (nonzero boundary term) or every ratio works (identically zero
    character); the verdict of :func:`build_report` distinguishes the two.
    """
    return build_report(spec).required_ratio


# ---------------------------------------------------------------------------
# Published closed forms: what we assemble vs what is in print.


def assembled_ratio_closed_form(n: int, a: Fraction, b: Fraction) -> Fraction | None:
    """Closed form of the required ratio for n = 2, 3; None otherwise.

    n=2: ``-(b**2 - 1) / (b - a)**2``
    n=3: ``-(3*b + 1)*(b - 1)*(b**2 + b + 1) / (3*b*(b + 1)*(b - a)**2)``
    """
    if a == b:
        return None
    if n == 2:
        return -(b**2 - 1) / (b - a) ** 2
    if n == 3:
        return -(3 * b + 1) * (b - 1) * (b**2 + b + 1) / (3 * b * (b + 1) * (b - a) ** 2)
    return None


def closed_form_discrepancy(n: int) -> str | None:
    """Known mismatches between assembled ratios and published closed forms.

    The exact pipeline is authoritative; these notes flag where a printed
    formula disagrees with the integrals it was assembled from.
    """
    if n == 2:
        return (
            "printed closed form -2*b^2*(b^2-1)/(b^2-a*b)^2 equals "
            "-2*(b^2-1)/(b-a)^2, twice the assembled ratio "
            "-(b^2-1)/(b-a)^2; the assembled value matches the "
            "ruled-surface cross-check -1/(8*k^2) on the integral subfamily"
        )
    if n == 3:
        return (
            "printed closed form carries the denominator factor "
            "(b^3+b^2-b+1) where the constituent integrals assemble to "
            "(b^3-b^2-b+1) = (b+1)*(b-1)^2; with the assembled factor the "
            "ratio at (a,b)=(3,2) is -49/18, not -49/66"
        )
    return None


# ---------------------------------------------------------------------------
# Ruled-surface cross-check.


@dataclass(frozen=True)
class RuledRatio:
    """Required ratio on a ruled surface over a genus-h curve.

    The surface is the projectivization of a split bundle whose degree
    drop is ``k + kprime`` in the standard normalization; the polarization
    is ``k1 * (zero section) + k2 * (fiber class correction)`` encoded by
    the two integers below.  ``ratio`` is the unique ``alpha1/alpha0``
    killing the character there.
    """

    genus: int
    k: int
    kprime: int
    k1: int
    k2: int
    ratio: Fraction
    blowup_class: tuple[int, int] | None

    @property
    def blowup_class_str(self) -> str | None:
        if self.blowup_class is None:
            return None
        h, e = self.blowup_class
        return f"{h}*H - {e}*E"


def kf_ruled_ratio(
    genus: int, k: int, kprime: int, k1: int, k2: int
) -> RuledRatio:
    """Required ratio ``-((2 - s)*k + 2*kprime) / (8*k2**2*(k + kprime))``
    with ``s = 2*(1 - genus)/k``, from the fiberwise reduction on a ruled
    surface.

    When ``k = kprime = 1`` and the base is rational the surface is the
    plane blown up at one point and the polarization corresponds to the
    class ``(3*k1 + k2)*H - (k1 + 3*k2)*E``, which lands the formula on the
    same family as the toric pipeline.
    """
    for name, val in (("genus", genus), ("k", k), ("kprime", kprime), ("k1", k1), ("k2", k2)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"{name} must be an int")
    if genus < 0:
        raise ValueError("genus must be non-negative")
    if k < 1 or kprime < 1:
        raise ValueError("k and kprime must be positive")
    if k2 == 0:
        raise ValueError("k2 must be nonzero")
    s = Fraction(2 * (1 - genus), k)
    ratio = Fraction(-((2 - s) * k + 2 * kprime), 8 * k2**2 * (k + kprime))
    blowup = (3 * k1 + k2, k1 + 3 * k2) if (genus == 0 and k == 1 and kprime == 1) else None
    return RuledRatio(genus, k, kprime, k1, k2, ratio, blowup)


# ---------------------------------------------------------------------------
# Full report.


@dataclass(frozen=True)
class CharacterReport:
    """Everything the pipeline knows about one family member.

    ``boundary_term`` and ``bulk_term`` are the common per-axis values
    (axis symmetry is asserted).  ``character`` is present only when
    weights were supplied.  ``required_ratio`` is None when the bulk term
    vanishes.  ``hypothesis_violated`` records a forced construction whose
    radial solution does not exist; results are then formal.
    """

    n: int
    a: Fraction
    b: Fraction
    A: Fraction
    B: Fraction
    lam: Fraction
    solvable: bool
    hypothesis_violated: bool
    integral_class: bool
    boundary_term: Fraction
    bulk_term: Fraction
    required_ratio: Fraction | None
    closed_form_match: bool | None
    closed_form_discrepancy: str | None
    alpha0: Fraction | None = None
    alpha1: Fraction | None = None
    character: Fraction | None = None
    verdict: Verdict | None = None

    def to_json_dict(self) -> dict:
        def rat(x: Fraction | None) -> str | None:
            return None if x is None else format_rational(x)

        def flt(x: Fraction | None) -> float | None:
            return None if x is None else float(x)

        return {
            "n": self.n,
            "a": rat(self.a),
            "b": rat(self.b),
            "A": rat(self.A),
            "B": rat(self.B),
            "lambda": rat(self.lam),
            "solvable": self.solvable,
            "hypothesis_violated": self.hypothesis_violated,
            "integral_class": self.integral_class,
            "boundary_term": rat(self.boundary_term),
            "boundary_term_float": flt(self.boundary_term),
            "bulk_term": rat(self.bulk_term),
            "bulk_term_float": flt(self.bulk_term),
            "required_ratio": rat(self.required_ratio),
            "required_ratio_float": flt(self.required_ratio),
            "closed_form_match": self.closed_form_match,
            "closed_form_discrepancy": self.closed_form_discrepancy,
            "alpha0": rat(self.alpha0),
            "alpha1": rat(self.alpha1),
            "character": rat(self.character),
            "character_float": flt(self.character),
            "verdict": None if self.verdict is None else self.verdict.value,
        }


def build_report(
    spec: FamilySpec,
    alpha0: RationalLike | None = None,
    alpha1: RationalLike | None = None,
) -> CharacterReport:
    """Compute boundary and bulk terms, the required ratio, and a verdict.

    The closed-form comparison fields record whether the assembled ratio
    matches the known n = 2, 3 closed forms, and carry a note on published
    variants that disagree with the assembled integrals.
    """
    a0 = None if alpha0 is None else as_fraction(alpha0)
    a1 = None if alpha1 is None else as_fraction(alpha1)
    weighted = a0 is not None and a1 is not None
    if weighted and a0 == 0:
        raise ValueError("alpha0 must be nonzero to normalize the ratio")
    bd, bk = _axis_terms(spec)
    ratio = None if bk == 0 else -bd / (2 * bk)
    closed = assembled_ratio_closed_form(spec.n, spec.a, spec.b)
    match = None if closed is None else (ratio == closed)
    if match is False:
        raise InconsistencyError(
            f"assembled ratio {ratio} disagrees with its own closed form {closed}"
        )
    char = None
    vd = None
    if weighted:
        char = a0 / 2 * bd + a1 * bk
        if char == 0:
            vd = Verdict.VANISHES_AT_RATIO
        elif bk == 0:
            vd = Verdict.NO_VANISHING_POSSIBLE
        elif ratio < 0 and a0 > 0 and a1 > 0:
            vd = Verdict.OBSTRUCTED_FOR_POSITIVE_ALPHA
        else:
            vd = Verdict.OBSTRUCTED
    return CharacterReport(
        n=spec.n,
        a=spec.a,
        b=spec.b,
        A=spec.A,
        B=spec.B,
        lam=spec.lam,
        solvable=spec.solvable,
        hypothesis_violated=not spec.solvable,
        integral_class=spec.integral_class,
        boundary_term=bd,
        bulk_term=bk,
        required_ratio=ratio,
        closed_form_match=match,
        closed_form_discrepancy=closed_form_discrepancy(spec.n),
        alpha0=a0,
        alpha1=a1,
        character=char,
        verdict=vd,
    )


# ---------------------------------------------------------------------------
# Two-parameter classes via reduction to the normalized family.


def two_parameter_ratio(
    n: int,
    kahler: tuple[RationalLike, RationalLike],
    bundle: tuple[RationalLike, RationalLike],
) -> dict:
    """Required ratio for general classes ``h*H - e*E`` (experimental).

    ``kahler`` and ``bundle`` are ``(h, e)`` pairs with ``h > e > 0``.
    Both classes are reduced to the exceptional-size-1 normalization
    (``b = h_k / e_k``, ``a = h_b / e_b``); scaling the polytope by
    ``s = e_k`` multiplies the boundary term by ``s**n`` and, together
    with the bundle scale ``r = e_b`` entering the minor sum
    quadratically, multiplies the bulk term by ``s**(n-1) * r**2``.  The
    required ratio therefore rescales by ``s / r**2``.
    """
    hk, ek = as_fraction(kahler[0]), as_fraction(kahler[1])
    hb, eb = as_fraction(bundle[0]), as_fraction(bundle[1])
    for h, e, label in ((hk, ek, "kahler"), (hb, eb, "bundle")):
        if not h > e > 0:
            raise ValueError(f"{label} class must satisfy h > e > 0, got ({h}, {e})")
    b = hk / ek
    a = hb / eb
    spec = make_spec(n, a, b)
    base = required_ratio(spec)
    scale = ek / eb**2
    return {
        "experimental": True,
        "n": n,
        "kahler": (format_rational(hk), format_rational(ek)),
        "bundle": (format_rational(hb), format_rational(eb)),
        "reduced_a": format_rational(a),
        "reduced_b": format_rational(b),
        "reduced_ratio": None if base is None else format_rational(base),
        "scale": format_rational(scale),
        "required_ratio": None if base is None else format_rational(base * scale),
    }
