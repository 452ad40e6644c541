"""Obstruction characters, required ratios, verdicts, and cross-checks."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricfutaki.character import (
    SLAB_CACHE_SIZE,
    InconsistencyError,
    Verdict,
    assembled_ratio_closed_form,
    build_report,
    bulk_axis,
    classical_futaki_axis,
    closed_form_discrepancy,
    kf_ruled_ratio,
    normalized_affine,
    required_ratio,
    two_parameter_ratio,
    _axis_terms,
    _slab_terms,
)
from toricfutaki.exactnum import MultiPoly, RadialSum
from toricfutaki.family import make_spec
from toricfutaki.integrate import integrate_poly, integrate_radial_slab, volume
from toricfutaki.polytope import DelzantPolytope, HalfSpace, standard_blowup_polytope


def F(x, y=1):
    return Fraction(x, y)


def unit_box(n: int) -> DelzantPolytope:
    hs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        hs.append(HalfSpace(e, Fraction(0)))
        hs.append(HalfSpace(tuple(-c for c in e), Fraction(1)))
    return DelzantPolytope(n, hs)


class TestBoundaryTerm:
    def test_blowup_values(self):
        assert classical_futaki_axis(standard_blowup_polytope(2, 3), 0) == F(1, 3)
        assert classical_futaki_axis(standard_blowup_polytope(3, 2), 0) == F(1, 12)

    def test_vanishes_on_symmetric_polytopes(self):
        cube = unit_box(3)
        assert classical_futaki_axis(cube, 0) == 0
        simplex = DelzantPolytope(
            2,
            [
                HalfSpace((1, 0), Fraction(0)),
                HalfSpace((0, 1), Fraction(0)),
                HalfSpace((-1, -1), Fraction(1)),
            ],
        )
        assert classical_futaki_axis(simplex, 0) == 0

    def test_translation_invariance(self):
        p = standard_blowup_polytope(2, 3)
        q = p.translate((F(5, 2), F(-1)))
        assert classical_futaki_axis(q, 0) == classical_futaki_axis(p, 0)

    def test_normalized_affine_has_zero_mean(self):
        p = standard_blowup_polytope(3, 2)
        for i in range(3):
            assert integrate_poly(p, normalized_affine(p, i)) == 0


class TestBulkTerm:
    def test_blowup_values(self):
        assert bulk_axis(make_spec(2, 11, 3), 0) == F(4, 3)
        assert bulk_axis(make_spec(3, 3, 2), 0) == F(3, 196)

    def test_vanishes_when_classes_coincide(self):
        # a == b makes the transition affine (B = 0), so the minor sum is
        # constant and the zero-mean factor kills the integral.
        assert bulk_axis(make_spec(2, 3, 3), 0) == 0


class TestCharacterAndRatio:
    def test_character_values(self):
        s = make_spec(2, 11, 3)
        assert build_report(s, 1, F(-1, 8)).character == 0
        assert build_report(s, 1, 1).character == F(3, 2)

    def test_linearity_in_weights(self):
        s = make_spec(2, 11, 3)
        v1 = build_report(s, 1, 0).character
        v2 = build_report(s, 2, 3).character
        assert build_report(s, 3, 3).character == v1 + v2

    def test_headline_ratios(self):
        assert required_ratio(make_spec(2, 11, 3)) == F(-1, 8)
        assert required_ratio(make_spec(3, 3, 2)) == F(-49, 18)

    def test_ratio_none_when_bulk_vanishes(self):
        assert required_ratio(make_spec(2, 3, 3)) is None

    def test_ratio_matches_closed_form_on_grid(self):
        for a, b in product([2, 3, 4, 7, F(5, 2)], [2, 3, F(7, 3)]):
            if a == b:
                continue
            s = make_spec(2, a, b, force=True)
            assert required_ratio(s) == assembled_ratio_closed_form(2, s.a, s.b)
        for a, b in product([2, 3, 5, F(7, 2)], [2, F(5, 2)]):
            if a == b:
                continue
            s = make_spec(3, a, b, force=True)
            assert required_ratio(s) == assembled_ratio_closed_form(3, s.a, s.b)

    def test_closed_form_none_cases(self):
        assert assembled_ratio_closed_form(2, F(3), F(3)) is None
        assert assembled_ratio_closed_form(4, F(3), F(2)) is None


def _all_n_closed_forms(n, a, b, B):
    """The conjectured all-n closed forms ``(boundary, bulk, ratio)`` of
    P(n, b), with ``T_n(b) = sum_j C(j+2, 2) b^j`` and
    ``S_n(b) = (n/2) sum_j (j+1)(n-1-j) b^j`` over ``j = 0..n-2``."""
    T = sum(comb(j + 2, 2) * b**j for j in range(n - 1))
    S = F(n, 2) * sum((j + 1) * (n - 1 - j) * b**j for j in range(n - 1))
    boundary = 2 * (b - 1) ** 3 * T / (factorial(n + 1) * (b**n - 1))
    ratio = None if a == b else -(b**n - 1) * T / (b ** (n - 2) * S * (b - a) ** 2)
    I1 = (1 - b ** (1 - n)) / ((n - 1) * factorial(n))
    I0 = (1 - b ** (-n)) / (n * factorial(n - 1))
    c = -((b ** (n + 1) - 1) / factorial(n + 1)) / ((b**n - 1) / factorial(n))
    bulk = -comb(n, 2) * B**2 * (I1 + c * I0)
    return boundary, bulk, ratio


_CLOSED_FORM_PAIRS = [
    (F(11), F(3)), (F(7, 2), F(5, 2)), (F(5, 3), F(3)), (F(3), F(3)), (F(9, 4), F(7, 5)),
]


class TestAllNClosedForms:
    """Sample points, not a proof: the exact report equals the all-n closed
    forms of the boundary term, the bulk term and the required ratio.
    A report at n = 7 takes over half a second, so n = 7 runs on one pair."""

    @pytest.mark.parametrize(
        "n, a, b",
        [(n, a, b) for n in range(2, 7) for a, b in _CLOSED_FORM_PAIRS] + [(7, F(7, 2), F(5, 2))],
        ids=str,
    )
    def test_report_matches_closed_forms(self, n, a, b):
        rep = build_report(make_spec(n, a, b, force=True))
        assert (rep.boundary_term, rep.bulk_term, rep.required_ratio) == _all_n_closed_forms(
            n, a, b, rep.B
        )


class TestVerdicts:
    def test_vanishes_at_ratio(self):
        s = make_spec(2, 11, 3)
        assert build_report(s, 8, -1).verdict is Verdict.VANISHES_AT_RATIO
        assert build_report(s, -8, 1).verdict is Verdict.VANISHES_AT_RATIO

    def test_obstructed_for_positive_weights(self):
        s = make_spec(2, 11, 3)
        assert build_report(s, 1, 1).verdict is Verdict.OBSTRUCTED_FOR_POSITIVE_ALPHA

    def test_plain_obstruction(self):
        s = make_spec(2, 11, 3)
        assert build_report(s, 1, -1).verdict is Verdict.OBSTRUCTED

    def test_no_vanishing_possible(self):
        s = make_spec(2, 3, 3)
        assert build_report(s, 1, 1).verdict is Verdict.NO_VANISHING_POSSIBLE

    def test_zero_alpha0_rejected(self):
        s = make_spec(2, 11, 3)
        with pytest.raises(ValueError):
            build_report(s, 0, 1)

    def test_verdict_wire_values(self):
        assert Verdict.VANISHES_AT_RATIO.value == "VanishesAtRatio"
        assert Verdict.OBSTRUCTED_FOR_POSITIVE_ALPHA.value == "ObstructedForPositiveAlpha"
        assert Verdict.OBSTRUCTED.value == "Obstructed"
        assert Verdict.NO_VANISHING_POSSIBLE.value == "NoVanishingPossible"


class TestRuledCrossCheck:
    def test_blowup_subfamily(self):
        for k in (1, 2, 3):
            r = kf_ruled_ratio(0, 1, 1, 1 + 3 * k, -k)
            assert r.ratio == F(-1, 8 * k * k)
            assert r.blowup_class == (8 * k + 3, 1)
            pipeline = required_ratio(make_spec(2, 8 * k + 3, 3))
            assert pipeline == r.ratio

    def test_blowup_class_string(self):
        r = kf_ruled_ratio(0, 1, 1, 4, -1)
        assert r.blowup_class_str == "11*H - 1*E"

    def test_higher_genus(self):
        r = kf_ruled_ratio(2, 2, 1, 5, 1)
        assert r.ratio == F(-1, 3)
        assert r.blowup_class is None

    def test_no_blowup_class_off_subfamily(self):
        assert kf_ruled_ratio(1, 1, 1, 4, -1).blowup_class is None
        assert kf_ruled_ratio(0, 2, 1, 4, -1).blowup_class is None

    def test_validation(self):
        with pytest.raises(ValueError):
            kf_ruled_ratio(-1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            kf_ruled_ratio(0, 0, 1, 1, 1)
        with pytest.raises(ValueError):
            kf_ruled_ratio(0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            kf_ruled_ratio(0, 1, 1, F(1, 2), 1)


class TestReport:
    def test_headline_report(self):
        rep = build_report(make_spec(2, 11, 3), alpha0=1, alpha1=1)
        assert rep.boundary_term == F(1, 3)
        assert rep.bulk_term == F(4, 3)
        assert rep.required_ratio == F(-1, 8)
        assert rep.closed_form_match is True
        assert rep.character == F(3, 2)
        assert rep.verdict is Verdict.OBSTRUCTED_FOR_POSITIVE_ALPHA
        assert not rep.hypothesis_violated

    def test_report_without_weights(self):
        rep = build_report(make_spec(3, 3, 2))
        assert rep.required_ratio == F(-49, 18)
        assert rep.closed_form_match is True
        assert rep.character is None and rep.verdict is None

    def test_no_closed_form_above_three(self):
        rep = build_report(make_spec(4, 3, 2))
        assert rep.closed_form_match is None
        assert rep.closed_form_discrepancy is None
        assert rep.bulk_term != 0

    def test_discrepancy_notes(self):
        n2 = closed_form_discrepancy(2)
        assert "twice the assembled ratio" in n2
        assert "-1/(8*k^2)" in n2
        n3 = closed_form_discrepancy(3)
        assert "(b^3-b^2-b+1)" in n3
        assert "-49/18, not -49/66" in n3
        assert closed_form_discrepancy(4) is None

    def test_forced_report_flags_hypothesis(self):
        rep = build_report(make_spec(2, 1, 3, force=True))
        assert rep.hypothesis_violated and not rep.solvable
        assert rep.required_ratio == -2

    def test_json_dict(self):
        d = build_report(make_spec(2, 11, 3), alpha0=2, alpha1=F(-1, 4)).to_json_dict()
        assert d["required_ratio"] == "-1/8"
        assert d["required_ratio_float"] == -0.125
        assert d["verdict"] == "VanishesAtRatio"
        assert d["lambda"] == "8"
        assert d["character"] == "0"

    def test_json_dict_nullable_fields(self):
        d = build_report(make_spec(2, 3, 3)).to_json_dict()
        assert d["required_ratio"] is None
        assert d["alpha0"] is None and d["verdict"] is None


class TestAxisSymmetryGuard:
    def test_all_axes_agree(self):
        p2 = standard_blowup_polytope(2, 3)
        s2 = make_spec(2, 11, 3)
        vals_bd = {classical_futaki_axis(p2, i) for i in range(2)}
        vals_bk = {bulk_axis(s2, i, p2) for i in range(2)}
        assert vals_bd == {F(1, 3)} and vals_bk == {F(4, 3)}
        p3 = standard_blowup_polytope(3, 2)
        s3 = make_spec(3, 3, 2)
        assert {classical_futaki_axis(p3, i) for i in range(3)} == {F(1, 12)}
        assert {bulk_axis(s3, i, p3) for i in range(3)} == {F(3, 196)}


class TestSlabMemo:
    """The memoized b-determined terms against the generic per-axis path."""

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 5),
        a=st.builds(Fraction, st.integers(1, 30), st.integers(1, 4)),
        b=st.builds(lambda p, q: 1 + Fraction(p, q), st.integers(1, 12), st.integers(1, 4)),
        same=st.booleans(),
    )
    @example(n=2, a=F(3), b=F(3), same=False)
    @example(n=3, a=F(5, 2), b=F(5, 2), same=True)
    @example(n=2, a=F(3, 2), b=F(3), same=False)
    @example(n=4, a=F(1), b=F(2), same=False)
    def test_memo_matches_generic_axes(self, n, a, b, same):
        spec = make_spec(n, b if same else a, b, force=True)
        P = standard_blowup_polytope(n, b)
        slab = _slab_terms(n, spec.b)
        bd, bk = _axis_terms(spec)
        assert len(slab) == n
        for i, (affine, boundary) in enumerate(slab):
            assert affine == normalized_affine(P, i)
            assert boundary == classical_futaki_axis(P, i) == bd
            assert bulk_axis(spec, i, P) == bk

    def test_b_spelling_does_not_matter(self):
        _slab_terms.cache_clear()
        docs = [
            build_report(make_spec(2, 11, b), 2, F(-1, 4)).to_json_dict()
            for b in (3, "6/2", F(3))
        ]
        assert docs[0] == docs[1] == docs[2]
        info = _slab_terms.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_cache_stays_bounded(self):
        _slab_terms.cache_clear()
        for k in range(SLAB_CACHE_SIZE + 5):
            _slab_terms(2, 1 + F(k + 1, 7))
        info = _slab_terms.cache_info()
        assert info.maxsize == SLAB_CACHE_SIZE
        assert info.currsize == SLAB_CACHE_SIZE
        assert info.misses == SLAB_CACHE_SIZE + 5

    @pytest.mark.parametrize("b", [F(1), F(1, 2), F(-3)])
    def test_degenerate_b_raises_every_time_and_is_not_cached(self, b):
        _slab_terms.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="must exceed 1") as exc:
                _slab_terms(2, b)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert _slab_terms.cache_info().currsize == 0


class TestTwoParameterClasses:
    def test_reduces_to_normalized_family(self):
        out = two_parameter_ratio(2, kahler=(3, 1), bundle=(11, 1))
        assert out["experimental"] is True
        assert out["reduced_a"] == "11" and out["reduced_b"] == "3"
        assert out["scale"] == "1"
        assert out["required_ratio"] == "-1/8"

    @pytest.mark.parametrize("n, kahler, bundle, ratio", [
        (2, (6, 2), (11, 1), F(-1, 4)),
        (2, (9, 3), (22, 2), F(-3, 32)),
        (2, (5, 1), (12, 3), F(-8, 3)),
        (3, (4, 2), (9, 3), F(-49, 81)),
    ], ids=["n2-6H2E-11H1E", "n2-9H3E-22H2E", "n2-5H1E-12H3E", "n3-4H2E-9H3E"])
    def test_scaling_covariance_against_independent_slab(self, n, kahler, bundle, ratio):
        # The reduction rescales both classes to exceptional size 1; here the
        # ratio is recomputed on the unreduced slab {x >= 0, e_k <= X <= h_k},
        # with the profile f(X) = Abar*X + Bbar*X^(1-n) taking e_k to e_b and
        # h_k to h_b, whose minor sum is binom(n, 2)*(Abar^2 - Bbar^2*X^(-2n)).
        assert two_parameter_ratio(n, kahler, bundle)["required_ratio"] == str(ratio)
        (hk, ek), (hb, eb) = [(F(h), F(e)) for h, e in (kahler, bundle)]
        hs = [HalfSpace(tuple(int(j == i) for j in range(n)), F(0)) for i in range(n)]
        Q = DelzantPolytope(n, hs + [HalfSpace((1,) * n, -ek), HalfSpace((-1,) * n, hk)])
        # Cramer's rule for Abar*t + Bbar*t^(1-n) = f(t) at t = e_k, h_k.
        det = ek * hk ** (1 - n) - hk * ek ** (1 - n)
        Abar = (eb * hk ** (1 - n) - hb * ek ** (1 - n)) / det
        Bbar = (ek * hb - hk * eb) / det
        assert Abar * ek + Bbar * ek ** (1 - n) == eb
        assert Abar * hk + Bbar * hk ** (1 - n) == hb

        pairs = n * (n - 1) // 2
        minor = RadialSum(n, [(MultiPoly.constant(n, pairs * Abar**2), 0),
                              (MultiPoly.constant(n, -pairs * Bbar**2), -2 * n)])
        x1 = MultiPoly.variable(n, 0)
        c = -integrate_poly(Q, x1) / volume(Q)
        bulk = integrate_radial_slab(n, ek, hk, minor.mul_poly(x1 + c))
        assert bulk.q1 == 0
        assert -classical_futaki_axis(Q, 0) / (2 * bulk.q0) == ratio

    def test_class_validation(self):
        with pytest.raises(ValueError):
            two_parameter_ratio(2, kahler=(1, 1), bundle=(11, 1))
        with pytest.raises(ValueError):
            two_parameter_ratio(2, kahler=(3, 1), bundle=(3, -1))
        with pytest.raises(ValueError):
            two_parameter_ratio(2, kahler=(2, 3), bundle=(11, 1))

    def test_unsolvable_reduction_propagates(self):
        # Reduced parameters (a, b) = (3/2, 3) fail the slope bound.
        from toricfutaki.family import UnsolvableClassError

        with pytest.raises(UnsolvableClassError):
            two_parameter_ratio(2, kahler=(3, 1), bundle=(3, 2))


class TestInconsistencyGuard:
    def test_is_assertion_subclass(self):
        assert issubclass(InconsistencyError, AssertionError)
