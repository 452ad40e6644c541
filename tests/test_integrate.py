"""Exact body, facet, and radial-slab integrals, plus the MC oracle."""

import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest

from toricfutaki import integrate
from toricfutaki.exactnum import LogLinear, MultiPoly, RadialSum
from toricfutaki.integrate import (
    MAX_MC_SAMPLES,
    MC_BLOCK,
    MC_SEED_BOUND,
    MCResult,
    c_constant,
    facet_sigma,
    integrate_poly,
    integrate_poly_boundary,
    integrate_poly_facet,
    integrate_radial,
    integrate_radial_slab,
    mc_integrate,
    mc_integrate_many,
    monomial_simplex_integral,
    sigma_simplex_measure,
    slab_bounds,
    volume,
)
from toricfutaki.polytope import DelzantPolytope, HalfSpace, Simplex, standard_blowup_polytope


def F(x, y=1):
    return Fraction(x, y)


def unit_box(n: int) -> DelzantPolytope:
    hs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        hs.append(HalfSpace(e, Fraction(0)))
        hs.append(HalfSpace(tuple(-c for c in e), Fraction(1)))
    return DelzantPolytope(n, hs)


def slab(n: int, lo, hi) -> DelzantPolytope:
    hs = [
        HalfSpace(tuple(1 if j == i else 0 for j in range(n)), Fraction(0))
        for i in range(n)
    ]
    hs.append(HalfSpace(tuple([1] * n), -Fraction(lo)))
    hs.append(HalfSpace(tuple([-1] * n), Fraction(hi)))
    return DelzantPolytope(n, hs)


class TestBodyIntegrals:
    def test_volumes(self):
        assert volume(standard_blowup_polytope(2, 3)) == 4
        assert volume(standard_blowup_polytope(3, 2)) == F(7, 6)
        assert volume(unit_box(3)) == 1

    def test_coordinate_moments(self):
        p2 = standard_blowup_polytope(2, 3)
        assert integrate_poly(p2, MultiPoly.variable(2, 0)) == F(13, 3)
        p3 = standard_blowup_polytope(3, 2)
        assert integrate_poly(p3, MultiPoly.variable(3, 0)) == F(5, 8)

    def test_dirichlet_on_unit_triangle(self):
        tri = DelzantPolytope(
            2,
            [
                HalfSpace((1, 0), Fraction(0)),
                HalfSpace((0, 1), Fraction(0)),
                HalfSpace((-1, -1), Fraction(1)),
            ],
        )
        x1x2 = MultiPoly(2, {(1, 1): Fraction(1)})
        assert integrate_poly(tri, x1x2) == F(1, 24)

    def test_linearity(self):
        p = standard_blowup_polytope(2, 3)
        f = MultiPoly(2, {(2, 0): F(1), (0, 1): F(-2)})
        g = MultiPoly(2, {(1, 1): F(1, 3)})
        assert integrate_poly(p, f + g) == integrate_poly(p, f) + integrate_poly(p, g)
        assert integrate_poly(p, 5 * f) == 5 * integrate_poly(p, f)

    def test_constant_coerced(self):
        p = standard_blowup_polytope(2, 3)
        assert integrate_poly(p, F(1, 2)) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_poly(standard_blowup_polytope(2, 3), MultiPoly.variable(3, 0))

    def test_translation_covariance(self):
        p = standard_blowup_polytope(2, 3)
        t = (F(1, 2), F(-2))
        q = p.translate(t)
        f = MultiPoly(2, {(2, 1): F(1), (1, 0): F(-1, 3)})
        assert integrate_poly(q, f) == integrate_poly(p, f.shift(t))


class TestFacetIntegrals:
    def test_segment_measures(self):
        # {x >= 0, 1 <= x1+x2 <= 3}: axis facets have lattice length 2,
        # the inner diagonal 1, the outer 3.
        p = standard_blowup_polytope(2, 3)
        assert [facet_sigma(p, i) for i in range(4)] == [2, 2, 1, 3]

    def test_facet_moments(self):
        p = standard_blowup_polytope(2, 3)
        x1 = MultiPoly.variable(2, 0)
        assert integrate_poly_facet(p, 1, x1) == 4
        assert integrate_poly_facet(p, 2, x1) == F(1, 2)
        assert integrate_poly_facet(p, 3, x1) == F(9, 2)

    def test_boundary_totals(self):
        p2 = standard_blowup_polytope(2, 3)
        assert integrate_poly_boundary(p2, 1) == 8
        assert integrate_poly_boundary(p2, MultiPoly.variable(2, 0)) == 9
        p3 = standard_blowup_polytope(3, 2)
        assert integrate_poly_boundary(p3, 1) == 7
        assert integrate_poly_boundary(p3, MultiPoly.variable(3, 0)) == F(23, 6)

    def test_inner_facet_n3(self):
        p = standard_blowup_polytope(3, 2)
        x1 = MultiPoly.variable(3, 0)
        assert facet_sigma(p, 3) == F(1, 2)
        assert integrate_poly_facet(p, 3, x1) == F(1, 6)

    def test_transversal_independence(self):
        p = standard_blowup_polytope(2, 3)
        x1 = MultiPoly.variable(2, 0)
        for i in range(4):
            base = integrate_poly_facet(p, i, x1)
            v = p.halfspaces[i].v
            for w in [(1, 0), (0, 1), (1, 2), (3, -1), (-2, 5)]:
                if sum(a * b for a, b in zip(v, w)) == 0:
                    continue
                assert integrate_poly_facet(p, i, x1, transversal=w) == base

    def test_non_transversal_rejected(self):
        p = standard_blowup_polytope(2, 3)
        with pytest.raises(ValueError):
            integrate_poly_facet(p, 2, 1, transversal=(1, -1))

    def test_boundary_translation_covariance(self):
        p = standard_blowup_polytope(2, 3)
        t = (F(2), F(1, 3))
        q = p.translate(t)
        f = MultiPoly(2, {(1, 1): F(1), (0, 0): F(-1)})
        assert integrate_poly_boundary(q, f) == integrate_poly_boundary(p, f.shift(t))

    def test_sigma_simplex_measure(self):
        seg = Simplex(((F(0), F(1)), (F(1), F(0))))
        assert sigma_simplex_measure(seg, (1, 1), (1, 0)) == 1
        assert sigma_simplex_measure(seg, (1, 1), (0, 7)) == 1
        with pytest.raises(ValueError):
            sigma_simplex_measure(seg, (1, 1), (1, -1))
        full = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
        with pytest.raises(ValueError):
            sigma_simplex_measure(full, (1, 1), (1, 0))

    def test_monomial_simplex_integral_constant(self):
        seg = Simplex(((F(0), F(1)), (F(0), F(3))))
        one = MultiPoly.constant(2, 1)
        assert monomial_simplex_integral(seg, one, F(5)) == 5


class TestCenteringConstant:
    def test_examples(self):
        assert c_constant(standard_blowup_polytope(2, 3), 0) == F(-13, 12)
        assert c_constant(standard_blowup_polytope(3, 2), 0) == F(-15, 28)
        assert c_constant(unit_box(3), 1) == F(-1, 2)

    def test_centering_property(self):
        p = standard_blowup_polytope(2, 3)
        c = c_constant(p, 0)
        centered = MultiPoly.variable(2, 0) + c
        assert integrate_poly(p, centered) == 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            c_constant(standard_blowup_polytope(2, 3), 2)

    def test_one_triangulation(self, monkeypatch):
        P = standard_blowup_polytope(3, 2)
        calls = []
        triangulate = DelzantPolytope.triangulate

        def counted(self):
            calls.append(self)
            return triangulate(self)

        monkeypatch.setattr(DelzantPolytope, "triangulate", counted)
        assert c_constant(P, 0) == F(-15, 28)
        assert calls == [P]


class TestExpansionBudget:
    # On P(2, 3): x1^2 + x2 expands to C(4, 2) + C(3, 2) = 9 monomials on
    # each of the 2 triangles, and to C(3, 1) + C(2, 1) = 5 on each of the 4
    # boundary segments; x1 expands to C(3, 2) = 3 per triangle.
    @pytest.mark.parametrize("call, degree, size, simplices, exact", [
        (lambda P, q: integrate_poly(P, q), 2, 18, 2, F(11)),
        (lambda P, q: integrate_poly_facet(P, 0, q), 2, 5, 1, F(4)),
        (lambda P, q: integrate_poly_boundary(P, q), 2, 20, 4, F(27)),
        (lambda P, q: c_constant(P, 0), 1, 6, 2, F(-13, 12)),
    ], ids=["body", "facet", "boundary", "c_constant"])
    def test_refused_before_any_moment(self, monkeypatch, call, degree, size, simplices,
                                       exact):
        P = standard_blowup_polytope(2, 3)
        q = MultiPoly.variable(2, 0) ** 2 + MultiPoly.variable(2, 1)
        monkeypatch.setattr(integrate, "MAX_EXPANSION_TERMS", size)
        assert call(P, q) == exact
        monkeypatch.setattr(integrate, "MAX_EXPANSION_TERMS", size - 1)

        def fail(*args):
            raise AssertionError("no moment may be computed")

        monkeypatch.setattr(integrate, "monomial_simplex_integral", fail)
        message = (f"integrand of degree {degree} expands to {size} monomials over "
                   f"{simplices} simplices, over the budget of {size - 1}")
        with pytest.raises(ValueError, match=re.escape(message)):
            call(P, q)

    def test_default_budget(self, monkeypatch):
        def fail(*args):
            raise AssertionError("no moment may be computed")

        monkeypatch.setattr(integrate, "monomial_simplex_integral", fail)
        with pytest.raises(ValueError, match="integrand of degree 40 expands to 37023 "
                           "monomials over 3 simplices, over the budget of 5000"):
            integrate_poly(standard_blowup_polytope(3, 2), MultiPoly.variable(3, 0) ** 40)


class TestRadialSlab:
    def test_constant_gives_volume(self):
        assert integrate_radial(2, 3, RadialSum.constant(2, 1)) == LogLinear(F(4))
        assert integrate_radial(3, 2, RadialSum.constant(3, 1)) == LogLinear(F(7, 6))

    def test_negative_power_example(self):
        x1 = MultiPoly.variable(2, 0)
        r = RadialSum(2, [(x1, -4)])
        assert integrate_radial(2, 3, r) == LogLinear(F(1, 3))

    def test_log_term(self):
        r = RadialSum.constant(2, 1, k=-2)
        assert integrate_radial(2, 3, r) == LogLinear(F(0), F(1))
        r3 = RadialSum.constant(3, 1, k=-3)
        assert integrate_radial(3, 2, r3) == LogLinear(F(0), F(1, 2))

    def test_matches_body_integral_for_polynomials(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        r = RadialSum(2, [(x1, 2), (x1 * x2, 0), (MultiPoly.constant(2, 3), 1)])
        got = integrate_radial(2, 3, r)
        assert got.q1 == 0
        assert got.q0 == integrate_poly(standard_blowup_polytope(2, 3), r.to_poly())

    def test_general_slab(self):
        p = slab(2, 2, 6)
        assert slab_bounds(p) == (F(2), F(6))
        assert volume(p) == 16
        assert integrate_radial_slab(2, 2, 6, RadialSum.constant(2, 1)) == LogLinear(F(16))

    def test_slab_detection_negative(self):
        assert slab_bounds(unit_box(2)) is None
        assert slab_bounds(standard_blowup_polytope(2, 3)) == (F(1), F(3))

    def test_slab_detection_in_dimension_one(self):
        # x >= 0 is redundant on {2 <= x <= 5} and pruned, yet it is a slab.
        bounds = [HalfSpace((1,), F(-2)), HalfSpace((-1,), F(5))]
        interval = DelzantPolytope(1, [HalfSpace((1,), F(0)), *bounds])
        assert interval.halfspaces == tuple(bounds)
        assert slab_bounds(interval) == (F(2), F(5))
        assert slab_bounds(standard_blowup_polytope(1, 3)) == (F(1), F(3))
        # {-1 <= x <= 5} meets x < 0, so it is not {x >= 0, lo <= x <= hi}.
        straddling = DelzantPolytope(1, [HalfSpace((1,), F(1)), HalfSpace((-1,), F(5))])
        assert slab_bounds(straddling) is None

    def test_bound_validation(self):
        r = RadialSum.constant(2, 1)
        with pytest.raises(ValueError):
            integrate_radial_slab(2, 3, 1, r)
        with pytest.raises(ValueError):
            integrate_radial_slab(2, 0, 3, r)
        with pytest.raises(ValueError):
            integrate_radial_slab(3, 1, 3, r)


def _reference_mc(P, f, samples, seed, block):
    """``mc_integrate`` kept simple: every per-sample value in one array,
    ``np.sum`` over each block of ``block`` indices, ``math.fsum`` across."""
    import numpy as np

    n = P.n
    draws = 4 * ((n + 3) // 4)
    u = np.random.Generator(np.random.Philox(key=seed)).random((samples, draws))
    mins, maxs = P.bounding_box()
    lo = np.array([float(v) for v in mins])
    widths = np.array([float(b) - float(a) for a, b in zip(mins, maxs)])
    pts = lo + u[:, :n] * widths
    inside = np.ones(samples, dtype=bool)
    for h in P.halfspaces:
        value = np.zeros(samples)
        for j, c in enumerate(h.v):
            value = value + pts[:, j] * float(c)
        inside &= value + float(h.lam) >= 0.0
    y = np.zeros(samples)
    y[inside] = f(pts[inside])
    blocks = [y[k : k + block] for k in range(0, samples, block)]
    mean = math.fsum(float(b.sum()) for b in blocks) / samples
    var = max(math.fsum(float((b * b).sum()) for b in blocks) / samples - mean * mean, 0.0)
    vol = float(np.prod(widths))
    return MCResult(vol * mean, vol * math.sqrt(var / samples), samples, int(inside.sum()), seed)


# A polygon whose box starts off the origin and whose normals have zero entries.
_TRAPEZOID = DelzantPolytope(
    2,
    [
        HalfSpace((1, 0), Fraction(-1)),
        HalfSpace((0, 1), Fraction(1)),
        HalfSpace((0, -1), Fraction(1)),
        HalfSpace((-1, -1), Fraction(4)),
    ],
)


# Recorded results: any change to the Philox stream, the accept test or the
# block reduction shows up as a different bit pattern.
_PINNED = [
    (2, "3", "volume", 1000, 1,
     "0x1.f76c8b4395810p+1", "0x1.211ce2fc58b72p-3", 437),
    (3, "5/2", "x1", MC_BLOCK, 7,
     "0x1.a76beebf216fep+0", "0x1.b9682d5bf6928p-6", 5219),
    (5, "7/3", "radial", 3 * MC_BLOCK + 17, 11,
     "0x1.a052d7468b1b2p-10", "0x1.0030b311daa73p-12", 801),
    (2, "3", "radial", 3 * MC_BLOCK + 17, 42,
     "0x1.5629012fc2b22p-2", "0x1.4a40f239d951ap-9", 43835),
    (3, "2", "volume", 3 * MC_BLOCK + 17, 1009,
     "0x1.2cd2aeac445fap+0", "0x1.27f1e18ea68efp-7", 14442),
    (5, "3", "x1", 1000, 2**32 - 1,
     "0x1.4c6485c500401p+0", "0x1.1e5861c32364dp-1", 8),
    (5, "5/2", "volume", MC_BLOCK, 3,
     "0x1.95e2400000000p-1", "0x1.8c8fd63c22b7cp-5", 266),
]
_PINNED_ARGS = "n, b, integrand, samples, seed, estimate, stderr, accepted"


def _pinned_call(n, b, integrand, samples, seed):
    x1 = MultiPoly.variable(n, 0)
    f = {
        "volume": MultiPoly.constant(n, 1),
        "x1": x1,
        "radial": RadialSum.from_poly(x1, -2 * n),
    }[integrand].eval_array
    return mc_integrate(standard_blowup_polytope(n, b), f, samples=samples, seed=seed)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "polytope, f",
        [
            (standard_blowup_polytope(3, F(5, 2)),
             RadialSum.from_poly(MultiPoly.variable(3, 0), -6).eval_array),
            (_TRAPEZOID, MultiPoly.variable(2, 1).eval_array),
            # Values spanning 30 decades, so another grouping of the sums shows.
            (standard_blowup_polytope(2, 3), lambda a: 10.0 ** (10 * a[:, 0])),
        ],
    )
    def test_equals_reference_block_reduction(self, monkeypatch, polytope, f):
        # Each block of 7 spans chunks of 3, 3 and 1; the last block is 3.
        monkeypatch.setattr(integrate, "MC_BLOCK", 7)
        monkeypatch.setattr(integrate, "MC_CHUNK", 3)
        samples = 7 * 50 + 3
        ref = _reference_mc(polytope, f, samples, 3, block=7)
        assert 0 < ref.accepted < samples
        assert mc_integrate(polytope, f, samples=samples, seed=3) == ref

    @pytest.mark.parametrize(_PINNED_ARGS, _PINNED)
    def test_pinned_results(self, n, b, integrand, samples, seed, estimate, stderr, accepted):
        res = _pinned_call(n, b, integrand, samples, seed)
        assert res == MCResult(
            float.fromhex(estimate), float.fromhex(stderr), samples, accepted, seed
        )

    @pytest.mark.parametrize("n, b, integrand, samples, seed", [c[:5] for c in _PINNED])
    def test_one_worker_equals_two(self, monkeypatch, n, b, integrand, samples, seed):
        two = _pinned_call(n, b, integrand, samples, seed)
        monkeypatch.setattr(integrate, "MC_WORKERS", 1)
        assert _pinned_call(n, b, integrand, samples, seed) == two

    def test_memory_is_one_block(self):
        p = standard_blowup_polytope(5, F(7, 3))
        f = RadialSum.from_poly(MultiPoly.variable(5, 0), -10).eval_array
        mc_integrate(p, f, samples=1000, seed=1)  # imports numpy outside the trace

        def peak(samples):
            tracemalloc.start()
            try:
                mc_integrate(p, f, samples=samples, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(2_000_000)
        assert large < 8 * 2**20
        assert abs(large - small) < 2**20

    def test_agreement_with_exact(self):
        p = standard_blowup_polytope(2, 3)
        x1 = MultiPoly.variable(2, 0)
        res = mc_integrate(p, x1.eval_array, samples=200_000, seed=42)
        assert res.agrees_with(float(F(13, 3)))
        assert not res.agrees_with(10.0)

    def test_no_acceptance_raises(self):
        thin = DelzantPolytope(
            2,
            [
                HalfSpace((1, 0), Fraction(0)),
                HalfSpace((0, 1), Fraction(0)),
                HalfSpace((1, 1), Fraction(-1)),
                HalfSpace((-1, -1), Fraction(1001, 1000)),
            ],
        )
        with pytest.raises(ValueError, match="no sample"):
            mc_integrate(thin, lambda a: a[:, 0], samples=1, seed=0)

    def test_argument_validation(self):
        p = standard_blowup_polytope(2, 3)
        with pytest.raises(ValueError):
            mc_integrate(p, lambda a: a[:, 0], samples=0, seed=1)
        with pytest.raises(ValueError):
            mc_integrate(p, lambda a: a[:, 0], samples=10, seed=-1)
        with pytest.raises(ValueError):
            mc_integrate(p, lambda a: a, samples=100, seed=1)
        with pytest.raises(ValueError):
            mc_integrate(p, lambda a: a[:, 0], samples=MAX_MC_SAMPLES + 1, seed=1)

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        p = standard_blowup_polytope(3, F(5, 2))
        f = RadialSum.from_poly(MultiPoly.variable(3, 0), -6).eval_array
        monkeypatch.setattr(integrate, "MC_BLOCK", 1000)
        monkeypatch.setattr(integrate, "MC_CHUNK", 300)
        monkeypatch.setattr(integrate, "MC_WORKERS", 1)
        one = mc_integrate(p, f, samples=40_017, seed=5)
        monkeypatch.setattr(integrate, "MC_WORKERS", 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = [mc_integrate(p, f, samples=40_017, seed=5) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert many == [one] * 3

    def test_seed_bound(self):
        p = standard_blowup_polytope(2, 3)
        res = mc_integrate(p, lambda a: a[:, 0], samples=10, seed=MC_SEED_BOUND - 1)
        assert res.seed == 2**128 - 1
        with pytest.raises(ValueError, match=rf"below 2\*\*128, got {2**128}$"):
            mc_integrate(p, lambda a: a[:, 0], samples=10, seed=MC_SEED_BOUND)

    def test_no_thread_outlives_a_call(self):
        p = standard_blowup_polytope(3, 2)
        before = threading.active_count()
        mc_integrate(p, lambda a: a[:, 0], samples=3 * MC_BLOCK, seed=1)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="one value per input point"):
            mc_integrate(p, lambda a: a, samples=3 * MC_BLOCK, seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_errors_reach_the_caller(self, monkeypatch, workers):
        monkeypatch.setattr(integrate, "MC_WORKERS", workers)
        p = standard_blowup_polytope(3, 2)
        calls = []

        def fails_late(a):
            calls.append(len(a))
            if len(calls) == 6:
                raise ValueError("integrand failed")
            return a[:, 0]

        before = threading.active_count()
        with pytest.raises(ValueError, match="integrand failed"):
            mc_integrate(p, fails_late, samples=40 * MC_BLOCK, seed=1)
        # Only the sixth call raises.  The other worker finishes at most the
        # block it is in and one it had just started, then stops instead of
        # reducing the rest of its 20 blocks.
        assert len(calls) <= 6 + 2 * (MC_BLOCK // integrate.MC_CHUNK)
        with pytest.raises(ValueError, match="one value per input point"):
            mc_integrate(p, lambda a: a[:-1, 0], samples=4 * MC_BLOCK, seed=1)
        assert threading.active_count() == before

    def test_agrees_with_exact_zero_stderr(self):
        r = MCResult(estimate=4.0, stderr=0.0, samples=1, accepted=1, seed=0)
        assert r.agrees_with(4.0)
        assert not r.agrees_with(4.1)


def _three_integrands(n):
    x1 = MultiPoly.variable(n, 0)
    return [MultiPoly.constant(n, 1).eval_array, x1.eval_array,
            RadialSum.from_poly(x1, -2 * n).eval_array]


class TestMonteCarloMany:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, b, samples, seed", [(c[0], c[1], c[3], c[4]) for c in _PINNED])
    def test_each_result_equals_a_separate_call(self, monkeypatch, workers, n, b, samples, seed):
        monkeypatch.setattr(integrate, "MC_WORKERS", workers)
        P = standard_blowup_polytope(n, b)
        fs = _three_integrands(n)
        many = mc_integrate_many(P, fs, samples=samples, seed=seed)
        assert many == tuple(mc_integrate(P, f, samples=samples, seed=seed) for f in fs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_blocks_equal_separate_calls_and_the_reference(self, monkeypatch, workers):
        # Each block of 7 spans chunks of 3, 3 and 1; the last block is 3.
        monkeypatch.setattr(integrate, "MC_BLOCK", 7)
        monkeypatch.setattr(integrate, "MC_CHUNK", 3)
        monkeypatch.setattr(integrate, "MC_WORKERS", workers)
        P = standard_blowup_polytope(2, 3)
        # Values spanning 30 decades, so another grouping of the sums shows.
        fs = [*_three_integrands(2), lambda a: 10.0 ** (10 * a[:, 0])]
        samples = 7 * 50 + 3
        many = mc_integrate_many(P, fs, samples=samples, seed=3)
        assert many == tuple(mc_integrate(P, f, samples=samples, seed=3) for f in fs)
        assert many == tuple(_reference_mc(P, f, samples, 3, block=7) for f in fs)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_integrand_errors_reach_the_caller(self, monkeypatch, workers, bad_first):
        monkeypatch.setattr(integrate, "MC_WORKERS", workers)
        p = standard_blowup_polytope(3, 2)
        good = MultiPoly.variable(3, 0).eval_array
        calls = []

        def fails_late(a):
            calls.append(len(a))
            if len(calls) == 6:
                raise ValueError("integrand failed")
            return a[:, 0]

        def order(bad):
            return (bad, good) if bad_first else (good, bad)

        before = threading.active_count()
        with pytest.raises(ValueError, match="integrand failed"):
            mc_integrate_many(p, order(fails_late), samples=40 * MC_BLOCK, seed=1)
        assert len(calls) <= 6 + 2 * (MC_BLOCK // integrate.MC_CHUNK)
        for wrong in (lambda a: a, lambda a: a[:-1, 0]):
            with pytest.raises(ValueError, match="one value per input point"):
                mc_integrate_many(p, order(wrong), samples=4 * MC_BLOCK, seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("writer_first", [True, False])
    def test_points_are_read_only(self, writer_first):
        p = standard_blowup_polytope(2, 3)

        def writes(a):
            a[:, 0] = 0.0
            return a[:, 0]

        good = MultiPoly.variable(2, 0).eval_array
        fs = (writes, good) if writer_first else (good, writes)
        with pytest.raises(ValueError, match="read-only"):
            mc_integrate_many(p, fs, samples=1000, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            mc_integrate(p, writes, samples=1000, seed=1)

    def test_no_integrand_refused(self):
        with pytest.raises(ValueError, match="at least one integrand"):
            mc_integrate_many(standard_blowup_polytope(2, 3), [], samples=10, seed=1)
