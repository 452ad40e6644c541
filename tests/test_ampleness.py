"""Ampleness cone inequalities and the twist infeasibility scan."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import product
from random import Random

import numpy as np
import pytest

from toricfutaki import ampleness
from toricfutaki.ampleness import (
    LOG3,
    ScanResult,
    _cone_flags,
    _cone_values,
    _DRAW_RANGES,
    _pair_blocks,
    _random_draws,
    check_from_m,
    infeasibility_scan,
)
from toricfutaki.exactnum import format_rational


def scan_marginal(res) -> bool:
    """The scan's marginal rule: infeasible, and every failing inequality
    exactly zero."""
    return not res.feasible and all(h or m for h, m in zip(res.holds, res.marginal))


def reference_scan(grid_bound: int, random_samples: int, seed: int) -> ScanResult:
    """The scan pair by pair: one Fraction pair and one ``check_from_m`` per
    pair.  The vectorized scan must equal it exactly."""
    feasible, marginal = [], []
    checked = 0

    def visit(m1, m2):
        nonlocal checked
        checked += 1
        res = check_from_m(m1, m2)
        key = (format_rational(m1), format_rational(m2))
        if res.feasible:
            feasible.append(key)
        elif scan_marginal(res):
            marginal.append(key)

    for i in range(-grid_bound, grid_bound + 1):
        for j in range(-grid_bound, grid_bound + 1):
            if i == 0 and j == 0:
                continue
            visit(Fraction(i), Fraction(j))
    rng = Random(seed)
    for _ in range(random_samples):
        m1 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        m2 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        if m1 == 0 and m2 == 0:
            continue
        visit(m1, m2)
    return ScanResult(checked, tuple(feasible), tuple(marginal), grid_bound, random_samples, seed)


# Module constants the scan reads when called.  log3 replaced by 1/4 or 9
# opens the cone window, so feasible pairs exist (m1 > 0 and m2/m1 above
# 2/(2 + log3) at 1/4, or in (2/11, 0.29) at 9); at 1/4 the pairs (0, m2 > 0)
# fail only the second inequality, exactly zero, so they are marginal.
CONSTANTS = [{}, {"LOG3": 0.25}, {"LOG3": 9.0}]


@pytest.fixture(params=CONSTANTS, ids=["default", "log3=1/4", "log3=9"])
def constants(request, monkeypatch):
    for name, value in request.param.items():
        monkeypatch.setattr(ampleness, name, value)
    return request.param


class TestCoefficients:
    # Frozen from (m1 + m2*log3)/(2 + 3*log3) and (2*m2 - 3*m1)/(2 + 3*log3)
    # at IEEE double precision with log3 = math.log(3).
    def test_frozen_values(self):
        c = check_from_m(1, 0)
        assert math.isclose(c.a, 0.18882756876808648, rel_tol=1e-15)
        assert math.isclose(c.b, -0.5664827063042595, rel_tol=1e-15)
        c = check_from_m(0, 1)
        assert math.isclose(c.a, 0.20744828748794236, rel_tol=1e-15)
        assert math.isclose(c.b, 0.37765513753617297, rel_tol=1e-15)
        c = check_from_m(1, 1)
        denom = 2 + 3 * LOG3
        assert math.isclose(c.a, (1 + LOG3) / denom, rel_tol=1e-15)
        assert math.isclose(c.b, -1 / denom, rel_tol=1e-15)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            check_from_m(0.5, 1)


class TestNakaiCheck:
    def test_known_ample_class(self, monkeypatch):
        # (-1, 1) passes the first and third inequalities and fails the
        # second, which needs m1 > 0.
        res = check_from_m(-1, 1)
        assert res.holds == (True, False, True)
        assert res.values[0] > 0 and res.values[2] > 0
        assert not any(res.marginal) and not res.feasible
        # With log3 replaced by 1/4 the window opens and (1, 18) is ample.
        monkeypatch.setattr(ampleness, "LOG3", 0.25)
        res = check_from_m(1, 18)
        assert res.feasible and res.holds == (True, True, True)
        assert not any(res.marginal)

    def test_knife_edge_pair(self):
        # m1 = 0 zeroes the second inequality exactly; the third fails by a
        # wide margin.
        res = check_from_m(0, 1)
        assert res.values[1] == pytest.approx(0.0, abs=1e-15)
        assert res.marginal == (False, True, False)
        assert not res.holds[1]
        assert not res.holds[2]
        assert not res.feasible

    @pytest.mark.parametrize("m2", [23, 25, 27, 29, 37])
    def test_knife_edge_decided_on_the_pair(self, m2):
        # The float value of 2a - b*log3 rounds above zero here, but it
        # equals m1 = 0 exactly, so the strict inequality fails.
        res = check_from_m(0, m2)
        assert res.values[1] > 0.0
        assert not res.holds[1] and res.marginal[1]
        assert not res.holds[2] and not res.marginal[2]
        d = res.to_json_dict()["inequalities"][1]
        assert d["holds"] is False and d["marginal"] is True

    def test_tiny_pair_is_not_marginal(self):
        # All three left-hand sides are tiny but none is zero.
        res = check_from_m(Fraction(1, 10**13), 0)
        assert res.holds == (False, True, True)
        assert res.marginal == (False, False, False)
        assert not res.feasible

    def test_marginal_blocks_decisiveness_when_pivotal(self):
        # The origin is the one point where every inequality sits exactly on
        # its boundary; no failure is away from zero.
        res = check_from_m(0, 0)
        assert not res.feasible
        assert res.holds == (False, False, False)
        assert res.marginal == (True, True, True)
        assert scan_marginal(res)

    @pytest.mark.parametrize("scale", [Fraction(10**200), Fraction(1, 10**200)],
                             ids=["10^200", "10^-200"])
    def test_flags_kept_at_extreme_scales(self, scale):
        # The sides are homogeneous in (m1, m2), so scaling keeps every flag,
        # although the unscaled floats of the third side overflow or underflow.
        for i, j in product(range(-3, 4), repeat=2):
            base, far = check_from_m(i, j), check_from_m(i * scale, j * scale)
            assert (far.holds, far.marginal) == (base.holds, base.marginal), (i, j)

    @pytest.mark.parametrize("m1, m2, holds", [
        (Fraction(1, 10**200), 0, (False, True, True)),
        (Fraction(-1, 10**170), Fraction(1, 10**170), (True, False, True)),
        (Fraction(10**200), 0, (False, True, True)),
    ], ids=["underflow", "underflow-mixed", "overflow"])
    def test_out_of_float_range_sides(self, m1, m2, holds):
        # Side 3 is m1^2 (9 log3 - 4)/D^2 > 0 at (m1, 0); (-1, 1) holds it too.
        res = check_from_m(m1, m2)
        assert res.holds == holds and not any(res.marginal)
        assert not any(math.isnan(v) for v in (res.a, res.b, *res.values))
        assert res.values[2] == (math.inf if m1 > 1 else 0.0)

    def test_display_values_scale_exactly(self):
        # A power-of-two scaling is exact, so while every float stays normal
        # the values scale by 2^100 (degree 1) and 2^200 (degree 2).
        for i, j in product(range(-3, 4), repeat=2):
            base, far = check_from_m(i, j), check_from_m(i * 2**100, j * 2**100)
            assert (far.a, far.b) == (base.a * 2.0**100, base.b * 2.0**100)
            assert far.values == (base.values[0] * 2.0**100, base.values[1] * 2.0**100,
                                  base.values[2] * 2.0**200)

    def test_json_shape(self):
        d = check_from_m(2, 3).to_json_dict()
        assert d["m1"] == "2" and d["m2"] == "3"
        assert len(d["inequalities"]) == 3
        assert {"name", "value", "holds", "marginal"} <= set(d["inequalities"][0])
        assert d["feasible"] is False


def exact_sides(m1: Fraction, m2: Fraction, L: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The three left-hand sides in exact arithmetic at ``log3 = L``."""
    D = 2 + 3 * L
    a = (m1 + m2 * L) / D
    b = (2 * m2 - 3 * m1) / D
    return a + b, 2 * a - b * L, b * b * L - 4 * a * a


def exp_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Rational bounds ``lo < e < hi`` from the series ``sum 1/k!``: the
    terms are positive, and the tail after ``1/(terms-1)!`` is below
    ``2/terms!``."""
    lo, term = Fraction(0), Fraction(1)
    for k in range(terms):
        lo += term
        term /= k + 1
    return lo, lo + 2 * term


class TestExactIdentities:
    """The identities behind the exact rules, and the proof they give that
    the window is empty for every real pair."""

    @pytest.mark.parametrize("L", [Fraction(1, 4), Fraction(1), Fraction(11, 10),
                                   Fraction(6, 5), Fraction(9)])
    def test_identities(self, L):
        # After clearing D = 2 + 3L, each identity is a polynomial of degree
        # at most 3 in L, so agreement at these 5 values proves it in L.
        rng = Random(77)
        D = 2 + 3 * L
        for _ in range(200):
            m1 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            m2 = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            s1, s2, s3 = exact_sides(m1, m2, L)
            assert s1 * D == -2 * m1 + (2 + L) * m2
            assert s2 == m1
            assert s3 * D**2 == (-4 * m1**2 + (9 * m1**2 - 20 * m1 * m2 + 4 * m2**2) * L
                                 - 4 * m2**2 * L**2)

    def test_log3_bounds(self):
        # 1 < log 3 < 6/5: e < 3, and e**6 > 3**5 = 243.
        lo, hi = exp_bounds(12)
        assert hi < 3
        assert lo**6 > 243
        assert 1 < LOG3 < 1.2

    def test_window_is_empty_for_every_real_pair(self):
        # The second inequality holds iff m1 > 0.  Put t = m2/m1.  Dividing
        # the identities by m1 and m1**2, the first needs (2 + L)t > 2, so
        # t > 2/(2 + L) > 2/(2 + 6/5) = 5/8, and the third reads
        # 4L(1 - L)t**2 - 20Lt + 9L - 4 > 0.  With L > 1 and t > 0 the first
        # term is negative, so the left side is below L(9 - 20t) - 4, and
        # 9 - 20t < 9 - 20*5/8 < 0 makes that negative.
        L_hi = Fraction(6, 5)
        t_lo = 2 / (2 + L_hi)
        assert t_lo == Fraction(5, 8)
        assert 9 - 20 * t_lo < 0
        # Spot-check each step in exact arithmetic at rational L in (1, 6/5).
        rng = Random(5)
        for _ in range(500):
            L = 1 + Fraction(rng.randint(1, 999), 5000)
            m1 = Fraction(rng.randint(1, 999), rng.randint(1, 999))
            t = 2 / (2 + L) + Fraction(rng.randint(1, 10**6), rng.randint(1, 999))
            s1, s2, s3 = exact_sides(m1, t * m1, L)
            assert s1 > 0 and s2 > 0 and t > t_lo
            quadratic = 4 * L * (1 - L) * t**2 - 20 * L * t + 9 * L - 4
            assert s3 * (2 + 3 * L) ** 2 == quadratic * m1**2
            assert quadratic < L * (9 - 20 * t) - 4 < 0


class TestScan:
    def test_small_scan_finds_nothing(self):
        res = infeasibility_scan(grid_bound=12, random_samples=500, seed=42)
        assert res.all_infeasible
        assert res.feasible_pairs == ()
        assert res.checked == 25 * 25 - 1 + 500
        # The knife edge m1 = 0 also fails the third inequality, which is
        # nonzero there, so no pair is marginal.
        assert res.marginal_pairs == ()

    def test_scan_is_seed_reproducible(self):
        a = infeasibility_scan(grid_bound=3, random_samples=200, seed=7)
        b = infeasibility_scan(grid_bound=3, random_samples=200, seed=7)
        assert a == b

    def test_homogeneity(self):
        # The inequalities are homogeneous in (m1, m2): scaling by a
        # positive factor cannot change feasibility.
        for i, j in [(1, 1), (2, -3), (-5, 4), (0, 7)]:
            base = check_from_m(i, j)
            doubled = check_from_m(2 * i, 2 * j)
            assert base.feasible == doubled.feasible

    def test_grid_bound_validation(self):
        with pytest.raises(ValueError):
            infeasibility_scan(grid_bound=0)

    def test_json_shape(self):
        d = infeasibility_scan(grid_bound=2, random_samples=10, seed=1).to_json_dict()
        assert d["all_infeasible"] is True
        assert d["grid_bound"] == 2 and d["random_samples"] == 10


class TestVectorizedScan:
    @staticmethod
    def assert_flags_match(pairs):
        """Values and flags of the vectorized pass equal the scalar ones,
        pair by pair; float ``m`` is exactly ``float(Fraction)``."""
        m1 = np.array([float(p) for p, _ in pairs])
        m2 = np.array([float(q) for _, q in pairs])
        feasible, marginal = _cone_flags(m1, m2)
        values = _cone_values(m1, m2)
        for k, (p, q) in enumerate(pairs):
            res = check_from_m(p, q)
            assert tuple(float(v[k]) for v in values) == (res.a, res.b, *res.values), (p, q)
            assert feasible[k] == res.feasible, (p, q)
            assert marginal[k] == scan_marginal(res), (p, q)
        return feasible, marginal

    def test_flags_match_scalar_on_grid(self, constants):
        # The grid includes the origin and the knife-edge row m1 = 0.
        pairs = [(Fraction(i), Fraction(j)) for i, j in product(range(-60, 61), repeat=2)]
        feasible, marginal = self.assert_flags_match(pairs)
        assert marginal[pairs.index((0, 0))]
        if "LOG3" in constants:
            assert feasible.any()

    def test_flags_match_scalar_on_random_rationals(self, constants):
        rng = Random(2024)
        self.assert_flags_match([
            (Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
             Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
            for _ in range(3000)
        ])

    @pytest.mark.parametrize(
        "grid_bound, samples, seed",
        [(1, 0, 0), (2, 10, 1), (3, 200, 7), (12, 500, 42), (40, 3000, 1009)],
    )
    def test_scan_equals_reference(self, grid_bound, samples, seed):
        assert infeasibility_scan(grid_bound, samples, seed) == reference_scan(grid_bound, samples, seed)

    def test_flagged_keys_format_and_order(self, monkeypatch):
        monkeypatch.setattr(ampleness, "LOG3", 0.25)
        res = infeasibility_scan(grid_bound=6, random_samples=20_000, seed=3)
        assert res == reference_scan(6, 20_000, 3)
        # Grid pairs come first, as integers; random pairs follow, as
        # reduced fractions.
        assert res.marginal_pairs == (
            ("0", "1"), ("0", "2"), ("0", "3"), ("0", "4"), ("0", "5"), ("0", "6"),
            ("0", "85/277"), ("0", "742/577"),
        )
        assert len(res.feasible_pairs) == 727
        assert res.feasible_pairs[:2] == (("17/779", "440/323"), ("25/241", "993/952"))
        for m1, m2 in res.marginal_pairs + res.feasible_pairs:
            assert format_rational(Fraction(m1)) == m1
            assert format_rational(Fraction(m2)) == m2

    def test_feasible_keys_when_window_opens(self, monkeypatch):
        monkeypatch.setattr(ampleness, "LOG3", 0.25)
        res = infeasibility_scan(grid_bound=20, random_samples=3000, seed=5)
        assert res == reference_scan(20, 3000, 5)
        assert ("1", "18") in res.feasible_pairs
        assert not res.all_infeasible

    def test_block_boundaries(self, monkeypatch):
        monkeypatch.setattr(ampleness, "LOG3", 0.25)
        monkeypatch.setattr(ampleness, "SCAN_BLOCK", 7)
        for grid_bound, samples, seed in [(3, 49, 7), (4, 50, 11), (5, 7000, 2)]:
            assert infeasibility_scan(grid_bound, samples, seed) == reference_scan(grid_bound, samples, seed)

    def test_blocks_bound_memory(self):
        sizes = [len(block[0]) for block in _pair_blocks(60, 10_000, 4)]
        assert max(sizes) <= ampleness.SCAN_BLOCK
        assert sum(sizes) == infeasibility_scan(60, 10_000, 4).checked
        tracemalloc.start()
        try:
            infeasibility_scan(grid_bound=300, random_samples=30_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            infeasibility_scan(grid_bound=1, random_samples=-5)
        assert infeasibility_scan(grid_bound=1, random_samples=0).checked == 8

    def test_pair_cap_boundary(self, monkeypatch):
        # grid_bound 2 is 24 grid pairs; 6 random samples make 30.
        monkeypatch.setattr(ampleness, "MAX_SCAN_PAIRS", 30)
        assert infeasibility_scan(grid_bound=2, random_samples=6, seed=3).checked <= 30
        with pytest.raises(ValueError, match="scan has 31 pairs, over the cap of 30"):
            infeasibility_scan(grid_bound=2, random_samples=7, seed=3)
        monkeypatch.setattr(ampleness, "MAX_SCAN_PAIRS", 24)
        assert infeasibility_scan(grid_bound=2, random_samples=0).checked == 24
        with pytest.raises(ValueError, match="scan has 25 pairs"):
            infeasibility_scan(grid_bound=2, random_samples=1)


def live_draws(samples: int, seed: int) -> list[list[int]]:
    """The draws of the pair-by-pair loop, from the running interpreter."""
    randint = Random(seed).randint
    return [[randint(lo, hi) for lo, hi in _DRAW_RANGES] for _ in range(samples)]


def undecided_draw_kinds(samples: int, seed: int) -> set[int]:
    """Which draws of a pair (0: numerator, 1: denominator) meet a word in
    ``[999 << 22, 1999 << 21)``, the words a numerator draw keeps and a
    denominator draw rejects; replayed one ``randint`` rejection loop at a
    time."""
    getrandbits = Random(seed).getrandbits
    kinds = set()
    for d in range(4 * samples):
        lo, hi = _DRAW_RANGES[d % 4]
        width = hi - lo + 1
        while True:
            word = getrandbits(32)
            if 999 << 22 <= word < 1999 << 21:
                kinds.add(d % 2)
            if word >> (32 - width.bit_length()) < width:
                break
    return kinds


class TestRandomDraws:
    """The scan's random pairs come from raw Mersenne Twister words; they
    must equal ``Random(seed).randint`` call for call."""

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("seed", [0, 1, 1009, 2**32 - 1, 2**64 + 7])
    def test_equal_live_randint(self, monkeypatch, seed, block):
        if block is not None:
            monkeypatch.setattr(ampleness, "SCAN_BLOCK", block)
        n = ampleness.SCAN_BLOCK
        for samples in sorted({0, 1, n - 1, n, n + 1, 3 * n + 5}):
            blocks = list(_random_draws(samples, seed))
            assert [len(b) for b in blocks] == [
                min(n, samples - start) for start in range(0, samples, n)
            ]
            assert all(b.dtype == np.int64 and b.shape[1:] == (4,) for b in blocks)
            assert [row.tolist() for b in blocks for row in b] == live_draws(samples, seed)

    def test_benchmark_size_digest(self):
        # SHA-256 of the seed-1, 100,000-pair draws as little-endian int64,
        # recorded from the per-pair randint loop the vectorized draws replaced.
        draws = np.concatenate(list(_random_draws(100_000, 1))).astype("<i8")
        assert draws.shape == (100_000, 4)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "6b55a48c37dfd4f3cf5928ecbb3dee4980ef597c1f14e4dbb2c123997d5d3ba3"
        )

    @pytest.mark.parametrize("block", [None, 1])
    def test_phase_dependent_words(self, monkeypatch, block):
        # Seed 2496's first 17 pairs meet a word in [999 << 22, 1999 << 21)
        # on a numerator draw, which keeps it as 999, and on a denominator
        # draw, which rejects it.
        if block is not None:
            monkeypatch.setattr(ampleness, "SCAN_BLOCK", block)
        assert undecided_draw_kinds(17, 2496) == {0, 1}
        draws = [row.tolist() for b in _random_draws(17, 2496) for row in b]
        assert draws == live_draws(17, 2496)
        assert 999 in {row[0] for row in draws} | {row[2] for row in draws}

