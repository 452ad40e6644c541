"""Exact scalar, polynomial, radial-sum, and linear-algebra arithmetic."""

import itertools
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfutaki.exactnum import (
    MAX_TOTAL_DEGREE,
    LogLinear,
    MultiPoly,
    RadialSum,
    as_fraction,
    format_rational,
    mat_det,
    mat_inverse,
    mat_rank,
    mat_solve,
    parse_rational,
)


def rationals(max_num: int = 50, max_den: int = 12) -> st.SearchStrategy[Fraction]:
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def small_polys(n: int) -> st.SearchStrategy[MultiPoly]:
    exponents = st.tuples(*[st.integers(0, 3) for _ in range(n)])
    return st.builds(
        lambda terms: MultiPoly(n, terms),
        st.dictionaries(exponents, rationals(9, 9), max_size=4),
    )


class TestParseRational:
    def test_basic_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("+2/6") == Fraction(1, 3)
        assert parse_rational(" 5/10 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "a/b", "1/2/3", "--1", "", "1/-2"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_format_round_trip(self):
        for text in ["3/4", "-7", "0", "22/7"]:
            assert format_rational(parse_rational(text)) == text


class TestAsFraction:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("3/4") == Fraction(3, 4)
        assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)
        with pytest.raises(TypeError):
            as_fraction(True)


class TestFieldAxioms:
    def test_random_pairs(self):
        rng = Random(20240815)
        for _ in range(10_000):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            y = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            z = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == 0
            if x != 0:
                assert x * (1 / x) == 1


class TestMultiPoly:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            MultiPoly(2, {(-1, 0): Fraction(1)})
        with pytest.raises(ValueError):
            MultiPoly(0)
        with pytest.raises(ValueError):
            MultiPoly(1, {(MAX_TOTAL_DEGREE + 1,): Fraction(1)})

    def test_degree_cap_on_multiplication(self):
        p = MultiPoly(1, {(33,): Fraction(1)})
        q = MultiPoly(1, {(32,): Fraction(1)})
        with pytest.raises(ValueError):
            p * q
        assert (p * MultiPoly(1, {(31,): Fraction(1)})).total_degree == MAX_TOTAL_DEGREE

    def test_zero_terms_dropped(self):
        p = MultiPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert len(p) == 1
        assert (p - p).is_zero
        assert (p - p).total_degree == -1

    def test_eval(self):
        # p = x1^2*x2 - 3/4
        p = MultiPoly(2, {(2, 1): Fraction(1), (0, 0): Fraction(-3, 4)})
        assert p.eval((Fraction(2), Fraction(3))) == 12 - Fraction(3, 4)
        with pytest.raises(ValueError):
            p.eval((1,))

    def test_scalar_operators(self):
        x = MultiPoly.variable(2, 0)
        p = 2 * x + 1 - x
        assert p == x + 1
        assert (x + 1) * (x - 1) == x * x - 1
        assert x**0 == MultiPoly.constant(2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_polys(2), small_polys(2), st.tuples(rationals(5, 5), rationals(5, 5)))
    def test_ring_homomorphism_at_points(self, p, q, point):
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (-p).eval(point) == -p.eval(point)

    @settings(max_examples=40, deadline=None)
    @given(small_polys(2), st.tuples(rationals(4, 4), rationals(4, 4)),
           st.tuples(rationals(4, 4), rationals(4, 4)))
    def test_shift_is_substitution(self, p, t, point):
        shifted = p.shift(t)
        moved = tuple(x + d for x, d in zip(point, t))
        assert shifted.eval(point) == p.eval(moved)

    def test_shift_preserves_degree(self):
        p = MultiPoly(2, {(2, 1): Fraction(5)})
        assert p.shift((Fraction(1), Fraction(-2))).total_degree == 3

    def test_eval_array_matches_eval(self):
        p = MultiPoly(2, {(2, 1): Fraction(1, 3), (1, 0): Fraction(-2)})
        pts = [(Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(3))]
        arr = np.array([[float(c) for c in pt] for pt in pts])
        out = p.eval_array(arr)
        for got, pt in zip(out, pts):
            assert got == pytest.approx(float(p.eval(pt)))

    def test_canonical_term_order(self):
        p = MultiPoly(2, {(0, 1): Fraction(2), (1, 0): Fraction(3), (0, 0): Fraction(1)})
        assert [a for a, _ in p.items()] == [(1, 0), (0, 1), (0, 0)]
        assert str(p) == "3*x1 + 2*x2 + 1"

    def test_str_forms(self):
        assert str(MultiPoly.zero(2)) == "0"
        p = MultiPoly(2, {(2, 1): Fraction(-1), (0, 0): Fraction(3, 4)})
        assert str(p) == "-x1^2*x2 + 3/4"

    def test_immutable(self):
        p = MultiPoly.variable(2, 0)
        with pytest.raises(AttributeError):
            p.n = 3


class TestLogLinear:
    def test_to_float(self):
        import math

        v = LogLinear(Fraction(1, 2), Fraction(2))
        assert v.to_float(Fraction(3)) == pytest.approx(0.5 + 2 * math.log(3))
        with pytest.raises(ValueError):
            v.to_float(0.0)

    def test_coerces_ints(self):
        assert LogLinear(1, 2).q0 == Fraction(1)


class TestRadialSum:
    def test_merges_equal_powers(self):
        x = MultiPoly.variable(2, 0)
        r = RadialSum(2, [(x, -2), (x, -2), (-x, 0)])
        terms = r.terms()
        assert terms == [(2 * x, -2), (-x, 0)]

    def test_eval_matches_manual(self):
        x1 = MultiPoly.variable(2, 0)
        r = RadialSum(2, [(x1, -4), (MultiPoly.constant(2, 3), 1)])
        pt = (Fraction(1), Fraction(2))
        X = Fraction(3)
        assert r.eval(pt) == Fraction(1) * X**-4 + 3 * X

    def test_power_cap(self):
        x = MultiPoly.variable(2, 0)
        assert RadialSum(2, [(x, -MAX_TOTAL_DEGREE), (x, MAX_TOTAL_DEGREE)]).terms()[0][1] == -64
        for k in (MAX_TOTAL_DEGREE + 1, -MAX_TOTAL_DEGREE - 1, 10**7):
            with pytest.raises(ValueError, match=f"radial exponent {k} exceeds cap 64"):
                RadialSum(2, [(x, k)])

    def test_zero_sum_with_negative_power(self):
        r = RadialSum(1, [(MultiPoly.constant(1, 1), -1)])
        with pytest.raises(ZeroDivisionError):
            r.eval((Fraction(0),))

    def test_to_poly(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        r = RadialSum(2, [(x1, 2)])
        assert r.to_poly() == x1 * (x1 + x2) ** 2
        bad = RadialSum(2, [(x1, -1)])
        with pytest.raises(ValueError):
            bad.to_poly()

    def test_eval_array(self):
        x1 = MultiPoly.variable(2, 0)
        r = RadialSum(2, [(x1, -4)])
        arr = np.array([[1.0, 2.0], [2.0, 2.0]])
        out = r.eval_array(arr)
        assert out[0] == pytest.approx(1 / 81)
        assert out[1] == pytest.approx(2 / 256)

    def test_addition_and_poly_multiplication(self):
        x1 = MultiPoly.variable(2, 0)
        r = RadialSum(2, [(x1, -2), (MultiPoly.constant(2, 1), 0)])
        s = r.mul_poly(x1)
        pt = (Fraction(2), Fraction(1))
        assert s.eval(pt) == x1.eval(pt) * r.eval(pt)

    def test_type_validation(self):
        with pytest.raises(ValueError):
            RadialSum(2, [(MultiPoly.variable(3, 0), 0)])
        with pytest.raises(ValueError):
            RadialSum(2, [(MultiPoly.variable(2, 0), "2")])


class TestMatrixKit:
    def test_det_examples(self):
        assert mat_det([[1, 2], [3, 4]]) == -2
        assert mat_det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)
        assert mat_det([[1, 2], [2, 4]]) == 0
        assert mat_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            mat_det([[1, 2, 3], [4, 5, 6]])

    def test_solve(self):
        x = mat_solve([[2, 1], [1, 3]], [5, 10])
        assert x == [Fraction(1), Fraction(3)]
        assert mat_solve([[1, 2], [2, 4]], [1, 2]) is None

    def test_solve_random_round_trip(self):
        rng = Random(7)
        for _ in range(200):
            a = [[Fraction(rng.randint(-9, 9)) for _ in range(3)] for _ in range(3)]
            if mat_det(a) == 0:
                continue
            b = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
            x = mat_solve(a, b)
            assert x is not None
            for row, rhs in zip(a, b):
                assert sum(c * v for c, v in zip(row, x)) == rhs

    def test_rank(self):
        assert mat_rank([[1, 2], [2, 4]]) == 1
        assert mat_rank([[1, 0], [0, 1]]) == 2
        assert mat_rank([[0, 0]]) == 0
        assert mat_rank([[1, 2, 3]]) == 1
        assert mat_rank([[1, 1], [1, 2], [1, 3]]) == 2


# Entries with many zeros, so that singular and rank-deficient matrices are
# common among the drawn examples.
MATRIX_ENTRIES = st.one_of(st.just(Fraction(0)), rationals(4, 3))


def matrices(rows: st.SearchStrategy[int], cols: st.SearchStrategy[int]):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            st.lists(MATRIX_ENTRIES, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(lambda a: (a, shape[1]))
    )


def permutation_det(a: list[list[Fraction]]) -> Fraction:
    total = Fraction(0)
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(a)), 2))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(len(a)))
    return total


def times(a: list[list[Fraction]], x) -> list[Fraction]:
    return [sum((c * v for c, v in zip(row, x)), Fraction(0)) for row in a]


class TestRowReduction:
    @given(st.integers(0, 4).flatmap(lambda n: matrices(st.just(n), st.just(n))))
    def test_det_matches_permutation_expansion(self, m):
        a, _ = m
        assert mat_det(a) == permutation_det(a)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(matrices(st.just(n), st.just(n)),
                            st.lists(rationals(9, 4), min_size=n, max_size=n))))
    def test_solve_satisfies_system(self, case):
        (a, _), b = case
        x = mat_solve(a, b)
        if permutation_det(a) == 0:
            assert x is None
        else:
            assert times(a, x) == b

    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.one_of(MATRIX_ENTRIES, st.integers(-3, 3)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_inverse(self, a):
        inv = mat_inverse(a)
        if mat_det(a) == 0:
            assert inv is None
            return
        columns = list(zip(*inv))
        assert [times(a, col) for col in columns] == [
            [int(i == j) for i in range(len(a))] for j in range(len(a))
        ]

    def test_inverse_requires_square(self):
        with pytest.raises(ValueError):
            mat_inverse([[1, 2, 3], [4, 5, 6]])
