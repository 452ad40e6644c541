"""Blow-up family specs, transition maps, and Jacobian minor sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfutaki.family import (
    FamilySpec,
    UnsolvableClassError,
    intersection_numbers,
    jacobian,
    jacobian_det,
    jacobian_det_factored,
    make_spec,
    minor_sum,
    minor_sum_radial,
    radial_profile,
    slope_lambda_intersection,
    transition_map,
)


def F(x, y=1):
    return Fraction(x, y)


def family_params() -> st.SearchStrategy[tuple[int, Fraction, Fraction]]:
    return st.tuples(
        st.integers(2, 4),
        st.builds(Fraction, st.integers(1, 30), st.integers(1, 6)),
        st.builds(
            lambda p, q: 1 + Fraction(p, q), st.integers(1, 20), st.integers(1, 6)
        ),
    )


class TestSpecConstruction:
    def test_headline_n2(self):
        s = make_spec(2, 11, 3)
        assert (s.A, s.B, s.lam) == (F(4), F(-3), F(8))
        assert s.solvable and s.integral_class

    def test_headline_n3(self):
        s = make_spec(3, 3, 2)
        assert (s.A, s.B, s.lam) == (F(11, 7), F(-4, 7), F(33, 7))
        assert s.solvable

    def test_intersection_numbers(self):
        assert intersection_numbers(2, F(11), F(3)) == (F(8), F(32))
        assert intersection_numbers(3, F(3), F(2)) == (F(7), F(11))

    def test_slope_is_n_times_A(self):
        for n, a, b in [(2, F(11), F(3)), (3, F(3), F(2)), (2, F(5, 2), F(7, 3))]:
            s = make_spec(n, a, b, force=True)
            assert s.lam == n * s.A
            assert s.lam == slope_lambda_intersection(n, a, b)

    def test_solvability_threshold_is_strict(self):
        # lam(2, 5/3, 3) = 2*(5-1)/8 = 1 exactly: not solvable.
        assert slope_lambda_intersection(2, F(5, 3), 3) == 1
        assert not make_spec(2, F(5, 3), 3, force=True).solvable
        assert make_spec(2, 2, 3, force=True).solvable
        assert not make_spec(2, 1, 3, force=True).solvable

    def test_unsolvable_raises_unless_forced(self):
        with pytest.raises(UnsolvableClassError, match="slope constant"):
            make_spec(2, 1, 3)
        s = make_spec(2, 1, 3, force=True)
        assert not s.solvable
        assert s.A == F(1, 4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_spec(2, 11, 1)
        with pytest.raises(ValueError):
            make_spec(2, 0, 3)
        with pytest.raises(ValueError):
            make_spec(2, -2, 3)
        with pytest.raises(ValueError):
            make_spec(1, 11, 3)
        with pytest.raises(ValueError):
            make_spec("2", 11, 3)
        with pytest.raises(ValueError, match="dimension 11 exceeds cap 10"):
            make_spec(11, 3, 2)
        assert make_spec(10, 3, 2).n == 10
        with pytest.raises(TypeError):
            make_spec(2, 1.5, 3)

    @settings(max_examples=120, deadline=None)
    @given(family_params())
    def test_profile_slope_identities(self, params):
        n, a, b = params
        s = make_spec(n, a, b, force=True)
        assert s.A + s.B == 1
        assert s.A * b**n + s.B == a * b ** (n - 1)


class TestTransitionMap:
    def test_vertex_images_n2(self):
        s = make_spec(2, 11, 3)
        e1, e2 = (F(1), F(0)), (F(0), F(1))
        assert transition_map(s, e1) == e1
        assert transition_map(s, e2) == e2
        assert transition_map(s, (F(3), F(0))) == (F(11), F(0))
        assert transition_map(s, (F(0), F(3))) == (F(0), F(11))
        assert transition_map(s, (F(1), F(1))) == (F(13, 4), F(13, 4))

    def test_profile_consistency(self):
        s = make_spec(3, 3, 2)
        assert radial_profile(s, 1) == 1
        assert radial_profile(s, s.b) == s.a * s.b ** (s.n - 1) / s.b ** (s.n - 1)
        x = (F(1, 3), F(1, 2), F(2, 3))
        X = sum(x)
        assert sum(transition_map(s, x)) == radial_profile(s, X)

    def test_profile_increasing_on_solvable_specs(self):
        for n, a, b in [(2, 11, 3), (3, 3, 2), (2, 2, 3)]:
            s = make_spec(n, a, b)
            grid = [1 + F(k, 16) * (s.b - 1) for k in range(17)]
            vals = [radial_profile(s, X) for X in grid]
            assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_positive_sum_required(self):
        s = make_spec(2, 11, 3)
        with pytest.raises(ValueError):
            transition_map(s, (F(0), F(0)))
        with pytest.raises(ValueError):
            radial_profile(s, 0)


class TestJacobian:
    def test_matrix_at_inner_corner(self):
        s = make_spec(2, 11, 3)
        m = jacobian(s, (F(1), F(1)))
        # s = 4 - 3/4 = 13/4, r = 6/8 = 3/4: diagonal 13/4 + 3/4 = 4.
        assert m == [[F(4), F(3, 4)], [F(3, 4), F(4)]]

    def test_entries_match_definition(self):
        for n, a, b, x in [
            (3, 3, 2, (F(1, 2), F(1, 3), F(1, 4))),
            (4, 5, F(5, 2), (F(1), F(1, 2), F(2, 3), F(3, 7))),
        ]:
            spec = make_spec(n, a, b)
            X = sum(x)
            s = spec.A + spec.B * X ** (-n)
            r = -n * spec.B * X ** (-(n + 1))
            m = jacobian(spec, x)
            assert m == [
                [s * (i == j) + r * x[i] for j in range(n)] for i in range(n)
            ]
            m[0][1] = F(0)
            assert m[1][0] == r * x[1] and m[2][1] == r * x[2]

    def test_asymmetry_off_diagonal(self):
        s = make_spec(2, 11, 3)
        m = jacobian(s, (F(1), F(2)))
        assert m[0][1] != m[1][0]

    def test_trace_is_constant_lambda(self):
        for n, a, b in [(2, 11, 3), (3, 3, 2)]:
            s = make_spec(n, a, b)
            pts = {
                2: [(F(1), F(1)), (F(1, 3), F(5, 6)), (F(2), F(1, 2))],
                3: [(F(1, 2), F(1, 3), F(1, 4)), (F(1), F(1, 2), F(1, 4))],
            }[n]
            for x in pts:
                m = jacobian(s, x)
                assert sum(m[i][i] for i in range(n)) == s.lam

    def test_determinant_factorization(self):
        for n, a, b in [(2, 11, 3), (3, 3, 2), (3, 4, F(5, 2))]:
            s = make_spec(n, a, b)
            pts = {
                2: [(F(1), F(1)), (F(3, 2), F(1, 3))],
                3: [(F(1, 2), F(1, 3), F(1, 4)), (F(1), F(1), F(1, 2))],
            }[n]
            for x in pts:
                assert jacobian_det(s, x) == jacobian_det_factored(s, x)

    def test_minor_sum_value(self):
        s = make_spec(2, 11, 3)
        assert minor_sum(s, (F(1), F(1))) == F(247, 16)

    def test_minor_sum_matches_radial_form(self):
        for n, a, b in [(2, 11, 3), (3, 3, 2)]:
            s = make_spec(n, a, b)
            r = minor_sum_radial(s)
            pts = {
                2: [(F(1), F(1)), (F(1, 5), F(9, 10)), (F(2), F(3, 4))],
                3: [(F(1, 3), F(1, 3), F(1, 2)), (F(1), F(1, 4), F(1, 4))],
            }[n]
            for x in pts:
                assert r.eval(x) == minor_sum(s, x)

    def test_minor_sum_radial_structure(self):
        s = make_spec(3, 3, 2)
        terms = minor_sum_radial(s).terms()
        assert [k for _, k in terms] == [-6, 0]
        coeff = F(3 * 2, 2)
        assert terms[1][0].coefficient((0, 0, 0)) == coeff * s.A**2
        assert terms[0][0].coefficient((0, 0, 0)) == -coeff * s.B**2

    def test_positive_sum_required(self):
        s = make_spec(2, 11, 3)
        with pytest.raises(ValueError):
            jacobian(s, (F(0), F(0)))
        with pytest.raises(ValueError):
            jacobian_det_factored(s, (F(-1), F(1)))


class TestFrozenSpec:
    def test_immutable(self):
        s = make_spec(2, 11, 3)
        with pytest.raises(AttributeError):
            s.A = F(5)

    def test_integral_class_flag(self):
        assert make_spec(2, 11, 3).integral_class
        assert not make_spec(2, F(5, 2), 3).integral_class
