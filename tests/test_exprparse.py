"""CLI polynomial expression parsing."""

from fractions import Fraction
from random import Random

import pytest

from toricfutaki.exactnum import MAX_COEFFICIENT_BITS, MultiPoly
from toricfutaki.exprparse import PolyParseError, parse_poly


def F(x, y=1):
    return Fraction(x, y)


class TestBasicForms:
    def test_monomials_and_constants(self):
        assert parse_poly("0", 2) == MultiPoly.zero(2)
        assert parse_poly("7", 2) == MultiPoly.constant(2, 7)
        assert parse_poly("x1", 2) == MultiPoly.variable(2, 0)
        assert parse_poly("x2", 2) == MultiPoly.variable(2, 1)

    def test_caret_and_double_star_powers(self):
        expected = MultiPoly(2, {(2, 1): F(1), (0, 0): F(-3, 4)})
        assert parse_poly("x1^2*x2 - 3/4", 2) == expected
        assert parse_poly("x1**2*x2 - 3/4", 2) == expected

    def test_unary_signs(self):
        x1 = MultiPoly.variable(2, 0)
        assert parse_poly("-x1", 2) == -x1
        assert parse_poly("+x1", 2) == x1
        assert parse_poly("--x1", 2) == x1
        assert parse_poly("3 - -2", 2) == MultiPoly.constant(2, 5)

    def test_precedence_and_parens(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        assert parse_poly("x1 + x2 * x2", 2) == x1 + x2 * x2
        assert parse_poly("(x1 + x2) * x2", 2) == (x1 + x2) * x2
        assert parse_poly("((x1))", 2) == x1
        assert parse_poly("(x1 + 1)^3", 2) == (x1 + 1) ** 3

    def test_division_by_constant(self):
        x1 = MultiPoly.variable(2, 0)
        assert parse_poly("x1/3", 2) == F(1, 3) * x1
        assert parse_poly("(1/3)*x2^2", 2) == MultiPoly(2, {(0, 2): F(1, 3)})
        assert parse_poly("x1/3/2", 2) == F(1, 6) * x1

    def test_whitespace_insensitive(self):
        assert parse_poly("  x1+ x2 ", 2) == parse_poly("x1+x2", 2)
        assert parse_poly("x1^2*x2", 2) == parse_poly(" x1 ^ 2 * x2 ", 2)


@pytest.fixture
def small_powers(monkeypatch):
    """Fail any power above the degree cap instead of computing it, so a
    lost bound fails fast instead of building gigabytes."""
    power = MultiPoly.__pow__

    def guarded(self, e):
        assert e <= 64, f"power ^{e} was computed"
        return power(self, e)

    monkeypatch.setattr(MultiPoly, "__pow__", guarded)


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "1/x1",  # non-constant divisor
            "x1/0",  # zero divisor
            "x3",  # out-of-range variable for n=2
            "x1 +",  # dangling operator
            "x1 x2",  # missing operator
            "(x1",  # unbalanced parens
            "x1)",  # trailing paren
            "x1^x2",  # non-integer exponent
            "x1^-2",  # negative exponent
            "1.5",  # float literal
            "y1",  # unknown symbol
            "",  # empty
            "   ",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(PolyParseError):
            parse_poly(bad, 2)

    @pytest.mark.parametrize("text, bits", [
        ("3^4000000000", 8_000_000_000),  # 3 has 2 bits
        ("2^1000000000", 2_000_000_000),
        ("((((3^64)^64)^64)^64)", 64 * 6493),  # (3^64)^64 has 6493 bits
        ("(1/3 + x1)^8193", 2 * 8193),  # denominators count too
    ])
    def test_power_refused_before_it_is_computed(self, small_powers, text, bits):
        message = f"could give coefficients of {bits} bits, over the cap of {MAX_COEFFICIENT_BITS}"
        with pytest.raises(PolyParseError, match=message):
            parse_poly(text, 2)

    def test_power_at_the_bit_cap(self):
        assert parse_poly("3^8192", 2) == 3**8192  # estimated at 2 * 8192 bits
        assert parse_poly("(2*x1 - 1/2)^64", 2) == (2 * MultiPoly.variable(2, 0) - F(1, 2)) ** 64
        with pytest.raises(ValueError, match="total degree 65 exceeds cap 64"):
            parse_poly("x1^65", 2)

    def test_bad_variable_count(self):
        with pytest.raises(ValueError):
            parse_poly("x1", 0)


class TestRoundTrip:
    def test_str_reparses_to_same_poly(self):
        rng = Random(321)
        for _ in range(200):
            n = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(0, 5)):
                alpha = tuple(rng.randint(0, 4) for _ in range(n))
                terms[alpha] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            p = MultiPoly(n, terms)
            assert parse_poly(str(p), n) == p
