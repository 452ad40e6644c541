"""Parser for polynomial expressions in the CLI.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | atom ('^' | '**') integer
    atom   := integer | variable | '(' expr ')'

Variables are ``x1 .. xn`` (1-based).  Division requires a nonzero
constant divisor, so ``x1/3`` and ``(1/3)*x2^2`` parse but ``1/x1`` does
not.  Exponents must be non-negative integer literals.  Every power,
product, quotient and sum is refused before it is computed if its
coefficients could exceed ``MAX_COEFFICIENT_BITS``, and every power and
product if its terms could exceed ``MAX_POLY_TERMS``.  The bit size of a
coefficient is the larger of its numerator's and denominator's; a power's
estimate is ``e`` times its base's largest, a product's or quotient's the
sum of its factors' largest, and a sum's one more than its operands'
largest (their sum, plus one, when a coefficient is not an integer).  The
result is an exact :class:`MultiPoly`; floats are a syntax error by
construction.
"""

from __future__ import annotations

import math
import re

from .exactnum import MAX_COEFFICIENT_BITS, MultiPoly

# Cap on the terms a parsed power or product may build, bounded before it
# is computed: a power of ``base`` by at most ``C(t + e - 1, e)`` for ``t``
# terms and by ``C(e * deg + n, n)``, a product by ``t1 * t2``.  Exact body,
# facet and boundary integrals refuse any integrand with more terms (each
# term expands to at least one monomial per simplex, against integrate's
# MAX_EXPANSION_TERMS of 5000), so only radial integrals lose inputs.  The
# slowest power under the cap, (x1+x2+x3+1)^29 (4960 terms), parsed in
# 2.0 s on a 2-core host; (x1+x2+x3+1)^32 had taken 4.0 s to parse before
# integrate refused it.
MAX_POLY_TERMS = 5_000

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>x\d+)|(?P<pow>\*\*|\^)|(?P<op>[+\-*/()]))"
)


class PolyParseError(ValueError):
    """Malformed polynomial expression."""


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolyParseError(
                f"unexpected character {text[pos:].lstrip()[:1]!r} at position {pos}"
            )
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expr()
        if self.peek() is not None:
            raise PolyParseError(f"trailing input starting at {self.peek()!r}")
        return poly

    def expr(self) -> MultiPoly:
        poly = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            (n1, d1), (n2, d2) = poly.coefficient_bits(), rhs.coefficient_bits()
            integral = max(d1, d2) <= 1  # every denominator is 1
            _check("sum", (max(n1, n2) if integral else max(n1, d1) + max(n2, d2)) + 1, 0)
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                _check("product", _bits(poly) + _bits(rhs), len(poly) * len(rhs))
                poly = poly * rhs
            else:
                if rhs.total_degree > 0:
                    raise PolyParseError("division is only allowed by a nonzero constant")
                divisor = rhs.coefficient((0,) * self.n)
                if divisor == 0:
                    raise PolyParseError("division by zero")
                _check("quotient", _bits(poly) + _bits(rhs), 0)
                poly = poly * (1 / divisor)
        return poly

    def factor(self) -> MultiPoly:
        tok = self.peek()
        if tok in ("+", "-"):
            self.take()
            inner = self.factor()
            return inner if tok == "+" else -inner
        base = self.atom()
        if self.peek() in ("**", "^"):
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise PolyParseError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            e = int(exp_tok)
            terms = 0
            if len(base) > 1:  # else the power has at most one term
                terms = min(math.comb(len(base) + e - 1, e),
                            math.comb(e * base.total_degree + self.n, self.n))
            _check(f"power ^{e}", e * _bits(base), terms)
            return base ** e
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise PolyParseError("unbalanced parentheses")
            return inner
        if tok.isdigit():
            return MultiPoly.constant(self.n, int(tok))
        if tok.startswith("x"):
            idx = int(tok[1:])
            if not 1 <= idx <= self.n:
                raise PolyParseError(
                    f"variable {tok} out of range: expected x1..x{self.n}"
                )
            return MultiPoly.variable(self.n, idx - 1)
        raise PolyParseError(f"unexpected token {tok!r}")


def _bits(p: MultiPoly) -> int:
    """The largest bit size of a numerator or denominator of ``p``."""
    return max(p.coefficient_bits())


def _check(what: str, bits: int, terms: int) -> None:
    """Refuse an operation whose estimated coefficient bits or term bound
    is over its cap, before it is computed."""
    if bits > MAX_COEFFICIENT_BITS:
        raise PolyParseError(f"{what} could give coefficients of {bits} bits, "
                             f"over the cap of {MAX_COEFFICIENT_BITS}")
    if terms > MAX_POLY_TERMS:
        raise PolyParseError(f"{what} could give {terms} terms, "
                             f"over the cap of {MAX_POLY_TERMS}")


def parse_poly(text: str, n: int) -> MultiPoly:
    """Parse an expression in variables ``x1..xn`` into a MultiPoly."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("number of variables must be a positive int")
    if not text.strip():
        raise PolyParseError("empty expression")
    return _Parser(_tokenize(text), n).parse()
