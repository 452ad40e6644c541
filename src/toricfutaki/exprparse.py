"""Parser for polynomial expressions in the CLI.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | atom ('^' | '**') integer
    atom   := integer | variable | '(' expr ')'

Variables are ``x1 .. xn`` (1-based).  Division requires a nonzero
constant divisor, so ``x1/3`` and ``(1/3)*x2^2`` parse but ``1/x1`` does
not.  Exponents must be non-negative integer literals, and a power is
refused before it is computed if ``e`` times the largest bit size in its
base exceeds ``MAX_COEFFICIENT_BITS``.  The result is an exact
:class:`MultiPoly`; floats are a syntax error by construction.
"""

from __future__ import annotations

import re

from .exactnum import MAX_COEFFICIENT_BITS, MultiPoly

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
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self) -> MultiPoly:
        poly = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                poly = poly * rhs
            else:
                if rhs.total_degree > 0:
                    raise PolyParseError("division is only allowed by a nonzero constant")
                divisor = rhs.coefficient((0,) * self.n)
                if divisor == 0:
                    raise PolyParseError("division by zero")
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
            bits = e * max((max(c.numerator.bit_length(), c.denominator.bit_length())
                            for _, c in base), default=0)
            if bits > MAX_COEFFICIENT_BITS:
                raise PolyParseError(f"power ^{e} could give coefficients of {bits} bits, "
                                     f"over the cap of {MAX_COEFFICIENT_BITS}")
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


def parse_poly(text: str, n: int) -> MultiPoly:
    """Parse an expression in variables ``x1..xn`` into a MultiPoly."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("number of variables must be a positive int")
    if not text.strip():
        raise PolyParseError("empty expression")
    return _Parser(_tokenize(text), n).parse()
