"""Ampleness cone test for twisted classes on the one-point blow-up.

On the plane blown up at a point (equivalently the projectivization of
``O + O(-1)`` over the line), a class ``a * C0 + b * f`` in the
zero-section/fiber basis is ample iff three strict inequalities hold:

    ``a + b > 0``,  ``2*a - b*log(3) > 0``,  ``b**2 * log(3) > 4 * a**2``.

The twist studied here produces candidate coefficients from an integer
pair ``(m1, m2)``:

    ``a = (m1 + m2*log(3)) / (2 + 3*log(3))``,
    ``b = (2*m2 - 3*m1) / (2 + 3*log(3))``,

and the point of the scan is that no nonzero pair satisfies all three
inequalities simultaneously: the window is empty.  With ``L = log(3)`` and
``D = 2 + 3*L``, clearing denominators gives three identities that hold
exactly for any value of ``L``:

    ``(a + b)*D = -2*m1 + (2 + L)*m2``,
    ``2*a - b*L = m1``,
    ``(b**2*L - 4*a**2)*D**2 = -4*m1**2 + (9*m1**2 - 20*m1*m2 + 4*m2**2)*L
    - 4*m2**2*L**2``.

So the second inequality holds iff ``m1 > 0`` and is zero iff ``m1 = 0``;
it is decided on the exact pair, never on its float value.  The first and
third are polynomials in ``L`` with rational coefficients that all vanish
only at the origin, and ``log(3)`` is transcendental (Lindemann), so they
are nonzero at every other rational pair; their float values decide their
signs.  ``marginal`` therefore means exactly zero: the second inequality on
``m1 = 0``, all three at the origin.  The tests check the identities and
prove from them that the window is empty for every real pair.

The sides are homogeneous of degree 1, 1 and 2, so :func:`check_from_m`
decides them on the pair times the power of two that puts its larger entry
in ``[1/2, 2)``, where no float underflows or overflows, and scales the
values back (exactly, while they stay normal) for display only.

Two paths evaluate the inequalities.  :func:`check_from_m` is the scalar
path: one pair, one :class:`ConeCheck` with every value and flag.
:func:`infeasibility_scan` is a numpy pass over blocks of at most
``SCAN_BLOCK`` pairs, visited in the scalar loop's order.  It computes the
same float expressions in the same operation order, and an integer quotient
``p/q`` below 2**53 rounds exactly as ``float(Fraction(p, q))`` does and has
the sign of ``p``, so every value, flag and verdict is the scalar one; the
tests keep the pair-by-pair loop as the oracle.  The seeded random pairs
are computed from raw 32-bit Mersenne Twister words with array operations,
and equal the ``Random(seed).randint`` calls of that loop draw for draw;
the tests check this against the running interpreter.  Memory is one block,
whatever the grid bound and sample count; ``MAX_SCAN_PAIRS`` bounds the
time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import TYPE_CHECKING

from .exactnum import RationalLike, as_fraction, format_rational

if TYPE_CHECKING:
    import numpy as np

LOG3 = math.log(3.0)
# Pairs per block of the vectorized scan.  One block, a few hundred KiB of
# arrays, is the scan's memory whatever its arguments.
SCAN_BLOCK = 1 << 12
# Grid plus random pairs one scan may visit; bounds its running time.
MAX_SCAN_PAIRS = 10_000_000
# randint ranges of one random pair's draws, in draw order: numerator and
# denominator of m1, then of m2.
_DRAW_RANGES = ((-999, 999), (1, 999), (-999, 999), (1, 999))

_INEQUALITY_NAMES = ("a+b>0", "2a-b*log3>0", "b^2*log3-4a^2>0")


@dataclass(frozen=True)
class ConeCheck:
    """Outcome of the three strict ampleness inequalities for one class.

    ``values`` holds the left-hand sides normalized so each inequality
    reads ``value > 0``, as floats for display only; ``marginal`` marks the
    left-hand sides that are exactly zero.
    """

    a: float
    b: float
    m1: Fraction
    m2: Fraction
    values: tuple[float, float, float]
    holds: tuple[bool, bool, bool]
    marginal: tuple[bool, bool, bool]

    @property
    def feasible(self) -> bool:
        return all(self.holds)

    def to_json_dict(self) -> dict:
        return {
            "m1": format_rational(self.m1),
            "m2": format_rational(self.m2),
            "a": self.a,
            "b": self.b,
            "inequalities": [
                {"name": name, "value": v, "holds": h, "marginal": m}
                for name, v, h, m in zip(
                    _INEQUALITY_NAMES, self.values, self.holds, self.marginal
                )
            ],
            "feasible": self.feasible,
        }


def check_from_m(m1: RationalLike, m2: RationalLike) -> ConeCheck:
    m1f, m2f = as_fraction(m1), as_fraction(m2)
    big = max(abs(m1f), abs(m2f))
    k = big.denominator.bit_length() - big.numerator.bit_length()
    scaled = _cone_values(float(m1f * Fraction(2) ** k), float(m2f * Fraction(2) ** k))
    holds = (scaled[2] > 0.0, m1f > 0, scaled[4] > 0.0)
    a, b, *values = (_ldexp(v, -d * k) for v, d in zip(scaled, (1, 1, 1, 1, 2)))
    origin = big == 0
    return ConeCheck(a, b, m1f, m2f, tuple(values), holds, (origin, m1f == 0, origin))


def _ldexp(x: float, k: int) -> float:
    """``x * 2**k``, or an infinity of the sign of ``x`` if that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class ScanResult:
    """Aggregate of an infeasibility scan over many ``(m1, m2)`` pairs."""

    checked: int
    feasible_pairs: tuple[tuple[str, str], ...]
    marginal_pairs: tuple[tuple[str, str], ...]
    grid_bound: int
    random_samples: int
    seed: int

    @property
    def all_infeasible(self) -> bool:
        return not self.feasible_pairs

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "grid_bound": self.grid_bound,
            "random_samples": self.random_samples,
            "seed": self.seed,
            "all_infeasible": self.all_infeasible,
            "feasible_pairs": [list(p) for p in self.feasible_pairs],
            "marginal_pairs": [list(p) for p in self.marginal_pairs],
        }


def _cone_values(m1: float | np.ndarray, m2: float | np.ndarray) -> tuple:
    """``a``, ``b`` and the three inequality values for floats or float
    arrays ``m1`` and ``m2``: the one home of these float operations, so
    the scan's values are element for element the scalar path's."""
    denom = 2.0 + 3.0 * LOG3
    a = (m1 + m2 * LOG3) / denom
    b = (2.0 * m2 - 3.0 * m1) / denom
    return a, b, a + b, 2.0 * a - b * LOG3, b * b * LOG3 - 4.0 * a * a


def _cone_flags(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``feasible`` and ``marginal`` flags, equal to those of
    :func:`check_from_m`: the second marks an infeasible pair whose failing
    inequalities are all exactly zero.  A quotient ``m1 = p1/q1`` of the
    scan's integers has the sign of ``p1``, and is zero exactly when it is."""
    _, _, v1, _, v3 = _cone_values(m1, m2)
    origin = (m1 == 0.0) & (m2 == 0.0)
    holds = (v1 > 0.0, m1 > 0.0, v3 > 0.0)
    feasible = holds[0] & holds[1] & holds[2]
    marginal = ~feasible
    for h, zero in zip(holds, (origin, m1 == 0.0, origin)):
        marginal &= h | zero
    return feasible, marginal


def _pair_blocks(
    grid_bound: int, random_samples: int, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The scan's pairs ``(m1, m2) = (p1/q1, p2/q2)`` in visit order, as
    int64 arrays ``(p1, q1, p2, q2)`` of at most ``SCAN_BLOCK`` pairs.

    The grid comes first, row-major, without the origin; then the seeded
    random pairs of :func:`_random_draws`, equal to the ``randint`` calls of
    a pair-by-pair loop, skipping ``(0, 0)``.
    """
    import numpy as np

    block = SCAN_BLOCK
    width = 2 * grid_bound + 1
    origin = grid_bound * width + grid_bound
    for start in range(0, width * width, block):
        k = np.arange(start, min(start + block, width * width))
        k = k[k != origin]
        ones = np.ones_like(k)
        yield k // width - grid_bound, ones, k % width - grid_bound, ones
    for draws in _random_draws(random_samples, seed):
        p1, q1, p2, q2 = draws[(draws[:, 0] != 0) | (draws[:, 2] != 0)].T
        yield p1, q1, p2, q2


def _random_draws(random_samples: int, seed: int) -> Iterator[np.ndarray]:
    """``Random(seed).randint(lo, hi)`` for each ``(lo, hi)`` of
    ``_DRAW_RANGES``, ``random_samples`` times, as int64 ``(count, 4)``
    blocks of at most ``SCAN_BLOCK`` pairs.

    The values come from raw 32-bit Mersenne Twister words and equal the
    ``randint`` calls exactly; the tests check this against the running
    interpreter.  ``randint(lo, hi)`` takes one word, shifts it right by
    ``32 - k`` with ``k = (hi - lo + 1).bit_length()``, and takes a new word
    while the result is not below ``hi - lo + 1``.  For ``_DRAW_RANGES`` a
    word below ``999 << 22`` passes every draw and a word from
    ``1999 << 21`` up fails every draw; only the 1 word in 2048 between the
    two depends on which draw is due, and :func:`_accepted_words` settles
    those one by one.  Unused words carry over to the next block.  A block
    takes whole pairs, so the first carried word always meets the first draw.
    """
    import numpy as np

    getrandbits = Random(seed).getrandbits
    words = np.empty(0, dtype=np.uint32)
    lows = np.array([lo for lo, _ in _DRAW_RANGES], dtype=np.int64)
    shifts = np.array([32 - (hi - lo + 1).bit_length() for lo, hi in _DRAW_RANGES],
                      dtype=np.uint32)
    for start in range(0, random_samples, SCAN_BLOCK):
        need = 4 * min(SCAN_BLOCK, random_samples - start)
        taken = _accepted_words(words)
        while len(taken) < need:
            # About 2.4% of words are rejected; ask for a little over the
            # shortfall, so the carried words stay few.
            m = (need - len(taken)) * 33 // 32 + 16
            fresh = np.frombuffer(getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
            words = np.concatenate((words, fresh))
            taken = _accepted_words(words)
        used = taken[:need]
        draws = (words[used].reshape(-1, 4) >> shifts).astype(np.int64)
        draws += lows
        words = words[used[-1] + 1:]
        yield draws


def _accepted_words(words: np.ndarray) -> np.ndarray:
    """Indices of the ``words`` that successive ``_DRAW_RANGES`` draws keep,
    the first draw of a pair being due at ``words[0]``."""
    import numpy as np

    fits = [
        (words >> (32 - w.bit_length())) < w
        for w in (hi - lo + 1 for lo, hi in _DRAW_RANGES)
    ]
    kept = np.logical_and.reduce(fits)
    undecided = np.logical_or.reduce(fits) & ~kept
    count = prev = 0
    for i in np.flatnonzero(undecided).tolist():
        count += np.count_nonzero(kept[prev:i])
        prev = i + 1
        if fits[count % len(fits)][i]:
            kept[i] = True
            count += 1
    return np.flatnonzero(kept)


def infeasibility_scan(
    grid_bound: int = 50,
    random_samples: int = 10_000,
    seed: int = 42,
) -> ScanResult:
    """Scan integer pairs ``|m1|, |m2| <= grid_bound`` plus seeded random
    rational pairs, recording any pair passing all three inequalities.

    Infeasible pairs whose failing inequalities are all exactly zero are
    reported separately as marginal; the scan's claim is that
    ``feasible_pairs`` and ``marginal_pairs`` both stay empty.

    Pairs go through :func:`_cone_flags` one block at a time; keys are
    formatted only for flagged pairs.
    """
    if grid_bound < 1:
        raise ValueError("grid bound must be at least 1")
    if random_samples < 0:
        raise ValueError(f"random sample count must be non-negative, got {random_samples}")
    pairs = (2 * grid_bound + 1) ** 2 - 1 + random_samples
    if pairs > MAX_SCAN_PAIRS:
        raise ValueError(f"scan has {pairs} pairs, over the cap of {MAX_SCAN_PAIRS}")
    import numpy as np

    feasible: list[tuple[str, str]] = []
    marginal: list[tuple[str, str]] = []
    checked = 0
    for p1, q1, p2, q2 in _pair_blocks(grid_bound, random_samples, seed):
        checked += len(p1)
        # Integers below 2**53 divide to the correctly rounded quotient,
        # which is exactly float(Fraction(p, q)).
        is_feasible, is_marginal = _cone_flags(p1 / q1, p2 / q2)
        for k in np.flatnonzero(is_feasible | is_marginal):
            key = (
                format_rational(Fraction(int(p1[k]), int(q1[k]))),
                format_rational(Fraction(int(p2[k]), int(q2[k]))),
            )
            (feasible if is_feasible[k] else marginal).append(key)

    return ScanResult(
        checked=checked,
        feasible_pairs=tuple(feasible),
        marginal_pairs=tuple(marginal),
        grid_bound=grid_bound,
        random_samples=random_samples,
        seed=seed,
    )
