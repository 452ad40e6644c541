"""Random Delzant polytopes by corner chopping, as hypothesis strategies.

Start from a box ``[0, h_1] x ... x [0, h_n]`` and repeatedly cut off a
vertex ``v``: with ``u`` the sum of the normals tight at ``v``, add the
half-space ``<x - v, u> >= eps`` for ``eps`` a fraction of the shortest
edge from ``v``.  The edges from a smooth vertex run along the columns
``w_k`` of the inverse of its tight normals, and ``<w_k, u> = 1``, so the
cut meets every edge inside it.  Each cut is the toric blow-up of a fixed
point (Fulton, *Introduction to Toric Varieties*, 1993), so every polytope
drawn here is Delzant.  The model polytope ``P(n, b)`` is the simplex of
size ``b`` with its origin corner chopped.
"""

from fractions import Fraction

from hypothesis import strategies as st

from toricfutaki.exactnum import mat_inverse
from toricfutaki.polytope import DelzantPolytope, HalfSpace


def box(sizes) -> list[HalfSpace]:
    """The half-spaces of ``[0, h_1] x ... x [0, h_n]``."""
    n = len(sizes)
    axes = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return [HalfSpace(e, Fraction(0)) for e in axes] + [
        HalfSpace(tuple(-c for c in e), Fraction(h)) for e, h in zip(axes, sizes)
    ]


def chop(P: DelzantPolytope, v, fraction: Fraction) -> list[HalfSpace]:
    """The half-spaces of ``P`` with its smooth vertex ``v`` cut off at
    ``fraction`` (in ``(0, 1)``) of the shortest edge from ``v``."""
    tight = [h for h in P.halfspaces if h.value(v) == 0]
    assert len(tight) == P.n, f"vertex {v} is not simple"
    loose = [h for h in P.halfspaces if h.value(v) != 0]
    lengths = []
    for w in zip(*mat_inverse([h.v for h in tight])):
        # Along w the loose half-spaces that w decreases end the edge.
        stops = [h.value(v) / -sum(a * b for a, b in zip(w, h.v)) for h in loose
                 if sum(a * b for a, b in zip(w, h.v)) < 0]
        lengths.append(min(stops))
    u = tuple(sum(col) for col in zip(*(h.v for h in tight)))
    eps = fraction * min(lengths)
    return [*P.halfspaces, HalfSpace(u, -sum(a * b for a, b in zip(v, u)) - eps)]


def rationals(lo: Fraction, hi: Fraction, max_denominator: int = 6) -> st.SearchStrategy:
    return st.fractions(lo, hi, max_denominator=max_denominator)


@st.composite
def chopped_polytopes(draw, dims=st.integers(2, 4), max_cuts: int = 3) -> DelzantPolytope:
    """A box of rational sizes, translated by a rational vector, with up
    to ``max_cuts`` corners chopped off one after another."""
    n = draw(dims)
    sizes = [draw(rationals(Fraction(1, 2), Fraction(4))) for _ in range(n)]
    shift = [draw(rationals(Fraction(-2), Fraction(2))) for _ in range(n)]
    P = DelzantPolytope(n, box(sizes)).translate(shift)
    for _ in range(draw(st.integers(0, max_cuts))):
        v = draw(st.sampled_from(P.vertices()))
        fraction = draw(rationals(Fraction(1, 8), Fraction(7, 8), 8))
        P = DelzantPolytope(n, chop(P, v, fraction))
    return P


@st.composite
def raw_halfspaces(draw, dims=st.integers(1, 3), max_extra: int = 3) -> tuple[int, list[HalfSpace]]:
    """Small random normals and rational offsets, often not Delzant: a
    non-unimodular fan, with empty, unbounded and degenerate inputs too."""
    n = draw(dims)
    count = draw(st.integers(n, n + max_extra))
    hs = []
    for _ in range(count):
        v = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                       .filter(lambda v: any(v))))
        hs.append(HalfSpace(v, draw(rationals(Fraction(-3), Fraction(5)))))
    return n, hs
