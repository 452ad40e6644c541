"""Differential tests for the paths that work in integers over one common
denominator: vertex enumeration, the Jacobian and its minor sum,
``verify``'s random interior points, and the Monte Carlo accept test.

Each is compared with a plain ``Fraction`` (or float) reference kept here,
on corner-chopped Delzant polytopes, translates, fractional offsets and
non-unimodular fans.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant_strategies import box, chop, chopped_polytopes, raw_halfspaces, rationals
from toricfutaki import verify
from toricfutaki.exactnum import MultiPoly, mat_inverse
from toricfutaki.family import MAX_DIM, jacobian, make_spec, minor_sum
from toricfutaki.integrate import mc_integrate_many
from toricfutaki.polytope import DelzantPolytope, HalfSpace, standard_blowup_polytope


def F(x, y=1):
    return Fraction(x, y)


# ---------------------------------------------------------------------------
# Vertex enumeration.


def _fraction_enumeration(n, hs):
    """Vertex enumeration in Fractions: each non-singular subset's inverse
    applied to its offsets, every half-space evaluated at the candidate."""
    found = {}
    for subset in itertools.combinations(range(len(hs)), n):
        inverse = mat_inverse([hs[i].v for i in subset])
        if inverse is None:
            continue
        rhs = [(k, -hs[i].lam) for k, i in enumerate(subset) if hs[i].lam]
        x = tuple(sum((row[k] * b for k, b in rhs), Fraction(0)) for row in inverse)
        if x in found:
            continue
        values = [h.value(x) for h in hs]
        if all(val >= 0 for val in values):
            found[x] = tuple(j for j, val in enumerate(values) if val == 0)
    return sorted(found.items())


def _chopped_box():
    """A box with two corners chopped: Delzant, and not a slab."""
    P = DelzantPolytope(3, box([F(2), F(3, 2), F(1)]))
    P = DelzantPolytope(3, chop(P, (F(2), F(3, 2), F(1)), F(1, 2)))
    return DelzantPolytope(3, chop(P, (F(0), F(0), F(0)), F(1, 3)))


_DET2_CORNER = DelzantPolytope(
    2, [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0)), HalfSpace((-1, -2), F(2))]
)


class TestVertexEnumeration:
    def _check(self, n, hs):
        hs = list(dict.fromkeys(hs))
        found = DelzantPolytope._enumerate_vertices(n, hs)
        assert found == _fraction_enumeration(n, hs)
        assert all(type(c) is Fraction for x, _ in found for c in x)

    @settings(max_examples=25, deadline=None)
    @given(chopped_polytopes())
    def test_chopped_boxes(self, P):
        assert P.is_delzant()
        self._check(P.n, list(P.halfspaces))

    @settings(max_examples=60, deadline=None)
    @given(raw_halfspaces())
    def test_raw_normals(self, case):
        # Random small normals: most fans are not unimodular, and many
        # inputs are empty or unbounded.
        self._check(*case)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_slabs_and_translates(self, n):
        for b in (F(2), F(7, 3)):
            P = standard_blowup_polytope(n, b)
            self._check(n, list(P.halfspaces))
            moved = P.translate([F(k - 2, 3) for k in range(n)])
            self._check(n, list(moved.halfspaces))

    def test_non_unimodular_corner(self):
        self._check(2, list(_DET2_CORNER.halfspaces))
        assert _DET2_CORNER.vertices() == [(F(0), F(0)), (F(0), F(1)), (F(2), F(0))]

    def test_fractional_offsets_and_degenerate_vertex(self):
        # The apex of a square pyramid lies on four facets.
        pyramid = [HalfSpace((0, 0, 1), F(0))] + [
            HalfSpace((sx * (i == 0), sx * (i == 1), -1), F(3, 2))
            for sx in (1, -1) for i in (0, 1)
        ]
        self._check(3, pyramid)
        apex = dict(DelzantPolytope._enumerate_vertices(3, pyramid))[(F(0), F(0), F(3, 2))]
        assert apex == (1, 2, 3, 4)


class TestChopping:
    @settings(max_examples=15, deadline=None)
    @given(chopped_polytopes(dims=st.integers(1, 4), max_cuts=3))
    def test_chopped_polytopes_are_delzant(self, P):
        assert P.is_delzant()
        # A chop trades one vertex for n and adds a facet (at n = 1 the cut
        # point replaces the end it cuts off).
        cuts = P.num_facets - 2 * P.n
        assert len(P.vertices()) == 2**P.n + cuts * (P.n - 1)


# ---------------------------------------------------------------------------
# Jacobian and minor sum.


def _definition(spec, x):
    """``s*I + r * x 1^T`` in Fractions."""
    n = spec.n
    X = sum(x, Fraction(0))
    s = spec.A + spec.B * X ** (-n)
    r = -n * spec.B * X ** (-(n + 1))
    return [[s * (i == j) + r * x[i] for j in range(n)] for i in range(n)]


@st.composite
def _jacobian_cases(draw):
    n = draw(st.integers(2, MAX_DIM))
    b = draw(rationals(F(9, 8), F(6), 8))
    a = b if draw(st.booleans()) else draw(rationals(F(1, 8), F(12), 8))
    spec = make_spec(n, a, b, force=True)  # unsolvable specs too
    x = draw(st.lists(rationals(F(-3), F(5), 12), min_size=n, max_size=n)
             .filter(lambda x: sum(x) > 0))
    return spec, tuple(x)


class TestJacobian:
    @settings(max_examples=80, deadline=None)
    @given(_jacobian_cases())
    def test_matches_definition(self, case):
        spec, x = case
        m = jacobian(spec, x)
        ref = _definition(spec, x)
        assert m == ref
        assert all(type(c) is Fraction for row in m for c in row)
        n = spec.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert minor_sum(spec, x) == sum(
            (ref[i][i] * ref[j][j] - ref[i][j] * ref[j][i] for i, j in pairs), Fraction(0)
        )

    def test_a_equals_b_is_the_identity(self):
        spec = make_spec(4, F(5, 2), F(5, 2))
        m = jacobian(spec, (F(1), F(-1, 3), F(2, 7), F(1, 2)))
        assert m == [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert minor_sum(spec, (F(1), F(-1, 3), F(2, 7), F(1, 2))) == 6

    @pytest.mark.parametrize("x", [(F(0), F(0)), (F(-1), F(1, 2)), (F(1, 3), F(-1, 3))])
    def test_non_positive_sum_refused(self, x):
        spec = make_spec(2, 11, 3)
        for fn in (jacobian, minor_sum):
            with pytest.raises(ValueError, match="^Jacobian needs a positive coordinate sum$"):
                fn(spec, x)


# ---------------------------------------------------------------------------
# Random interior points.


def _fraction_point(rng, n, b):
    """The random interior point with X formed as a Fraction first."""
    weights = [rng.randint(1, 999) for _ in range(n)]
    total = sum(weights)
    X = 1 + Fraction(rng.randint(1, 999), 1000) * (b - 1)
    return tuple(Fraction(X.numerator * w, X.denominator * total) for w in weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, MAX_DIM), rationals(F(9, 8), F(40), 12), st.integers(0, 2**32))
def test_random_interior_points_equal_the_fraction_formula(n, b, seed):
    ours, theirs = Random(seed), Random(seed)
    for _ in range(20):
        assert verify._random_interior_point(ours, n, b) == _fraction_point(theirs, n, b)
    assert ours.random() == theirs.random()


# ---------------------------------------------------------------------------
# The Monte Carlo accept test on bodies that are not slabs.

_INTERVAL = DelzantPolytope(1, [HalfSpace((1,), F(-1, 3)), HalfSpace((-1,), F(5, 2))])

# Recorded before the accept test grouped half-spaces by sign and skipped
# the box's lower faces: the estimates, errors and hits of the volume and
# x1 integrals at 100,000 samples, seed 5, must not change by one bit.
_MC_PINNED = [
    ("chopped-box", _chopped_box(), [
        ("0x1.7c5c13fd0d067p+1", "0x1.e1fa4c0ba0950p-11", 99052),
        ("0x1.7a6ee0117aec9p+1", "0x1.68d91bf5de741p-8", 99052)]),
    ("translate", standard_blowup_polytope(3, F(5, 2)).translate((2, F(-1, 3), 1)), [
        ("0x1.3951eb851eb85p+1", "0x1.2640ad618e9a8p-6", 15666),
        ("0x1.9ef8f03f14005p+2", "0x1.8d74f135926e1p-5", 15666)]),
    ("det2-corner", _DET2_CORNER, [
        ("0x1.020c49ba5e354p+0", "0x1.9e79090227954p-9", 50400),
        ("0x1.57d9ca702ef79p-1", "0x1.87d0392feac03p-9", 50400)]),
    ("interval", _INTERVAL, [
        ("0x1.1555555555555p+1", "0x0.0p+0", 100000),
        ("0x1.88a6822088811p+1", "0x1.199335548abffp-8", 100000)]),
]


@pytest.mark.parametrize("P, expected", [c[1:] for c in _MC_PINNED],
                         ids=[c[0] for c in _MC_PINNED])
def test_monte_carlo_pinned_on_non_slab_bodies(P, expected):
    fs = [MultiPoly.constant(P.n, 1).eval_array, MultiPoly.variable(P.n, 0).eval_array]
    results = mc_integrate_many(P, fs, 100_000, 5)
    assert [(r.estimate.hex(), r.stderr.hex(), r.accepted) for r in results] == expected
