"""Half-space polytopes: vertex enumeration, validation, triangulation."""

import itertools
import random
from fractions import Fraction

import pytest

from toricfutaki import exactnum, polytope
from toricfutaki.exactnum import mat_rank, mat_solve
from toricfutaki.polytope import (
    DelzantPolytope,
    HalfSpace,
    Simplex,
    _normal_fan,
    affine_rank,
    as_point,
    standard_blowup_polytope,
)


def F(x, y=1):
    return Fraction(x, y)


def unit_box(n: int) -> DelzantPolytope:
    hs = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        hs.append(HalfSpace(e, Fraction(0)))
        hs.append(HalfSpace(tuple(-c for c in e), Fraction(1)))
    return DelzantPolytope(n, hs)


def octahedron() -> DelzantPolytope:
    hs = [
        HalfSpace((sx, sy, sz), Fraction(1))
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    ]
    return DelzantPolytope(3, hs)


class TestHalfSpace:
    def test_gcd_normalization(self):
        h = HalfSpace((2, 4), Fraction(2))
        assert h.v == (1, 2)
        assert h.lam == Fraction(1)
        assert HalfSpace((2, 4), Fraction(2)) == HalfSpace((1, 2), Fraction(1))

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            HalfSpace((0, 0), Fraction(1))

    def test_rejects_non_integer_normal(self):
        with pytest.raises(ValueError):
            HalfSpace((Fraction(1, 2), 1), Fraction(0))
        with pytest.raises(ValueError):
            HalfSpace((True, 0), Fraction(0))

    def test_value(self):
        h = HalfSpace((1, -1), Fraction(3))
        assert h.value((F(1), F(2))) == 2
        with pytest.raises(ValueError):
            h.value((1,))

    def test_json_round_trip(self):
        h = HalfSpace((3, -2), Fraction(5, 7))
        assert HalfSpace.from_json_dict(h.to_json_dict()) == h
        with pytest.raises(TypeError):
            HalfSpace.from_json_dict({"v": [1, 0], "lam": 0.5})


class TestSimplex:
    def test_unit_simplex_volume(self):
        for n in (1, 2, 3, 4):
            verts = [tuple(F(0) for _ in range(n))]
            for i in range(n):
                verts.append(tuple(F(1 if j == i else 0) for j in range(n)))
            import math

            assert Simplex(tuple(verts)).volume() == Fraction(1, math.factorial(n))

    def test_rejects_affinely_dependent(self):
        with pytest.raises(ValueError):
            Simplex(((F(0), F(0)), (F(1), F(1)), (F(2), F(2))))

    def test_lower_dim_volume_rejected(self):
        s = Simplex(((F(0), F(0)), (F(1), F(0))))
        assert s.dim == 1 and s.ambient_dim == 2
        with pytest.raises(ValueError):
            s.volume()


class TestConstruction:
    def test_blowup_n2_vertices(self):
        p = standard_blowup_polytope(2, 3)
        assert p.vertices() == [
            (F(0), F(1)),
            (F(0), F(3)),
            (F(1), F(0)),
            (F(3), F(0)),
        ]
        assert p.num_facets == 4
        assert [h.v for h in p.halfspaces] == [(1, 0), (0, 1), (1, 1), (-1, -1)]

    def test_blowup_n3_vertices(self):
        p = standard_blowup_polytope(3, 2)
        expected = set()
        for i in range(3):
            e = tuple(F(1 if j == i else 0) for j in range(3))
            expected.add(e)
            expected.add(tuple(2 * c for c in e))
        assert set(p.vertices()) == expected
        assert p.num_facets == 5

    def test_blowup_rejects_small_b(self):
        for b in (1, Fraction(1, 2), 0):
            with pytest.raises(ValueError):
                standard_blowup_polytope(2, b)

    def test_unbounded_rejected(self):
        hs = [HalfSpace((1, 0), Fraction(0)), HalfSpace((0, 1), Fraction(0))]
        with pytest.raises(ValueError, match="unbounded"):
            DelzantPolytope(2, hs)

    def test_empty_rejected(self):
        hs = [
            HalfSpace((1, 0), Fraction(0)),
            HalfSpace((0, 1), Fraction(0)),
            HalfSpace((-1, -1), Fraction(-1)),
        ]
        with pytest.raises(ValueError, match="no vertices"):
            DelzantPolytope(2, hs)

    def test_lower_dimensional_rejected(self):
        hs = [
            HalfSpace((1, 0), Fraction(0)),
            HalfSpace((-1, 0), Fraction(0)),
            HalfSpace((0, 1), Fraction(0)),
            HalfSpace((0, -1), Fraction(1)),
        ]
        with pytest.raises(ValueError, match="full-dimensional"):
            DelzantPolytope(2, hs)

    def test_redundant_halfspace_pruned(self):
        box = unit_box(2)
        padded = DelzantPolytope(
            2, list(box.halfspaces) + [HalfSpace((1, 1), Fraction(5))]
        )
        assert padded.num_facets == 4
        assert padded == box

    def test_duplicate_halfspaces_collapse(self):
        p = standard_blowup_polytope(2, 3)
        again = DelzantPolytope(2, list(p.halfspaces) + [p.halfspaces[0]])
        assert again == p

    def test_subset_budget_guard(self):
        hs = []
        for i in range(10):
            e = tuple(1 if j == i else 0 for j in range(10))
            hs.append(HalfSpace(e, Fraction(0)))
            hs.append(HalfSpace(tuple(-c for c in e), Fraction(1)))
        for i in range(5):
            v = tuple(1 if j in (i, i + 1) else 0 for j in range(10))
            hs.append(HalfSpace(v, Fraction(3)))
        with pytest.raises(ValueError, match="budget"):
            DelzantPolytope(10, hs)

    @pytest.mark.parametrize("n, m", [(2, 200), (1, 2000), (1, 8000)])
    def test_budget_refuses_before_enumeration(self, monkeypatch, n, m):
        # Each of these once ran for half a minute or more: the budget
        # counts C(m, n) * m evaluations, not only the C(m, n) subsets.
        def normal_fan(n, normals):
            raise AssertionError("vertex enumeration started")

        monkeypatch.setattr(polytope, "_normal_fan", normal_fan)
        hs = [HalfSpace((1,) + (k,) * (n - 1), F(k)) for k in range(m)]
        with pytest.raises(ValueError, match=f"{m} half-spaces in dimension {n} exceed"):
            DelzantPolytope(n, hs)

    def test_budget_boundary(self, monkeypatch):
        # P(3, 2) has 5 half-spaces: C(5, 3) * 5 = 50 evaluations, counted
        # after duplicates are dropped.
        p = standard_blowup_polytope(3, 2)
        hs = list(p.halfspaces)
        monkeypatch.setattr(polytope, "MAX_VERTEX_EVALUATIONS", 50)
        assert DelzantPolytope(3, hs + hs) == p
        monkeypatch.setattr(polytope, "MAX_VERTEX_EVALUATIONS", 49)
        with pytest.raises(ValueError, match="budget of 49"):
            DelzantPolytope(3, hs)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            DelzantPolytope(0, [])
        with pytest.raises(TypeError):
            DelzantPolytope(2, [(1, 0)])
        with pytest.raises(ValueError):
            DelzantPolytope(2, [HalfSpace((1, 0, 0), Fraction(0))])


class TestQueries:
    def test_facet_vertices(self):
        p = standard_blowup_polytope(2, 3)
        assert set(p.facet_vertices(2)) == {(F(0), F(1)), (F(1), F(0))}
        assert set(p.facet_vertices(3)) == {(F(0), F(3)), (F(3), F(0))}
        with pytest.raises(ValueError):
            p.facet_vertices(4)
        with pytest.raises(ValueError):
            p.facet_vertices(-1)

    def test_bounding_box(self):
        p = standard_blowup_polytope(2, 3)
        assert p.bounding_box() == ((F(0), F(0)), (F(3), F(3)))

    def test_affine_rank(self):
        assert affine_rank([]) == -1
        assert affine_rank([(F(1), F(2))]) == 0
        assert affine_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1

    def test_as_point_length_check(self):
        with pytest.raises(ValueError):
            as_point((1, 2, 3), 2)


class TestDelzantProperty:
    def test_smooth_examples(self):
        assert standard_blowup_polytope(2, 3).is_delzant()
        assert standard_blowup_polytope(3, 2).is_delzant()
        tri = DelzantPolytope(
            2,
            [
                HalfSpace((1, 0), Fraction(0)),
                HalfSpace((0, 1), Fraction(0)),
                HalfSpace((-1, -1), Fraction(1)),
            ],
        )
        assert tri.is_delzant()

    def test_non_unimodular_vertex(self):
        p = DelzantPolytope(
            2,
            [
                HalfSpace((1, 0), Fraction(0)),
                HalfSpace((0, 1), Fraction(0)),
                HalfSpace((-1, -2), Fraction(2)),
            ],
        )
        assert not p.is_delzant()

    def test_non_simple_vertex(self):
        assert not octahedron().is_delzant()


class TestTriangulation:
    @pytest.mark.parametrize("rule", ["lexmin", "lexmax"])
    def test_volume_partition(self, rule):
        cases = [
            (standard_blowup_polytope(2, 3), Fraction(4)),
            (standard_blowup_polytope(3, 2), Fraction(7, 6)),
            (unit_box(3), Fraction(1)),
            (octahedron(), Fraction(4, 3)),
        ]
        for p, vol in cases:
            parts = p.triangulate(rule)
            assert all(s.dim == p.n for s in parts)
            assert sum(s.volume() for s in parts) == vol

    def test_facet_triangulation_covers_facet(self):
        p = standard_blowup_polytope(3, 2)
        for i in range(p.num_facets):
            parts = p.facet_triangulate(i)
            assert all(s.dim == 2 for s in parts)
            covered = {v for s in parts for v in s.vertices}
            assert covered == set(p.facet_vertices(i))

    def test_octahedron_facet_is_single_triangle(self):
        parts = octahedron().facet_triangulate(0)
        assert len(parts) == 1

    def test_rejects_unknown_apex_rule(self):
        p = standard_blowup_polytope(2, 3)
        with pytest.raises(ValueError):
            p.triangulate("random")
        with pytest.raises(ValueError):
            p.facet_triangulate(0, "first")


def _reference_subfaces(p, face, d):
    """Sub-faces found by evaluating every half-space at every face vertex."""
    face_set = frozenset(face)
    seen = set()
    out = []
    for h in p.halfspaces:
        on = tuple(v for v in face if h.value(v) == 0)
        key = frozenset(on)
        if not on or key == face_set or key in seen:
            continue
        if affine_rank(on) == d - 1:
            seen.add(key)
            out.append(on)
    return out


def _reference_pull(p, face, d, rule):
    """The pulling walk over :func:`_reference_subfaces`, as vertex tuples."""
    if len(face) == d + 1:
        return [face]
    apex = min(face) if rule == "lexmin" else max(face)
    out = []
    for sub in _reference_subfaces(p, face, d):
        if apex in sub:
            continue
        out.extend(s + (apex,) for s in _reference_pull(p, sub, d - 1, rule))
    return out


def _incidence_cases():
    cases = [
        (f"blowup-{n}-{b}", standard_blowup_polytope(n, b))
        for n in range(1, 6)
        for b in (F(3, 2), F(2), F(7, 3))
    ]
    cases.append(
        ("translate", standard_blowup_polytope(3, F(5, 2)).translate((2, F(-1, 3), 1)))
    )
    cases.append(("octahedron", octahedron()))
    # x + y >= 0 is tight on the cube edge x = y = 0, but is no facet.
    cube = unit_box(3)
    cases.append(
        ("redundant", DelzantPolytope(3, list(cube.halfspaces) + [HalfSpace((1, 1, 0), F(0))]))
    )
    cube_json = {
        "n": 3,
        "halfspaces": [
            {"v": [s * int(i == j) for j in range(3)], "lam": lam}
            for i in range(3)
            for s, lam in ((1, 0), (-1, "2"))
        ],
    }
    cases.append(("cube-json", DelzantPolytope.from_json_dict(cube_json)))
    return cases


INCIDENCE_CASES = _incidence_cases()
INCIDENCE_IDS = [name for name, _ in INCIDENCE_CASES]


class TestIncidence:
    """Faces come from the stored vertex-facet incidence; these pin it to
    direct evaluation of the half-spaces."""

    def test_redundant_case_is_pruned(self):
        p = dict(INCIDENCE_CASES)["redundant"]
        assert p.num_facets == 6
        assert p == unit_box(3)

    @pytest.mark.parametrize("p", [p for _, p in INCIDENCE_CASES], ids=INCIDENCE_IDS)
    def test_table_matches_evaluation(self, p):
        verts = p.vertices()
        assert list(p._tight) == verts
        for v in verts:
            assert p._tight[v] == tuple(
                i for i, h in enumerate(p.halfspaces) if h.value(v) == 0
            )
        for i, h in enumerate(p.halfspaces):
            assert p.facet_vertices(i) == [v for v in verts if h.value(v) == 0]

    @pytest.mark.parametrize("rule", ["lexmin", "lexmax"])
    @pytest.mark.parametrize("p", [p for _, p in INCIDENCE_CASES], ids=INCIDENCE_IDS)
    def test_walk_matches_evaluating_walk(self, p, rule):
        verts = tuple(p.vertices())
        body = [s.vertices for s in p.triangulate(rule)]
        assert body == _reference_pull(p, verts, p.n, rule)
        for i, h in enumerate(p.halfspaces):
            facet = tuple(v for v in verts if h.value(v) == 0)
            parts = [s.vertices for s in p.facet_triangulate(i, rule)]
            assert parts == _reference_pull(p, facet, p.n - 1, rule)


def _reference_vertices(n, hs):
    """Vertex enumeration by one exact solve per n-subset of half-spaces."""
    verts = set()
    for subset in itertools.combinations(range(len(hs)), n):
        x = mat_solve([list(hs[i].v) for i in subset], [-hs[i].lam for i in subset])
        if x is not None and all(h.value(x) >= 0 for h in hs):
            verts.add(tuple(x))
    return sorted(verts)


def mat_kernel(rows, n):
    """A nonzero solution of ``rows @ d = 0`` in ``n`` unknowns, or None at
    full column rank: 1 at the first free column, 0 at the other free ones.
    It eliminates through the ``exactnum`` module, so that elimination
    counts see it."""
    a = [[Fraction(c) for c in row] for row in rows]
    pivots, _ = exactnum._row_reduce(a, n)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    return tuple(exactnum._null_vector(a, pivots, free, n))


def _reference_recession_direction(n, hs):
    """Recession test over the half-spaces themselves, per polytope."""
    normals = [list(h.v) for h in hs]
    kernel = mat_kernel(normals, n)
    if kernel is not None:
        return kernel
    if n == 1:
        signs = {h.v[0] for h in hs}
        if 1 not in signs:
            return (F(-1),)
        if -1 not in signs:
            return (F(1),)
        return None
    for subset in itertools.combinations(range(len(hs)), n - 1):
        rows = [list(hs[i].v) for i in subset]
        if mat_rank(rows) != n - 1:
            continue
        d = mat_kernel(rows, n)
        if d is None:
            continue
        for cand in (d, tuple(-c for c in d)):
            if all(sum(a * b for a, b in zip(cand, h.v)) >= 0 for h in hs):
                return cand
    return None


def _reference_construction(n, halfspaces):
    """Vertices, kept half-spaces, facet vertex sets and the incidence table,
    each computed from scratch for this one polytope, with the constructor's
    checks in its order."""
    hs = list(dict.fromkeys(halfspaces))
    verts = _reference_vertices(n, hs)
    if not verts:
        raise ValueError("no vertices: the half-spaces cut out an empty or unbounded set")
    if _reference_recession_direction(n, hs) is not None:
        raise ValueError("polytope is unbounded (recession direction exists)")
    if affine_rank(verts) != n:
        raise ValueError("polytope is not full-dimensional")
    kept, facet_verts = [], []
    for h in hs:
        on = tuple(v for v in verts if h.value(v) == 0)
        if affine_rank(on) == n - 1:
            kept.append(h)
            facet_verts.append(on)
    tight = {v: tuple(i for i, on in enumerate(facet_verts) if v in on) for v in verts}
    return verts, tuple(kept), facet_verts, tight


def _construction(n, halfspaces):
    p = DelzantPolytope(n, halfspaces)
    facets = [tuple(p.facet_vertices(i)) for i in range(p.num_facets)]
    return p.vertices(), p.halfspaces, facets, p._tight


def _slab(n, b):
    return standard_blowup_polytope(n, b).halfspaces


def _memo_cases():
    # Slabs in an order that alternates fans, so that a polytope is built
    # while another fan's entry sits in the memo.
    slabs = [(3, F(2)), (5, F(7, 3)), (3, F(5, 2)), (1, F(3)), (6, F(3, 2)), (2, F(3)),
             (1, F(5, 2)), (4, F(7, 3)), (6, F(2)), (2, F(7, 3)), (4, F(2)), (5, F(3, 2))]
    cases = [(f"slab-{n}-{b}", n, _slab(n, b)) for n, b in slabs]
    moved = standard_blowup_polytope(3, F(5, 2)).translate((2, F(-1, 3), 1))
    cases.append(("translate", 3, moved.halfspaces))
    det2 = [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0)), HalfSpace((-1, -2), F(2))]
    cases.append(("det-2-corner", 2, det2))
    cases.append(("octahedron", 3, octahedron().halfspaces))
    cube = {"n": 3, "halfspaces": [{"v": [s * int(i == j) for j in range(3)], "lam": lam}
                                   for i in range(3) for s, lam in ((1, 0), (-1, "2"))]}
    cases.append(("cube-json", 3, DelzantPolytope.from_json_dict(cube).halfspaces))
    box = unit_box(3).halfspaces
    cases.append(("redundant", 3, [*box, HalfSpace((1, 1, 0), F(0))]))
    # x >= 0 and x >= -1 share a normal; the second is no facet.
    cases.append(("same-normal", 3, [*box, HalfSpace((1, 0, 0), F(1))]))
    return cases


MEMO_CASES = _memo_cases()

# Each raises at a different check; the last two fail two checks each, and
# the constructor reports the first in its order.
INVALID_INPUTS = {
    "empty": (2, [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0)),
                  HalfSpace((-1, -1), F(-1))]),
    "unbounded": (2, [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0))]),
    "lower-dimensional": (2, [HalfSpace((1, 0), F(0)), HalfSpace((-1, 0), F(0)),
                              HalfSpace((0, 1), F(0)), HalfSpace((0, -1), F(1))]),
    "empty-and-unbounded": (2, [HalfSpace((1, 0), F(-1)), HalfSpace((-1, 0), F(0)),
                                HalfSpace((0, 1), F(0))]),
    "unbounded-and-flat": (2, [HalfSpace((1, 0), F(0)), HalfSpace((-1, 0), F(0)),
                               HalfSpace((0, 1), F(0))]),
}


def _error(build, n, hs):
    with pytest.raises(ValueError) as info:
        build(n, hs)
    return str(info.value)


class TestNormalFanMemo:
    """Construction shares what depends only on the normals across
    polytopes; these pin it to the from-scratch pipeline."""

    def test_matches_reference_in_either_order(self):
        for order in (MEMO_CASES, MEMO_CASES[::-1]):
            _normal_fan.cache_clear()
            for name, n, hs in order:
                assert _construction(n, hs) == _reference_construction(n, hs), name

    def test_invalid_inputs_raise_the_reference_error(self):
        expected = {
            "empty": "no vertices", "unbounded": "unbounded",
            "lower-dimensional": "not full-dimensional",
            "empty-and-unbounded": "no vertices", "unbounded-and-flat": "unbounded",
        }
        for cold in (True, False):
            for name, (n, hs) in INVALID_INPUTS.items():
                if cold:
                    _normal_fan.cache_clear()
                message = _error(DelzantPolytope, n, hs)
                assert message == _error(_reference_construction, n, hs), name
                assert expected[name] in message, name

    def test_memo_stays_bounded(self):
        # Each order of the same half-spaces is its own fan key.
        orders = list(itertools.permutations(_slab(2, F(3))))[:12]
        _normal_fan.cache_clear()
        for _ in range(2):
            for hs in orders:
                assert _construction(2, hs) == _reference_construction(2, hs)
                assert _normal_fan.cache_info().currsize <= 8
        assert _normal_fan.cache_info().misses == 24

    def test_cold_construction_eliminates_no_more_than_from_scratch(self, monkeypatch):
        calls = []
        row_reduce = exactnum._row_reduce

        def counting(a, ncols):
            calls.append(ncols)
            return row_reduce(a, ncols)

        monkeypatch.setattr(exactnum, "_row_reduce", counting)

        def count(build, n, hs):
            calls.clear()
            build(n, hs)
            return len(calls)

        for name, n, hs in MEMO_CASES:
            _normal_fan.cache_clear()
            cold = count(DelzantPolytope, n, hs)
            assert cold <= count(_reference_construction, n, hs), name
            assert count(DelzantPolytope, n, hs) < cold, name


def _random_halfspaces(rng, n):
    """Distinct half-spaces ``<x, v> + 1 >= 0`` whose primitive normals,
    with entries in [-1, 1], span: the origin is interior, so the set they
    cut out is never empty or flat."""
    while True:
        hs = []
        for _ in range(rng.randint(n + 1, n + 4)):
            v = tuple(rng.randint(-1, 1) for _ in range(n))
            if any(v):
                hs.append(HalfSpace(v, F(1)))
        hs = list(dict.fromkeys(hs))
        if hs and mat_rank([h.v for h in hs]) == n:
            return hs


class TestBoundedness:
    def test_fan_verdict_matches_recession_search(self):
        rng = random.Random(20261019)
        verdicts = []
        for n in (1, 2, 3, 4):
            for _ in range(50):
                hs = _random_halfspaces(rng, n)
                bounded = _reference_recession_direction(n, hs) is None
                assert _normal_fan(n, tuple(h.v for h in hs))[0] == bounded, hs
                if bounded:
                    assert DelzantPolytope(n, hs).vertices()
                else:
                    with pytest.raises(ValueError, match="unbounded"):
                        DelzantPolytope(n, hs)
                verdicts.append((n, bounded))
        assert set(verdicts) == set(itertools.product((1, 2, 3, 4), (True, False)))


class TestTransforms:
    def test_translate_identity(self):
        p = standard_blowup_polytope(2, 3)
        assert p.translate((0, 0)) == p

    def test_translate_round_trip(self):
        p = standard_blowup_polytope(2, 3)
        t = (F(1, 2), F(-3))
        back = p.translate(t).translate(tuple(-c for c in t))
        assert back == p

    def test_translate_moves_vertices(self):
        p = standard_blowup_polytope(2, 3)
        t = (F(2), F(5, 2))
        moved = p.translate(t)
        expected = sorted(tuple(a + b for a, b in zip(v, t)) for v in p.vertices())
        assert moved.vertices() == expected

    def test_json_round_trip(self):
        for p in (standard_blowup_polytope(2, 3), octahedron()):
            assert DelzantPolytope.from_json_dict(p.to_json_dict()) == p
