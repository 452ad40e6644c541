"""Half-space polytopes: vertex enumeration, validation, triangulation."""

from fractions import Fraction

import pytest

from toricfutaki.polytope import (
    MAX_VERTEX_SUBSETS,
    DelzantPolytope,
    HalfSpace,
    Simplex,
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
