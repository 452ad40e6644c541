"""Rational convex polytopes in half-space form, with exact combinatorics.

A polytope is given by inequalities ``l_i(x) = <x, v_i> + lam_i >= 0`` with
primitive integer normals ``v_i`` and rational offsets ``lam_i``.
Construction enumerates all vertices exactly from the inverse of each
non-singular n-subset of normals, reads boundedness off the same inverses,
rejects unbounded or lower-dimensional input, prunes half-spaces whose
tight set is not a facet, and stores the vertex-facet incidence; the
inverses and the boundedness verdict depend only on the normals and are
built once per normal fan.  On top of that sit pulling triangulations
(of the body and of each facet, with faces read from the stored
incidence), the smooth-vertex test, and the one-parameter family of model
polytopes used throughout: the simplex of size ``b`` truncated at the
origin corner, ``{x >= 0, 1 <= x_1 + ... + x_n <= b}``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactnum import (
    Point,
    RationalLike,
    as_fraction,
    as_point,
    format_rational,
    mat_det,
    mat_inverse,
    mat_rank,
    over_lcm,
    parse_rational,
)

# Vertex enumeration evaluates each of the m half-spaces at the candidate of
# each n-subset, C(m, n) * m evaluations; this cap keeps a malformed input
# from hanging the process.  An evaluation's cost, with its share of the
# subset's inverse, grows with n: at the cap the slowest input measured over
# n = 1..10 (13 random half-spaces at n = 9) took 8.3 s on a 2-core host
# whose perfbench/speed.py factor read 1.3.  P(10, b) needs 792.
MAX_VERTEX_EVALUATIONS = 10_000


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of a point set (-1 when empty)."""
    if not points:
        return -1
    base = points[0]
    diffs = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    if not diffs:
        return 0
    return mat_rank(diffs)


@dataclass(frozen=True)
class HalfSpace:
    """One inequality ``<x, v> + lam >= 0`` with primitive integer normal.

    A non-primitive integer normal is normalized by dividing the whole
    inequality by ``gcd(v)``; this leaves the half-space unchanged and makes
    the induced lattice measure on the boundary well defined.
    """

    v: tuple[int, ...]
    lam: Fraction

    def __post_init__(self) -> None:
        v = tuple(self.v)
        if not v:
            raise ValueError("normal vector must be non-empty")
        if any(not isinstance(c, int) or isinstance(c, bool) for c in v):
            raise ValueError(f"normal must have integer entries: {v}")
        g = math.gcd(*(abs(c) for c in v))
        if g == 0:
            raise ValueError("normal vector must be nonzero")
        lam = as_fraction(self.lam)
        if g > 1:
            v = tuple(c // g for c in v)
            lam = lam / g
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return len(self.v)

    def value(self, x: Sequence[RationalLike]) -> Fraction:
        pt = as_point(x, self.n)
        return sum((a * b for a, b in zip(pt, self.v) if b), self.lam)

    def to_json_dict(self) -> dict:
        return {"v": list(self.v), "lam": format_rational(self.lam)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "HalfSpace":
        lam = d["lam"]
        if isinstance(lam, float):
            raise TypeError("half-space offset must be an int or 'p/q' string, not float")
        return cls(tuple(d["v"]), as_fraction(lam))


@dataclass(frozen=True)
class Simplex:
    """Affinely independent rational points; dimension is ``len - 1``."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        verts = tuple(tuple(as_fraction(c) for c in p) for p in self.vertices)
        if not verts:
            raise ValueError("simplex needs at least one vertex")
        if len({len(p) for p in verts}) != 1:
            raise ValueError("simplex vertices must share an ambient dimension")
        if affine_rank(verts) != len(verts) - 1:
            raise ValueError("simplex vertices must be affinely independent")
        object.__setattr__(self, "vertices", verts)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def edge_matrix(self) -> list[list[Fraction]]:
        """Rows ``v_k - v_0`` for ``k >= 1``."""
        base = self.vertices[0]
        return [
            [p[j] - base[j] for j in range(self.ambient_dim)]
            for p in self.vertices[1:]
        ]

    def volume(self) -> Fraction:
        """Euclidean volume; requires the simplex to be full-dimensional."""
        if self.dim != self.ambient_dim:
            raise ValueError("volume needs a full-dimensional simplex")
        return abs(mat_det(self.edge_matrix())) / math.factorial(self.dim)


class DelzantPolytope:
    """Bounded full-dimensional polytope from validated half-space data.

    The constructor runs the whole pipeline: exact vertex enumeration over
    all ``n``-subsets of half-spaces, a boundedness test on the inverses of
    those subsets, a full-dimensionality check on the vertex set, and pruning
    of half-spaces whose tight set has affine rank below ``n - 1``.  What
    depends only on the normals comes from :func:`_normal_fan`, and each
    (half-space, candidate vertex) pair is evaluated once, into the tight
    sets that the pruning and the face walk read.  Facet indices used
    elsewhere always refer to the pruned list, whose order follows the input.
    """

    __slots__ = ("n", "_halfspaces", "_vertices", "_tight", "_facet_vertices")

    def __init__(self, n: int, halfspaces: Iterable[HalfSpace]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("ambient dimension must be a positive int")
        hs = list(halfspaces)
        for h in hs:
            if not isinstance(h, HalfSpace):
                raise TypeError("halfspaces must be HalfSpace instances")
            if h.n != n:
                raise ValueError(f"half-space normal {h.v} has wrong dimension for n={n}")
        hs = list(dict.fromkeys(hs))  # duplicates carry no information
        if math.comb(len(hs), n) * len(hs) > MAX_VERTEX_EVALUATIONS:
            raise ValueError(
                f"{len(hs)} half-spaces in dimension {n} exceed the "
                f"vertex-enumeration budget of {MAX_VERTEX_EVALUATIONS} "
                "(subset, half-space) evaluations"
            )

        found = self._enumerate_vertices(n, hs)
        verts = [v for v, _ in found]
        if not verts:
            raise ValueError("no vertices: the half-spaces cut out an empty or unbounded set")
        if not _normal_fan(n, tuple(h.v for h in hs))[0]:
            raise ValueError("polytope is unbounded (recession direction exists)")
        if affine_rank(verts) != n:
            raise ValueError("polytope is not full-dimensional")

        facet_verts: list[tuple[Point, ...]] = []
        kept: dict[int, int] = {}  # input index -> facet index
        for j in range(len(hs)):
            on = tuple(v for v, t in found if j in t)
            if affine_rank(on) == n - 1:
                kept[j] = len(kept)
                facet_verts.append(on)
        tight = {v: tuple(kept[j] for j in t if j in kept) for v, t in found}

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_halfspaces", tuple(hs[j] for j in kept))
        object.__setattr__(self, "_vertices", tuple(verts))
        object.__setattr__(self, "_tight", tight)
        object.__setattr__(self, "_facet_vertices", tuple(facet_verts))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DelzantPolytope is immutable")

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def _enumerate_vertices(n: int, hs: list[HalfSpace]) -> list[tuple[Point, tuple[int, ...]]]:
        """Each vertex, sorted, with the indices of the ``hs`` tight there.
        In ints: with offsets ``l_j / q`` and an inverse ``Q / d``, the
        candidate is ``y / (d*q)`` for ``y = Q @ (-l_S)``, and ``h_j`` has
        the sign of ``<y, v_j> + l_j*d`` there."""
        (offsets,), q = over_lcm([[h.lam for h in hs]])
        normals = [[(k, c) for k, c in enumerate(h.v) if c] for h in hs]
        found: dict[tuple[int, ...], tuple[Point, tuple[int, ...]]] = {}
        for subset, inverse, d in _normal_fan(n, tuple(h.v for h in hs))[1]:
            rhs = [(k, -offsets[i]) for k, i in enumerate(subset) if offsets[i]]
            y = [sum(row[k] * b for k, b in rhs) for row in inverse]
            g = math.gcd(d * q, *y)
            key = (d * q // g, *(c // g for c in y))  # the candidate in lowest terms
            if key in found:
                continue
            values = [sum(y[k] * c for k, c in v) + l * d for v, l in zip(normals, offsets)]
            if all(val >= 0 for val in values):
                x = tuple(Fraction(c // g, key[0]) for c in y)
                found[key] = (x, tuple(j for j, val in enumerate(values) if val == 0))
        return sorted(found.values())

    # -- basic queries -------------------------------------------------------

    @property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        return self._halfspaces

    @property
    def num_facets(self) -> int:
        return len(self._halfspaces)

    def vertices(self) -> list[Point]:
        """All vertices, sorted lexicographically."""
        return list(self._vertices)

    def facet_vertices(self, i: int) -> list[Point]:
        self._check_facet_index(i)
        return list(self._facet_vertices[i])

    def bounding_box(self) -> tuple[Point, Point]:
        mins = tuple(min(v[j] for v in self._vertices) for j in range(self.n))
        maxs = tuple(max(v[j] for v in self._vertices) for j in range(self.n))
        return mins, maxs

    def _check_facet_index(self, i: int) -> None:
        if not isinstance(i, int) or not 0 <= i < len(self._halfspaces):
            raise ValueError(
                f"facet index {i} out of range (polytope has {len(self._halfspaces)} facets)"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DelzantPolytope):
            return NotImplemented
        return self.n == other.n and self._halfspaces == other._halfspaces

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"DelzantPolytope(n={self.n}, facets={len(self._halfspaces)}, "
            f"vertices={len(self._vertices)})"
        )

    # -- smoothness ----------------------------------------------------------

    def is_delzant(self) -> bool:
        """True when every vertex is smooth: exactly ``n`` facets meet there
        and their primitive normals span the integer lattice (det +-1)."""
        for v in self._vertices:
            idx = self._tight[v]
            if len(idx) != self.n:
                return False
            rows = [list(self._halfspaces[i].v) for i in idx]
            if abs(mat_det(rows)) != 1:
                return False
        return True

    # -- faces and triangulation ---------------------------------------------

    def _subfaces(
        self, face: tuple[Point, ...], d: int
    ) -> list[tuple[Point, ...]]:
        """Codimension-one faces of a d-dimensional face, each sorted, read
        from the stored vertex-facet incidence: no half-space is evaluated."""
        face_set = frozenset(face)
        seen: set[frozenset[Point]] = set()
        out: list[tuple[Point, ...]] = []
        tights = [self._tight[v] for v in face]
        for i in range(len(self._halfspaces)):
            on = tuple(v for v, t in zip(face, tights) if i in t)
            key = frozenset(on)
            if not on or key == face_set or key in seen:
                continue
            if affine_rank(on) == d - 1:
                seen.add(key)
                out.append(on)
        return out

    @staticmethod
    def _apex_pick(apex_rule: str) -> Callable[[tuple[Point, ...]], Point]:
        if apex_rule not in ("lexmin", "lexmax"):
            raise ValueError(f"unknown apex rule: {apex_rule!r}")
        return min if apex_rule == "lexmin" else max

    def _pull(
        self, face: tuple[Point, ...], d: int, pick: Callable[[tuple[Point, ...]], Point]
    ) -> list[Simplex]:
        if len(face) == d + 1:
            return [Simplex(face)]
        apex = pick(face)
        simplices: list[Simplex] = []
        for sub in self._subfaces(face, d):
            if apex in sub:
                continue
            for s in self._pull(sub, d - 1, pick):
                simplices.append(Simplex(s.vertices + (apex,)))
        return simplices

    def triangulate(self, apex_rule: str = "lexmin") -> list[Simplex]:
        """Pulling triangulation of the body, deterministic per apex rule.

        ``apex_rule`` picks the pulled vertex of every face: the
        lexicographically smallest ("lexmin") or largest ("lexmax").
        """
        return self._pull(self._vertices, self.n, self._apex_pick(apex_rule))

    def facet_triangulate(self, i: int, apex_rule: str = "lexmin") -> list[Simplex]:
        """Pulling triangulation of facet ``i`` into (n-1)-simplices."""
        self._check_facet_index(i)
        return self._pull(self._facet_vertices[i], self.n - 1, self._apex_pick(apex_rule))

    # -- transforms and serialization ------------------------------------------

    def translate(self, t: Sequence[RationalLike]) -> "DelzantPolytope":
        """The polytope ``P + t``; normals are unchanged, offsets shift."""
        tv = as_point(t, self.n)
        moved = [
            HalfSpace(h.v, h.lam - sum(a * b for a, b in zip(tv, h.v)))
            for h in self._halfspaces
        ]
        return DelzantPolytope(self.n, moved)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "halfspaces": [h.to_json_dict() for h in self._halfspaces],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DelzantPolytope":
        return cls(d["n"], [HalfSpace.from_json_dict(h) for h in d["halfspaces"]])


# At most 8 fans x MAX_VERTEX_EVALUATIONS / m inverses x n^2 ints each are
# held; verify-paper builds its polytopes from 6 fans.
@functools.lru_cache(maxsize=8)
def _normal_fan(n: int, normals: tuple[tuple[int, ...], ...]) -> tuple[bool, tuple]:
    """Whether the normals bound every polytope they cut out, and each
    non-singular ``n``-subset, in ``combinations`` order, with its inverse
    as an integer matrix ``Q`` and the lcm ``d`` of its denominators, so
    that the inverse is ``Q / d``.

    The verdict is read only when some vertex exists, so the normals span
    and the recession cone ``{d : <d, v_i> >= 0}`` is pointed.  Each of its
    extreme rays is tight on ``n - 1`` independent normals; one more makes
    a non-singular subset ``S`` with ``V_S d >= 0`` a multiple of a unit
    vector, so ``d`` is a positive multiple of a column of ``V_S^-1``.  The
    normals are therefore unbounded exactly when some inverse column pairs
    non-negatively with every normal.  Each column stops at its first
    negative pairing: at worst n x m pairings per subset, the order of the
    m half-space evaluations each candidate vertex gets, and once per fan.
    """
    subsets = itertools.combinations(range(len(normals)), n)
    inverses = ((s, mat_inverse([normals[i] for i in s])) for s in subsets)
    fan = tuple((s, *over_lcm(inv)) for s, inv in inverses if inv is not None)
    rays = (col for _, inv, _ in fan for col in zip(*inv))
    bounded = not any(
        all(sum(d * c for d, c in zip(ray, v) if c) >= 0 for v in normals) for ray in rays
    )
    return bounded, fan


def standard_blowup_polytope(n: int, b: RationalLike) -> DelzantPolytope:
    """The model polytope ``{x >= 0, 1 <= x_1 + ... + x_n <= b}``.

    This is the moment polytope of projective n-space of size ``b`` blown
    up at a fixed point, with exceptional size 1; it is Delzant for every
    rational ``b > 1``.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive int")
    bf = as_fraction(b)
    if bf <= 1:
        raise ValueError(f"outer size b must exceed 1 (got {bf}); the class is not Kahler")
    ones = tuple([1] * n)
    hs = [
        HalfSpace(tuple(1 if j == i else 0 for j in range(n)), Fraction(0))
        for i in range(n)
    ]
    hs.append(HalfSpace(ones, Fraction(-1)))
    hs.append(HalfSpace(tuple([-1] * n), bf))
    return DelzantPolytope(n, hs)
