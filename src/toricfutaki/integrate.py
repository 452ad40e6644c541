"""Exact integration over rational polytopes, plus a Monte Carlo oracle.

Three exact integral types are provided:

* body integrals of polynomials against Lebesgue measure, by pulling
  triangulation and the Dirichlet moment formula on each simplex,
* facet integrals against the lattice boundary measure ``d(sigma)``, the
  measure whose density against (n-1)-dimensional Hausdorff measure is
  ``1 / |v|`` for a facet with primitive normal ``v`` (equivalently: the
  translation-invariant measure assigning volume 1 to a fundamental cell
  of the facet's intersection lattice),
* radial slab integrals of :class:`RadialSum` integrands over
  ``{x >= 0, lo <= x_1 + ... + x_n <= hi}``, which pick up an exact
  logarithm when the net radial power hits -1.

The Monte Carlo estimator is deliberately independent of all of that: it
rejection-samples the bounding box with a counter-based generator, so it
can arbitrate between an exact result and a transcription mistake.  Its
stream is indexed by sample position, and it reduces fixed blocks of
sample indices, each a pure function of the seed and its start.  Two
worker threads share the blocks (numpy draws without holding the GIL), and
each works through a block in smaller chunks, so the estimate is fixed bit
for bit.  One pass can serve several integrands: each chunk is drawn and
tested once, every integrand sees the same read-only points and fills its
own block of values, and memory is one block per integrand per worker.
The integrands are called per chunk from the workers, so they must be
row-wise and keep no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .exactnum import (
    LogLinear,
    MultiPoly,
    RadialSum,
    RationalLike,
    as_fraction,
    mat_det,
)
from .polytope import DelzantPolytope, Point, Simplex

if TYPE_CHECKING:
    import numpy as np


def _as_poly(n: int, p: MultiPoly | RationalLike) -> MultiPoly:
    if isinstance(p, MultiPoly):
        if p.n != n:
            raise ValueError(f"polynomial has {p.n} variables, expected {n}")
        return p
    return MultiPoly.constant(n, as_fraction(p))


# ---------------------------------------------------------------------------
# Simplex building blocks.


def monomial_simplex_integral(
    simplex: Simplex, p: MultiPoly, measure: Fraction
) -> Fraction:
    """Integral of ``p`` over a simplex carrying total measure ``measure``.

    Works in barycentric coordinates: each ambient coordinate is a linear
    form in the barycentric variables, and a barycentric monomial
    ``prod l_k**b_k`` integrates to ``measure * d! * prod(b_k!) / (d + |b|)!``
    on a d-simplex.  ``measure`` is the simplex's total mass in whichever
    measure is being used (Euclidean volume for body integrals, lattice
    measure for facet integrals), which is what makes this routine shared.
    """
    d = simplex.dim
    nbary = d + 1
    coords = [
        MultiPoly(
            nbary,
            {
                tuple(1 if k == kk else 0 for k in range(nbary)): simplex.vertices[kk][j]
                for kk in range(nbary)
                if simplex.vertices[kk][j] != 0
            },
        )
        for j in range(simplex.ambient_dim)
    ]
    total = Fraction(0)
    pow_cache: dict[tuple[int, int], MultiPoly] = {}
    for alpha, c in p.items():
        term = MultiPoly.constant(nbary, c)
        for j, e in enumerate(alpha):
            if not e:
                continue
            key = (j, e)
            if key not in pow_cache:
                pow_cache[key] = coords[j] ** e
            term = term * pow_cache[key]
        for beta, cq in term.items():
            num = math.prod(math.factorial(b) for b in beta)
            total += cq * Fraction(num, math.factorial(d + sum(beta)))
    return measure * math.factorial(d) * total


def sigma_simplex_measure(
    simplex: Simplex, normal: Sequence[int], transversal: Sequence[int]
) -> Fraction:
    """Lattice measure of an (n-1)-simplex inside a facet with given normal.

    For edge vectors ``u_1, ..., u_{n-1}`` of the simplex and any integer
    vector ``w`` with ``<v, w> != 0``, the measure is
    ``|det[u_1, ..., u_{n-1}, w]| / (|<v, w>| * (n-1)!)``; the choice of
    ``w`` drops out because the edges span the normal's orthogonal lattice
    direction space.
    """
    n = simplex.ambient_dim
    if simplex.dim != n - 1:
        raise ValueError("facet simplex must have codimension one")
    pairing = sum(a * b for a, b in zip(normal, transversal))
    if pairing == 0:
        raise ValueError(f"transversal {tuple(transversal)} lies in the facet hyperplane")
    rows = simplex.edge_matrix()
    rows.append([Fraction(w) for w in transversal])
    return abs(mat_det(rows)) / (abs(Fraction(pairing)) * math.factorial(n - 1))


# ---------------------------------------------------------------------------
# Polytope-level exact integrals.

# Exact integration expands each term x^alpha of the integrand into up to
# C(|alpha| + d, d) barycentric monomials on every d-simplex it integrates
# over; this caps that expansion, summed over terms and simplices.  The
# cost of a monomial grows with the degree too: at the cap the slowest
# input measured (x1^32*x2^32, 4290 monomials over the two triangles of a
# translate of P(2, 2)) took 7.9 s on a 2-core host whose
# perfbench/speed.py factor read 2.0.  Radial slab integrals expand nothing.
MAX_EXPANSION_TERMS = 5_000


def _integrate_parts(parts: Sequence[tuple[Simplex, Fraction]], q: MultiPoly) -> Fraction:
    """Sum of the integrals of ``q`` over ``(simplex, measure)`` pairs of one
    dimension, refused before any is computed if its barycentric expansion
    exceeds ``MAX_EXPANSION_TERMS``."""
    d = parts[0][0].dim
    size = len(parts) * sum(math.comb(sum(alpha) + d, d) for alpha, _ in q)
    if size > MAX_EXPANSION_TERMS:
        raise ValueError(
            f"integrand of degree {q.total_degree} expands to {size} monomials "
            f"over {len(parts)} simplices, over the budget of {MAX_EXPANSION_TERMS}"
        )
    return sum((monomial_simplex_integral(s, q, m) for s, m in parts), Fraction(0))


def _facet_parts(
    P: DelzantPolytope, i: int, transversal: Sequence[int] | None = None
) -> list[tuple[Simplex, Fraction]]:
    simplices = P.facet_triangulate(i)
    normal = P.halfspaces[i].v
    if transversal is None:
        # The first coordinate axis the normal sees.
        j = next(k for k, c in enumerate(normal) if c != 0)
        transversal = tuple(1 if k == j else 0 for k in range(P.n))
    return [(s, sigma_simplex_measure(s, normal, transversal)) for s in simplices]


def integrate_poly(P: DelzantPolytope, p: MultiPoly | RationalLike) -> Fraction:
    """Exact Lebesgue integral of a polynomial over the polytope body."""
    q = _as_poly(P.n, p)
    return _integrate_parts([(s, s.volume()) for s in P.triangulate()], q)


def volume(P: DelzantPolytope) -> Fraction:
    return integrate_poly(P, 1)


def integrate_poly_facet(
    P: DelzantPolytope,
    i: int,
    p: MultiPoly | RationalLike,
    transversal: Sequence[int] | None = None,
) -> Fraction:
    """Exact integral of a polynomial over facet ``i`` against ``d(sigma)``.

    ``transversal`` overrides the integer vector used in the lattice-measure
    determinant; the result is independent of that choice.
    """
    q = _as_poly(P.n, p)
    return _integrate_parts(_facet_parts(P, i, transversal), q)


def facet_sigma(P: DelzantPolytope, i: int) -> Fraction:
    return integrate_poly_facet(P, i, 1)


def integrate_poly_boundary(
    P: DelzantPolytope, p: MultiPoly | RationalLike
) -> Fraction:
    """Integral of a polynomial over the whole boundary against ``d(sigma)``,
    under one expansion budget for the simplices of every facet."""
    q = _as_poly(P.n, p)
    parts = [part for i in range(P.num_facets) for part in _facet_parts(P, i)]
    return _integrate_parts(parts, q)


def c_constant(P: DelzantPolytope, i: int) -> Fraction:
    """The constant ``c`` making ``integral of (x_i + c) over P`` vanish."""
    if not 0 <= i < P.n:
        raise ValueError(f"coordinate index {i} out of range for n={P.n}")
    parts = [(s, s.volume()) for s in P.triangulate()]
    moment = _integrate_parts(parts, MultiPoly.variable(P.n, i))
    return -moment / sum(vol for _, vol in parts)


# ---------------------------------------------------------------------------
# Radial slab integrals.


def integrate_radial_slab(
    n: int,
    lo: RationalLike,
    hi: RationalLike,
    r: RadialSum,
) -> LogLinear:
    """Exact integral of a radial sum over ``{x >= 0, lo <= sum(x) <= hi}``.

    Decomposes Lebesgue measure as ``X**(n-1) dX`` times normalized lattice
    measure on the standard simplex, whose monomial moments are Dirichlet
    factorials.  A net radial power of -1 integrates to a logarithm, so the
    result is a :class:`LogLinear` taken with respect to ``log(hi / lo)``.
    """
    lof, hif = as_fraction(lo), as_fraction(hi)
    if not 0 < lof < hif:
        raise ValueError(f"slab bounds must satisfy 0 < lo < hi, got {lof}, {hif}")
    if r.n != n:
        raise ValueError(f"integrand has {r.n} variables, expected {n}")
    q0 = Fraction(0)
    q1 = Fraction(0)
    for poly, k in r.terms():
        for alpha, c in poly.items():
            tot = sum(alpha)
            moment = Fraction(
                math.prod(math.factorial(a) for a in alpha),
                math.factorial(n - 1 + tot),
            )
            m = tot + n - 1 + k
            if m == -1:
                q1 += c * moment
            else:
                q0 += c * moment * (hif ** (m + 1) - lof ** (m + 1)) / (m + 1)
    return LogLinear(q0, q1)


def integrate_radial(n: int, b: RationalLike, r: RadialSum) -> LogLinear:
    """Slab integral with inner radius 1 and outer radius ``b`` (log base ``b``)."""
    return integrate_radial_slab(n, 1, b, r)


def slab_bounds(P: DelzantPolytope) -> tuple[Fraction, Fraction] | None:
    """Detect ``{x >= 0, lo <= sum(x) <= hi}`` structure; None otherwise."""
    n = P.n
    axes = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    lo = hi = None
    seen_axes = set()
    for h in P.halfspaces:
        if h.v in axes and h.lam == 0:
            seen_axes.add(h.v)
        elif h.v == tuple([1] * n):
            lo = -h.lam
        elif h.v == tuple([-1] * n):
            hi = h.lam
        else:
            return None
    if seen_axes != axes or lo is None or hi is None or not 0 < lo < hi:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# Monte Carlo oracle.

# Memory is one block per worker whatever the sample count; this cap bounds
# the running time of one call (tens of seconds at a few million samples per
# second).
MAX_MC_SAMPLES = 50_000_000

# Philox keys are 128-bit, so seeds lie in [0, MC_SEED_BOUND).
MC_SEED_BOUND = 1 << 128

# Samples are reduced in fixed blocks of MC_BLOCK indices, shared by up to
# MC_WORKERS threads, and drawn, tested and evaluated MC_CHUNK samples at a
# time inside a block.  All three are read at call time.
MC_BLOCK = 1 << 15
MC_WORKERS = 2
MC_CHUNK = 1 << 13


@dataclass(frozen=True)
class MCResult:
    """A seeded Monte Carlo estimate with its standard error."""

    estimate: float
    stderr: float
    samples: int
    accepted: int
    seed: int

    def agrees_with(self, exact: float) -> bool:
        """Tolerance check: ``|estimate - exact| <= max(4*SE, 1e-9*|exact|)``."""
        return abs(self.estimate - exact) <= max(4.0 * self.stderr, 1e-9 * abs(exact))


def mc_integrate(
    P: DelzantPolytope,
    f: Callable[[np.ndarray], np.ndarray],
    samples: int,
    seed: int,
) -> MCResult:
    """Monte Carlo integral of ``f`` over the polytope body.

    The one-integrand case of :func:`mc_integrate_many`, which describes
    the sampler; the result is the same bit for bit.
    """
    return mc_integrate_many(P, (f,), samples, seed)[0]


def mc_integrate_many(
    P: DelzantPolytope,
    fs: Sequence[Callable[[np.ndarray], np.ndarray]],
    samples: int,
    seed: int,
) -> tuple[MCResult, ...]:
    """Monte Carlo integrals of every integrand in ``fs`` over the polytope
    body, from one pass over the sample stream.

    Rejection-samples the exact bounding box with a Philox counter-based
    generator.  Each sample index owns a fixed block of ``ceil(n/4)``
    counter steps (Philox emits four 64-bit words per step), so the stream
    consumed by sample ``i`` depends only on ``i`` and the seed.  Each
    sample's accept test sums its half-space terms axis by axis, once for
    normals that differ only in sign, and compares the sum with minus the
    offset, so it does not depend on where the sample sits in a block either.

    Samples are reduced in blocks of ``MC_BLOCK`` sample indices.  A block
    is a pure function of ``(seed, start)``: its own generator, advanced to
    the block's first counter, draws and tests ``MC_CHUNK`` samples at a
    time, and every integrand fills its own reused block-long value buffer
    from the same accepted points.  ``np.sum`` gives each buffer's sum and
    sum of squares.  (Not ``np.dot``: BLAS may split a long dot product by
    thread count.)  ``min(MC_WORKERS, blocks)`` threads, in a pool that
    ends with the call, take the blocks in turn; ``math.fsum`` combines the
    block sums in block order.  So a seed and a sample count fix each
    result bit for bit whatever the worker count and whatever the other
    integrands are: result ``k`` equals ``mc_integrate(P, fs[k], samples,
    seed)``.  Memory is one block per integrand per worker whatever
    ``samples`` is.

    Each ``f`` is called only on accepted points, one chunk at a time, from
    the worker threads.  It must map an ``(m, n)`` float array to ``m``
    values, each depending on its own row only, and it must keep no state
    between calls.  The points are read-only, because every integrand sees
    the same array; writing to them raises.  An exception an integrand
    raises reaches the caller.
    """
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one integrand")
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > MAX_MC_SAMPLES:
        raise ValueError(
            f"{samples} samples exceed the cap of {MAX_MC_SAMPLES}"
            " (it bounds the running time of one call)"
        )
    if not 0 <= seed < MC_SEED_BOUND:
        raise ValueError(f"seed must be a non-negative int below 2**128, got {seed}")
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    n = P.n
    mins, maxs = P.bounding_box()
    lo = np.array([float(v) for v in mins])
    widths = np.array([float(b) - float(a) for a, b in zip(mins, maxs)])
    box_vol = float(np.prod(widths))
    # The half-spaces grouped by their nonzero (axis, coefficient) terms up
    # to sign, each with its sign and offset, less the box's lower faces.
    planes: dict[tuple[tuple[int, float], ...], list[tuple[float, float]]] = {}
    for h in P.halfspaces:
        terms = [(j, float(c)) for j, c in enumerate(h.v) if c]
        offset = float(h.lam)
        if len(terms) == 1 and terms[0][1] == 1.0 and -offset <= lo[terms[0][0]]:
            continue  # fl(fl(u*w_j) + lo_j) >= lo_j always holds
        sign = 1.0 if terms[0][1] > 0 else -1.0
        planes.setdefault(tuple((j, sign * c) for j, c in terms), []).append((sign, offset))

    blocks_per_sample = (n + 3) // 4
    draws_per_sample = 4 * blocks_per_sample

    block = min(MC_BLOCK, samples)
    chunk = min(MC_CHUNK, block)
    starts = range(0, samples, block)
    workers = min(MC_WORKERS, len(starts))

    def reduce_block(
        start: int, ys: list[np.ndarray], draws: np.ndarray, coords: np.ndarray,
        gathered: np.ndarray,
    ) -> tuple[list[tuple[float, float]], int]:
        """Each integrand's sum and sum of squares, and the hits, of the
        block that starts at ``start``."""
        count = min(block, samples - start)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(start * blocks_per_sample)
        gen = np.random.Generator(bitgen)
        hits = 0
        for at in range(0, count, chunk):
            m = min(chunk, count - at)
            u = gen.random(out=draws[:m])
            x = np.multiply(u[:, :n].T, widths[:, None], out=coords[:n, :m])
            x += lo[:, None]
            # fl(sum + offset) >= 0 exactly when sum >= -offset, and a list
            # with its signs flipped sums to exactly minus the same sum.
            inside = np.ones(m, dtype=bool)
            for ((j, c), *rest), tests in planes.items():
                total = x[j] if c == 1.0 else np.multiply(x[j], c, out=coords[n, :m])
                for j, c in rest:
                    if c == 1.0 or c == -1.0:
                        total = (np.add if c > 0 else np.subtract)(total, x[j], out=coords[n, :m])
                    else:
                        total = np.add(total, x[j] * c, out=coords[n, :m])
                for sign, offset in tests:
                    inside &= total >= -offset if sign > 0 else total <= offset
            idx = np.flatnonzero(inside)
            k = len(idx)
            for y in ys:
                y[at : at + m].fill(0.0)
            if k:
                # Gather the accepted points by index, axis by axis, into
                # rows; scatter each integrand's values back the same way.
                points = gathered[:k]
                for j in range(n):
                    np.take(x[j], idx, out=points[:, j])
                points.flags.writeable = False
                idx += at
                for f, y in zip(fs, ys):
                    vals = np.asarray(f(points), dtype=float)
                    if vals.shape != (k,):
                        raise ValueError("integrand must return one value per input point")
                    y[idx] = vals
            hits += k
        sums = []
        for y in ys:
            filled = y[:count]
            sums.append((float(filled.sum()), float((filled * filled).sum())))
        return sums, hits

    failed: list[int] = []  # workers that raised; the others stop at their next block

    def reduce_blocks(first: int) -> list[tuple[list[tuple[float, float]], int]]:
        """Blocks ``first``, ``first + workers``, ... in turn, with one set of buffers."""
        # Reused buffers: one block of values per integrand, one chunk of
        # draws, one chunk of points stored axis by axis, so an accept test
        # reads rows, with a last row for its half-space sums, and one chunk
        # of accepted points stored point by point for the integrands.
        ys = [np.empty(block) for _ in fs]
        draws = np.empty((chunk, draws_per_sample))
        coords = np.empty((n + 1, chunk))
        gathered = np.empty((chunk, n))
        out = []
        try:
            for start in starts[first::workers]:
                if failed:
                    break
                out.append(reduce_block(start, ys, draws, coords, gathered))
        except BaseException:
            failed.append(first)
            raise
        return out

    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_worker = list(pool.map(reduce_blocks, range(workers)))
    # Block i was reduced by worker i % workers, as its (i // workers)-th block.
    totals = [per_worker[i % workers][i // workers] for i in range(len(starts))]
    accepted = sum(hits for _, hits in totals)
    if accepted == 0:
        raise ValueError("no sample hit the polytope; bounding box sampling failed")
    results = []
    for k in range(len(fs)):
        mean = math.fsum(sums[k][0] for sums, _ in totals) / samples
        var = max(math.fsum(sums[k][1] for sums, _ in totals) / samples - mean * mean, 0.0)
        results.append(
            MCResult(box_vol * mean, box_vol * math.sqrt(var / samples), samples, accepted, seed)
        )
    return tuple(results)
