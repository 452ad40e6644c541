"""Named verification checks tying the exact pipeline to its closed forms.

Each check cross-validates one advertised result: the n = 2 and n = 3
integral tables, the required coupling ratios, the ruled-surface
cross-check, structural Jacobian identities, the Monte Carlo oracle, and
the ampleness scan.  Checks are pure functions of a seed, identified by
stable kebab-case names, and every failure carries the offending values.
The CLI ``verify-paper`` command and the acceptance test suite both run
exactly this list, so there is one source of truth for what "verified"
means.

``run_checks`` runs two or more selected checks in two processes: a child
forked for the call takes the first, third, fifth, ... of them and this
process the rest.  The split is fixed, so it repeats from run to run, and
the halves are merged in registry order, so results, output bytes and exit
codes are those of running every check in turn.  Without ``fork``, in a
daemonic process, with other threads running, or for a single check,
everything runs in this process.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from .ampleness import check_from_m, infeasibility_scan
from .character import (
    assembled_ratio_closed_form,
    build_report,
    bulk_axis,
    classical_futaki_axis,
    kf_ruled_ratio,
    normalized_affine,
    required_ratio,
)
from .exactnum import LogLinear, MultiPoly, RadialSum
from .family import (
    jacobian,
    jacobian_det,
    make_spec,
    minor_sum,
    minor_sum_radial,
    radial_profile,
    transition_map,
)
from .integrate import (
    MC_SEED_BOUND,
    c_constant,
    integrate_poly,
    integrate_poly_boundary,
    integrate_radial,
    mc_integrate,
    mc_integrate_many,
    volume,
)
from .polytope import DelzantPolytope, HalfSpace, standard_blowup_polytope


class CheckFailure(Exception):
    """A verification check found a mismatch."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    anchor: str
    detail: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _expect_eq(actual, expected, label: str) -> None:
    if actual != expected:
        raise CheckFailure(f"{label}: got {actual}, expected {expected}")


def _random_interior_point(rng: Random, n: int, b: Fraction) -> tuple[Fraction, ...]:
    """A random rational point strictly inside the slab polytope."""
    weights = [rng.randint(1, 999) for _ in range(n)]
    total = sum(weights)
    # X = 1 + k/1000 * (b - 1) as Xn / Xd; each Fraction reduces once.
    p, q = b.as_integer_ratio()
    Xn, Xd = 1000 * q + rng.randint(1, 999) * (p - q), 1000 * q
    return tuple(Fraction(Xn * w, Xd * total) for w in weights)


# ---------------------------------------------------------------------------
# Individual checks.  Each returns a human-readable detail string.


def _expect_slab_integrals(
    n: int, b: Fraction, vol: Fraction, bd: Fraction, mom: Fraction,
    bdmom: Fraction, c: Fraction, bulk: Fraction,
) -> None:
    """Compare six exact quantities of ``P(n, b)`` with closed forms: the
    volume, the boundary measure, the body and boundary moments of ``x1``,
    the centering constant ``c_1``, and the bulk term at ``a = b + 1``,
    whose closed form is ``B^2 * bulk``."""
    spec = make_spec(n, b + 1, b)
    P = standard_blowup_polytope(n, b)
    x1 = MultiPoly.variable(n, 0)
    _expect_eq(volume(P), vol, f"b={b} volume")
    _expect_eq(integrate_poly_boundary(P, 1), bd, f"b={b} boundary measure")
    _expect_eq(integrate_poly(P, x1), mom, f"b={b} first moment")
    _expect_eq(integrate_poly_boundary(P, x1), bdmom, f"b={b} boundary moment")
    _expect_eq(c_constant(P, 0), c, f"b={b} centering constant")
    _expect_eq(bulk_axis(spec, 0, P), spec.B**2 * bulk, f"b={b} bulk term")


def _check_n2_integrals(seed: int) -> str:
    bs = [1 + Fraction(9 * j, 20) for j in range(1, 21)]
    for b in bs:
        _expect_slab_integrals(
            2, b, (b**2 - 1) / 2, 3 * b - 1, (b**3 - 1) / 6, b**2,
            -(b**2 + b + 1) / (3 * (b + 1)), (b - 1) ** 3 / (6 * b**2),
        )
    return f"all six closed forms hold exactly at {len(bs)} values of b in (1, 10]"


def _check_n2_ratio(seed: int) -> str:
    count = 0
    for j in range(1, 21):
        b = 1 + Fraction(9 * j, 20)
        for a in (b + 1, 2 * b, b + Fraction(1, 3)):
            spec = make_spec(2, a, b)
            _expect_eq(
                required_ratio(spec),
                -(b**2 - 1) / (b - a) ** 2,
                f"(a,b)=({a},{b}) required ratio",
            )
            count += 1
    spec = make_spec(2, 11, 3)
    rep = build_report(spec)
    _expect_eq(rep.required_ratio, Fraction(-1, 8), "(a,b)=(11,3) required ratio")
    _expect(rep.closed_form_match is True, "closed-form match flag missing")
    _expect(
        rep.closed_form_discrepancy is not None
        and "twice the assembled ratio" in rep.closed_form_discrepancy,
        "factor-2 closed-form discrepancy note missing",
    )
    return (
        f"ratio equals -(b^2-1)/(b-a)^2 at {count} parameter pairs; "
        "(11,3) gives -1/8 and the printed factor-2 variant is flagged"
    )


def _check_kf_cross(seed: int) -> str:
    for k in range(1, 6):
        ruled = kf_ruled_ratio(0, 1, 1, 1 + 3 * k, -k)
        _expect_eq(ruled.ratio, Fraction(-1, 8 * k * k), f"k={k} ruled-surface ratio")
        _expect_eq(ruled.blowup_class, (8 * k + 3, 1), f"k={k} blow-up class")
        spec = make_spec(2, 8 * k + 3, 3)
        _expect_eq(
            required_ratio(spec), ruled.ratio, f"k={k} pipeline vs ruled-surface ratio"
        )
    return (
        "classes (8k+3)*H - E over 3*H - E give -1/(8k^2) from both the "
        "exact pipeline and the ruled-surface formula, k = 1..5"
    )


def _check_n3_integrals(seed: int) -> str:
    bs = [1 + Fraction(2 * j, 5) for j in range(1, 11)]
    for b in bs:
        _expect_slab_integrals(
            3, b, (b**3 - 1) / 6, 2 * b**2 - 1, (b**4 - 1) / 24, (3 * b**3 - 1) / 6,
            -(b**2 + 1) * (b + 1) / (4 * (b**2 + b + 1)),
            (b**4 - 2 * b**3 + 2 * b - 1) / (8 * b**3),
        )
        for a in (b + 1, 2 * b):
            _expect_eq(
                required_ratio(make_spec(3, a, b)),
                assembled_ratio_closed_form(3, a, b),
                f"(a,b)=({a},{b}) required ratio",
            )
    rep = build_report(make_spec(3, 3, 2))
    _expect_eq(rep.required_ratio, Fraction(-49, 18), "(a,b)=(3,2) required ratio")
    _expect(
        rep.closed_form_discrepancy is not None
        and "-49/18" in rep.closed_form_discrepancy,
        "denominator discrepancy note missing",
    )
    return (
        f"all closed forms hold exactly at {len(bs)} values of b in (1, 5]; "
        "(3,2) gives -49/18 and the printed denominator variant is flagged"
    )


def _check_trace(seed: int) -> str:
    rng = Random(seed + 5)
    b = Fraction(5, 2)
    a = Fraction(7, 2)
    per_dim = 1000
    for n in range(2, 6):
        spec = make_spec(n, a, b)
        for _ in range(per_dim):
            x = _random_interior_point(rng, n, b)
            m = jacobian(spec, x)
            trace = sum(m[i][i] for i in range(n))
            _expect_eq(trace, n * spec.A, f"n={n} trace at {x}")
    return f"trace(DU) == n*A at {per_dim} random interior points for each n in 2..5"


def _check_minor_closed_form(seed: int) -> str:
    rng = Random(seed + 6)
    b = Fraction(5, 2)
    a = Fraction(7, 2)
    per_dim = 100
    for n in range(2, 6):
        spec = make_spec(n, a, b)
        radial = minor_sum_radial(spec)
        for _ in range(per_dim):
            x = _random_interior_point(rng, n, b)
            direct = minor_sum(spec, x)
            _expect_eq(direct, radial.eval(x), f"n={n} minor sum vs radial form at {x}")
            if n == 2:
                X = sum(x)
                _expect_eq(
                    direct, spec.A**2 - spec.B**2 * X**-4, f"n=2 minor closed form at {x}"
                )
                _expect_eq(direct, jacobian_det(spec, x), f"n=2 minor vs det at {x}")
    return (
        f"sum of 2x2 principal minors equals binom(n,2)*(A^2 - B^2*X^(-2n)) "
        f"at {per_dim} random points for each n in 2..5 (n=2 also equals det DU)"
    )


def _check_vertex_mapping(seed: int) -> str:
    cases = [(2, Fraction(7, 2), Fraction(5, 2)), (3, Fraction(3), Fraction(2)), (4, Fraction(4), Fraction(3))]
    for n, a, b in cases:
        spec = make_spec(n, a, b)
        _expect_eq(radial_profile(spec, 1), Fraction(1), f"n={n} inner radius fixed")
        _expect_eq(radial_profile(spec, b), a, f"n={n} outer radius maps to a")
        source = standard_blowup_polytope(n, b)
        target = standard_blowup_polytope(n, a)
        images = sorted(transition_map(spec, v) for v in source.vertices())
        _expect_eq(images, target.vertices(), f"n={n} vertex images")
    return "transition map sends vertices of P(b) onto vertices of P(a) for n in {2,3,4}"


def _check_mc_oracle(seed: int) -> str:
    reports = []
    for n, a, b in ((2, Fraction(11), Fraction(3)), (3, Fraction(3), Fraction(2))):
        P = standard_blowup_polytope(n, b)
        x1 = MultiPoly.variable(n, 0)
        radial = RadialSum.from_poly(x1, -2 * n)
        cases = [
            ("volume", MultiPoly.constant(n, 1), volume(P)),
            ("x1 moment", x1, integrate_poly(P, x1)),
            ("x1*X^(-2n)", radial, integrate_radial(n, b, radial).q0),
        ]
        fs = [integrand.eval_array for _, integrand, _ in cases]
        results = mc_integrate_many(P, fs, 1_000_000, seed)
        for (label, _, exact), res in zip(cases, results):
            _expect(
                res.agrees_with(float(exact)),
                f"n={n} {label}: exact {float(exact)} vs MC {res.estimate} "
                f"(stderr {res.stderr})",
            )
            reports.append(f"n={n} {label} within {res.stderr:.2e}")
    return "; ".join(reports)


def _check_log_cancellation(seed: int) -> str:
    rng = Random(seed + 9)
    checked = 0
    for _ in range(50):
        n = rng.randint(2, 5)
        b = 1 + Fraction(rng.randint(1, 400), 100)
        a = b + Fraction(rng.randint(0, 300), 100)
        spec = make_spec(n, a, b)
        P = standard_blowup_polytope(n, b)
        i = rng.randrange(n)
        affine = normalized_affine(P, i)
        val = integrate_radial(n, b, minor_sum_radial(spec).mul_poly(affine))
        _expect_eq(val.q1, Fraction(0), f"log coefficient for n={n}, a={a}, b={b}")
        checked += 1
    # Control: the integrator does produce logs when the power calls for it.
    control = integrate_radial(2, 3, RadialSum.constant(2, 1, -2))
    _expect_eq(control, LogLinear(0, 1), "control integrand X^-2 over the n=2 slab")
    return (
        f"bulk integrand has zero log coefficient in {checked} random solvable "
        "cases; control integrand X^-2 integrates to exactly log(b)"
    )


def _check_axis_symmetry(seed: int) -> str:
    cases = [(2, Fraction(11), Fraction(3)), (3, Fraction(3), Fraction(2)), (4, Fraction(7, 2), Fraction(5, 2))]
    for n, a, b in cases:
        spec = make_spec(n, a, b)
        P = standard_blowup_polytope(n, b)
        bds = {classical_futaki_axis(P, i) for i in range(n)}
        bks = {bulk_axis(spec, i, P) for i in range(n)}
        _expect(len(bds) == 1, f"n={n} boundary terms differ across axes: {bds}")
        _expect(len(bks) == 1, f"n={n} bulk terms differ across axes: {bks}")
    return "boundary and bulk terms agree across all coordinate axes for n in {2,3,4}"


def _check_nakai(seed: int) -> str:
    scan = infeasibility_scan(grid_bound=50, random_samples=10_000, seed=seed)
    _expect(
        scan.all_infeasible,
        f"feasible pairs found: {scan.feasible_pairs[:5]}",
    )
    knife = check_from_m(0, 1)
    _expect(not knife.feasible, "(m1,m2)=(0,1) must be infeasible")
    _expect(
        knife.marginal[1],
        f"(0,1) second inequality should be marginal-zero, value {knife.values[1]}",
    )
    _expect(
        not knife.holds[2] and not knife.marginal[2],
        "(0,1) third inequality should fail decisively",
    )
    return (
        f"{scan.checked} pairs checked (grid |m| <= 50 plus 10^4 random "
        f"rationals), none feasible; knife-edge (0,1) is marginal-zero on "
        f"inequality 2 and fails inequality 3 decisively"
    )


def _check_delzant(seed: int) -> str:
    for n, b in ((2, Fraction(3)), (3, Fraction(5, 2)), (4, Fraction(2))):
        P = standard_blowup_polytope(n, b)
        _expect(P.is_delzant(), f"P_{n}({b}) should be Delzant")
        _expect(
            P.translate([1] * n).is_delzant(),
            f"lattice translate of P_{n}({b}) should stay Delzant",
        )
    bad = DelzantPolytope(
        2,
        [
            HalfSpace((1, 0), Fraction(0)),
            HalfSpace((0, 1), Fraction(0)),
            HalfSpace((-1, -2), Fraction(2)),
        ],
    )
    _expect(not bad.is_delzant(), "determinant-2 corner wrongly declared smooth")
    return (
        "model polytopes (and their lattice translates) are Delzant for "
        "n in {2,3,4}; the determinant-2 corner counterexample is rejected"
    )


def _mini_payload(seed: int) -> str:
    """A small JSON payload exercising exact and seeded-stochastic paths."""
    P = standard_blowup_polytope(2, 3)
    mc = mc_integrate(P, MultiPoly.constant(2, 1).eval_array, 100_000, seed)
    rep = build_report(make_spec(2, 11, 3), 2, Fraction(-1, 4))
    return json.dumps(
        {
            "report": rep.to_json_dict(),
            "mc": {
                "estimate": mc.estimate,
                "stderr": mc.stderr,
                "accepted": mc.accepted,
                "seed": mc.seed,
            },
        },
        sort_keys=True,
    )


def _check_determinism(seed: int) -> str:
    first = _mini_payload(seed)
    second = _mini_payload(seed)
    _expect(first == second, "repeated runs produced different JSON payloads")
    other = _mini_payload(seed + 1)
    _expect(first != other, "changing the seed did not change the MC estimate")
    return (
        f"identical {len(first)}-byte JSON payload on repeated runs with the "
        "same seed; a different seed changes the stochastic part"
    )


# ---------------------------------------------------------------------------
# Registry.


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    fn: Callable[[int], str]


CHECKS: tuple[Check, ...] = (
    Check(
        "n2-integrals",
        "vol=(b^2-1)/2, bd=3b-1, mom=(b^3-1)/6, bdmom=b^2, "
        "c=-(b^2+b+1)/(3(b+1)), bulk=B^2(b-1)^3/(6b^2)",
        _check_n2_integrals,
    ),
    Check("n2-ratio", "ratio=-(b^2-1)/(b-a)^2; (11,3) -> -1/8", _check_n2_ratio),
    Check("kf-cross-check", "(8k+3)H-E over 3H-E -> -1/(8k^2)", _check_kf_cross),
    Check(
        "n3-integrals",
        "vol=(b^3-1)/6, bd=2b^2-1, mom=(b^4-1)/24, bdmom=(3b^3-1)/6, "
        "c=-(b^2+1)(b+1)/(4(b^2+b+1)), bulk=B^2(b^4-2b^3+2b-1)/(8b^3); "
        "(3,2) -> -49/18",
        _check_n3_integrals,
    ),
    Check("trace-invariant", "trace(DU) == n*A", _check_trace),
    Check(
        "minor-closed-form",
        "sum 2x2 minors == binom(n,2)*(A^2 - B^2*X^(-2n))",
        _check_minor_closed_form,
    ),
    Check("vertex-mapping", "U(vertices of P(b)) == vertices of P(a)", _check_vertex_mapping),
    Check("mc-oracle", "|exact - MC| <= max(4*SE, 1e-9*|exact|) at 10^6 samples", _check_mc_oracle),
    Check("log-cancellation", "bulk log coefficient == 0; X^-2 control -> log b", _check_log_cancellation),
    Check("axis-symmetry", "per-axis boundary and bulk terms coincide", _check_axis_symmetry),
    Check("nakai-infeasibility", "no (m1,m2) passes all three strict inequalities", _check_nakai),
    Check("delzant-validation", "model polytopes smooth; det-2 corner rejected", _check_delzant),
    Check("determinism", "byte-identical JSON for fixed seed", _check_determinism),
)

CHECK_NAMES = tuple(c.name for c in CHECKS)


def _run_named(names: list[str], seed: int) -> tuple[list[CheckResult], Exception | None, str]:
    """Run the named checks in the order given.  A ``CheckFailure`` becomes
    a failed result; any other exception stops the run and comes back with
    the results before it and its formatted traceback, which pickling drops."""
    by_name = {c.name: c for c in CHECKS}
    results: list[CheckResult] = []
    for name in names:
        check = by_name[name]
        try:
            detail = check.fn(seed)
        except CheckFailure as exc:
            results.append(CheckResult(name, False, check.anchor, str(exc)))
        except Exception as exc:
            import traceback  # loaded only when a check crashes
            return results, exc, "".join(traceback.format_exception(exc))
        else:
            results.append(CheckResult(name, True, check.anchor, detail))
    return results, None, ""


class _RemoteTraceback(Exception):
    """An exception's traceback, formatted in the forked child that raised it."""


def run_checks(names: list[str] | None = None, seed: int = 42) -> list[CheckResult]:
    """Run the named checks (all by default) and return their results in
    registry order.

    An empty selection is refused: it would report success on nothing.  So
    is a seed outside ``[0, 2**128 - 1)``, since the Monte Carlo checks key
    Philox with both the seed and the seed plus one.

    With two or more checks selected, a forked child process runs the
    first, third, fifth, ... of them while this process runs the others.
    The child is sent check names, not ``Check`` objects, and the two
    halves are merged in registry order, so the results are those of one
    process running every check in turn.  The first exception other than
    ``CheckFailure`` in registry order reaches the caller with its type and
    message; from the child, its traceback comes as its ``__cause__``.
    Everything runs here when one check is selected, when the
    ``fork`` start method is unavailable, when this is a daemonic process
    (which may not have children), or when other threads are running.
    """
    if not 0 <= seed < MC_SEED_BOUND - 1:
        raise ValueError(
            "seed must be a non-negative int below 2**128 - 1"
            f" (the Monte Carlo checks also draw with seed + 1), got {seed}"
        )
    if names is not None and not names:
        raise ValueError(
            f"no checks selected; available: {', '.join(CHECK_NAMES)}"
        )
    unknown = sorted(set(names or ()) - set(CHECK_NAMES))
    if unknown:
        raise ValueError(
            f"unknown check names {unknown}; available: {', '.join(CHECK_NAMES)}"
        )
    chosen = [name for name in CHECK_NAMES if names is None or name in names]
    # Imported here, not at module level: loading them costs every CLI run.
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    if (
        len(chosen) < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
        # A child forked while another thread holds a lock can deadlock on it.
        or threading.active_count() > 1
    ):
        halves = [_run_named(chosen, seed)]
    else:
        # A forked child that flushed buffers it inherited would write them twice.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (AttributeError, ValueError):  # None, or closed: nothing to flush
                pass
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            child = pool.submit(_run_named, chosen[0::2], seed)
            own = _run_named(chosen[1::2], seed)
            halves = [child.result(), own]
    # With k = len(halves), check i of ``chosen`` is entry i // k of half
    # i % k.  A half stops at its first exception, so walking in registry
    # order meets the first exception before any entry it left out.
    k = len(halves)
    results: list[CheckResult] = []
    for i in range(len(chosen)):
        done, exc, remote = halves[i % k]
        if i // k == len(done):
            if exc.__traceback__ is None:  # pickled back from the child
                exc.__cause__ = _RemoteTraceback(f'\n"""\n{remote}"""')
            raise exc
        results.append(done[i // k])
    return results
