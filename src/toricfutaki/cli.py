"""Command-line interface.

Subcommands map one-to-one onto library entry points: ``character`` (the
boundary/bulk terms, required ratio, verdict), ``scan`` (a parameter
sweep), ``verify-paper`` (the named verification checks), plus direct
access to polytope data, family data, single integrals, the ruled-surface
cross-check, and the ampleness scan.  All numeric parameters are parsed
as exact rationals; floats are rejected.  Output is plain text by default
and a stable JSON document under ``--json`` (insertion-ordered keys, no
timestamps, seeds recorded), so repeated runs are byte-identical.  Each
``cmd_*`` hands its options, its JSON body and a lazy text generator to
``_finish``, which adds the run manifest and prints one form or the other.

Exit codes: 0 success, 1 usage or data error, 2 unsolvable parameters
(the radial hypothesis fails and ``--force`` was not given), 3
verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from . import __version__
from .ampleness import check_from_m, infeasibility_scan
from .character import (
    Verdict,
    build_report,
    kf_ruled_ratio,
    required_ratio,  # noqa: F401  perfbench/tracer.py wraps cli.required_ratio by name
    two_parameter_ratio,
)
from .exactnum import LogLinear, RadialSum, format_rational, parse_rational
from .exprparse import parse_poly
from .family import UnsolvableClassError, _check_dim, make_spec, transition_map
from .integrate import (
    facet_sigma,
    integrate_poly,
    integrate_poly_boundary,
    integrate_poly_facet,
    integrate_radial_slab,
    slab_bounds,
    volume,
)
from .polytope import DelzantPolytope, standard_blowup_polytope
from .verify import CHECK_NAMES, run_checks


def _finish(
    args: argparse.Namespace,
    options: dict,
    body: dict,
    text: Iterable[str],
    seed: int | None = None,
) -> int:
    """Print one command's result and return exit code 0.

    Under ``--json`` the document is the run manifest (command, options,
    seed, version) followed by ``body``; otherwise the ``text`` lines are
    printed, so a JSON run never formats them.
    """
    if args.json:
        manifest = {"command": args.command, "options": options, "seed": seed,
                    "version": __version__}
        print(json.dumps({"manifest": manifest, **body}, indent=2))
    else:
        for line in text:
            print(line)
    return 0


def _options(args: argparse.Namespace, *names: str) -> dict:
    """The named options for the manifest, rationals as ``p/q`` strings."""
    return {name: _json_value(getattr(args, name)) for name in names}


def _json_value(v):
    if isinstance(v, tuple):
        return [_json_value(c) for c in v]
    return format_rational(v) if isinstance(v, Fraction) else v


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative int, got {seed}")
    return seed


def _pair_arg(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected H,E pair, got {text!r}")
    return _rat_arg(parts[0]), _rat_arg(parts[1])


def _rf(x: Fraction | None) -> str:
    """Rational plus float rendering for text output."""
    if x is None:
        return "undefined"
    return f"{format_rational(x)} ({float(x):.9g})"


# ---------------------------------------------------------------------------
# character


def cmd_character(args: argparse.Namespace) -> int:
    if (args.alpha0 is None) != (args.alpha1 is None):
        raise ValueError("--alpha0 and --alpha1 must be given together")
    if args.kahler is not None or args.bundle is not None:
        if args.kahler is None or args.bundle is None:
            raise ValueError("--kahler and --bundle must be given together")
        if args.a is not None or args.b is not None:
            raise ValueError("give either --a/--b or --kahler/--bundle, not both")
        if args.alpha0 is not None or args.force:
            raise ValueError("--kahler/--bundle take no --alpha0/--alpha1 and no --force")
        result = two_parameter_ratio(args.n, args.kahler, args.bundle)
        options = _options(args, "n", "kahler", "bundle")

        def two_parameter_text():
            yield (f"n = {args.n}, kahler class {args.kahler[0]}*H - {args.kahler[1]}*E, "
                   f"bundle class {args.bundle[0]}*H - {args.bundle[1]}*E")
            yield f"reduced parameters: a = {result['reduced_a']}, b = {result['reduced_b']}"
            yield f"scale factor s/r^2 = {result['scale']}"
            yield f"required ratio alpha1/alpha0 = {result['required_ratio'] or 'undefined'}"
            yield "note: two-parameter reduction is experimental"

        return _finish(args, options, {"two_parameter": result}, two_parameter_text())

    if args.a is None or args.b is None:
        raise ValueError("--a and --b are required")
    spec = make_spec(args.n, args.a, args.b, force=args.force)
    report = build_report(spec, args.alpha0, args.alpha1)
    options = _options(args, "n", "a", "b", "alpha0", "alpha1", "force")

    def text():
        yield f"n = {report.n}, a = {format_rational(report.a)}, b = {format_rational(report.b)}"
        yield f"profile slopes: A = {_rf(report.A)}, B = {_rf(report.B)}, lambda = {_rf(report.lam)}"
        yield f"solvable: {'yes' if report.solvable else 'NO (formal evaluation under --force)'}"
        yield f"boundary term = {_rf(report.boundary_term)}"
        yield f"bulk term     = {_rf(report.bulk_term)}"
        yield f"required ratio alpha1/alpha0 = {_rf(report.required_ratio)}"
        if report.closed_form_discrepancy:
            yield f"closed-form note: {report.closed_form_discrepancy}"
        if report.character is not None:
            yield (
                f"character at (alpha0, alpha1) = "
                f"({format_rational(report.alpha0)}, {format_rational(report.alpha1)}): "
                f"{_rf(report.character)}"
            )
            yield f"verdict: {report.verdict.value}"

    return _finish(args, options, {"report": report.to_json_dict()}, text())


# ---------------------------------------------------------------------------
# scan

# The verdicts a scan row reports; any other verdict at weights (1, 1) prints "".
_SCAN_VERDICTS = (Verdict.OBSTRUCTED_FOR_POSITIVE_ALPHA, Verdict.NO_VANISHING_POSSIBLE)


# Every row is built before printing (about 2 KB each), so a grid over this
# many rows is rejected before any is built.
MAX_SCAN_ROWS = 50_000


def _range_length(lo: Fraction, hi: Fraction, step: Fraction) -> int:
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if lo > hi:
        raise ValueError(f"empty range: {lo} > {hi}")
    return (hi - lo) // step + 1


def cmd_scan(args: argparse.Namespace) -> int:
    if args.csv and args.json:
        raise ValueError("give either --csv or --json, not both")
    _check_dim(args.n)
    step = args.step
    na = _range_length(args.a_from, args.a_to, step)
    nb = _range_length(args.b_from, args.b_to, step)
    if na * nb > MAX_SCAN_ROWS:
        raise ValueError(
            f"scan grid has {na * nb} rows ({na} a by {nb} b), over the cap of {MAX_SCAN_ROWS}"
        )
    a_values = [args.a_from + k * step for k in range(na)]
    b_values = [args.b_from + k * step for k in range(nb)]
    fields = ["n", "a", "b", "solvable", "boundary_term", "bulk_term", "required_ratio", "verdict"]
    rows = [None] * (na * nb)
    # b outer: the b-determined half of each report is computed once per b.
    for kb, b in enumerate(b_values):
        for ka, a in enumerate(a_values):
            spec = make_spec(args.n, a, b, force=True) if b > 1 and a > 0 else None
            ok = spec is not None and spec.solvable
            values = ["", "", "", ""]
            if ok:
                report = build_report(spec, 1, 1)
                ratio = report.required_ratio
                values = [
                    format_rational(report.boundary_term),
                    format_rational(report.bulk_term),
                    "undefined" if ratio is None else format_rational(ratio),
                    report.verdict.value if report.verdict in _SCAN_VERDICTS else "",
                ]
            row = [args.n, format_rational(a), format_rational(b), ok, *values]
            rows[ka * nb + kb] = dict(zip(fields, row))  # rows in (a, b) order

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
        return 0
    options = _options(args, "n", "a_from", "a_to", "b_from", "b_to", "step")

    def text():
        yield "  ".join(fields)
        for row in rows:
            yield "  ".join(str(row[f]) for f in fields)
        yield f"{len(rows)} rows"

    return _finish(args, options, {"rows": rows}, text())


# ---------------------------------------------------------------------------
# verify-paper


def cmd_verify_paper(args: argparse.Namespace) -> int:
    names = None
    if args.only is not None:
        names = [s.strip() for s in args.only.split(",") if s.strip()]
    seed = 42 if args.seed is None else args.seed
    results = run_checks(names, seed=seed)
    passed = sum(1 for r in results if r.passed)
    body = {
        "checks": [r.to_json_dict() for r in results],
        "passed": passed,
        "total": len(results),
        "ok": passed == len(results),
    }

    def text():
        width = max(len(r.name) for r in results)
        for r in results:
            yield f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}"
        yield f"RESULT: {passed}/{len(results)} checks passed (seed {seed})"

    _finish(args, {"only": names}, body, text(), seed=seed)
    return 0 if body["ok"] else 3


# ---------------------------------------------------------------------------
# polytope


def _load_polytope(args: argparse.Namespace) -> DelzantPolytope:
    # n is checked before the constructor enumerates vertices, whose cost
    # grows steeply with n.
    if (args.standard is None) == (args.file is None):
        raise ValueError("give exactly one of --standard N,B or --file PATH")
    if args.standard is not None:
        parts = args.standard.split(",")
        if len(parts) != 2:
            raise ValueError(f"--standard expects N,B; got {args.standard!r}")
        n = int(parts[0])
        _check_dim(n, least=1)
        return standard_blowup_polytope(n, parse_rational(parts[1]))
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_dim(doc["n"], least=1)
    return DelzantPolytope.from_json_dict(doc)


def _point(v) -> str:
    return "(" + ", ".join(format_rational(c) for c in v) + ")"


def cmd_polytope(args: argparse.Namespace) -> int:
    P = _load_polytope(args)
    vol = volume(P)
    sigmas = [facet_sigma(P, i) for i in range(P.num_facets)]
    vertices = P.vertices()
    body = {
        "polytope": P.to_json_dict(),
        "vertices": [[format_rational(c) for c in v] for v in vertices],
        "volume": format_rational(vol),
        "volume_float": float(vol),
        "facet_sigma": [format_rational(s) for s in sigmas],
        "is_delzant": P.is_delzant(),
    }

    def text():
        yield f"n = {P.n}, facets = {P.num_facets}, vertices = {len(vertices)}"
        for i, h in enumerate(P.halfspaces):
            yield (f"  facet[{i}]: v = {h.v}, lam = {format_rational(h.lam)}, "
                   f"sigma measure = {_rf(sigmas[i])}")
        yield "vertices:"
        for v in vertices:
            yield "  " + _point(v)
        yield f"volume = {_rf(vol)}"
        yield f"delzant: {'yes' if body['is_delzant'] else 'no'}"

    return _finish(args, {"source": args.standard or args.file}, body, text())


# ---------------------------------------------------------------------------
# family


def cmd_family(args: argparse.Namespace) -> int:
    spec = make_spec(args.n, args.a, args.b, force=args.force)
    vertices = standard_blowup_polytope(spec.n, spec.b).vertices()
    images = [transition_map(spec, v) for v in vertices]
    body = {
        "A": format_rational(spec.A),
        "B": format_rational(spec.B),
        "lambda": format_rational(spec.lam),
        "solvable": spec.solvable,
        "integral_class": spec.integral_class,
        "vertex_images": [
            {
                "vertex": [format_rational(c) for c in v],
                "image": [format_rational(c) for c in u],
            }
            for v, u in zip(vertices, images)
        ],
    }

    def text():
        yield f"n = {spec.n}, a = {format_rational(spec.a)}, b = {format_rational(spec.b)}"
        yield f"A = {_rf(spec.A)}, B = {_rf(spec.B)}, lambda = {_rf(spec.lam)}"
        yield f"solvable: {'yes' if spec.solvable else 'NO (formal evaluation under --force)'}"
        yield "vertex images under the transition map:"
        for v, u in zip(vertices, images):
            yield f"  {_point(v)} -> {_point(u)}"

    return _finish(args, _options(args, "n", "a", "b", "force"), body, text())


# ---------------------------------------------------------------------------
# integrate

def cmd_integrate(args: argparse.Namespace) -> int:
    P = _load_polytope(args)
    poly = parse_poly(args.poly, P.n)
    modes = [args.facet is not None, args.boundary, args.radial_power is not None]
    if sum(modes) > 1:
        raise ValueError("give at most one of --facet, --boundary, --radial-power")

    log_coeff = Fraction(0)
    log_base: Fraction | None = None
    if args.facet is not None:
        value = integrate_poly_facet(P, args.facet, poly)
        domain = f"facet {args.facet}"
    elif args.boundary:
        value = integrate_poly_boundary(P, poly)
        domain = "boundary"
    elif args.radial_power is not None:
        bounds = slab_bounds(P)
        if bounds is None:
            raise ValueError(
                "--radial-power needs a slab polytope {x >= 0, lo <= sum(x) <= hi}"
            )
        lo, hi = bounds
        integrand = RadialSum.from_poly(poly, args.radial_power)
        res = integrate_radial_slab(P.n, lo, hi, integrand)
        value, log_coeff, log_base = res.q0, res.q1, hi / lo
        domain = f"body, integrand multiplied by X^{args.radial_power}"
    else:
        value = integrate_poly(P, poly)
        domain = "body"

    as_float = float(value)
    if log_base is not None:
        as_float = LogLinear(value, log_coeff).to_float(log_base)
    options = {
        "source": args.standard or args.file,
        **_options(args, "poly", "facet", "boundary", "radial_power"),
    }
    body = {
        "domain": domain,
        "exact": format_rational(value),
        "log_coeff": format_rational(log_coeff),
        "log_base": _json_value(log_base),
        "float": as_float,
    }

    def text():
        yield f"domain: {domain}"
        if log_coeff != 0:
            yield (f"exact = {format_rational(value)} + {format_rational(log_coeff)}"
                   f"*log({format_rational(log_base)})")
        else:
            yield f"exact = {format_rational(value)}"
        yield f"float = {as_float:.12g}"

    return _finish(args, options, body, text())


# ---------------------------------------------------------------------------
# kf-check


def cmd_kf_check(args: argparse.Namespace) -> int:
    ruled = kf_ruled_ratio(args.genus, args.k, args.kprime, args.k1, args.k2)
    cross: dict | None = None
    if args.cross_check:
        if ruled.blowup_class is None:
            raise ValueError(
                "--cross-check needs genus 0 and k = kprime = 1 (the one-point blow-up case)"
            )
        h, e = ruled.blowup_class
        if e <= 0 or h <= e:
            raise ValueError(f"blow-up class {h}*H - {e}*E is not Kahler; no cross-check")
        pipeline = two_parameter_ratio(2, (3, 1), (h, e))
        cross = {
            "class": ruled.blowup_class_str,
            "reduced_a": pipeline["reduced_a"],
            "b": pipeline["reduced_b"],
            "pipeline_ratio": pipeline["required_ratio"],
            "match": pipeline["required_ratio"] == format_rational(ruled.ratio),
        }
    options = _options(args, "genus", "k", "kprime", "k1", "k2")
    body = {
        "ratio": format_rational(ruled.ratio),
        "ratio_float": float(ruled.ratio),
        "blowup_class": ruled.blowup_class_str,
        "cross_check": cross,
    }

    def text():
        yield (f"genus {args.genus}, degrees (k, k') = ({args.k}, {args.kprime}), "
               f"polarization (k1, k2) = ({args.k1}, {args.k2})")
        yield f"required ratio = {_rf(ruled.ratio)}"
        if ruled.blowup_class_str:
            yield f"one-point blow-up class: {ruled.blowup_class_str}"
        if cross is not None:
            status = "MATCH" if cross["match"] else "MISMATCH"
            yield f"pipeline cross-check on {cross['class']}: {cross['pipeline_ratio']} [{status}]"

    return _finish(args, options, body, text())


# ---------------------------------------------------------------------------
# ample-check


def cmd_ample_check(args: argparse.Namespace) -> int:
    if args.scan:
        if args.m1 is not None or args.m2 is not None:
            raise ValueError("give either --m1/--m2 or --scan, not both")
        given = dict(grid_bound=args.grid_bound, random_samples=args.samples, seed=args.seed)
        result = infeasibility_scan(**{k: v for k, v in given.items() if v is not None})
        options = {"scan": True, "grid_bound": result.grid_bound, "samples": result.random_samples}

        def scan_text():
            yield (f"checked {result.checked} pairs (grid |m| <= {result.grid_bound}, "
                   f"{result.random_samples} random rational pairs, seed {result.seed})")
            yield f"feasible pairs: {len(result.feasible_pairs)}"
            yield f"marginal (knife-edge) pairs: {len(result.marginal_pairs)}"
            yield f"all infeasible: {'yes' if result.all_infeasible else 'NO'}"

        return _finish(args, options, {"scan": result.to_json_dict()}, scan_text(), result.seed)
    if args.grid_bound is not None or args.samples is not None:
        raise ValueError("--grid-bound and --samples need --scan")
    if args.seed is not None:
        raise ValueError("--seed needs --scan")
    if args.m1 is None or args.m2 is None:
        raise ValueError("give --m1 and --m2, or --scan")
    res = check_from_m(args.m1, args.m2)
    # float() raises OverflowError on an entry past the float range.
    shown = (float(args.m1), float(args.m2), res.a, res.b, *res.values)
    if not all(map(math.isfinite, shown)):
        raise ValueError("a displayed value does not fit in a float")
    check = res.to_json_dict()
    options = _options(args, "m1", "m2")

    def text():
        yield f"(m1, m2) = ({options['m1']}, {options['m2']})"
        yield f"candidate coefficients: a = {res.a:.12g}, b = {res.b:.12g}"
        for entry in check["inequalities"]:
            flag = "holds" if entry["holds"] else "FAILS"
            marginal = " [marginal]" if entry["marginal"] else ""
            yield f"  {entry['name']}: {entry['value']:.6e}  {flag}{marginal}"
        yield f"feasible: {'yes' if res.feasible else 'no'}"

    return _finish(args, options, {"check": check}, text())


# ---------------------------------------------------------------------------
# parser


# Let bare negative rationals like -1/8 pass as option values instead of
# being mistaken for option flags.
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=_seed_arg, help="seed for stochastic parts (default 42)"
    )

    parser = argparse.ArgumentParser(
        prog="toricfutaki",
        description="Exact obstruction characters on blown-up projective space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "character",
        parents=[common],
        help="boundary/bulk terms, required coupling ratio, verdict",
    )
    p.add_argument("--n", type=int, required=True, help="complex dimension (>= 2)")
    p.add_argument("--a", type=_rat_arg, help="size of the second class (rational)")
    p.add_argument("--b", type=_rat_arg, help="size of the reference class (rational)")
    p.add_argument("--alpha0", type=_rat_arg, help="boundary weight")
    p.add_argument("--alpha1", type=_rat_arg, help="bulk weight")
    p.add_argument(
        "--kahler", type=_pair_arg, metavar="H,E",
        help="general reference class h*H - e*E (experimental; with --bundle)",
    )
    p.add_argument(
        "--bundle", type=_pair_arg, metavar="H,E",
        help="general second class h*H - e*E (experimental; with --kahler)",
    )
    p.add_argument(
        "--force", action="store_true",
        help="evaluate formally even when the radial hypothesis fails",
    )
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("scan", parents=[common], help="sweep (a, b) over a rational grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a-from", type=_rat_arg, required=True)
    p.add_argument("--a-to", type=_rat_arg, required=True)
    p.add_argument("--b-from", type=_rat_arg, required=True)
    p.add_argument("--b-to", type=_rat_arg, required=True)
    p.add_argument("--step", type=_rat_arg, default=Fraction(1))
    p.add_argument("--csv", metavar="PATH", help="write rows as CSV to PATH")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "verify-paper",
        parents=[common, seeded],
        help="run the named verification checks against the exact pipeline",
    )
    p.add_argument(
        "--only",
        metavar="NAMES",
        help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}",
    )
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("polytope", parents=[common], help="vertices, volume, facet measures")
    p.add_argument("--standard", metavar="N,B", help="model slab polytope of dimension N, size B")
    p.add_argument("--file", metavar="PATH", help="polytope JSON file")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("family", parents=[common], help="profile slopes and vertex mapping")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=_rat_arg, required=True)
    p.add_argument("--b", type=_rat_arg, required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("integrate", parents=[common], help="one exact integral")
    p.add_argument("--poly", required=True, help="polynomial in x1..xn, e.g. 'x1^2 - x2/3'")
    p.add_argument("--standard", metavar="N,B")
    p.add_argument("--file", metavar="PATH")
    p.add_argument("--facet", type=int, help="integrate over this facet index")
    p.add_argument("--boundary", action="store_true", help="integrate over the whole boundary")
    p.add_argument(
        "--radial-power", type=int, metavar="K",
        help="multiply the integrand by X^K (slab polytopes only)",
    )
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("kf-check", parents=[common], help="ruled-surface required ratio")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kprime", type=int, default=1)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument(
        "--cross-check", action="store_true",
        help="compare against the exact pipeline on the blow-up class",
    )
    p.set_defaults(func=cmd_kf_check)

    p = sub.add_parser(
        "ample-check", parents=[common, seeded], help="ampleness cone inequalities"
    )
    p.add_argument("--m1", type=_rat_arg)
    p.add_argument("--m2", type=_rat_arg)
    p.add_argument("--scan", action="store_true", help="run the infeasibility scan")
    p.add_argument("--grid-bound", type=int, help="scan |m1|, |m2| up to this")
    p.add_argument("--samples", type=int, help="random pairs the scan adds")
    p.set_defaults(func=cmd_ample_check)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit code 2 is reserved for
        # unsolvable parameters, so usage problems map to 1.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnsolvableClassError) else 1


if __name__ == "__main__":
    sys.exit(main())
