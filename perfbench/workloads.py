"""The four workloads: seeded inputs, how each request runs, how it is checked.

Every workload is a sequence of rounds.  A round has the same shape on every
seed (how many requests of which size), so its cost barely depends on the
seed; the seed picks the rational values.  Each round draws fresh values, so
no request repeats inside a run and a cache can only reuse what requests
genuinely share (on ``character-small-n``, a few polytopes per run).
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Any, Iterator

import reference as ref

VERIFY_CHECKS = 13
MC_SAMPLES = 2_000_000
MC_INTEGRANDS = ("volume", "x1", "x1*X^(-2n)")
AMPLE_GRID_BOUND = 200
AMPLE_SAMPLES = 100_000


@dataclass
class Request:
    kind: str  # "character", "mc", "ample" or "verify"
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Execution.  Functions are looked up on their modules at call time, so a
# traced round goes through the installed wrappers.


def execute(pkg: dict[str, Any], req: Request) -> Any:
    if req.kind == "mc":
        p = req.params
        n, b = p["n"], p["b"]
        P = pkg["polytope"].standard_blowup_polytope(n, b)
        f = _integrand(pkg["exactnum"], n, p["integrand"])
        return pkg["integrate"].mc_integrate(P, f, p["samples"], p["seed"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = pkg["cli"].main(req.argv)
    return rc, out.getvalue(), err.getvalue()


def _integrand(exactnum: Any, n: int, name: str):
    x1 = exactnum.MultiPoly.variable(n, 0)
    if name == "volume":
        return exactnum.MultiPoly.constant(n, 1).eval_array
    if name == "x1":
        return x1.eval_array
    return exactnum.RadialSum.from_poly(x1, -2 * n).eval_array


# ---------------------------------------------------------------------------
# Answer checks.  Each returns None when the answer is right, else a reason.


def check(req: Request, out: Any) -> str | None:
    if req.kind == "mc":
        return _check_mc(req.params, out)
    rc, text, err = out
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return {"character": _check_character, "ample": _check_ample, "verify": _check_verify}[req.kind](
        req.params, doc
    )


def _check_character(p: dict, doc: dict) -> str | None:
    want = ref.character_answer(p["n"], p["a"], p["b"], p.get("alpha0"), p.get("alpha1"))
    got = doc.get("report", {})
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, expected {value!r}"
    if doc.get("manifest", {}).get("command") != "character":
        return "manifest does not name the character command"
    return None


def _check_mc(p: dict, res: Any) -> str | None:
    exact = ref.mc_exact(p["n"], p["b"], p["integrand"])
    if res.samples != p["samples"] or res.seed != p["seed"]:
        return f"MC ran {res.samples} samples with seed {res.seed}"
    if not 0 < res.accepted <= res.samples:
        return f"MC accepted {res.accepted} of {res.samples}"
    if not ref.mc_agrees(res.estimate, res.stderr, exact):
        return f"MC estimate {res.estimate} (stderr {res.stderr}) misses exact {float(exact)}"
    if not res.agrees_with(float(exact)):
        return "MCResult.agrees_with rejects an estimate inside 4 standard errors"
    return None


def _check_ample(p: dict, doc: dict) -> str | None:
    scan = doc.get("scan", {})
    want = ref.ample_scan_checked(AMPLE_GRID_BOUND, AMPLE_SAMPLES, p["seed"])
    if scan.get("checked") != want:
        return f"scan checked {scan.get('checked')} pairs, expected {want}"
    if scan.get("feasible_pairs") != [] or scan.get("all_infeasible") is not True:
        return f"scan reports feasible pairs {scan.get('feasible_pairs')!r:.200}"
    if doc.get("manifest", {}).get("seed") != p["seed"]:
        return "scan manifest does not record the seed"
    return None


def _check_verify(p: dict, doc: dict) -> str | None:
    if doc.get("ok") is not True:
        failed = [c.get("name") for c in doc.get("checks", []) if not c.get("passed")]
        return f"verify-paper failed checks {failed}"
    if doc.get("passed") != VERIFY_CHECKS or doc.get("total") != VERIFY_CHECKS:
        return f"verify-paper ran {doc.get('total')} checks, expected {VERIFY_CHECKS}"
    if doc.get("manifest", {}).get("seed") != p["seed"]:
        return "verify-paper manifest does not record the seed"
    return None


# ---------------------------------------------------------------------------
# Inputs.


def _rational(rng: Random, lo: Fraction, hi: Fraction, denominators: tuple[int, ...]) -> Fraction:
    """A rational strictly between ``lo`` and ``hi`` with one of the given denominators."""
    while True:
        q = rng.choice(denominators)
        p = rng.randint(int(lo * q), int(hi * q) + 1)
        x = Fraction(p, q)
        if lo < x < hi:
            return x


def _character_request(n: int, a: Fraction, b: Fraction, alphas: tuple | None = None) -> Request:
    argv = ["character", "--n", str(n), "--a", str(a), "--b", str(b), "--json"]
    params = {"n": n, "a": a, "b": b}
    if alphas is not None:
        argv += ["--alpha0", str(alphas[0]), "--alpha1", str(alphas[1])]
        params.update(alpha0=alphas[0], alpha1=alphas[1])
    return Request("character", argv, params)


def _alphas(rng: Random, n: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Weights aimed at each verdict: the vanishing ratio itself, a positive
    pair, a pair of mixed sign and a negative ``alpha0``."""
    alpha0 = _rational(rng, Fraction(1, 10), Fraction(5), (1, 2, 3, 7))
    kind = rng.randrange(4)
    bd, bk = ref.axis_terms(n, a, b)
    if kind == 0 and bk != 0:
        return alpha0, -bd / (2 * bk) * alpha0
    alpha1 = _rational(rng, Fraction(1, 10), Fraction(5), (1, 2, 5, 9))
    if kind == 2:
        alpha1 = -alpha1
    if kind == 3:
        alpha0 = -alpha0
    return alpha0, alpha1


def _second_class(rng: Random, n: int, b: Fraction) -> Fraction:
    """A solvable ``a != b``, on either side of ``b``."""
    while True:
        a = b + _rational(rng, Fraction(-3), Fraction(8), (1, 2, 3, 4, 6))
        if a > 0 and a != b and ref.solvable(n, a, b):
            return a


def character_small_n(seed: int) -> Iterator[list[Request]]:
    """120 requests a round: four polytopes at n = 2 and two at n = 3, fixed
    for the run, 20 requests each, one of them with ``a = b``; a third carry
    weights.  Twice as many n = 2 requests as n = 3 ones puts the median
    among the n = 2 requests and the 90th percentile among the n = 3 ones."""
    rng = Random(seed)
    polytopes = [(2, b) for b in _distinct(rng, 4, Fraction(3, 2), Fraction(6), (1, 2, 3, 4))]
    polytopes += [(3, b) for b in _distinct(rng, 2, Fraction(3, 2), Fraction(6), (1, 2, 3, 4))]
    while True:
        batch = []
        for n, b in polytopes:
            for k in range(20):
                a = b if k == 0 else _second_class(rng, n, b)
                alphas = _alphas(rng, n, a, b) if k % 3 == 0 else None
                batch.append(_character_request(n, a, b, alphas))
        rng.shuffle(batch)
        yield batch


def character_high_n(seed: int) -> Iterator[list[Request]]:
    """Three requests a round, one at each n in {5, 6, 7}; every ``b`` in the
    run is new, so nothing a polytope determines can be reused."""
    rng = Random(seed)
    used: set[tuple[int, Fraction]] = set()
    while True:
        batch = []
        for n in (5, 6, 7):
            b = _rational(rng, Fraction(2), Fraction(6), (2, 3, 4, 5))
            while (n, b) in used:
                b = _rational(rng, Fraction(2), Fraction(6), (2, 3, 4, 5))
            used.add((n, b))
            a = b + _rational(rng, Fraction(0), Fraction(6), (1, 2, 3))
            alphas = _alphas(rng, n, a, b) if rng.random() < 0.5 else None
            batch.append(_character_request(n, a, b, alphas))
        yield batch


def float_oracles(seed: int) -> Iterator[list[Request]]:
    """A Monte Carlo integral at n = 3 and one at n = 5, then an ampleness
    scan, each with its own seed; the integrand cycles through volume, x1
    and x1*X^(-2n) from round to round.  The scan is a third of the
    requests and the slowest, so it sets the 90th percentile and the Monte
    Carlo calls set the median."""
    rng = Random(seed)
    for r in itertools.count():
        batch = []
        for n in (3, 5):
            params = {"n": n, "b": _rational(rng, Fraction(2), Fraction(4), (1, 2, 3)),
                      "integrand": MC_INTEGRANDS[r % len(MC_INTEGRANDS)],
                      "samples": MC_SAMPLES, "seed": rng.randrange(2**32)}
            batch.append(Request("mc", [], params))
        s = rng.randrange(10**6)
        argv = ["ample-check", "--scan", "--grid-bound", str(AMPLE_GRID_BOUND),
                "--samples", str(AMPLE_SAMPLES), "--json", "--seed", str(s)]
        batch.append(Request("ample", argv, {"seed": s}))
        yield batch


def verify_paper(seed: int) -> Iterator[list[Request]]:
    """One ``verify-paper --json`` run a round, each with a fresh seed."""
    rng = Random(seed)
    while True:
        s = rng.randrange(10**6)
        yield [Request("verify", ["verify-paper", "--json", "--seed", str(s)], {"seed": s})]


def _distinct(rng: Random, k: int, lo: Fraction, hi: Fraction, dens: tuple[int, ...]) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < k:
        x = _rational(rng, lo, hi, dens)
        if x not in out:
            out.append(x)
    return out


WORKLOADS = {
    "character-small-n": character_small_n,
    "character-high-n": character_high_n,
    "float-oracles": float_oracles,
    "verify-paper": verify_paper,
}
