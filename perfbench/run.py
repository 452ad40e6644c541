"""Benchmark of the toricfutaki package: seeded workloads, checked answers.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload character-small-n --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-test             # tracer leaves nothing behind

One closed-loop client calls the package in-process and sends the next
request only when the previous one has returned.  The timed phase runs
whole rounds (see ``workloads.py``) until ``--seconds`` have passed.  Every
answer is checked afterwards against ``reference.py``.  With ``--trace 0``
the last line of output is a JSON object holding the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics,
taken from rounds run under :class:`tracer.Tracer`, alternating with
untraced rounds that give the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 11
LAYER_MODULES = ("cli", "verify", "character", "family", "polytope", "integrate", "ampleness", "exactnum")

# Per-layer metrics that must repeat exactly between two traced runs of one
# seed on the same code.
EXACT_COUNTS = (
    "polytope.constructs", "polytope.vertex_subsets", "polytope.triangulations", "polytope.simplices",
    "integrate.simplex_moments", "integrate.radial_slab_calls", "exactnum.linalg_calls",
    "integrate.mc_samples", "integrate.mc_accept_ratio", "ampleness.pairs", "ampleness.marginal_pairs",
    "character.max_denominator_bits", "verify.checks_passed", "trace.spans",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package() -> dict:
    if not (SRC / "toricfutaki" / "cli.py").is_file():
        fail(f"no toricfutaki sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    pkg = {name: importlib.import_module(f"toricfutaki.{name}") for name in LAYER_MODULES}
    if Path(pkg["cli"].__file__).resolve().parent != SRC / "toricfutaki":
        fail(f"imported toricfutaki from {pkg['cli'].__file__}, not from {SRC}")
    return pkg


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (``method='inclusive'``)."""
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_seconds(probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing ``toricfutaki.cli`` and building its
    parser: raw seconds, and seconds at reference speed."""
    code = (
        "import time; t = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(SRC)!r}); "
        "import toricfutaki.cli as c; c.build_parser(); print(time.perf_counter() - t)"
    )
    raw, ref = [], []
    for _ in range(SETUP_RUNS):
        probe.probe()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        t1 = perf_counter()
        probe.probe()
        raw.append(float(proc.stdout.split()[-1]))
        ref.append(raw[-1] / probe.factor(t0, t1))
    return raw, ref


def run_rounds(pkg: dict, rounds_iter, seconds: float, probe: SpeedProbe,
               tr: tracer.Tracer | None = None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate traced and untraced, starting traced, and at least one of each
    runs.  Request times are scaled to reference speed once the phase ends."""
    snapshot = tracer.originals(pkg)
    out: list[dict] = []
    start = perf_counter()
    request_id = 0
    probe.probe()
    while True:
        traced = tr is not None and len(out) % 2 == 0
        batch = next(rounds_iter)
        if traced:
            tr.install()
        else:
            tracer.assert_untouched(snapshot)
        intervals, outputs = [], []
        try:
            for req in batch:
                probe.maybe_probe()
                if traced:
                    tr.request_id = request_id
                request_id += 1
                t0 = perf_counter()
                try:
                    result = workloads.execute(pkg, req)
                except Exception:  # a failed request is counted, the run goes on
                    result = RequestError(traceback.format_exc(limit=4))
                intervals.append((t0, perf_counter()))
                outputs.append(result)
        finally:
            if traced:
                tr.remove()
        out.append({"traced": traced, "intervals": intervals, "requests": batch,
                    "outputs": outputs, "spans": tr.take_spans() if traced else None})
        done = perf_counter() - start >= seconds
        if tr is not None:
            done = done and len(out) >= 2
        if done:
            break
    probe.probe()
    tracer.assert_untouched(snapshot)
    for rnd in out:
        iv = rnd["intervals"]
        rnd["raw"] = [t1 - t0 for t0, t1 in iv]
        rnd["ref"] = [(t1 - t0) / probe.factor(t0, t1) for t0, t1 in iv]
        rnd["factor"] = probe.factor(iv[0][0], iv[-1][1])
    return out


class RequestError:
    """Stands in for the answer of a request that raised."""

    def __init__(self, text: str):
        self.text = text


def check_answers(rounds: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for rnd in rounds:
        for req, result in zip(rnd["requests"], rnd["outputs"]):
            attempted += 1
            if isinstance(result, RequestError):
                reason = "raised " + result.text.strip().splitlines()[-1]
            else:
                reason = workloads.check(req, result)
            if reason is not None:
                failed += 1
                problems.append(f"{' '.join(req.argv) or req.params}: {reason}")
    return attempted, failed, problems


def timings(rounds: list[dict], setup: list[float], key: str) -> dict:
    """End-to-end figures from request times ``rnd[key]`` (``raw`` or ``ref``)."""
    latencies = [t * 1e3 for rnd in rounds for t in rnd[key]]
    walls = [sum(rnd[key]) for rnd in rounds]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "requests_per_s": len(latencies) / sum(walls),
        "latency_ms.p50": percentile(latencies, 0.50),
        "latency_ms.p90": percentile(latencies, 0.90),
    }


def end_to_end(rounds: list[dict], setup_raw: list[float], setup_ref: list[float]) -> tuple[dict, dict, dict]:
    """Scaled figures, their sample counts, and the same figures in wall-clock time."""
    values = timings(rounds, setup_ref, "ref")
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = sum(len(rnd["ref"]) for rnd in rounds)
    samples = {"setup_s": len(setup_ref), "wall_s": len(rounds), "requests_per_s": n,
               "latency_ms.p50": n, "latency_ms.p90": n, "peak_rss_mib": 1}
    return values, samples, timings(rounds, setup_raw, "raw")


def per_layer(rounds: list[dict], check_names: tuple[str, ...]) -> tuple[dict, dict]:
    traced = [tracer.round_metrics(r["spans"], check_names, r["factor"]) for r in rounds if r["traced"]]
    values = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    for k in EXACT_COUNTS:
        values[k] = traced[0][k]
    values["trace.overhead_ratio"] = (
        statistics.median(sum(r["ref"]) for r in rounds if r["traced"])
        / statistics.median(sum(r["ref"]) for r in rounds if not r["traced"])
    )
    samples = {k: (1 if k in EXACT_COUNTS else len(traced)) for k in values}
    return values, samples


def fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_counts(workload: str, seed: int, values: dict) -> str | None:
    """Store this run's exact counts; report any difference from an earlier
    traced run of the same seed on the same code."""
    path = OUT / "counts" / f"{fingerprint()}-{workload}-{seed}.json"
    counts = {k: values[k] for k in EXACT_COUNTS}
    if path.exists():
        before = json.loads(path.read_text())
        diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
        return f"exact counts differ from an earlier run of seed {seed}: {diff}" if diff else None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1))
    return None


def write_spans(workload: str, seed: int, rounds: list[dict]) -> Path:
    """One JSON array per span: round, name, start, end, parent index within
    the round (-1 at the top), request id."""
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"fields": ["round", "name", "start", "end", "parent", "request"]}) + "\n")
        for number, rnd in enumerate(rounds):
            if rnd["traced"]:
                for s in rnd["spans"]:
                    fh.write(json.dumps([number, *s[:5]], separators=(",", ":")) + "\n")
    return path


def run_one(args) -> int:
    pkg = load_package()
    e2e_units, layer_units = declared_metrics()
    check_names = tuple(pkg["verify"].CHECK_NAMES)
    rounds_iter = workloads.WORKLOADS[args.workload](args.seed)
    tr = tracer.Tracer(pkg) if args.trace else None
    probe = SpeedProbe()
    setup_raw, setup_ref = ([], []) if args.trace else setup_seconds(probe)
    rounds = run_rounds(pkg, rounds_iter, args.seconds, probe, tr)
    attempted, failed, problems = check_answers(rounds)

    if args.trace:
        values, samples = per_layer(rounds, check_names)
        units = layer_units
        drift = compare_counts(args.workload, args.seed, values)
        if drift:
            problems.append(drift)
        spans_path = write_spans(args.workload, args.seed, rounds)
    else:
        values, samples, raw = end_to_end(rounds, setup_raw, setup_ref)
        units = e2e_units
    if not set(units) <= set(values):
        fail(f"metrics {sorted(set(units) - set(values))} of BENCHMARK.json are not measured")

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"{len(rounds)} rounds, {attempted} requests")
    for name in values:
        wall_clock = f"  (wall clock {raw[name]:.6g})" if not args.trace and name in raw else ""
        unit = units.get(name, "ms (not gated)")
        print(f"{name:40s} {values[name]:>16.6g} {unit:8s} n={samples[name]}{wall_clock}")
    print(f"{'speed factor (median probe)':40s} {statistics.median(probe.factors):>16.6g}")
    print(f"{'error_rate':40s} {failed / attempted:>16.6g} {'1':8s} n={attempted}")
    if args.trace:
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    for line in problems[:20]:
        print(f"WRONG: {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        table, _, last = proc.stdout.rstrip("\n").rpartition("\n")
        print(table + proc.stderr)
        if proc.returncode != 0 or not json.loads(last)["correct"]:
            status = 1
    return status


def self_test() -> int:
    """Traced and untraced calls of one small request: wrappers record spans
    while installed, and afterwards every attribute holds its original."""
    pkg = load_package()
    snapshot = tracer.originals(pkg)
    req = next(workloads.character_small_n(1))[0]
    tr = tracer.Tracer(pkg)
    tr.install()
    try:
        unwrapped = [attr for owner, attr, original in snapshot if vars(owner)[attr] is original]
        if unwrapped:
            raise AssertionError(f"install() left {unwrapped} unwrapped")
        traced = workloads.execute(pkg, req)
    finally:
        tr.remove()
    names = {s[0] for s in tr.take_spans()}
    for expected in ("cli.main", "character.build_report", "polytope.DelzantPolytope.triangulate",
                     "integrate.monomial_simplex_integral", "exactnum.mat_rank"):
        if expected not in names:
            raise AssertionError(f"traced request recorded no {expected} span")
    tracer.assert_untouched(snapshot)
    plain = workloads.execute(pkg, req)
    if tr.spans:
        raise AssertionError("an untraced request recorded spans")
    if plain[:2] != traced[:2] or workloads.check(req, plain) is not None:
        raise AssertionError("traced and untraced answers differ or are wrong")
    print("self-test ok: tracer installed and removed, untraced calls reach the originals")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
