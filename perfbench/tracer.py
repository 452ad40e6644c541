"""Spans around the package's public functions, installed from outside.

A :class:`Tracer` replaces module attributes with thin wrappers for the
duration of a traced round and puts every original object back afterwards.
Each wrapper is installed on the attribute through which another layer
calls the function (``character.integrate_poly_boundary``,
``polytope.mat_solve``, ...), so the package's own code runs unchanged and
only the calls between layers are timed.  Spans are plain tuples kept in
memory; :func:`round_metrics` reduces one round's spans to per-layer
numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# Span tuple fields.
NAME, START, END, PARENT, REQUEST, NESTED, VALUE = range(7)

# Layers with a self-time metric; exactnum's spans have no children, so its
# self time is ``exactnum.linalg_s``.
LAYERS = ("cli", "verify", "character", "family", "polytope", "integrate", "ampleness")


def _halfspace_subsets(args, kwargs, result) -> int:
    # DelzantPolytope(n, halfspaces): vertex enumeration tries every
    # n-subset of the distinct half-spaces.
    n, hs = args[1], args[2]
    return math.comb(len(dict.fromkeys(hs)), n)


def _length(args, kwargs, result) -> int:
    return len(result)


def _mc_counts(args, kwargs, result) -> tuple[int, int]:
    return result.samples, result.accepted


def _scan_counts(args, kwargs, result) -> tuple[int, int]:
    return result.checked, len(result.marginal_pairs)


def _checks_passed(args, kwargs, result) -> int:
    return sum(1 for r in result if r.passed)


def _denominator_bits(args, kwargs, result) -> int:
    fields = (result.A, result.B, result.lam, result.boundary_term, result.bulk_term,
              result.required_ratio, result.character)
    return max(x.denominator.bit_length() for x in fields if x is not None)


def _list_halfspaces(fn: Callable) -> Callable:
    """Hand the constructor span a list, so that counting the half-spaces
    does not consume an iterator the original constructor still needs."""
    @functools.wraps(fn)
    def init(self, n, halfspaces):
        return fn(self, n, list(halfspaces))
    return init


def instrumented(modules: dict[str, Any]) -> list[tuple[str, Any, list[tuple[Any, str]], Callable | None]]:
    """``(span name, original, [(owner, attribute), ...], measure)`` for
    every function the traced run wraps.  ``modules`` maps layer names to
    the imported ``toricfutaki`` modules."""
    m = modules
    P = m["polytope"].DelzantPolytope
    table = [
        ("cli.main", m["cli"].main, [(m["cli"], "main")], None),
        ("verify.run_checks", m["verify"].run_checks,
         [(m["verify"], "run_checks"), (m["cli"], "run_checks")], _checks_passed),
        ("character.build_report", m["character"].build_report,
         [(m["character"], "build_report"), (m["cli"], "build_report"), (m["verify"], "build_report")],
         _denominator_bits),
        ("character.required_ratio", m["character"].required_ratio,
         [(m["character"], "required_ratio"), (m["cli"], "required_ratio"), (m["verify"], "required_ratio")],
         None),
        ("character.classical_futaki_axis", m["character"].classical_futaki_axis,
         [(m["character"], "classical_futaki_axis"), (m["verify"], "classical_futaki_axis")], None),
        ("character.bulk_axis", m["character"].bulk_axis,
         [(m["character"], "bulk_axis"), (m["verify"], "bulk_axis")], None),
        ("family.make_spec", m["family"].make_spec,
         [(m["family"], "make_spec"), (m["character"], "make_spec"), (m["cli"], "make_spec"),
          (m["verify"], "make_spec")], None),
        ("family.minor_sum_radial", m["family"].minor_sum_radial,
         [(m["family"], "minor_sum_radial"), (m["character"], "minor_sum_radial"),
          (m["verify"], "minor_sum_radial")], None),
        ("polytope.standard_blowup_polytope", m["polytope"].standard_blowup_polytope,
         [(m["polytope"], "standard_blowup_polytope"), (m["character"], "standard_blowup_polytope"),
          (m["cli"], "standard_blowup_polytope"), (m["verify"], "standard_blowup_polytope")], None),
        ("polytope.DelzantPolytope.__init__", vars(P)["__init__"], [(P, "__init__")], _halfspace_subsets),
        ("polytope.DelzantPolytope.triangulate", vars(P)["triangulate"], [(P, "triangulate")], _length),
        ("polytope.DelzantPolytope.facet_triangulate", vars(P)["facet_triangulate"],
         [(P, "facet_triangulate")], _length),
        ("integrate.monomial_simplex_integral", m["integrate"].monomial_simplex_integral,
         [(m["integrate"], "monomial_simplex_integral")], None),
        ("integrate.integrate_poly", m["integrate"].integrate_poly,
         [(m["integrate"], "integrate_poly"), (m["cli"], "integrate_poly"), (m["verify"], "integrate_poly")],
         None),
        ("integrate.integrate_poly_boundary", m["integrate"].integrate_poly_boundary,
         [(m["integrate"], "integrate_poly_boundary"), (m["character"], "integrate_poly_boundary"),
          (m["cli"], "integrate_poly_boundary"), (m["verify"], "integrate_poly_boundary")], None),
        ("integrate.c_constant", m["integrate"].c_constant,
         [(m["integrate"], "c_constant"), (m["character"], "c_constant"), (m["verify"], "c_constant")], None),
        ("integrate.integrate_radial_slab", m["integrate"].integrate_radial_slab,
         [(m["integrate"], "integrate_radial_slab"), (m["cli"], "integrate_radial_slab")], None),
        ("integrate.mc_integrate", m["integrate"].mc_integrate,
         [(m["integrate"], "mc_integrate"), (m["verify"], "mc_integrate")], _mc_counts),
        ("ampleness.infeasibility_scan", m["ampleness"].infeasibility_scan,
         [(m["ampleness"], "infeasibility_scan"), (m["cli"], "infeasibility_scan"),
          (m["verify"], "infeasibility_scan")], _scan_counts),
    ]
    for fn_name in ("mat_solve", "mat_det", "mat_rank"):
        owners = [(m[layer], fn_name) for layer in ("exactnum", "polytope", "integrate", "family")
                  if hasattr(m[layer], fn_name)]
        table.append((f"exactnum.{fn_name}", getattr(m["exactnum"], fn_name), owners, None))
    return table


class Tracer:
    """Records spans while installed; holds no wrapper once removed."""

    def __init__(self, modules: dict[str, Any]):
        self.modules = modules
        self.spans: list[tuple | None] = []
        self.request_id = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                nested = active[name] > 1
                active[name] -= 1
                spans[idx] = (name, t0, t1, parent, self.request_id, nested, None)
            if measure is not None:
                spans[idx] = spans[idx][:VALUE] + (measure(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        verify = self.modules["verify"]
        for name, original, owners, measure in instrumented(self.modules):
            wrapper = self._wrap(name, original, measure)
            if name.endswith("__init__"):
                wrapper = _list_halfspaces(wrapper)
            for owner, attr in owners:
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
        checks = verify.CHECKS
        self._saved.append((verify, "CHECKS", checks))
        verify.CHECKS = tuple(
            dataclasses.replace(c, fn=self._wrap(f"verify.{c.name}", c.fn, None)) for c in checks
        )

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take_spans(self) -> list[tuple]:
        out = list(self.spans)
        self.spans.clear()
        return out


def originals(modules: dict[str, Any]) -> list[tuple[Any, str, Any]]:
    """Every attribute a tracer may replace, with the object it holds now."""
    out = []
    for _name, _original, owners, _measure in instrumented(modules):
        out.extend((owner, attr, vars(owner)[attr]) for owner, attr in owners)
    out.append((modules["verify"], "CHECKS", modules["verify"].CHECKS))
    return out


def assert_untouched(snapshot: list[tuple[Any, str, Any]]) -> None:
    """Raise unless every attribute still holds the object in ``snapshot``."""
    for owner, attr, original in snapshot:
        if vars(owner)[attr] is not original:
            raise AssertionError(f"{getattr(owner, '__name__', owner)}.{attr} is still wrapped")


# ---------------------------------------------------------------------------
# Reduction of one round's spans.

_TIME_METRICS = {
    "polytope.construct_s": ("polytope.DelzantPolytope.__init__",),
    "polytope.triangulate_s": ("polytope.DelzantPolytope.triangulate",
                               "polytope.DelzantPolytope.facet_triangulate"),
    "integrate.simplex_moment_s": ("integrate.monomial_simplex_integral",),
    "integrate.poly_s": ("integrate.integrate_poly",),
    "integrate.boundary_s": ("integrate.integrate_poly_boundary",),
    "integrate.c_constant_s": ("integrate.c_constant",),
    "integrate.radial_slab_s": ("integrate.integrate_radial_slab",),
    "integrate.mc_s": ("integrate.mc_integrate",),
    "exactnum.linalg_s": ("exactnum.mat_solve", "exactnum.mat_det", "exactnum.mat_rank"),
    "character.classical_futaki_axis_s": ("character.classical_futaki_axis",),
    "character.bulk_axis_s": ("character.bulk_axis",),
    "family.make_spec_s": ("family.make_spec",),
    "family.minor_sum_radial_s": ("family.minor_sum_radial",),
    "ampleness.scan_s": ("ampleness.infeasibility_scan",),
}

_CALL_COUNTS = {
    "polytope.constructs": ("polytope.DelzantPolytope.__init__",),
    "polytope.triangulations": ("polytope.DelzantPolytope.triangulate",
                                "polytope.DelzantPolytope.facet_triangulate"),
    "integrate.simplex_moments": ("integrate.monomial_simplex_integral",),
    "integrate.radial_slab_calls": ("integrate.integrate_radial_slab",),
    "exactnum.linalg_calls": ("exactnum.mat_solve", "exactnum.mat_det", "exactnum.mat_rank"),
}


def round_metrics(spans: list[tuple], check_names: tuple[str, ...], slowdown: float) -> dict[str, float]:
    """Per-layer numbers of one round, times divided by the round's machine
    slowdown (see ``speed.py``).

    Times named after a function are inclusive: the whole span, counted
    once where the function is nested in itself.  ``<layer>.self_s`` and
    ``character.build_report_s`` are self times: span time minus the time
    covered by direct child spans.
    """
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    values: dict[str, list] = defaultdict(list)
    for s in spans:
        dur = (s[END] - s[START]) / slowdown
        calls[s[NAME]] += 1
        if not s[NESTED]:
            inclusive[s[NAME]] += dur
        self_time[s[NAME]] += dur
        if s[PARENT] >= 0:
            self_time[spans[s[PARENT]][NAME]] -= dur
        if s[VALUE] is not None:
            values[s[NAME]].append(s[VALUE])

    out: dict[str, float] = {}
    for metric, names in _TIME_METRICS.items():
        out[metric] = sum(inclusive[n] for n in names)
    for metric, names in _CALL_COUNTS.items():
        out[metric] = sum(calls[n] for n in names)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_time.items() if n.split(".", 1)[0] == layer)
    out["character.build_report_s"] = self_time["character.build_report"]
    out["polytope.vertex_subsets"] = sum(values["polytope.DelzantPolytope.__init__"])
    out["polytope.simplices"] = sum(values["polytope.DelzantPolytope.triangulate"]) + sum(
        values["polytope.DelzantPolytope.facet_triangulate"]
    )
    mc = values["integrate.mc_integrate"]
    samples = sum(s for s, _ in mc)
    out["integrate.mc_samples"] = samples
    out["integrate.mc_accept_ratio"] = sum(a for _, a in mc) / samples if samples else 0.0
    out["integrate.mc_samples_per_s"] = samples / out["integrate.mc_s"] if samples else 0.0
    scans = values["ampleness.infeasibility_scan"]
    out["ampleness.pairs"] = sum(c for c, _ in scans)
    out["ampleness.marginal_pairs"] = sum(m for _, m in scans)
    out["ampleness.pairs_per_s"] = out["ampleness.pairs"] / out["ampleness.scan_s"] if scans else 0.0
    out["character.max_denominator_bits"] = max(values["character.build_report"], default=0)
    out["verify.checks_passed"] = sum(values["verify.run_checks"])
    for name in check_names:
        out[f"verify.{name}_s"] = inclusive[f"verify.{name}"]
    out["trace.spans"] = len(spans)
    return out
