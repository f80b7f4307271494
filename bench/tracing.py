"""Spans around the calls into each dunkl module, installed from outside.

``install()`` wraps each traced function in a ``perf_counter`` span and
rebinds the wrapper under every name that refers to the function in any
dunkl module (``solve_columns``, for one, is bound both in ``dunkl.exact``
and in ``dunkl.operators``), so calls between modules are traced too.
Spans stay in memory; ``dump()`` writes them out when the process ends.
``summarize()`` turns the spans of one or more processes into the per-layer
metrics.  Nothing under src/ changes.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# defining module -> traced functions
TRACED = {
    "reflection_groups": ("generate_group", "act_on_polynomial"),
    "exact": ("solve_columns", "invert_matrix"),
    "poly": ("heat_half", "fischer"),
    "operators": ("solve_H", "_verify_H", "estimate_delta", "intertwine", "dunkl_apply",
                  "dunkl_kernel", "ek_tail_bound", "evaluate_en"),
    "kernel": ("make_evaluator", "tail_bound", "certified_radius", "lk_eval", "lk_grid",
               "symmetry_scan", "gaussian_image_check", "positivity_scan"),
    "quad": ("gauss_rule", "integrate", "fourier_quadrature"),
    "verify": ("run_suite", "suite_exact", "suite_series", "suite_quadrature", "suite_signs",
               "suite_positivity"),
    "config": ("build_bundle", "load_context", "save_context"),
    "cli": ("main",),
}
MODULES = tuple(TRACED)

# per-layer metric -> span name, for the metrics that are a span's total time
SPAN_TIMES = {
    "generate_group_s": "generate_group",
    "act_on_polynomial_s": "act_on_polynomial",
    "solve_columns_s": "solve_columns",
    "invert_matrix_s": "invert_matrix",
    "verify_H_s": "_verify_H",
    "estimate_delta_s": "estimate_delta",
    "intertwine_s": "intertwine",
    "dunkl_apply_s": "dunkl_apply",
    "dunkl_kernel_s": "dunkl_kernel",
    "ek_tail_bound_s": "ek_tail_bound",
    "evaluate_en_s": "evaluate_en",
    "make_evaluator_exact_s": "make_evaluator_exact",
    "make_evaluator_float_s": "make_evaluator_float",
    "tail_bound_s": "tail_bound",
    "certified_radius_s": "certified_radius",
    "lk_grid_s": "lk_grid",
    "symmetry_scan_s": "symmetry_scan",
    "gaussian_image_check_s": "gaussian_image_check",
    "positivity_scan_s": "positivity_scan",
    "heat_half_s": "heat_half",
    "evaluate_many_s": "evaluate_many",
    "fischer_s": "fischer",
    "gauss_rule_s": "gauss_rule",
    "integrate_s": "integrate",
    "fourier_quadrature_s": "fourier_quadrature",
    "suite_exact_s": "suite_exact",
    "suite_series_s": "suite_series",
    "suite_quadrature_s": "suite_quadrature",
    "suite_signs_s": "suite_signs",
    "suite_positivity_s": "suite_positivity",
    "build_bundle_s": "build_bundle",
    "load_context_s": "load_context",
    "save_context_s": "save_context",
    "cli_main_s": "main",
}
SPAN_CALLS = {
    "act_on_polynomial_calls": "act_on_polynomial",
    "solve_columns_calls": "solve_columns",
    "ek_tail_bound_calls": "ek_tail_bound",
    "tail_bound_calls": "tail_bound",
    "heat_half_calls": "heat_half",
    "integrate_calls": "integrate",
}


class Tracer:
    """Spans of one process: [name, start, end, parent index, request id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1
        self.bundles = {}
        self.evaluators = {}
        self.lk_grid_points = 0
        self.solve_orders = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "make_evaluator":
                exact = kwargs.get("exact_tables", args[2] if len(args) > 2 else True)
                label = "make_evaluator_exact" if exact else "make_evaluator_float"
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name, args, result):
        if name in ("load_context", "build_bundle"):
            self.bundles[id(result)] = result
        elif name == "make_evaluator":
            self.evaluators[id(result)] = result
        elif name == "lk_grid":
            self.lk_grid_points += len(args[1]) * len(args[2])
        elif name == "solve_columns":
            self.solve_orders.append(len(args[0]))

    def install(self):
        mods = [importlib.import_module("dunkl")]
        mods += [importlib.import_module(f"dunkl.{m}") for m in MODULES]
        for home, names in TRACED.items():
            owner = importlib.import_module(f"dunkl.{home}")
            for name in names:
                original = getattr(owner, name)
                wrapper = self.wrap(name, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        poly = importlib.import_module("dunkl.poly")
        poly.Polynomial.evaluate_many = self.wrap("evaluate_many", poly.Polynomial.evaluate_many)
        return self

    def state(self):
        """Sizes of the package's caches at the end of the process."""
        from dunkl import reflection_groups

        ctxs = {id(b.ctx): b.ctx for b in self.bundles.values()}
        return {
            "mono_image_cache_entries": len(reflection_groups._MONO_IMAGE_CACHE),
            "vk_cache_entries": sum(len(c.vk_cache) for c in ctxs.values()),
            "fallback_degrees": sum(len(set(c.fallback_degrees)) for c in ctxs.values()),
            "tail_cache_entries": sum(len(e._tail_cache) for e in self.evaluators.values()),
            "lk_grid_points": self.lk_grid_points,
            "solve_orders": self.solve_orders,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "state": self.state()}, fh)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def _span_totals(spans):
    """Per name: calls, total time of the outermost spans, and self time."""
    calls, total, self_time = {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
    return calls, total, self_time


def summarize(traces):
    """Per-layer metrics summed over the traced processes of one round.

    Cache sizes are per process, so their maximum over the processes is
    reported; counts and times are summed.
    """
    calls, total, self_time = {}, {}, {}
    states = []
    for tr in traces:
        c, t, s = _span_totals(tr["spans"])
        for src, dst in ((c, calls), (t, total), (s, self_time)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        states.append(tr["state"])
    out = {m: total.get(span, 0.0) for m, span in SPAN_TIMES.items()}
    out.update({m: calls.get(span, 0) for m, span in SPAN_CALLS.items()})
    out["solve_H_s"] = self_time.get("solve_H", 0.0)
    orders = [o for st in states for o in st["solve_orders"]]
    out["solve_columns_order"] = sum(orders) / len(orders) if orders else 0.0
    for key in ("mono_image_cache_entries", "vk_cache_entries", "fallback_degrees"):
        out[key] = max((st[key] for st in states), default=0)
    out["lk_grid_points"] = sum(st["lk_grid_points"] for st in states)
    tb_calls = calls.get("tail_bound", 0)
    tb_entries = sum(st["tail_cache_entries"] for st in states)
    out["tail_cache_hit_ratio"] = (tb_calls - tb_entries) / tb_calls if tb_calls else 0.0
    return out
