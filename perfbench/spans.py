"""Span tracing for the traced benchmark run.

`Tracer` wraps the module-level functions of the rhlpseg modules at every
module attribute that refers to them, so a caller that looks a function up in
its own namespace (``from .core import weighted_least_squares``) reaches the
wrapper too. Each call records a span: name, start, end, parent span, and the
exception type if it raised. The originals are put back on exit.

`layer_metrics` turns the spans into the per-layer metrics, normalised per
traced op. A metric whose function no longer exists in the package is left
out and named in the returned ``absent`` list.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Modules whose public functions are traced.
TRACED_MODULES = ("rhlp", "core", "piecewise", "reports", "cli", "simulate")
# Private helpers that carry phases the per-layer table names. The traced run
# may use them; an untraced run never does.
PRIVATE_PHASES = {"piecewise": ("_refit", "_fixed_param_segmentation")}


# Per-call details kept on a span, read from the call's arguments and result.
def _em_fit_info(args, kwargs, result):
    return {"iters": result.em_iterations, "converged": result.converged}


def _cost_matrix_info(args, kwargs, result):
    return {"nbytes": result.nbytes, "feasible": int(np.isfinite(result).sum())}


def _iterative_info(args, kwargs, result):
    return {"j": result.criterion_j, "rounds": len(result.j_trace or (0,)) - 1}


def _report_info(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))}


SPAN_INFO = {
    "rhlp.em_fit": _em_fit_info,
    "piecewise.build_cost_matrix": _cost_matrix_info,
    "piecewise.iterative_fisher": _iterative_info,
    "reports.save_fit_report": _report_info,
}


class Tracer:
    """Context manager that traces every public function of TRACED_MODULES.

    Spans are kept as lists ``[name, start, end, parent_index, error, info]``
    in call order; ``parent_index`` is -1 for a root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, SPAN_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        package = [m for k, m in sys.modules.items()
                   if m is not None and (k == "rhlpseg" or k.startswith("rhlpseg."))]
        for short in TRACED_MODULES:
            module = sys.modules.get(f"rhlpseg.{short}")
            if module is None:  # removed: its metrics are reported absent
                continue
            private = PRIVATE_PHASES.get(short, ())
            for attr, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(name, fn)
                self.names.add(name)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()
        return False


class _Agg:
    __slots__ = ("calls", "s", "self_s", "failed", "infos")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.failed = 0
        self.infos: list[dict] = []

    def add(self, dur, self_dur, error, info):
        self.calls += 1
        self.s += dur
        self.self_s += self_dur
        self.failed += error is not None
        if info is not None:
            self.infos.append(info)


class _Run:
    """Span totals of one traced run. ``run[name]`` aggregates the spans of
    one function; self time is a span's duration minus the durations of its
    direct children (calls are sequential, so children never overlap)."""

    def __init__(self, spans, n_ops):
        self.ops = max(n_ops, 1)
        self._by_name: dict[str, _Agg] = defaultdict(_Agg)
        # segment_cost called by build_cost_matrix: the per-entry fallback
        self.fallback = _Agg()
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        starts: dict[int, list[float]] = defaultdict(list)
        for idx, (name, start, end, parent, error, info) in enumerate(spans):
            dur = end - start
            self._by_name[name].add(dur, dur - child_s[idx], error, info)
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "piecewise.segment_cost" and parent_name == "piecewise.build_cost_matrix":
                self.fallback.add(dur, dur - child_s[idx], error, info)
            if (name == "piecewise.iterative_fisher" and info is not None
                    and parent_name == "piecewise.multi_start_iterative"):
                starts[parent].append(info["j"])
        hits = sum(j <= min(js) + 1e-9 * max(1.0, abs(min(js)))
                   for js in starts.values() for j in js)
        total = sum(len(js) for js in starts.values())
        # share of multi-start starts whose final J equals the winner's J
        self.starts_at_best = hits / total if total else 0.0

    def __getitem__(self, name) -> _Agg:
        return self._by_name[name]

    def info_sum(self, name, key):
        return sum(i[key] for i in self[name].infos)


def _ratio(num, den):
    return num / den if den else 0.0


def _per_op(fn, field):
    return lambda r: getattr(r[fn], field) / r.ops


EM, BCM, SEG = "rhlp.em_fit", "piecewise.build_cost_matrix", "piecewise.segment_cost"
MSI, ITF = "piecewise.multi_start_iterative", "piecewise.iterative_fisher"
MISCLASS, DENOISE = "simulate.misclassification_rate", "simulate.denoising_error"

# (metric name, unit, functions it needs, value from a _Run). Counts and
# seconds are means per traced op; `_max`, `_bytes` and ratios are over the run.
LAYER_METRICS = [
    ("rhlp.em_fit.calls", "calls/op", [EM], _per_op(EM, "calls")),
    ("rhlp.em_fit.s", "s/op", [EM], _per_op(EM, "s")),
    ("rhlp.em_fit.self_s", "s/op", [EM], _per_op(EM, "self_s")),
    ("rhlp.em_fit.failed", "calls/op", [EM], _per_op(EM, "failed")),
    ("rhlp.em_iters", "iters/op", [EM], lambda r: r.info_sum(EM, "iters") / r.ops),
    ("rhlp.em_iters_max", "iters", [EM],
     lambda r: max((i["iters"] for i in r[EM].infos), default=0)),
    ("rhlp.em_nonconverged_frac", "ratio", [EM],
     lambda r: _ratio(len(r[EM].infos) - r.info_sum(EM, "converged"), len(r[EM].infos))),
    ("rhlp.irls_solve.calls", "calls/op", ["rhlp.irls_solve"],
     _per_op("rhlp.irls_solve", "calls")),
    ("rhlp.irls_solve.s", "s/op", ["rhlp.irls_solve"], _per_op("rhlp.irls_solve", "s")),
    ("rhlp.m_step_regression.calls", "calls/op", ["rhlp.m_step_regression"],
     _per_op("rhlp.m_step_regression", "calls")),
    ("rhlp.m_step_regression.s", "s/op", ["rhlp.m_step_regression"],
     _per_op("rhlp.m_step_regression", "s")),
    ("rhlp.m_step_regression.self_s", "s/op", ["rhlp.m_step_regression"],
     _per_op("rhlp.m_step_regression", "self_s")),
    ("rhlp.select_model.s", "s/op", ["rhlp.select_model"],
     _per_op("rhlp.select_model", "s")),
    ("core.weighted_least_squares.calls", "calls/op", ["core.weighted_least_squares"],
     _per_op("core.weighted_least_squares", "calls")),
    ("core.weighted_least_squares.s", "s/op", ["core.weighted_least_squares"],
     _per_op("core.weighted_least_squares", "s")),
    ("core.weighted_least_squares.failed", "calls/op", ["core.weighted_least_squares"],
     _per_op("core.weighted_least_squares", "failed")),
    ("piecewise.fisher_dp.calls", "calls/op", ["piecewise.fisher_dp"],
     _per_op("piecewise.fisher_dp", "calls")),
    ("piecewise.fisher_dp.s", "s/op", ["piecewise.fisher_dp"],
     _per_op("piecewise.fisher_dp", "s")),
    ("piecewise.build_cost_matrix.s", "s/op", [BCM], _per_op(BCM, "s")),
    ("piecewise.build_cost_matrix.self_s", "s/op", [BCM], _per_op(BCM, "self_s")),
    ("piecewise.cost_matrix_bytes", "B", [BCM],
     lambda r: max((i["nbytes"] for i in r[BCM].infos), default=0)),
    ("piecewise.cost_fallback.calls", "calls/op", [BCM, SEG],
     lambda r: r.fallback.calls / r.ops),
    ("piecewise.cost_fallback.s", "s/op", [BCM, SEG], lambda r: r.fallback.s / r.ops),
    ("piecewise.cost_fallback_ratio", "ratio", [BCM, SEG],
     lambda r: _ratio(r.fallback.calls, r.info_sum(BCM, "feasible"))),
    ("piecewise.dp_recursion.self_s", "s/op", ["piecewise.fisher_dp"],
     _per_op("piecewise.fisher_dp", "self_s")),
    ("piecewise.multi_start_iterative.s", "s/op", [MSI], _per_op(MSI, "s")),
    ("piecewise.iterative_fisher.calls", "calls/op", [ITF], _per_op(ITF, "calls")),
    ("piecewise.iterative_rounds", "rounds/op", [ITF],
     lambda r: r.info_sum(ITF, "rounds") / r.ops),
    ("piecewise.resegment.self_s", "s/op", ["piecewise._fixed_param_segmentation"],
     _per_op("piecewise._fixed_param_segmentation", "self_s")),
    ("piecewise.refit.s", "s/op", ["piecewise._refit"], _per_op("piecewise._refit", "s")),
    ("piecewise.starts_at_best_frac", "ratio", [MSI, ITF], lambda r: r.starts_at_best),
    ("reports.load_signal_csv.s", "s/op", ["reports.load_signal_csv"],
     _per_op("reports.load_signal_csv", "s")),
    ("reports.save_fit_report.s", "s/op", ["reports.save_fit_report"],
     _per_op("reports.save_fit_report", "s")),
    ("reports.load_fit_report.s", "s/op", ["reports.load_fit_report"],
     _per_op("reports.load_fit_report", "s")),
    ("reports.bytes_written", "B/op", ["reports.save_fit_report"],
     lambda r: r.info_sum("reports.save_fit_report", "bytes") / r.ops),
    ("cli.main.calls", "calls/op", ["cli.main"], _per_op("cli.main", "calls")),
    ("cli.main.s", "s/op", ["cli.main"], _per_op("cli.main", "s")),
    ("cli.self_s", "s/op", ["cli.main"], _per_op("cli.main", "self_s")),
    ("simulate.simulate_piecewise.s", "s/op", ["simulate.simulate_piecewise"],
     _per_op("simulate.simulate_piecewise", "s")),
    ("simulate.score.s", "s/op", [MISCLASS, DENOISE],
     lambda r: (r[MISCLASS].s + r[DENOISE].s) / r.ops),
]


def layer_metrics(tracer: Tracer, n_ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics ``{name: (value, unit)}`` from the tracer's spans,
    plus the names left out because a function they need is gone."""
    run = _Run(tracer.spans, n_ops)
    out, absent = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if all(fn in tracer.names for fn in needs):
            out[name] = (float(value(run)), unit)
        else:
            absent.append(name)
    return out, absent
