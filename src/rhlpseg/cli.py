"""Command-line interface.

Subcommands: fit-rhlp, fit-dp, fit-dp-iter, simulate, select-model,
benchmark, plot-data. Exit codes: 0 success, 1 user/data error, 2 numerical
failure. Errors print a single machine-readable line to stderr.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from .core import VARIANCE_FLOOR, GaussianComponent, Signal, design_matrix
from .errors import DataError, NumericalError, SchemaError
from .piecewise import fisher_dp, multi_start_iterative
from .reports import (
    load_fit_report,
    load_signal_csv,
    save_fit_report,
    save_signal_csv,
)
from .rhlp import LogisticProcess, RhlpParams, em_fit, logistic_proportions, select_model
from .simulate import (
    DESK_N_GRID,
    FULL_N_GRID,
    METHODS,
    SCENARIOS,
    run_benchmark,
    simulate_piecewise,
    simulate_rhlp,
)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _add_fit_flags(sp, rhlp: bool):
    sp.add_argument("--input", required=True, help="signal CSV with header t,x")
    sp.add_argument("--output", required=True, help="fit report JSON path")
    sp.add_argument("--k", type=int, required=True, help="number of components")
    sp.add_argument("--p", type=int, default=2, help="polynomial degree (default 2)")
    sp.add_argument("--variance-floor", type=float, default=VARIANCE_FLOOR)
    sp.add_argument("--normalize-time", action="store_true",
                    help="affinely rescale times to [0, 5] before fitting")
    sp.add_argument("--series-output", default=None,
                    help="optional CSV of t,x,denoised,label")
    if rhlp:
        sp.add_argument("--q", type=int, default=1, help="logistic degree (default 1)")
        sp.add_argument("--epsilon", type=float, default=1e-6,
                        help="EM log-likelihood increment threshold")
        sp.add_argument("--delta", type=float, default=1e-6,
                        help="IRLS objective increment threshold")
        sp.add_argument("--max-iter", type=int, default=1000)
        sp.add_argument("--restarts", type=int, default=0,
                        help="extra randomized-initialization EM runs")
        sp.add_argument("--seed", type=int, default=0)


def _maybe_normalize(signal: Signal, flag: bool) -> Signal:
    if not flag:
        return signal
    t = signal.t
    scaled = (t - t[0]) / (t[-1] - t[0]) * 5.0
    return Signal(scaled, signal.x)


def _write_series(path, signal: Signal, denoised, labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "denoised", "label"])
        for t, x, d, lab in zip(signal.t, signal.x, denoised, labels):
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(d)), int(lab)])


def _cmd_fit_rhlp(args) -> None:
    signal, _ = load_signal_csv(args.input)
    signal = _maybe_normalize(signal, args.normalize_time)
    report = em_fit(
        signal, args.k, args.p, args.q,
        epsilon=args.epsilon, delta=args.delta, max_iter=args.max_iter,
        init_strategy="random" if args.restarts > 0 else "uniform",
        n_restarts=args.restarts, seed=args.seed,
        variance_floor=args.variance_floor,
    )
    save_fit_report(report, args.output)
    if args.series_output:
        _write_series(args.series_output, signal, report.denoised, report.labels)


def _cmd_fit_dp(args) -> None:
    signal, _ = load_signal_csv(args.input)
    signal = _maybe_normalize(signal, args.normalize_time)
    start = time.perf_counter()
    fit = fisher_dp(signal, args.k, args.p, variance_floor=args.variance_floor)
    elapsed = time.perf_counter() - start
    save_fit_report(fit, args.output, model="piecewise_dp", runtime_seconds=elapsed)
    if args.series_output:
        _write_series(args.series_output, signal, fit.expectation(signal.t), fit.labels())


def _cmd_fit_dp_iter(args) -> None:
    signal, _ = load_signal_csv(args.input)
    signal = _maybe_normalize(signal, args.normalize_time)
    start = time.perf_counter()
    fit = multi_start_iterative(
        signal, args.k, args.p,
        n_random_starts=args.restarts, seed=args.seed,
        max_iter=args.max_iter, tol=args.epsilon,
        variance_floor=args.variance_floor,
    )
    elapsed = time.perf_counter() - start
    save_fit_report(fit, args.output, model="piecewise_iterative",
                    seed=args.seed, runtime_seconds=elapsed)
    if args.series_output:
        _write_series(args.series_output, signal, fit.expectation(signal.t), fit.labels())


def _params_from_json(path) -> RhlpParams:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        comps = tuple(
            GaussianComponent(np.asarray(b, float), float(s2))
            for b, s2 in zip(raw["beta"], raw["sigma2"], strict=True)
        )
        return RhlpParams(LogisticProcess(np.asarray(raw["w"], float)), comps)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"invalid params JSON: {exc}") from None


def _cmd_simulate(args) -> None:
    if (args.scenario is None) == (args.params_json is None):
        raise DataError("exactly one of --scenario / --params-json is required")
    if args.scenario is not None:
        if args.scenario not in SCENARIOS:
            raise DataError(
                f"unknown scenario {args.scenario!r}; choose from {sorted(SCENARIOS)}"
            )
        signal, labels = simulate_piecewise(SCENARIOS[args.scenario], args.n, args.seed)
    else:
        params = _params_from_json(args.params_json)
        t = np.linspace(0.0, 5.0, args.n)
        signal, labels = simulate_rhlp(params, t, args.seed)
    save_signal_csv(args.output, signal, labels)


def _cmd_select_model(args) -> None:
    signal, _ = load_signal_csv(args.input)
    signal = _maybe_normalize(signal, args.normalize_time)
    best, table = select_model(
        signal, args.k, args.p, args.q,
        epsilon=args.epsilon, delta=args.delta, max_iter=args.max_iter,
        seed=args.seed, variance_floor=args.variance_floor,
    )
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "p", "q", "bic", "log_likelihood", "converged", "error"])
        for e in table:
            writer.writerow([
                e.K, e.p, e.q,
                "" if e.bic is None else repr(float(e.bic)),
                "" if e.log_likelihood is None else repr(float(e.log_likelihood)),
                "" if e.converged is None else e.converged,
                e.error or "",
            ])
    if args.report_output:
        save_fit_report(best, args.report_output)


def _cmd_benchmark(args) -> None:
    scenarios = []
    for name in args.scenarios:
        if name not in SCENARIOS:
            raise DataError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
        scenarios.append(SCENARIOS[name])
    for m in args.methods:
        if m not in METHODS:
            raise DataError(f"unknown method {m!r}; choose from {METHODS}")
    n_grid = list(FULL_N_GRID) if args.full_grid else args.n
    rows = run_benchmark(
        scenarios, n_grid, args.replicates, args.methods,
        seed=args.seed, measure_time=not args.no_timing,
    )
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "n", "method", "misclassification",
                         "denoising_mse", "runtime_s", "replicates", "error"])
        for r in rows:
            writer.writerow([
                r.scenario, r.n, r.method,
                repr(r.misclassification), repr(r.denoising_mse), repr(r.runtime_s),
                r.replicates, r.error or "",
            ])
            fh.flush()  # partial output survives a later cell failure


def _cmd_plot_data(args) -> None:
    doc = load_fit_report(args.input)
    signal, _ = load_signal_csv(args.signal)
    t = signal.t
    if len(doc.labels) != len(t):
        raise SchemaError(
            f"report has {len(doc.labels)} samples but signal has {len(t)}"
        )
    series: list[tuple[str, np.ndarray]] = [("original", signal.x)]
    betas = np.asarray(doc.beta, dtype=float)
    means = design_matrix(t, doc.p) @ betas.T
    if doc.model == "rhlp":
        proc = LogisticProcess(np.asarray(doc.w, dtype=float))
        pi = logistic_proportions(proc, t)
        series.append(("denoised", np.asarray(doc.denoised, dtype=float)))
        for k in range(doc.K):
            series.append((f"component_{k + 1}", means[:, k]))
        for k in range(doc.K):
            series.append((f"proportion_{k + 1}", pi[:, k]))
    else:
        labels = np.asarray(doc.labels, dtype=int)
        series.append(("denoised", means[np.arange(len(t)), labels - 1]))
        for k in range(doc.K):
            series.append((f"component_{k + 1}", means[:, k]))
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "series", "value"])
        for name, values in series:
            for ti, v in zip(t, values):
                writer.writerow([repr(float(ti)), name, repr(float(v))])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhlpseg",
        description="Time-series segmentation and denoising: hidden-logistic-"
                    "process regression and optimal piecewise polynomial fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit-rhlp", help="EM fit of the hidden-logistic-process model")
    _add_fit_flags(sp, rhlp=True)
    sp.set_defaults(func=_cmd_fit_rhlp)

    sp = sub.add_parser("fit-dp", help="globally optimal piecewise fit (dynamic programming)")
    _add_fit_flags(sp, rhlp=False)
    sp.set_defaults(func=_cmd_fit_dp)

    sp = sub.add_parser("fit-dp-iter", help="iterative piecewise fit with multi-start")
    _add_fit_flags(sp, rhlp=False)
    sp.add_argument("--epsilon", type=float, default=1e-6,
                    help="criterion-J decrease threshold")
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--restarts", type=int, default=10,
                    help="random initial partitions besides the uniform one")
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_fit_dp_iter)

    sp = sub.add_parser("simulate", help="generate a benchmark signal CSV")
    sp.add_argument("--scenario", default=None,
                    help=f"named scenario: {', '.join(sorted(SCENARIOS))}")
    sp.add_argument("--params-json", default=None,
                    help="JSON with w/beta/sigma2 for model-based generation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--output", required=True, help="signal CSV (t,x,label)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("select-model", help="BIC sweep over (K, p) at fixed q")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True, help="BIC table CSV")
    sp.add_argument("--report-output", default=None, help="best fit report JSON")
    sp.add_argument("--k", type=_int_list, required=True, help="e.g. 2,3,4")
    sp.add_argument("--p", type=_int_list, required=True, help="e.g. 1,2,3")
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--epsilon", type=float, default=1e-6)
    sp.add_argument("--delta", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--variance-floor", type=float, default=VARIANCE_FLOOR)
    sp.add_argument("--normalize-time", action="store_true")
    sp.set_defaults(func=_cmd_select_model)

    sp = sub.add_parser("benchmark", help="simulation study: criteria per (scenario, n, method)")
    sp.add_argument("--scenarios", type=_str_list, default=list(sorted(SCENARIOS)))
    sp.add_argument("--n", type=_int_list, default=list(DESK_N_GRID))
    sp.add_argument("--full-grid", action="store_true",
                    help="use the full n grid 100,200,...,1000")
    sp.add_argument("--replicates", type=int, default=20)
    sp.add_argument("--methods", type=_str_list, default=list(METHODS))
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--no-timing", action="store_true",
                    help="write 0.0 runtimes for bit-reproducible output")
    sp.add_argument("--output", required=True, help="criteria table CSV")
    sp.set_defaults(func=_cmd_benchmark)

    sp = sub.add_parser("plot-data", help="long-format CSV series for external plotting")
    sp.add_argument("--input", required=True, help="fit report JSON")
    sp.add_argument("--signal", required=True, help="the signal CSV the report was fit on")
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DataError, OSError, json.JSONDecodeError) as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
