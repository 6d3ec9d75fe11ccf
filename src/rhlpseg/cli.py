"""Command-line interface.

Subcommands: fit-rhlp, fit-dp, fit-dp-iter, simulate, select-model,
benchmark, plot-data. Exit codes: 0 success, 1 user/data error, 2 numerical
failure. Errors print a single machine-readable line to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import astuple, fields

import numpy as np

from .core import VARIANCE_FLOOR, GaussianComponent, Signal
from .errors import DataError, NumericalError, SchemaError
from .piecewise import Partition, fisher_dp, multi_start_iterative, piecewise_mean
from .reports import (
    load_fit_report,
    load_signal_csv,
    report_document,
    save_fit_report,
    save_signal_csv,
    write_csv,
)
from .rhlp import (
    LogisticProcess,
    RhlpParams,
    SelectionEntry,
    em_fit,
    logistic_proportions,
    select_model,
)
from .simulate import (
    DESK_N_GRID,
    FULL_N_GRID,
    METHODS,
    SCENARIOS,
    BenchmarkRow,
    run_benchmark,
    simulate_piecewise,
    simulate_rhlp,
)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _check_orders(ks, ps, q: int) -> None:
    """Reject a model order that no fitter accepts before any work starts."""
    if min(ks, default=0) < 1:
        raise DataError(f"--k must be at least 1, got {list(ks)}")
    if min(ps, default=-1) < 0 or q < 0:
        raise DataError(f"--p and --q must be at least 0, got {list(ps)} and {q}")


def _add_model_flags(sp) -> None:
    sp.add_argument("--variance-floor", type=float, default=VARIANCE_FLOOR)
    sp.add_argument("--normalize-time", action="store_true",
                    help="affinely rescale times to [0, 5] before fitting")


def _add_em_flags(sp) -> None:
    """EM settings shared by fit-rhlp and select-model."""
    sp.add_argument("--q", type=int, default=1, help="logistic degree (default 1)")
    sp.add_argument("--epsilon", type=float, default=1e-6,
                    help="EM log-likelihood increment threshold")
    sp.add_argument("--delta", type=float, default=1e-6,
                    help="IRLS objective increment threshold")
    sp.add_argument("--max-iter", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)


def _add_fit_parser(sub, command: str, help_text: str, model: str, fitter, **defaults):
    """A fit subcommand: model is the report's model tag, fitter maps
    (signal, args) to a fit; defaults fill the args a fitter has no flag for."""
    sp = sub.add_parser(command, help=help_text)
    sp.add_argument("--input", required=True, help="signal CSV with header t,x")
    sp.add_argument("--output", required=True, help="fit report JSON path")
    sp.add_argument("--k", type=int, required=True, help="number of components")
    sp.add_argument("--p", type=int, default=2, help="polynomial degree (default 2)")
    sp.add_argument("--series-output", default=None,
                    help="optional CSV of t,x,denoised,label")
    _add_model_flags(sp)
    sp.set_defaults(func=_cmd_fit, model=model, fitter=fitter, **defaults)
    return sp


def _maybe_normalize(signal: Signal, flag: bool) -> Signal:
    if not flag:
        return signal
    t = signal.t
    scaled = (t - t[0]) / (t[-1] - t[0]) * 5.0
    return Signal(scaled, signal.x)


def _fit_rhlp(signal: Signal, args):
    return em_fit(
        signal, args.k, args.p, args.q,
        epsilon=args.epsilon, delta=args.delta, max_iter=args.max_iter,
        init_strategy="random" if args.restarts > 0 else "uniform",
        n_restarts=args.restarts, seed=args.seed,
        variance_floor=args.variance_floor,
    )


def _fit_dp(signal: Signal, args):
    return fisher_dp(signal, args.k, args.p, variance_floor=args.variance_floor)


def _fit_dp_iter(signal: Signal, args):
    return multi_start_iterative(
        signal, args.k, args.p,
        n_random_starts=args.restarts, seed=args.seed,
        max_iter=args.max_iter, tol=args.epsilon,
        variance_floor=args.variance_floor,
    )


def _cmd_fit(args) -> None:
    """Every fit command: load, fit (timed around the fitter's call), write
    the report and, if asked, the t,x,denoised,label series."""
    _check_orders([args.k], [args.p], args.q)
    signal, _ = load_signal_csv(args.input)
    signal = _maybe_normalize(signal, args.normalize_time)
    start = time.perf_counter()
    fit = args.fitter(signal, args)
    elapsed = time.perf_counter() - start
    doc = report_document(fit, args.model, args.seed, elapsed)
    save_fit_report(doc, args.output)
    if args.series_output:
        write_csv(args.series_output, ["t", "x", "denoised", "label"],
                  zip(signal.t, signal.x, fit.expectation(signal.t), doc.labels))


def _components(beta, sigma2) -> tuple[GaussianComponent, ...]:
    return tuple(
        GaussianComponent(np.asarray(b, float), float(s2))
        for b, s2 in zip(beta, sigma2, strict=True)
    )


def _params_from_json(path) -> RhlpParams:
    with open(path) as fh:
        raw = json.load(fh)
    try:
        comps = _components(raw["beta"], raw["sigma2"])
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
        # the grid runs from the scenario's first to its last transition time
        if args.n < 2:
            raise DataError(f"--n must be at least 2, got {args.n}")
        signal, labels = simulate_piecewise(SCENARIOS[args.scenario], args.n, args.seed)
    else:
        if args.n < 1:
            raise DataError(f"--n must be at least 1, got {args.n}")
        params = _params_from_json(args.params_json)
        t = np.linspace(0.0, 5.0, args.n)
        signal, labels = simulate_rhlp(params, t, args.seed)
    save_signal_csv(args.output, signal, labels)


def _cmd_select_model(args) -> None:
    _check_orders(args.k, args.p, args.q)
    signal, _ = load_signal_csv(args.input)
    signal = _maybe_normalize(signal, args.normalize_time)
    best, table = select_model(
        signal, args.k, args.p, args.q,
        epsilon=args.epsilon, delta=args.delta, max_iter=args.max_iter,
        seed=args.seed, variance_floor=args.variance_floor,
    )
    write_csv(args.output, [f.name for f in fields(SelectionEntry)], map(astuple, table))
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
    if min(n_grid, default=2) < 2:
        raise DataError(f"--n must be at least 2, got {n_grid}")
    rows = run_benchmark(
        scenarios, n_grid, args.replicates, args.methods,
        seed=args.seed, measure_time=not args.no_timing,
    )
    write_csv(args.output, [f.name for f in fields(BenchmarkRow)], map(astuple, rows))


def _cmd_plot_data(args) -> None:
    """Long-format series of a report's model, rebuilt from its coefficients:
    the signal, the mean curve, each component's polynomial and, for RHLP,
    the mixing proportions. RHLP's mean curve is the one stored at fit time,
    which stays right when the fit rescaled time (--normalize-time); the
    report does not record that rescaling."""
    doc = load_fit_report(args.input)
    signal, _ = load_signal_csv(args.signal)
    t = signal.t
    if len(doc.labels) != len(t):
        raise SchemaError(
            f"report has {len(doc.labels)} samples but signal has {len(t)}"
        )
    try:
        comps = _components(doc.beta, doc.sigma2)
        if doc.model == "rhlp":
            curve = np.asarray(doc.denoised, float)
            proportions = logistic_proportions(LogisticProcess(np.asarray(doc.w, float)), t).T
        else:
            curve, proportions = piecewise_mean(Partition(doc.gamma), comps, t), []
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"invalid report: {exc}") from None
    series = [("original", signal.x), ("denoised", curve)]
    series += [(f"component_{k}", c.mean(t)) for k, c in enumerate(comps, 1)]
    series += [(f"proportion_{k}", pi) for k, pi in enumerate(proportions, 1)]
    write_csv(args.output, ["t", "series", "value"],
              ((ti, name, v) for name, values in series for ti, v in zip(t, values)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhlpseg",
        description="Time-series segmentation and denoising: hidden-logistic-"
                    "process regression and optimal piecewise polynomial fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _add_fit_parser(sub, "fit-rhlp", "EM fit of the hidden-logistic-process model",
                         "rhlp", _fit_rhlp)
    _add_em_flags(sp)
    sp.add_argument("--restarts", type=int, default=0,
                    help="extra randomized-initialization EM runs")

    _add_fit_parser(sub, "fit-dp", "globally optimal piecewise fit (dynamic programming)",
                    "piecewise_dp", _fit_dp, q=0, seed=None)

    sp = _add_fit_parser(sub, "fit-dp-iter", "iterative piecewise fit with multi-start",
                         "piecewise_iterative", _fit_dp_iter, q=0)
    sp.add_argument("--epsilon", type=float, default=1e-6,
                    help="criterion-J decrease threshold")
    sp.add_argument("--max-iter", type=int, default=100)
    sp.add_argument("--restarts", type=int, default=10,
                    help="random initial partitions besides the uniform one")
    sp.add_argument("--seed", type=int, required=True)

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
    _add_model_flags(sp)
    _add_em_flags(sp)
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
