"""Command-line interface.

Subcommands: fit-rhlp, fit-dp, fit-dp-iter, simulate, select-model,
benchmark, plot-data. Exit codes: 0 success, 1 user/data error, 2 numerical
failure. Errors print a single machine-readable line to stderr.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import astuple, fields

import numpy as np

from .core import GaussianComponent, Signal, TimeMap
from .errors import DataError, NumericalError, SchemaError
from .piecewise import Partition, fisher_dp, multi_start_iterative, piecewise_mean
from .reports import (
    _is_finite,
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
    denoise,
    em_fit,
    logistic_proportions,
    select_model,
)
from .simulate import (
    DESK_N_GRID,
    METHODS,
    SCENARIOS,
    BenchmarkRow,
    run_benchmark,
    simulate_piecewise,
    simulate_rhlp,
)


def _at_least(minimum: int):
    """An argparse type: an integer of at least minimum, else an argument
    error (exit 1, one line)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _listed(item):
    """An argparse type: a comma list of one or more values that item
    accepts, where item is a type, such as _at_least(1), or a collection of
    names; else an argument error."""
    def comma_list(text: str) -> list:
        out = [v.strip() for v in text.split(",") if v.strip()]
        if not out:
            raise argparse.ArgumentTypeError("must list at least one value")
        if callable(item):
            return [item(v) for v in out]
        unknown = [v for v in out if v not in item]
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown {unknown}; choose from {sorted(item)}")
        return out
    return comma_list


def _add_em_flags(sp) -> None:
    """EM settings shared by fit-rhlp and select-model."""
    sp.add_argument("--q", type=_at_least(0), default=1, help="logistic degree (default 1)")
    sp.add_argument("--seed", type=_at_least(0), default=0)


def _add_fit_parser(sub, command: str, help_text: str, fitter):
    """A fit subcommand: fitter maps (signal, args) to a fit, which names its
    own model and seed."""
    sp = sub.add_parser(command, help=help_text)
    sp.add_argument("--input", required=True, help="signal CSV with header t,x")
    sp.add_argument("--output", required=True, help="fit report JSON path")
    sp.add_argument("--k", type=_at_least(1), required=True, help="number of components")
    sp.add_argument("--p", type=_at_least(0), default=2, help="polynomial degree (default 2)")
    sp.add_argument("--series-output", default=None,
                    help="optional CSV of t,x,denoised,label")
    sp.set_defaults(func=_cmd_fit, fitter=fitter)
    return sp


def _fit_rhlp(signal: Signal, args):
    return em_fit(signal, args.k, args.p, args.q, n_restarts=args.restarts, seed=args.seed)


def _fit_dp(signal: Signal, args):
    return fisher_dp(signal, args.k, args.p)


def _fit_dp_iter(signal: Signal, args):
    return multi_start_iterative(
        signal, args.k, args.p, n_random_starts=args.restarts, seed=args.seed
    )


def _cmd_fit(args) -> None:
    """Every fit command: load, fit (timed around the fitter's call), write
    the report and, if asked, the t,x,denoised,label series."""
    signal, _ = load_signal_csv(args.input)
    start = time.perf_counter()
    fit = args.fitter(signal, args)
    elapsed = time.perf_counter() - start
    doc = report_document(fit, elapsed)
    save_fit_report(doc, args.output)
    if args.series_output:
        write_csv(args.series_output, ["t", "x", "denoised", "label"],
                  [signal.t, signal.x, fit.expectation(signal.t), doc.labels])


def _components(beta, sigma2) -> tuple[GaussianComponent, ...]:
    return tuple(
        GaussianComponent(np.asarray(b, float), float(s2))
        for b, s2 in zip(beta, sigma2, strict=True)
    )


def _params_from_json(path) -> RhlpParams:
    """The model of a params JSON file: w and beta rows and a sigma2 list of
    finite JSON numbers, as load_fit_report requires of a report, that make
    an RhlpParams; else SchemaError."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid params JSON: {exc}") from None
    try:
        w, beta, sigma2 = raw["w"], raw["beta"], raw["sigma2"]
        if not all(map(_is_finite, [*itertools.chain(*w, *beta), *sigma2])):
            raise ValueError("w, beta and sigma2 must hold finite numbers")
        return RhlpParams(LogisticProcess(np.asarray(w, float)), _components(beta, sigma2))
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"invalid params JSON: {exc}") from None


def _cmd_simulate(args) -> None:
    if args.scenario is not None:
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
    signal, _ = load_signal_csv(args.input)
    best, table = select_model(signal, args.k, args.p, args.q, seed=args.seed)
    write_csv(args.output, [f.name for f in fields(SelectionEntry)],
              list(zip(*map(astuple, table))))
    if args.report_output:
        save_fit_report(best, args.report_output)


def _cmd_benchmark(args) -> None:
    rows = run_benchmark(
        [SCENARIOS[name] for name in args.scenarios], args.n, args.replicates, args.methods,
        seed=args.seed, measure_time=not args.no_timing,
    )
    write_csv(args.output, [f.name for f in fields(BenchmarkRow)], list(zip(*map(astuple, rows))))


def _cmd_plot_data(args) -> None:
    """Long-format series of a report's model, rebuilt from its coefficients
    and evaluated at the fit times u of the signal's times t: the signal, the
    mean curve, each component's polynomial and, for RHLP, the mixing
    proportions."""
    doc = load_fit_report(args.input)
    signal, _ = load_signal_csv(args.signal)
    t = signal.t
    if len(doc.labels) != len(t):
        raise SchemaError(
            f"report has {len(doc.labels)} samples but signal has {len(t)}"
        )
    u = TimeMap(doc.t0, doc.time_factor)(t)
    # load_fit_report has checked every field these constructors check
    comps = _components(doc.beta, doc.sigma2)
    if doc.model == "rhlp":
        params = RhlpParams(LogisticProcess(np.asarray(doc.w, float)), comps)
        curve = denoise(params, u)
        proportions = logistic_proportions(params.logistic, u).T
    else:
        curve, proportions = piecewise_mean(Partition(doc.gamma), comps, u), []
    series = [("original", signal.x), ("denoised", curve)]
    series += [(f"component_{k}", c.mean(u)) for k, c in enumerate(comps, 1)]
    series += [(f"proportion_{k}", pi) for k, pi in enumerate(proportions, 1)]
    names, values = zip(*series)
    write_csv(args.output, ["t", "series", "value"],
              [np.tile(t, len(series)), np.repeat(names, len(t)), np.concatenate(values)])


class _Parser(argparse.ArgumentParser):
    """An argument error (a bad value, an unknown flag, a missing argument)
    raises DataError, so main reports it like any other user error: exit 1,
    one line. add_parser builds every subcommand's parser with this class."""

    def error(self, message):
        raise DataError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhlpseg",
        description="Time-series segmentation and denoising: hidden-logistic-"
                    "process regression and optimal piecewise polynomial fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _add_fit_parser(sub, "fit-rhlp", "EM fit of the hidden-logistic-process model",
                         _fit_rhlp)
    _add_em_flags(sp)
    sp.add_argument("--restarts", type=_at_least(0), default=0,
                    help="extra randomized-initialization EM runs")

    _add_fit_parser(sub, "fit-dp", "globally optimal piecewise fit (dynamic programming)",
                    _fit_dp)

    sp = _add_fit_parser(sub, "fit-dp-iter", "iterative piecewise fit with multi-start",
                         _fit_dp_iter)
    sp.add_argument("--restarts", type=_at_least(0), default=10,
                    help="random initial partitions besides the uniform one")
    sp.add_argument("--seed", type=_at_least(0), required=True)

    sp = sub.add_parser("simulate", help="generate a benchmark signal CSV")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", choices=sorted(SCENARIOS), help="named scenario")
    source.add_argument("--params-json",
                        help="JSON with w/beta/sigma2 for model-based generation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=_at_least(0), required=True)
    sp.add_argument("--output", required=True, help="signal CSV (t,x,label)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("select-model", help="BIC sweep over (K, p) at fixed q; the cells run "
                        "on every CPU the process may run on (taskset limits them), "
                        "with the same results for any CPU count",
                        description="BIC sweep over (K, p) at fixed q. The cells run in "
                        "worker processes, one per CPU the process may run on (taskset "
                        "limits them) and at most one per cell, with the same table and "
                        "report for any CPU count. "
                        "The library keeps its workers for later sweeps; this command "
                        "runs one sweep, so they end when it exits.")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True, help="BIC table CSV")
    sp.add_argument("--report-output", default=None, help="best fit report JSON")
    sp.add_argument("--k", type=_listed(_at_least(1)), required=True, help="e.g. 2,3,4")
    sp.add_argument("--p", type=_listed(_at_least(0)), required=True, help="e.g. 1,2,3")
    _add_em_flags(sp)
    sp.set_defaults(func=_cmd_select_model)

    sp = sub.add_parser("benchmark", help="simulation study: criteria per (scenario, n, method)")
    sp.add_argument("--scenarios", type=_listed(SCENARIOS), default=tuple(sorted(SCENARIOS)))
    sp.add_argument("--n", type=_listed(_at_least(2)), default=DESK_N_GRID)
    sp.add_argument("--replicates", type=_at_least(1), default=20)
    sp.add_argument("--methods", type=_listed(METHODS), default=METHODS)
    sp.add_argument("--seed", type=_at_least(0), required=True)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call of the process parses with, built on the
    first call, not at import. Parsing leaves it as it was: each call gets a
    fresh namespace, and the list defaults are tuples, which no command can
    change."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.func(args)
    except (DataError, OSError) as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error:{type(exc).__name__}:{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
