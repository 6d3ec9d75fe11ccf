"""The benchmark's three workloads.

Each workload turns (seed, op index) into one input, runs one op on it
through rhlpseg's public API, and assesses the op's outputs outside the timed
region. Op i uses SITUATION_1 for even i and SITUATION_2 for odd i, with noise
drawn from SeedSequence([seed, i]). Functions are looked up on their module at
call time, so the traced run's wrappers see every call.

A typed fit error (an rhlpseg error or LinAlgError) counts as a failed fit; a
failed correctness check raises CheckFailed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from rhlpseg import cli, core, piecewise, reports, rhlp, simulate
from rhlpseg.errors import RhlpSegError

TYPED_ERRORS = (RhlpSegError, np.linalg.LinAlgError)
SCENARIOS = (simulate.SITUATION_1, simulate.SITUATION_2)
K, P, Q = 3, 2, 1  # the shipped scenarios have three quadratic segments
# Slack for comparing criteria J computed along different numerical paths
# (normal equations in the cost matrix, lstsq in segment_cost); observed gaps
# are about 1e-11 relative.
J_RTOL = 1e-9
# Same bound on a log-likelihood decrease as acceptance criterion 2.
LL_ASCENT_TOL = 1e-8
WARMUP_N = 100
WARMUP_INDEX = 2**32  # outside the ops' index range


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Input:
    index: int
    scenario: simulate.PiecewiseScenario
    signal: core.Signal
    labels: np.ndarray
    truth: np.ndarray  # noise-free mean curve at the samples
    fit_seed: int
    path: str | None = None  # signal CSV, for the CLI workload


@dataclass
class Assessment:
    """Outcome of one op, computed after it was timed."""

    fits: int = 0
    failed: int = 0
    # (scenario index, misclassification rate, denoising MSE) per good fit
    quality: list[tuple[int, float, float]] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)
    k_selected: int | None = None

    def score(self, inp: Input, labels, curve) -> None:
        self.quality.append((
            inp.index % 2,
            simulate.misclassification_rate(inp.labels, labels),
            simulate.denoising_error(inp.truth, np.asarray(curve, dtype=float), inp.signal.t),
        ))


def _check_labels(labels, n, k, what):
    labels = np.asarray(labels)
    require(len(labels) == n, f"{what}: {len(labels)} labels for {n} samples")
    require(labels.min() >= 1 and labels.max() <= k, f"{what}: labels outside 1..{k}")


class Workload:
    name = ""
    n = 0

    def __init__(self, workdir, n: int | None = None):
        self.workdir = str(workdir)
        if n is not None:
            self.n = n

    def make_input(self, seed: int, i: int, n: int | None = None) -> Input:
        ss = np.random.SeedSequence([seed, i])
        scenario = SCENARIOS[i % 2]
        signal, labels = simulate.simulate_piecewise(scenario, n or self.n, ss)
        return Input(i, scenario, signal, labels, scenario.expectation(signal.t),
                     int(ss.generate_state(1)[0]))

    def warmup(self) -> None:
        """One untimed op at a small size, so lazy set-up is done before timing.
        Its input does not depend on the seed, so set-up time does not either."""
        self.op(self.make_input(0, WARMUP_INDEX, min(WARMUP_N, self.n)))

    def op(self, inp: Input):
        raise NotImplementedError

    def assess(self, inp: Input, out) -> Assessment:
        raise NotImplementedError


class BicSweep(Workload):
    """select_model over K = 1..5 at p = 2, q = 1: EM with a misspecified K
    dominates, so this loads rhlp and core and leaves the cost matrix idle."""

    name = "bic-sweep"
    n = 500
    k_range = range(1, 6)

    def op(self, inp):
        return rhlp.select_model(inp.signal, self.k_range, [P], Q, seed=inp.fit_seed)

    def assess(self, inp, out):
        best, table = out
        a = Assessment(fits=len(table), failed=sum(e.error is not None for e in table))
        for e in table:
            if e.error is None:
                require(np.isfinite(e.bic), f"K={e.K}: BIC {e.bic} is not finite")
        a.checks.append("bic_finite")
        worst = float(np.diff(best.log_likelihood_trace).min(initial=0.0))
        require(worst >= -LL_ASCENT_TOL,
                f"selected K={best.params.K}: log-likelihood drops by {-worst:.3e}")
        a.checks.append("ll_trace_ascent")
        _check_labels(best.labels, inp.signal.n, best.params.K, "selected fit")
        a.checks.append("labels_valid")
        a.score(inp, best.labels, best.denoised)
        a.k_selected = best.params.K
        return a


class PiecewisePair(Workload):
    """fisher_dp then multi_start_iterative on the same n = 2000 signal, the
    paper's paired comparison: the O(n^2) cost matrix dominates, then the
    iterative fit's re-segmentation loop; EM does no work."""

    name = "piecewise-pair"
    n = 2000

    def op(self, inp):
        fits = []
        for fit in (lambda: piecewise.fisher_dp(inp.signal, K, P),
                    lambda: piecewise.multi_start_iterative(inp.signal, K, P,
                                                            seed=inp.fit_seed)):
            try:
                fits.append(fit())
            except TYPED_ERRORS as exc:
                fits.append(exc)
        return fits

    def assess(self, inp, out):
        dp, it = out
        a = Assessment(fits=2)
        good = [f for f in out if isinstance(f, piecewise.PiecewiseFit)]
        a.failed = 2 - len(good)
        for f in good:
            _check_labels(f.labels(), inp.signal.n, K, "piecewise fit")
            a.score(inp, f.labels(), f.expectation(inp.signal.t))
        a.checks.append("labels_valid")
        if isinstance(dp, piecewise.PiecewiseFit):
            gamma = inp.scenario.boundary_indices(inp.signal.n)
            j_true = sum(piecewise.segment_cost(inp.signal, gamma[k], gamma[k + 1], P)[0]
                         for k in range(K))
            others = [("true partition", j_true)]
            if isinstance(it, piecewise.PiecewiseFit):
                others.append(("multi_start_iterative", it.criterion_j))
            for what, j in others:
                require(dp.criterion_j <= j + J_RTOL * max(1.0, abs(j)),
                        f"fisher_dp J {dp.criterion_j!r} exceeds {what} J {j!r}")
                a.checks.append(f"dp_j_le_{what.replace(' ', '_')}")
        return a


class CliEpoch(Workload):
    """One job through the CLI: fit-rhlp, fit-dp and fit-dp-iter on a signal
    CSV with epoch-second times and a +1e3 value offset. Real timestamps push
    the fitters down their ill-conditioned paths, and only this workload
    exercises reports and cli I/O."""

    name = "cli-epoch"
    n = 500
    epoch = 1.7e9
    offset = 1e3
    commands = (("fit-rhlp", "--q", str(Q)), ("fit-dp",), ("fit-dp-iter",))

    def make_input(self, seed, i, n=None):
        base = super().make_input(seed, i, n)
        signal = core.Signal(self.epoch + np.arange(base.signal.n, dtype=float),
                             base.signal.x + self.offset)
        path = os.path.join(self.workdir, f"signal-{i}.csv")
        reports.save_signal_csv(path, signal, base.labels)
        return Input(i, base.scenario, signal, base.labels, base.truth + self.offset,
                     base.fit_seed, path)

    def _stem(self, command):
        return os.path.join(self.workdir, command)

    def op(self, inp):
        runs = []
        for cmd in self.commands:
            stem = self._stem(cmd[0])
            argv = [*cmd, "--input", inp.path, "--output", stem + ".json",
                    "--k", str(K), "--p", str(P), "--series-output", stem + "-series.csv"]
            if cmd[0] != "fit-dp":
                argv += ["--seed", str(inp.fit_seed)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            runs.append((cmd[0], rc, err.getvalue()))
        return runs

    def assess(self, inp, out):
        a = Assessment(fits=len(out))
        for command, rc, err in out:
            stem = self._stem(command)
            require(rc in (0, 1, 2), f"{command}: exit code {rc}")
            if rc == 0:
                doc = reports.load_fit_report(stem + ".json")
                _check_labels(doc.labels, inp.signal.n, K, command)
                with open(stem + "-series.csv", newline="") as fh:
                    curve = [float(row["denoised"]) for row in csv.DictReader(fh)]
                require(len(curve) == inp.signal.n, f"{command}: series has {len(curve)} rows")
                a.score(inp, doc.labels, curve)
                a.checks.append("cli_report_loads")
            else:
                lines = err.splitlines()
                require(len(lines) == 1 and lines[0].startswith("error:"),
                        f"{command}: exit {rc} with stderr {err!r}")
                a.failed += 1
                a.checks.append("cli_error_line")
            for suffix in (".json", "-series.csv"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(stem + suffix)
        return a


WORKLOADS = {w.name: w for w in (BicSweep, PiecewisePair, CliEpoch)}
