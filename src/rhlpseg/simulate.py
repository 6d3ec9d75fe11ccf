"""Signal generators and the evaluation criteria of the simulation study:
misclassification rate, denoising error, and fit runtime."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import GaussianComponent, Signal, design_matrix
from .errors import InfeasibleError, LengthMismatchError, RhlpSegError
from .piecewise import Partition, fisher_dp, multi_start_iterative, piecewise_mean
from .rhlp import RhlpParams, em_fit, logistic_proportions


@dataclass(frozen=True)
class PiecewiseScenario:
    """Ground truth for a piecewise-polynomial signal generator."""

    name: str
    transition_times: tuple[float, ...]
    components: tuple[GaussianComponent, ...]
    p: int

    def __post_init__(self):
        tt = tuple(float(v) for v in self.transition_times)
        if tt[0] != 0.0 or any(b <= a for a, b in zip(tt, tt[1:])):
            raise ValueError("transition times must be strictly increasing from 0")
        object.__setattr__(self, "transition_times", tt)

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def time_span(self) -> tuple[float, float]:
        return (self.transition_times[0], self.transition_times[-1])

    def boundary_indices(self, n: int) -> np.ndarray:
        """Transition indices gamma_k = round(time / dt) on a uniform n-point
        grid over the span."""
        dt = (self.time_span[1] - self.time_span[0]) / (n - 1)
        gamma = np.rint(np.asarray(self.transition_times) / dt).astype(int)
        gamma[-1] = n
        if np.any(np.diff(gamma) <= 0):
            raise InfeasibleError(f"n={n} leaves a segment of {self.name} empty")
        return gamma

    def labels(self, n: int) -> np.ndarray:
        return Partition(self.boundary_indices(n)).labels()

    def expectation(self, t) -> np.ndarray:
        """Noise-free signal: the active segment's polynomial at each time."""
        return piecewise_mean(
            Partition(self.boundary_indices(len(t))), self.components, t
        )


def _scenario(name, times, betas, variances) -> PiecewiseScenario:
    comps = tuple(GaussianComponent(b, s2) for b, s2 in zip(betas, variances))
    return PiecewiseScenario(name, times, comps, p=len(betas[0]) - 1)


SITUATION_1 = _scenario(
    "situation1",
    (0.0, 0.6, 4.0, 5.0),
    [(735.0, -1320.0, 1000.0), (270.0, 60.0, -15.0), (320.0, 40.0, -4.0)],
    [4.0, 10.0, 15.0],
)

SITUATION_2 = _scenario(
    "situation2",
    (0.0, 1.0, 3.5, 5.0),
    [(65.0, -70.0, 35.0), (15.0, 20.0, -5.0), (-90.0, 50.0, -5.0)],
    [4.0, 10.0, 15.0],
)

SCENARIOS = {s.name: s for s in (SITUATION_1, SITUATION_2)}


def simulate_piecewise(
    scenario: PiecewiseScenario, n: int, seed=None
) -> tuple[Signal, np.ndarray]:
    """Sample a signal on a uniform time grid: segment polynomial plus
    segment-specific Gaussian noise."""
    rng = np.random.default_rng(seed)
    t = np.linspace(*scenario.time_span, n)
    labels = scenario.labels(n)
    x = scenario.expectation(t)
    sigmas = np.sqrt(np.array([c.sigma2 for c in scenario.components]))
    x = x + sigmas[labels - 1] * rng.standard_normal(n)
    return Signal(t, x), labels


def simulate_rhlp(params: RhlpParams, t, seed=None) -> tuple[Signal, np.ndarray]:
    """Sample from the hidden-logistic-process model: labels multinomial with
    time-varying proportions, then Gaussian observations."""
    rng = np.random.default_rng(seed)
    t = np.asarray(t, dtype=float)
    pi = logistic_proportions(params.logistic, t)
    u = rng.random(len(t))
    labels = 1 + np.sum(np.cumsum(pi, axis=1) < u[:, None], axis=1)
    labels = np.minimum(labels, params.K)
    means = design_matrix(t, params.p) @ params.betas.T
    sigmas = np.sqrt(params.sigma2s)
    x = (
        means[np.arange(len(t)), labels - 1]
        + sigmas[labels - 1] * rng.standard_normal(len(t))
    )
    return Signal(t, x), labels


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel in temporal order of first appearance (1, 2, ...)."""
    labels = np.asarray(labels)
    mapping: dict[int, int] = {}
    out = np.empty(len(labels), dtype=int)
    for i, lab in enumerate(labels):
        if lab not in mapping:
            mapping[int(lab)] = len(mapping) + 1
        out[i] = mapping[int(lab)]
    return out


def misclassification_rate(true_labels, estimated_labels) -> float:
    """Fraction of mismatched samples after aligning label identities by
    temporal order of first appearance (both labelings are contiguous)."""
    true_labels = np.asarray(true_labels)
    estimated_labels = np.asarray(estimated_labels)
    if len(true_labels) != len(estimated_labels):
        raise LengthMismatchError(
            f"label vectors differ in length: {len(true_labels)} vs {len(estimated_labels)}"
        )
    return float(
        np.mean(_canonical_labels(true_labels) != _canonical_labels(estimated_labels))
    )


def expectation_curve(obj, t) -> np.ndarray:
    """Mean curve at times t of a scenario, parameter set or fitted model,
    through its expectation(t). A plain array is taken as an already
    evaluated curve."""
    if not isinstance(obj, np.ndarray):
        return obj.expectation(t)
    if len(obj) != len(t):
        raise LengthMismatchError(
            f"curve has {len(obj)} values for {len(t)} time points"
        )
    return obj


def denoising_error(truth, estimate, t) -> float:
    """Mean squared difference between the two mean curves on the grid t."""
    a = expectation_curve(truth, t)
    b = expectation_curve(estimate, t)
    return float(np.mean((a - b) ** 2))


METHODS = ("rhlp", "fisher_dp", "fisher_iterative")

FULL_N_GRID = tuple(range(100, 1001, 100))
DESK_N_GRID = (100, 500, 1000)


@dataclass(frozen=True)
class BenchmarkRow:
    """One (scenario, n, method) cell, averaged over replicates."""

    scenario: str
    n: int
    method: str
    misclassification: float
    denoising_mse: float
    runtime_s: float
    replicates: int
    error: str | None = None


def _fit_method(method: str, signal: Signal, scenario: PiecewiseScenario,
                q: int, seed: int, measure_time: bool):
    """Fit one method; every method is timed around the whole call, labels
    and mean curve included."""
    K, p = scenario.K, scenario.p
    start = time.perf_counter()
    if method == "rhlp":
        report = em_fit(signal, K, p, q, seed=seed)
        labels, curve = report.labels, report.denoised
    elif method == "fisher_dp":
        fit = fisher_dp(signal, K, p)
        labels, curve = fit.labels(), fit.expectation(signal.t)
    elif method == "fisher_iterative":
        fit = multi_start_iterative(signal, K, p, seed=seed)
        labels, curve = fit.labels(), fit.expectation(signal.t)
    else:
        raise ValueError(f"unknown method {method!r}")
    elapsed = time.perf_counter() - start
    return labels, curve, elapsed if measure_time else 0.0


def run_benchmark(
    scenarios,
    n_grid,
    replicates: int,
    methods=METHODS,
    seed: int = 0,
    q: int = 1,
    measure_time: bool = True,
) -> list[BenchmarkRow]:
    """Evaluate each method on each (scenario, n) cell, averaging the three
    criteria over the seeded replicates that fit. Replicate seeds derive
    deterministically from the master seed. A replicate whose fit raises a
    package error or LinAlgError is counted in the row's error and skipped;
    a cell where every replicate failed reports NaN criteria. Any other
    exception propagates."""
    rows: list[BenchmarkRow] = []
    for si, scenario in enumerate(scenarios):
        for n in n_grid:
            # one simulated sample set per (scenario, n, replicate), shared
            # across methods as in a paired comparison
            samples = []
            for rep in range(replicates):
                ss = np.random.SeedSequence([seed, si, n, rep])
                child_seed = int(ss.generate_state(1)[0])
                samples.append(
                    (simulate_piecewise(scenario, n, ss), child_seed)
                )
            for method in methods:
                crits = []
                failures = []
                for (sig_labels, child_seed) in samples:
                    signal, labels = sig_labels
                    try:
                        est_labels, est_curve, elapsed = _fit_method(
                            method, signal, scenario, q, child_seed, measure_time
                        )
                    except (RhlpSegError, np.linalg.LinAlgError) as exc:
                        failures.append(exc)
                        continue
                    crits.append((
                        misclassification_rate(labels, est_labels),
                        float(np.mean((scenario.expectation(signal.t) - est_curve) ** 2)),
                        elapsed,
                    ))
                means = ([float(col.mean()) for col in np.asarray(crits).T]
                         if crits else [float("nan")] * 3)
                error = None
                if failures:
                    first = failures[0]
                    error = (f"{len(failures)}/{replicates} failed; "
                             f"first: {type(first).__name__}: {first}")
                rows.append(BenchmarkRow(
                    scenario.name, n, method, *means, replicates, error,
                ))
    return rows
