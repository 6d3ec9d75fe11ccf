"""Regression with a hidden logistic process.

K polynomial components whose mixing proportions vary over time through a
softmax of a degree-q polynomial in t. Fitting alternates an E step
(posterior responsibilities), weighted least squares for the component
parameters, and an exact-Hessian Newton (multi-class IRLS) solve for the
logistic coefficients. Also provides denoising, hard labeling, BIC, and a
BIC-driven model-selection sweep.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    VARIANCE_FLOOR,
    GaussianComponent,
    Signal,
    design_matrix,
    gaussian_log_density,
    weighted_least_squares,
)
from .errors import EmptyComponentError, RankDeficientError, RhlpSegError
from .piecewise import segment_cost, uniform_partition

_STARVATION_TOL = 1e-10


@dataclass(frozen=True)
class LogisticProcess:
    """Time-varying mixing weights: softmax over K linear scores in
    (1, t, ..., t^q). The last coefficient vector is pinned to zero so the
    parametrization is identifiable."""

    w: np.ndarray  # (K, q+1); w[K-1] is identically zero

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise ValueError("w must be a finite (K, q+1) array")
        if np.any(w[-1] != 0.0):
            raise ValueError("reference coefficient vector w[K-1] must be zero")
        object.__setattr__(self, "w", w)

    @property
    def K(self) -> int:
        return self.w.shape[0]

    @property
    def q(self) -> int:
        return self.w.shape[1] - 1


@dataclass(frozen=True)
class RhlpParams:
    """Full parameter set: logistic process plus K regression components."""

    logistic: LogisticProcess
    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        if len(self.components) != self.logistic.K:
            raise ValueError("component count must match logistic process K")

    @property
    def K(self) -> int:
        return self.logistic.K

    @property
    def p(self) -> int:
        return len(self.components[0].beta) - 1

    @property
    def q(self) -> int:
        return self.logistic.q

    @property
    def betas(self) -> np.ndarray:
        return np.stack([c.beta for c in self.components])

    @property
    def sigma2s(self) -> np.ndarray:
        return np.array([c.sigma2 for c in self.components])

    def expectation(self, t) -> np.ndarray:
        """Model mean curve at times t; see denoise."""
        return denoise(self, t)


@dataclass(frozen=True)
class FitReport:
    """Everything produced by one EM fit."""

    params: RhlpParams
    log_likelihood_trace: tuple[float, ...]
    bic: float
    labels: np.ndarray
    denoised: np.ndarray
    runtime_seconds: float
    converged: bool
    em_iterations: int
    seed: int | None = None

    @property
    def log_likelihood(self) -> float:
        return self.log_likelihood_trace[-1]

    def expectation(self, t) -> np.ndarray:
        """Fitted mean curve at times t; see denoise."""
        return denoise(self.params, t)


def _logsumexp_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp with max shift. Faster than scipy's general
    implementation, which dominated EM profiles at n=1000."""
    shift = scores.max(axis=1, keepdims=True)
    return shift + np.log(np.exp(scores - shift).sum(axis=1, keepdims=True))


def _log_proportions(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """log pi_ik against the logistic design matrix V = design_matrix(t, q),
    computed with max-shifted exponentials."""
    scores = V @ w.T  # (n, K)
    return scores - _logsumexp_rows(scores)


def logistic_proportions(logistic: LogisticProcess, t) -> np.ndarray:
    """n x K matrix of mixing proportions pi_ik; rows sum to 1."""
    return np.exp(_log_proportions(logistic.w, design_matrix(t, logistic.q)))


def _log_joint(params: RhlpParams, signal: Signal) -> np.ndarray:
    """log [pi_ik * N(x_i; beta_k^T r_i, sigma2_k)], an (n, K) matrix."""
    means = design_matrix(signal.t, params.p) @ params.betas.T  # (n, K)
    logdens = gaussian_log_density(signal.x[:, None], means, params.sigma2s[None, :])
    return _log_proportions(params.logistic.w, design_matrix(signal.t, params.q)) + logdens


def _posterior(params: RhlpParams, signal: Signal) -> tuple[np.ndarray, float]:
    """Responsibilities tau_ik and the observed-data log-likelihood, from one
    log-joint evaluation."""
    lj = _log_joint(params, signal)
    per_sample = _logsumexp_rows(lj)
    return np.exp(lj - per_sample), float(per_sample.sum())


def mixture_log_likelihood(params: RhlpParams, signal: Signal) -> float:
    """Observed-data log-likelihood: per-sample log-sum-exp over components."""
    return float(np.sum(_logsumexp_rows(_log_joint(params, signal))))


def e_step(params: RhlpParams, signal: Signal) -> np.ndarray:
    """Posterior responsibilities tau_ik, row-normalized in log space."""
    return _posterior(params, signal)[0]


def m_step_regression(
    tau: np.ndarray,
    signal: Signal,
    p: int,
    variance_floor: float = VARIANCE_FLOOR,
    iteration: int = -1,
) -> tuple[GaussianComponent, ...]:
    """Component updates: beta_k by tau-weighted least squares, sigma2_k as
    the tau-weighted mean squared residual under the new beta_k (floored)."""
    T = design_matrix(signal.t, p)
    comps = []
    for k in range(tau.shape[1]):
        wk = tau[:, k]
        mass = wk.sum()
        if mass < _STARVATION_TOL:
            raise EmptyComponentError(k + 1, iteration)
        beta = weighted_least_squares(T, signal.x, wk)
        sse = float(wk @ (signal.x - T @ beta) ** 2)
        comps.append(GaussianComponent(beta, max(sse / mass, variance_floor)))
    return tuple(comps)


# --- IRLS (exact-Hessian Newton) for the logistic coefficients -------------
#
# The free parameters are the first K-1 coefficient vectors, stacked into one
# vector of length (K-1)(q+1); the K-th vector stays zero.


def _stack(w: np.ndarray) -> np.ndarray:
    return w[:-1].ravel()


def _unstack(flat: np.ndarray, K: int, q: int) -> np.ndarray:
    w = np.zeros((K, q + 1))
    w[:-1] = flat.reshape(K - 1, q + 1)
    return w


def _gradient_v(pi: np.ndarray, tau: np.ndarray, V: np.ndarray) -> np.ndarray:
    return ((tau - pi)[:, :-1].T @ V).ravel()


def _outer_rows(V: np.ndarray) -> np.ndarray:
    """Row-wise outer products v_i v_i^T, an (n, q+1, q+1) array."""
    return V[:, :, None] * V[:, None, :]


def _hessian_v(pi: np.ndarray, VV: np.ndarray) -> np.ndarray:
    """Exact Hessian from the proportions and _outer_rows(V): all (K-1)^2
    blocks come out of one product of the per-sample block weights
    pi_ik (delta_kl - pi_il) with the outer products."""
    n, m, q1 = pi.shape[0], pi.shape[1] - 1, VV.shape[1]
    head = pi[:, :-1]
    coef = -head[:, :, None] * head[:, None, :]
    coef[:, np.arange(m), np.arange(m)] += head
    blocks = (coef.reshape(n, m * m).T @ VV.reshape(n, q1 * q1)).reshape(m, m, q1, q1)
    return -blocks.transpose(0, 2, 1, 3).reshape(m * q1, m * q1)


def irls_objective_q1(w: np.ndarray, tau: np.ndarray, t: np.ndarray) -> float:
    """Q1(w) = sum_ik tau_ik log pi_ik(w); always <= 0."""
    V = design_matrix(np.asarray(t, dtype=float), w.shape[1] - 1)
    return float(np.sum(tau * _log_proportions(w, V)))


def irls_gradient(w: np.ndarray, tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stacked gradient of Q1; block k is sum_i (tau_ik - pi_ik) v_i."""
    t = np.asarray(t, dtype=float)
    V = design_matrix(t, w.shape[1] - 1)
    pi = np.exp(_log_proportions(w, V))
    return _gradient_v(pi, tau, V)


def irls_hessian(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact Hessian of Q1: block (k, l) is -sum_i pi_ik (delta_kl - pi_il)
    v_i v_i^T. Symmetric negative semi-definite."""
    t = np.asarray(t, dtype=float)
    V = design_matrix(t, w.shape[1] - 1)
    pi = np.exp(_log_proportions(w, V))
    return _hessian_v(pi, _outer_rows(V))


def irls_solve(
    w_init: np.ndarray,
    tau: np.ndarray,
    t: np.ndarray,
    delta: float = 1e-6,
    max_iter: int = 50,
    max_halvings: int = 30,
) -> np.ndarray:
    """Maximize Q1 by Newton steps with the exact Hessian. A full step that
    decreases Q1 is halved (up to max_halvings); a singular Hessian is
    ridge-damped instead of aborting. Q1 never decreases across accepted
    iterations."""
    t = np.asarray(t, dtype=float)
    K, q1 = w_init.shape
    if K == 1:
        return w_init.copy()
    V = design_matrix(t, q1 - 1)
    VV = _outer_rows(V)
    w = w_init.copy()
    logpi = _log_proportions(w, V)
    q_old = float(np.sum(tau * logpi))
    for _ in range(max_iter):
        pi = np.exp(logpi)
        g = _gradient_v(pi, tau, V)
        H = _hessian_v(pi, VV)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            lam = 1e-6 * max(1.0, abs(np.trace(H)) / H.shape[0])
            step = np.linalg.solve(H - lam * np.eye(H.shape[0]), g)
        flat = _stack(w)
        alpha = 1.0
        w_new = w
        q_new = q_old
        # a step from a near-singular Hessian can overflow; the non-finite Q1
        # it gives sends it to halving, so numpy's warning would be noise
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_halvings + 1):
                cand = _unstack(flat - alpha * step, K, q1 - 1)
                logpi_cand = _log_proportions(cand, V)
                q_cand = float(np.sum(tau * logpi_cand))
                if np.isfinite(q_cand) and q_cand >= q_old:
                    w_new, q_new, logpi = cand, q_cand, logpi_cand
                    break
                alpha *= 0.5
        if q_new - q_old <= delta:
            return w_new
        w, q_old = w_new, q_new
    return w


# --- EM driver --------------------------------------------------------------


def _uniform_segment_init(
    signal: Signal, K: int, p: int, q: int, cuts: np.ndarray | None = None
) -> RhlpParams:
    """Paper-style initialization: zero logistic coefficients, unit variances,
    and per-segment OLS coefficients on a uniform (or supplied) partition."""
    if cuts is None:
        cuts = uniform_partition(signal.n, K).gamma
    comps = tuple(
        GaussianComponent(segment_cost(signal, a, b, p, min_segment_length=1)[1].beta, 1.0)
        for a, b in zip(cuts[:-1], cuts[1:])
    )
    return RhlpParams(LogisticProcess(np.zeros((K, q + 1))), comps)


def _perturbed_cuts(rng: np.random.Generator, n: int, K: int) -> np.ndarray:
    """Uniform cut indices jittered by up to a quarter segment each way."""
    base = uniform_partition(n, K).gamma
    jitter = max(1, n // (4 * K))
    for _ in range(1000):
        cuts = base.copy()
        cuts[1:K] = base[1:K] + rng.integers(-jitter, jitter + 1, size=K - 1)
        if np.all(np.diff(cuts) >= 1):
            return cuts
    return base


# SQUAREM step-length cap: it starts at _STEP_MAX0 and is multiplied by
# _STEP_GROWTH each time an accepted step hits it, as step.max and mstep do
# in the SQUAREM package.
_STEP_MAX0 = 4.0
_STEP_GROWTH = 4.0
# Numerical failures that reject a speculative (extrapolated) point instead of
# aborting the fit.
_SPECULATIVE_ERRORS = (EmptyComponentError, RankDeficientError, np.linalg.LinAlgError)


def _pack(params: RhlpParams) -> np.ndarray:
    """Free parameters as one vector: logistic coefficients, betas, log sigma2."""
    return np.concatenate(
        [_stack(params.logistic.w), params.betas.ravel(), np.log(params.sigma2s)]
    )


def _unpack(
    theta: np.ndarray, K: int, p: int, q: int, variance_floor: float
) -> RhlpParams:
    """Inverse of _pack, with the variance floor applied."""
    nw, nb = (K - 1) * (q + 1), K * (p + 1)
    betas = theta[nw:nw + nb].reshape(K, p + 1)
    sigma2s = np.maximum(np.exp(theta[nw + nb:]), variance_floor)
    comps = tuple(GaussianComponent(b, s) for b, s in zip(betas, sigma2s))
    return RhlpParams(LogisticProcess(_unstack(theta[:nw], K, q)), comps)


def _squarem_point(
    prev: RhlpParams, point: RhlpParams, nxt: RhlpParams, step_max: float
) -> tuple[np.ndarray, float]:
    """The SQUAREM point of em_fit from theta0 = prev, theta1 = point and
    theta2 = nxt, packed, with its step length s (s = 1 gives theta2)."""
    theta0 = _pack(prev)
    r = _pack(point) - theta0
    v = _pack(nxt) - theta0 - 2.0 * r
    norm_v = np.linalg.norm(v)
    s = step_max if norm_v == 0 else min(max(np.linalg.norm(r) / norm_v, 1.0), step_max)
    return theta0 + 2.0 * s * r + s * s * v, s


def _em_once(
    signal: Signal,
    init: RhlpParams,
    epsilon: float,
    delta: float,
    max_iter: int,
    max_irls_iter: int,
    variance_floor: float,
) -> tuple[RhlpParams, list[float], bool, int]:
    """One EM run from init with the SQUAREM step described in em_fit.
    Numerical errors at an extrapolated point reject it; on plain EM steps
    they propagate."""
    K, p, q = init.K, init.p, init.q

    def m_step(params, tau, iteration):
        comps = m_step_regression(tau, signal, p, variance_floor, iteration=iteration)
        w = irls_solve(params.logistic.w, tau, signal.t, delta, max_irls_iter)
        return RhlpParams(LogisticProcess(w), comps)

    def speculate(theta, ll_floor, iteration):
        """(params, log-likelihood, EM step) at theta, or None if rejected."""
        if not np.all(np.isfinite(theta)):
            return None
        cand = _unpack(theta, K, p, q, variance_floor)
        tau, ll = _posterior(cand, signal)
        if not (np.isfinite(ll) and ll >= ll_floor):
            return None
        try:
            return cand, ll, m_step(cand, tau, iteration)
        except _SPECULATIVE_ERRORS:
            return None

    tau, ll = _posterior(init, signal)
    trace = [ll]
    # point is the last trace entry; nxt = F(point) is not evaluated yet
    point, nxt = init, m_step(init, tau, 0)
    step_max = _STEP_MAX0
    evals = 0
    converged = False
    while evals < max_iter:
        tau, ll = _posterior(nxt, signal)
        evals += 1
        trace.append(ll)
        prev, point = point, nxt
        if ll - trace[-2] < epsilon:
            converged = True
            break
        if evals == max_iter:
            break
        nxt = m_step(point, tau, len(trace) - 1)
        evals += 1
        # a wild extrapolation is rejected, so its overflow warnings are noise
        with np.errstate(all="ignore"):
            theta, s = _squarem_point(prev, point, nxt, step_max)
            accepted = speculate(theta, ll, len(trace))
        if accepted is not None:
            if s == step_max:
                step_max *= _STEP_GROWTH
            point, ll, nxt = accepted
            trace.append(ll)
    return point, trace, converged, len(trace) - 1


def em_fit(
    signal: Signal,
    K: int,
    p: int,
    q: int,
    epsilon: float = 1e-6,
    delta: float = 1e-6,
    max_iter: int = 1000,
    max_irls_iter: int = 50,
    init_strategy: str = "uniform",
    n_restarts: int = 0,
    seed: int | None = None,
    variance_floor: float = VARIANCE_FLOOR,
) -> FitReport:
    """Fit the model by EM until the log-likelihood increment of a plain EM
    step drops below epsilon. init_strategy "uniform" follows the standard
    recipe (uniform segments, zero logistic coefficients, unit variances);
    "random" adds n_restarts extra runs from jittered uniform cuts and keeps
    the best final likelihood. Deterministic given the seed.

    EM is accelerated by SQUAREM (Varadhan & Roland 2008, Scand. J. Stat.):
    after two EM steps theta0 -> theta1 -> theta2 the parameters (free
    logistic coefficients, betas, log variances) are extrapolated to
    theta0 + 2s r + s^2 v with r = theta1 - theta0, v = theta2 - 2 theta1 +
    theta0 and s = |r|/|v| in [1, cap]; the cap starts at 4 and grows 4x
    each time an accepted step reaches it. The extrapolated point is kept
    only if its log-likelihood is finite and at least that of theta1, else
    the fit continues from theta2, so log_likelihood_trace never decreases.
    max_iter bounds the log-likelihood evaluations after the initial one,
    rejected extrapolations included; em_iterations counts the accepted
    steps, len(log_likelihood_trace) - 1."""
    if K < 1 or p < 0 or q < 0:
        raise ValueError("require K >= 1, p >= 0, q >= 0")
    if init_strategy not in ("uniform", "random"):
        raise ValueError(f"unknown init strategy {init_strategy!r}")
    start = time.perf_counter()
    inits = [_uniform_segment_init(signal, K, p, q)]
    if init_strategy == "random":
        rng = np.random.default_rng(seed)
        for _ in range(n_restarts):
            inits.append(
                _uniform_segment_init(
                    signal, K, p, q, _perturbed_cuts(rng, signal.n, K)
                )
            )
    best = None
    for init in inits:
        result = _em_once(
            signal, init, epsilon, delta, max_iter, max_irls_iter, variance_floor
        )
        if best is None or result[1][-1] > best[1][-1]:
            best = result
    params, trace, converged, iters = best
    runtime = time.perf_counter() - start

    pi = logistic_proportions(params.logistic, signal.t)
    labels = _argmax_labels(pi)
    denoised = denoise(params, signal.t)
    return FitReport(
        params=params,
        log_likelihood_trace=tuple(trace),
        bic=bic(params, trace[-1], signal.n),
        labels=labels,
        denoised=denoised,
        runtime_seconds=runtime,
        converged=converged,
        em_iterations=iters,
        seed=seed,
    )


def _argmax_labels(pi: np.ndarray) -> np.ndarray:
    # np.argmax takes the first maximum, i.e. ties go to the smallest k
    return np.argmax(pi, axis=1) + 1


def denoise(params: RhlpParams, t) -> np.ndarray:
    """Model mean curve: x_hat_i = sum_k pi_ik beta_k^T r_i."""
    pi = logistic_proportions(params.logistic, t)
    means = design_matrix(t, params.p) @ params.betas.T
    return np.sum(pi * means, axis=1)


def hard_labels(params: RhlpParams, t) -> np.ndarray:
    """Per-sample argmax of the proportions, labels in 1..K."""
    return _argmax_labels(logistic_proportions(params.logistic, t))


def n_free_parameters(K: int, p: int, q: int) -> int:
    """K(p+1) regression coefficients + K variances + (K-1)(q+1) logistic
    coefficients, which simplifies to K(p+q+3) - (q+1)."""
    return K * (p + q + 3) - (q + 1)


def bic(params: RhlpParams, log_likelihood: float, n: int) -> float:
    """Penalized log-likelihood L - nu log(n)/2."""
    nu = n_free_parameters(params.K, params.p, params.q)
    return log_likelihood - nu * np.log(n) / 2.0


@dataclass(frozen=True)
class SelectionEntry:
    """One cell of a model-selection sweep."""

    K: int
    p: int
    q: int
    bic: float | None
    log_likelihood: float | None
    converged: bool | None
    error: str | None = None


def select_model(
    signal: Signal,
    K_range,
    p_range,
    q: int,
    **fit_kwargs,
) -> tuple[FitReport, list[SelectionEntry]]:
    """Fit every (K, p) combination at fixed q and pick the maximum-BIC fit.
    Numerical fit failures (package errors and LinAlgError) become table
    entries instead of aborting the sweep; any other exception propagates.
    Ties break toward smaller (K, then p)."""
    table: list[SelectionEntry] = []
    best: FitReport | None = None
    best_key = None
    for K in K_range:
        for p in p_range:
            try:
                report = em_fit(signal, K, p, q, **fit_kwargs)
            except (RhlpSegError, np.linalg.LinAlgError) as exc:  # record and continue
                table.append(SelectionEntry(K, p, q, None, None, None, str(exc)))
                continue
            table.append(
                SelectionEntry(K, p, q, report.bic, report.log_likelihood,
                               report.converged)
            )
            key = (-report.bic, K, p)
            if best_key is None or key < best_key:
                best, best_key = report, key
    if best is None:
        raise RuntimeError(
            "every candidate fit failed: " + "; ".join(e.error or "" for e in table)
        )
    return best, table
