"""Regression with a hidden logistic process.

K polynomial components whose mixing proportions vary over time through a
softmax of a degree-q polynomial in t. Fitting alternates an E step
(posterior responsibilities), weighted least squares for the component
parameters, and an exact-Hessian Newton (multi-class IRLS) solve for the
logistic coefficients. Also provides denoising, hard labeling, BIC, and a
BIC-driven model-selection sweep.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import (
    GaussianComponent,
    Signal,
    TimeMap,
    ValueMap,
    design_matrix,
    gaussian_log_density,
    to_fit_time,
    weighted_least_squares,
)
from .errors import EmptyComponentError, NumericalError, RankDeficientError, RhlpSegError
from .piecewise import _ols_cost, uniform_partition

_STARVATION_TOL = 1e-10
# IRLS limits of every M-step: Newton steps, halvings per Newton step, and
# the Q1 increment below which the solve stops.
_IRLS_MAX_ITER = 50
_IRLS_MAX_HALVINGS = 30
_IRLS_TOL = 1e-6


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
        """Model mean curve at times t, in the time the parameters were fitted
        in (a FitReport's fit time u); see denoise."""
        return denoise(self, t)


@dataclass(frozen=True)
class FitReport:
    """Everything produced by one EM fit. params are in fit time u =
    time_map(t) and in the units of x; labels and denoised are at the
    signal's samples. Every FitReport is an RHLP fit, so its model tag is a
    class constant; seed is em_fit's."""

    model: ClassVar[str] = "rhlp"
    params: RhlpParams
    log_likelihood_trace: tuple[float, ...]
    bic: float
    labels: np.ndarray
    denoised: np.ndarray
    converged: bool
    time_map: TimeMap
    seed: int | None = None

    @property
    def log_likelihood(self) -> float:
        return self.log_likelihood_trace[-1]

    @property
    def em_iterations(self) -> int:
        """Accepted EM steps, plain and extrapolated."""
        return len(self.log_likelihood_trace) - 1

    def expectation(self, t) -> np.ndarray:
        """Fitted mean curve at the signal times t; see denoise."""
        return denoise(self.params, self.time_map(t))


def _logsumexp_rows(scores: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the K rows of a (K, n) array, with max shift: one
    value per sample, shape (n,). Each reduction adds K contiguous rows of
    length n; reducing n rows of length K instead runs numpy's inner loop n
    times on 2-5 elements, which made this the costliest call in EM.
    scipy's general implementation is slower still."""
    shift = scores.max(axis=0)
    return shift + np.log(np.exp(scores - shift).sum(axis=0))


def _log_proportions(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """log pi_ki, a (K, n) array, against the logistic design matrix
    V = design_matrix(t, q), computed with max-shifted exponentials."""
    scores = w @ V.T
    return scores - _logsumexp_rows(scores)


def logistic_proportions(logistic: LogisticProcess, t) -> np.ndarray:
    """n x K matrix of mixing proportions pi_ik; rows sum to 1. It is the
    transposed view of a (K, n) array, which .T gives back."""
    return np.exp(_log_proportions(logistic.w, design_matrix(t, logistic.q))).T


def _posterior(
    logpi: np.ndarray, betas: np.ndarray, sigma2s: np.ndarray, x: np.ndarray,
    T: np.ndarray,
) -> tuple[np.ndarray, float]:
    """(K, n) responsibilities tau_ki and the observed-data log-likelihood,
    from the log-joint log [pi_ki * N(x_i; beta_k^T r_i, sigma2_k)] of the
    log-proportions logpi = _log_proportions(w, V), the (K, p+1) betas, the
    K variances and the design matrix T = design_matrix(t, p)."""
    logdens = gaussian_log_density(x, betas @ T.T, sigma2s[:, None])
    lj = logpi + logdens
    per_sample = _logsumexp_rows(lj)
    return np.exp(lj - per_sample), float(per_sample.sum())


def _params_posterior(params: RhlpParams, signal: Signal) -> tuple[np.ndarray, float]:
    """_posterior of params at the samples of signal, designs built here."""
    T, V = design_matrix(signal.t, params.p), design_matrix(signal.t, params.q)
    logpi = _log_proportions(params.logistic.w, V)
    return _posterior(logpi, params.betas, params.sigma2s, signal.x, T)


def mixture_log_likelihood(params: RhlpParams, signal: Signal) -> float:
    """Observed-data log-likelihood: per-sample log-sum-exp over components."""
    return _params_posterior(params, signal)[1]


def e_step(params: RhlpParams, signal: Signal) -> np.ndarray:
    """Posterior responsibilities tau_ik, an n x K matrix, normalized in log
    space."""
    return _params_posterior(params, signal)[0].T


def _m_step_regression(
    tau: np.ndarray, signal: Signal, T: np.ndarray, iteration: int
) -> tuple[np.ndarray, np.ndarray]:
    """m_step_regression for (K, n) responsibilities tau against the design
    matrix T = design_matrix(signal.t, p), as a (K, p+1) betas array and K
    variances: all K weighted least squares in one weighted_least_squares
    call, and the K residual variances from one (K, n) residual array. The
    values are fitted as given; em_fit gives it the fit values y of
    to_fit_time, on which an offset or a constant x costs no precision."""
    mass = tau.sum(axis=1)
    starved = mass < _STARVATION_TOL
    if np.any(starved):
        raise EmptyComponentError(int(np.argmax(starved)) + 1, iteration)
    betas = weighted_least_squares(T, signal.x, tau)
    sse = np.sum(tau * (signal.x - betas @ T.T) ** 2, axis=1)
    return betas, np.maximum(sse / mass, signal.variance_floor)


def m_step_regression(
    tau: np.ndarray,
    signal: Signal,
    p: int,
    iteration: int = -1,
) -> tuple[GaussianComponent, ...]:
    """Component updates from the n x K responsibilities: beta_k by
    tau-weighted least squares, sigma2_k as the tau-weighted mean squared
    residual under the new beta_k (floored at signal.variance_floor). Each
    column of tau is read as a contiguous row of its (K, n) transpose, so the
    result does not depend on the memory layout of tau."""
    tau = np.ascontiguousarray(tau.T)
    betas, sigma2s = _m_step_regression(tau, signal, design_matrix(signal.t, p), iteration)
    return tuple(GaussianComponent(b, float(s)) for b, s in zip(betas, sigma2s))


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
    return ((tau - pi)[:-1] @ V).ravel()


def _outer_rows(V: np.ndarray) -> np.ndarray:
    """Row-wise outer products v_i v_i^T, an (n, q+1, q+1) array."""
    return V[:, :, None] * V[:, None, :]


def _hessian_v(pi: np.ndarray, VV: np.ndarray) -> np.ndarray:
    """Exact Hessian from the (K, n) proportions and _outer_rows(V). The
    per-sample block weights pi_ki (delta_kl - pi_li) form an (m, m, n) array,
    m = K - 1, and all m^2 blocks come out of one (m^2, n) @ (n, (q+1)^2)
    product with the flattened outer products."""
    m, n, q1 = pi.shape[0] - 1, pi.shape[1], VV.shape[1]
    head = pi[:-1]
    coef = -head[:, None, :] * head[None, :, :]
    coef[np.arange(m), np.arange(m)] += head
    blocks = (coef.reshape(m * m, n) @ VV.reshape(n, q1 * q1)).reshape(m, m, q1, q1)
    return -blocks.transpose(0, 2, 1, 3).reshape(m * q1, m * q1)


def irls_objective_q1(w: np.ndarray, tau: np.ndarray, t: np.ndarray) -> float:
    """Q1(w) = sum_ik tau_ik log pi_ik(w) for n x K tau; always <= 0."""
    V = design_matrix(np.asarray(t, dtype=float), w.shape[1] - 1)
    return float(np.sum(tau.T * _log_proportions(w, V)))


def irls_gradient(w: np.ndarray, tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stacked gradient of Q1; block k is sum_i (tau_ik - pi_ik) v_i."""
    t = np.asarray(t, dtype=float)
    V = design_matrix(t, w.shape[1] - 1)
    pi = np.exp(_log_proportions(w, V))
    return _gradient_v(pi, tau.T, V)


def irls_hessian(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact Hessian of Q1: block (k, l) is -sum_i pi_ik (delta_kl - pi_il)
    v_i v_i^T. Symmetric negative semi-definite."""
    t = np.asarray(t, dtype=float)
    V = design_matrix(t, w.shape[1] - 1)
    pi = np.exp(_log_proportions(w, V))
    return _hessian_v(pi, _outer_rows(V))


def _irls_solve(
    w_init: np.ndarray, tau: np.ndarray, V: np.ndarray, VV: np.ndarray,
    logpi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """irls_solve for (K, n) responsibilities tau against the logistic design
    matrix V = design_matrix(t, q) and its row outer products VV =
    _outer_rows(V), from w_init with logpi = _log_proportions(w_init, V).
    Returns the final w and its log-proportions, the ones the line search
    evaluated when it accepted that w."""
    K, q1 = w_init.shape
    if K == 1:
        return w_init.copy(), logpi
    w = w_init.copy()
    q_old = float(np.sum(tau * logpi))
    for _ in range(_IRLS_MAX_ITER):
        pi = np.exp(logpi)
        g = _gradient_v(pi, tau, V)
        H = _hessian_v(pi, VV)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return w, logpi
        flat = _stack(w)
        alpha = 1.0
        w_new = w
        q_new = q_old
        # a step from a near-singular Hessian can overflow; the non-finite Q1
        # it gives sends it to halving, so numpy's warning would be noise
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_IRLS_MAX_HALVINGS + 1):
                cand = _unstack(flat - alpha * step, K, q1 - 1)
                logpi_cand = _log_proportions(cand, V)
                q_cand = float(np.sum(tau * logpi_cand))
                if np.isfinite(q_cand) and q_cand >= q_old:
                    w_new, q_new, logpi = cand, q_cand, logpi_cand
                    break
                alpha *= 0.5
        if q_new - q_old <= _IRLS_TOL:
            return w_new, logpi
        w, q_old = w_new, q_new
    return w, logpi


def irls_solve(w_init: np.ndarray, tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Maximize Q1 for n x K responsibilities tau by at most _IRLS_MAX_ITER
    Newton steps with the exact Hessian, until a step raises Q1 by at most
    _IRLS_TOL. A full step that decreases Q1 is halved (up to
    _IRLS_MAX_HALVINGS times). An exactly singular Hessian ends the solve at
    the current w: on separated responsibilities the maximum lies at |w| ->
    infinity, where the proportions are already hard. Q1 never decreases
    across accepted iterations."""
    V = design_matrix(np.asarray(t, dtype=float), w_init.shape[1] - 1)
    # tau is read as (K, n), like the proportions
    tau = np.ascontiguousarray(tau.T)
    logpi = _log_proportions(w_init, V)
    return _irls_solve(w_init, tau, V, _outer_rows(V), logpi)[0]


# --- EM driver --------------------------------------------------------------


def _uniform_segment_init(
    signal: Signal, T: np.ndarray, K: int, q: int, sigma2: float,
    cuts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paper-style initialization as (w, betas, sigma2s): zero logistic
    coefficients, every variance sigma2, and per-segment OLS coefficients on
    a uniform (or supplied) partition, each fitted on its rows of the design
    matrix T = design_matrix(signal.t, p)."""
    if cuts is None:
        cuts = uniform_partition(signal.n, K).gamma
    betas = np.stack(
        [_ols_cost(T[a:b], signal.x[a:b], signal)[1].beta for a, b in zip(cuts[:-1], cuts[1:])]
    )
    return np.zeros((K, q + 1)), betas, np.full(K, sigma2)


def _perturbed_cuts(rng: np.random.Generator, n: int, K: int) -> np.ndarray:
    """Uniform cut indices jittered by up to a quarter segment each way, and
    by at most (g - 1) // 2 for the smallest uniform gap g: the windows of
    neighbouring cuts cannot overlap, so every draw is a partition."""
    base = uniform_partition(n, K).gamma
    jitter = min(max(1, n // (4 * K)), (int(np.diff(base).min()) - 1) // 2)
    cuts = base.copy()
    cuts[1:K] = base[1:K] + rng.integers(-jitter, jitter + 1, size=K - 1)
    return cuts


# SQUAREM step-length cap: it starts at _STEP_MAX0 and is multiplied by
# _STEP_GROWTH each time an accepted step hits it, as step.max and mstep do
# in the SQUAREM package.
_STEP_MAX0 = 4.0
_STEP_GROWTH = 4.0
# Numerical failures that reject a speculative (extrapolated) point instead of
# aborting the fit.
_SPECULATIVE_ERRORS = (EmptyComponentError, RankDeficientError)
# Failures that drop one EM run of em_fit, and one candidate of select_model.
_FIT_ERRORS = (RhlpSegError, np.linalg.LinAlgError)


def _pack(w: np.ndarray, betas: np.ndarray, sigma2s: np.ndarray) -> np.ndarray:
    """Free parameters as one vector: logistic coefficients, betas, log sigma2."""
    return np.concatenate([_stack(w), betas.ravel(), np.log(sigma2s)])


def _unpack(
    theta: np.ndarray, K: int, p: int, q: int, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of _pack as (w, betas, sigma2s), with the variances floored at
    floor."""
    nw, nb = (K - 1) * (q + 1), K * (p + 1)
    betas = theta[nw:nw + nb].reshape(K, p + 1)
    sigma2s = np.maximum(np.exp(theta[nw + nb:]), floor)
    return _unstack(theta[:nw], K, q), betas, sigma2s


@dataclass(eq=False)
class _Iterate:
    """One EM iterate as arrays: logistic coefficients w, (K, p+1) betas, K
    variances, and logpi = _log_proportions(w, V), which the E step and the
    IRLS solve of the next M step share."""

    w: np.ndarray
    betas: np.ndarray
    sigma2s: np.ndarray
    logpi: np.ndarray

    @cached_property
    def theta(self) -> np.ndarray:
        """_pack of the iterate, packed on first use: SQUAREM reads each
        iterate in up to three consecutive steps."""
        return _pack(self.w, self.betas, self.sigma2s)

    def params(self, value_map: ValueMap) -> RhlpParams:
        """The iterate, fitted on the fit values of value_map, as validated
        parameters in the units of x, built once per fit."""
        betas, sigma2s = value_map.beta(self.betas), value_map.variance(self.sigma2s)
        comps = tuple(GaussianComponent(b, float(s)) for b, s in zip(betas, sigma2s))
        return RhlpParams(LogisticProcess(self.w), comps)


def _squarem_point(
    theta0: np.ndarray, theta1: np.ndarray, theta2: np.ndarray, step_max: float
) -> tuple[np.ndarray, float]:
    """The SQUAREM point of em_fit from the packed iterates theta0, theta1 and
    theta2, with its step length s (s = 1 gives theta2)."""
    r = theta1 - theta0
    v = theta2 - theta0 - 2.0 * r
    norm_v = np.linalg.norm(v)
    s = step_max if norm_v == 0 else min(max(np.linalg.norm(r) / norm_v, 1.0), step_max)
    return theta0 + 2.0 * s * r + s * s * v, s


def _em_once(
    signal: Signal,
    init: tuple[np.ndarray, np.ndarray, np.ndarray],
    epsilon: float,
    max_iter: int,
    designs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[_Iterate, list[float], bool]:
    """One EM run from init = (w, betas, sigma2s) with the SQUAREM step
    described in em_fit, on the fit's designs (T, V, VV) = (design_matrix(t,
    p), design_matrix(t, q), _outer_rows(V)). Returns the final iterate, the
    log-likelihood trace and whether the run converged. Log-proportions are
    computed here only for the start and for each extrapolated point; every
    other iterate takes them from its IRLS solve. Numerical errors at an
    extrapolated point reject it; on plain EM steps they propagate."""
    T, V, VV = designs
    K, p, q = len(init[2]), T.shape[1] - 1, V.shape[1] - 1

    def start(w, betas, sigma2s):
        return _Iterate(w, betas, sigma2s, _log_proportions(w, V))

    def posterior(it):
        return _posterior(it.logpi, it.betas, it.sigma2s, signal.x, T)

    def m_step(it, tau, iteration):
        betas, sigma2s = _m_step_regression(tau, signal, T, iteration)
        w, logpi = _irls_solve(it.w, tau, V, VV, it.logpi)
        return _Iterate(w, betas, sigma2s, logpi)

    def speculate(theta, ll_floor, iteration):
        """(iterate, log-likelihood, EM step) at theta, or None if rejected."""
        if not np.all(np.isfinite(theta)):
            return None
        cand = start(*_unpack(theta, K, p, q, signal.variance_floor))
        tau, ll = posterior(cand)
        if not (np.isfinite(ll) and ll >= ll_floor):
            return None
        try:
            return cand, ll, m_step(cand, tau, iteration)
        except _SPECULATIVE_ERRORS:
            return None

    point = start(*init)
    tau, ll = posterior(point)
    trace = [ll]
    # point is the last trace entry; nxt = F(point) is not evaluated yet
    nxt = m_step(point, tau, 0)
    step_max = _STEP_MAX0
    evals = 0
    converged = False
    while evals < max_iter:
        tau, ll = posterior(nxt)
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
            theta, s = _squarem_point(prev.theta, point.theta, nxt.theta, step_max)
            accepted = speculate(theta, ll, len(trace))
        if accepted is not None:
            if s == step_max:
                step_max *= _STEP_GROWTH
            point, ll, nxt = accepted
            trace.append(ll)
    return point, trace, converged


def em_fit(
    signal: Signal,
    K: int,
    p: int,
    q: int,
    epsilon: float = 1e-6,
    max_iter: int = 1000,
    n_restarts: int = 0,
    seed: int | None = None,
) -> FitReport:
    """Fit the model by EM until the log-likelihood increment of a plain EM
    step drops below epsilon. The first run starts from the standard recipe
    (uniform segments, zero logistic coefficients, unit variances);
    n_restarts extra runs start from jittered uniform cuts, and the best
    final likelihood wins. A run that fails with a package error or
    LinAlgError is dropped; the first run's error is raised only when every
    run fails. Deterministic given the seed.

    The fit runs on the signal that to_fit_time maps to fit time u =
    time_map(t), which the report keeps, and to fit values y = value_map(x).
    The report's parameters are polynomials in u in the units of x: the
    betas and variances are mapped back from y, the log-likelihood trace is
    shifted by value_map.log_jacobian(n), and its last entry, the BIC and
    denoised come from the mapped-back parameters on x.

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
    steps, len(log_likelihood_trace) - 1. ValueError unless n_restarts >= 0
    and max_iter >= 1.

    The design matrices of the fit-time signal are built once and shared by
    every E step, M step and IRLS solve of every run. Each iterate carries
    its log-proportions from the IRLS solve that made it to the next E step
    and IRLS solve, and the final one gives labels and denoised."""
    if K < 1 or p < 0 or q < 0:
        raise ValueError("require K >= 1, p >= 0, q >= 0")
    if n_restarts < 0 or max_iter < 1:
        raise ValueError(
            f"require n_restarts >= 0 and max_iter >= 1, got n_restarts={n_restarts}, "
            f"max_iter={max_iter}"
        )
    x = signal.x
    signal, time_map, value_map = to_fit_time(signal)
    T, V = design_matrix(signal.t, p), design_matrix(signal.t, q)
    designs = (T, V, _outer_rows(V))
    rng = np.random.default_rng(seed)
    cuts = [None] + [_perturbed_cuts(rng, signal.n, K) for _ in range(n_restarts)]
    sigma2 = np.ldexp(1.0, -2 * value_map.e)  # 1 in the units of x
    best = error = None
    for run_cuts in cuts:
        try:
            init = _uniform_segment_init(signal, T, K, q, sigma2, run_cuts)
            result = _em_once(signal, init, epsilon, max_iter, designs)
        except _FIT_ERRORS as exc:
            error = error or exc
            continue
        if best is None or result[1][-1] > best[1][-1]:
            best = result
    if best is None:
        raise error
    final, trace, converged = best
    params = final.params(value_map)
    ll = _posterior(final.logpi, params.betas, params.sigma2s, x, T)[1]
    shift = value_map.log_jacobian(signal.n)
    pi = np.exp(final.logpi)
    return FitReport(
        params=params,
        log_likelihood_trace=tuple(v - shift for v in trace[:-1]) + (ll,),
        bic=bic(params, ll, signal.n),
        labels=_hard_labels(pi),
        denoised=_denoise(pi, params.betas, T),
        converged=converged,
        time_map=time_map,
        seed=seed,
    )


def _denoise(pi: np.ndarray, betas: np.ndarray, T: np.ndarray) -> np.ndarray:
    """denoise from the (K, n) proportions pi and the design matrix T =
    design_matrix(t, p)."""
    means = betas @ T.T
    return np.sum(pi * means, axis=0)


def _hard_labels(pi: np.ndarray) -> np.ndarray:
    """hard_labels from the (K, n) proportions pi."""
    # np.argmax takes the first maximum, i.e. ties go to the smallest k
    return np.argmax(pi, axis=0) + 1


def denoise(params: RhlpParams, t) -> np.ndarray:
    """Model mean curve: x_hat_i = sum_k pi_ik beta_k^T r_i."""
    pi = logistic_proportions(params.logistic, t).T
    return _denoise(pi, params.betas, design_matrix(t, params.p))


def hard_labels(params: RhlpParams, t) -> np.ndarray:
    """Per-sample argmax of the proportions, labels in 1..K."""
    return _hard_labels(logistic_proportions(params.logistic, t).T)


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
    NumericalError when every candidate fails, and ValueError before any
    fit when K_range or p_range is empty. Ties break toward smaller (K, then
    p)."""
    K_range, p_range = list(K_range), list(p_range)
    if not K_range or not p_range:
        raise ValueError(f"empty model range: K_range={K_range}, p_range={p_range}")
    table: list[SelectionEntry] = []
    best: FitReport | None = None
    best_key = None
    for K in K_range:
        for p in p_range:
            try:
                report = em_fit(signal, K, p, q, **fit_kwargs)
            except _FIT_ERRORS as exc:  # record and continue
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
        raise NumericalError(
            "every candidate fit failed: " + "; ".join(e.error or "" for e in table)
        )
    return best, table
