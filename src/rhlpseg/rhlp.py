"""Regression with a hidden logistic process.

K polynomial components whose mixing proportions vary over time through a
softmax of a degree-q polynomial in t. Fitting alternates an E step
(posterior responsibilities), weighted least squares for the component
parameters, and an exact-Hessian Newton (multi-class IRLS) solve for the
logistic coefficients. Also provides denoising, hard labeling, BIC, and a
BIC-driven model-selection sweep.
"""
from __future__ import annotations

import math
import os
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (
    FitProblem,
    GaussianComponent,
    Signal,
    TimeMap,
    _gaussian_log_density,
    design_matrix,
    weighted_least_squares,
)
from .errors import EmptyComponentError, NumericalError, RankDeficientError
from .piecewise import _check_orders, segment_cost, uniform_partition

_STARVATION_TOL = 1e-10
# IRLS limits of every M-step: Newton steps, and the Q1 increment below
# which the solve stops and a line search gives up.
_IRLS_MAX_ITER = 50
_IRLS_TOL = 1e-6
# EM limits of every run: the plain-step log-likelihood increment below which
# it stops, and the log-likelihood evaluations after the initial one.
_EM_TOL = 1e-6
_EM_MAX_ITER = 1000


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
        if len({len(c.beta) for c in self.components}) != 1:
            raise ValueError("every component must have the same polynomial degree")

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
    log-proportions logpi = _log_proportions(w, V), the (K, p+1) betas
    against the design matrix T = design_matrix(t, p), and the K variances."""
    lj = logpi + _gaussian_log_density(x, betas @ T.T, sigma2s[:, None])
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
    """m_step_regression for (K, n) responsibilities tau against a design
    matrix T = design_matrix(t, p) of the samples' times, as a (K, p+1)
    betas array and K variances: all K weighted least squares in one
    weighted_least_squares call, and the K residual variances from one
    (K, n) residual array. Only signal.x and signal.variance_floor are
    read: its callers give it a FitProblem's signal, whose fit values y lose
    no precision to an offset or a constant x."""
    mass = tau.sum(axis=1)
    if mass.min() < _STARVATION_TOL:
        raise EmptyComponentError(int(np.argmax(mass < _STARVATION_TOL)) + 1, iteration)
    betas = weighted_least_squares(T, signal.x, tau)
    sse = (tau * (signal.x - betas @ T.T) ** 2).sum(axis=1)
    return betas, np.maximum(sse / mass, signal.variance_floor)


def m_step_regression(
    tau: np.ndarray, signal: Signal, p: int
) -> tuple[GaussianComponent, ...]:
    """Component updates from the n x K responsibilities: beta_k by
    tau-weighted least squares, sigma2_k as the tau-weighted mean squared
    residual under the new beta_k (floored at the variance floor). Each
    column of tau is read as a contiguous row of its (K, n) transpose, so the
    result does not depend on the memory layout of tau. Like em_fit, it fits
    the fit values y of the signal's FitProblem and maps the components back
    to the units of x; the times stay as given."""
    tau = np.ascontiguousarray(tau.T)
    problem = FitProblem.of(signal)
    betas, sigma2s = _m_step_regression(tau, problem.signal, design_matrix(signal.t, p), -1)
    return problem.components_to_x(betas, sigma2s)


# --- IRLS (exact-Hessian Newton) for the logistic coefficients -------------
#
# The free parameters are the first K-1 coefficient vectors, stacked into one
# vector of length (K-1)(q+1); the K-th vector stays zero.


def _gradient_v(pi: np.ndarray, tau_free: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Stacked gradient from the (K, n) proportions and the first K-1 rows of
    the (K, n) responsibilities."""
    return ((tau_free - pi[:-1]) @ V).ravel()


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
    # the (k, k) rows: every (m + 1)-th of coef's m^2 rows of length n
    coef.reshape(m * m, n)[::m + 1] += head
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
    return _gradient_v(pi, tau.T[:-1], V)


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
    evaluated when it accepted that w. A line search tries at most
    ceil(log2(gain / _IRLS_TOL)) step lengths for a finite gain, about 1 045
    at most, and one where the gain is negative or not finite."""
    K, q1 = w_init.shape
    w = w_init.copy()
    tau_free = tau[:-1]
    q_old = float((tau * logpi).sum())
    # a step from a near-singular Hessian can overflow; the non-finite gain
    # or Q1 it gives rejects it, so numpy's warning would be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_IRLS_MAX_ITER):
            pi = np.exp(logpi)
            g = _gradient_v(pi, tau_free, V)
            try:
                step = np.linalg.solve(_hessian_v(pi, VV), g)
            except np.linalg.LinAlgError:
                return w, logpi
            # Q1 is concave, so the trial w - alpha step raises it by at most
            # alpha gain, gain = -g.step = -g'H^-1 g >= 0 (Newton decrement)
            gain, step = -float(g @ step), step.reshape(K - 1, q1)
            alpha, w_new, q_new = 1.0, w, q_old
            while True:
                cand = np.zeros((K, q1))
                np.subtract(w[:-1], alpha * step, out=cand[:-1])
                logpi_cand = _log_proportions(cand, V)
                q_cand = float((tau * logpi_cand).sum())
                if math.isfinite(q_cand) and q_cand >= q_old:
                    w_new, q_new, logpi = cand, q_cand, logpi_cand
                    break
                alpha *= 0.5
                if not _IRLS_TOL < alpha * gain < math.inf:
                    break
            if q_new - q_old <= _IRLS_TOL:
                return w_new, logpi
            w, q_old = w_new, q_new
    return w, logpi


def irls_solve(w_init: np.ndarray, tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Maximize Q1 for n x K responsibilities tau by at most _IRLS_MAX_ITER
    Newton steps with the exact Hessian, until a step raises Q1 by at most
    _IRLS_TOL. Each Newton step d = -H^-1 g first tries the full step and
    halves a step that does not raise Q1 as long as the halved step could
    still gain more than _IRLS_TOL: Q1 is concave, so w + alpha d raises it
    by at most alpha g'd, the Newton decrement times alpha. A line search
    that ends without raising Q1 ends the solve at the current w, and so
    does an exactly singular Hessian: on separated responsibilities the
    maximum lies at |w| -> infinity, where the proportions are already hard.
    Q1 never decreases across accepted iterations."""
    V = design_matrix(np.asarray(t, dtype=float), w_init.shape[1] - 1)
    # tau is read as (K, n), like the proportions
    tau = np.ascontiguousarray(tau.T)
    logpi = _log_proportions(w_init, V)
    return _irls_solve(w_init, tau, V, _outer_rows(V), logpi)[0]


# --- EM driver --------------------------------------------------------------


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


def _pack(w: np.ndarray, betas: np.ndarray, sigma2s: np.ndarray) -> np.ndarray:
    """Free parameters as one vector: the first K-1 logistic coefficient
    vectors, betas, log sigma2."""
    return np.concatenate([w[:-1].ravel(), betas.ravel(), np.log(sigma2s)])


def _unpack(
    theta: np.ndarray, K: int, p: int, q: int, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of _pack as (w, betas, sigma2s), with the variances floored at
    floor."""
    nw, nb = (K - 1) * (q + 1), K * (p + 1)
    w = np.zeros((K, q + 1))
    w[:-1] = theta[:nw].reshape(K - 1, q + 1)
    betas = theta[nw:nw + nb].reshape(K, p + 1)
    sigma2s = np.maximum(np.exp(theta[nw + nb:]), floor)
    return w, betas, sigma2s


@dataclass(eq=False)
class _Iterate:
    """One EM iterate as arrays: logistic coefficients w, (K, p+1) betas, K
    variances, and logpi = _log_proportions(w, V), which the E step and the
    IRLS solve of the next M step share. The E step forms the (K, n)
    component means from betas itself. SQUAREM packs an iterate (_pack) at
    each extrapolation that reads it."""

    w: np.ndarray
    betas: np.ndarray
    sigma2s: np.ndarray
    logpi: np.ndarray


def _squarem_point(
    theta0: np.ndarray, theta1: np.ndarray, theta2: np.ndarray, step_max: float
) -> tuple[np.ndarray, float]:
    """The SQUAREM point of em_fit from the packed iterates theta0, theta1 and
    theta2, with its step length s (s = 1 gives theta2)."""
    r = theta1 - theta0
    v = theta2 - theta0 - 2.0 * r
    # the 2-norms as np.linalg.norm takes them, sqrt(x . x)
    norm_v = math.sqrt(v.dot(v))
    s = step_max if norm_v == 0 else min(max(math.sqrt(r.dot(r)) / norm_v, 1.0), step_max)
    return theta0 + 2.0 * s * r + s * s * v, s


def _em_once(
    signal: Signal,
    init: tuple[np.ndarray, np.ndarray, np.ndarray],
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
        if not np.isfinite(theta).all():
            return None
        cand = start(*_unpack(theta, K, p, q, signal.variance_floor))
        tau, ll = posterior(cand)
        if not (math.isfinite(ll) and ll >= ll_floor):
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
    while evals < _EM_MAX_ITER:
        tau, ll = posterior(nxt)
        evals += 1
        trace.append(ll)
        prev, point = point, nxt
        if ll - trace[-2] < _EM_TOL:
            converged = True
            break
        if evals == _EM_MAX_ITER:
            break
        nxt = m_step(point, tau, len(trace) - 1)
        evals += 1
        # a wild extrapolation is rejected, so its overflow warnings are noise
        with np.errstate(all="ignore"):
            thetas = [_pack(it.w, it.betas, it.sigma2s) for it in (prev, point, nxt)]
            theta, s = _squarem_point(*thetas, step_max)
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
    n_restarts: int = 0,
    seed: int | None = None,
) -> FitReport:
    """Fit the model by EM until the log-likelihood increment of a plain EM
    step drops below _EM_TOL = 1e-6, or after _EM_MAX_ITER = 1000
    log-likelihood evaluations; both limits are fixed, with no option. The
    first run starts from the paper's recipe on K uniform segments: zero
    logistic coefficients, and each component the segment_cost fit of its
    segment, coefficients and floored variance. n_restarts extra runs start
    the same way from jittered uniform cuts, and the best final likelihood
    wins. A run that fails with a NumericalError is dropped;
    the first run's error is raised only when every run fails. A DataError
    about the signal propagates. Deterministic given the seed.

    The fit runs on the signal's FitProblem, which maps the report's
    parameters and log-likelihood trace back to the units of x; the trace's
    last entry, the BIC and denoised come from the mapped-back parameters
    on x. The start, and so every EM step, sees only the fit values y, so
    scaling x by a power of two 2^e leaves the labels unchanged and adds
    -n e log 2 to the log-likelihood, up to rounding.

    EM is accelerated by SQUAREM (Varadhan & Roland 2008, Scand. J. Stat.):
    after two EM steps theta0 -> theta1 -> theta2 the parameters (free
    logistic coefficients, betas, log variances) are extrapolated to
    theta0 + 2s r + s^2 v with r = theta1 - theta0, v = theta2 - 2 theta1 +
    theta0 and s = |r|/|v| in [1, cap]; the cap starts at 4 and grows 4x
    each time an accepted step reaches it. The extrapolated point is kept
    only if its log-likelihood is finite and at least that of theta1, else
    the fit continues from theta2, so log_likelihood_trace never decreases.
    _EM_MAX_ITER bounds the log-likelihood evaluations after the initial
    one, rejected extrapolations included; em_iterations counts the accepted
    steps, len(log_likelihood_trace) - 1. ValueError for K < 1, p < 0 or
    q < 0 (piecewise._check_orders, the fitters' one order check) and for
    n_restarts < 0.

    The design matrices of the fit-time signal are built once and shared by
    every E step, M step and IRLS solve of every run. Each iterate carries
    its log-proportions from the IRLS solve that made it to the next E step
    and IRLS solve, and the final one gives labels and denoised."""
    _check_orders(K, p, 1, q)
    if n_restarts < 0:
        raise ValueError(f"require n_restarts >= 0, got n_restarts={n_restarts}")
    problem = FitProblem.of(signal)
    T, V = design_matrix(problem.signal.t, p), design_matrix(problem.signal.t, q)
    designs = (T, V, _outer_rows(V))
    rng = np.random.default_rng(seed)
    cuts = [uniform_partition(signal.n, K).gamma]
    cuts += [_perturbed_cuts(rng, signal.n, K) for _ in range(n_restarts)]
    best = error = None
    for run_cuts in cuts:
        try:
            fits = [segment_cost(problem.signal, a, b, p)[1]
                    for a, b in zip(run_cuts, run_cuts[1:])]
            init = (np.zeros((K, q + 1)), np.stack([c.beta for c in fits]),
                    np.array([c.sigma2 for c in fits]))
            result = _em_once(problem.signal, init, designs)
        except NumericalError as exc:
            error = error or exc
            continue
        if best is None or result[1][-1] > best[1][-1]:
            best = result
    if best is None:
        raise error
    final, trace, converged = best
    params = RhlpParams(LogisticProcess(final.w),
                        problem.components_to_x(final.betas, final.sigma2s))
    ll = _posterior(final.logpi, params.betas, params.sigma2s, signal.x, T)[1]
    pi = np.exp(final.logpi)
    return FitReport(
        params=params,
        log_likelihood_trace=tuple(map(problem.log_likelihood_to_x, trace[:-1])) + (ll,),
        bic=bic(params, ll, signal.n),
        labels=_hard_labels(pi),
        denoised=_denoise(pi, params.betas, T),
        converged=converged,
        time_map=problem.time_map,
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
    return float(log_likelihood - nu * np.log(n) / 2.0)


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


def _fit_cell(signal: Signal, K: int, p: int, q: int, seed: int | None) -> FitReport | str:
    """One select_model cell: em_fit's report, or the message of its
    NumericalError."""
    try:
        return em_fit(signal, K, p, q, seed=seed)
    except NumericalError as exc:
        return str(exc)


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a worker, set as its
    __cause__."""


def _watch_parent(parent: int) -> None:
    """End this worker within 0.5 s of its parent's death, also mid-cell."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _serve(conn, parent: int) -> None:
    """A select_model worker: fit each cell that conn brings under the
    warnings filters and numpy error state it was forked with, and send
    back (caught, True, report or message) or (caught, False, exception,
    traceback), where caught holds the (message, filename, lineno) of each
    warning that the cell recorded. Ctrl-C interrupts the caller only,
    which then ends its workers."""
    import signal as signals
    import traceback

    signals.signal(signals.SIGINT, signals.SIG_IGN)
    threading.Thread(target=_watch_parent, args=(parent,), daemon=True).start()
    try:
        while True:
            signal, K, p, q, seed = conn.recv()
            with warnings.catch_warnings(record=True) as caught:
                try:
                    reply = True, _fit_cell(signal, K, p, q, seed)
                except BaseException as exc:
                    reply = False, exc, traceback.format_exc()
            try:
                conn.send(([(w.message, w.filename, w.lineno) for w in caught], *reply))
            except Exception as exc:  # a result, exception or warning that does not pickle
                conn.send(([], False, exc, traceback.format_exc()))
    except (EOFError, OSError):  # the parent is gone
        pass


def _caller_state() -> tuple:
    """The caller's warnings filters, numpy error state and error callback,
    which workers forked now inherit and keep."""
    return tuple(warnings.filters), np.geterr(), np.geterrcall()


def _stop_workers(procs, conns) -> None:
    """The finalizer of _Workers: end its processes and close its pipes."""
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join()
    for conn in conns:
        conn.close()


class _Workers:
    """Forked worker processes for a process that may run on cpus CPUs, at
    most one per CPU, kept for every later multi-CPU sweep of the process
    that forked them under the same _caller_state, which they run under."""

    def __init__(self, cpus: int):
        import multiprocessing.util

        self.cpus, self.state, self.procs, self.conns = cpus, _caller_state(), [], []
        # it runs when this object is dropped, and at exit before the join of
        # a multiprocessing child's children, which would wait on the workers
        self.stop = multiprocessing.util.Finalize(self, _stop_workers,
                                                  (self.procs, self.conns), exitpriority=0)

    def grow(self, count: int) -> None:
        """Fork workers until there are at least count."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        while len(self.procs) < count:
            conn, child_conn = context.Pipe()
            self.conns.append(conn)
            proc = context.Process(target=_serve, args=(child_conn, os.getpid()))
            proc.start()
            self.procs.append(proc)
            child_conn.close()

    def run(self, signal: Signal, cells: list[tuple[int, int]], q: int,
            seed: int | None) -> tuple[list, list, BaseException | None]:
        """_fit_cell of every cell, started largest K (p+1) first, the
        warnings the cells recorded, in the order of cells up to the first
        raising one, and that cell's exception, or None. No cell after a
        raising one in that order starts, and every started cell has ended
        on return. EOFError or OSError where a worker is lost."""
        from multiprocessing.connection import wait

        pending = iter(sorted(range(len(cells)), key=lambda i: -cells[i][0] * (cells[i][1] + 1)))
        results, first, error = [None] * len(cells), len(cells), None
        caught = [[] for _ in cells]
        idle, busy = list(self.conns), {}
        while True:
            while idle:
                i = next((i for i in pending if i < first), None)
                if i is None:
                    break
                conn = idle.pop()
                conn.send((signal, *cells[i], q, seed))
                busy[conn] = i
            if not busy:
                return results, [w for ws in caught[:first + 1] for w in ws], error
            for conn in wait(list(busy)):
                i = busy.pop(conn)
                caught[i], ok, value, *remote = conn.recv()
                idle.append(conn)
                if ok:
                    results[i] = value
                elif i < first:
                    first, error = i, value
                    error.__cause__ = _RemoteTraceback(remote[0])


def _warn_again(message: Warning, filename: str, lineno: int) -> None:
    """Issue a warning that a worker recorded as warnings.warn issued it
    there: from the module loaded from filename, whose name the filters
    match and whose registry the "default" and "module" actions read."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    env = {"__name__": None} if module is None else vars(module)
    warnings.warn_explicit(message, type(message), filename, lineno, env["__name__"],
                           env.setdefault("__warningregistry__", {}))


_workers: _Workers | None = None  # made at this process's first multi-CPU sweep
_workers_lock = threading.Lock()  # one sweep at a time uses them


def _reset_workers() -> None:
    """End this process's workers; the next multi-CPU sweep forks fresh ones,
    which run the package as it is then."""
    global _workers
    if _workers is not None:
        _workers.stop()
        _workers = None


def _forget_workers() -> None:
    """In a forked child: the parent's workers and lock are not its own."""
    global _workers, _workers_lock
    _workers, _workers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _fit_cells(
    signal: Signal, cells: list[tuple[int, int]], q: int, seed: int | None
) -> list[FitReport | str]:
    """_fit_cell of every (K, p) cell, in the order of cells. The cells run
    in forked worker processes, one per CPU this process may run on and at
    most one per cell, the largest K (p+1) first, each cell sent with its
    own pickled copy of the signal. The workers are forked at the first
    such sweep and kept for the later ones, which fork more up to one per
    CPU where they have more cells; they run the package code as of their
    start, under the caller's warnings filters and numpy error state as of
    their fork. Before a sweep, workers forked for another CPU count or
    another such state, or one of which is no longer alive, are replaced by
    fresh ones; a worker lost during a sweep ends the others and raises
    BrokenProcessPool, on fresh and reused workers alike. They end with the
    interpreter (multiprocessing's exit handler), or within a second of its
    death. The cells run in-process instead with one CPU or one cell, where
    os.sched_getaffinity is missing (Windows, which has no fork, and macOS,
    where fork is unsafe), and in a daemonic process, which may not start
    children. Either way a non-fit exception is raised for the first
    failing cell in cell order, as a serial loop raises it, once no cell
    still runs. The warnings that the cells in workers record are issued
    again here first, in cell order up to that cell (_warn_again)."""
    # imported here: it adds about 13 ms and 1 MB to the package import,
    # which every other fit would pay
    import multiprocessing

    global _workers
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if min(cpus, len(cells)) < 2 or multiprocessing.current_process().daemon:
        return [_fit_cell(signal, K, p, q, seed) for K, p in cells]
    with _workers_lock:
        if _workers is not None and (
                (_workers.cpus, _workers.state) != (cpus, _caller_state())
                or not all(proc.is_alive() for proc in _workers.procs)):
            _reset_workers()
        if _workers is None:
            _workers = _Workers(cpus)
        # fork, not spawn: a spawned worker imports numpy and the package
        # afresh, which takes longer than a sweep at n = 500
        _workers.grow(min(cpus, len(cells)))
        try:
            results, caught, error = _workers.run(signal, cells, q, seed)
        except (EOFError, OSError) as exc:  # a worker lost during the sweep
            _reset_workers()
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool("a select_model worker was lost") from exc
        except BaseException:  # such as KeyboardInterrupt: cells may still run
            _reset_workers()
            raise
    for warning in caught:
        _warn_again(*warning)
    if error is not None:
        raise error
    return results


def select_model(
    signal: Signal,
    K_range,
    p_range,
    q: int,
    seed: int | None = None,
) -> tuple[FitReport, list[SelectionEntry]]:
    """Fit every (K, p) combination at fixed q by em_fit with the given seed
    and no restarts, and pick the maximum-BIC fit. Numerical fit failures
    (NumericalError) become table entries instead of aborting the sweep;
    any other exception propagates, the first in table order.
    NumericalError when every candidate fails. Before any fit: ValueError
    when K_range or p_range is empty or a cell fails em_fit's order check
    (K < 1, p < 0 or q < 0), and the DataError of a signal the fitters
    cannot map (FitProblem.of). Ties break toward smaller (K, then p).

    The cells run on the available CPUs: one forked worker process per CPU
    the process may run on (os.sched_getaffinity, which taskset sets), and
    in-process with one CPU or one cell, or where os.sched_getaffinity is
    missing (Windows, macOS). The table, the selected fit and every
    report are identical for any CPU count, since each cell is one em_fit
    call with the same seed. The workers are forked at the first sweep that
    uses them, at most one per cell, and kept for the later sweeps of the
    process, so they run the package code as of their start. Each cell
    runs under the caller's warnings filters and numpy error state of the
    call, so an "error" filter or np.errstate(all="raise") raises there too:
    the workers inherit them when forked, and a sweep under other filters
    or another error state than theirs starts fresh ones, as do a changed
    CPU count and a worker found dead before a sweep; the same state reuses
    them. A worker lost during a sweep raises
    concurrent.futures.process.BrokenProcessPool, and the next sweep starts
    fresh ones. They end with the interpreter, or within a second of its
    death. A warning that a cell raises in a worker, and the filters there
    let through, is issued again in the caller, cell by cell in table order
    up to the first cell that raises, so the caller's filters, registries
    and warnings.catch_warnings(record=True) act on it as on a serial
    loop's. An exception or warning that does not pickle, such as a warning
    class defined in a function, comes back as the pickling error."""
    K_range, p_range = list(K_range), list(p_range)
    if not K_range or not p_range:
        raise ValueError(f"empty model range: K_range={K_range}, p_range={p_range}")
    cells = [(K, p) for K in K_range for p in p_range]
    for K, p in cells:
        _check_orders(K, p, 1, q)
    FitProblem.of(signal)  # a DataError about the signal, raised before any fit
    table: list[SelectionEntry] = []
    best: FitReport | None = None
    best_key = None
    for (K, p), report in zip(cells, _fit_cells(signal, cells, q, seed)):
        if isinstance(report, str):  # a fit failure: record and continue
            table.append(SelectionEntry(K, p, q, None, None, None, report))
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
