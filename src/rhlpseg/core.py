"""Shared numerical primitives: signals and their fit problems (fit-time and
fit-value maps), polynomial bases, (weighted) least squares, Gaussian
log-densities.

All functions here are pure; every fitting algorithm in the package is built
on top of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DataError,
    NonFiniteValueError,
    NonMonotonicTimeError,
    NumericalError,
    RankDeficientError,
)

# Every variance estimate is floored at this fraction of the signal's
# variance (Signal.variance_floor); exact interpolation would otherwise give
# sigma2 = 0 and an unbounded log-likelihood. A component's noise standard
# deviation never falls below 1e-6 of the signal's.
RELATIVE_VARIANCE_FLOOR = 1e-12
_FLOAT = np.finfo(float)
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class Signal:
    """A univariate time series: strictly increasing times t and values x."""

    t: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if t.ndim != 1 or x.ndim != 1 or len(t) != len(x):
            raise ValueError("t and x must be 1-d arrays of equal length")
        if len(t) < 1:
            raise ValueError("signal must contain at least one sample")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise NonFiniteValueError("signal contains non-finite values")
        steps = np.diff(t)
        if np.any(steps <= 0):
            raise NonMonotonicTimeError(int(np.argmax(steps <= 0)) + 1)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        _check_value_range(x)

    @property
    def n(self) -> int:
        return len(self.t)

    @cached_property
    def variance_floor(self) -> float:
        """Lower bound on every variance fitted to this signal:
        RELATIVE_VARIANCE_FLOOR times var(x), or times 1 for a constant x.
        Offsetting x leaves it unchanged and scaling x by c scales it by c^2,
        like every variance fitted to x."""
        constant = np.ptp(self.x) == 0
        return RELATIVE_VARIANCE_FLOOR * (1.0 if constant else float(np.var(self.x)))


def _check_value_range(x: np.ndarray) -> None:
    """DataError unless a non-constant x lies in the range the fitters can
    represent. At the bottom the variance floor, RELATIVE_VARIANCE_FLOOR *
    var(x), must be a normal double. At the top the fits accumulate squared
    residuals up to about n * ptp(x)^2, and least squares and the segment
    costs break down within a factor 2^5 of overflow; n * ptp(x)^2 must stay
    1 / RELATIVE_VARIANCE_FLOOR below the largest double, the same headroom
    the floor keeps at the bottom."""
    span = float(np.ptp(x))
    if span == 0:
        return
    # checked before var(x), which would overflow first
    top = np.sqrt(_FLOAT.max * RELATIVE_VARIANCE_FLOOR / len(x))
    if span > top or RELATIVE_VARIANCE_FLOOR * np.var(x) < _FLOAT.smallest_normal:
        raise DataError(
            f"values out of range: a non-constant x needs var(x) >= "
            f"{_FLOAT.smallest_normal / RELATIVE_VARIANCE_FLOOR:.3g} and ptp(x) <= "
            f"{top:.3g}, got ptp(x) = {span:.3g}"
        )


@dataclass(frozen=True)
class TimeMap:
    """Affine map from a signal's times t to fit time u = (t - t0) * factor;
    FitProblem describes how the fitters use it."""

    t0: float
    factor: float

    @classmethod
    def of(cls, t) -> "TimeMap":
        """The map taking t[0] to 0 and t[-1] to 5, the time span of the
        paper's simulations; factor 1 for a single sample. The factor is
        precomputed and multiplied, so t = linspace(0, 5, n) maps to itself
        bit for bit. DataError unless the span t[-1] - t[0] and the factor
        5 / span are both finite: an overflowing span gives factor 0."""
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # an overflow is the DataError below
            factor = 5.0 / (t[-1] - t[0]) if len(t) > 1 else 1.0
        if not 0 < factor < np.inf:
            raise DataError(
                f"times out of range: t[-1] - t[0] must lie in [{5.0 / _FLOAT.max:.3g}, "
                f"{_FLOAT.max:.3g}], got times from {t[0]:.3g} to {t[-1]:.3g}"
            )
        return cls(float(t[0]), float(factor))

    def __call__(self, t) -> np.ndarray:
        """Fit times u of the times t."""
        return (np.asarray(t, dtype=float) - self.t0) * self.factor


@dataclass(frozen=True)
class ValueMap:
    """Affine map from a signal's values x to fit values y = (x - x0) * 2^-e;
    FitProblem describes how the fitters use it and maps their results
    back."""

    x0: float
    e: int

    @classmethod
    def of(cls, x) -> "ValueMap":
        """The map taking x[0] to 0 with e the binary exponent of std(x), so
        std(y) lies in [0.5, 1); e = 0 for a constant x, whose np.std is
        roundoff (1.8e134 for 60 copies of 1e150), not 0."""
        x = np.asarray(x, dtype=float)
        e = 0 if np.ptp(x) == 0 else int(np.frexp(np.std(x))[1])
        return cls(float(x[0]), e)

    def __call__(self, x) -> np.ndarray:
        """Fit values y of the values x."""
        return np.ldexp(np.asarray(x, dtype=float) - self.x0, -self.e)


@dataclass(frozen=True)
class FitProblem:
    """A signal as every fitter fits it, and the one way back to its units.

    FitProblem.of maps the times t once to fit time u = time_map(t), t[0] to
    0 and t[-1] to 5, and the values x to fit values y = value_map(x) =
    (x - x[0]) 2^-e, e the binary exponent of std(x) (0 for a constant x).
    Every fitter runs all its least squares, costs and re-segmentations on
    signal = Signal(u, y). The power of two keeps the map exact, and epoch
    times, offsets and huge constants cost no precision. Results map back
    here, to the units of x: components_to_x (beta_0 -> 2^e beta_0 + x0, the
    rest times 2^e, variances times 4^e), j_to_x (plus 2 n e log 2) and
    log_likelihood_to_x (minus n e log 2). Coefficients stay polynomials in
    u, and each fit keeps time_map: mapped to monomials in t they would
    cancel catastrophically at t0 ~ 1.7e9."""

    signal: Signal
    time_map: TimeMap
    value_map: ValueMap

    @classmethod
    def of(cls, signal: Signal) -> "FitProblem":
        """The problem of signal; DataError for times TimeMap.of cannot map,
        or whose fit times do not increase strictly (a gap that maps to 0)."""
        time_map, value_map = TimeMap.of(signal.t), ValueMap.of(signal.x)
        try:
            fit_signal = Signal(time_map(signal.t), value_map(signal.x))
        except NonMonotonicTimeError as exc:
            i = exc.index
            raise DataError(
                f"times out of range: the gap t[{i}] - t[{i - 1}] = "
                f"{signal.t[i] - signal.t[i - 1]:.3g} maps to a fit-time gap of 0 at "
                f"factor {time_map.factor:.3g}"
            ) from None
        return cls(fit_signal, time_map, value_map)

    def components_to_x(self, betas, sigma2s) -> tuple[GaussianComponent, ...]:
        """Components fitted on y, coefficient rows betas, in the units of x."""
        betas = np.ldexp(np.asarray(betas, dtype=float), self.value_map.e)
        betas[:, 0] += self.value_map.x0
        sigma2s = np.ldexp(sigma2s, 2 * self.value_map.e)
        return tuple(GaussianComponent(b, float(s)) for b, s in zip(betas, sigma2s))

    @property
    def _log_jacobian(self) -> float:
        """log |dx/dy|^n = n e log 2."""
        return self.signal.n * self.value_map.e * float(np.log(2.0))

    def j_to_x(self, j: float) -> float:
        """A criterion J on y as J on x."""
        return j + 2.0 * self._log_jacobian

    def log_likelihood_to_x(self, log_likelihood: float) -> float:
        """A log-likelihood on y as one on x."""
        return log_likelihood - self._log_jacobian


@dataclass(frozen=True)
class GaussianComponent:
    """One polynomial regression component: coefficients and noise variance."""

    beta: np.ndarray
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")

    def mean(self, t) -> np.ndarray:
        """Polynomial mean curve evaluated at times t."""
        return design_matrix(t, len(self.beta) - 1) @ self.beta


def design_matrix(t, p: int) -> np.ndarray:
    """n x (p+1) matrix whose row i is the covariate vector
    (1, t_i, t_i^2, ..., t_i^p). Column k is column k - 1 times t, the
    products np.vander forms, so the result is np.vander(t, p + 1,
    increasing=True) bit for bit, at a fifth of its time for long t."""
    t = np.asarray(t, dtype=float)
    T = np.ones((len(t), p + 1))
    for k in range(1, p + 1):
        np.multiply(T[:, k - 1], t, out=T[:, k])
    return T


def weighted_least_squares(T: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """argmin_beta sum_i w_i (x_i - beta^T r_i)^2 for the n x (p+1) design T.

    w is one weight vector of length n, giving beta of length p+1, or a
    (K, n) stack of them, giving K fits as a (K, p+1) array. All fits come
    from one batched Householder QR of the sqrt(w)-scaled designs with the
    scaled x appended as a last column (stable for ill-conditioned polynomial
    bases, unlike raw normal equations): the triangle's last column is Q^T x.

    Raises RankDeficientError when a weighted design has effective rank
    below the number of coefficients: rank counts the singular values of R
    above lstsq's default cutoff, eps * max(n, p+1) times the largest.
    ValueError unless T, x and w are finite and every weight vector is
    non-negative with a positive sum; NumericalError where finite input
    overflows, in a sqrt(w)-scaled product or in the triangle.
    """
    T = np.asarray(T, dtype=float)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n, d = T.shape
    # the sqrt(w)-scaled design and x as (..., d+1, n) rows, handed over
    # transposed: the column-major layout LAPACK factors. Every entry of T, x
    # and w reaches them, and a negative weight's square root is NaN, so one
    # finiteness check covers the input and the products; which one failed
    # is sorted out only then.
    scaled = np.empty(w.shape[:-1] + (d + 1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        root_w = np.sqrt(w)
        np.multiply(T.T, root_w[..., None, :], out=scaled[..., :d, :])
        np.multiply(x, root_w, out=scaled[..., d, :])
    if not np.isfinite(scaled).all():
        if not (np.isfinite(T).all() and np.isfinite(x).all() and np.isfinite(w).all()):
            raise ValueError("T, x and w must be finite")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        raise NumericalError("weighted least squares overflows: a sqrt(w)-scaled "
                             "product of finite input is not finite")
    if (w.sum(axis=-1) <= 0).any():
        raise ValueError("weights must have positive sum")
    R = np.linalg.qr(np.swapaxes(scaled, -1, -2), mode="r")
    try:
        s = np.linalg.svd(R[..., :d, :d], compute_uv=False)
    except np.linalg.LinAlgError as exc:  # a triangle that overflowed
        raise NumericalError(f"weighted least squares overflows: {exc}") from None
    rank = int((s > _FLOAT.eps * max(n, d) * s[..., :1]).sum(axis=-1).min())
    if rank < d:
        raise RankDeficientError(f"weighted design has rank {rank} < {d} coefficients")
    return np.linalg.solve(R[..., :d, :d], R[..., :d, d:])[..., 0]


def _gaussian_log_density(x, mean, sigma2):
    """gaussian_log_density of float arrays without its check: the EM
    variances are floored at Signal.variance_floor > 0."""
    return -0.5 * (_LOG_2PI + np.log(sigma2) + (x - mean) ** 2 / sigma2)


def gaussian_log_density(x, mean, sigma2):
    """log N(x; mean, sigma2), elementwise."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if np.any(sigma2 <= 0):
        raise ValueError("sigma2 must be positive")
    return _gaussian_log_density(x, mean, sigma2)
