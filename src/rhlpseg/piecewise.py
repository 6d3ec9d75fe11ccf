"""Piecewise polynomial regression.

Exact global minimization of the segmentation criterion
J = sum_k sum_{i in segment k} [log sigma_k^2 + (x_i - beta_k^T r_i)^2 / sigma_k^2]
by dynamic programming, plus a faster iterative variant that alternates
per-segment regression with a fixed-parameter re-segmentation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VARIANCE_FLOOR, GaussianComponent, Signal, design_matrix
from .errors import InfeasibleError, LengthMismatchError, SegmentTooShortError


def default_min_segment_length(p: int) -> int:
    # p+1 points interpolate exactly; one extra keeps the variance informative
    return p + 2


@dataclass(frozen=True)
class Partition:
    """Segment boundaries as indices gamma_1=0 < ... < gamma_{K+1}=n.

    Segment k (1-based) covers sample indices gamma_k .. gamma_{k+1}-1
    (0-based), i.e. the half-open index range [gamma_k, gamma_{k+1}).
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=int)
        if g[0] != 0 or np.any(np.diff(g) <= 0):
            raise ValueError(f"invalid partition boundaries {g}")
        object.__setattr__(self, "gamma", g)

    @property
    def K(self) -> int:
        return len(self.gamma) - 1

    @property
    def n(self) -> int:
        return int(self.gamma[-1])

    def labels(self) -> np.ndarray:
        """Per-sample segment labels 1..K."""
        return np.repeat(np.arange(1, self.K + 1), np.diff(self.gamma))


def piecewise_mean(partition: Partition, components, t) -> np.ndarray:
    """Mean curve of a piecewise model: components[k].mean on the samples
    t[gamma_k:gamma_{k+1}] of segment k."""
    t = np.asarray(t, dtype=float)
    if len(t) != partition.n:
        raise LengthMismatchError(
            f"{len(t)} time points for a partition of {partition.n} samples"
        )
    g = partition.gamma
    return np.concatenate([c.mean(t[a:b]) for c, a, b in zip(components, g[:-1], g[1:])])


@dataclass(frozen=True)
class PiecewiseFit:
    """Result of a piecewise regression fit."""

    partition: Partition
    components: tuple[GaussianComponent, ...]
    criterion_j: float
    log_likelihood: float
    j_trace: tuple[float, ...] | None = None

    @property
    def K(self) -> int:
        return self.partition.K

    def labels(self) -> np.ndarray:
        return self.partition.labels()

    def expectation(self, t) -> np.ndarray:
        """Fitted mean curve: the active segment's polynomial at each sample."""
        if isinstance(t, Signal):
            t = t.t
        return piecewise_mean(self.partition, self.components, t)


def _floored_cost(sse, m, variance_floor: float):
    """Cost m*log(s2) + sse/s2 with s2 = max(sse/m, floor), elementwise.
    Returns (cost, s2)."""
    s2 = np.maximum(sse / m, variance_floor)
    return m * np.log(s2) + sse / s2, s2


def segment_cost(
    signal: Signal,
    a: int,
    b: int,
    p: int,
    min_segment_length: int | None = None,
    variance_floor: float = VARIANCE_FLOOR,
) -> tuple[float, GaussianComponent]:
    """OLS fit of samples in the index range (a, b] (0-based: a..b-1) and its
    segmentation cost sum_i [log s2 + resid^2/s2]."""
    if min_segment_length is None:
        min_segment_length = default_min_segment_length(p)
    m = b - a
    if m < min_segment_length:
        raise SegmentTooShortError(f"segment ({a},{b}] has {m} < {min_segment_length} points")
    t = signal.t[a:b]
    x = signal.x[a:b]
    T = design_matrix(t, p)
    beta, _, _, _ = np.linalg.lstsq(T, x, rcond=None)
    sse = float(np.sum((x - T @ beta) ** 2))
    cost, s2 = _floored_cost(sse, m, variance_floor)
    return cost, GaussianComponent(beta, s2)


def build_cost_matrix(
    signal: Signal,
    p: int,
    min_segment_length: int | None = None,
    variance_floor: float = VARIANCE_FLOOR,
) -> np.ndarray:
    """(n+1) x (n+1) matrix of one-segment costs; entry (a, b) is the cost of
    fitting samples (a, b]. Infeasible ranges (b - a < min length) hold +inf.

    Built column by column with Givens QR updates. Every start a keeps the
    triangular factor of its segment's data [T | x], with times shifted to
    t_a and values to x_a, so epoch timestamps and large offsets lose no
    precision. Sample j's row [(t_j - t_a)^0..p | x_j - x_a] is rotated into
    the factors of all starts a <= j at once; what is left in the x column
    after the p+1 rotations, squared, adds to that start's exact residual
    sum of squares. There is no normal-equations step and no fallback.
    """
    if min_segment_length is None:
        min_segment_length = default_min_segment_length(p)
    n = signal.n
    t, x = signal.t, signal.x
    d = p + 1
    out = np.full((n + 1, n + 1), np.inf, order="F")  # the DP reads columns
    R = np.zeros((d, d + 1, n))  # R[:, :, a]: upper-triangular factor of start a
    sse = np.zeros(n)
    for j in range(n):
        Rj = R[:, :, : j + 1]
        v = np.empty((d + 1, j + 1))
        v[:d] = (t[j] - t[: j + 1]) ** np.arange(d)[:, None]
        v[d] = x[j] - x[: j + 1]
        for i in range(d):
            r = np.hypot(Rj[i, i], v[i])
            # r = 0 only when both entries are 0: the identity rotation
            c = np.divide(Rj[i, i], r, out=np.ones(j + 1), where=r > 0)
            s = np.divide(v[i], r, out=np.zeros(j + 1), where=r > 0)
            Ri = Rj[i, i:].copy()
            Rj[i, i:] = c * Ri + s * v[i:]
            v[i:] = c * v[i:] - s * Ri
        sse[: j + 1] += v[d] ** 2
        feasible = j + 2 - min_segment_length  # starts a with j + 1 - a >= min length
        if feasible > 0:
            m = j + 1 - np.arange(feasible)  # segment lengths
            out[:feasible, j + 1] = _floored_cost(sse[:feasible], m, variance_floor)[0]
    return out


def _dp_tables(cost: np.ndarray, K: int, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal costs C[k, b] for splitting samples (0, b] into k segments,
    and argmin split indices H[k, b] (start of the last segment)."""
    n = cost.shape[0] - 1
    C = np.full((K + 1, n + 1), np.inf)
    H = np.zeros((K + 1, n + 1), dtype=int)
    C[1, :] = cost[0, :]
    for k in range(2, K + 1):
        for b in range(k * min_len, n + 1):
            cand = C[k - 1, : b - min_len + 1] + cost[: b - min_len + 1, b]
            h = int(np.argmin(cand))
            C[k, b] = cand[h]
            H[k, b] = h
    return C, H


def _backtrack(H: np.ndarray, K: int, n: int) -> Partition:
    gamma = np.empty(K + 1, dtype=int)
    gamma[K] = n
    for k in range(K, 1, -1):
        gamma[k - 1] = H[k, gamma[k]]
    gamma[0] = 0
    return Partition(gamma)


def _refit(
    signal: Signal, partition: Partition, p: int, variance_floor: float
) -> tuple[tuple[GaussianComponent, ...], float]:
    """Per-segment OLS on a partition; returns components and total cost J."""
    comps = []
    j = 0.0
    g = partition.gamma
    for k in range(partition.K):
        cost, comp = segment_cost(
            signal, g[k], g[k + 1], p,
            min_segment_length=1, variance_floor=variance_floor,
        )
        comps.append(comp)
        j += cost
    return tuple(comps), j


def _log_likelihood_from_j(j: float, n: int) -> float:
    return -0.5 * (j + n * np.log(2.0 * np.pi))


def fisher_dp(
    signal: Signal,
    K: int,
    p: int,
    min_segment_length: int | None = None,
    variance_floor: float = VARIANCE_FLOOR,
) -> PiecewiseFit:
    """Globally optimal piecewise polynomial fit with K segments, by dynamic
    programming over the one-segment cost matrix. Ties in the split argmin go
    to the smallest index."""
    if min_segment_length is None:
        min_segment_length = default_min_segment_length(p)
    n = signal.n
    if n < K * min_segment_length:
        raise InfeasibleError(
            f"n={n} < K*min_segment_length={K * min_segment_length}"
        )
    cost = build_cost_matrix(signal, p, min_segment_length, variance_floor)
    C, H = _dp_tables(cost, K, min_segment_length)
    partition = _backtrack(H, K, n)
    components, _ = _refit(signal, partition, p, variance_floor)
    j = float(C[K, n])
    return PiecewiseFit(partition, components, j, _log_likelihood_from_j(j, n))


def _fixed_param_segmentation(
    signal: Signal,
    components: tuple[GaussianComponent, ...],
    min_len: int,
) -> tuple[Partition, float]:
    """Optimal partition with component parameters held fixed: segment k must
    use component k. O(K n) in numpy, one pass per k.

    With cum[k-1] the prefix sums of the per-sample costs under component k,
    D[k, b] = min over splits h <= b - min_len of D[k-1, h] - cum[k-1, h],
    plus cum[k-1, b]. The minimum over the growing set of splits is a running
    minimum, np.minimum.accumulate over the candidates. H[k, b] is the split
    that first reached it: on a tie the earliest split wins. A NaN candidate
    is never chosen."""
    n = signal.n
    K = len(components)
    # per-point cost under each component, prefix-summed
    cum = np.zeros((K, n + 1))
    for k, comp in enumerate(components):
        resid = signal.x - comp.mean(signal.t)
        cum[k, 1:] = np.cumsum(np.log(comp.sigma2) + resid**2 / comp.sigma2)

    D = np.full((K + 1, n + 1), np.inf)
    H = np.zeros((K + 1, n + 1), dtype=int)
    D[0, 0] = 0.0
    for k in range(1, K + 1):
        b0 = k * min_len
        h = np.arange(b0 - min_len, n - min_len + 1)  # split eligible at b = h + min_len
        cand = D[k - 1, h] - cum[k - 1, h]
        cand[np.isnan(cand)] = np.inf
        best = np.minimum.accumulate(cand)
        # a split takes over only when strictly below every earlier candidate
        improves = cand < np.concatenate(([np.inf], best[:-1]))
        D[k, b0:] = best + cum[k - 1, b0:]
        H[k, b0:] = np.maximum.accumulate(np.where(improves, h, 0))
    if not np.isfinite(D[K, n]):
        raise InfeasibleError(f"n={n} < K*min_segment_length={K * min_len}")
    return _backtrack(H, K, n), float(D[K, n])


def iterative_fisher(
    signal: Signal,
    K: int,
    p: int,
    init: Partition,
    max_iter: int = 100,
    tol: float = 1e-6,
    min_segment_length: int | None = None,
    variance_floor: float = VARIANCE_FLOOR,
) -> PiecewiseFit:
    """Local minimization of J: alternate per-segment OLS (regression step)
    with dynamic-programming re-segmentation at fixed parameters
    (segmentation step). J is non-increasing across iterations."""
    if min_segment_length is None:
        min_segment_length = default_min_segment_length(p)
    n = signal.n
    if n < K * min_segment_length:
        raise InfeasibleError(f"n={n} < K*min_segment_length={K * min_segment_length}")
    if init.K != K or init.n != n or np.any(np.diff(init.gamma) < min_segment_length):
        raise InfeasibleError(f"initial partition {init.gamma} is not feasible")

    partition = init
    components, j = _refit(signal, partition, p, variance_floor)
    trace = [j]
    for _ in range(max_iter):
        partition_new, _ = _fixed_param_segmentation(signal, components, min_segment_length)
        components_new, j_new = _refit(signal, partition_new, p, variance_floor)
        if j_new > j:  # numerically impossible up to roundoff; keep the better state
            break
        partition, components = partition_new, components_new
        converged = j - j_new < tol
        j = j_new
        trace.append(j)
        if converged:
            break
    return PiecewiseFit(
        partition, components, j, _log_likelihood_from_j(j, n), tuple(trace)
    )


def uniform_partition(n: int, K: int, min_len: int = 1) -> Partition:
    """K near-equal segments; boundaries nudged to respect the minimum length."""
    gamma = np.rint(np.linspace(0, n, K + 1)).astype(int)
    for k in range(1, K + 1):
        gamma[k] = max(gamma[k], gamma[k - 1] + min_len)
    gamma[K] = n
    for k in range(K - 1, 0, -1):
        gamma[k] = min(gamma[k], gamma[k + 1] - min_len)
    if gamma[0] != 0 or np.any(np.diff(gamma) < min_len):
        raise InfeasibleError(f"no uniform partition of n={n} into K={K} segments")
    return Partition(gamma)


def random_partition(
    rng: np.random.Generator, n: int, K: int, min_len: int, max_attempts: int = 1000
) -> Partition:
    """K segments from K-1 distinct interior cuts drawn uniformly; infeasible
    draws (a segment shorter than min_len) are rejected and redrawn."""
    for _ in range(max_attempts):
        cuts = np.sort(rng.choice(np.arange(1, n), size=K - 1, replace=False))
        gamma = np.concatenate(([0], cuts, [n]))
        if np.all(np.diff(gamma) >= min_len):
            return Partition(gamma)
    raise InfeasibleError(
        f"no feasible random partition found in {max_attempts} attempts"
    )


def multi_start_iterative(
    signal: Signal,
    K: int,
    p: int,
    n_random_starts: int = 10,
    seed: int | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    min_segment_length: int | None = None,
    variance_floor: float = VARIANCE_FLOOR,
) -> PiecewiseFit:
    """iterative_fisher from a uniform partition plus n_random_starts random
    ordered partitions; returns the fit with smallest J. Deterministic given
    the seed."""
    if min_segment_length is None:
        min_segment_length = default_min_segment_length(p)
    rng = np.random.default_rng(seed)
    starts = [uniform_partition(signal.n, K, min_segment_length)]
    for _ in range(n_random_starts):
        starts.append(random_partition(rng, signal.n, K, min_segment_length))
    fits = [
        iterative_fisher(
            signal, K, p, init, max_iter, tol, min_segment_length, variance_floor
        )
        for init in starts
    ]
    return min(fits, key=lambda f: f.criterion_j)
