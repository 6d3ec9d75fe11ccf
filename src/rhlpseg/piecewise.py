"""Piecewise polynomial regression.

Exact global minimization of the segmentation criterion
J = sum_k sum_{i in segment k} [log sigma_k^2 + (x_i - beta_k^T r_i)^2 / sigma_k^2]
by dynamic programming, plus a faster iterative variant that alternates
per-segment regression with a fixed-parameter re-segmentation. Each fitter
maps the signal once with to_fit_time: its times to fit time u =
time_map(t), time_map = TimeMap.of(signal.t), and its values to y =
value_map(x), value_map = ValueMap.of(signal.x). All least squares, costs
and re-segmentations run on (u, y). The PiecewiseFit keeps the time map,
names the fitter that made it, and holds components and J mapped back to
the units of x.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GaussianComponent,
    Signal,
    TimeMap,
    ValueMap,
    design_matrix,
    to_fit_time,
)
from .errors import InfeasibleError, LengthMismatchError, NumericalError


def default_min_segment_length(p: int) -> int:
    # p+1 points interpolate exactly; one extra keeps the variance informative
    return p + 2


def _check_request(n: int, K: int, min_len: int | None, p: int = 0) -> int:
    """The one entry check for K segments of at least min_len samples each
    (default p + 2) over n samples; returns min_len. ValueError for K < 1,
    p < 0 or min_len < 1, InfeasibleError for n < K * min_len."""
    if min_len is None:
        min_len = default_min_segment_length(p)
    if K < 1 or p < 0 or min_len < 1:
        raise ValueError(f"require K >= 1, p >= 0, min length >= 1; got {K}, {p}, {min_len}")
    if n < K * min_len:
        raise InfeasibleError(f"n={n} < K*min_segment_length={K * min_len}")
    return min_len


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
    """Result of a piecewise regression fit; the components are polynomials
    in fit time u = time_map(t), in the units of x. model is the fitter's
    tag, "piecewise_dp" or "piecewise_iterative"; seed is
    multi_start_iterative's."""

    partition: Partition
    components: tuple[GaussianComponent, ...]
    criterion_j: float
    time_map: TimeMap
    model: str
    j_trace: tuple[float, ...] | None = None
    seed: int | None = None

    @property
    def K(self) -> int:
        return self.partition.K

    def labels(self) -> np.ndarray:
        return self.partition.labels()

    @property
    def log_likelihood(self) -> float:
        """Gaussian log-likelihood of the fit, -(J + n log 2 pi) / 2."""
        return -0.5 * (self.criterion_j + self.partition.n * np.log(2.0 * np.pi))

    def expectation(self, t) -> np.ndarray:
        """Fitted mean curve at the signal times t: the active segment's
        polynomial at each sample."""
        return piecewise_mean(self.partition, self.components, self.time_map(t))


def _floored_cost(sse, m, signal: Signal):
    """Cost m*log(s2) + sse/s2 with s2 = max(sse/m, signal.variance_floor),
    elementwise. Returns (cost, s2)."""
    s2 = np.maximum(sse / m, signal.variance_floor)
    return m * np.log(s2) + sse / s2, s2


def segment_cost(signal: Signal, a: int, b: int, p: int) -> tuple[float, GaussianComponent]:
    """OLS fit of samples in the index range (a, b] (0-based: a..b-1) and its
    segmentation cost sum_i [log s2 + resid^2/s2]. The values are fitted
    shifted to x[a], which is added back to beta_0, as build_cost_matrix
    shifts each start, so offset and constant values lose no precision.
    Fewer than p + 1 samples get lstsq's minimum-norm fit. ValueError unless
    0 <= a < b <= n."""
    if not 0 <= a < b <= signal.n:
        raise ValueError(f"segment ({a},{b}] is empty or outside 0..{signal.n}")
    x0 = signal.x[a]
    cost, comp = _ols_cost(design_matrix(signal.t[a:b], p), signal.x[a:b] - x0, signal)
    comp.beta[0] += x0
    return cost, comp


def _ols_cost(T: np.ndarray, x: np.ndarray, signal: Signal) -> tuple[float, GaussianComponent]:
    """OLS fit of the values x on the segment design T and its floored cost."""
    beta, _, _, _ = np.linalg.lstsq(T, x, rcond=None)
    sse = float(np.sum((x - T @ beta) ** 2))
    cost, s2 = _floored_cost(sse, len(x), signal)
    return cost, GaussianComponent(beta, s2)


def build_cost_matrix(
    signal: Signal, p: int, min_segment_length: int | None = None
) -> np.ndarray:
    """(n+1) x (n+1) matrix of one-segment costs; entry (a, b) is the cost of
    fitting samples (a, b]. Infeasible ranges (b - a < min length) hold +inf.

    Built column by column with square-root-free Givens QR updates
    (Gentleman 1973). Every start a keeps the factor of its segment's data
    [T | x] as weights D_i = R_ii^2 and a unit upper-triangular row Rbar_i,
    with times shifted to t_a and values to x_a, so epoch timestamps and
    large offsets lose no precision. Sample j's row v = [(t_j - t_a)^0..p |
    x_j - x_a] enters with weight w = 1 into the factors of all starts
    a <= j at once; after the p+1 rotations, w * v_d^2 adds to that start's
    exact residual sum of squares. The pass takes no square root, and there
    is no normal-equations step and no fallback.

    Rotation 0 is against the all-ones column, whose weight is D_0 = m - 1
    before row m = j - a + 1: it is the running mean, v_k <- v_k - Rbar_0k,
    then Rbar_0k <- Rbar_0k + v_k (1 / m), and leaves w = (m - 1) / m. A later
    rotation i takes e = D_i + w v_i^2, cbar = D_i / e and sbar = w v_i / e,
    then, for each k > i and from the old values, Rbar_ik <- cbar Rbar_ik +
    sbar v_k and v_k <- v_k - v_i Rbar_ik, and last D_i <- e and w <- w cbar.
    This is the update order of Miller's AS 274 (1992). The shorter
    Rbar_ik <- Rbar_ik + sbar v_k with the new v_k saves a multiply, but on
    times one ulp apart it misses exact least squares by up to 0.5. Where
    e = 0 the rotation is the identity. The pivots are squared: a power of
    a tiny time gap whose square underflows acts as a zero pivot, as
    lstsq's rank cutoff drops such a column. fisher_dp runs on fit time
    |u| <= 5, far from overflow.

    A start with m rows has weights D_0..D_{m-1} and no others: rotation
    m - 1 meets D_{m-1} = 0, so cbar = 0 and w = 0, and rotation i > m - 1
    is then the identity on that start, so it runs only on the starts with
    more than i rows. The exception is a start whose rotation m - 1 met
    e = 0 with w != 0: from then on that start and every older one run
    every rotation.
    """
    if min_segment_length is None:
        min_segment_length = default_min_segment_length(p)
    n = signal.n
    t, x = signal.t, signal.x
    d = p + 1
    out = np.full((n + 1, n + 1), np.inf, order="F")  # the DP reads columns
    # R[:, :, a]: the factor of start a, D_i on the diagonal and Rbar_i right
    # of it; D_0 is never read, so it is not stored
    R = np.zeros((d, d + 1, n))
    sse = np.zeros(n)
    # start a of column j holds m = j + 1 - a rows; the vectors indexed by m
    # run from m = n down to 1, so column j reads their last j + 1 entries
    m = np.arange(n, 0, -1, dtype=float)
    inv_m = 1.0 / m
    w_m = (m - 1) / m  # the weight after rotation 0
    v_all = np.empty((d + 1, n))  # the incoming row of every start
    v_all[0] = 1.0  # the all-ones column, base of the powers of t_j - t_a
    w_all = np.empty(n)  # and its weight
    wv_all, e_all, c_all, s_all = np.empty((4, n))
    sv_all = np.empty((d, n))
    vR_all = np.empty((d, n))
    deficient = -1  # the newest start whose rotation m - 1 met e = 0, w != 0
    # x/0 where e = 0, replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n):
            k0 = n - 1 - j  # column j's offset into the vectors indexed by m
            Rj = R[:, :, : j + 1]
            v = v_all[:, : j + 1]
            w = w_all[: j + 1]
            dt = t[j] - t[: j + 1]
            for k in range(1, d):
                np.multiply(v[k - 1], dt, out=v[k])
            np.subtract(x[j], x[: j + 1], out=v[d])
            # rotation 0: the running mean of every column right of the ones
            R0, v0 = Rj[0, 1:], v[1:]
            v0 -= R0
            R0 += np.multiply(v0, inv_m[k0:], out=sv_all[:d, : j + 1])
            w[...] = w_m[k0:]
            for i in range(1, d):
                # rotation i changes only the starts a < starts
                starts = max(j + 1 - i, deficient + 1)
                if starts <= 0:
                    break
                Dii, vii, wi = Rj[i, i, :starts], v[i, :starts], w[:starts]
                wv = np.multiply(wi, vii, out=wv_all[:starts])
                e = np.multiply(wv, vii, out=e_all[:starts])
                e += Dii
                c = np.divide(Dii, e, out=c_all[:starts])
                s = np.divide(wv, e, out=s_all[:starts])
                if not e.all():
                    zero = e == 0
                    c[zero] = 1.0
                    s[zero] = 0.0
                    # start j - i has m = i + 1 rows
                    if j >= i and zero[j - i] and wi[j - i] != 0:
                        deficient = max(deficient, j - i)
                Dii[...] = e
                wi *= c
                # Miller's order: both updates read the old Rbar_ik and v_k
                Ri, vi = Rj[i, i + 1 :, :starts], v[i + 1 :, :starts]
                sv = np.multiply(vi, s, out=sv_all[: d - i, :starts])
                vR = np.multiply(Ri, vii, out=vR_all[: d - i, :starts])
                vi -= vR
                Ri *= c
                Ri += sv
            vd2 = np.multiply(v[d], v[d], out=wv_all[: j + 1])
            vd2 *= w
            sse[: j + 1] += vd2
            feasible = j + 2 - min_segment_length  # starts a with j + 1 - a >= min length
            if feasible > 0:
                out[:feasible, j + 1] = _floored_cost(
                    sse[:feasible], m[k0 : k0 + feasible], signal
                )[0]
    return out


_DP_BLOCK = 32  # columns per candidate block: an (n + 1) x 32 temporary


def _dp_tables(cost: np.ndarray, K: int, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal costs C[k, b] for splitting samples (0, b] into k segments,
    and argmin split indices H[k, b] (start of the last segment).

    C[k, b] = min over h <= b - min_len of C[k-1, h] + cost[h, b], and
    argmin takes the first minimum, so ties go to the smallest split. Each
    level takes _DP_BLOCK columns b0..b1-1 at once, over the rows h below
    b1 - min_len; a row past column b's own last split h = b - min_len holds
    cost[h, b] = +inf, as build_cost_matrix leaves every range shorter than
    min_len, so it never wins."""
    n = cost.shape[0] - 1
    C = np.full((K + 1, n + 1), np.inf)
    H = np.zeros((K + 1, n + 1), dtype=int)
    C[1, :] = cost[0, :]
    for k in range(2, K + 1):
        for b0 in range(k * min_len, n + 1, _DP_BLOCK):
            b1 = min(b0 + _DP_BLOCK, n + 1)
            top = b1 - min_len
            cand = C[k - 1, :top, None] + cost[:top, b0:b1]
            h = cand.argmin(axis=0)
            C[k, b0:b1] = cand[h, np.arange(b1 - b0)]
            H[k, b0:b1] = h
    return C, H


def _backtrack(H: np.ndarray, K: int, n: int) -> Partition:
    gamma = np.empty(K + 1, dtype=int)
    gamma[K] = n
    for k in range(K, 1, -1):
        gamma[k - 1] = H[k, gamma[k]]
    gamma[0] = 0
    return Partition(gamma)


def _refit(
    signal: Signal, T: np.ndarray, partition: Partition
) -> tuple[tuple[GaussianComponent, ...], float]:
    """Per-segment OLS on a partition; returns components and total cost J.
    T = design_matrix(signal.t, p): a segment's design is its rows, which
    equal design_matrix of the segment's times bit for bit."""
    comps = []
    j = 0.0
    g = partition.gamma
    for a, b in zip(g[:-1], g[1:]):
        cost, comp = _ols_cost(T[a:b], signal.x[a:b], signal)
        comps.append(comp)
        j += cost
    return tuple(comps), j


def fisher_dp(
    signal: Signal,
    K: int,
    p: int,
    min_segment_length: int | None = None,
) -> PiecewiseFit:
    """Globally optimal piecewise polynomial fit with K segments, by dynamic
    programming over the one-segment cost matrix. Ties in the split argmin go
    to the smallest index."""
    n = signal.n
    min_segment_length = _check_request(n, K, min_segment_length, p)
    signal, time_map, value_map = to_fit_time(signal)
    cost = build_cost_matrix(signal, p, min_segment_length)
    C, H = _dp_tables(cost, K, min_segment_length)
    partition = _backtrack(H, K, n)
    components, _ = _refit(signal, design_matrix(signal.t, p), partition)
    j = float(C[K, n]) + 2.0 * value_map.log_jacobian(n)
    return PiecewiseFit(partition, _components_to_x(components, value_map), j, time_map,
                        "piecewise_dp")


def _components_to_x(
    components: tuple[GaussianComponent, ...], value_map: ValueMap
) -> tuple[GaussianComponent, ...]:
    """Components fitted on the fit values y, in the units of x."""
    return tuple(GaussianComponent(value_map.beta(c.beta), value_map.variance(c.sigma2))
                 for c in components)


def _fixed_param_segmentation(
    signal: Signal,
    T: np.ndarray,
    components: tuple[GaussianComponent, ...],
    min_len: int,
) -> tuple[Partition, float]:
    """Optimal partition with component parameters held fixed: segment k must
    use component k. O(K n) in numpy, one pass per k. T is a design matrix
    of signal.t with at least as many columns as any component's beta; a
    component's mean is T[:, :len(beta)] @ beta.

    With cum[k-1] the prefix sums of the per-sample costs under component k,
    D[k, b] = min over splits h <= b - min_len of D[k-1, h] - cum[k-1, h],
    plus cum[k-1, b]. The minimum over the growing set of splits is a running
    minimum, np.minimum.accumulate over the candidates. H[k, b] is the split
    that first reached it: on a tie the earliest split wins. A NaN candidate
    is never chosen."""
    n = signal.n
    K = len(components)
    _check_request(n, K, min_len)
    # per-point cost under each component, prefix-summed
    cum = np.zeros((K, n + 1))
    for k, comp in enumerate(components):
        resid = signal.x - T[:, : len(comp.beta)] @ comp.beta
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
        raise NumericalError(f"re-segmentation cost {D[K, n]} is not finite")
    return _backtrack(H, K, n), float(D[K, n])


def iterative_fisher(
    signal: Signal,
    K: int,
    p: int,
    init: Partition,
    max_iter: int = 100,
    tol: float = 1e-6,
    min_segment_length: int | None = None,
) -> PiecewiseFit:
    """Local minimization of J: alternate per-segment OLS (regression step)
    with dynamic-programming re-segmentation at fixed parameters
    (segmentation step). J is non-increasing across iterations. Both steps
    read the one design matrix of the fit-time signal built per call, and
    run on its fit values; tol applies to J there, which differs from J in
    the units of x by a constant."""
    n = signal.n
    min_segment_length = _check_request(n, K, min_segment_length, p)
    if init.K != K or init.n != n or np.any(np.diff(init.gamma) < min_segment_length):
        raise InfeasibleError(f"initial partition {init.gamma} is not feasible")

    signal, time_map, value_map = to_fit_time(signal)
    T = design_matrix(signal.t, p)
    partition = init
    components, j = _refit(signal, T, partition)
    trace = [j]
    for _ in range(max_iter):
        partition_new, _ = _fixed_param_segmentation(signal, T, components, min_segment_length)
        components_new, j_new = _refit(signal, T, partition_new)
        if j_new > j:  # numerically impossible up to roundoff; keep the better state
            break
        partition, components = partition_new, components_new
        converged = j - j_new < tol
        j = j_new
        trace.append(j)
        if converged:
            break
    shift = 2.0 * value_map.log_jacobian(n)
    return PiecewiseFit(partition, _components_to_x(components, value_map), j + shift,
                        time_map, "piecewise_iterative", tuple(jk + shift for jk in trace))


def uniform_partition(n: int, K: int, min_len: int = 1) -> Partition:
    """K near-equal segments; boundaries nudged to respect the minimum length
    (the forward pass gives gamma_k >= k min_len, the backward pass keeps it)."""
    _check_request(n, K, min_len)
    gamma = np.rint(np.linspace(0, n, K + 1)).astype(int)
    for k in range(1, K + 1):
        gamma[k] = max(gamma[k], gamma[k - 1] + min_len)
    gamma[K] = n
    for k in range(K - 1, 0, -1):
        gamma[k] = min(gamma[k], gamma[k + 1] - min_len)
    return Partition(gamma)


def random_partition(rng: np.random.Generator, n: int, K: int, min_len: int) -> Partition:
    """A partition drawn uniformly from those of n samples into K segments of
    at least min_len, by stars and bars: K - 1 distinct cuts among the inner
    points 1..N-1 of N = n - K (min_len - 1) samples, then cut i (1-based)
    shifted right by i (min_len - 1). It never fails when n >= K min_len."""
    _check_request(n, K, min_len)
    bars = np.sort(rng.choice(np.arange(1, n - K * min_len + K), K - 1, replace=False))
    cuts = bars + np.arange(1, K) * (min_len - 1)
    return Partition(np.concatenate(([0], cuts, [n])))


def multi_start_iterative(
    signal: Signal,
    K: int,
    p: int,
    n_random_starts: int = 10,
    seed: int | None = None,
    max_iter: int = 100,
    tol: float = 1e-6,
    min_segment_length: int | None = None,
) -> PiecewiseFit:
    """iterative_fisher from a uniform partition plus n_random_starts
    partitions from random_partition; returns the fit with smallest J, which
    keeps the seed. Deterministic given the seed. Every start maps the signal
    to the same fit times and values. ValueError unless n_random_starts >= 0
    and max_iter >= 1."""
    min_segment_length = _check_request(signal.n, K, min_segment_length, p)
    if n_random_starts < 0 or max_iter < 1:
        raise ValueError(
            f"require n_random_starts >= 0 and max_iter >= 1, got "
            f"n_random_starts={n_random_starts}, max_iter={max_iter}"
        )
    rng = np.random.default_rng(seed)
    starts = [uniform_partition(signal.n, K, min_segment_length)]
    for _ in range(n_random_starts):
        starts.append(random_partition(rng, signal.n, K, min_segment_length))
    fits = [
        iterative_fisher(signal, K, p, init, max_iter, tol, min_segment_length)
        for init in starts
    ]
    return replace(min(fits, key=lambda f: f.criterion_j), seed=seed)
