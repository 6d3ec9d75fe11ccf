"""Piecewise polynomial regression.

Exact global minimization of the segmentation criterion
J = sum_k sum_{i in segment k} [log sigma_k^2 + (x_i - beta_k^T r_i)^2 / sigma_k^2]
by dynamic programming, plus a faster iterative variant that alternates
per-segment regression with a fixed-parameter re-segmentation. Each fitter
fits the FitProblem of its signal, which maps the signal in and the result
back; the PiecewiseFit names the fitter that made it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import FitProblem, GaussianComponent, Signal, TimeMap, design_matrix
from .errors import InfeasibleError, LengthMismatchError, NumericalError


# Round limit of every iterative_fisher fit; fixed, with no option.
_MAX_ROUNDS = 100
# Columns per block of the packed cost matrix, and per DP candidate block.
_DP_BLOCK = 32


def default_min_segment_length(p: int) -> int:
    # p+1 points interpolate exactly; one extra keeps the variance informative
    return p + 2


def _check_orders(K: int, p: int, min_len: int, q: int = 0) -> None:
    """The one order check of every fit: ValueError for K < 1, p < 0,
    min_len < 1 or logistic degree q < 0."""
    if K < 1 or p < 0 or q < 0 or min_len < 1:
        raise ValueError(f"require K >= 1, p >= 0, q >= 0, min length >= 1; "
                         f"got K={K}, p={p}, q={q}, min length={min_len}")


def _check_request(n: int, K: int, min_len: int, p: int = 0) -> int:
    """The one entry check for K segments of at least min_len samples each
    over n samples; returns min_len. ValueError for K < 1, p < 0 or
    min_len < 1, InfeasibleError for n < K * min_len."""
    _check_orders(K, p, min_len)
    if n < K * min_len:
        raise InfeasibleError(f"n={n} < K*min_len={K * min_len}")
    return min_len


@dataclass(frozen=True)
class Partition:
    """Segment boundaries as indices gamma_1=0 < ... < gamma_{K+1}=n.

    Segment k (1-based) covers sample indices gamma_k .. gamma_{k+1}-1
    (0-based), i.e. the half-open index range [gamma_k, gamma_{k+1}).
    ValueError unless gamma holds at least two finite integral values that
    increase strictly from 0.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma)
        if (g.ndim != 1 or len(g) < 2 or not np.all(np.isfinite(g)) or np.any(np.trunc(g) != g)
                or g[0] != 0 or np.any(np.diff(g) <= 0)):
            raise ValueError(f"invalid partition boundaries {g}")
        object.__setattr__(self, "gamma", g.astype(int))

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
    if len(components) != partition.K:
        raise LengthMismatchError(f"{len(components)} components for {partition.K} segments")
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
        return float(-0.5 * (self.criterion_j + self.partition.n * np.log(2.0 * np.pi)))

    def expectation(self, t) -> np.ndarray:
        """Fitted mean curve at the signal times t: the active segment's
        polynomial at each sample."""
        return piecewise_mean(self.partition, self.components, self.time_map(t))


def _floored_cost(sse, m, signal: Signal, out=None):
    """Cost m*log(s2) + sse/s2 with s2 = max(sse/m, signal.variance_floor),
    elementwise, written to out if given. Returns (cost, s2)."""
    s2 = np.maximum(sse / m, signal.variance_floor)
    return np.add(m * np.log(s2), sse / s2, out=out), s2


def segment_cost(signal: Signal, a: int, b: int, p: int) -> tuple[float, GaussianComponent]:
    """OLS fit of samples in the index range (a, b] (0-based: a..b-1) and its
    segmentation cost sum_i [log s2 + resid^2/s2]: the one per-segment fit
    of the package, behind every fit's components and iterative_fisher's J.
    The fit runs on times and values shifted to the segment's first sample,
    t - t[a] and x - x[a], the least-squares problem build_cost_matrix
    solves for the entry (a, b), so epoch times, offsets and constant values
    lose no precision. The shifted coefficients are then mapped back to a
    polynomial in t by Horner's (Taylor) shift by t[a], and x[a] is added
    to beta_0. Fewer than p + 1 samples get lstsq's minimum-norm fit.
    ValueError unless 0 <= a < b <= n and p >= 0; NumericalError where
    the shifted times or their powers overflow, checked before the design
    is built, or where lstsq fails."""
    if not 0 <= a < b <= signal.n:
        raise ValueError(f"segment ({a},{b}] is empty or outside 0..{signal.n}")
    _check_orders(1, p, 1)
    t0, y = signal.t[a], signal.x[a:b] - signal.x[a]
    # the shifted times run from 0 up to span, so no entry of their design
    # exceeds 1 or span^p, multiplied out here as design_matrix does it: if
    # that is finite, building the design cannot overflow
    span = top = float(signal.t[b - 1]) - float(t0)
    for _ in range(p - 1):
        top *= span
    if not math.isfinite(top):
        raise NumericalError(f"design of segment ({a},{b}] overflows: times "
                             f"{signal.t[a]:.3g} to {signal.t[b - 1]:.3g} at degree {p}")
    T = design_matrix(signal.t[a:b] - t0, p)
    try:
        beta = np.linalg.lstsq(T, y, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least squares of segment ({a},{b}] failed: {exc}") from None
    resid = y - T @ beta
    cost, s2 = _floored_cost(float(resid @ resid), b - a, signal)
    # p passes of Horner's scheme turn beta(t - t0) into coefficients in t
    for i in range(p):
        for k in range(p - 1, i - 1, -1):
            beta[k] -= t0 * beta[k + 1]
    beta[0] += signal.x[a]
    return cost, GaussianComponent(beta, s2)


def _block_offsets(n: int, min_len: int) -> list[int]:
    """Row offsets of the stored cost blocks: block k, columns b in
    [32k, 32k + 32) of the dense (n+1) x (n+1) matrix, holds its rows
    h < top_k = min(32k + 32, n + 1) - min_len (none when top_k <= 0) at
    rows offsets[k]:offsets[k + 1] of the packed array."""
    top = np.minimum(np.arange(_DP_BLOCK, n + 1 + _DP_BLOCK, _DP_BLOCK), n + 1) - min_len
    return [0, *np.cumsum(np.maximum(top, 0)).tolist()]


def build_cost_matrix(signal: Signal, p: int) -> np.ndarray:
    """One-segment costs, packed in the 32-column blocks that _dp_tables
    reads; the dense entry (a, b) is the cost of fitting samples (a, b].
    Ranges shorter than the p + 2 samples a piecewise fit needs
    (b - a < p + 2) are +inf, and only those inside a block are stored.
    ValueError for p < 0.

    Block k covers the dense columns b in [32k, 32k + 32) and holds their
    rows h < top_k = min(32k + 32, n + 1) - (p + 2), the rows any of its
    columns can split at. The blocks are stacked in one Fortran-ordered
    (sum_k top_k) x 32 float64 array, block k at rows
    _block_offsets(n, p + 2)[k] onward, so dense (a, b) is packed
    (offsets[b // 32] + a, b % 32) for a < top_{b // 32}. Inside a block
    the small triangle a > b - (p + 2) holds +inf, and so do the columns of
    the last block past b = n. That is about 8 ((n+1)^2 / 2 + 16 (n+1)),
    or 4 (n+1)^2, bytes, half the dense matrix: 16.4 MB at n = 2000. Where
    that one allocation fails, InfeasibleError names n and the bytes.

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
    lstsq's rank cutoff drops such a column. The pass runs on the times
    scaled by the power of two 2^(3 - e), e the binary exponent of
    t[-1] - t[0], so that their span lies in [4, 8): every intermediate then
    scales by an exact power of two, the costs are those of the unscaled
    times bit for bit, and no power of a gap overflows however large the
    raw times are. e is one more than the exponent of the half span
    t[-1] / 2 - t[0] / 2, which is finite for any finite times, also where
    the span itself overflows. fisher_dp's fit time u has span 5 and gets
    factor 1.

    Column j runs in blocks of 32, columns j in [32k, 32k + 32), and every
    rotation of a column runs on all starts a < L = min(32k + 32, n), with
    no per-start bounds: padding makes each rotation the identity on a
    start that has no row for it. A start with m rows has weights
    D_0..D_{m-1}; its D_i for i >= m hold 1, and rotation m - 1, which
    meets D_{m-1} = 0 (set just before it), leaves w = 0. Rotation i > m - 1
    then takes e = 1, cbar = 1 and sbar = 0 and leaves that start as it
    was. The starts a > j, which have no row yet, read the m-indexed
    vectors past m = 0, padded with 1/m = 0 and w = 0, and stay at their
    zero factor. The exception is a start whose rotation m - 1 meets e = 0
    with w != 0: its w stays nonzero, so its D_i for i >= m are set to 0
    there, once, and each later rotation updates them. Where the rotations
    overflow, as where a gap's square is subnormal and a pivot nearly zero,
    a start's residual sum of squares, which only accumulates, ends
    non-finite: NumericalError names p, the start and the times; its
    sample attribute is the start.
    """
    _check_orders(1, p, 1)
    min_len = default_min_segment_length(p)
    n = signal.n
    t = np.ldexp(signal.t, 2 - np.frexp(signal.t[-1] / 2 - signal.t[0] / 2)[1])
    x = signal.x
    d = p + 1
    offsets = _block_offsets(n, min_len)
    # the DP reads columns, each a contiguous slice of its block
    try:
        out = np.full((offsets[-1], _DP_BLOCK), np.inf, order="F")
    except MemoryError:
        raise InfeasibleError(f"n={n} needs a cost matrix of {8 * _DP_BLOCK * offsets[-1]} "
                              "bytes, more than this process can allocate") from None
    # R[:, :, a]: the factor of start a, D_i on the diagonal and Rbar_i right
    # of it; D_0 is never read, so it is not stored, and D_i holds 1 until
    # the start's (i+1)-th row arrives
    R = np.zeros((d, d + 1, n))
    for i in range(1, d):
        R[i, i] = 1.0
    sse = np.zeros(n)
    # start a of column j holds m = j + 1 - a rows; the vectors indexed by m
    # run from m = n down to 1 - _DP_BLOCK, so column j reads them from
    # n - 1 - j on, and 1/m and w are 0 for m <= 0
    m = np.arange(n, -_DP_BLOCK, -1, dtype=float)
    inv_m, w_m = np.zeros((2, n + _DP_BLOCK))
    inv_m[:n] = 1.0 / m[:n]
    w_m[:n] = (m[:n] - 1) / m[:n]  # the weight after rotation 0
    # the incoming row of every start; row 0, the all-ones column, is never
    # read, since rotation 0 against it is in closed form
    v_all = np.empty((d + 1, n))
    w_all, wv_all, e_all, c_all, s_all = np.empty((5, n))
    sv_all = np.empty((d, n))
    vR_all = np.empty((d, n))
    zeroed = set()  # the starts whose rotation m - 1 met e = 0 with w != 0
    # x/0 where e = 0, replaced below; overflow is checked on sse at the end
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j0 in range(0, n, _DP_BLOCK):
            L = min(j0 + _DP_BLOCK, n)
            tL, xL, sseL = t[:L], x[:L], sse[:L]
            v, w, wv, e, c, s = v_all[:, :L], w_all[:L], wv_all[:L], e_all[:L], c_all[:L], s_all[:L]
            R0, v0, sv0 = R[0, 1:, :L], v[1:], sv_all[:, :L]
            rotations = [(R[i, i, :L], v[i], R[i, i + 1 :, :L], v[i + 1 :],
                          sv_all[: d - i, :L], vR_all[: d - i, :L]) for i in range(1, d)]
            for j in range(j0, L):
                k0 = n - 1 - j  # column j's offset into the vectors indexed by m
                if d > 1:
                    np.subtract(t[j], tL, out=v[1])
                    for k in range(2, d):
                        np.multiply(v[k - 1], v[1], out=v[k])
                np.subtract(x[j], xL, out=v[d])
                # rotation 0: the running mean of every column right of the ones
                v0 -= R0
                R0 += np.multiply(v0, inv_m[k0 : k0 + L], out=sv0)
                wj = w_m[k0 : k0 + L]
                for i, (Dii, vii, Ri, vi, sv, vR) in enumerate(rotations, 1):
                    a = j - i  # the start that gets its (i+1)-th row
                    if a >= 0 and a not in zeroed:
                        Dii[a] = 0.0
                    np.multiply(wj, vii, out=wv)
                    np.multiply(wv, vii, out=e)
                    e += Dii
                    np.divide(Dii, e, out=c)
                    np.divide(wv, e, out=s)
                    if np.count_nonzero(e) != L:
                        zero = e == 0
                        c[zero] = 1.0
                        s[zero] = 0.0
                        if a >= 0 and zero[a] and wj[a] != 0 and a not in zeroed:
                            zeroed.add(a)
                            for later in rotations[i:]:
                                later[0][a] = 0.0
                    Dii[...] = e
                    wj = np.multiply(wj, c, out=w)
                    # Miller's order: both updates read the old Rbar_ik and v_k
                    np.multiply(vi, s, out=sv)
                    np.multiply(Ri, vii, out=vR)
                    vi -= vR
                    Ri *= c
                    Ri += sv
                vd2 = np.multiply(v[d], v[d], out=wv)
                vd2 *= wj
                sseL += vd2
                feasible = j + 2 - min_len  # starts a with j + 1 - a >= min_len
                if feasible > 0:
                    block, col = divmod(j + 1, _DP_BLOCK)
                    r0 = offsets[block]
                    _floored_cost(sse[:feasible], m[k0 : k0 + feasible], signal,
                                  out=out[r0 : r0 + feasible, col])
    # the starts a <= n - min_len, which hold a feasible cost
    bad = np.flatnonzero(~np.isfinite(sse[: max(n + 1 - min_len, 0)]))
    if len(bad):
        raise _overflow_error(p, int(bad[0]), signal.t)
    return out


def _overflow_error(p: int, a: int, t) -> NumericalError:
    """build_cost_matrix's NumericalError for rotations from sample a that
    overflow, naming the times t."""
    exc = NumericalError(f"segment costs overflow at degree {p}: the rotations from sample "
                         f"{a}, time {t[a]:.3g} of {t[0]:.3g} to {t[-1]:.3g}, are not finite")
    exc.sample = a
    return exc


def _dp_tables(cost: np.ndarray, n: int, K: int,
               min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal costs C[k, b] for splitting samples (0, b] into k segments,
    and argmin split indices H[k, b] (start of the last segment): levels
    1..K-1 at every b, level K >= 2 at b = n only (elsewhere +inf and 0).
    cost is build_cost_matrix's packed blocks for n samples and
    min_len = p + 2.

    C[k, b] = min over h <= b - min_len of C[k-1, h] + cost[h, b], and
    argmin takes the first minimum, so ties go to the smallest split. C[1]
    is row 0 of the blocks. A level k < K takes one stored block at a time,
    every column over every row it holds, from the block that holds column
    k * min_len on; level K takes the one column b = n of the last block. A
    row past column b's own last split h = b - min_len holds
    cost[h, b] = +inf, so it never wins, and a column b below k * min_len
    has no finite candidate and keeps +inf and 0."""
    offsets = _block_offsets(n, min_len)
    C = np.full((K + 1, n + 1), np.inf)
    H = np.zeros((K + 1, n + 1), dtype=int)
    blocks = [(b0, cost[r0:r1, : min(_DP_BLOCK, n + 1 - b0)])
              for b0, r0, r1 in zip(range(0, n + 1, _DP_BLOCK), offsets, offsets[1:])]
    for b0, block in blocks:
        if len(block):
            C[1, b0 : b0 + block.shape[1]] = block[0]
    for k in range(2, K + 1):
        if k < K:
            level = blocks[k * min_len // _DP_BLOCK :]
        else:  # the one column b = n of the last block
            b0, block = blocks[-1]
            level = [(n, block[:, n - b0 :])]
        for b0, block in level:
            top, width = block.shape
            cand = C[k - 1, :top, None] + block
            h = cand.argmin(axis=0)
            C[k, b0 : b0 + width] = cand[h, np.arange(width)]
            H[k, b0 : b0 + width] = h
    return C, H


def _backtrack(H: np.ndarray, K: int, n: int) -> Partition:
    gamma = np.empty(K + 1, dtype=int)
    gamma[K] = n
    for k in range(K, 1, -1):
        gamma[k - 1] = H[k, gamma[k]]
    gamma[0] = 0
    return Partition(gamma)


def _refit(
    signal: Signal, p: int, partition: Partition, segments: dict | None = None
) -> tuple[tuple[GaussianComponent, ...], float]:
    """segment_cost on every segment of a partition: the components and the
    total cost J. segments, when given, maps each segment (a, b) fitted
    before to its segment_cost result; it is read, and filled with the
    segments fitted now."""
    segments = {} if segments is None else segments
    bounds = partition.gamma.tolist()
    fits = []
    for a, b in zip(bounds, bounds[1:]):
        if (a, b) not in segments:
            segments[a, b] = segment_cost(signal, a, b, p)
        fits.append(segments[a, b])
    return tuple(comp for _, comp in fits), sum(cost for cost, _ in fits)


def fisher_dp(signal: Signal, K: int, p: int) -> PiecewiseFit:
    """Globally optimal piecewise polynomial fit with K segments of at least
    default_min_segment_length(p) = p + 2 samples each, by dynamic
    programming over the one-segment cost matrix (shorter ranges +inf). The
    matrix is build_cost_matrix's 32-column blocks, which store only the
    rows each block's columns can split at: about 4 (n+1)^2 bytes, half the
    dense matrix. Ties in the split argmin go to the smallest index.
    _dp_tables fills levels 1..K-1 for every sample count b and level K at
    b = n only, where J is C[K, n] and the backtrack starts. ValueError for
    K < 1 or p < 0, InfeasibleError for n < K (p + 2), NumericalError where
    the cost matrix's rotations overflow; its message gives the times of
    signal, not fit times u.

    J is the paper's criterion, with no penalty. Past the true number of
    segments, the optimum spends the extra ones on segments of the minimum
    p + 2 samples whose variance is near 0: such a segment keeps one
    residual degree of freedom, and among the many windows of a long signal
    some nearly interpolate, which lowers J."""
    min_len = _check_request(signal.n, K, default_min_segment_length(p), p)
    problem = FitProblem.of(signal)
    try:
        cost = build_cost_matrix(problem.signal, p)
    except NumericalError as exc:
        if not hasattr(exc, "sample"):
            raise
        # its message gives fit times u: give the signal's own
        raise _overflow_error(p, exc.sample, signal.t) from None
    C, H = _dp_tables(cost, signal.n, K, min_len)
    partition = _backtrack(H, K, signal.n)
    components, _ = _refit(problem.signal, p, partition)
    return _piecewise_fit(problem, "piecewise_dp", partition, components, float(C[K, signal.n]))


def _piecewise_fit(problem: FitProblem, model: str, partition: Partition, components,
                   j: float, trace=None) -> PiecewiseFit:
    """The PiecewiseFit of a fit on problem.signal, mapped back by problem;
    J and its trace as Python floats."""
    comps = problem.components_to_x([c.beta for c in components], [c.sigma2 for c in components])
    j_trace = None if trace is None else tuple(float(problem.j_to_x(tj)) for tj in trace)
    return PiecewiseFit(partition, comps, float(problem.j_to_x(j)), problem.time_map, model,
                        j_trace)


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
        h0, h1 = b0 - min_len, n - min_len + 1  # split h is eligible at b = h + min_len
        cand = D[k - 1, h0:h1] - cum[k - 1, h0:h1]
        cand[np.isnan(cand)] = np.inf
        best = np.minimum.accumulate(cand)
        # a split takes over only when strictly below every earlier candidate
        improves = cand < np.concatenate(([np.inf], best[:-1]))
        D[k, b0:] = best + cum[k - 1, b0:]
        H[k, b0:] = np.maximum.accumulate(np.where(improves, np.arange(h0, h1), 0))
    if not np.isfinite(D[K, n]):
        raise NumericalError(f"re-segmentation cost {D[K, n]} is not finite")
    return _backtrack(H, K, n), float(D[K, n])


class _Steps:
    """The regression and segmentation steps of the iterative fits of one
    signal at degree p. The signal is mapped by FitProblem.of, and the
    design matrix of its fit times built, once. refit(partition) is _refit
    on the fit signal: the components and J, with each segment fitted once
    across all partitions. resegment(partition, components) is
    _fixed_param_segmentation at the partition's refit components: the next
    partition, taken once per partition. Both are pure functions of the
    partition, so a fit that reaches a partition an earlier one took reads
    the tables and gets the same bits."""

    def __init__(self, signal: Signal, p: int):
        self.problem = FitProblem.of(signal)
        self.p = p
        self.T = design_matrix(self.problem.signal.t, p)
        self._segments: dict = {}
        self._segmentations: dict = {}

    def refit(self, partition: Partition) -> tuple[tuple[GaussianComponent, ...], float]:
        return _refit(self.problem.signal, self.p, partition, self._segments)

    def resegment(self, partition: Partition, components) -> Partition:
        key = partition.gamma.tobytes()
        if key not in self._segmentations:
            self._segmentations[key], _ = _fixed_param_segmentation(
                self.problem.signal, self.T, components, default_min_segment_length(self.p))
        return self._segmentations[key]


def iterative_fisher(signal: Signal, K: int, p: int, init: Partition, *,
                     _steps: _Steps | None = None) -> PiecewiseFit:
    """Local minimization of J over partitions into K segments of at least
    p + 2 samples: alternate per-segment OLS by segment_cost (regression
    step) with dynamic-programming re-segmentation at fixed parameters on
    the design matrix of the fit-time signal (segmentation step), both on
    the fit values. The fit stops at the first round that leaves J where it
    was, or after _MAX_ROUNDS = 100 rounds, fixed, with no option; a round
    that raises J ends it unkept. A segmentation step that returns the
    current partition gets that partition's components and J back from
    segments fitted before, so J repeats, the fit stops, and j_trace ends
    with J repeated. Both steps come from tables (_Steps) that fit each
    segment once and re-segment each partition once: a call has its own,
    and multi_start_iterative shares them across its starts through the
    private _steps. ValueError for K < 1 or
    p < 0, InfeasibleError for n < K (p + 2) or an init that is not such a
    partition."""
    n = signal.n
    min_len = _check_request(n, K, default_min_segment_length(p), p)
    if init.K != K or init.n != n or np.any(np.diff(init.gamma) < min_len):
        raise InfeasibleError(f"initial partition {init.gamma} is not feasible")

    steps = _Steps(signal, p) if _steps is None else _steps
    partition = init
    components, j = steps.refit(partition)
    trace = [j]
    for _ in range(_MAX_ROUNDS):
        partition_new = steps.resegment(partition, components)
        components_new, j_new = steps.refit(partition_new)
        if j_new > j:  # numerically impossible up to roundoff; keep the better state
            break
        converged = j_new == j
        partition, components, j = partition_new, components_new, j_new
        trace.append(j)
        if converged:
            break
    return _piecewise_fit(steps.problem, "piecewise_iterative", partition, components, j, trace)


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
) -> PiecewiseFit:
    """iterative_fisher from a uniform partition plus n_random_starts
    partitions from random_partition, all with segments of at least p + 2
    samples; returns the fit with smallest J, which keeps the seed.
    Deterministic given the seed. The starts share one set of steps
    (_Steps): it maps the signal to fit times and values once, fits each
    segment once and re-segments each partition once, so a partition that
    an earlier start reached is refitted from segments already fitted and
    not re-segmented again. Each start is one iterative_fisher call, whose fit
    is the one a direct call returns, bit for bit, and stops by its rule,
    whose 100-round limit is fixed, with no option. ValueError unless
    n_random_starts >= 0."""
    min_len = _check_request(signal.n, K, default_min_segment_length(p), p)
    if n_random_starts < 0:
        raise ValueError(f"require n_random_starts >= 0, got n_random_starts={n_random_starts}")
    rng = np.random.default_rng(seed)
    starts = [uniform_partition(signal.n, K, min_len)]
    for _ in range(n_random_starts):
        starts.append(random_partition(rng, signal.n, K, min_len))
    steps = _Steps(signal, p)
    fits = [iterative_fisher(signal, K, p, init, _steps=steps) for init in starts]
    return replace(min(fits, key=lambda f: f.criterion_j), seed=seed)
