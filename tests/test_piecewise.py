import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rhlpseg import core, piecewise
from rhlpseg.core import FitProblem, GaussianComponent, Signal, design_matrix
from rhlpseg.errors import InfeasibleError, LengthMismatchError, NumericalError
from rhlpseg.piecewise import (
    Partition,
    _backtrack,
    _dp_tables,
    _fixed_param_segmentation,
    _floored_cost,
    _refit,
    build_cost_matrix,
    default_min_segment_length,
    fisher_dp,
    iterative_fisher,
    multi_start_iterative,
    piecewise_mean,
    random_partition,
    segment_cost,
    uniform_partition,
)
from rhlpseg.simulate import SCENARIOS, SITUATION_1, simulate_piecewise


def oracle_segment_cost(signal, a, b, p):
    """Independent re-implementation via raw normal equations."""
    t, x = signal.t[a:b], signal.x[a:b]
    T = design_matrix(t, p)
    beta = np.linalg.solve(T.T @ T, T.T @ x)
    sse = np.sum((x - T @ beta) ** 2)
    s2 = max(sse / (b - a), signal.variance_floor)
    return (b - a) * np.log(s2) + sse / s2


def _dp_tables_loop(cost, K, min_len):
    """Reference recursion: one argmin per (k, b), which the blocked
    _dp_tables must reproduce bit for bit."""
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


def cost_blocks(n, min_len):
    """(first column, column count, rows) of each 32-column block of the
    packed cost matrix: block k covers columns [32k, 32k + 32) and holds
    the rows h < min(32k + 32, n + 1) - min_len, stacked in block order."""
    return [(b0, min(32, n + 1 - b0), max(min(b0 + 32, n + 1) - min_len, 0))
            for b0 in range(0, n + 1, 32)]


def dense_costs(packed, n, min_len):
    """The (n+1) x (n+1) cost matrix of build_cost_matrix's packed blocks,
    +inf below each block's rows. The packed array must be one
    Fortran-ordered float64 array of exactly those blocks, 32 columns wide,
    with +inf in the last block's columns past n."""
    assert packed.dtype == np.float64 and packed.flags.f_contiguous
    blocks = cost_blocks(n, min_len)
    assert packed.shape == (sum(rows for _, _, rows in blocks), 32)
    dense = np.full((n + 1, n + 1), np.inf)
    r0 = 0
    for b0, width, rows in blocks:
        dense[:rows, b0 : b0 + width] = packed[r0 : r0 + rows, :width]
        assert np.all(packed[r0 : r0 + rows, width:] == np.inf)
        r0 += rows
    return dense


def dense_cost_matrix(signal, p):
    """build_cost_matrix(signal, p) as a dense (n+1) x (n+1) matrix."""
    return dense_costs(build_cost_matrix(signal, p), signal.n, default_min_segment_length(p))


def packed_costs(dense, min_len, order="F"):
    """The packed blocks of a dense cost matrix that is +inf on every range
    shorter than min_len, laid out as build_cost_matrix lays them out."""
    n = dense.shape[0] - 1
    packed = []
    for b0, width, rows in cost_blocks(n, min_len):
        assert np.all(dense[rows:, b0 : b0 + width] == np.inf)
        block = np.full((rows, 32), np.inf)
        block[:, :width] = dense[:rows, b0 : b0 + width]
        packed.append(block)
    return np.asarray(np.concatenate(packed), order=order)


def random_dp_costs(n, min_len, levels, inf_frac, seed):
    """Dense cost matrix for the recursion tests: entries drawn from
    `levels` integers, so they tie exactly, a share inf_frac of them +inf,
    and, as in build_cost_matrix, +inf on every range shorter than
    min_len."""
    rng = np.random.default_rng(seed)
    cost = rng.integers(-levels, levels, size=(n + 1, n + 1)).astype(float)
    cost[rng.random(cost.shape) < inf_frac] = np.inf
    cost[np.subtract.outer(np.arange(n + 1), np.arange(n + 1)) > -min_len] = np.inf
    return cost


def scalar_givens_costs(signal, p):
    """Reference cost matrix: each start's rows rotated in one at a time by
    scalar square-root-free Givens rotations, all p + 1 of them on every
    row, in the kernel's operand order, with the kernel's closed-form
    rotation 0 and its _floored_cost per column; e = 0 is the identity, and
    ranges shorter than p + 2 are +inf. Also returns the (rows, i, j) of
    every rotation i >= 1 that met e = 0 with w != 0 on a start with more
    than i rows, j the column (the start's newest sample)."""
    n, d, min_len = signal.n, p + 1, default_min_segment_length(p)
    t, x = signal.t, signal.x
    m = np.arange(n, 0, -1, dtype=float)
    inv_m, w_m = 1.0 / m, (m - 1) / m
    sse = np.zeros((n, n))  # sse[j, a]: of the rows a..j
    zero_pivots = []
    for a in range(n):
        R = np.zeros((d, d + 1))  # D_i on the diagonal, Rbar_i right of it
        acc = np.float64(0.0)
        for j in range(a, n):
            rows = j + 1 - a
            dt = t[j] - t[a]
            v = np.empty(d + 1)
            v[0] = 1.0
            for k in range(1, d):
                v[k] = v[k - 1] * dt
            v[d] = x[j] - x[a]
            for k in range(1, d + 1):
                v[k] = v[k] - R[0, k]
                R[0, k] = R[0, k] + v[k] * inv_m[n - rows]
            w = w_m[n - rows]
            for i in range(1, d):
                wv = w * v[i]
                e = wv * v[i] + R[i, i]
                if e == 0:
                    c, s = np.float64(1.0), np.float64(0.0)
                    if rows > i and w != 0:
                        zero_pivots.append((rows, i, j))
                else:
                    c, s = R[i, i] / e, wv / e
                R[i, i] = e
                w = w * c
                for k in range(i + 1, d + 1):
                    Rk, vk = R[i, k], v[k]
                    v[k] = vk - Rk * v[i]
                    R[i, k] = Rk * c + vk * s
            acc = acc + v[d] * v[d] * w
            sse[j, a] = acc
    out = np.full((n + 1, n + 1), np.inf)
    for j in range(n):
        feasible = j + 2 - min_len
        if feasible > 0:
            out[:feasible, j + 1] = _floored_cost(
                sse[j, :feasible], m[n - 1 - j : n - 1 - j + feasible], signal
            )[0]
    return out, zero_pivots


def tiny_gap_signal():
    """Twelve samples 1e-200 apart, then 28 spaced by 0.1: the square of a
    leading gap underflows to zero."""
    t = np.concatenate((np.arange(12) * 1e-200, 1.0 + np.arange(28) * 0.1))
    return Signal(t, np.random.default_rng(0).normal(size=40))


def zero_cluster_signal():
    """26 times before 0, then 44 times 1e-200 apart from 0, then 30 from 1
    on: the squared gaps inside the cluster underflow, so each of its starts
    meets a zero pivot with rows = 2, and keeps rotating, on the columns 27
    to 69, across the block edges at 32 and 64."""
    rng = np.random.default_rng(0)
    t = np.concatenate((-np.cumsum(rng.uniform(0.5, 2, 26))[::-1], np.arange(44) * 1e-200,
                        1 + np.cumsum(rng.uniform(0.5, 2, 30))))
    return Signal(t, rng.normal(size=100))


def near_duplicate_signal(seed=37):
    """Eight uneven times, every third followed by the next larger double:
    on some starts a row's entry cancels to exactly zero (with seed 37, at
    the rotation that would make a start's last pivot)."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.uniform(0.5, 2, 8))
    t = np.sort(np.concatenate((base, np.nextafter(base[::3], np.inf))))
    return Signal(t, rng.normal(size=len(t)))


def embedded_near_duplicate_signal():
    """near_duplicate_signal() with 60 samples before it and 29 after, 100
    in all. Its times and values keep their bits, and the pass's scale
    changes by a power of two, so its start that meets e = 0 with w != 0 at
    rotation 3, with 4 rows, does so here at column 65."""
    core = near_duplicate_signal()
    rng = np.random.default_rng(1)
    t = np.concatenate((-np.cumsum(rng.uniform(0.5, 2, 60))[::-1], core.t,
                        core.t[-1] + np.cumsum(rng.uniform(0.5, 2, 29))))
    return Signal(t, np.concatenate((rng.normal(size=60), core.x, rng.normal(size=29))))


def exact_sse(columns, y):
    """Residual sum of squares of y on the span of columns, all lists of
    Fractions, by exact Gram-Schmidt; a column in the span of the earlier
    ones leaves a zero vector and is skipped."""
    def dot(a, b):
        return sum(ai * bi for ai, bi in zip(a, b))

    basis = []
    for col in columns:
        for q, qq in basis:
            f = dot(col, q) / qq
            col = [ci - f * qi for ci, qi in zip(col, q)]
        if any(col):
            basis.append((col, dot(col, col)))
    return dot(y, y) - sum(dot(y, q) ** 2 / qq for q, qq in basis)


def _fixed_param_segmentation_loop(signal, components, min_len):
    """Reference re-segmentation: the per-sample running-minimum loop that
    the vectorized version must reproduce bit for bit."""
    n = signal.n
    K = len(components)
    cum = np.zeros((K, n + 1))
    for k, comp in enumerate(components):
        resid = signal.x - comp.mean(signal.t)
        cum[k, 1:] = np.cumsum(np.log(comp.sigma2) + resid**2 / comp.sigma2)

    D = np.full((K + 1, n + 1), np.inf)
    H = np.zeros((K + 1, n + 1), dtype=int)
    D[0, 0] = 0.0
    for k in range(1, K + 1):
        best = np.inf
        best_h = 0
        for b in range(k * min_len, n + 1):
            h = b - min_len  # newly eligible split point
            cand = D[k - 1, h] - cum[k - 1, h]
            if cand < best:
                best, best_h = cand, h
            D[k, b] = best + cum[k - 1, b]
            H[k, b] = best_h
    if not np.isfinite(D[K, n]):
        raise InfeasibleError(f"n={n} < K*min_len={K * min_len}")
    return _backtrack(H, K, n), float(D[K, n])


def iterative_fisher_always_refit(signal, p, init, max_iter):
    """Reference iterative fit: a regression step after every segmentation
    step, also when the partition did not change, and a stop once a round
    lowers J by less than 1e-6. Returns the partition, the components in the
    units of x, J and the J trace."""
    min_len = default_min_segment_length(p)
    problem = FitProblem.of(signal)
    signal = problem.signal
    T = design_matrix(signal.t, p)
    partition = init
    components, j = _refit(signal, p, partition)
    trace = [j]
    for _ in range(max_iter):
        partition_new, _ = _fixed_param_segmentation(signal, T, components, min_len)
        components_new, j_new = _refit(signal, p, partition_new)
        if j_new > j:
            break
        partition, components = partition_new, components_new
        converged = j - j_new < 1e-6
        j = j_new
        trace.append(j)
        if converged:
            break
    return (partition,
            problem.components_to_x([c.beta for c in components],
                                    [c.sigma2 for c in components]),
            problem.j_to_x(j), tuple(map(problem.j_to_x, trace)))


def exhaustive_best_j(signal, K, p, min_len):
    """Brute force over every feasible partition."""
    n = signal.n
    best = np.inf
    for cuts in itertools.combinations(range(1, n), K - 1):
        gamma = (0,) + cuts + (n,)
        if any(b - a < min_len for a, b in zip(gamma, gamma[1:])):
            continue
        j = sum(segment_cost(signal, a, b, p)[0] for a, b in zip(gamma, gamma[1:]))
        best = min(best, j)
    return best


def random_signal(rng, n, spread=1.0):
    t = np.sort(rng.uniform(0, 5, n))
    return Signal(t, rng.normal(scale=spread, size=n))


def epoch_signal(signal):
    """The same samples on epoch-second times (1.7e9 + i) with values offset
    by 1e3."""
    return Signal(1.7e9 + np.arange(signal.n), signal.x + 1e3)


def step_signal(seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, 100)
    x = np.where(np.arange(100) < 50, 0.0, 10.0) + 0.1 * rng.standard_normal(100)
    return Signal(t, x)


class TestSegmentCost:
    def test_hand_example_two_points(self):
        sig = Signal([0.0, 1.0], [1.0, 3.0])
        cost, comp = segment_cost(sig, 0, 2, p=0)
        assert comp.beta[0] == pytest.approx(2.0)
        assert comp.sigma2 == pytest.approx(1.0)
        assert cost == pytest.approx(2.0)  # 2 * (log 1 + 1)

    def test_interpolation_clamps_variance(self):
        sig = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
        _, comp = segment_cost(sig, 0, 3, p=2)
        assert comp.sigma2 == sig.variance_floor

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        sig = random_signal(rng, 12)
        cost, _ = segment_cost(sig, 0, 12, p=1)
        assert cost == pytest.approx(oracle_segment_cost(sig, 0, 12, 1), rel=1e-8)

    @pytest.mark.parametrize("value", [1.0, 1e12, 2.0**600])
    def test_constant_values(self, value):
        # fitted shifted to x[a], every constant has zero residuals and the
        # floored cost 60 log(1e-12) = -1657.86
        sig = Signal(np.linspace(0.0, 5.0, 60), np.full(60, value))
        cost, comp = segment_cost(sig, 0, 60, p=2)
        assert cost == 60 * np.log(core.RELATIVE_VARIANCE_FLOOR)
        np.testing.assert_array_equal(comp.beta, [value, 0.0, 0.0])

    def test_short_cubics_match_exact_least_squares(self):
        # every 5-sample window at p = 3, among them (116, 121), which a fit
        # on the unshifted times missed by 4.1e-7 relative; the reference is
        # rational Gram-Schmidt on the raw times and values
        sig = random_signal(np.random.default_rng(5), 200)
        for a in range(sig.n - 4):
            u = [Fraction(tj) for tj in sig.t[a : a + 5]]
            y = [Fraction(xj) for xj in sig.x[a : a + 5]]
            sse = exact_sse([[uj**k for uj in u] for k in range(4)], y)
            ref = _floored_cost(float(sse), 5, sig)[0]
            cost, _ = segment_cost(sig, a, a + 5, 3)
            assert abs(cost - ref) <= 1e-12 * max(abs(ref), 5), a

    def test_too_short_raises(self):
        sig = Signal([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        for a, b in [(1, 1), (2, 1), (-1, 2), (0, 4)]:  # empty or out of range
            with pytest.raises(ValueError):
                segment_cost(sig, a, b, p=1)

    @pytest.mark.parametrize("t, p", [
        (1e200 * np.arange(10.0), 2), (np.array([-1e308, 0.0, 1e308]), 1),
    ], ids=["powers", "shift"])
    def test_overflowing_design_raises_before_lstsq(self, capfd, t, p):
        # checked before the design is built: no overflow warning, and no
        # LAPACK complaint about an infinite norm on stderr
        sig = Signal(t, np.arange(len(t), dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows"):
                segment_cost(sig, 0, len(t), p)
        assert capfd.readouterr().err == ""

    def test_lstsq_failure_raises_numerical_error(self, monkeypatch):
        # a LinAlgError from lstsq is a NumericalError
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
        sig = Signal(np.linspace(0, 5, 6), np.arange(6.0))
        with pytest.raises(NumericalError, match=r"segment \(1,5\] failed: SVD did not"):
            segment_cost(sig, 1, 5, p=1)


@pytest.mark.parametrize("call", [
    lambda sig: build_cost_matrix(sig, -1),
    lambda sig: segment_cost(sig, 0, 5, -1),
], ids=["matrix-p-1", "segment-p-1"])
def test_invalid_order_or_min_length_raises_the_entry_checks_error(call):
    sig = Signal(np.linspace(0, 5, 10), np.random.default_rng(3).normal(size=10))
    with pytest.raises(ValueError, match="require K >= 1, p >= 0, q >= 0, min length >= 1"):
        call(sig)


class TestCostMatrix:
    def test_small_enumeration(self):
        # p = 0: the finite entries are the ranges of at least 2 samples
        sig = Signal([0.0, 1.0, 2.0], [1.0, 0.0, 2.0])
        C = dense_cost_matrix(sig, p=0)
        finite = np.argwhere(np.isfinite(C))
        expected = {(a, b) for a in range(3) for b in range(a + 2, 4)}
        assert {tuple(e) for e in finite} == expected

    def test_min_length_is_not_an_argument(self):
        # the matrix is asked for by p alone: ranges shorter than p + 2 are +inf
        sig = random_signal(np.random.default_rng(0), 8)
        with pytest.raises(TypeError):
            build_cost_matrix(sig, 1, 3)
        with pytest.raises(TypeError, match="min_segment_length"):
            build_cost_matrix(sig, 1, min_segment_length=3)

    def test_infeasible_entries_are_inf(self):
        rng = np.random.default_rng(0)
        sig = random_signal(rng, 8)
        C = dense_cost_matrix(sig, p=1)  # min length 3
        assert np.isinf(C[0, 2]) and np.isinf(C[5, 5]) and np.isinf(C[5, 3])

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [5, 30, 31, 32, 40, 63, 64, 65, 200])
    def test_entries_match_segment_cost(self, n, p):
        # n + 1 below, at and above a multiple of the 32-column block, so
        # that the last block can be one column wide. Every entry of the
        # columns at a block edge, and 20 drawn ones, against segment_cost,
        # which solves the same shifted least-squares problem; the +inf
        # pattern is exact everywhere
        rng = np.random.default_rng(5)
        sig = random_signal(rng, n)
        C = dense_cost_matrix(sig, p)
        min_len = default_min_segment_length(p)
        rows = np.arange(n + 1)
        np.testing.assert_array_equal(np.isinf(C), np.subtract.outer(rows, rows) > -min_len)
        feasible = [(a, b) for b in range(min_len, n + 1) for a in range(b - min_len + 1)]
        drawn = rng.choice(len(feasible), min(20, len(feasible)), replace=False)
        edges = [(a, b) for a, b in feasible if b % 32 in (0, 1, 31) or b == n]
        for a, b in edges + [feasible[i] for i in drawn]:
            direct, _ = segment_cost(sig, a, b, p)
            assert C[a, b] == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_epoch_times_match_shifted_reference(self):
        # a reference of its own, lstsq on t - t[a] and the raw values, that
        # shares no code with the matrix or with segment_cost
        sig = epoch_signal(simulate_piecewise(SITUATION_1, 150, seed=3)[0])
        p, min_len = 2, default_min_segment_length(2)
        C = dense_cost_matrix(sig, p)
        for a in range(sig.n - min_len + 1):
            for b in range(a + min_len, sig.n + 1):
                T = design_matrix(sig.t[a:b] - sig.t[a], p)
                beta = np.linalg.lstsq(T, sig.x[a:b], rcond=None)[0]
                sse = np.sum((sig.x[a:b] - T @ beta) ** 2)
                s2 = max(sse / (b - a), sig.variance_floor)
                assert C[a, b] == pytest.approx((b - a) * np.log(s2) + sse / s2, rel=1e-9)

    def test_huge_times_stay_finite(self):
        # gaps of 1e60, whose sixth power, squared, would overflow on the raw
        # times; and times whose span t[-1] - t[0] itself overflows, where
        # the scale comes from the half span. The pass runs on times scaled
        # to a span in [4, 8), as it does for the twin t * 2^shift
        for t, p, n_feasible, shift in [
            (np.arange(12) * 1e60, 3, 36, -200),
            (np.array([-1e308, -7e307, -3e307, 0, 1e306, 5e307, 1.2e308, 1.75e308]),
             1, 21, -600),
        ]:
            sig = Signal(t, np.random.default_rng(4).normal(size=len(t)))
            C = dense_cost_matrix(sig, p)
            rows = np.arange(len(t) + 1)
            feasible = np.subtract.outer(rows, rows) <= -(p + 2)
            assert feasible.sum() == n_feasible and np.all(np.isfinite(C[feasible]))
            twin = Signal(np.ldexp(t, shift), sig.x)
            assert np.array_equal(dense_cost_matrix(twin, p), C)

    @pytest.mark.parametrize("make, p, rows_at_zero", [
        # the squared leading gaps underflow: a start with 3 or more rows
        # meets e = 0 at rotation 1
        (tiny_gap_signal, 2, lambda rows, i: rows > i + 1),
        # rotation m - 1 meets e = 0 with w != 0 on a start with m rows,
        # which then runs every later rotation; three segments of start 2,
        # of at least p + 2 = 6 samples, differ if it does not
        (near_duplicate_signal, 4, lambda rows, i: rows == i + 1),
    ], ids=["tiny-gaps", "near-duplicates"])
    def test_zero_pivots_match_scalar_givens(self, make, p, rows_at_zero):
        sig = make()
        ref, zero_pivots = scalar_givens_costs(sig, p)
        assert any(rows_at_zero(rows, i) for rows, i, _ in zero_pivots)
        assert np.array_equal(dense_cost_matrix(sig, p), ref)

    @pytest.mark.parametrize("make, p", [
        (make, p) for make in (zero_cluster_signal, embedded_near_duplicate_signal)
        for p in range(5)])
    def test_zero_pivots_past_the_first_block_match_scalar_givens(self, make, p):
        # the pass binds its views once per 32-column block and runs every
        # rotation on all of the block's starts. A start that meets a zero
        # pivot with rows = i + 1 and w != 0 keeps rotating: on the zero
        # cluster at p >= 1 across the block edges at 32 and 64, and on the
        # embedded near duplicates at p >= 3 from column 65 on, where at
        # p = 4 its rotation 4 moves D_4
        sig = make()
        ref, zero_pivots = scalar_givens_costs(sig, p)
        if p >= (1 if make is zero_cluster_signal else 3):
            assert max(j for rows, i, j in zero_pivots if rows == i + 1) >= 64
        assert np.array_equal(dense_cost_matrix(sig, p), ref)

    @pytest.mark.parametrize("seed", [22, 37])
    @pytest.mark.parametrize("p", [1, 2])
    def test_near_duplicates_match_exact_least_squares(self, seed, p):
        # times one ulp apart make the pivots nearly cancel; the reference
        # SSE is exact, from rational Gram-Schmidt on times and values
        # shifted to the segment's first sample
        sig = near_duplicate_signal(seed)
        min_len = default_min_segment_length(p)
        C = dense_cost_matrix(sig, p)
        for a in range(sig.n):
            for b in range(a + min_len, sig.n + 1):
                u = [Fraction(tj) - Fraction(sig.t[a]) for tj in sig.t[a:b]]
                y = [Fraction(xj) - Fraction(sig.x[a]) for xj in sig.x[a:b]]
                sse = exact_sse([[uj**k for uj in u] for k in range(p + 1)], y)
                ref = _floored_cost(float(sse), b - a, sig)[0]
                assert abs(C[a, b] - ref) <= 1e-12 * max(abs(C[a, b]), b - a)

    @given(
        p=st.integers(0, 3),
        gaps=st.lists(st.floats(0.01, 1e3), min_size=1, max_size=24),
        t0=st.sampled_from([0.0, 1e3, 1.7e9]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_uneven_and_epoch_times_match_scalar_givens(self, p, gaps, t0, seed):
        t = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
        sig = Signal(t, np.random.default_rng(seed).normal(size=len(t)))
        ref, _ = scalar_givens_costs(sig, p)
        assert np.array_equal(dense_cost_matrix(sig, p), ref)

    @given(
        p=st.integers(0, 3),
        gaps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=29),
        t0=st.floats(0.0, 1.7e9),
        x0=st.floats(-1e3, 1e3),
        flat=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_entries_match_shifted_lstsq(self, p, gaps, t0, x0, flat, seed):
        # uneven spacing, epoch-sized times, offset values and a constant
        # stretch on which the variance floor binds
        min_len = default_min_segment_length(p)
        t = t0 + np.concatenate(([0.0], np.cumsum(gaps)))
        x = x0 + np.random.default_rng(seed).normal(size=len(t))
        x[min(flat) : max(flat)] = x0
        sig = Signal(t, x)
        n = sig.n
        C = dense_cost_matrix(sig, p)
        ref = np.full((n + 1, n + 1), np.inf)
        for a in range(n):
            for b in range(a + min_len, n + 1):
                # the same least-squares problem as the kernel's, shifted to
                # sample a
                T = design_matrix(sig.t[a:b] - sig.t[a], p)
                y = sig.x[a:b] - sig.x[a]
                beta = np.linalg.lstsq(T, y, rcond=None)[0]
                sse = np.sum((y - T @ beta) ** 2)
                s2 = max(sse / (b - a), sig.variance_floor)
                ref[a, b] = (b - a) * np.log(s2) + sse / s2
        np.testing.assert_array_equal(np.isinf(C), np.isinf(ref))
        # a relative error e in the SSE moves the cost by (b - a) * e, and the
        # cost itself crosses zero where s2 is near 1/e
        m = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
        finite = np.isfinite(ref)
        err = np.abs(C[finite] - ref[finite])
        assert np.all(err <= 1e-9 * np.maximum(np.abs(ref[finite]), m[finite]))


# fisher_dp(K=3, p=2) at n = 500 before the cost-matrix pass dropped its
# per-rotation hypot against the all-ones column: (scenario, seed) -> (gamma, J)
PINNED_OPTIMA = {
    ("situation1", 0): ([0, 58, 399, 500], 1639.4849753933663),
    ("situation1", 1): ([0, 64, 399, 500], 1531.5805308070558),
    ("situation1", 2): ([0, 68, 399, 500], 1638.493672506668),
    ("situation1", 3): ([0, 60, 399, 500], 1631.5739407436176),
    ("situation2", 0): ([0, 98, 348, 500], 1625.8575078263418),
    ("situation2", 1): ([0, 95, 338, 500], 1515.099114002307),
    ("situation2", 2): ([0, 102, 352, 500], 1626.3440875370534),
    ("situation2", 3): ([0, 109, 336, 500], 1609.545819971574),
}
PINNED_EPOCH_OPTIMUM = ([0, 60, 399, 500], 1631.5739407436158)


class TestFisherDp:
    @pytest.mark.parametrize("scenario, seed", list(PINNED_OPTIMA))
    def test_pinned_optimum(self, scenario, seed):
        gamma, j = PINNED_OPTIMA[scenario, seed]
        sig = simulate_piecewise(SCENARIOS[scenario], 500, seed=seed)[0]
        fit = fisher_dp(sig, K=3, p=2)
        np.testing.assert_array_equal(fit.partition.gamma, gamma)
        assert fit.criterion_j == pytest.approx(j, rel=1e-12)

    def test_pinned_epoch_optimum(self):
        gamma, j = PINNED_EPOCH_OPTIMUM
        sig = epoch_signal(simulate_piecewise(SITUATION_1, 500, seed=3)[0])
        fit = fisher_dp(sig, K=3, p=2)
        np.testing.assert_array_equal(fit.partition.gamma, gamma)
        assert fit.criterion_j == pytest.approx(j, rel=1e-12)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [120, 500, 2000])
    @pytest.mark.parametrize("scenario", ["situation1", "situation2"])
    def test_refit_j_equals_the_tables_j(self, scenario, n, p):
        # the refit of the optimal partition for K = 1..6 costs what the
        # tables say it costs: segment_cost fits each segment on the shifted
        # times and values that the cost matrix fits it on
        for seed in range(3):
            sig = FitProblem.of(simulate_piecewise(SCENARIOS[scenario], n, seed=seed)[0]).signal
            C, H = _dp_tables(build_cost_matrix(sig, p), n, 6, default_min_segment_length(p))
            for K in range(1, 7):
                _, j = _refit(sig, p, _backtrack(H, K, n))
                assert abs(j - C[K, n]) <= 1e-12 * abs(C[K, n]), (seed, K)

    def test_peak_memory_is_about_half_the_dense_matrix(self):
        # the packed cost blocks hold about 8 (n+1)^2 / 2 bytes; the dense
        # (n+1) x (n+1) matrix alone would exceed the bound
        n = 2000
        sig = simulate_piecewise(SITUATION_1, n, seed=0)[0]
        tracemalloc.start()
        try:
            fisher_dp(sig, K=3, p=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * 8 * (n + 1) ** 2

    def test_single_segment_is_whole_ols(self):
        rng = np.random.default_rng(1)
        sig = random_signal(rng, 30)
        fit = fisher_dp(sig, K=1, p=1)
        # the components are in fit time and in the units of x: compare with
        # OLS on the values at the fit times
        cost, comp = segment_cost(Signal(fit.time_map(sig.t), sig.x), 0, 30, p=1)
        assert fit.criterion_j == pytest.approx(cost)
        np.testing.assert_allclose(fit.components[0].beta, comp.beta, rtol=1e-9)
        np.testing.assert_array_equal(fit.partition.gamma, [0, 30])
        # and its mean curve is the OLS line on the raw times
        _, raw = segment_cost(sig, 0, 30, p=1)
        np.testing.assert_allclose(fit.expectation(sig.t), raw.mean(sig.t), rtol=1e-9)

    def test_step_signal_changepoint(self):
        sig = step_signal()
        fit = fisher_dp(sig, K=2, p=0)
        # brute force over all single changepoints
        best = min(
            range(2, 99),
            key=lambda h: segment_cost(sig, 0, h, 0)[0] + segment_cost(sig, h, 100, 0)[0],
        )
        assert best == 50
        np.testing.assert_array_equal(fit.partition.gamma, [0, 50, 100])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 17))
        K = int(rng.integers(2, 4))
        p = int(rng.integers(0, 2))
        min_len = default_min_segment_length(p)
        if n < K * min_len:
            n = K * min_len + 2
        sig = random_signal(rng, n)
        fit = fisher_dp(sig, K, p)
        assert fit.criterion_j == pytest.approx(
            exhaustive_best_j(sig, K, p, min_len), abs=1e-9
        )

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [5, 25, 30, 31, 32, 63, 64, 65, 200])
    def test_dp_recursion_optimality(self, n, p):
        # n + 1 below, at and above a multiple of the 32-column block; K = 3
        # where n allows it. The tables equal the loop recursion on the dense
        # matrix bit for bit
        rng = np.random.default_rng(9)
        sig = random_signal(rng, n)
        min_len = default_min_segment_length(p)
        K = min(3, n // min_len)
        packed = build_cost_matrix(sig, p)
        cost = dense_costs(packed, n, min_len)
        C, H = _dp_tables(packed, n, K, min_len)
        # levels below K at every b, level K at b = n only
        cells = [(k, b) for k in range(2, K) for b in range(k * min_len, n + 1)]
        for k, b in cells + [(K, n)] * (K > 1):
            expected = min(
                C[k - 1, h] + cost[h, b] for h in range(b - min_len + 1)
            )
            assert C[k, b] == pytest.approx(expected, abs=1e-12)
        C_ref, H_ref = _dp_tables_loop(cost, K, min_len)
        assert np.array_equal(C[:K], C_ref[:K]) and np.array_equal(H[:K], H_ref[:K])
        assert C[K, n] == C_ref[K, n] and H[K, n] == H_ref[K, n]

    @given(
        K=st.integers(1, 5),
        min_len=st.integers(1, 4),
        extra=st.integers(0, 80),
        levels=st.sampled_from([1, 3, 1000]),
        inf_frac=st.sampled_from([0.0, 0.2, 0.9]),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**16),
    )
    @example(K=2, min_len=1, extra=30, levels=3, inf_frac=0.2, order="F", seed=0)  # n + 1 = 33
    @example(K=2, min_len=2, extra=27, levels=3, inf_frac=0.0, order="F", seed=1)  # one block
    @example(K=3, min_len=3, extra=54, levels=3, inf_frac=0.2, order="C", seed=2)  # n + 1 = 64
    @example(K=4, min_len=4, extra=49, levels=1, inf_frac=0.0, order="F", seed=3)  # n + 1 = 66
    @settings(max_examples=80, deadline=None)
    def test_blocked_recursion_matches_loop(self, K, min_len, extra, levels, inf_frac,
                                            order, seed):
        # n from the tightest request to about three blocks; costs drawn from
        # `levels` integers tie exactly, some entries are +inf, and, as in
        # build_cost_matrix, so is every range shorter than min_len. The
        # levels below K on the packed blocks match the loop on the dense
        # matrix at every b
        n = K * min_len + extra
        cost = random_dp_costs(n, min_len, levels, inf_frac, seed)
        C, H = _dp_tables(packed_costs(cost, min_len, order), n, K, min_len)
        C_ref, H_ref = _dp_tables_loop(cost, K, min_len)
        assert np.array_equal(C[:K], C_ref[:K]) and np.array_equal(H[:K], H_ref[:K])

    @given(
        K=st.integers(1, 5),
        min_len=st.integers(1, 4),
        extra=st.integers(0, 80),
        levels=st.sampled_from([1, 3, 1000]),
        inf_frac=st.sampled_from([0.0, 0.2, 0.9]),
        seed=st.integers(0, 2**16),
    )
    @example(K=3, min_len=2, extra=40, levels=1, inf_frac=0.0, seed=0)  # all ties
    @example(K=2, min_len=4, extra=23, levels=3, inf_frac=0.2, seed=1)  # n + 1 = 32
    @example(K=5, min_len=1, extra=59, levels=3, inf_frac=0.0, seed=2)  # n + 1 = 65
    @settings(max_examples=80, deadline=None)
    def test_last_level_at_n_matches_the_tables(self, K, min_len, extra, levels, inf_frac,
                                                seed):
        # costs as in test_blocked_recursion_matches_loop. Level K is filled
        # at b = n alone and matches the loop there, and so does the
        # backtrack from (K, n); where no finite path exists both backtracks
        # give an invalid partition
        n = K * min_len + extra
        cost = random_dp_costs(n, min_len, levels, inf_frac, seed)
        C, H = _dp_tables(packed_costs(cost, min_len), n, K, min_len)
        C_ref, H_ref = _dp_tables_loop(cost, K, min_len)
        assert C[K, n] == C_ref[K, n] and H[K, n] == H_ref[K, n]
        if K > 1:
            assert np.all(C[K, :n] == np.inf) and not H[K, :n].any()
        try:
            expected = _backtrack(H_ref, K, n)
        except ValueError:
            assert not np.isfinite(C[K, n])
            with pytest.raises(ValueError, match="invalid partition"):
                _backtrack(H, K, n)
            return
        np.testing.assert_array_equal(_backtrack(H, K, n).gamma, expected.gamma)

    def test_epoch_times_give_the_same_optimum(self):
        sig = simulate_piecewise(SITUATION_1, 500, seed=3)[0]
        fit = fisher_dp(sig, K=3, p=2)
        epoch = fisher_dp(epoch_signal(sig), K=3, p=2)
        np.testing.assert_array_equal(epoch.partition.gamma, fit.partition.gamma)
        assert epoch.criterion_j == pytest.approx(fit.criterion_j, rel=1e-9)

    def test_criterion_reconstructs_from_refit(self):
        rng = np.random.default_rng(13)
        sig = random_signal(rng, 40)
        fit = fisher_dp(sig, K=3, p=1)
        g = fit.partition.gamma
        j = sum(segment_cost(sig, a, b, 1)[0] for a, b in zip(g, g[1:]))
        assert j == pytest.approx(fit.criterion_j, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("p", [1, 2])
    def test_overflowing_rotations_raise_numerical_error(self, seed, p):
        # 49 times 1e-156 apart: their squared gaps are subnormal, not zero,
        # so a pivot that is nearly zero overflows the rotations. J would be
        # NaN, or the backtrack would fail on NaN costs; the iterative fit,
        # whose segment fits are lstsq's, fits the same signal
        t = np.concatenate((np.arange(49) * 1e-156, np.linspace(1.5, 4.7, 8)))
        sig = Signal(t, np.random.default_rng(seed).normal(size=57))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"at degree {p}: "):
                fisher_dp(sig, 3, p)
            assert np.isfinite(multi_start_iterative(sig, 3, p, seed=0).criterion_j)

    def test_infeasible_raises(self):
        sig = Signal(np.arange(5.0), np.zeros(5))
        with pytest.raises(InfeasibleError):
            fisher_dp(sig, K=3, p=0)

    def test_log_likelihood_relation(self):
        rng = np.random.default_rng(2)
        sig = random_signal(rng, 20)
        fit = fisher_dp(sig, K=2, p=0)
        assert fit.log_likelihood == pytest.approx(
            -0.5 * (fit.criterion_j + 20 * np.log(2 * np.pi))
        )


class TestIterativeFisher:
    def test_dp_optimum_is_fixed_point(self):
        rng = np.random.default_rng(21)
        sig = random_signal(rng, 40)
        dp = fisher_dp(sig, K=3, p=1)
        it = iterative_fisher(sig, 3, 1, init=dp.partition)
        assert it.criterion_j == pytest.approx(dp.criterion_j, abs=1e-9)
        assert len(it.j_trace) <= 3

    def test_dp_optimum_takes_one_regression_step(self, monkeypatch):
        # the first segmentation step returns the optimum, so the only
        # segments fitted are the initial partition's K
        sig = simulate_piecewise(SITUATION_1, 200, seed=4)[0]
        dp = fisher_dp(sig, K=3, p=2)
        calls = []

        def counting(*args):
            calls.append(args[1:3])
            return segment_cost(*args)

        monkeypatch.setattr(piecewise, "segment_cost", counting)
        it = iterative_fisher(sig, 3, 2, init=dp.partition)
        gamma = dp.partition.gamma.tolist()
        assert calls == list(zip(gamma, gamma[1:])) and len(it.j_trace) == 2
        assert it.j_trace[0] == it.j_trace[1] == it.criterion_j
        np.testing.assert_array_equal(it.partition.gamma, dp.partition.gamma)

    @pytest.mark.parametrize("scenario, seed, n, K, p", [
        ("situation1", 0, 120, 3, 2), ("situation2", 1, 300, 3, 1),
        ("situation2", 2, 150, 5, 0), ("situation1", 3, 200, 2, 1),
    ])
    def test_skipped_regression_steps_change_nothing(self, scenario, seed, n, K, p):
        # the fit, which stops where J stops falling, equals the reference
        # that refits an unchanged partition and stops on a J decrease
        # below 1e-6
        sig = simulate_piecewise(SCENARIOS[scenario], n, seed=seed)[0]
        min_len = default_min_segment_length(p)
        rng = np.random.default_rng(seed)
        inits = [uniform_partition(n, K, min_len)]
        inits += [random_partition(rng, n, K, min_len) for _ in range(3)]
        for init in inits:
            fit = iterative_fisher(sig, K, p, init)
            partition, comps, j, trace = iterative_fisher_always_refit(
                sig, p, init, piecewise._MAX_ROUNDS)
            np.testing.assert_array_equal(fit.partition.gamma, partition.gamma)
            assert fit.j_trace == trace and fit.criterion_j == j
            for c, ref in zip(fit.components, comps, strict=True):
                assert np.array_equal(c.beta, ref.beta) and c.sigma2 == ref.sigma2

    def test_uniform_init_step_signal(self):
        sig = step_signal()
        dp = fisher_dp(sig, K=2, p=0)
        it = iterative_fisher(sig, 2, 0, init=uniform_partition(100, 2, 2))
        np.testing.assert_array_equal(it.partition.gamma, dp.partition.gamma)

    @pytest.mark.parametrize("seed", range(10))
    def test_j_trace_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        sig = random_signal(rng, n)
        init = random_partition(rng, n, 3, 3)
        it = iterative_fisher(sig, 3, 1, init=init)
        diffs = np.diff(it.j_trace)
        assert np.all(diffs <= 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_dp_never_worse_than_iterative(self, seed):
        rng = np.random.default_rng(100 + seed)
        sig = random_signal(rng, 30)
        dp = fisher_dp(sig, K=2, p=1)
        it = iterative_fisher(sig, 2, 1, init=uniform_partition(30, 2, 3))
        assert dp.criterion_j <= it.criterion_j + 1e-9

    def test_infeasible_init_rejected(self):
        sig = Signal(np.arange(12.0), np.zeros(12))
        with pytest.raises(InfeasibleError):
            iterative_fisher(sig, 3, 1, init=Partition([0, 1, 6, 12]))

    def test_one_design_matrix_per_fit(self, monkeypatch):
        # the n-row fit-time design, which every re-segmentation reads; none
        # per round. The regression steps build only their segments' shifted
        # designs
        built = []
        sig = simulate_piecewise(SCENARIOS["situation2"], 300, seed=1)[0]

        def counting(t, p):
            if len(t) == sig.n:
                built.append(p)
            return design_matrix(t, p)

        monkeypatch.setattr(piecewise, "design_matrix", counting)
        monkeypatch.setattr(core, "design_matrix", counting)
        init = random_partition(np.random.default_rng(5), 300, 3, 4)  # 20 rounds
        rounds = []
        for max_rounds in (1, 5, 100):
            built.clear()
            monkeypatch.setattr(piecewise, "_MAX_ROUNDS", max_rounds)
            fit = iterative_fisher(sig, 3, 2, init)
            rounds.append(len(fit.j_trace) - 1)
            assert built == [2], max_rounds
        assert rounds[0] == 1 and rounds[-1] > 5


class TestMeanCurve:
    def test_labels_and_curve_follow_the_partition(self):
        part = Partition([0, 2, 5])
        comps = (GaussianComponent([1.0], 1.0), GaussianComponent([0.0, 2.0], 1.0))
        np.testing.assert_array_equal(part.labels(), [1, 1, 2, 2, 2])
        np.testing.assert_array_equal(
            piecewise_mean(part, comps, np.arange(5.0)), [1.0, 1.0, 4.0, 6.0, 8.0]
        )

    def test_length_mismatch_raises(self):
        rng = np.random.default_rng(6)
        sig = random_signal(rng, 30)
        fit = fisher_dp(sig, K=2, p=1)
        with pytest.raises(LengthMismatchError):
            fit.expectation(np.linspace(0, 5, 31))

    def test_component_count_mismatch_raises(self):
        # one component for two segments would cover 2 of the 5 samples
        part = Partition([0, 2, 5])
        for comps in [(GaussianComponent([1.0], 1.0),), (GaussianComponent([1.0], 1.0),) * 3]:
            with pytest.raises(LengthMismatchError, match="components for 2 segments"):
                piecewise_mean(part, comps, np.arange(5.0))


class TestPartition:
    @pytest.mark.parametrize("gamma", [
        [], [0], [0, 2.7, 5], [0, 2, np.nan], [0, 2, np.inf], [[0, 5]], [1, 5], [0, 3, 3],
    ], ids=["empty", "no-segment", "non-integral", "nan", "inf", "2-d", "not-from-0",
            "not-increasing"])
    def test_invalid_boundaries_raise(self, gamma):
        with pytest.raises(ValueError, match="invalid partition boundaries"):
            Partition(gamma)

    def test_integral_floats_are_indices(self):
        gamma = Partition([0.0, 2.0, 5.0]).gamma
        assert gamma.dtype.kind == "i" and gamma.tolist() == [0, 2, 5]


class TestFixedParamSegmentation:
    """The vectorized re-segmentation against the per-sample loop."""

    @staticmethod
    def design(sig, comps):
        return design_matrix(sig.t, max(len(c.beta) for c in comps) - 1)

    @classmethod
    def assert_matches_loop(cls, sig, comps, min_len):
        part, j = _fixed_param_segmentation(sig, cls.design(sig, comps), comps, min_len)
        ref_part, ref_j = _fixed_param_segmentation_loop(sig, comps, min_len)
        assert np.array_equal(part.gamma, ref_part.gamma)
        assert j == ref_j

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("min_len", [1, 2, 3, 5])
    @pytest.mark.parametrize("extra", [0, 1, 7, 60])
    def test_random_components(self, K, min_len, extra):
        rng = np.random.default_rng([K, min_len, extra])
        n = K * min_len + extra  # from the tightest feasible length upward
        sig = random_signal(rng, n, spread=3.0)
        comps = tuple(
            GaussianComponent(rng.normal(size=3), float(rng.uniform(0.1, 4.0)))
            for _ in range(K)
        )
        self.assert_matches_loop(sig, comps, min_len)

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("min_len", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_go_to_the_earliest_split(self, K, min_len, seed):
        # integer values and one shared integer mean: every prefix cost is an
        # exact integer, so many splits tie
        rng = np.random.default_rng([seed, K, min_len])
        n = K * min_len + int(rng.integers(0, 30))
        sig = Signal(np.arange(float(n)), rng.integers(-2, 3, size=n).astype(float))
        comps = (GaussianComponent([0.0], 1.0),) * K
        self.assert_matches_loop(sig, comps, min_len)

    def test_all_ties_pick_the_earliest_splits(self):
        sig = Signal(np.arange(12.0), np.zeros(12))
        comps = (GaussianComponent([0.0], 1.0),) * 3
        part, j = _fixed_param_segmentation(sig, self.design(sig, comps), comps, 2)
        np.testing.assert_array_equal(part.gamma, [0, 2, 4, 12])
        assert j == 0.0

    def test_overflowing_component(self):
        # the middle component's squared residual overflows from sample 10 on,
        # so its prefix costs turn inf and later candidates are inf - inf = NaN
        rng = np.random.default_rng(3)
        sig = Signal(1e3 * np.arange(40.0), rng.normal(size=40))
        comps = (
            GaussianComponent([0.0], 1.0),
            GaussianComponent([0.0, 1e150], 1.0),
            GaussianComponent([1.0], 2.0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_matches_loop(sig, comps, 3)
            _, j = _fixed_param_segmentation(sig, self.design(sig, comps), comps, 3)
            assert np.isfinite(j)

    @pytest.mark.parametrize("K, min_len, n", [(2, 3, 5), (3, 2, 5), (4, 1, 3)])
    def test_too_short_raises(self, K, min_len, n):
        sig = Signal(np.arange(float(n)), np.zeros(n))
        comps = (GaussianComponent([0.0], 1.0),) * K
        with pytest.raises(InfeasibleError):
            _fixed_param_segmentation(sig, self.design(sig, comps), comps, min_len)
        with pytest.raises(InfeasibleError):
            _fixed_param_segmentation_loop(sig, comps, min_len)


class TestMultiStart:
    def test_zero_starts_equal_uniform_init(self):
        rng = np.random.default_rng(4)
        sig = random_signal(rng, 30)
        ms = multi_start_iterative(sig, 2, 1, n_random_starts=0, seed=0)
        direct = iterative_fisher(sig, 2, 1, init=uniform_partition(30, 2, 3))
        assert ms.criterion_j == direct.criterion_j
        np.testing.assert_array_equal(ms.partition.gamma, direct.partition.gamma)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        sig = random_signal(rng, 40)
        a = multi_start_iterative(sig, 3, 1, seed=123)
        b = multi_start_iterative(sig, 3, 1, seed=123)
        assert a.criterion_j == b.criterion_j
        np.testing.assert_array_equal(a.partition.gamma, b.partition.gamma)

    def test_best_no_worse_than_any_start(self):
        rng = np.random.default_rng(17)
        sig = random_signal(rng, 40)
        best = multi_start_iterative(sig, 3, 1, n_random_starts=5, seed=7)
        # the same starts: the uniform partition, then five random ones
        rng = np.random.default_rng(7)
        starts = [uniform_partition(40, 3, 3)]
        starts += [random_partition(rng, 40, 3, 3) for _ in range(5)]
        fits = [iterative_fisher(sig, 3, 1, init=init) for init in starts]
        assert best.criterion_j == min(f.criterion_j for f in fits)

    def test_one_iterative_fit_per_start(self, monkeypatch):
        # every start runs through the public iterative_fisher, so each has
        # its own call (and its own span when traced)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3].gamma)
            return iterative_fisher(*args, **kwargs)

        monkeypatch.setattr(piecewise, "iterative_fisher", counting)
        sig = random_signal(np.random.default_rng(6), 40)
        multi_start_iterative(sig, 3, 1, n_random_starts=4, seed=2)
        assert len(calls) == 5
        np.testing.assert_array_equal(calls[0], uniform_partition(40, 3, 3).gamma)

    @pytest.mark.parametrize("starts", [0, 10, 30])
    def test_starts_share_steps_bit_for_bit(self, monkeypatch, starts):
        # the starts share one set of steps, so no segment is fitted twice,
        # and every start's fit is the one a direct call, with steps of its
        # own, returns
        sig = simulate_piecewise(SITUATION_1, 300, seed=5)[0]
        segmentations, fits, segments = [], [], []

        def counting_segment_cost(*args):
            segments.append(args[1:3])
            return segment_cost(*args)

        def counting_segmentation(*args):
            segmentations.append(args)
            return _fixed_param_segmentation(*args)

        def recording(*args, **kwargs):
            fits.append(iterative_fisher(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(piecewise, "_fixed_param_segmentation", counting_segmentation)
        monkeypatch.setattr(piecewise, "iterative_fisher", recording)
        monkeypatch.setattr(piecewise, "segment_cost", counting_segment_cost)
        best = multi_start_iterative(sig, 3, 2, n_random_starts=starts, seed=3)
        assert len(set(segments)) == len(segments)
        shared = len(segments), len(segmentations)

        rng = np.random.default_rng(3)
        inits = [uniform_partition(300, 3, 4)]
        inits += [random_partition(rng, 300, 3, 4) for _ in range(starts)]
        segments.clear()
        segmentations.clear()
        direct = [iterative_fisher(sig, 3, 2, init) for init in inits]
        assert len(fits) == len(direct)
        for got, want in zip(fits, direct):
            np.testing.assert_array_equal(got.partition.gamma, want.partition.gamma)
            assert (got.criterion_j, got.j_trace, got.time_map, got.model) == (
                want.criterion_j, want.j_trace, want.time_map, want.model)
            for c, ref in zip(got.components, want.components, strict=True):
                assert np.array_equal(c.beta, ref.beta) and c.sigma2 == ref.sigma2
        winner = min(direct, key=lambda f: f.criterion_j)
        assert best.criterion_j == winner.criterion_j and best.seed == 3
        np.testing.assert_array_equal(best.partition.gamma, winner.partition.gamma)
        if starts:
            assert shared[0] < len(segments) and shared[1] < len(segmentations)

        # a direct call keeps no table once it returns
        segments.clear()
        iterative_fisher(sig, 3, 2, inits[0])
        once = len(segments)
        iterative_fisher(sig, 3, 2, inits[0])
        assert len(segments) == 2 * once

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_random_starts": -1}, "require n_random_starts >= 0"),
        ({"n_random_starts": -3}, "require n_random_starts >= 0"),
    ], ids=["starts-1", "both"])
    def test_counts_below_their_minimum_raise(self, kwargs, match):
        sig = random_signal(np.random.default_rng(4), 30)
        with pytest.raises(ValueError, match=match):
            multi_start_iterative(sig, 2, 1, seed=0, **kwargs)

    def test_round_limit_is_not_an_argument(self):
        # every iterative fit stops by the fixed _MAX_ROUNDS
        sig = random_signal(np.random.default_rng(4), 30)
        with pytest.raises(TypeError, match="max_iter"):
            iterative_fisher(sig, 2, 1, uniform_partition(30, 2, 3), max_iter=100)
        with pytest.raises(TypeError, match="max_iter"):
            multi_start_iterative(sig, 2, 1, seed=0, max_iter=100)


def uniform_cut_draw(rng, n, K):
    """K - 1 distinct cuts drawn uniformly from 1..n-1, as a rejection
    sampler's first try draws them."""
    return np.sort(rng.choice(np.arange(1, n), K - 1, replace=False))


class TestFeasibleRequests:
    @given(
        K=st.integers(1, 8),
        p=st.integers(0, 2),
        slack=st.integers(-3, 8),
        seed=st.integers(0, 2**16),
    )
    @example(K=8, p=2, slack=8, seed=0)  # 1000 rejections fail here
    @settings(max_examples=80, deadline=None)
    def test_every_feasible_request_fits(self, K, p, slack, seed):
        # n = K (p + 2) + slack: a negative slack is just short of feasible
        min_len = p + 2
        n = max(1, K * min_len + slack)
        rng = np.random.default_rng(seed)
        sig = Signal(np.arange(n) + rng.uniform(0.0, 0.5, n), rng.normal(size=n))
        fits = (
            lambda: fisher_dp(sig, K, p),
            lambda: multi_start_iterative(sig, K, p, n_random_starts=3, seed=seed),
        )
        if n < K * min_len:
            for fit in fits:
                with pytest.raises(InfeasibleError):
                    fit()
            return
        dp, it = (fit() for fit in fits)
        for f in (dp, it):
            assert f.partition.K == K and f.partition.n == n
            assert np.all(np.diff(f.partition.gamma) >= min_len)
        assert it.criterion_j >= dp.criterion_j - 1e-9 * max(1.0, abs(dp.criterion_j))

    def test_tight_request_of_ten_segments(self):
        # 45 samples, K = 10, min length 4: a uniform draw of 9 cuts is
        # feasible about once in 350 000 tries
        sig = Signal(np.linspace(0, 5, 45), np.random.default_rng(0).normal(size=45))
        it = multi_start_iterative(sig, 10, 2, seed=0)
        dp = fisher_dp(sig, 10, 2)
        assert np.all(np.diff(it.partition.gamma) >= 4)
        assert it.criterion_j >= dp.criterion_j - 1e-9 * max(1.0, abs(dp.criterion_j))

    @pytest.mark.parametrize("kwargs", [
        {"K": 0, "p": 1}, {"K": 2, "p": -1},
    ], ids=["K0", "p-1"])
    @pytest.mark.parametrize("fitter", ["fisher_dp", "iterative_fisher", "multi_start_iterative"])
    def test_invalid_request_raises_value_error(self, fitter, kwargs):
        sig = Signal(np.linspace(0, 5, 20), np.random.default_rng(1).normal(size=20))
        extra = {"init": Partition([0, 10, 20])} if fitter == "iterative_fisher" else {}
        with pytest.raises(ValueError):
            globals()[fitter](sig, **kwargs, **extra)

    @pytest.mark.parametrize("make", [uniform_partition, random_partition])
    def test_partitions_share_the_entry_check(self, make):
        args = (np.random.default_rng(0),) if make is random_partition else ()
        with pytest.raises(InfeasibleError):
            make(*args, 11, 3, 4)
        for K, min_len in [(0, 1), (2, 0)]:
            with pytest.raises(ValueError):
                make(*args, 10, K, min_len)

    @pytest.mark.parametrize("n, K, min_len", [(12, 3, 4), (7, 7, 1), (5, 1, 5), (9, 2, 3)])
    def test_tightest_requests(self, n, K, min_len):
        rng = np.random.default_rng(0)
        for make in (lambda: uniform_partition(n, K, min_len),
                     lambda: random_partition(rng, n, K, min_len)):
            gamma = make().gamma
            assert gamma[0] == 0 and gamma[-1] == n and len(gamma) == K + 1
            assert np.all(np.diff(gamma) >= min_len)

    def test_random_partition_is_uniform(self):
        # n = 12, K = 3, min length 3: 10 feasible partitions (C(5, 2))
        rng = np.random.default_rng(2024)
        draws = [tuple(random_partition(rng, 12, 3, 3).gamma) for _ in range(20_000)]
        feasible = {
            (0, a, b, 12)
            for a, b in itertools.combinations(range(1, 12), 2)
            if min(a, b - a, 12 - b) >= 3
        }
        assert len(feasible) == 10 and set(draws) == feasible
        counts = [draws.count(g) for g in sorted(feasible)]
        assert chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("n, K", [(2, 2), (10, 3), (45, 10), (500, 3)])
    def test_unit_min_length_is_one_uniform_cut_draw(self, n, K):
        for s in range(100):
            gamma = random_partition(np.random.default_rng(s), n, K, 1).gamma
            expected = uniform_cut_draw(np.random.default_rng(s), n, K)
            np.testing.assert_array_equal(gamma[1:-1], expected)
