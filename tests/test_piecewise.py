import itertools

import numpy as np
import pytest

from rhlpseg.core import VARIANCE_FLOOR, GaussianComponent, Signal, design_matrix
from rhlpseg.errors import InfeasibleError, LengthMismatchError, SegmentTooShortError
from rhlpseg.piecewise import (
    Partition,
    _backtrack,
    _dp_tables,
    _fixed_param_segmentation,
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
from rhlpseg.simulate import SITUATION_1, simulate_piecewise


def oracle_segment_cost(signal, a, b, p, floor=VARIANCE_FLOOR):
    """Independent re-implementation via raw normal equations."""
    t, x = signal.t[a:b], signal.x[a:b]
    T = design_matrix(t, p)
    beta = np.linalg.solve(T.T @ T, T.T @ x)
    sse = np.sum((x - T @ beta) ** 2)
    s2 = max(sse / (b - a), floor)
    return (b - a) * np.log(s2) + sse / s2


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
        raise InfeasibleError(f"n={n} < K*min_segment_length={K * min_len}")
    return _backtrack(H, K, n), float(D[K, n])


def exhaustive_best_j(signal, K, p, min_len):
    """Brute force over every feasible partition."""
    n = signal.n
    best = np.inf
    for cuts in itertools.combinations(range(1, n), K - 1):
        gamma = (0,) + cuts + (n,)
        if any(b - a < min_len for a, b in zip(gamma, gamma[1:])):
            continue
        j = sum(
            segment_cost(signal, a, b, p, min_segment_length=min_len)[0]
            for a, b in zip(gamma, gamma[1:])
        )
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
        cost, comp = segment_cost(sig, 0, 2, p=0, min_segment_length=1)
        assert comp.beta[0] == pytest.approx(2.0)
        assert comp.sigma2 == pytest.approx(1.0)
        assert cost == pytest.approx(2.0)  # 2 * (log 1 + 1)

    def test_interpolation_clamps_variance(self):
        sig = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 5.0])
        _, comp = segment_cost(sig, 0, 3, p=2, min_segment_length=3)
        assert comp.sigma2 == VARIANCE_FLOOR

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        sig = random_signal(rng, 12)
        cost, _ = segment_cost(sig, 0, 12, p=1)
        assert cost == pytest.approx(oracle_segment_cost(sig, 0, 12, 1), rel=1e-8)

    def test_too_short_raises(self):
        sig = Signal([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        with pytest.raises(SegmentTooShortError):
            segment_cost(sig, 0, 2, p=1)  # needs p+2 = 3 points


class TestCostMatrix:
    def test_small_enumeration(self):
        sig = Signal([0.0, 1.0, 2.0], [1.0, 0.0, 2.0])
        C = build_cost_matrix(sig, p=0, min_segment_length=1)
        finite = np.argwhere(np.isfinite(C))
        expected = {(a, b) for a in range(3) for b in range(a + 1, 4)}
        assert {tuple(e) for e in finite} == expected

    def test_infeasible_entries_are_inf(self):
        rng = np.random.default_rng(0)
        sig = random_signal(rng, 8)
        C = build_cost_matrix(sig, p=1)  # min length 3
        assert np.isinf(C[0, 2]) and np.isinf(C[5, 5]) and np.isinf(C[5, 3])

    def test_entries_match_segment_cost(self):
        rng = np.random.default_rng(5)
        sig = random_signal(rng, 40)
        C = build_cost_matrix(sig, p=2)
        min_len = default_min_segment_length(2)
        for _ in range(20):
            a = int(rng.integers(0, 40 - min_len))
            b = int(rng.integers(a + min_len, 41))
            direct, _ = segment_cost(sig, a, b, p=2)
            assert C[a, b] == pytest.approx(direct, rel=1e-8, abs=1e-8)

    def test_epoch_times_match_shifted_reference(self):
        # segment_cost regresses on raw times and is itself inexact here, so
        # the reference regresses on t - t[a]
        sig = epoch_signal(simulate_piecewise(SITUATION_1, 150, seed=3)[0])
        p, min_len = 2, default_min_segment_length(2)
        C = build_cost_matrix(sig, p)
        for a in range(sig.n - min_len + 1):
            for b in range(a + min_len, sig.n + 1):
                T = design_matrix(sig.t[a:b] - sig.t[a], p)
                beta = np.linalg.lstsq(T, sig.x[a:b], rcond=None)[0]
                sse = np.sum((sig.x[a:b] - T @ beta) ** 2)
                s2 = max(sse / (b - a), VARIANCE_FLOOR)
                assert C[a, b] == pytest.approx((b - a) * np.log(s2) + sse / s2, rel=1e-9)


class TestFisherDp:
    def test_single_segment_is_whole_ols(self):
        rng = np.random.default_rng(1)
        sig = random_signal(rng, 30)
        fit = fisher_dp(sig, K=1, p=1)
        cost, comp = segment_cost(sig, 0, 30, p=1)
        assert fit.criterion_j == pytest.approx(cost)
        np.testing.assert_allclose(fit.components[0].beta, comp.beta, rtol=1e-9)
        np.testing.assert_array_equal(fit.partition.gamma, [0, 30])

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

    def test_dp_recursion_optimality(self):
        rng = np.random.default_rng(9)
        sig = random_signal(rng, 25)
        p, K = 1, 3
        min_len = default_min_segment_length(p)
        cost = build_cost_matrix(sig, p)
        C, _ = _dp_tables(cost, K, min_len)
        for k in range(2, K + 1):
            for b in range(k * min_len, 26):
                expected = min(
                    C[k - 1, h] + cost[h, b] for h in range(b - min_len + 1)
                )
                assert C[k, b] == pytest.approx(expected, abs=1e-12)

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


class TestFixedParamSegmentation:
    """The vectorized re-segmentation against the per-sample loop."""

    @staticmethod
    def assert_matches_loop(sig, comps, min_len):
        part, j = _fixed_param_segmentation(sig, comps, min_len)
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
        part, j = _fixed_param_segmentation(sig, (GaussianComponent([0.0], 1.0),) * 3, 2)
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
            assert np.isfinite(_fixed_param_segmentation(sig, comps, 3)[1])

    @pytest.mark.parametrize("K, min_len, n", [(2, 3, 5), (3, 2, 5), (4, 1, 3)])
    def test_too_short_raises(self, K, min_len, n):
        sig = Signal(np.arange(float(n)), np.zeros(n))
        comps = (GaussianComponent([0.0], 1.0),) * K
        with pytest.raises(InfeasibleError):
            _fixed_param_segmentation(sig, comps, min_len)
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
