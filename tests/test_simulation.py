import numpy as np
import pytest

import rhlpseg.simulate as simulate
from rhlpseg.core import GaussianComponent, Signal, design_matrix
from rhlpseg.errors import InfeasibleError, LengthMismatchError
from rhlpseg.piecewise import fisher_dp, piecewise_mean
from rhlpseg.rhlp import LogisticProcess, RhlpParams, em_fit
from rhlpseg.simulate import (
    SCENARIOS,
    SITUATION_1,
    SITUATION_2,
    PiecewiseScenario,
    denoising_error,
    misclassification_rate,
    run_benchmark,
    simulate_piecewise,
    simulate_rhlp,
)


class TestScenarios:
    def test_registry(self):
        assert set(SCENARIOS) == {"situation1", "situation2"}
        assert SCENARIOS["situation1"] is SITUATION_1

    def test_situation1_mean_at_origin(self):
        assert SITUATION_1.components[0].mean(np.array([0.0]))[0] == pytest.approx(735.0)
        assert SITUATION_1.components[0].sigma2 == 4.0

    def test_situation2_mean_at_origin(self):
        assert SITUATION_2.components[0].mean(np.array([0.0]))[0] == pytest.approx(65.0)
        assert SITUATION_2.transition_times == (0.0, 1.0, 3.5, 5.0)

    def test_boundary_indices_round(self):
        # with n=1000, dt=5/999: 0.6/dt = 119.88 -> 120, 4.0/dt = 799.2 -> 799
        idx = SITUATION_1.boundary_indices(1000)
        assert list(idx) == [0, 120, 799, 1000]

    def test_labels_partition_the_index_range(self):
        labels = SITUATION_1.labels(500)
        assert labels[0] == 1 and labels[-1] == 3
        assert np.all(np.diff(labels) >= 0)
        assert len(labels) == 500

    def test_too_few_samples_for_every_segment_raises(self):
        # n=5: 0.6/dt = 0.48 rounds to 0, so the first segment is empty
        with pytest.raises(InfeasibleError):
            SITUATION_1.boundary_indices(5)

    def test_expectation_is_piecewise_polynomial(self):
        n = 200
        t = np.linspace(0, 5, n)
        mu = SITUATION_1.expectation(t)
        labels = SITUATION_1.labels(n)
        for k in (1, 2, 3):
            m = labels == k
            comp = SITUATION_1.components[k - 1]
            np.testing.assert_allclose(mu[m], comp.mean(t[m]))

    @pytest.mark.parametrize("t", [
        np.linspace(0, 2, 50), [0.0, 4.5], np.linspace(0, 5, 50) + 1e-15,
        np.linspace(0, 5, 200)[::2],
    ], ids=["short-span", "two-times", "one-ulp-off", "every-other"])
    def test_expectation_needs_the_scenario_grid(self, t):
        # boundary_indices(len(t)) places the segments on the scenario's own
        # grid, so any other times would get the wrong segment
        with pytest.raises(ValueError, match="linspace"):
            SITUATION_1.expectation(t)


class TestSimulatePiecewise:
    def test_shapes_and_time_grid(self):
        sig, labels = simulate_piecewise(SITUATION_1, 300, seed=0)
        assert len(sig.t) == len(sig.x) == len(labels) == 300
        np.testing.assert_allclose(sig.t, np.linspace(0, 5, 300))

    def test_deterministic_given_seed(self):
        a, _ = simulate_piecewise(SITUATION_2, 100, seed=42)
        b, _ = simulate_piecewise(SITUATION_2, 100, seed=42)
        np.testing.assert_array_equal(a.x, b.x)

    def test_noise_scale_matches_variances(self):
        # average over many replicates: residual variance near sigma2 per segment
        n = 1000
        t = np.linspace(0, 5, n)
        resid_sq = np.zeros(n)
        reps = 30
        for r in range(reps):
            sig, _ = simulate_piecewise(SITUATION_1, n, seed=1000 + r)
            resid_sq += (sig.x - SITUATION_1.expectation(t)) ** 2
        resid_sq /= reps
        labels = SITUATION_1.labels(n)
        for k, s2 in zip((1, 2, 3), (4.0, 10.0, 15.0)):
            est = resid_sq[labels == k].mean()
            assert est == pytest.approx(s2, rel=0.25)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_raise_infeasible_error(self, n):
        # one sample has no grid step: dt divided the span by n - 1 = 0,
        # also for a scenario of one segment, which two samples can draw
        flat = PiecewiseScenario("flat", (0.0, 1.0), (GaussianComponent([1.0], 1.0),), p=0)
        for scenario in (SITUATION_1, SITUATION_2, flat):
            with pytest.raises(InfeasibleError, match=f"^n={n}: {scenario.name} needs n >= 2"):
                simulate_piecewise(scenario, n, seed=0)
        with pytest.raises(InfeasibleError, match=f"^n={n}: situation1 needs n >= 2"):
            run_benchmark([SITUATION_1], [n], 1)
        assert len(simulate_piecewise(flat, 2, seed=0)[1]) == 2

    def test_near_zero_noise_recovered_by_dp(self):
        quiet = PiecewiseScenario(
            name="quiet",
            transition_times=SITUATION_1.transition_times,
            components=tuple(
                GaussianComponent(c.beta, 1e-30) for c in SITUATION_1.components
            ),
            p=2,
        )
        sig, labels = simulate_piecewise(quiet, 300, seed=0)
        fit = fisher_dp(sig, K=3, p=2)
        np.testing.assert_array_equal(fit.partition.labels(), labels)
        for k in range(3):
            np.testing.assert_allclose(
                fit.components[k].beta, SITUATION_1.components[k].beta, atol=1e-6
            )


class TestSimulateRhlp:
    def switch_params(self, slope):
        w = np.array([[2.0 * slope, -slope], [0.0, 0.0]])  # switch at t=2
        comps = (GaussianComponent([0.0], 1.0), GaussianComponent([5.0], 1.0))
        return RhlpParams(LogisticProcess(w), comps)

    def test_hard_logistic_matches_argmax(self):
        params = self.switch_params(500.0)
        t = np.linspace(0, 5, 400)
        _, labels = simulate_rhlp(params, t, seed=0)
        expected = np.where(t < 2.0, 1, 2)
        agreement = np.mean(labels == expected)
        assert agreement >= 0.99

    def test_uniform_mixing_frequency(self):
        params = RhlpParams(
            LogisticProcess(np.zeros((2, 1))),
            (GaussianComponent([0.0], 1.0), GaussianComponent([0.0], 1.0)),
        )
        n = 4000
        _, labels = simulate_rhlp(params, np.linspace(0, 5, n), seed=1)
        share = np.mean(labels == 1)
        assert abs(share - 0.5) <= 3.0 / np.sqrt(n)

    def test_values_drawn_from_selected_component(self):
        params = self.switch_params(500.0)
        t = np.linspace(0, 5, 400)
        sig, labels = simulate_rhlp(params, t, seed=2)
        mu = np.where(labels == 1, 0.0, 5.0)
        assert np.max(np.abs(sig.x - mu)) < 6.0  # all draws within 6 sigma
        assert np.std(sig.x - mu) == pytest.approx(1.0, rel=0.2)

    def test_deterministic(self):
        params = self.switch_params(3.0)
        t = np.linspace(0, 5, 100)
        a, la = simulate_rhlp(params, t, seed=7)
        b, lb = simulate_rhlp(params, t, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(la, lb)


class TestMisclassification:
    def test_identical_labels(self):
        labels = np.array([1, 1, 2, 2, 3])
        assert misclassification_rate(labels, labels) == 0.0

    def test_component_renaming_ignored(self):
        truth = np.array([1, 1, 1, 2, 2, 3, 3])
        renamed = np.array([3, 3, 3, 1, 1, 2, 2])
        assert misclassification_rate(truth, renamed) == 0.0

    def test_single_error_counted(self):
        truth = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        est = np.array([1, 1, 1, 2, 2, 2, 2, 2])
        assert misclassification_rate(truth, est) == pytest.approx(1 / 8)

    def test_symmetry_under_common_relabeling(self):
        rng = np.random.default_rng(0)
        truth = np.repeat([1, 2, 3], 20)
        est = truth.copy()
        est[rng.choice(60, size=6, replace=False)] = 1
        base = misclassification_rate(truth, est)
        # applying the same permutation to both sides changes nothing
        perm = {1: 2, 2: 3, 3: 1}
        t2 = np.array([perm[v] for v in truth])
        e2 = np.array([perm[v] for v in est])
        assert misclassification_rate(t2, e2) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            misclassification_rate(np.array([1, 2]), np.array([1, 2, 3]))

    def test_recurring_label_keeps_its_first_name(self):
        # RHLP hard labels need not be contiguous: a regime can come back
        truth = np.array([1, 1, 2, 2, 1, 1])
        assert misclassification_rate(truth, np.array([5, 5, 2, 2, 5, 5])) == 0.0
        assert misclassification_rate(truth, np.array([1, 1, 2, 2, 3, 3])) == pytest.approx(1 / 3)


class TestDenoisingError:
    def test_zero_for_exact_curve(self):
        t = np.linspace(0, 5, 150)
        mu = SITUATION_1.expectation(t)
        assert denoising_error(mu, mu.copy(), t) == 0.0

    def test_constant_offset(self):
        t = np.linspace(0, 5, 100)
        mu = SITUATION_1.expectation(t)
        c = 3.0
        assert denoising_error(mu, mu + c, t) == pytest.approx(c * c)

    def test_matches_mean_square_oracle(self):
        t = np.linspace(0, 5, 80)
        rng = np.random.default_rng(5)
        truth = SITUATION_2.expectation(t)
        est = truth + rng.normal(size=80)
        oracle = np.mean((est - truth) ** 2)
        assert denoising_error(truth, est, t) == pytest.approx(oracle, rel=1e-12)

    def test_length_mismatch(self):
        t = np.linspace(0, 5, 40)
        mu = SITUATION_1.expectation(t)
        with pytest.raises(LengthMismatchError):
            denoising_error(mu, np.zeros(30), t)
        with pytest.raises(LengthMismatchError):
            denoising_error(np.zeros(30), mu, t)

    def test_model_object_is_not_a_curve(self):
        # both inputs are curves; a model gives its curve by expectation(t)
        t = np.linspace(0, 5, 40)
        with pytest.raises(TypeError):
            denoising_error(SITUATION_1, SITUATION_1.expectation(t), t)


class TestExpectationCurve:
    def test_rhlp_params_dispatch(self):
        params = RhlpParams(
            LogisticProcess(np.zeros((1, 1))), (GaussianComponent([2.0, 1.0], 1.0),)
        )
        t = np.linspace(0, 5, 20)
        np.testing.assert_allclose(params.expectation(t), 2.0 + t)


def test_expectation_curve_of_fitted_models():
    sig, _ = simulate_piecewise(SITUATION_2, 120, seed=1)
    report = em_fit(sig, K=3, p=2, q=1, seed=1)
    np.testing.assert_array_equal(report.expectation(sig.t), report.denoised)
    np.testing.assert_array_equal(report.params.expectation(sig.t), report.denoised)
    fit = fisher_dp(sig, K=3, p=2)
    np.testing.assert_array_equal(fit.expectation(sig.t), piecewise_mean(
        fit.partition, fit.components, fit.time_map(sig.t)))


class TestRunBenchmark:
    def test_single_cell(self):
        rows = run_benchmark(
            scenarios=[SITUATION_1],
            n_grid=[100],
            replicates=2,
            methods=["fisher_dp"],
            seed=0,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.scenario == "situation1"
        assert row.method == "fisher_dp"
        assert row.n == 100
        assert 0.0 <= row.misclassification <= 1.0
        assert row.denoising_mse >= 0.0
        assert row.runtime_s > 0.0
        assert row.replicates == 2
        assert row.error is None

    def test_deterministic_without_timing(self):
        kwargs = dict(
            scenarios=[SITUATION_2],
            n_grid=[100],
            replicates=2,
            methods=["rhlp", "fisher_dp"],
            seed=11,
            measure_time=False,
        )
        a = run_benchmark(**kwargs)
        b = run_benchmark(**kwargs)
        assert a == b
        assert all(row.runtime_s == 0.0 for row in a)

    def test_all_methods_produce_rows(self):
        rows = run_benchmark(
            scenarios=[SITUATION_1],
            n_grid=[100],
            replicates=1,
            methods=["fisher_dp", "fisher_iterative"],
            seed=3,
            measure_time=False,
        )
        by_method = {row.method: row for row in rows}
        assert set(by_method) == {"fisher_dp", "fisher_iterative"}
        for row in by_method.values():
            assert np.isfinite(row.misclassification)

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a fit failure")

        monkeypatch.setattr(simulate, "_fit_method", broken)
        with pytest.raises(TypeError):
            run_benchmark([SITUATION_1], [100], replicates=2, methods=["fisher_dp"])

    def test_failed_replicates_are_counted(self, monkeypatch):
        fit_method = simulate._fit_method
        calls, scores = [], []

        def second_fails(method, signal, scenario, *args):
            calls.append(None)
            if len(calls) == 2:
                raise InfeasibleError("replicate 2 cannot be split")
            labels, curve, elapsed = fit_method(method, signal, scenario, *args)
            scores.append((
                misclassification_rate(scenario.labels(signal.n), labels),
                np.mean((scenario.expectation(signal.t) - curve) ** 2),
            ))
            return labels, curve, elapsed

        monkeypatch.setattr(simulate, "_fit_method", second_fails)
        (row,) = run_benchmark([SITUATION_1], [100], replicates=3, methods=["fisher_dp"])
        assert len(calls) == 3  # the third replicate still runs
        assert row.replicates == 3
        assert row.error == "1/3 failed; first: InfeasibleError: replicate 2 cannot be split"
        # the criteria average the two replicates that fit
        assert len(scores) == 2
        assert row.misclassification == pytest.approx(np.mean([m for m, _ in scores]))
        assert row.denoising_mse == pytest.approx(np.mean([e for _, e in scores]))
        assert np.isfinite(row.denoising_mse) and row.runtime_s > 0.0

    def test_methods_take_turns_on_each_replicate(self, monkeypatch):
        calls = []

        def record(method, signal, *args):
            calls.append((method, signal.x[0]))
            return np.ones(signal.n, dtype=int), np.zeros(signal.n), 0.0

        monkeypatch.setattr(simulate, "_fit_method", record)
        rows = run_benchmark([SITUATION_1], [100], replicates=3,
                             methods=["rhlp", "fisher_dp"], measure_time=False)
        assert [method for method, _ in calls] == ["rhlp", "fisher_dp"] * 3
        # both methods fit the same signal in each turn
        assert all(calls[i][1] == calls[i + 1][1] for i in range(0, 6, 2))
        assert [row.method for row in rows] == ["rhlp", "fisher_dp"]

    def test_q_is_not_an_argument(self):
        # RHLP fits at q = 1, fixed
        with pytest.raises(TypeError, match="'q'"):
            run_benchmark([SITUATION_1], [100], replicates=1, methods=["rhlp"], q=1)

    def test_cell_where_every_replicate_fails_is_nan(self, monkeypatch):
        def infeasible(*args, **kwargs):
            raise InfeasibleError("no partition")

        monkeypatch.setattr(simulate, "_fit_method", infeasible)
        (row,) = run_benchmark([SITUATION_2], [100], replicates=2, methods=["rhlp"])
        assert np.isnan(row.misclassification) and np.isnan(row.runtime_s)
        assert row.error == "2/2 failed; first: InfeasibleError: no partition"
