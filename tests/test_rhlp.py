import dataclasses
import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import logsumexp

from rhlpseg.core import (
    FitProblem,
    GaussianComponent,
    Signal,
    design_matrix,
    gaussian_log_density,
    weighted_least_squares,
)
from rhlpseg import rhlp
from rhlpseg.errors import (
    DataError,
    EmptyComponentError,
    NonMonotonicTimeError,
    NumericalError,
    RankDeficientError,
)
from rhlpseg.rhlp import (
    FitReport,
    LogisticProcess,
    RhlpParams,
    SelectionEntry,
    bic,
    denoise,
    e_step,
    em_fit,
    hard_labels,
    irls_gradient,
    irls_hessian,
    irls_objective_q1,
    irls_solve,
    logistic_proportions,
    m_step_regression,
    mixture_log_likelihood,
    n_free_parameters,
    select_model,
)
from rhlpseg.simulate import SITUATION_1, SITUATION_2, simulate_piecewise

SCENARIOS = pytest.mark.parametrize(
    "scenario", [SITUATION_1, SITUATION_2], ids=lambda s: s.name
)


def random_instance(seed, K=None, q=None, n=None):
    """Random (w, tau, t) triple with tau rows on the simplex."""
    rng = np.random.default_rng(seed)
    K = K or int(rng.integers(2, 5))
    q = q if q is not None else int(rng.integers(0, 3))
    n = n or int(rng.integers(20, 200))
    t = np.sort(rng.uniform(0, 5, n))
    w = np.zeros((K, q + 1))
    w[:-1] = rng.normal(scale=0.5, size=(K - 1, q + 1))
    tau = rng.dirichlet(np.ones(K), size=n)
    return w, tau, t


def make_params(w, betas, sigma2s):
    comps = tuple(GaussianComponent(b, s) for b, s in zip(betas, sigma2s))
    return RhlpParams(LogisticProcess(np.asarray(w, dtype=float)), comps)


class TestLogisticProportions:
    def test_zero_coefficients_give_uniform(self):
        for K in (2, 3, 5):
            proc = LogisticProcess(np.zeros((K, 2)))
            pi = logistic_proportions(proc, np.linspace(0, 5, 7))
            np.testing.assert_allclose(pi, 1.0 / K)

    def test_inflection_at_two_seconds(self):
        # two components, scores cross where 10 - 5 t = 0
        proc = LogisticProcess(np.array([[10.0, -5.0], [0.0, 0.0]]))
        pi = logistic_proportions(proc, np.array([2.0]))
        assert pi[0, 0] == pytest.approx(0.5)

    def test_sharp_transition(self):
        proc = LogisticProcess(np.array([[1000.0, -500.0], [0.0, 0.0]]))
        pi = logistic_proportions(proc, np.array([1.9, 2.1]))
        assert pi[0, 0] > 0.999
        assert pi[1, 0] < 0.001

    def test_rows_sum_to_one(self):
        w, _, t = random_instance(0, K=4, q=2)
        pi = logistic_proportions(LogisticProcess(w), t)
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pi > 0) and np.all(pi < 1)

    def test_extreme_scores_do_not_overflow(self):
        proc = LogisticProcess(np.array([[5000.0, -100.0], [0.0, 0.0]]))
        pi = logistic_proportions(proc, np.linspace(0, 5, 11))
        assert np.all(np.isfinite(pi))

    def test_nonzero_reference_rejected(self):
        with pytest.raises(ValueError):
            LogisticProcess(np.ones((2, 2)))


class TestMixtureLogLikelihood:
    def test_single_component_reduces_to_gaussian(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 5, 30)
        x = rng.normal(size=30)
        params = make_params(np.zeros((1, 1)), [[0.5, 0.2]], [2.0])
        sig = Signal(t, x)
        expected = np.sum(
            gaussian_log_density(x, design_matrix(t, 1) @ np.array([0.5, 0.2]), 2.0)
        )
        assert mixture_log_likelihood(params, sig) == pytest.approx(expected)

    def test_hand_computed_two_point_instance(self):
        # K=2, q=0, zero w -> equal proportions; unit variances, constant means
        params = make_params(np.zeros((2, 1)), [[0.0], [1.0]], [1.0, 1.0])
        sig = Signal([0.0, 1.0], [0.0, 1.0])
        dens = lambda x, mu: np.exp(-0.5 * (x - mu) ** 2) / np.sqrt(2 * np.pi)
        expected = np.log(0.5 * dens(0, 0) + 0.5 * dens(0, 1)) + np.log(
            0.5 * dens(1, 0) + 0.5 * dens(1, 1)
        )
        assert mixture_log_likelihood(params, sig) == pytest.approx(expected)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 5, 25)
        sig = Signal(t, rng.normal(size=25))
        w = np.array([[1.0, -0.3], [-0.5, 0.2], [0.0, 0.0]])
        betas = [[1.0, 0.1], [2.0, -0.2], [0.5, 0.0]]
        s2 = [1.0, 2.0, 0.5]
        base = mixture_log_likelihood(make_params(w, betas, s2), sig)
        # swap components 1 and 2; w stays valid since the reference is untouched
        w_swap = w[[1, 0, 2]]
        base_swap = mixture_log_likelihood(
            make_params(w_swap, [betas[1], betas[0], betas[2]], [s2[1], s2[0], s2[2]]),
            sig,
        )
        assert base == pytest.approx(base_swap)


class TestEStep:
    def test_single_component(self):
        params = make_params(np.zeros((1, 1)), [[0.0]], [1.0])
        sig = Signal([0.0, 1.0, 2.0], [0.1, -0.2, 0.3])
        np.testing.assert_allclose(e_step(params, sig), 1.0)

    def test_identical_components_give_proportions(self):
        w = np.array([[2.0, -1.0], [0.0, 0.0]])
        params = make_params(w, [[1.0, 0.5], [1.0, 0.5]], [2.0, 2.0])
        t = np.linspace(0, 5, 20)
        sig = Signal(t, np.random.default_rng(3).normal(size=20))
        tau = e_step(params, sig)
        pi = logistic_proportions(params.logistic, t)
        np.testing.assert_allclose(tau, pi, atol=1e-12)

    def test_matches_direct_ratio_oracle(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0, 5, 40)
        sig = Signal(t, rng.normal(size=40))
        w = np.array([[0.5, -0.2], [-1.0, 0.4], [0.0, 0.0]])
        params = make_params(w, [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [1.0, 2.0, 0.5])
        tau = e_step(params, sig)
        pi = logistic_proportions(params.logistic, t)
        T = design_matrix(t, 1)
        raw = pi * np.exp(
            gaussian_log_density(sig.x[:, None], T @ params.betas.T, params.sigma2s)
        )
        oracle = raw / raw.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(tau, oracle, atol=1e-10)
        np.testing.assert_allclose(tau.sum(axis=1), 1.0, atol=1e-10)


class TestMStepRegression:
    def test_unit_weights_reduce_to_ols(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 5, 30)
        x = rng.normal(size=30)
        sig = Signal(t, x)
        comps = m_step_regression(np.ones((30, 1)), sig, p=1)
        T = design_matrix(t, 1)
        ols = np.linalg.lstsq(T, x, rcond=None)[0]
        np.testing.assert_allclose(comps[0].beta, ols, rtol=1e-10)
        assert comps[0].sigma2 == pytest.approx(np.sum((x - T @ ols) ** 2) / 30)

    def test_binary_tau_equals_per_segment_ols(self):
        from rhlpseg.piecewise import segment_cost

        rng = np.random.default_rng(6)
        t = np.linspace(0, 5, 40)
        sig = Signal(t, rng.normal(size=40))
        tau = np.zeros((40, 2))
        tau[:25, 0] = 1.0
        tau[25:, 1] = 1.0
        comps = m_step_regression(tau, sig, p=1)
        _, left = segment_cost(sig, 0, 25, 1)
        _, right = segment_cost(sig, 25, 40, 1)
        np.testing.assert_allclose(comps[0].beta, left.beta, rtol=1e-9)
        np.testing.assert_allclose(comps[1].beta, right.beta, rtol=1e-9)
        assert comps[0].sigma2 == pytest.approx(left.sigma2, rel=1e-9)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 5, 30)
        x = rng.normal(size=30)
        sig = Signal(t, x)
        tau = rng.dirichlet(np.ones(3), size=30)
        comps = m_step_regression(tau, sig, p=2)
        T = design_matrix(t, 2)
        for k in range(3):
            W = np.diag(tau[:, k])
            beta = np.linalg.solve(T.T @ W @ T, T.T @ W @ x)
            np.testing.assert_allclose(comps[k].beta, beta, rtol=1e-9)
            s2 = tau[:, k] @ (x - T @ beta) ** 2 / tau[:, k].sum()
            assert comps[k].sigma2 == pytest.approx(s2, rel=1e-9)

    def test_offset_values_give_the_floor(self):
        # x + 2^600 rounds to the constant 2^600; fitted as given, its
        # squared residuals overflow to sigma2 = inf
        sig, _ = simulate_piecewise(SITUATION_1, 500, seed=3)
        sig = Signal(sig.t, sig.x + 2.0 ** 600)
        tau = np.random.default_rng(3).dirichlet(np.ones(3), size=sig.n)
        comps = m_step_regression(tau, sig, p=2)
        for c in comps:
            assert c.sigma2 == sig.variance_floor
            np.testing.assert_array_equal(c.beta, [2.0 ** 600, 0.0, 0.0])

    def test_starved_component_raises(self):
        sig = Signal(np.linspace(0, 1, 10), np.zeros(10))
        tau = np.ones((10, 2))
        tau[:, 1] = 0.0
        with pytest.raises(EmptyComponentError):
            m_step_regression(tau, sig, p=0)


def fd_gradient(f, w0, flat_shape, eps=1e-5):
    """Central finite differences of a scalar function of the stacked vector."""
    K, q1 = w0.shape
    flat = w0[:-1].ravel().copy()

    def unstack(v):
        w = np.zeros((K, q1))
        w[:-1] = v.reshape(K - 1, q1)
        return w

    g = np.zeros(len(flat))
    for i in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(unstack(up)) - f(unstack(dn))) / (2 * eps)
    return g


class TestIrls:
    def test_objective_at_zero_is_uniform(self):
        _, tau, t = random_instance(8, K=3, q=1)
        w0 = np.zeros((3, 2))
        assert irls_objective_q1(w0, tau, t) == pytest.approx(len(t) * np.log(1 / 3))

    def test_objective_approaches_zero_for_matched_hard_labels(self):
        t = np.linspace(0, 5, 50)
        w = np.array([[400.0, -200.0], [0.0, 0.0]])  # sharp switch at t=2
        pi = logistic_proportions(LogisticProcess(w), t)
        tau = (pi > 0.5).astype(float)
        val = irls_objective_q1(w, tau, t)
        assert -1e-3 < val <= 0.0

    def test_objective_matches_summation_oracle(self):
        w, tau, t = random_instance(9)
        pi = logistic_proportions(LogisticProcess(w), t)
        oracle = sum(
            tau[i, k] * np.log(pi[i, k])
            for i in range(len(t))
            for k in range(tau.shape[1])
        )
        assert irls_objective_q1(w, tau, t) == pytest.approx(oracle, rel=1e-12)

    def test_gradient_zero_at_stationary_point(self):
        w, _, t = random_instance(10, K=3, q=1)
        pi = logistic_proportions(LogisticProcess(w), t)
        g = irls_gradient(w, pi, t)  # tau = pi
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_gradient_uniform_case(self):
        _, tau, t = random_instance(11, K=2, q=1)
        w0 = np.zeros((2, 2))
        g = irls_gradient(w0, tau, t)
        V = design_matrix(t, 1)
        np.testing.assert_allclose(g, (tau[:, 0] - 0.5) @ V, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        w, tau, t = random_instance(seed)
        g = irls_gradient(w, tau, t)
        fd = fd_gradient(lambda wv: irls_objective_q1(wv, tau, t), w, g.shape)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_hessian_two_uniform_components(self):
        t = np.linspace(0, 5, 40)
        H = irls_hessian(np.zeros((2, 1)), t)
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(-40 / 4)

    def test_hessian_symmetric(self):
        w, _, t = random_instance(12, K=4, q=2)
        H = irls_hessian(w, t)
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_hessian_matches_gradient_finite_differences(self, seed):
        w, tau, t = random_instance(100 + seed)
        H = irls_hessian(w, t)
        K, q1 = w.shape
        nf = (K - 1) * q1
        fd = np.zeros((nf, nf))
        eps = 1e-5
        flat = w[:-1].ravel()
        for i in range(nf):
            up, dn = flat.copy(), flat.copy()
            up[i] += eps
            dn[i] -= eps
            wu = np.zeros((K, q1)); wu[:-1] = up.reshape(K - 1, q1)
            wd = np.zeros((K, q1)); wd[:-1] = dn.reshape(K - 1, q1)
            fd[:, i] = (irls_gradient(wu, tau, t) - irls_gradient(wd, tau, t)) / (2 * eps)
        np.testing.assert_allclose(H, fd, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_hessian_matches_blockwise_formula(self, K):
        w, _, t = random_instance(300 + K, K=K, q=2)
        pi = logistic_proportions(LogisticProcess(w), t)
        V = design_matrix(t, 2)
        q1 = 3
        ref = np.empty(((K - 1) * q1, (K - 1) * q1))
        for k in range(K - 1):
            for l in range(K - 1):
                coef = pi[:, k] * ((k == l) - pi[:, l])
                ref[k * q1:(k + 1) * q1, l * q1:(l + 1) * q1] = -(V * coef[:, None]).T @ V
        np.testing.assert_allclose(irls_hessian(w, t), ref, rtol=1e-12, atol=1e-12)

    def test_solve_returns_stationary_init(self):
        w, _, t = random_instance(13, K=3, q=1)
        pi = logistic_proportions(LogisticProcess(w), t)
        out = irls_solve(w, pi, t)
        np.testing.assert_allclose(out, w, atol=1e-8)

    def test_solve_closed_form_logit(self):
        # K=2, q=0, constant tau: optimum is the logit of the weighted share
        t = np.linspace(0, 5, 60)
        c = 0.7
        tau = np.column_stack([np.full(60, c), np.full(60, 1 - c)])
        out = irls_solve(np.zeros((2, 1)), tau, t)
        assert out[0, 0] == pytest.approx(np.log(c / (1 - c)), abs=1e-8)

    def test_singular_hessian_ends_the_solve(self):
        # tau = 1/2 everywhere and w[0] = (1000, 0): pi_1 = 1 in double
        # precision, so every Hessian block weight pi_1 (1 - pi_1) is 0
        t = np.linspace(0, 5, 50)
        w = np.array([[1000.0, 0.0], [0.0, 0.0]])
        tau = np.full((50, 2), 0.5)
        assert not np.any(irls_hessian(w, t))
        out = irls_solve(w, tau, t)
        assert out.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_never_decreases(self, seed):
        w, tau, t = random_instance(200 + seed)
        q0 = irls_objective_q1(w, tau, t)
        out = irls_solve(w, tau, t)
        assert irls_objective_q1(out, tau, t) >= q0 - 1e-10


def sample_major_reference(w, betas, sigma2s, sig):
    """Log proportions, responsibilities and log-likelihood in the (n, K)
    layout, with scipy's log-sum-exp over axis 1."""
    V = design_matrix(sig.t, w.shape[1] - 1)
    scores = V @ w.T
    logpi = scores - logsumexp(scores, axis=1, keepdims=True)
    means = design_matrix(sig.t, betas.shape[1] - 1) @ betas.T
    lj = logpi + gaussian_log_density(sig.x[:, None], means, sigma2s[None, :])
    per_sample = logsumexp(lj, axis=1, keepdims=True)
    return logpi, np.exp(lj - per_sample), float(per_sample.sum())


LAYOUT_CASES = pytest.mark.parametrize(
    "K, q, scale", list(itertools.product([1, 2, 3, 5], [0, 1, 2], [0.5, 1e3]))
)


class TestComponentMajorLayout:
    """The public EM helpers take and return n x K arrays while computing in
    (K, n); a sample-major reference pins every value, including extreme
    scores where the proportions underflow."""

    @staticmethod
    def instance(K, q, scale):
        rng = np.random.default_rng(1000 * K + 10 * q + int(scale))
        n = 150
        t = np.sort(rng.uniform(0, 5, n))
        w = np.zeros((K, q + 1))
        w[:-1] = rng.normal(scale=scale, size=(K - 1, q + 1))
        betas = rng.normal(scale=3.0, size=(K, 3))
        sigma2s = rng.uniform(0.5, 2.0, K)
        sig = Signal(t, rng.normal(scale=3.0, size=n))
        return w, betas, sigma2s, sig

    @LAYOUT_CASES
    def test_e_step_and_likelihood(self, K, q, scale):
        w, betas, sigma2s, sig = self.instance(K, q, scale)
        params = make_params(w, betas, sigma2s)
        logpi, tau, ll = sample_major_reference(w, betas, sigma2s, sig)
        pi = logistic_proportions(params.logistic, sig.t)
        got = e_step(params, sig)
        assert pi.shape == got.shape == (sig.n, K)
        np.testing.assert_allclose(pi, np.exp(logpi), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, tau, rtol=1e-12, atol=0)
        assert mixture_log_likelihood(params, sig) == pytest.approx(ll, rel=1e-12)

    @LAYOUT_CASES
    def test_irls_derivatives(self, K, q, scale):
        w, betas, sigma2s, sig = self.instance(K, q, scale)
        logpi, tau, _ = sample_major_reference(w, betas, sigma2s, sig)
        pi, V, q1 = np.exp(logpi), design_matrix(sig.t, q), q + 1
        grad = ((tau - pi)[:, :-1].T @ V).ravel()
        hess = np.empty(((K - 1) * q1, (K - 1) * q1))
        for k in range(K - 1):
            for l in range(K - 1):
                coef = pi[:, k] * ((k == l) - pi[:, l])
                hess[k * q1:(k + 1) * q1, l * q1:(l + 1) * q1] = -(V * coef[:, None]).T @ V
        assert irls_objective_q1(w, tau, sig.t) == pytest.approx(
            float(np.sum(tau * logpi)), rel=1e-12)
        # entries of the gradient cancel, so compare against its largest one
        np.testing.assert_allclose(irls_gradient(w, tau, sig.t), grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(grad).max(initial=0.0))
        np.testing.assert_allclose(irls_hessian(w, sig.t), hess, rtol=1e-12,
                                   atol=1e-12 * np.abs(hess).max(initial=0.0))

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_m_step_independent_of_tau_layout(self, K):
        *_, sig = self.instance(K, 1, 0.5)
        tau = np.random.default_rng(K).dirichlet(np.ones(K), size=sig.n)
        component_major = np.ascontiguousarray(tau.T)
        by_rows = m_step_regression(tau, sig, p=2)
        by_view = m_step_regression(component_major.T, sig, p=2)
        for a, b in zip(by_rows, by_view):
            assert np.array_equal(a.beta, b.beta) and a.sigma2 == b.sigma2

    @LAYOUT_CASES
    def test_public_steps_equal_the_cores(self, K, q, scale):
        # em_fit runs the cores on matrices built once per fit; the public
        # steps build them per call and must give the same bits
        w, betas, sigma2s, sig = self.instance(K, q, scale)
        params = make_params(w, betas, sigma2s)
        T, V = design_matrix(sig.t, 2), design_matrix(sig.t, q)
        logpi = rhlp._log_proportions(w, V)
        tau, ll = rhlp._posterior(logpi, betas @ T.T, sigma2s, sig.x)
        assert np.array_equal(e_step(params, sig), tau.T)
        assert mixture_log_likelihood(params, sig) == ll
        # the posterior can starve a component here; the steps take any tau
        tau = np.ascontiguousarray(np.random.default_rng(K).dirichlet(np.ones(K), sig.n).T)
        # the public M step fits the mapped values, as em_fit does
        comps = m_step_regression(tau.T, sig, p=2)
        problem = FitProblem.of(sig)
        # on the fit values y and against the design of the times as given
        core_betas, core_sigma2s, core_means = rhlp._m_step_regression(
            tau, problem.signal, T, 3)
        # the means it hands to the next E step are those of its betas
        assert np.array_equal(core_means, core_betas @ T.T)
        mapped = problem.components_to_x(core_betas, core_sigma2s)
        for a, b in zip(comps, mapped, strict=True):
            assert np.array_equal(a.beta, b.beta) and a.sigma2 == b.sigma2
        core_w, core_logpi = rhlp._irls_solve(w, tau, V, rhlp._outer_rows(V), logpi)
        assert np.array_equal(irls_solve(w, tau.T, sig.t), core_w)
        # the solve hands back the log-proportions of the w it returns
        assert np.array_equal(core_logpi, rhlp._log_proportions(core_w, V))
        pi = np.exp(core_logpi)
        fitted = make_params(core_w, core_betas, core_sigma2s)
        assert np.array_equal(denoise(fitted, sig.t), rhlp._denoise(pi, core_betas, T))
        assert np.array_equal(hard_labels(fitted, sig.t), rhlp._hard_labels(pi))


# --- the EM cores, pinned to the forms they had before their call overhead
# was cut. Each reference below is the earlier core, line for line; the
# cores must reproduce it bit for bit.


def _gradient_v_reference(pi, tau, V):
    return ((tau - pi)[:-1] @ V).ravel()


def _hessian_v_reference(pi, VV):
    m, n, q1 = pi.shape[0] - 1, pi.shape[1], VV.shape[1]
    head = pi[:-1]
    coef = -head[:, None, :] * head[None, :, :]
    coef[np.arange(m), np.arange(m)] += head
    blocks = (coef.reshape(m * m, n) @ VV.reshape(n, q1 * q1)).reshape(m, m, q1, q1)
    return -blocks.transpose(0, 2, 1, 3).reshape(m * q1, m * q1)


def _unstack_reference(flat, K, q):
    w = np.zeros((K, q + 1))
    w[:-1] = flat.reshape(K - 1, q + 1)
    return w


def _irls_solve_reference(w_init, tau, V, VV, logpi):
    K, q1 = w_init.shape
    if K == 1:
        return w_init.copy(), logpi
    w = w_init.copy()
    q_old = float(np.sum(tau * logpi))
    for _ in range(rhlp._IRLS_MAX_ITER):
        pi = np.exp(logpi)
        g = _gradient_v_reference(pi, tau, V)
        H = _hessian_v_reference(pi, VV)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return w, logpi
        flat = w[:-1].ravel()
        alpha = 1.0
        w_new = w
        q_new = q_old
        with np.errstate(over="ignore", invalid="ignore"):
            gain = -float(g @ step)
            while True:
                cand = _unstack_reference(flat - alpha * step, K, q1 - 1)
                logpi_cand = rhlp._log_proportions(cand, V)
                q_cand = float(np.sum(tau * logpi_cand))
                if np.isfinite(q_cand) and q_cand >= q_old:
                    w_new, q_new, logpi = cand, q_cand, logpi_cand
                    break
                alpha *= 0.5
                if not rhlp._IRLS_TOL < alpha * gain < np.inf:
                    break
        if q_new - q_old <= rhlp._IRLS_TOL:
            return w_new, logpi
        w, q_old = w_new, q_new
    return w, logpi


def _posterior_reference(logpi, betas, sigma2s, x, T):
    logdens = gaussian_log_density(x, betas @ T.T, sigma2s[:, None])
    lj = logpi + logdens
    per_sample = rhlp._logsumexp_rows(lj)
    return np.exp(lj - per_sample), float(per_sample.sum())


def _m_step_regression_reference(tau, signal, T, iteration):
    mass = tau.sum(axis=1)
    starved = mass < rhlp._STARVATION_TOL
    if np.any(starved):
        raise EmptyComponentError(int(np.argmax(starved)) + 1, iteration)
    betas = weighted_least_squares(T, signal.x, tau)
    sse = np.sum(tau * (signal.x - betas @ T.T) ** 2, axis=1)
    return betas, np.maximum(sse / mass, signal.variance_floor)


def _squarem_point_reference(theta0, theta1, theta2, step_max):
    r = theta1 - theta0
    v = theta2 - theta0 - 2.0 * r
    norm_v = np.linalg.norm(v)
    s = step_max if norm_v == 0 else min(max(np.linalg.norm(r) / norm_v, 1.0), step_max)
    return theta0 + 2.0 * s * r + s * s * v, s


PIN_CASES = pytest.mark.parametrize(
    "K, q, scale", list(itertools.product([1, 2, 3, 5], [0, 1, 2], [0.5, 1e3, 1e19])))


def separated_instance(K, q, c, n=120):
    """Hard responsibilities of K contiguous segments, and logistic
    coefficients whose scores are the upper envelope of K lines of slope c k
    that switch midway between two samples: the higher c, the harder pi."""
    t = np.linspace(0, 5, n)
    cuts = (np.arange(1, K) * n) // K
    b = (t[cuts - 1] + t[cuts]) / 2
    scores = np.zeros((K, q + 1))
    scores[:, 0] = -c * np.concatenate([[0.0], np.cumsum(b)])
    scores[:, 1] = c * np.arange(K)
    labels = np.searchsorted(cuts, np.arange(n), side="right")
    tau = np.zeros((K, n))
    tau[labels, np.arange(n)] = 1.0
    return scores - scores[-1], tau, t


class TestCoresEqualTheirReferences:
    @staticmethod
    def instance(K, q, scale):
        rng = np.random.default_rng([K, q, int(np.log10(scale) + 1)])
        n = 150
        t = np.sort(rng.uniform(0, 5, n))
        w = np.zeros((K, q + 1))
        w[:-1] = rng.normal(scale=scale, size=(K - 1, q + 1))
        tau = np.ascontiguousarray(rng.dirichlet(np.ones(K), size=n).T)
        betas = rng.normal(scale=3.0, size=(K, 3))
        sigma2s = rng.uniform(0.5, 2.0, K)
        return w, tau, betas, sigma2s, Signal(t, rng.normal(scale=3.0, size=n))

    @staticmethod
    def assert_irls_equal(w, tau, t):
        V = design_matrix(t, w.shape[1] - 1)
        VV, logpi = rhlp._outer_rows(V), rhlp._log_proportions(w, V)
        got_w, got_logpi = rhlp._irls_solve(w, tau, V, VV, logpi)
        ref_w, ref_logpi = _irls_solve_reference(w, tau, V, VV, logpi)
        assert got_w.tobytes() == ref_w.tobytes()
        assert got_logpi.tobytes() == ref_logpi.tobytes()

    @PIN_CASES
    def test_irls_solve(self, K, q, scale):
        w, tau, *_, sig = self.instance(K, q, scale)
        self.assert_irls_equal(w, tau, sig.t)

    @staticmethod
    def bound_trials(w, tau, V):
        """The step lengths the first line search of _irls_solve may try:
        ceil(log2(gain / _IRLS_TOL)), at least 1, for the Newton decrement
        gain = -g'H^-1 g at w, computed as the solve computes it."""
        pi = np.exp(rhlp._log_proportions(w, V))
        g = rhlp._gradient_v(pi, tau[:-1], V)
        with np.errstate(over="ignore", invalid="ignore"):
            gain = -float(g @ np.linalg.solve(rhlp._hessian_v(pi, rhlp._outer_rows(V)), g))
        return max(1, math.ceil(math.log2(gain / rhlp._IRLS_TOL))) if 0 < gain < math.inf else 1

    def test_the_draws_reach_both_early_irls_stops(self, monkeypatch):
        # at |w| ~ 1e3 some first Newton steps have a negative gain, from a
        # Hessian that roundoff leaves indefinite: the full step does not
        # raise Q1, the bound stops the search there, and the solve returns
        # its start; at |w| ~ 1e19 every proportion is 0 or 1, and the
        # Hessian is exactly singular before any step is tried
        tried, log_proportions = [0], rhlp._log_proportions

        def counting(w, V):
            tried[0] += 1
            return log_proportions(w, V)

        bounded, singular = 0, 0
        for K, q, scale in itertools.product([2, 3, 5], [0, 1, 2], [3e2, 1e3, 3e3, 1e19]):
            w, tau, *_, sig = self.instance(K, q, scale)
            V = design_matrix(sig.t, q)
            logpi = log_proportions(w, V)
            tried[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(rhlp, "_log_proportions", counting)
                got_w, _ = rhlp._irls_solve(w, tau, V, rhlp._outer_rows(V), logpi)
            unmoved = got_w.tobytes() == w.tobytes()
            if tried[0] > 0 and unmoved:
                bounded += tried[0] == self.bound_trials(w, tau, V)
            singular += tried[0] == 0 and unmoved
        assert bounded >= 3 and singular >= 9

    @pytest.mark.parametrize("K, q", list(itertools.product([2, 3, 5], [0, 1, 2])))
    @pytest.mark.parametrize("scale", [0.5, 10.0])
    def test_a_search_that_raises_nothing_stops_at_the_bound(self, monkeypatch, K, q, scale):
        # under a _log_proportions whose every trial gives Q1 = -inf, no step
        # length raises Q1: the first search tries the full step and its
        # halvings down to where alpha gain <= _IRLS_TOL, no further, and
        # the solve returns its start
        w, tau, *_, sig = self.instance(K, q, scale)
        V = design_matrix(sig.t, q)
        logpi = rhlp._log_proportions(w, V)
        want = self.bound_trials(w, tau, V)
        tried, log_proportions = [0], rhlp._log_proportions

        def rejected(w, V):
            tried[0] += 1
            return log_proportions(w, V) - np.inf

        monkeypatch.setattr(rhlp, "_log_proportions", rejected)
        got_w, got_logpi = rhlp._irls_solve(w, tau, V, rhlp._outer_rows(V), logpi)
        assert tried[0] == want > 1
        assert got_w.tobytes() == w.tobytes() and got_logpi is logpi

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_a_non_finite_gain_gets_the_full_step_only(self, monkeypatch, K):
        # times up to 1e160: the squared times in the Hessian overflow, the
        # Newton step and its gain are NaN, and after the full step fails
        # the solve returns its start
        t = np.linspace(0.0, 1e160, 50)
        V = design_matrix(t, 1)
        with np.errstate(over="ignore"):
            VV = rhlp._outer_rows(V)
        w = np.zeros((K, 2))
        tau = np.ascontiguousarray(np.random.default_rng(K).dirichlet(np.ones(K), 50).T)
        logpi = rhlp._log_proportions(w, V)
        tried, log_proportions = [0], rhlp._log_proportions

        def counting(w, V):
            tried[0] += 1
            return log_proportions(w, V)

        monkeypatch.setattr(rhlp, "_log_proportions", counting)
        got_w, got_logpi = rhlp._irls_solve(w, tau, V, VV, logpi)
        assert tried[0] == 1
        assert got_w.tobytes() == w.tobytes() and got_logpi is logpi

    @pytest.mark.parametrize("K, q", list(itertools.product([2, 3, 5], [1, 2])))
    @pytest.mark.parametrize("c", [30.0, 1e5])
    def test_irls_solve_on_separated_responsibilities(self, K, q, c):
        w, tau, t = separated_instance(K, q, c)
        if c == 1e5:
            # every proportion is 0 or 1, so the Hessian is exactly zero
            assert not np.any(irls_hessian(w, t))
        self.assert_irls_equal(w, tau, t)

    @PIN_CASES
    def test_posterior(self, K, q, scale):
        w, _, betas, sigma2s, sig = self.instance(K, q, scale)
        T, V = design_matrix(sig.t, 2), design_matrix(sig.t, q)
        logpi = rhlp._log_proportions(w, V)
        tau, ll = rhlp._posterior(logpi, betas @ T.T, sigma2s, sig.x)
        ref_tau, ref_ll = _posterior_reference(logpi, betas, sigma2s, sig.x, T)
        assert tau.tobytes() == ref_tau.tobytes() and ll == ref_ll

    @PIN_CASES
    def test_m_step_regression(self, K, q, scale):
        _, tau, *_, sig = self.instance(K, q, scale)
        T = design_matrix(sig.t, 2)
        betas, sigma2s, means = rhlp._m_step_regression(tau, sig, T, 4)
        ref_betas, ref_sigma2s = _m_step_regression_reference(tau, sig, T, 4)
        assert betas.tobytes() == ref_betas.tobytes()
        assert sigma2s.tobytes() == ref_sigma2s.tobytes()
        assert means.tobytes() == (ref_betas @ T.T).tobytes()

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_m_step_regression_starved(self, K):
        _, tau, *_, sig = self.instance(K, 1, 0.5)
        tau[K // 2] = 0.0
        T = design_matrix(sig.t, 2)
        with pytest.raises(EmptyComponentError) as got:
            rhlp._m_step_regression(tau, sig, T, 4)
        with pytest.raises(EmptyComponentError) as ref:
            _m_step_regression_reference(tau, sig, T, 4)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("case", ["random", "huge", "zero-v", "tiny"])
    @pytest.mark.parametrize("step_max", [4.0, 64.0])
    def test_squarem_point(self, case, step_max):
        rng = np.random.default_rng([len(case), int(step_max)])
        theta0, theta1 = rng.normal(size=(2, 17))
        theta2 = rng.normal(size=17)
        if case == "huge":
            # the squared norms overflow to inf, and inf / inf is nan
            theta0, theta1, theta2 = 1e200 * theta0, 1e200 * theta1, 1e200 * theta2
        elif case == "zero-v":
            theta2 = theta0 + 2.0 * (theta1 - theta0)
        elif case == "tiny":
            theta0, theta1, theta2 = 1e-170 * theta0, 1e-170 * theta1, 1e-170 * theta2
        with np.errstate(all="ignore"):
            theta, s = rhlp._squarem_point(theta0, theta1, theta2, step_max)
            ref_theta, ref_s = _squarem_point_reference(theta0, theta1, theta2, step_max)
        assert theta.tobytes() == ref_theta.tobytes()
        assert s == ref_s or (np.isnan(s) and np.isnan(ref_s))


class TestEmFit:
    def test_k1_equals_ols(self):
        # the start is the segment_cost fit of the whole signal, the OLS
        # optimum, so one EM step confirms it
        rng = np.random.default_rng(14)
        t = np.linspace(0, 5, 50)
        x = 1.0 + 0.5 * t + 0.1 * rng.standard_normal(50)
        sig = Signal(t, x)
        report = em_fit(sig, K=1, p=1, q=0)
        T = design_matrix(t, 1)
        ols = np.linalg.lstsq(T, x, rcond=None)[0]
        np.testing.assert_allclose(report.params.betas[0], ols, atol=1e-9)
        sigma2 = np.sum((x - T @ ols) ** 2) / 50
        assert report.params.sigma2s[0] == pytest.approx(sigma2, rel=1e-9)
        assert report.em_iterations == 1 and report.converged
        want = -25 * (np.log(2 * np.pi * sigma2) + 1)
        assert abs(report.log_likelihood - want) <= 1e-12 * abs(want)
        np.testing.assert_array_equal(report.labels, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_non_decreasing(self, seed):
        sig, _ = simulate_piecewise(SITUATION_1, 300, seed=seed)
        report = em_fit(sig, K=3, p=2, q=1, seed=seed)
        diffs = np.diff(report.log_likelihood_trace)
        assert np.all(diffs >= -1e-8)

    @SCENARIOS
    @pytest.mark.parametrize("K", [2, 4, 5])
    def test_trace_non_decreasing_misspecified_k(self, scenario, K):
        sig, _ = simulate_piecewise(scenario, 300, seed=K)
        report = em_fit(sig, K=K, p=2, q=1, seed=K)
        assert np.diff(report.log_likelihood_trace).min() >= -1e-8

    @SCENARIOS
    @pytest.mark.parametrize("K", [3, 5])
    def test_result_is_em_fixed_point(self, scenario, K):
        sig, _ = simulate_piecewise(scenario, 300, seed=1)
        report = em_fit(sig, K=K, p=2, q=1, seed=1)
        assert report.converged
        params = report.params
        tau = e_step(params, sig)
        comps = m_step_regression(tau, sig, p=2)
        w = irls_solve(params.logistic.w, tau, sig.t)
        stepped = RhlpParams(LogisticProcess(w), comps)
        gain = mixture_log_likelihood(stepped, sig) - report.log_likelihood
        assert -1e-8 <= gain < 1e-4

    def test_misspecified_k_converges_before_max_iter(self):
        # plain EM stops at its 1000-evaluation limit on this fit
        sig, _ = simulate_piecewise(SITUATION_1, 1000, seed=0)
        report = em_fit(sig, K=5, p=2, q=1, seed=0)
        assert report.converged
        assert report.em_iterations < 1000

    def test_plain_step_errors_propagate(self):
        # three samples make the cubic design rank deficient at the first EM
        # step, which is never an extrapolated one
        sig = Signal(np.arange(3.0), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(RankDeficientError):
            em_fit(sig, K=1, p=3, q=1, seed=0)

    def test_failed_restart_is_dropped(self):
        # restart 1 hits a rank-deficient weighted design on a plain EM step;
        # the runs that finish still give the fit
        sig, _ = simulate_piecewise(SITUATION_1, 150, seed=7)
        lls = [em_fit(sig, K=5, p=2, q=2, n_restarts=n_restarts, seed=1).log_likelihood
               for n_restarts in (0, 1, 2)]
        assert min(lls[1:]) >= lls[0]

    def test_every_run_failing_raises_the_first_error(self, monkeypatch):
        runs = []

        def failing(*args):
            runs.append(len(runs))
            raise RankDeficientError(f"run {runs[-1]}")

        monkeypatch.setattr(rhlp, "_em_once", failing)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(RankDeficientError, match="^run 0$"):
            em_fit(sig, K=2, p=1, q=1, n_restarts=2, seed=0)
        assert runs == [0, 1, 2]

    def test_max_iter_bounds_evaluations(self, monkeypatch):
        monkeypatch.setattr(rhlp, "_EM_MAX_ITER", 7)
        sig, _ = simulate_piecewise(SITUATION_1, 300, seed=2)
        report = em_fit(sig, K=5, p=2, q=1)
        assert not report.converged
        assert report.em_iterations <= 7
        assert report.em_iterations == len(report.log_likelihood_trace) - 1

    @pytest.mark.parametrize("kwargs", [
        {"n_restarts": -1}, {"n_restarts": -2},
    ], ids=["restarts-1", "both"])
    def test_counts_below_their_minimum_raise(self, kwargs):
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(ValueError, match="n_restarts >= 0"):
            em_fit(sig, K=2, p=1, q=1, seed=0, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"epsilon": 1e-6}, {"max_iter": 1000}],
                             ids=["epsilon", "max_iter"])
    def test_stopping_rule_is_not_an_argument(self, kwargs):
        # EM stops by the fixed _EM_TOL and _EM_MAX_ITER
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            em_fit(sig, K=2, p=1, q=1, seed=0, **kwargs)
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            select_model(sig, [1, 2], [1], 1, seed=0, **kwargs)

    @pytest.mark.parametrize("call, name", [
        (lambda sig: select_model(sig, [1, 2], [1], 1, seed=0, n_restarts=2), "n_restarts"),
        (lambda sig: m_step_regression(np.full((sig.n, 2), 0.5), sig, 1, iteration=3),
         "iteration"),
    ], ids=["select_model-n_restarts", "m_step_regression-iteration"])
    def test_removed_input_is_not_an_argument(self, call, name):
        # select_model fits with em_fit's defaults and a seed; the public M
        # step runs outside any EM iteration
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(TypeError, match=name):
            call(sig)

    def test_design_matrices_are_built_once_per_fit(self, monkeypatch):
        # the fit's two designs, which the final denoise and labels reuse;
        # none per EM step, run or restart
        built = []

        def counting(t, p):
            built.append(p)
            return design_matrix(t, p)

        monkeypatch.setattr(rhlp, "design_matrix", counting)
        sig, _ = simulate_piecewise(SITUATION_1, 200, seed=2)
        iterations = set()
        for max_iter, n_restarts in itertools.product([1, 4, 1000], [0, 2]):
            built.clear()
            monkeypatch.setattr(rhlp, "_EM_MAX_ITER", max_iter)
            report = em_fit(sig, K=3, p=2, q=1, n_restarts=n_restarts, seed=0)
            iterations.add(report.em_iterations)
            assert sorted(built) == [1, 2], (max_iter, n_restarts)
        assert max(iterations) > 4

    def test_log_proportions_are_computed_once_per_iterate(self, monkeypatch):
        # outside the IRLS line search, log pi is computed only for each run's
        # start and for each finite SQUAREM point; every other E step and IRLS
        # solve takes the one its iterate carries
        calls = {"outside": 0, "squarem": 0}
        depth = [0]
        log_proportions, irls, squarem = (
            rhlp._log_proportions, rhlp._irls_solve, rhlp._squarem_point)

        def counting_log_proportions(w, V):
            calls["outside"] += depth[0] == 0
            return log_proportions(w, V)

        def nested_irls(*args):
            depth[0] += 1
            try:
                return irls(*args)
            finally:
                depth[0] -= 1

        def counting_squarem(*args):
            theta, s = squarem(*args)
            calls["squarem"] += bool(np.all(np.isfinite(theta)))
            return theta, s

        monkeypatch.setattr(rhlp, "_log_proportions", counting_log_proportions)
        monkeypatch.setattr(rhlp, "_irls_solve", nested_irls)
        monkeypatch.setattr(rhlp, "_squarem_point", counting_squarem)
        sig, _ = simulate_piecewise(SITUATION_2, 200, seed=5)
        # K = 1 starts at its optimum and takes one step, so it shows no SQUAREM
        for K, n_restarts in itertools.product([2, 3, 5], [0, 2]):
            calls.update(outside=0, squarem=0)
            report = em_fit(sig, K=K, p=2, q=1, n_restarts=n_restarts, seed=0)
            assert report.em_iterations > 2
            assert calls["outside"] == 1 + n_restarts + calls["squarem"], (K, n_restarts)

    @SCENARIOS
    @pytest.mark.parametrize("K, q, n_restarts", list(
        itertools.product([1, 2, 3, 5], [0, 1, 2], [0, 2])))
    def test_final_likelihood_is_that_of_the_fitted_params(self, scenario, K, q,
                                                           n_restarts):
        # a carried log pi that belonged to another w would move the trace
        # away from the likelihood of the parameters the report holds
        sig, _ = simulate_piecewise(scenario, 300, seed=K + q)
        report = em_fit(sig, K=K, p=2, q=q, n_restarts=n_restarts, seed=1)
        fit_signal = Signal(report.time_map(sig.t), sig.x)
        assert report.log_likelihood == mixture_log_likelihood(report.params, fit_signal)

    def test_labels_contiguous_with_q1(self):
        sig, _ = simulate_piecewise(SITUATION_1, 400, seed=3)
        report = em_fit(sig, K=3, p=2, q=1, seed=3)
        changes = np.sum(np.diff(report.labels) != 0)
        assert changes == 2  # three contiguous runs

    def test_deterministic(self):
        sig, _ = simulate_piecewise(SITUATION_1, 200, seed=9)
        a = em_fit(sig, K=3, p=2, q=1, seed=5, n_restarts=2)
        b = em_fit(sig, K=3, p=2, q=1, seed=5, n_restarts=2)
        assert a.log_likelihood == b.log_likelihood
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_report_fields(self):
        sig, _ = simulate_piecewise(SITUATION_1, 200, seed=1)
        report = em_fit(sig, K=3, p=2, q=1, seed=1)
        assert len(report.labels) == len(report.denoised) == 200
        assert report.em_iterations == len(report.log_likelihood_trace) - 1
        assert report.bic < report.log_likelihood

    @pytest.mark.parametrize("n, K", [(3, 3), (4, 3), (5, 2), (7, 3), (9, 4), (20, 6)])
    def test_restart_cuts_are_always_a_partition(self, n, K):
        # short signals, where a quarter-segment jitter would let cuts collide
        for s in range(200):
            cuts = rhlp._perturbed_cuts(np.random.default_rng(s), n, K)
            assert cuts[0] == 0 and cuts[-1] == n and np.all(np.diff(cuts) >= 1)

    @pytest.mark.parametrize("n, K", [(40, 3), (100, 5), (500, 4), (1000, 2)])
    def test_restart_cuts_keep_the_quarter_segment_jitter(self, n, K):
        # the jitter windows of neighbouring cuts are disjoint here, so the
        # cap does not bind: one draw of K - 1 offsets in [-j, j]
        base = np.rint(np.linspace(0, n, K + 1)).astype(int)
        j = max(1, n // (4 * K))
        assert 2 * j + 1 <= np.diff(base).min()
        for s in range(50):
            offsets = np.random.default_rng(s).integers(-j, j + 1, size=K - 1)
            cuts = rhlp._perturbed_cuts(np.random.default_rng(s), n, K)
            np.testing.assert_array_equal(cuts[1:-1], base[1:-1] + offsets)


class TestDenoiseAndLabels:
    def test_k1_denoise_is_polynomial(self):
        params = make_params(np.zeros((1, 2)), [[1.0, 2.0]], [1.0])
        t = np.linspace(0, 5, 10)
        np.testing.assert_allclose(denoise(params, t), 1.0 + 2.0 * t)

    def test_hard_proportions_select_active_polynomial(self):
        w = np.array([[1000.0, -500.0], [0.0, 0.0]])  # switch at t=2, |slope|=500
        params = make_params(w, [[0.0, 1.0], [10.0, -1.0]], [1.0, 1.0])
        t = np.linspace(0, 5, 101)
        xhat = denoise(params, t)
        away = np.abs(t - 2.0) > 0.25
        first = t < 2.0
        expected = np.where(first, t, 10.0 - t)
        assert np.max(np.abs(xhat[away] - expected[away])) < 1e-3

    def test_denoise_within_convex_hull(self):
        rng = np.random.default_rng(15)
        w = np.zeros((3, 2))
        w[:2] = rng.normal(size=(2, 2))
        params = make_params(w, rng.normal(size=(3, 3)), [1.0, 1.0, 1.0])
        t = np.linspace(0, 5, 50)
        curves = design_matrix(t, 2) @ params.betas.T
        xhat = denoise(params, t)
        assert np.all(xhat >= curves.min(axis=1) - 1e-12)
        assert np.all(xhat <= curves.max(axis=1) + 1e-12)

    def test_hard_labels_fig_style_switch(self):
        proc_params = make_params(
            np.array([[10.0, -5.0], [0.0, 0.0]]), [[0.0], [0.0]], [1.0, 1.0]
        )
        t = np.linspace(0, 5, 101)
        labels = hard_labels(proc_params, t)
        assert np.all(labels[t < 1.99] == 1)
        assert np.all(labels[t > 2.01] == 2)

    def test_common_shift_leaves_labels_unchanged(self):
        rng = np.random.default_rng(16)
        w = np.zeros((3, 2))
        w[:2] = rng.normal(size=(2, 2))
        t = np.linspace(0, 5, 40)
        base = logistic_proportions(LogisticProcess(w), t)
        shift = rng.normal(size=2)
        shifted = w + shift  # all rows shifted; re-zero the reference
        shifted = shifted - shifted[-1]
        after = logistic_proportions(LogisticProcess(shifted), t)
        np.testing.assert_allclose(base, after, atol=1e-12)


class TestBic:
    def test_arithmetic_example(self):
        params = make_params(
            np.zeros((3, 2)), np.zeros((3, 3)), [1.0, 1.0, 1.0]
        )
        assert n_free_parameters(3, 2, 1) == 16
        assert bic(params, 0.0, 1000) == pytest.approx(-16 * np.log(1000) / 2)

    def test_degenerate_model(self):
        assert n_free_parameters(1, 0, 0) == 2

    def test_penalty_monotone(self):
        vals = [n_free_parameters(K, 2, 1) for K in (1, 2, 3, 4)]
        assert vals == sorted(vals)
        params2 = make_params(np.zeros((2, 2)), np.zeros((2, 3)), [1.0, 1.0])
        params3 = make_params(np.zeros((3, 2)), np.zeros((3, 3)), [1.0] * 3)
        assert bic(params3, 5.0, 100) < bic(params2, 5.0, 100)

    def test_free_parameter_count_audit(self):
        for K, p, q in itertools.product(range(1, 5), range(4), range(3)):
            counted = K * (p + 1) + K + (K - 1) * (q + 1)
            assert counted == n_free_parameters(K, p, q)


def bits(obj):
    """obj as nested tuples of its exact bits: arrays by dtype, shape and
    bytes, floats by their hex form, dataclasses field by field."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, *(bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(map(bits, obj))
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def use_cpus(monkeypatch, cpus):
    """Make select_model see `cpus` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def worker_pids():
    """The pids of select_model's workers in this process; none before the
    first multi-CPU sweep."""
    return [] if rhlp._workers is None else [proc.pid for proc in rhlp._workers.procs]


def assert_only_the_shared_workers(cpus, cells):
    """This process's only children are select_model's workers, all alive,
    one per CPU and at most one per cell of the largest sweep so far, or
    none where those sweeps ran in-process."""
    pids = worker_pids()
    workers = min(cpus, cells)
    assert len(pids) == (workers if workers > 1 else 0)
    assert sorted(proc.pid for proc in multiprocessing.active_children()) == sorted(pids)


def logging_stub(log, fail=(), sleep=None):
    """An em_fit stand-in that appends "start K pid" and "end K pid" lines
    to the file log, raises LookupError(K) for K in fail, and sleeps
    sleep.get(K, 0) seconds first."""
    def stub(signal, K, p, q, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"start {K} {os.getpid()}\n")
        try:
            time.sleep((sleep or {}).get(K, 0))
            if K in fail:
                raise LookupError(K)
            return SimpleNamespace(K=K, p=p, bic=float(K), log_likelihood=0.0, converged=True)
        finally:
            with open(log, "a") as fh:
                fh.write(f"end {K} {os.getpid()}\n")

    return stub


def read_log(log):
    """(event, K, pid) of every line of a logging_stub log."""
    with open(log) as fh:
        return [(event, int(K), int(pid)) for event, K, pid in map(str.split, fh)]


# a fresh interpreter that runs two select_model sweeps on two CPUs, prints
# its workers' pids and then exits, or SIGKILLs itself with argv[1] == "kill"
SWEEPS_THEN_EXIT = """
import os, signal, sys
os.sched_getaffinity = lambda pid: {0, 1}
from rhlpseg import rhlp
from rhlpseg.simulate import SITUATION_1, simulate_piecewise
sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
for _ in range(2):
    rhlp.select_model(sig, [1, 2, 3], [2], 1, seed=0)
print(*(proc.pid for proc in rhlp._workers.procs), flush=True)
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


class TestSelectModel:
    @pytest.fixture(autouse=True)
    def fresh_workers(self):
        # workers run the package as it was when they were forked, and these
        # tests patch it, so each test forks its own and ends them after
        rhlp._reset_workers()
        yield
        rhlp._reset_workers()

    def test_contract_on_single_component_data(self):
        rng = np.random.default_rng(17)
        t = np.linspace(0, 5, 120)
        sig = Signal(t, 2.0 + 0.3 * t + 0.5 * rng.standard_normal(120))
        best, table = select_model(sig, K_range=[1, 2], p_range=[1], q=1, seed=0)
        assert len(table) == 2
        bics = {e.K: e.bic for e in table}
        assert best.params.K == max(bics, key=lambda k: bics[k])

    def test_failed_cells_recorded(self):
        sig = Signal(np.linspace(0, 5, 12), np.zeros(12))
        # K=6 on 12 points starves components instead of aborting the sweep
        _, table = select_model(sig, K_range=[1, 6], p_range=[2], q=1, seed=0)
        assert len(table) == 2

    def test_all_candidates_failing_raises_numerical_error(self):
        # three samples cannot determine a cubic: every fit is rank deficient
        sig = Signal(np.arange(3.0), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="every candidate fit failed"):
            select_model(sig, K_range=[1, 2], p_range=[3], q=1, seed=0)

    @pytest.mark.parametrize("K_range, p_range", [([], [2]), ([1, 2], []), (range(0), [2])],
                             ids=["no-K", "no-p", "empty-range"])
    def test_empty_range_raises_before_any_fit(self, monkeypatch, K_range, p_range):
        def no_fit(*args, **kwargs):
            raise AssertionError("em_fit called")

        monkeypatch.setattr(rhlp, "em_fit", no_fit)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(ValueError, match="empty model range"):
            select_model(sig, K_range, p_range, 1)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a fit failure")

        monkeypatch.setattr(rhlp, "_irls_solve", broken)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(TypeError):
            select_model(sig, K_range=[1, 2], p_range=[2], q=1, seed=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, seed", [(60, 4), (60, 6), (100, 1)])
    def test_sweep_emits_no_runtime_warning(self, n, seed):
        # these sweeps meet near-singular IRLS Hessians and wild extrapolations
        sig, _ = simulate_piecewise(SITUATION_1, n, seed=seed)
        _, table = select_model(sig, K_range=range(1, 6), p_range=[2], q=1, seed=seed)
        assert all(e.error is None for e in table)

    def test_tie_break_prefers_smaller_model(self, monkeypatch):
        # (2, 2), (2, 3) and (3, 1) tie at the best BIC, and neither the
        # first nor the last of them in sweep order is the smallest (K, p)
        tied = {(2, 2), (2, 3), (3, 1)}

        def stub(signal, K, p, q, **kwargs):
            bic = -10.0 if (K, p) in tied else -20.0
            return SimpleNamespace(K=K, p=p, bic=bic, log_likelihood=bic, converged=True)

        monkeypatch.setattr(rhlp, "em_fit", stub)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        best, table = select_model(sig, K_range=[3, 2], p_range=[2, 3, 1], q=1)
        assert (best.K, best.p) == (2, 2)
        assert [(e.K, e.p) for e in table if e.bic == -10.0] == [(3, 1), (2, 2), (2, 3)]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_cells_equal_serial_em_fits_bit_for_bit(self, monkeypatch, cpus):
        # (3, 8) and (6, 8) fail rank deficient; the rest fit
        use_cpus(monkeypatch, cpus)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        best, table = select_model(sig, K_range=[1, 2, 3, 6], p_range=[2, 8], q=1, seed=0)
        assert_only_the_shared_workers(cpus, 8)
        expected, reports = [], {}
        for K, p in itertools.product([1, 2, 3, 6], [2, 8]):
            try:
                r = em_fit(sig, K, p, 1, seed=0)
            except NumericalError as exc:
                expected.append(SelectionEntry(K, p, 1, None, None, None, str(exc)))
                continue
            reports[K, p] = r
            expected.append(SelectionEntry(K, p, 1, r.bic, r.log_likelihood, r.converged))
        assert 0 < sum(e.error is not None for e in expected) < len(expected)
        assert bits(table) == bits(expected)
        assert bits(best) == bits(max(reports.values(), key=lambda r: r.bic))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_cells_run_in_workers_unless_one_cpu(self, monkeypatch, cpus):
        def stub(signal, K, p, q, **kwargs):
            return SimpleNamespace(K=K, bic=float(K), log_likelihood=0.0, converged=True,
                                   pid=os.getpid())

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(rhlp, "em_fit", stub)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        best, _ = select_model(sig, K_range=[1, 2, 3], p_range=[2], q=1)
        assert best.K == 3
        assert (best.pid == os.getpid()) == (cpus == 1)
        assert_only_the_shared_workers(cpus, 3)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("error", [LookupError, NonMonotonicTimeError])
    def test_first_failing_cell_in_table_order_raises(self, monkeypatch, cpus, error):
        # K = 4 runs first, as the largest cell, and fails at once; K = 2
        # fails later, but comes first in the table
        def stub(signal, K, p, q, **kwargs):
            if K == 2:
                time.sleep(0.2)
            if K in (2, 4):
                raise error(K)
            return SimpleNamespace(K=K, bic=0.0, log_likelihood=0.0, converged=True)

        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(rhlp, "em_fit", stub)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(error) as info:
            select_model(sig, K_range=range(1, 6), p_range=[2], q=1)
        assert type(info.value) is error and str(info.value) == str(error(2))
        assert_only_the_shared_workers(cpus, 5)

    @pytest.mark.parametrize("K_range, p_range, q", [([3, 4, 0], [2], 1), ([1], [2, -1], 1),
                                                     ([1, 2], [2], -1)],
                             ids=["K=0", "p=-1", "q=-1"])
    def test_invalid_cell_raises_before_any_fit(self, monkeypatch, K_range, p_range, q):
        def no_fit(*args, **kwargs):
            raise AssertionError("em_fit called")

        monkeypatch.setattr(rhlp, "em_fit", no_fit)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(ValueError, match="require K >= 1, p >= 0, q >= 0"):
            select_model(sig, K_range, p_range, q)

    def test_signal_data_error_raises_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("em_fit called")

        monkeypatch.setattr(rhlp, "em_fit", no_fit)
        # the fit-time factor 5 / (t[-1] - t[0]) overflows
        sig = Signal(np.arange(60) * 5e-324, np.random.default_rng(0).normal(size=60))
        with pytest.raises(DataError, match="times out of range"):
            select_model(sig, range(1, 4), [2], 1)

    def test_daemonic_process_fits_in_process(self):
        # a daemonic process, such as a multiprocessing.Pool worker, may not
        # start children, so select_model fits its cells there in-process
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        receive, send = multiprocessing.Pipe(duplex=False)

        def child():
            try:
                send.send(bits(select_model(sig, [1, 2], [2], 1, seed=0)[1]))
            except BaseException as exc:
                send.send(repr(exc))

        proc = multiprocessing.get_context("fork").Process(target=child, daemon=True)
        proc.start()
        assert receive.poll(60)
        got = receive.recv()
        proc.join(10)
        assert proc.exitcode == 0
        assert got == bits(select_model(sig, [1, 2], [2], 1, seed=0)[1])

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_sweeps_reuse_one_worker_per_cpu(self, monkeypatch, tmp_path, cpus):
        log = tmp_path / "cells.log"
        use_cpus(monkeypatch, cpus)
        monkeypatch.setattr(rhlp, "em_fit", logging_stub(log, sleep={6: 0.2}))
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        select_model(sig, K_range=range(1, 7), p_range=[2], q=1)
        pids = worker_pids()
        assert_only_the_shared_workers(cpus, 6)
        best, table = select_model(sig, K_range=range(1, 7), p_range=[2], q=1)
        assert best.K == 6 and [e.K for e in table] == list(range(1, 7))
        assert worker_pids() == pids
        assert_only_the_shared_workers(cpus, 6)
        ran = read_log(log)
        assert len(ran) == 2 * 2 * 6
        # K = 6 holds one worker for 0.2 s, so another fits the rest
        assert 1 < len({pid for _, _, pid in ran}) <= cpus
        assert {pid for _, _, pid in ran} <= set(pids)

    def test_a_worker_lost_between_sweeps_is_replaced(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        first = select_model(sig, K_range=range(1, 5), p_range=[2], q=1, seed=0)
        lost = rhlp._workers.procs[0]
        os.kill(lost.pid, signal.SIGKILL)
        lost.join(10)
        assert lost.exitcode == -signal.SIGKILL
        again = select_model(sig, K_range=range(1, 5), p_range=[2], q=1, seed=0)
        assert bits(again) == bits(first)
        assert lost.pid not in worker_pids()
        assert_only_the_shared_workers(2, 4)

    def test_a_changed_cpu_count_starts_fresh_workers(self, monkeypatch):
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        tables, pids = [], []
        for cpus in (2, 3, 1, 2):
            use_cpus(monkeypatch, cpus)
            tables.append(bits(select_model(sig, K_range=range(1, 5), p_range=[2], q=1, seed=0)))
            pids.append(set(worker_pids()))
        assert tables[1:] == tables[:-1]
        # one CPU fits in-process and keeps the three workers
        assert [len(p) for p in pids] == [2, 3, 3, 2] and pids[2] == pids[1]
        assert not pids[0] & pids[1] and not pids[1] & pids[3]
        assert_only_the_shared_workers(2, 4)

    def test_workers_grow_with_the_cells_up_to_one_per_cpu(self, monkeypatch):
        # eight CPUs and three cells fork three workers; a later sweep with
        # more cells forks more and keeps the first, and one with fewer keeps all
        use_cpus(monkeypatch, 8)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        pids, tables = [], []
        for K_range in (range(1, 4), range(1, 6), range(1, 3)):
            tables.append(bits(select_model(sig, K_range, [2], 1, seed=0)))
            pids.append(worker_pids())
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert tables[-1] == bits(select_model(sig, K_range, [2], 1, seed=0))
            use_cpus(monkeypatch, 8)
        assert [len(p) for p in pids] == [3, 5, 5]
        assert pids[1][:3] == pids[0] and pids[2] == pids[1]
        assert_only_the_shared_workers(8, 5)

    def test_each_sweep_runs_under_the_callers_warnings_and_errstate(self, monkeypatch):
        # the workers start under lenient settings; later, stricter sweeps
        # raise in them as they would in-process, and lenient ones fit again
        def stub(signal, K, p, q, **kwargs):
            warnings.warn(f"cell {K}", UserWarning)
            np.log(np.zeros(1))
            return SimpleNamespace(K=K, p=p, bic=float(K), log_likelihood=0.0, converged=True)

        def sweep(warning, divide):
            with warnings.catch_warnings(), np.errstate(divide=divide):
                warnings.simplefilter(warning, UserWarning)
                return select_model(sig, K_range=[1, 2, 3], p_range=[2], q=1)[0].K

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(rhlp, "em_fit", stub)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        assert sweep("ignore", "ignore") == 3
        pids = worker_pids()
        with pytest.raises(FloatingPointError, match="divide by zero"):
            sweep("ignore", "raise")
        with pytest.raises(UserWarning, match="^cell 1$"):
            sweep("error", "ignore")
        assert sweep("ignore", "ignore") == 3
        assert worker_pids() == pids
        assert_only_the_shared_workers(2, 3)

    def test_filters_that_do_not_pickle_fit_in_process(self, monkeypatch):
        class LocalWarning(UserWarning):
            pass

        def stub(signal, K, p, q, **kwargs):
            return SimpleNamespace(K=K, bic=float(K), log_likelihood=0.0, converged=True,
                                   pid=os.getpid())

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(rhlp, "em_fit", stub)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LocalWarning)
            best, _ = select_model(sig, K_range=[1, 2, 3], p_range=[2], q=1)
        assert best.K == 3 and best.pid == os.getpid()
        assert_only_the_shared_workers(1, 3)

    def test_threads_take_turns_with_the_workers(self, monkeypatch):
        # four threads sweep at once on three workers, more than this
        # machine's cores may be; each must get its own signal's table
        use_cpus(monkeypatch, 3)
        signals = [simulate_piecewise(SITUATION_1, 60, seed=seed)[0] for seed in range(4)]
        expected = [bits(select_model(sig, range(1, 5), [2], 1, seed=0)) for sig in signals]
        got = [[] for _ in signals]

        def sweep(i):
            for _ in range(2):
                got[i].append(bits(select_model(signals[i], range(1, 5), [2], 1, seed=0)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(signals))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[e, e] for e in expected]
        assert_only_the_shared_workers(3, 4)

    @pytest.mark.parametrize("workers", ["fresh", "reused", "reused-once"])
    def test_a_cell_that_ends_its_worker_raises_broken_process_pool(self, monkeypatch,
                                                                     tmp_path, workers):
        # a worker lost during a sweep raises on fresh and reused workers
        # alike, and ends the others; with "once", the K = 3 cell ends its
        # worker the first time only, so the next sweep fits on fresh ones
        flag = tmp_path / "killed"

        def stub(sig, K, p, q, **kwargs):
            if K == 3 and not flag.exists():
                if workers == "reused-once":
                    flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return em_fit(sig, K, p, q, **kwargs)

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(rhlp, "em_fit", stub)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        if workers != "fresh":
            select_model(sig, K_range=[1, 2], p_range=[2], q=1, seed=0)
        with pytest.raises(BrokenProcessPool):
            select_model(sig, K_range=[1, 2, 3], p_range=[2], q=1, seed=0)
        assert rhlp._workers is None
        assert multiprocessing.active_children() == []
        if workers == "reused-once":
            again = select_model(sig, K_range=[1, 2, 3], p_range=[2], q=1, seed=0)
            use_cpus(monkeypatch, 1)
            assert bits(again) == bits(select_model(sig, K_range=[1, 2, 3], p_range=[2], q=1,
                                                    seed=0))
            assert_only_the_shared_workers(2, 3)

    def test_a_failing_sweep_raises_once_no_cell_runs(self, monkeypatch, tmp_path):
        # K = 5 starts first and runs on after K = 4 fails; K = 3 and the
        # cells before it may still fail first, so they run too
        log = tmp_path / "cells.log"
        use_cpus(monkeypatch, 3)
        monkeypatch.setattr(rhlp, "em_fit", logging_stub(log, fail={4}, sleep={5: 0.4, 3: 0.2}))
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(LookupError, match="^4$"):
            select_model(sig, K_range=range(1, 6), p_range=[2], q=1)
        ran = read_log(log)
        started = sorted(K for event, K, _ in ran if event == "start")
        assert started == [1, 2, 3, 4, 5]
        assert sorted(K for event, K, _ in ran if event == "end") == started
        assert_only_the_shared_workers(3, 5)

    def test_cells_after_a_known_failure_do_not_start(self, monkeypatch, tmp_path):
        # the table runs from K = 7 down, in the order the cells start; K = 6
        # fails while K = 7 still runs, so no later cell starts
        log = tmp_path / "cells.log"
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(rhlp, "em_fit", logging_stub(log, fail={6}, sleep={7: 0.3}))
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        with pytest.raises(LookupError, match="^6$"):
            select_model(sig, K_range=range(7, 0, -1), p_range=[2], q=1)
        ran = read_log(log)
        assert sorted(K for event, K, _ in ran if event == "start") == [6, 7]
        assert sorted(K for event, K, _ in ran if event == "end") == [6, 7]

    def test_a_multiprocessing_child_sweeps_on_its_own_workers(self, monkeypatch):
        # the child inherits the parent's workers, which are not its own; it
        # forks its own, and its exit ends them instead of waiting on them
        use_cpus(monkeypatch, 2)
        sig, _ = simulate_piecewise(SITUATION_1, 60, seed=0)
        expected = bits(select_model(sig, [1, 2, 3], [2], 1, seed=0))
        receive, send = multiprocessing.Pipe(duplex=False)

        def child():
            send.send(bits(select_model(sig, [1, 2, 3], [2], 1, seed=0)) + (worker_pids(),))

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        try:
            assert receive.poll(10), "the child's sweep hangs"
            *got, child_workers = receive.recv()
            proc.join(10)
            assert proc.exitcode == 0, "the child's exit hangs"
        finally:
            proc.kill()
            proc.join()
        assert tuple(got) == expected
        assert len(child_workers) == 2 and not set(child_workers) & set(worker_pids())
        assert_only_the_shared_workers(2, 3)

    @pytest.mark.parametrize("end", ["exit", "kill"])
    def test_no_worker_outlives_its_interpreter(self, end):
        # the interpreter leads a session of its own, so any worker left
        # behind keeps its process group alive
        src = Path(rhlp.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen([sys.executable, "-c", SWEEPS_THEN_EXIT, end], env=env,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == (-signal.SIGKILL if end == "kill" else 0)
            assert len(out.split()) == 2
            deadline = time.monotonic() + 5
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert end == "kill" and time.monotonic() < deadline, "workers outlived it"
                time.sleep(0.1)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
