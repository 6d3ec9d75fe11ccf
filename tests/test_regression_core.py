import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rhlpseg.core import (
    Signal,
    design_matrix,
    gaussian_log_density,
    weighted_least_squares,
)
from rhlpseg.errors import (
    NonFiniteValueError,
    NonMonotonicTimeError,
    NumericalError,
    RankDeficientError,
)


def normal_equations_wls(T, x, w):
    """Independent oracle: solve (T^T W T) beta = T^T W x directly, row by
    row for a (K, n) stack of weights."""
    if w.ndim == 2:
        return np.stack([normal_equations_wls(T, x, wk) for wk in w])
    W = np.diag(w)
    return np.linalg.solve(T.T @ W @ T, T.T @ W @ x)


class TestSignal:
    def test_valid(self):
        s = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert s.n == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Signal([0.0, 1.0], [1.0])

    def test_non_monotonic(self):
        with pytest.raises(NonMonotonicTimeError):
            Signal([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteValueError):
            Signal([0.0, 1.0], [np.nan, 0.0])


class TestPolynomialBasis:
    def test_rows_of_design_matrix(self):
        t = np.array([0.0, 0.5, 1.0])
        T = design_matrix(t, 2)
        for i, ti in enumerate(t):
            np.testing.assert_array_equal(T[i], ti ** np.arange(3))

    def test_design_matrix_degree_zero(self):
        np.testing.assert_array_equal(design_matrix([0.0, 1.0, 2.0], 0), [[1], [1], [1]])

    def test_design_matrix_line(self):
        np.testing.assert_array_equal(design_matrix([0.0, 1.0], 1), [[1, 0], [1, 1]])

    @pytest.mark.parametrize("p", range(6))
    def test_design_matrix_is_vander_bit_for_bit(self, p):
        t = np.random.default_rng(p).normal(size=50) * 10.0 ** np.arange(-25, 25)
        T = design_matrix(np.append(t, -0.0), p)
        ref = np.vander(np.append(t, -0.0), p + 1, increasing=True)
        assert T.dtype == ref.dtype and T.flags.c_contiguous
        assert T.shape == ref.shape and T.tobytes() == ref.tobytes()


class TestWeightedLeastSquares:
    def test_noiseless_line(self):
        t = np.linspace(0, 1, 8)
        T = design_matrix(t, 1)
        beta = weighted_least_squares(T, 3.0 + 2.0 * t, np.ones(8))
        np.testing.assert_allclose(beta, [3.0, 2.0], atol=1e-12)

    def test_indicator_weights_equal_subrange_ols(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0, 1, 20)
        x = rng.normal(size=20)
        T = design_matrix(t, 1)
        w = np.zeros(20)
        w[5:15] = 1.0
        beta = weighted_least_squares(T, x, w)
        sub = np.linalg.lstsq(T[5:15], x[5:15], rcond=None)[0]
        np.testing.assert_allclose(beta, sub, rtol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(0, 5, 10))
        x = rng.normal(size=10)
        T = design_matrix(t, 2)
        for shape in [(10,), (3, 10)]:  # one weight vector, and a stack
            w = rng.uniform(0.1, 2.0, shape)
            beta = weighted_least_squares(T, x, w)
            assert beta.shape == shape[:-1] + (3,)
            np.testing.assert_allclose(beta, normal_equations_wls(T, x, w), rtol=1e-9)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_stack_equals_one_call_per_row(self, K, p):
        rng = np.random.default_rng(10 * K + p)
        t = np.sort(rng.uniform(0, 5, 40))
        x = rng.normal(size=40)
        w = rng.dirichlet(np.ones(K), size=40).T  # (K, n), like EM responsibilities
        T = design_matrix(t, p)
        stacked = weighted_least_squares(T, x, w)
        rows = np.stack([weighted_least_squares(T, x, wk) for wk in w])
        assert stacked.shape == (K, p + 1)
        np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_unit_weights_equal_ols_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(6, 30)
        t = np.sort(rng.uniform(0, 5, n))
        x = rng.normal(size=n)
        T = design_matrix(t, 2)
        beta = weighted_least_squares(T, x, np.ones(n))
        np.testing.assert_allclose(beta, normal_equations_wls(T, x, np.ones(n)),
                                   rtol=1e-9, atol=1e-12)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=25, deadline=None)
    def test_weight_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0, 5, 15))
        x = rng.normal(size=15)
        w = rng.uniform(0.5, 1.5, 15)
        T = design_matrix(t, 1)
        b1 = weighted_least_squares(T, x, w)
        b2 = weighted_least_squares(T, x, scale * w)
        np.testing.assert_allclose(b1, b2, rtol=1e-12, atol=1e-14)

    def test_rank_deficient_raises(self):
        for t, p, rank in [
            ([1.0, 1.0, 1.0], 1, 1),  # constant column + degenerate times
            ([0.0, 1.0, 2.0], 3, 3),  # fewer samples than coefficients: R is not square
        ]:
            T = design_matrix(t, p)
            with pytest.raises(RankDeficientError,
                               match=f"weighted design has rank {rank} < {p + 1} coefficients"):
                weighted_least_squares(T, np.array([1.0, 2.0, 3.0]), np.ones(3))

    def test_one_rank_deficient_row_of_a_stack_raises(self):
        t = np.linspace(0, 1, 6)
        w = np.ones((3, 6))
        w[1, 1:] = 0.0  # one sample cannot determine a line
        with pytest.raises(RankDeficientError, match="rank 1 < 2"):
            weighted_least_squares(design_matrix(t, 1), np.arange(6.0), w)

    def test_zero_weight_sum_rejected(self):
        T = design_matrix([0.0, 1.0], 0)
        with pytest.raises(ValueError):
            weighted_least_squares(T, np.array([1.0, 2.0]), np.zeros(2))

    @pytest.mark.parametrize("w", [
        np.array([1.0, -0.5]), np.array([[1.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 1.0], [2.0, -1e-300]]),
    ], ids=["negative", "zero-row", "negative-in-stack"])
    def test_invalid_weights_rejected(self, w):
        T = design_matrix([0.0, 1.0], 0)
        with pytest.raises(ValueError, match="weights must"):
            weighted_least_squares(T, np.array([1.0, 2.0]), w)

    @pytest.mark.parametrize("where, value", [
        ("w", np.nan), ("w", np.inf), ("x", np.nan), ("T", -np.inf),
    ], ids=["nan-weight", "inf-weight", "nan-value", "inf-design"])
    def test_non_finite_input_rejected(self, where, value):
        # LAPACK's SVD does not converge on such input, and a NaN value
        # would give NaN coefficients
        args = {"T": design_matrix(np.linspace(0, 1, 6), 1), "x": np.arange(6.0),
                "w": np.ones((2, 6))}
        args[where][(1,) * args[where].ndim] = value
        with pytest.raises(ValueError, match="T, x and w must be finite"):
            weighted_least_squares(**args)

    @pytest.mark.parametrize("T, w", [
        (design_matrix(np.linspace(0, 5, 20), 2) * 1e200, np.full(20, 1e300)),
        (design_matrix(np.linspace(0, 5, 20), 2) * 1e200, np.full((2, 20), 1e300)),
        (design_matrix(np.linspace(0, 1, 20), 2) * 1.7e308, np.ones(20)),
    ], ids=["scaled-product", "scaled-product-stack", "triangle"])
    def test_finite_input_that_overflows_raises_numerical_error(self, T, w):
        # finite input whose sqrt(w)-scaled products, or whose triangle,
        # overflow: a package error, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="weighted least squares overflows"):
                weighted_least_squares(T, np.arange(20.0), w)


class TestGaussianLogDensity:
    def test_standard_normal_at_mode(self):
        assert gaussian_log_density(0.0, 0.0, 1.0) == pytest.approx(
            -0.5 * np.log(2 * np.pi)
        )

    def test_one_sigma_away(self):
        assert gaussian_log_density(1.0, 0.0, 1.0) == pytest.approx(
            -0.5 * np.log(2 * np.pi) - 0.5
        )

    def test_hand_evaluation(self):
        expected = -0.5 * (np.log(2 * np.pi) + np.log(4.0) + 0.25)
        assert gaussian_log_density(2.0, 1.0, 4.0) == pytest.approx(expected)

    @pytest.mark.parametrize("mean,sigma2", [(0.0, 1.0), (3.0, 0.25), (-2.0, 7.0)])
    def test_integrates_to_one(self, mean, sigma2):
        sd = np.sqrt(sigma2)
        val, _ = quad(
            lambda x: np.exp(gaussian_log_density(x, mean, sigma2)),
            mean - 8 * sd, mean + 8 * sd,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_non_positive_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_log_density(0.0, 0.0, 0.0)
