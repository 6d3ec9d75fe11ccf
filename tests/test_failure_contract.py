"""The failure contract of the library: on any signal that Signal accepts,
each fitter either returns finite results with labels in 1..K, or raises a
package error or LinAlgError, and no warning escapes. The signals are drawn
from families of hard inputs: epoch times, times scaled far from 1, tiny
gaps, times one ulp apart, huge, tiny, constant, tied, offset, spiked and
stepped values."""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlpseg.core import Signal
from rhlpseg.errors import RhlpSegError
from rhlpseg.piecewise import PiecewiseFit, fisher_dp, multi_start_iterative
from rhlpseg.rhlp import FitReport, em_fit, select_model

FIT_ERRORS = (RhlpSegError, np.linalg.LinAlgError)

TIMES = {
    "linspace": lambda rng, n: np.linspace(0.0, 5.0, n),
    "epoch": lambda rng, n: 1.7e9 + np.arange(n, dtype=float),
    "scaled-up": lambda rng, n: np.linspace(0.0, 5.0, n) * 1e300,
    "scaled-down": lambda rng, n: np.linspace(0.0, 5.0, n) * 1e-300,
    "gaps-1e-12": lambda rng, n: 1.0 + 1e-12 * np.arange(n),
    "one-ulp": lambda rng, n: 1.0 + np.spacing(1.0) * np.arange(n),
    "random": lambda rng, n: np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.integers(-5, 6),
}

VALUES = {
    # past the range Signal accepts (n * ptp(x)^2 overflows), and inside it
    "scaled-up": lambda rng, n: rng.standard_normal(n) * 1e150,
    "scaled-1e145": lambda rng, n: rng.standard_normal(n) * 1e145,
    "scaled-down": lambda rng, n: rng.standard_normal(n) * 1e-150,
    "constant": lambda rng, n: np.full(n, rng.standard_normal()),
    # rounds to the constant 2^600: a spread of one ulp there already puts
    # n * ptp(x)^2 past the range Signal accepts
    "offset-2^600": lambda rng, n: 2.0**600 + rng.standard_normal(n),
    "tied": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "spike": lambda rng, n: np.eye(1, n, int(rng.integers(n)))[0],
    "steps": lambda rng, n: np.repeat(rng.standard_normal(3), -(-n // 3))[:n]
    + 1e-3 * rng.standard_normal(n),
}


def assert_finite(*arrays):
    for a in arrays:
        assert np.all(np.isfinite(np.asarray(a, dtype=float))), a


def check_fit(fit, K):
    """A returned fit: finite numbers everywhere and labels in 1..K."""
    if isinstance(fit, FitReport):
        params = fit.params
        assert_finite(params.logistic.w, params.betas, params.sigma2s, fit.denoised,
                      fit.log_likelihood_trace, fit.bic)
        labels = fit.labels
    else:
        assert isinstance(fit, PiecewiseFit)
        assert_finite([c.beta for c in fit.components], [c.sigma2 for c in fit.components],
                      fit.criterion_j, fit.log_likelihood)
        labels = fit.labels()
    assert np.all((labels >= 1) & (labels <= K)), labels


def holds_the_contract(call, K):
    try:
        fit = call()
    except FIT_ERRORS:
        return
    check_fit(fit, K)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    times=st.sampled_from(sorted(TIMES)),
    values=st.sampled_from(sorted(VALUES)),
    n=st.integers(1, 40),
    K=st.integers(1, 5),
    p=st.integers(0, 3),
    q=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_fits_return_finite_results_or_raise_a_typed_error(times, values, n, K, p, q, seed):
    rng = np.random.default_rng(seed)
    t, x = TIMES[times](rng, n), VALUES[values](rng, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            signal = Signal(t, x)
        except FIT_ERRORS:
            return
        holds_the_contract(lambda: em_fit(signal, K, p, q, n_restarts=1, seed=seed), K)
        holds_the_contract(lambda: fisher_dp(signal, K, p), K)
        holds_the_contract(lambda: multi_start_iterative(signal, K, p, seed=seed), K)
        try:
            best, table = select_model(signal, range(1, K + 1), [p], q, seed=seed)
        except FIT_ERRORS:
            return
        check_fit(best, K)
        assert [(e.K, e.p) for e in table] == [(k, p) for k in range(1, K + 1)]
        for entry in table:
            if entry.error is None:
                assert_finite(entry.bic, entry.log_likelihood)
