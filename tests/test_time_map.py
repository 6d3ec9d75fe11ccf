"""The fit problem of a signal: every fitter maps its times t once to
u = (t - t0) * factor, fits in u and keeps the map, so a fit does not depend
on where the clock starts or how fast it runs. It maps its values x once to
y = (x - x0) * 2^-e, fits on y and maps its result back to x through the
same FitProblem, and the variance floor is relative to var(x), so the
piecewise fits do not depend on the values' offset or scale either, across
the whole value range a Signal accepts, and RHLP does not depend on a
power-of-two scale."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rhlpseg.core import RELATIVE_VARIANCE_FLOOR, FitProblem, Signal, TimeMap, ValueMap
from rhlpseg.errors import DataError
from rhlpseg.piecewise import fisher_dp, multi_start_iterative
from rhlpseg.rhlp import FitReport, em_fit, select_model
from rhlpseg.simulate import SITUATION_1, SITUATION_2, simulate_piecewise

EPOCH = 1.7e9


def summary(fit):
    """Labels, log-likelihood and criterion J (None for RHLP) of a fit."""
    if isinstance(fit, FitReport):
        return fit.labels, fit.log_likelihood, None
    return fit.labels(), fit.log_likelihood, fit.criterion_j


class TestTimeMap:
    @pytest.mark.parametrize("n", [2, 7, 500, 1000])
    def test_paper_grid_is_its_own_fit_time(self, n):
        t = np.linspace(0.0, 5.0, n)
        assert TimeMap.of(t) == TimeMap(0.0, 1.0)
        assert np.array_equal(TimeMap.of(t)(t), t)

    @pytest.mark.parametrize("n", [300, 500])
    def test_epoch_grid_maps_onto_the_paper_grid(self, n):
        t = EPOCH + np.arange(n, dtype=float)
        assert np.array_equal(TimeMap.of(t)(t), np.linspace(0.0, 5.0, n))

    def test_single_sample_has_factor_one(self):
        assert TimeMap.of([EPOCH]) == TimeMap(EPOCH, 1.0)
        problem = FitProblem.of(Signal([EPOCH], [3.0]))
        assert problem.time_map(EPOCH + 2.0) == 2.0
        np.testing.assert_array_equal(problem.signal.t, [0.0])
        assert problem.value_map == ValueMap(3.0, 0)
        np.testing.assert_array_equal(problem.signal.x, [0.0])


class TestValueMap:
    @pytest.fixture(scope="class")
    def x(self):
        return simulate_piecewise(SITUATION_1, 500, seed=3)[0].x + 1e3

    @pytest.mark.parametrize("k", [-10, 7, -300])
    def test_power_of_two_scaling_gives_the_same_fit_values(self, x, k):
        scaled = ValueMap.of(np.ldexp(x, k))
        assert scaled == ValueMap(np.ldexp(x[0], k), ValueMap.of(x).e + k)
        np.testing.assert_array_equal(scaled(np.ldexp(x, k)), ValueMap.of(x)(x))

    @pytest.mark.parametrize("value", [0.0, -3.0, 1e150, 2.0**600])
    def test_constant_maps_to_zero(self, value):
        # np.std of 60 copies of 1e150 is 1.8e134, not 0
        x = np.full(60, value)
        value_map = ValueMap.of(x)
        assert value_map == ValueMap(value, 0)
        np.testing.assert_array_equal(value_map(x), 0.0)

    def test_fit_values_have_unit_order_spread(self, x):
        assert 0.5 <= np.std(ValueMap.of(x)(x)) < 1.0


class TestFitProblem:
    @pytest.fixture(scope="class")
    def x(self):
        return simulate_piecewise(SITUATION_1, 500, seed=3)[0].x + 1e3

    def test_epoch_signal_maps_to_the_fit_signal(self, x):
        # u and y as the two maps were written out before FitProblem held them
        t = EPOCH + np.arange(len(x), dtype=float)
        problem = FitProblem.of(Signal(t, x))
        e = int(np.frexp(np.std(x))[1])
        np.testing.assert_array_equal(problem.signal.t, (t - t[0]) * float(5.0 / (t[-1] - t[0])))
        np.testing.assert_array_equal(problem.signal.x, np.ldexp(x - x[0], -e))
        np.testing.assert_array_equal(problem.signal.t, np.linspace(0.0, 5.0, len(x)))
        assert problem.time_map == TimeMap.of(t) and problem.value_map == ValueMap(x[0], e)

    def test_results_map_back_to_x(self, x):
        # a polynomial fitted to y, mapped back, is the same curve on x, with
        # its variance and log-likelihood moved as the change of variables
        problem = FitProblem.of(Signal(np.arange(len(x), dtype=float), x))
        e, x0 = problem.value_map.e, problem.value_map.x0
        T = np.vander(np.linspace(0.0, 5.0, len(x)), 3, increasing=True)
        beta_y = np.array([[0.5, -0.25, 0.125], [-1.5, 0.75, 0.0]])
        comps = problem.components_to_x(beta_y, [0.25, 3.0])
        np.testing.assert_allclose(T @ comps[0].beta, np.ldexp(T @ beta_y[0], e) + x0,
                                   rtol=1e-15)
        assert comps[0].sigma2 == 0.25 * 4.0**e
        log_jacobian = len(x) * e * float(np.log(2.0))
        assert log_jacobian == pytest.approx(len(x) * np.log(2.0**e), rel=1e-15)
        # bit for bit the formulas the fitters applied before FitProblem
        for comp, beta, sigma2 in zip(comps, beta_y, [0.25, 3.0], strict=True):
            want = np.ldexp(beta, e)
            want[0] += x0
            assert np.array_equal(comp.beta, want) and comp.sigma2 == np.ldexp(sigma2, 2 * e)
        for value in (-1234.5678, 0.0, 987.65):
            assert problem.j_to_x(value) == value + 2.0 * log_jacobian
            assert problem.log_likelihood_to_x(value) == value - log_jacobian


SPAN_MESSAGE = r"times out of range: t\[-1\] - t\[0\] must lie in \[2\.78e-308, 1\.8e\+308\]"
# spans whose map 5 / (t[-1] - t[0]) overflows, and whose span itself does;
# and strictly increasing times whose first gaps, times the factor 1.25e-300,
# underflow to fit-time gaps of 0: a DataError naming the first such gap, not
# a NonMonotonicTimeError about times that do increase
TIMES_OUT_OF_RANGE = {
    "span-1e-309": (np.arange(8) * 1e-310, SPAN_MESSAGE),
    "span-overflows": (np.array([-1e308, -7e307, -3e307, 0, 1e306, 5e307, 1.2e308, 1.75e308]),
                       SPAN_MESSAGE),
    "gap-underflows": (np.array([0, 1e-300, 2e-300, 3e-300, 1e300, 2e300, 3e300, 4e300]),
                       r"times out of range: the gap t\[1\] - t\[0\] = 1e-300 maps to a "
                       r"fit-time gap of 0"),
}


class TestTimeSpanOutOfRange:
    @pytest.mark.parametrize("t, message", TIMES_OUT_OF_RANGE.values(),
                             ids=TIMES_OUT_OF_RANGE.keys())
    @pytest.mark.parametrize("fitter", [
        FitProblem.of,
        lambda s: fisher_dp(s, 2, 1),
        lambda s: multi_start_iterative(s, 2, 1, seed=0),
        lambda s: em_fit(s, 2, 1, 1, seed=0),
        lambda s: select_model(s, [1, 2], [1], 1, seed=0),
    ], ids=["FitProblem.of", "fisher_dp", "multi_start_iterative", "em_fit", "select_model"])
    def test_raises_data_error_naming_the_span(self, t, message, fitter):
        # the Signal itself is valid; only its fit problem cannot be mapped,
        # and RuntimeWarnings are errors in this suite
        sig = Signal(t, np.random.default_rng(4).normal(size=len(t)))
        with pytest.raises(DataError, match=message) as info:
            fitter(sig)
        assert type(info.value) is DataError


@given(
    scenario=st.sampled_from([SITUATION_1, SITUATION_2]),
    seed=st.integers(0, 2**16),
    n=st.integers(60, 100),
    # alpha = a / 1024 runs from about 1e-3 to 1e6; with integer sample
    # indices and an integer beta, alpha * i + beta is exact in binary64
    a=st.integers(1, 2**30),
    beta=st.integers(-1_700_000_000, 1_700_000_000),
    c=st.floats(1e-6, 1e6),
    negate=st.booleans(),
    d=st.floats(-1e3, 1e3),
)
@settings(max_examples=25, deadline=None)
def test_fits_are_invariant_under_affine_time_and_values(
    scenario, seed, n, a, beta, c, negate, d
):
    # the values move as c * (x + d) against a base of x + d: c * x + d at
    # c = 1e-6 and d = 1e3 would keep only about 7 digits of x itself
    x = simulate_piecewise(scenario, n, seed)[0].x + d
    i = np.arange(n, dtype=float)
    base = Signal(i, x)
    c = -c if negate else c
    moved = Signal(a / 1024 * i + beta, c * x)
    shift = 2 * n * np.log(abs(c))
    for fitter in (lambda s: fisher_dp(s, 3, 2),
                   lambda s: multi_start_iterative(s, 3, 2, seed=0)):
        want, got = fitter(base), fitter(moved)
        np.testing.assert_array_equal(got.partition.gamma, want.partition.gamma)
        expected = want.criterion_j + shift
        assert abs(got.criterion_j - expected) <= 1e-9 * (abs(want.criterion_j) + abs(shift))
    trace = em_fit(moved, 3, 2, 1, seed=0).log_likelihood_trace
    assert np.diff(trace).min(initial=0.0) >= -1e-8


def test_binding_variance_floor_scales_with_the_values():
    # the optimum has a 4-sample segment (one degree of freedom at p = 2)
    # whose variance, 1.5e-6 here, falls under an absolute floor of 1e-8
    # once x is divided by 16
    sig = simulate_piecewise(SITUATION_2, 60, seed=0)[0]
    want = fisher_dp(sig, 3, 2)
    got = fisher_dp(Signal(sig.t, sig.x / 16), 3, 2)
    np.testing.assert_array_equal(got.partition.gamma, want.partition.gamma)
    shift = 2 * 60 * np.log(1 / 16)
    expected = want.criterion_j + shift
    assert abs(got.criterion_j - expected) <= 1e-9 * (abs(want.criterion_j) + abs(shift))


def accepted_exponents(x):
    """The smallest and the largest e for which Signal accepts x * 2^e: the
    floor RELATIVE_VARIANCE_FLOOR * var(x * 2^e) is a normal double, and
    n * ptp(x * 2^e)^2 is at most RELATIVE_VARIANCE_FLOOR times the largest
    double."""
    fl = np.finfo(float)
    bottom = math.log2(fl.smallest_normal / (RELATIVE_VARIANCE_FLOOR * np.var(x)))
    top = math.log2(fl.max * RELATIVE_VARIANCE_FLOOR / (len(x) * np.ptp(x) ** 2))
    return math.ceil(bottom / 2), math.floor(top / 2)


@given(
    scenario=st.sampled_from([SITUATION_1, SITUATION_2]),
    seed=st.integers(0, 2**16),
    n=st.integers(60, 100),
    where=st.floats(0.0, 1.0),
)
# both ends of the range, on the CLI's epoch signal and on the signal whose
# iterative fit failed at x * 2^503 before the range was checked
@example(scenario=SITUATION_1, seed=3, n=500, where=0.0)
@example(scenario=SITUATION_1, seed=3, n=500, where=1.0)
@example(scenario=SITUATION_2, seed=0, n=60, where=0.0)
@example(scenario=SITUATION_2, seed=0, n=60, where=1.0)
@settings(max_examples=20, deadline=None)
def test_fits_span_the_accepted_value_range(scenario, seed, n, where):
    # scaling by a power of two is exact, so the DP fit moves by exactly
    # 2 n log c in J and not at all in gamma; EM sees the same fit values y
    # from its start on, so its labels stay and its log-likelihood moves by
    # -n log c, up to the rounding of the final evaluation on x
    x = simulate_piecewise(scenario, n, seed)[0].x
    t = np.linspace(0.0, 5.0, n)
    lo, hi = accepted_exponents(x)
    for outside in (lo - 1, hi + 1):
        with pytest.raises(DataError, match="values out of range"):
            Signal(t, np.ldexp(x, outside))
    e = lo + round(where * (hi - lo))
    moved = Signal(t, np.ldexp(x, e))
    want, got = fisher_dp(Signal(t, x), 3, 2), fisher_dp(moved, 3, 2)
    np.testing.assert_array_equal(got.partition.gamma, want.partition.gamma)
    shift = 2 * n * e * np.log(2.0)
    expected = want.criterion_j + shift
    assert abs(got.criterion_j - expected) <= 1e-9 * (abs(want.criterion_j) + abs(shift))
    assert np.isfinite(multi_start_iterative(moved, 3, 2, seed=0).criterion_j)
    want, got = em_fit(Signal(t, x), 3, 2, 1, seed=0), em_fit(moved, 3, 2, 1, seed=0)
    np.testing.assert_array_equal(got.labels, want.labels)
    expected = want.log_likelihood - shift / 2
    assert abs(got.log_likelihood - expected) <= 1e-12 * (abs(want.log_likelihood) + abs(shift))


@pytest.mark.parametrize("scenario, n, seed, scale", [
    (SITUATION_1, 500, 3, 2.0**-904),  # var(x) underflows to 0
    (SITUATION_1, 500, 3, 1e-160),  # var(x) is subnormal
    (SITUATION_1, 500, 3, 2.0**498),  # em_fit's least squares fails
    (SITUATION_2, 60, 0, 2.0**503),  # the iterative fit's costs overflow
], ids=["2^-904", "1e-160", "2^498", "2^503"])
def test_values_out_of_range_raise_data_error(scenario, n, seed, scale):
    x = simulate_piecewise(scenario, n, seed)[0].x
    with pytest.raises(DataError, match="values out of range"):
        Signal(np.arange(float(n)), x * scale)


@pytest.mark.parametrize("value", [0.0, -3.0, 0.1, 1e-300, 1e12, 1e150, 2.0**600])
def test_constant_values_fit(value):
    # np.var of 60 copies of 0.1 or 1e150 is not 0 but roundoff (1.7e-33 and
    # 3.3e268), which must not set the floor or the value map of a constant
    # signal. Every constant maps to y = 0, so every fit equals that of x = 1.
    t = np.linspace(0.0, 5.0, 60)
    sig = Signal(t, np.full(60, value))
    assert sig.variance_floor == RELATIVE_VARIANCE_FLOOR
    one = Signal(t, np.ones(60))
    for fitter in (lambda s: em_fit(s, 3, 2, 1, seed=0), lambda s: fisher_dp(s, 3, 2),
                   lambda s: multi_start_iterative(s, 3, 2, seed=0)):
        assert fitter(sig).log_likelihood == fitter(one).log_likelihood


class TestEpochSignal:
    """SITUATION_1, n = 500, seed 3 on t = 1.7e9 + i against t on [0, 5]."""

    @pytest.fixture(scope="class")
    def x(self):
        return simulate_piecewise(SITUATION_1, 500, seed=3)[0].x

    @pytest.mark.parametrize("fitter", [
        lambda s: em_fit(s, 3, 2, 1, seed=0),
        lambda s: fisher_dp(s, 3, 2),
        lambda s: multi_start_iterative(s, 3, 2, seed=0),
    ], ids=["em_fit", "fisher_dp", "multi_start_iterative"])
    def test_fits_are_bit_identical_to_the_paper_grid(self, x, fitter):
        epoch = summary(fitter(Signal(EPOCH + np.arange(500.0), x)))
        paper = summary(fitter(Signal(np.linspace(0.0, 5.0, 500), x)))
        np.testing.assert_array_equal(epoch[0], paper[0])
        assert epoch[1:] == paper[1:]

    def test_offset_values_reach_the_dp_optimum_iteratively(self, x):
        fit = multi_start_iterative(Signal(EPOCH + np.arange(500.0), x + 1e3), 3, 2, seed=0)
        np.testing.assert_array_equal(fit.partition.gamma, [0, 60, 399, 500])

    def test_offset_values_keep_the_em_log_likelihood(self, x):
        epoch = em_fit(Signal(EPOCH + np.arange(500.0), x + 1e3), 3, 2, 1, seed=0)
        paper = em_fit(Signal(np.linspace(0.0, 5.0, 500), x), 3, 2, 1, seed=0)
        assert epoch.log_likelihood == pytest.approx(paper.log_likelihood, rel=1e-8)
