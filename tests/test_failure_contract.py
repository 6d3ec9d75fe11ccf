"""The failure contract of the library and of the CLI.

Library: on any signal that Signal accepts, each fitter either returns
finite results with labels in 1..K, or raises a package error, and no
warning escapes. The signals are drawn from families of hard inputs: epoch
times, times scaled far from 1, tiny gaps, times one ulp apart, huge, tiny,
constant, tied, offset, spiked and stepped values.

CLI: on any CSV bytes, each fit command exits 0, 1 or 2. A non-zero exit
prints exactly one line, starting error:, and writes no report; no run
prints a traceback or a warning. The files are drawn from families of
malformed CSVs: header variants, blank rows, a single row, bad numbers,
repeated and decreasing times, NUL bytes, open quotes and bytes that are
not UTF-8."""
import contextlib
import inspect
import io
import os
import pickle
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhlpseg.cli import main
from rhlpseg.core import Signal
from rhlpseg import errors
from rhlpseg.errors import RhlpSegError
from rhlpseg.piecewise import PiecewiseFit, fisher_dp, multi_start_iterative
from rhlpseg.rhlp import FitReport, em_fit, select_model
from rhlpseg.simulate import SITUATION_1, simulate_piecewise

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
    except RhlpSegError:
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
        except RhlpSegError:
            return
        holds_the_contract(lambda: em_fit(signal, K, p, q, n_restarts=1, seed=seed), K)
        holds_the_contract(lambda: fisher_dp(signal, K, p), K)
        holds_the_contract(lambda: multi_start_iterative(signal, K, p, seed=seed), K)
        try:
            best, table = select_model(signal, range(1, K + 1), [p], q, seed=seed)
        except RhlpSegError:
            return
        check_fit(best, K)
        assert [(e.K, e.p) for e in table] == [(k, p) for k in range(1, K + 1)]
        for entry in table:
            if entry.error is None:
                assert_finite(entry.bic, entry.log_likelihood)


def test_fit_scalars_are_python_floats():
    # J, its trace, the log-likelihoods and the BICs of every fitter and of
    # select_model's table, as fisher_dp's J already was
    signal, _ = simulate_piecewise(SITUATION_1, 120, seed=0)
    dp, it = fisher_dp(signal, 3, 2), multi_start_iterative(signal, 3, 2, seed=0)
    report = em_fit(signal, 3, 2, 1, seed=0)
    best, table = select_model(signal, range(1, 4), [2], 1, seed=0)
    scalars = [dp.criterion_j, dp.log_likelihood, it.criterion_j, it.log_likelihood, *it.j_trace,
               report.log_likelihood, report.bic, *report.log_likelihood_trace, best.bic,
               *(value for entry in table for value in (entry.bic, entry.log_likelihood))]
    assert [type(value) for value in scalars] == [float] * len(scalars)


# constructor arguments of the errors that take more than a message
ERROR_ARGS = {
    errors.EmptyComponentError: (2, 7),
    errors.NonMonotonicTimeError: (4,),
    errors.ParseError: ("bad number", 3),
}


@pytest.mark.parametrize(
    "error", [c for c in vars(errors).values() if inspect.isclass(c) and issubclass(c, Exception)],
    ids=lambda c: c.__name__)
def test_errors_survive_pickling(error):
    # select_model's worker processes send errors back pickled
    exc = error(*ERROR_ARGS.get(error, ("a message",)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert type(back) is error
        assert (str(back), back.args, vars(back)) == (str(exc), exc.args, vars(exc))


HEADERS = {
    "plain": b"t,x",
    "upper": b"T,X",
    "spaced": b" t , x ",
    "label": b"t,x,label",
    "missing-x": b"t",
    "swapped": b"x,t",
    "bom": b"\xef\xbb\xbft,x",
}
VALID_HEADERS = ["plain", "upper", "spaced", "label"]
# cells that replace a drawn time, value or label
BAD_CELLS = {
    "non-numeric": ["", "abc", "0x1p3", "1.5.0", "--1"],
    "non-finite": ["inf", "-inf", "nan", "1e400", "-1e400"],
}
# bytes inserted at a drawn offset of the file
BAD_BYTES = {"nul": b"\x00", "open-quote": b'"', "not-utf8": b"\xff\xfe"}
# every header variant on a clean file, and every defect under a header the
# loader accepts, so that each family reaches the fitters on its own
FAMILIES = [f"header-{h}" for h in HEADERS] + [
    "blank-rows", "single-row", *BAD_CELLS, "repeated-time", "decreasing-time", *BAD_BYTES]
FIT_COMMANDS = {
    "fit-dp": [],
    "fit-dp-iter": ["--seed", "0"],
    "fit-rhlp": ["--seed", "0"],
}


@st.composite
def signal_csv_bytes(draw, family):
    """A CSV of up to 30 rows of a noisy three-step signal, of the family."""
    if family.startswith("header-"):
        header = HEADERS[family.removeprefix("header-")]
    else:
        header = HEADERS[draw(st.sampled_from(VALID_HEADERS))]
    # blank rows may be all a file holds
    n = 1 if family == "single-row" else draw(st.integers(0 if family == "blank-rows" else 2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) * draw(st.sampled_from([1.0, 0.1, 1e9]))
    if family == "repeated-time":
        i = int(rng.integers(1, n))
        t[i] = t[i - 1]
    elif family == "decreasing-time":
        t = t[::-1]
    x = np.repeat(rng.standard_normal(3) * 5, -(-n // 3))[:n] + rng.standard_normal(n)
    rows = [[repr(float(ti)), repr(float(xi)), str(3 * i // n + 1)]
            for i, (ti, xi) in enumerate(zip(t, x))]
    if family in BAD_CELLS:
        rows[int(rng.integers(n))][int(rng.integers(3))] = draw(
            st.sampled_from(BAD_CELLS[family]))
    width = 3 if header == HEADERS["label"] else 2
    lines = [header] + [",".join(row[:width]).encode() for row in rows]
    if family == "blank-rows":
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(1, len(lines) + 1)), b"")
    data = b"\n".join(lines) + b"\n"
    if family in BAD_BYTES:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + BAD_BYTES[family] + data[at:]
    return data


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(list(FIT_COMMANDS)),
    K=st.integers(1, 3),
    p=st.integers(0, 2),
)
def test_cli_fits_exit_with_one_error_line_or_a_report(family, data, command, K, p):
    csv_bytes = data.draw(signal_csv_bytes(family))
    with tempfile.TemporaryDirectory() as tmp:
        signal, report = os.path.join(tmp, "signal.csv"), os.path.join(tmp, "fit.json")
        with open(signal, "wb") as fh:
            fh.write(csv_bytes)
        argv = [command, "--input", signal, "--output", report, "--k", str(K), "--p", str(p),
                *FIT_COMMANDS[command]]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        assert rc in (0, 1, 2), rc
        if rc == 0:
            assert lines == [] and os.path.exists(report), lines
        else:
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert not os.path.exists(report)
