import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

from rhlpseg.cli import main
from rhlpseg.core import Signal
from rhlpseg.errors import SchemaError
from rhlpseg.piecewise import fisher_dp, multi_start_iterative, piecewise_mean
from rhlpseg.reports import (
    load_fit_report,
    load_signal_csv,
    report_document,
    save_fit_report,
    save_signal_csv,
)
from rhlpseg.rhlp import denoise, em_fit, logistic_proportions
from rhlpseg.simulate import SITUATION_1, simulate_piecewise


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture
def signal_csv(tmp_path):
    sig, labels = simulate_piecewise(SITUATION_1, 200, seed=0)
    path = tmp_path / "signal.csv"
    save_signal_csv(path, sig, labels)
    return path


class TestSimulateCommand:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--scenario", "situation2", "--n", "150",
                   "--seed", "4", "--output", str(out)])
        assert rc == 0
        sig, labels = load_signal_csv(out)
        assert len(sig.t) == 150
        assert labels is not None and set(labels) == {1, 2, 3}

    def test_matches_library_call(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--scenario", "situation1", "--n", "80",
              "--seed", "7", "--output", str(out)])
        sig, _ = load_signal_csv(out)
        direct, _ = simulate_piecewise(SITUATION_1, 80, seed=7)
        np.testing.assert_array_equal(sig.x, direct.x)

    def test_params_json_generator(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "w": [[10.0, -5.0], [0.0, 0.0]],
            "beta": [[0.0, 1.0], [10.0, -1.0]],
            "sigma2": [0.5, 0.5],
        }))
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--params-json", str(params), "--n", "100",
                   "--seed", "1", "--output", str(out)])
        assert rc == 0
        sig, labels = load_signal_csv(out)
        assert set(labels) <= {1, 2}

    def test_unknown_scenario_exits_one(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "nope", "--n", "10",
                   "--seed", "0", "--output", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:DataError:")
        assert err.count("\n") == 1

    def test_both_generators_rejected(self, tmp_path):
        rc = main(["simulate", "--scenario", "situation1", "--params-json", "p.json",
                   "--n", "10", "--seed", "0", "--output", str(tmp_path / "x.csv")])
        assert rc == 1


class TestFitCommands:
    def test_fit_rhlp_end_to_end(self, tmp_path, signal_csv):
        report_path = tmp_path / "fit.json"
        series_path = tmp_path / "series.csv"
        rc = main(["fit-rhlp", "--input", str(signal_csv),
                   "--output", str(report_path), "--k", "3", "--p", "2",
                   "--q", "1", "--seed", "0",
                   "--series-output", str(series_path)])
        assert rc == 0
        doc = load_fit_report(report_path)
        assert doc.model == "rhlp"
        assert doc.K == 3 and doc.p == 2 and doc.q == 1
        assert np.isfinite(doc.log_likelihood)
        assert doc.bic < doc.log_likelihood
        rows = read_csv(series_path)
        assert rows[0] == ["t", "x", "denoised", "label"]
        assert len(rows) == 201

    def test_fit_dp_k1_uses_whole_range(self, tmp_path, signal_csv):
        report_path = tmp_path / "fit.json"
        rc = main(["fit-dp", "--input", str(signal_csv),
                   "--output", str(report_path), "--k", "1", "--p", "2"])
        assert rc == 0
        doc = load_fit_report(report_path)
        assert doc.model == "piecewise_dp"
        assert doc.gamma == [0, 200]
        assert all(lab == 1 for lab in doc.labels)

    def test_fit_dp_iter_runs(self, tmp_path, signal_csv):
        report_path = tmp_path / "fit.json"
        rc = main(["fit-dp-iter", "--input", str(signal_csv),
                   "--output", str(report_path), "--k", "3", "--p", "2",
                   "--seed", "0", "--restarts", "3"])
        assert rc == 0
        doc = load_fit_report(report_path)
        assert doc.model == "piecewise_iterative"
        assert len(doc.gamma) == 4

    def test_missing_input_exits_one(self, tmp_path, capsys):
        rc = main(["fit-dp", "--input", str(tmp_path / "absent.csv"),
                   "--output", str(tmp_path / "o.json"), "--k", "2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_infeasible_request_exits_two(self, tmp_path, capsys):
        sig = Signal(np.linspace(0, 5, 6), np.zeros(6))
        path = tmp_path / "tiny.csv"
        save_signal_csv(path, sig)
        rc = main(["fit-dp", "--input", str(path),
                   "--output", str(tmp_path / "o.json"), "--k", "3", "--p", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestReportRoundTrip:
    def test_rhlp_report_bit_exact(self, tmp_path):
        sig, _ = simulate_piecewise(SITUATION_1, 150, seed=2)
        report = em_fit(sig, K=3, p=2, q=1, seed=2)
        first = tmp_path / "a.json"
        save_fit_report(report, first)
        doc = load_fit_report(first)
        assert doc.log_likelihood == report.log_likelihood
        np.testing.assert_array_equal(np.asarray(doc.beta), report.params.betas)
        np.testing.assert_array_equal(np.asarray(doc.w), report.params.logistic.w)
        assert doc.bic == report.bic
        assert doc.labels == list(report.labels)

    def test_unknown_model_tag_rejected(self, tmp_path):
        sig, _ = simulate_piecewise(SITUATION_1, 120, seed=3)
        report = em_fit(sig, K=2, p=1, q=1, seed=3)
        path = tmp_path / "r.json"
        save_fit_report(report, path)
        raw = json.loads(path.read_text())
        raw["model"] = "mystery"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError):
            load_fit_report(path)

    def test_wrong_beta_shape_rejected(self, tmp_path):
        sig, _ = simulate_piecewise(SITUATION_1, 120, seed=3)
        report = em_fit(sig, K=2, p=1, q=1, seed=3)
        path = tmp_path / "r.json"
        save_fit_report(report, path)
        raw = json.loads(path.read_text())
        raw["beta"] = raw["beta"][:1]
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError):
            load_fit_report(path)


class TestSignalCsvErrors:
    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n")
        rc = main(["fit-dp", "--input", str(path),
                   "--output", str(tmp_path / "o.json"), "--k", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_monotonic_time(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0.0,1.0\n2.0,1.0\n1.0,1.0\n")
        rc = main(["fit-dp", "--input", str(path),
                   "--output", str(tmp_path / "o.json"), "--k", "1"])
        assert rc == 1

    def test_non_finite_value(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0.0,1.0\n1.0,nan\n")
        rc = main(["fit-dp", "--input", str(path),
                   "--output", str(tmp_path / "o.json"), "--k", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:NonFiniteValueError:")

    def test_unparsable_value_reports_line(self, tmp_path):
        from rhlpseg.errors import ParseError

        path = tmp_path / "bad.csv"
        path.write_text("t,x\n0.0,1.0\n0.5,oops\n")
        with pytest.raises(ParseError) as excinfo:
            load_signal_csv(path)
        assert "3" in str(excinfo.value)


class TestSelectModelCommand:
    def test_table_and_report(self, tmp_path, signal_csv):
        table_path = tmp_path / "bic.csv"
        report_path = tmp_path / "best.json"
        rc = main(["select-model", "--input", str(signal_csv),
                   "--output", str(table_path), "--k", "1,2", "--p", "2",
                   "--q", "1", "--seed", "0",
                   "--report-output", str(report_path)])
        assert rc == 0
        rows = read_csv(table_path)
        assert rows[0][:4] == ["K", "p", "q", "bic"]
        assert len(rows) == 3
        doc = load_fit_report(report_path)
        bics = {int(r[0]): float(r[3]) for r in rows[1:]}
        assert doc.K == max(bics, key=lambda k: bics[k])


class TestBenchmarkCommand:
    def test_deterministic_with_no_timing(self, tmp_path):
        argv = ["benchmark", "--scenarios", "situation1", "--n", "100",
                "--replicates", "2", "--methods", "fisher_dp,rhlp",
                "--seed", "5", "--no-timing"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = read_csv(out_a)
        assert rows[0][0] == "scenario"
        assert len(rows) == 3
        assert all(r[5] == "0.0" for r in rows[1:])

    def test_unknown_method_exits_one(self, tmp_path):
        rc = main(["benchmark", "--methods", "magic", "--seed", "0",
                   "--n", "100", "--output", str(tmp_path / "o.csv")])
        assert rc == 1


class TestPlotDataCommand:
    def test_rhlp_series(self, tmp_path, signal_csv):
        report_path = tmp_path / "fit.json"
        main(["fit-rhlp", "--input", str(signal_csv), "--output", str(report_path),
              "--k", "3", "--p", "2", "--q", "1", "--seed", "0"])
        out = tmp_path / "plot.csv"
        rc = main(["plot-data", "--input", str(report_path),
                   "--signal", str(signal_csv), "--output", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "series", "value"]
        names = {r[1] for r in rows[1:]}
        assert names == {"original", "denoised",
                         "component_1", "component_2", "component_3",
                         "proportion_1", "proportion_2", "proportion_3"}
        # mixing proportions sum to one at each time point
        props = {}
        for t, name, value in rows[1:]:
            if name.startswith("proportion_"):
                props.setdefault(t, 0.0)
                props[t] += float(value)
        assert props
        for total in props.values():
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_piecewise_series(self, tmp_path, signal_csv):
        report_path = tmp_path / "fit.json"
        main(["fit-dp", "--input", str(signal_csv), "--output", str(report_path),
              "--k", "3", "--p", "2"])
        out = tmp_path / "plot.csv"
        rc = main(["plot-data", "--input", str(report_path),
                   "--signal", str(signal_csv), "--output", str(out)])
        assert rc == 0
        names = {r[1] for r in read_csv(out)[1:]}
        assert "denoised" in names and "proportion_1" not in names

    def test_length_mismatch_exits_two(self, tmp_path, signal_csv):
        report_path = tmp_path / "fit.json"
        main(["fit-rhlp", "--input", str(signal_csv), "--output", str(report_path),
              "--k", "2", "--p", "1", "--seed", "0"])
        short = tmp_path / "short.csv"
        sig, _ = simulate_piecewise(SITUATION_1, 50, seed=0)
        save_signal_csv(short, sig)
        rc = main(["plot-data", "--input", str(report_path),
                   "--signal", str(short), "--output", str(tmp_path / "o.csv")])
        assert rc == 1


def assert_one_error_line(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"error:{kind}:") and err.count("\n") == 1, err


# (argv, report model tag, report seed, the same fit through the library)
FITS = {
    "fit-rhlp": (["fit-rhlp", "--k", "3", "--p", "2", "--q", "1", "--seed", "0"],
                 "rhlp", 0, lambda sig: em_fit(sig, 3, 2, 1, seed=0)),
    "fit-dp": (["fit-dp", "--k", "3", "--p", "2"],
               "piecewise_dp", None, lambda sig: fisher_dp(sig, 3, 2)),
    "fit-dp-iter": (["fit-dp-iter", "--k", "3", "--p", "2", "--seed", "4", "--restarts", "3"],
                    "piecewise_iterative", 4,
                    lambda sig: multi_start_iterative(sig, 3, 2, n_random_starts=3, seed=4)),
}


@pytest.mark.parametrize("command", list(FITS))
def test_fit_command_matches_library(tmp_path, signal_csv, command):
    argv, model, seed, library_fit = FITS[command]
    report_path, series_path = tmp_path / "fit.json", tmp_path / "series.csv"
    assert main([*argv, "--input", str(signal_csv), "--output", str(report_path),
                 "--series-output", str(series_path)]) == 0
    sig, _ = load_signal_csv(signal_csv)
    fit = library_fit(sig)
    expected = asdict(report_document(fit, model, seed))
    got = asdict(load_fit_report(report_path))
    assert got.pop("runtime_seconds") > 0
    expected.pop("runtime_seconds")
    assert got == expected
    rows = [[repr(float(t)), repr(float(x)), repr(float(m)), str(lab)] for t, x, m, lab
            in zip(sig.t, sig.x, fit.expectation(sig.t), expected["labels"])]
    assert read_csv(series_path) == [["t", "x", "denoised", "label"], *rows]


@pytest.mark.parametrize("command", list(FITS))
def test_plot_data_matches_library(tmp_path, signal_csv, command):
    argv, _, _, library_fit = FITS[command]
    report_path, out = tmp_path / "fit.json", tmp_path / "plot.csv"
    assert main([*argv, "--input", str(signal_csv), "--output", str(report_path)]) == 0
    assert main(["plot-data", "--input", str(report_path), "--signal", str(signal_csv),
                 "--output", str(out)]) == 0
    sig, _ = load_signal_csv(signal_csv)
    t, fit = sig.t, library_fit(sig)
    if command == "fit-rhlp":
        comps, curve = fit.params.components, denoise(fit.params, t)
        pi = logistic_proportions(fit.params.logistic, t)
    else:
        comps, curve = fit.components, piecewise_mean(fit.partition, fit.components, t)
        pi = np.empty((len(t), 0))
    expected = {"original": sig.x, "denoised": curve}
    expected |= {f"component_{k + 1}": c.mean(t) for k, c in enumerate(comps)}
    expected |= {f"proportion_{k + 1}": pi[:, k] for k in range(pi.shape[1])}
    series = {}
    for ti, name, value in read_csv(out)[1:]:
        series.setdefault(name, []).append((float(ti), float(value)))
    assert list(series) == list(expected)
    for name, points in series.items():
        got_t, got = np.array(points).T
        np.testing.assert_array_equal(got_t, t)
        np.testing.assert_allclose(got, expected[name], rtol=1e-12, atol=0, err_msg=name)


def test_plot_data_keeps_rhlp_curve_of_rescaled_fit(tmp_path):
    sig, _ = simulate_piecewise(SITUATION_1, 200, seed=0)
    signal_path = tmp_path / "offset.csv"
    save_signal_csv(signal_path, Signal(sig.t + 100.0, sig.x))
    report_path, out = tmp_path / "fit.json", tmp_path / "plot.csv"
    assert main(["fit-rhlp", "--input", str(signal_path), "--output", str(report_path),
                 "--k", "3", "--p", "2", "--seed", "0", "--normalize-time"]) == 0
    assert main(["plot-data", "--input", str(report_path), "--signal", str(signal_path),
                 "--output", str(out)]) == 0
    denoised = [float(v) for _, name, v in read_csv(out)[1:] if name == "denoised"]
    assert denoised == load_fit_report(report_path).denoised


@pytest.mark.parametrize("argv", [
    ["fit-rhlp", "--k", "0"],
    ["fit-rhlp", "--k", "2", "--q", "-1"],
    ["fit-dp", "--k", "0"],
    ["fit-dp", "--k", "3", "--p", "-1"],
    ["fit-dp-iter", "--k", "0", "--seed", "0"],
    ["select-model", "--k", "0,2", "--p", "1"],
], ids=["rhlp-k0", "rhlp-q-1", "dp-k0", "dp-p-1", "dp-iter-k0", "select-k0"])
def test_invalid_model_order_exits_one(tmp_path, signal_csv, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(signal_csv), "--output", str(out)])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--scenario", "situation1", "--n", "1"],
    ["--scenario", "situation2", "--n", "0"],
    ["--params-json", "unused.json", "--n", "0"],
], ids=["scenario-n1", "scenario-n0", "params-n0"])
def test_simulate_invalid_n_exits_one(tmp_path, capsys, argv):
    rc = main(["simulate", *argv, "--seed", "0", "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")


def test_benchmark_invalid_n_exits_one(tmp_path, capsys):
    rc = main(["benchmark", "--n", "1", "--replicates", "1", "--seed", "0",
               "--output", str(tmp_path / "o.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")


@pytest.mark.parametrize("field, value", [
    ("sigma2", 4.0),
    ("sigma2", [1.0, "a", 1.0]),
    ("sigma2", [1.0, 0.0, 1.0]),
    ("gamma", [0, 120, 120, 200]),
    ("gamma", [0, 150, 120, 200]),
    ("gamma", [1, 50, 120, 200]),
], ids=["sigma2-number", "sigma2-string", "sigma2-zero", "gamma-repeat", "gamma-decrease",
        "gamma-start"])
def test_malformed_report_exits_one(tmp_path, signal_csv, capsys, field, value):
    report_path = tmp_path / "fit.json"
    assert main(["fit-dp", "--input", str(signal_csv), "--output", str(report_path),
                 "--k", "3", "--p", "2"]) == 0
    raw = json.loads(report_path.read_text())
    raw[field] = value
    report_path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError):
        load_fit_report(report_path)
    rc = main(["plot-data", "--input", str(report_path), "--signal", str(signal_csv),
               "--output", str(tmp_path / "plot.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "SchemaError")


def test_report_that_builds_no_model_exits_one(tmp_path, signal_csv, capsys):
    # well-formed JSON, but w's reference row must be zero
    report_path = tmp_path / "fit.json"
    assert main(["fit-rhlp", "--input", str(signal_csv), "--output", str(report_path),
                 "--k", "2", "--p", "1", "--seed", "0"]) == 0
    raw = json.loads(report_path.read_text())
    raw["w"][-1] = [1.0, 0.0]
    report_path.write_text(json.dumps(raw))
    rc = main(["plot-data", "--input", str(report_path), "--signal", str(signal_csv),
               "--output", str(tmp_path / "plot.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "SchemaError")
