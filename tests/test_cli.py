import csv
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from rhlpseg import cli
from rhlpseg.cli import build_parser, main
from rhlpseg.core import Signal, TimeMap
from rhlpseg.errors import LengthMismatchError, ParseError, SchemaError
from rhlpseg.piecewise import (
    _block_offsets,
    fisher_dp,
    iterative_fisher,
    multi_start_iterative,
    piecewise_mean,
    uniform_partition,
)
from rhlpseg.reports import (
    load_fit_report,
    load_signal_csv,
    report_document,
    save_fit_report,
    save_signal_csv,
    write_csv,
)
from rhlpseg.rhlp import denoise, em_fit, logistic_proportions
from rhlpseg.simulate import DESK_N_GRID, METHODS, SCENARIOS, SITUATION_1, simulate_piecewise


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

    def test_params_of_mixed_degrees_exit_one(self, tmp_path, capsys):
        params, out = tmp_path / "params.json", tmp_path / "sim.csv"
        params.write_text(json.dumps({
            "w": [[0.0, 0.0], [0.0, 0.0]], "beta": [[1.0, 2.0], [1.0]], "sigma2": [1.0, 1.0],
        }))
        rc = main(["simulate", "--params-json", str(params), "--n", "50",
                   "--seed", "0", "--output", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, "SchemaError")
        assert not out.exists()

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

    def test_one_sample_exits_two_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("t,x\n0.0,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
            rc = main(["fit-dp", "--input", str(path),
                       "--output", str(tmp_path / "o.json"), "--k", "1"])
        assert rc == 2
        assert_one_error_line(capsys, "InfeasibleError")

    def test_overflowing_cost_rotations_exit_two_with_one_error_line(self, tmp_path, capsys):
        # 49 times 1e-156 apart: the squared gaps are subnormal, and the
        # nearly zero pivots overflow the cost matrix's rotations
        t = np.concatenate((np.arange(49) * 1e-156, np.linspace(1.5, 4.7, 8)))
        path, out = tmp_path / "subnormal-gaps.csv", tmp_path / "o.json"
        save_signal_csv(path, Signal(t, np.random.default_rng(1).normal(size=57)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
            rc = main(["fit-dp", "--input", str(path), "--output", str(out),
                       "--k", "3", "--p", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:NumericalError:") and err.count("\n") == 1, err
        # the CSV's own times, which run from 0 to 4.7, not fit times u
        a = int(re.search(r"the rotations from sample (\d+), ", err).group(1))
        assert f"sample {a}, time {t[a]:.3g} of 0 to 4.7, are not finite" in err, err
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/status; RLIMIT_AS binds on Linux")
    def test_a_cost_matrix_past_the_memory_limit_exits_two(self, tmp_path):
        # fit-dp at n = 12 000 needs a 576 MB cost matrix. The child caps its
        # own address space at what it maps after importing the CLI plus
        # 256 MB, so that one allocation fails; the limit binds in the child
        # only
        n = 12_000
        path = tmp_path / "long.csv"
        x = np.random.default_rng(0).standard_normal(n)
        path.write_text("t,x\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(x.tolist())))
        child = (
            "import resource, sys\n"
            "from rhlpseg.cli import main\n"
            "with open('/proc/self/status') as fh:\n"
            "    vm = next(int(l.split()[1]) * 1024 for l in fh if l.startswith('VmSize:'))\n"
            "resource.setrlimit(resource.RLIMIT_AS, (vm + 2**28, vm + 2**28))\n"
            "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / "o.json"
        run = subprocess.run(
            [sys.executable, "-c", child, "fit-dp", "--input", str(path), "--output", str(out),
             "--k", "3", "--p", "2"], capture_output=True, text=True, env=env, timeout=120)
        lines = run.stderr.splitlines()
        assert run.returncode == 2, run.stderr
        assert len(lines) == 1 and lines[0].startswith("error:InfeasibleError:n=12000 "), lines
        assert f" {8 * 32 * _block_offsets(n, 4)[-1]} bytes" in lines[0]
        assert not out.exists()


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

    @pytest.mark.parametrize("fitter", ["em_fit", "multi_start_iterative"])
    def test_numpy_integer_seed_round_trips(self, tmp_path, fitter):
        sig, _ = simulate_piecewise(SITUATION_1, 120, seed=4)
        seed = np.int64(4)
        if fitter == "em_fit":
            fit = em_fit(sig, K=3, p=2, q=1, seed=seed)
        else:
            fit = multi_start_iterative(sig, 3, 2, n_random_starts=2, seed=seed)
        path = tmp_path / "r.json"
        save_fit_report(fit, path)
        doc = load_fit_report(path)
        assert type(doc.seed) is int and doc.seed == 4

    @pytest.mark.parametrize("fitter", [
        lambda sig: em_fit(sig, K=3, p=2, q=1, seed=1),
        lambda sig: fisher_dp(sig, 3, 2),
        lambda sig: multi_start_iterative(sig, 3, 2, n_random_starts=2, seed=1),
    ], ids=["em_fit", "fisher_dp", "multi_start_iterative"])
    def test_report_bytes_are_the_dataclass_json(self, tmp_path, fitter):
        fit = fitter(simulate_piecewise(SITUATION_1, 150, seed=2)[0])
        doc = report_document(fit, runtime_seconds=0.25)
        path = tmp_path / "r.json"
        save_fit_report(report_document(fit, runtime_seconds=0.25), path)
        assert path.read_text() == json.dumps(asdict(doc), indent=1) + "\n"

    def test_unencodable_document_leaves_no_file(self, tmp_path):
        # JSON has no NaN or infinity, so such a document is not written
        # either; and a runtime reaches a report only through report_document
        sig, _ = simulate_piecewise(SITUATION_1, 120, seed=3)
        fit = em_fit(sig, K=2, p=1, q=1, seed=3)
        doc = report_document(fit)
        path = tmp_path / "r.json"
        nan, inf = float("nan"), float("inf")
        for saved, kwargs, error in (
            (replace(doc, runtime_seconds=np.float32(0.5)), {}, TypeError),
            (replace(doc, beta=[[1.0, nan], [1.0, 1.0]]), {}, ValueError),
            (replace(doc, sigma2=[1.0, inf]), {}, ValueError),
            (replace(doc, log_likelihood=nan), {}, ValueError),
            (replace(doc, bic=-inf), {}, ValueError),
            (replace(doc, runtime_seconds=inf), {}, ValueError),
            (fit, {"runtime_seconds": 0.5}, TypeError),
        ):
            with pytest.raises(error):
                save_fit_report(saved, path, **kwargs)
            assert not path.exists(), (saved, kwargs)

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


def reference_write_csv(path, header, rows):
    """The per-cell writer that write_csv must match byte for byte: floats
    by repr, None empty, any other cell as csv.writer writes it."""
    def cell(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return "" if value is None else value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


class TestWriteCsv:
    EDGE = [-0.0, 5e-324, 1e16, 0.1, 1.7e9 + 0.1, -2.5e-300, 1.0, np.inf, np.nan]

    def test_columns_match_the_per_cell_reference(self, tmp_path):
        columns = [
            np.array(self.EDGE),
            np.array(self.EDGE, dtype=np.float32),
            np.arange(len(self.EDGE)) - 3,
            np.arange(len(self.EDGE)) % 2 == 0,
            list(self.EDGE),
            [np.float64(v) for v in self.EDGE],
            [None, True, False, 3, "a,b", 'say "hi"', "two\nlines", "", np.int64(7)],
        ]
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "bulk.csv", header, columns)
        reference_write_csv(tmp_path / "ref.csv", header, zip(*columns))
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("columns", [[np.array([]), []], []], ids=["empty", "none"])
    def test_no_rows_writes_the_header(self, tmp_path, columns):
        write_csv(tmp_path / "o.csv", ["a", "b"], columns)
        assert (tmp_path / "o.csv").read_bytes() == b"a,b\r\n"

    def test_columns_of_different_lengths_write_no_file(self, tmp_path):
        with pytest.raises(LengthMismatchError):
            write_csv(tmp_path / "o.csv", ["a", "b"], [np.zeros(2), [1, 2, 3]])
        assert not (tmp_path / "o.csv").exists()


class TestParserReuse:
    """main parses every call with one parser, built on first use."""

    def test_built_once_per_process(self, monkeypatch, tmp_path, signal_csv):
        builds = []

        def counting():
            builds.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            for k in ("0", "3", "3"):
                main(["fit-dp", "--input", str(signal_csv), "--output",
                      str(tmp_path / "r.json"), "--k", k])
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_failed_argv_then_a_good_one_gives_the_normal_report(
            self, tmp_path, signal_csv, capsys):
        out, series = tmp_path / "r.json", tmp_path / "series.csv"
        argv = ["fit-dp", "--input", str(signal_csv), "--output", str(out), "--k", "3"]
        assert main(argv + ["--series-output", str(series), "--p", "-1"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert main(argv) == 0
        assert not series.exists()
        library = tmp_path / "library.json"
        save_fit_report(fisher_dp(load_signal_csv(signal_csv)[0], 3, 2), library)
        got, want = json.loads(out.read_text()), json.loads(library.read_text())
        assert got.pop("runtime_seconds") > 0 and want.pop("runtime_seconds") is None
        assert got == want

    def test_benchmark_default_lists_are_the_same_every_run(self, tmp_path):
        # --scenarios, --n and --methods left at their defaults, twice
        argv = ["benchmark", "--replicates", "1", "--seed", "5", "--no-timing"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        cells = [(row[0], int(row[1]), row[2]) for row in read_csv(first)[1:]]
        assert cells == [(s, n, m) for s in sorted(SCENARIOS) for n in DESK_N_GRID
                         for m in METHODS]


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

    @pytest.mark.parametrize("scale", [2.0**-904, 1e-160], ids=["2^-904", "1e-160"])
    def test_values_out_of_range(self, tmp_path, capsys, scale):
        # var(x) underflows to 0 at 2^-904 and to a subnormal at 1e-160
        sig, _ = simulate_piecewise(SITUATION_1, 500, seed=3)
        path, out = tmp_path / "tiny.csv", tmp_path / "o.json"
        path.write_text("t,x\n" + "".join(
            f"{1.7e9 + i!r},{v!r}\n" for i, v in enumerate((sig.x * scale).tolist())))
        rc = main(["fit-dp", "--input", str(path), "--output", str(out), "--k", "3"])
        assert rc == 1
        assert_one_error_line(capsys, "DataError")
        assert not out.exists()

    @pytest.mark.parametrize("t", [
        [i * 1e-310 for i in range(8)],  # 5 / (t[-1] - t[0]) overflows
        [-1e308, -7e307, -3e307, 0.0, 1e306, 5e307, 1.2e308, 1.75e308],  # so does the span
        # increasing, but the first gaps map to fit-time gaps of 0
        [0.0, 1e-300, 2e-300, 3e-300, 1e300, 2e300, 3e300, 4e300],
    ], ids=["span-1e-309", "span-overflows", "gap-underflows"])
    def test_time_span_out_of_range(self, tmp_path, capsys, t):
        # select-model raises the signal's DataError before its first fit
        path = tmp_path / "span.csv"
        x = np.random.default_rng(4).normal(size=len(t)).tolist()
        path.write_text("t,x\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t, x)))
        for cmd, k in (("fit-dp", "2"), ("select-model", "1,2")):
            out = tmp_path / f"{cmd}.out"
            rc = main([cmd, "--input", str(path), "--output", str(out), "--k", k,
                       "--p", "1"])
            assert rc == 1, cmd
            assert_one_error_line(capsys, "DataError")
            assert not out.exists(), cmd

    @pytest.mark.parametrize("labels", [[1.7, 2.2, 3.0], [1.0, np.nan, 3.0]],
                             ids=["1.7", "nan"])
    def test_labels_that_cannot_load_are_not_saved(self, tmp_path, labels):
        # the rule of load_signal_csv: a finite integer, or ValueError, here
        # before the file is opened
        sig, path = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 1.5]), tmp_path / "s.csv"
        with pytest.raises(ValueError, match="label must be an integer"):
            save_signal_csv(path, sig, labels)
        assert not path.exists()
        save_signal_csv(path, sig, [2.0, 1, np.int64(3)])
        assert load_signal_csv(path)[1].tolist() == [2, 1, 3]

    @pytest.mark.parametrize("labels", [[1, 2], [1, 2, 3, 1]], ids=["short", "long"])
    def test_labels_of_another_length_are_not_saved(self, tmp_path, labels):
        # one label per sample, or LengthMismatchError before the file is
        # opened: no sample or label is dropped without a word
        sig, path = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), tmp_path / "s.csv"
        with pytest.raises(LengthMismatchError,
                           match=f"{len(labels)} labels for a signal of 3 samples"):
            save_signal_csv(path, sig, labels)
        assert not path.exists()

    @pytest.mark.parametrize("label", ["inf", "nan", "1.7"])
    def test_label_not_an_integer(self, tmp_path, capsys, label):
        path, out = tmp_path / "bad.csv", tmp_path / "o.json"
        path.write_text(f"t,x,label\n0.0,1.0,1\n1.0,2.0,{label}\n2.0,1.5,1\n")
        rc = main(["fit-dp", "--input", str(path), "--output", str(out), "--k", "1",
                   "--p", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:ParseError:") and err.count("\n") == 1, err
        assert "line 3" in err and repr(label) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit-rhlp", "fit-dp", "fit-dp-iter", "select-model"])
    def test_empty_file_exits_one(self, tmp_path, capsys, command):
        # no header line: one ParseError line and no report from any fit
        path, out = tmp_path / "empty.csv", tmp_path / "o.out"
        path.write_bytes(b"")
        argv = FITS[command][0] if command in FITS else ["select-model", "--k", "1,2", "--p", "2"]
        rc = main([*argv, "--input", str(path), "--output", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, "ParseError")
        assert list(tmp_path.iterdir()) == [path]

    def test_integral_labels_parse(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("t,x,label\n0.0,1.0,2\n1.0,2.0,2.0\n2.0,1.5, 1 \n")
        _, labels = load_signal_csv(path)
        assert labels.tolist() == [2, 2, 1]

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
        # the fitters keep no runtime and select-model times no single fit
        assert doc.runtime_seconds is None

    def test_every_candidate_failing_exits_two(self, tmp_path, capsys):
        # three samples cannot determine a cubic: every fit is rank deficient
        path = tmp_path / "three.csv"
        save_signal_csv(path, Signal(np.arange(3.0), np.array([0.0, 1.0, 0.0])))
        rc = main(["select-model", "--input", str(path), "--k", "1,2", "--p", "3",
                   "--output", str(tmp_path / "bic.csv")])
        assert rc == 2
        assert_one_error_line(capsys, "NumericalError")


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


# (argv, the model tag and seed the fit stamps, the same fit through the library)
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
    expected = asdict(report_document(fit))
    doc = load_fit_report(report_path)
    assert (doc.model, doc.seed) == (model, seed)
    got = asdict(doc)
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
    # times on [100, 105] are mapped to fit time [0, 5]; plot-data applies
    # the report's map and rebuilds the curve the fit stored
    sig, _ = simulate_piecewise(SITUATION_1, 200, seed=0)
    signal_path = tmp_path / "offset.csv"
    save_signal_csv(signal_path, Signal(sig.t + 100.0, sig.x))
    report_path, out = tmp_path / "fit.json", tmp_path / "plot.csv"
    assert main(["fit-rhlp", "--input", str(signal_path), "--output", str(report_path),
                 "--k", "3", "--p", "2", "--seed", "0"]) == 0
    assert main(["plot-data", "--input", str(report_path), "--signal", str(signal_path),
                 "--output", str(out)]) == 0
    denoised = [float(v) for _, name, v in read_csv(out)[1:] if name == "denoised"]
    assert denoised == load_fit_report(report_path).denoised


def epoch_and_paper_csvs(tmp_path, offset=0.0, n=500):
    """SITUATION_1 samples (seed 3, values plus offset) written twice: on
    epoch-second times 1.7e9 + i and on the paper's grid linspace(0, 5, n)."""
    x = simulate_piecewise(SITUATION_1, n, seed=3)[0].x + offset
    paths = tmp_path / "epoch.csv", tmp_path / "paper.csv"
    for path, t in zip(paths, (1.7e9 + np.arange(n, dtype=float), np.linspace(0.0, 5.0, n))):
        save_signal_csv(path, Signal(t, x))
    return paths


def plot_series(tmp_path, argv, signal_path, stem, series_output=False):
    """Fit signal_path with argv, run plot-data on the report and return its
    rows; with series_output, also the rows of --series-output."""
    report, plot, series = (tmp_path / f"{stem}{suffix}"
                            for suffix in (".json", "-plot.csv", "-series.csv"))
    extra = ["--series-output", str(series)] if series_output else []
    assert main([*argv, "--input", str(signal_path), "--output", str(report), *extra]) == 0
    assert main(["plot-data", "--input", str(report), "--signal", str(signal_path),
                 "--output", str(plot)]) == 0
    rows = read_csv(plot)[1:]
    return (rows, read_csv(series)[1:]) if series_output else rows


@pytest.mark.parametrize("command", list(FITS))
def test_report_keeps_the_time_map_bit_for_bit(tmp_path, command):
    argv, model, seed, library_fit = FITS[command]
    epoch, _ = epoch_and_paper_csvs(tmp_path, offset=1e3, n=200)
    fit = library_fit(load_signal_csv(epoch)[0])
    path = tmp_path / "fit.json"
    save_fit_report(fit, path)
    doc = load_fit_report(path)
    assert (doc.schema_version, doc.model, doc.seed) == (2, model, seed)
    assert TimeMap(doc.t0, doc.time_factor) == fit.time_map
    assert fit.time_map.t0 == 1.7e9


@pytest.mark.parametrize("fitter, model, seed", [
    (lambda sig: em_fit(sig, 3, 2, 1, seed=5), "rhlp", 5),
    (lambda sig: em_fit(sig, 3, 2, 1), "rhlp", None),
    (lambda sig: fisher_dp(sig, 3, 2), "piecewise_dp", None),
    (lambda sig: iterative_fisher(sig, 3, 2, uniform_partition(sig.n, 3, 4)),
     "piecewise_iterative", None),
    (lambda sig: multi_start_iterative(sig, 3, 2, n_random_starts=2, seed=4),
     "piecewise_iterative", 4),
    (lambda sig: multi_start_iterative(sig, 3, 2, n_random_starts=2),
     "piecewise_iterative", None),
], ids=["em-seed5", "em-unseeded", "dp", "iterative", "multi-start-seed4",
        "multi-start-unseeded"])
def test_library_fit_saves_its_own_model_and_seed(tmp_path, fitter, model, seed):
    sig, _ = simulate_piecewise(SITUATION_1, 150, seed=1)
    fit = fitter(sig)
    assert (fit.model, fit.seed) == (model, seed)
    path = tmp_path / "fit.json"
    save_fit_report(fit, path)
    doc = load_fit_report(path)
    assert (doc.model, doc.seed) == (model, seed)
    assert asdict(doc) == asdict(report_document(fit))


def test_report_without_schema_version_exits_one(tmp_path, signal_csv, capsys):
    # a version 1 report cannot say whether its times were rescaled
    report_path = tmp_path / "fit.json"
    assert main(["fit-dp", "--input", str(signal_csv), "--output", str(report_path),
                 "--k", "3", "--p", "2"]) == 0
    raw = json.loads(report_path.read_text())
    for field in ("schema_version", "t0", "time_factor"):
        del raw[field]
    report_path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError, match="schema_version"):
        load_fit_report(report_path)
    rc = main(["plot-data", "--input", str(report_path), "--signal", str(signal_csv),
               "--output", str(tmp_path / "plot.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "SchemaError")


@pytest.mark.parametrize("command", list(FITS))
def test_plot_data_curve_is_the_series_output_on_epoch_times(tmp_path, command):
    epoch, _ = epoch_and_paper_csvs(tmp_path, offset=1e3)
    plot, series = plot_series(tmp_path, FITS[command][0], epoch, "fit", series_output=True)
    denoised = [float(v) for _, name, v in plot if name == "denoised"]
    np.testing.assert_allclose(denoised, [float(row[2]) for row in series],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("command", list(FITS))
def test_plot_data_on_epoch_times_is_the_paper_grid_fit(tmp_path, command):
    # at n = 500 the epoch times map onto linspace(0, 5, 500) bit for bit
    epoch, paper = epoch_and_paper_csvs(tmp_path)
    on_epoch = plot_series(tmp_path, FITS[command][0], epoch, "epoch")
    on_paper = plot_series(tmp_path, FITS[command][0], paper, "paper")
    assert [row[1:] for row in on_epoch] == [row[1:] for row in on_paper]


@pytest.mark.parametrize("argv", [
    ["fit-rhlp", "--k", "0"],
    ["fit-rhlp", "--k", "2", "--q", "-1"],
    ["fit-dp", "--k", "0"],
    ["fit-dp", "--k", "3", "--p", "-1"],
    ["fit-dp-iter", "--k", "0", "--seed", "0"],
    ["select-model", "--k", "0,2", "--p", "1"],
    ["select-model", "--k", "2", "--p", "1", "--q", "-1"],
    ["select-model", "--k", "", "--p", "1"],
    ["select-model", "--k", "2", "--p", ""],
    ["fit-rhlp", "--k", "2", "--seed", "0", "--restarts", "-2"],
    ["fit-dp-iter", "--k", "2", "--seed", "0", "--restarts", "-2"],
    ["fit-rhlp", "--k", "2", "--seed", "-1"],
    ["fit-dp-iter", "--k", "2", "--seed", "-1"],
    ["select-model", "--k", "2", "--p", "1", "--seed", "-1"],
], ids=["rhlp-k0", "rhlp-q-1", "dp-k0", "dp-p-1", "dp-iter-k0", "select-k0", "select-q-1",
        "select-no-k", "select-no-p", "rhlp-restarts-2", "dp-iter-restarts-2", "rhlp-seed-1",
        "dp-iter-seed-1", "select-seed-1"])
def test_invalid_model_order_exits_one(tmp_path, signal_csv, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(signal_csv), "--output", str(out)])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


@pytest.mark.parametrize("floor", ["0", "-1e-3", "nan", "inf", "1e-6"])
@pytest.mark.parametrize("argv", [
    ["fit-rhlp", "--k", "2", "--seed", "0"],
    ["fit-dp", "--k", "2"],
    ["fit-dp-iter", "--k", "2", "--seed", "0"],
    ["select-model", "--k", "2", "--p", "1"],
], ids=["rhlp", "dp", "dp-iter", "select"])
def test_invalid_variance_floor_exits_one(tmp_path, signal_csv, capsys, argv, floor):
    # the floor is worked out from var(x) and its flag is gone: a script that
    # still passes it, with any value, gets an argument error
    out = tmp_path / "out"
    rc = main([*argv, f"--variance-floor={floor}", "--input", str(signal_csv),
               "--output", str(out)])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["fit-dp"], ["select-model", "--p", "1"], ["fit-rhlp", "--seed", "0"],
], ids=["dp", "select", "rhlp"])
@pytest.mark.parametrize("args", [
    ["--k", "abc", "--input", None],
    ["--k", "2", "--bogus", "1", "--input", None],
    ["--k", "2"],
    ["--k", "2", "--delta", "1e-6", "--input", None],
], ids=["k-abc", "unknown-flag", "no-input", "delta"])
def test_argument_error_exits_one(tmp_path, signal_csv, capsys, command, args):
    # argparse alone exits 2, the code of a numerical failure, with a usage text;
    # the IRLS tolerance is a constant, so the removed --delta is an unknown flag
    out = tmp_path / "out"
    argv = [*command, *(str(signal_csv) if a is None else a for a in args)]
    assert main([*argv, "--output", str(out)]) == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fit-dp-iter", "--k", "2", "--seed", "0", "--epsilon", "1e-6", "--input", None],
    ["fit-dp-iter", "--k", "2", "--seed", "0", "--max-iter", "100", "--input", None],
    ["fit-rhlp", "--k", "2", "--seed", "0", "--epsilon", "1e-6", "--input", None],
    ["fit-rhlp", "--k", "2", "--seed", "0", "--max-iter", "1000", "--input", None],
    ["select-model", "--k", "2", "--p", "1", "--epsilon", "1e-6", "--input", None],
    ["select-model", "--k", "2", "--p", "1", "--max-iter", "1000", "--input", None],
    ["benchmark", "--seed", "0", "--full-grid"],
], ids=["dp-iter-epsilon", "dp-iter-max-iter", "rhlp-epsilon", "rhlp-max-iter",
        "select-epsilon", "select-max-iter", "benchmark-full-grid"])
def test_removed_flags_exit_one(tmp_path, signal_csv, capsys, argv):
    # every fit stops by a fixed rule and benchmark takes its grid from --n,
    # so a script that still passes one of these flags gets an argument error
    out = tmp_path / "out"
    argv = [str(signal_csv) if a is None else a for a in argv]
    assert main([*argv, "--output", str(out)]) == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit-dp", "--help"])
    assert exc.value.code == 0
    assert "--input" in capsys.readouterr().out


def test_iterative_fit_of_a_tight_request(tmp_path, capsys):
    # 45 samples in 10 segments of at least 4: a uniform draw of 9 cuts is
    # feasible about once in 350 000 tries
    t = np.linspace(0, 5, 45)
    path = tmp_path / "short.csv"
    save_signal_csv(path, Signal(t, np.random.default_rng(0).normal(size=45)))
    out = tmp_path / "it.json"
    rc = main(["fit-dp-iter", "--input", str(path), "--output", str(out),
               "--k", "10", "--p", "2", "--seed", "0"])
    assert rc == 0, capsys.readouterr().err
    assert np.all(np.diff(load_fit_report(out).gamma) >= 4)


@pytest.mark.parametrize("argv", [
    ["--scenario", "situation1", "--n", "1"],
    ["--scenario", "situation2", "--n", "0"],
    ["--params-json", "unused.json", "--n", "0"],
], ids=["scenario-n1", "scenario-n0", "params-n0"])
def test_simulate_invalid_n_exits_one(tmp_path, capsys, argv):
    rc = main(["simulate", *argv, "--seed", "0", "--output", str(tmp_path / "x.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "situation1", "--n", "50"],
    ["simulate", "--params-json", "unused.json", "--n", "50"],
    ["benchmark", "--n", "100", "--replicates", "1", "--no-timing"],
], ids=["simulate-scenario", "simulate-params", "benchmark"])
def test_negative_seed_exits_one(tmp_path, capsys, argv):
    # numpy's generators take seeds >= 0 only
    out = tmp_path / "out.csv"
    rc = main([*argv, "--seed", "-1", "--output", str(out)])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--replicates", "1"],
    ["--n", "100", "--replicates", "0"],
    ["--scenarios", "nope"],
    # an empty list is an argument error, not a table with no rows
    ["--n", ""],
    ["--scenarios", ""],
    ["--methods", "", "--n", "100", "--replicates", "1"],
], ids=["n1", "replicates0", "unknown-scenario", "no-n", "no-scenarios", "no-methods"])
def test_benchmark_invalid_n_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "o.csv"
    rc = main(["benchmark", *argv, "--seed", "0", "--output", str(out)])
    assert rc == 1
    assert_one_error_line(capsys, "DataError")
    assert not out.exists()


@pytest.mark.parametrize("command, field, value", [
    ("fit-dp", "sigma2", 4.0),
    ("fit-dp", "sigma2", [1.0, "a", 1.0]),
    ("fit-dp", "sigma2", [1.0, 0.0, 1.0]),
    ("fit-dp", "gamma", [0, 120, 120, 200]),
    ("fit-dp", "gamma", [0, 150, 120, 200]),
    ("fit-dp", "gamma", [1, 50, 120, 200]),
    ("fit-dp", "schema_version", 1),
    ("fit-dp", "t0", None),
    ("fit-dp", "time_factor", 0.0),
    ("fit-dp", "labels", [9] * 200),
    ("fit-dp", "labels", ["1"] * 200),
    ("fit-dp", "labels", [1] * 200),
    ("fit-dp", "denoised", [0.0] * 200),
    ("fit-dp", "log_likelihood", "ll"),
    ("fit-dp", "seed", "s"),
    ("fit-dp", "converged", 3),
    ("fit-rhlp", "labels", [9] * 200),
    ("fit-rhlp", "labels", ["1"] * 200),
    ("fit-rhlp", "denoised", "xyz"),
    ("fit-rhlp", "denoised", [0.0]),
    ("fit-rhlp", "denoised", None),
    ("fit-rhlp", "log_likelihood", None),
    ("fit-rhlp", "bic", "b"),
    ("fit-rhlp", "converged", 1),
    ("fit-dp", "beta", [[1.0, float("nan"), 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
    ("fit-dp", "sigma2", [1.0, float("inf"), 1.0]),
    ("fit-dp", "log_likelihood", float("nan")),
    ("fit-dp", "criterion_j", float("inf")),
    ("fit-dp", "runtime_seconds", float("nan")),
    ("fit-dp", "t0", 10**400),
    ("fit-rhlp", "w", [[float("nan"), 0.0], [1.0, 1.0], [0.0, 0.0]]),
    ("fit-rhlp", "bic", -float("inf")),
    ("fit-dp", "w", "junk"),
    ("fit-dp", "q", [1]),
    ("fit-dp", "bic", -10.0),
    ("fit-dp", "converged", True),
    ("fit-rhlp", "gamma", {"a": 1}),
    ("fit-rhlp", "criterion_j", 1.0),
], ids=["sigma2-number", "sigma2-string", "sigma2-zero", "gamma-repeat", "gamma-decrease",
        "gamma-start", "schema-v1", "t0-null", "time-factor-zero", "labels-9",
        "labels-string", "labels-not-gamma", "denoised-list", "log-likelihood-string",
        "seed-string", "converged-3", "rhlp-labels-9", "rhlp-labels-string",
        "rhlp-denoised-string", "rhlp-denoised-short", "rhlp-denoised-null",
        "rhlp-log-likelihood-null", "rhlp-bic-string", "rhlp-converged-1", "beta-nan",
        "sigma2-inf", "log-likelihood-nan", "criterion-j-inf", "runtime-nan", "t0-huge-int",
        "rhlp-w-nan", "rhlp-bic-inf", "w-set", "q-set", "bic-set", "converged-set",
        "rhlp-gamma-set", "rhlp-criterion-j-set"])
def test_malformed_report_exits_one(tmp_path, signal_csv, capsys, command, field, value):
    report_path = tmp_path / "fit.json"
    assert main([*FITS[command][0], "--input", str(signal_csv),
                 "--output", str(report_path)]) == 0
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
    with pytest.raises(SchemaError, match=r"reference row w\[K-1\] must be zero"):
        load_fit_report(report_path)
    rc = main(["plot-data", "--input", str(report_path), "--signal", str(signal_csv),
               "--output", str(tmp_path / "plot.csv")])
    assert rc == 1
    assert_one_error_line(capsys, "SchemaError")


NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("where", ["header", "row", "late-row"])
@pytest.mark.parametrize("command", list(FITS))
def test_signal_csv_that_is_not_utf8_exits_one(tmp_path, capsys, command, where):
    # the bytes \xff\xfe open a UTF-16 file and are never UTF-8; late in this
    # 20 kB file, they lie past the first 8 kB chunk the reader decodes
    sig, labels = simulate_piecewise(SITUATION_1, 500, seed=0)
    save_signal_csv(tmp_path / "signal.csv", sig, labels)
    lines = (tmp_path / "signal.csv").read_bytes().splitlines(keepends=True)
    at = {"header": 0, "row": 3, "late-row": len(lines) - 2}[where]
    lines[at] = NOT_UTF8 + lines[at]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_signal_csv(bad)
    report_path = tmp_path / "fit.json"
    rc = main([*FITS[command][0], "--input", str(bad), "--output", str(report_path)])
    assert rc == 1
    assert_one_error_line(capsys, "ParseError")
    assert not report_path.exists()


def test_signal_csv_with_a_byte_order_mark_loads(tmp_path, signal_csv, capsys):
    # spreadsheet exports open a UTF-8 file with the byte-order mark EF BB BF;
    # it loads to the same signal and labels as the file without it, and
    # fit-dp writes the same report except runtime_seconds
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + signal_csv.read_bytes())
    (sig, labels), (sig_bom, labels_bom) = load_signal_csv(signal_csv), load_signal_csv(bom)
    assert np.array_equal(sig_bom.t, sig.t) and np.array_equal(sig_bom.x, sig.x)
    assert np.array_equal(labels_bom, labels)
    docs = []
    for path in (signal_csv, bom):
        out = tmp_path / f"{path.stem}.json"
        rc = main(["fit-dp", "--input", str(path), "--output", str(out), "--k", "3",
                   "--p", "2"])
        assert rc == 0 and capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        assert doc.pop("runtime_seconds") > 0
        docs.append(doc)
    assert docs[1] == docs[0]


def test_report_that_is_not_utf8_exits_one(tmp_path, signal_csv, capsys):
    report_path = tmp_path / "fit.json"
    assert main([*FITS["fit-dp"][0], "--input", str(signal_csv),
                 "--output", str(report_path)]) == 0
    text = report_path.read_bytes()
    report_path.write_bytes(text.replace(b'"piecewise_dp"', b'"piecewise_dp' + NOT_UTF8 + b'"'))
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_fit_report(report_path)
    plot_path = tmp_path / "plot.csv"
    rc = main(["plot-data", "--input", str(report_path), "--signal", str(signal_csv),
               "--output", str(plot_path)])
    assert rc == 1
    assert_one_error_line(capsys, "SchemaError")
    assert not plot_path.exists()


@pytest.mark.parametrize("text", [
    b'{"w": [[0.0]], "beta": [[1.0]], "sigma2": [1.0' + NOT_UTF8,
    b'{"w": [[0.0]], "beta": [[1.0]], "sigma2": [1.0]',
    # the numbers of a report are finite JSON numbers, not strings or booleans
    b'{"w": [[1.0], [0.0]], "beta": [[1.0], [2.0]], "sigma2": ["1", true]}',
    b'{"w": [["0"], [0]], "beta": [[1.0], [2.0]], "sigma2": [1.0, 1.0]}',
    b'{"w": [[1.0], [0.0]], "beta": [[1.0], [false]], "sigma2": [1.0, 1.0]}',
    b'{"w": [[1.0], [0.0]], "beta": [[1.0], [2.0]], "sigma2": [NaN, 1.0]}',
    b'{"w": [[1.0], [0.0]], "beta": [[1e400], [2.0]], "sigma2": [1.0, 1.0]}',
    b'{"w": [[Infinity], [0.0]], "beta": [[1.0], [2.0]], "sigma2": [1.0, 1.0]}',
    b'{"w": [[1.0], [0.0]], "beta": [[1.0], [2.0]], "sigma2": [1.0, 1e400]}',
], ids=["not-utf8", "truncated", "sigma2-string-and-bool", "w-string", "beta-bool",
        "sigma2-nan", "beta-overflows", "w-inf", "sigma2-overflows"])
def test_params_json_that_does_not_parse_exits_one(tmp_path, capsys, text):
    params = tmp_path / "params.json"
    params.write_bytes(text)
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--params-json", str(params), "--n", "20", "--seed", "0",
               "--output", str(out)])
    assert rc == 1
    assert_one_error_line(capsys, "SchemaError")
    assert not out.exists()
