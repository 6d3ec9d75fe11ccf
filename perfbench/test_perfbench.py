"""Smoke tests for the benchmark: every workload at a tiny size, untraced and
traced, emits exactly the metrics BENCHMARK.json names and runs its checks."""
import dataclasses
import json

import pytest

import bench

bench.load_package()

import rhlpseg  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY_N = {"bic-sweep": 60, "piecewise-pair": 120, "cli-epoch": 60}
CHECKS = {
    "bic-sweep": {"bic_finite", "ll_trace_ascent", "labels_valid"},
    "piecewise-pair": {"labels_valid", "dp_j_le_true_partition",
                       "dp_j_le_multi_start_iterative"},
    "cli-epoch": set(),
}


def tiny_run(name, trace):
    return bench.run(name, seed=0, seconds=0.01, trace=trace, n=TINY_N[name],
                     setup_repeats=1)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_METRICS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_workload_emits_every_metric(name, trace):
    result, lines, tally = tiny_run(name, trace)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert CHECKS[name] <= set(tally.checks)
    if name == "cli-epoch":
        # each CLI fit runs the check that matches its exit code
        assert tally.checks["cli_report_loads"] + tally.checks["cli_error_line"] == tally.fits


def test_tracer_restores_the_package():
    before = rhlpseg.piecewise.fisher_dp, rhlpseg.cli.em_fit, rhlpseg.fisher_dp
    signal, _ = rhlpseg.simulate_piecewise(rhlpseg.SITUATION_1, 40, seed=0)
    with spans.Tracer() as tracer:
        assert rhlpseg.cli.em_fit is not before[1]
        rhlpseg.piecewise.fisher_dp(signal, 2, 1)
    assert (rhlpseg.piecewise.fisher_dp, rhlpseg.cli.em_fit, rhlpseg.fisher_dp) == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "piecewise.fisher_dp" and "piecewise.build_cost_matrix" in names
    assert all(s[3] < i for i, s in enumerate(tracer.spans))  # parents come first


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "PRIVATE_PHASES", {})
    result, lines, _ = tiny_run("piecewise-pair", trace=True)
    assert "piecewise.refit.s" not in result["metrics"]
    assert "piecewise.resegment.self_s" not in result["metrics"]
    assert "piecewise.fisher_dp.s" in result["metrics"]
    assert any(line.startswith("absent: piecewise.refit.s") for line in lines)


def test_failed_check_fails_the_run(monkeypatch):
    honest = workloads.PiecewisePair.op

    def worse_dp(self, inp):
        dp, it = honest(self, inp)
        return dataclasses.replace(dp, criterion_j=dp.criterion_j + 1e6), it

    monkeypatch.setattr(workloads.PiecewisePair, "op", worse_dp)
    result, lines, _ = tiny_run("piecewise-pair", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("check failed: fisher_dp J" in line for line in lines)


def test_cli_error_exit_is_checked(tmp_path):
    # n = 8 is below K * min_segment_length, so every fit exits 2
    w = workloads.CliEpoch(tmp_path, n=8)
    inp = w.make_input(0, 0)
    a = w.assess(inp, w.op(inp))
    assert (a.fits, a.failed, a.checks) == (3, 3, ["cli_error_line"] * 3)


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        bench.load_package()
    assert exc.value.code not in (0, None)
