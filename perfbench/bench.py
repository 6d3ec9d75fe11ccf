"""Benchmark for rhlpseg: one closed-loop client runs one workload.

    python3 perfbench/bench.py --workload bic-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. With ``--trace 0`` the last stdout line
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run plus the tracing overhead. Earlier lines,
prefixed with ``#``, give the environment and every metric in readable form.
The exit status is 1 when a correctness check failed, and non-zero without a
result line when the sources are missing. See NOTES.md for what each
workload and metric is for.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
if __name__ == "__main__":
    # Fix the BLAS thread count before numpy is imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("bic-sweep", "piecewise-pair", "cli-epoch")
SETUP_REPEATS = 5
POOL = 24  # inputs made during set-up; later ones are made between ops

# End-to-end metrics in the --trace 0 result: name -> unit. The timings in it
# are normalised by the reference kernel (see reference_seconds); the raw wall
# times are printed beside them.
E2E_METRICS = {
    "setup_s": "s",
    "fits_per_kref": "1/kref",
    "fit_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import rhlpseg from this checkout's src/ and nowhere else."""
    if not (SRC / "rhlpseg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rhlpseg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rhlpseg

    if Path(rhlpseg.__file__).resolve().parent != SRC / "rhlpseg":
        raise SystemExit(f"perfbench: rhlpseg imported from {rhlpseg.__file__}, not {SRC}")
    return rhlpseg


def child_import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rhlpseg.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report varies by version
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


@dataclass
class Tally:
    """What a sequence of ops produced."""

    # (scenario, op seconds, reference-kernel seconds around the op)
    op_s: list[tuple[int, float, float]] = field(default_factory=list)
    fits: int = 0
    failed_fits: int = 0
    quality: list[tuple[int, float, float]] = field(default_factory=list)
    k_selected: list[int] = field(default_factory=list)
    checks: Counter = field(default_factory=Counter)
    failed_ops: int = 0
    errors: list[str] = field(default_factory=list)


_REF_X = np.linspace(0.0, 1.0, 4096)


def reference_seconds() -> float:
    """Median of three timings of a fixed kernel that mixes interpreted loops
    with small numpy calls, as the fitters do. One run of it is the unit
    "ref". Shared virtual CPUs change speed by up to 1.6x over seconds to
    minutes; the kernel slows with them, so op time / kernel time is steadier
    across runs than op time, and it does not depend on the program under
    test."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(250):
            acc += float(np.cumsum(_REF_X * (1.0 + i * 1e-3))[-1])
            for j in range(200):
                acc += j * 0.5
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(workload, inp, tally: Tally, ref_before: float) -> float:
    """Time one op between two reference timings, then assess it outside the
    timed region. Returns the reference timing taken after the op."""
    from workloads import CheckFailed

    start = time.perf_counter()
    try:
        out = workload.op(inp)
    except Exception:
        tally.failed_ops += 1
        tally.errors.append(f"op {inp.index} raised:\n{traceback.format_exc()}")
        return reference_seconds()
    op_s = time.perf_counter() - start
    ref_after = reference_seconds()
    tally.op_s.append((inp.index % 2, op_s, (ref_before + ref_after) / 2))
    try:
        a = workload.assess(inp, out)
    except CheckFailed as exc:
        tally.failed_ops += 1
        tally.errors.append(f"op {inp.index}: check failed: {exc}")
        return ref_after
    tally.fits += a.fits
    tally.failed_fits += a.failed
    tally.quality += a.quality
    tally.checks.update(a.checks)
    if a.k_selected is not None:
        tally.k_selected.append(a.k_selected)
    return ref_after


def closed_loop(workload, inputs, seconds: float, tally: Tally) -> int:
    """Run ops back to back until `seconds` have passed. Ops come in pairs,
    one per scenario, so both scenarios always weigh the same."""
    deadline = time.perf_counter() + seconds
    i = 0
    ref = reference_seconds()
    while i % 2 or i == 0 or time.perf_counter() < deadline:
        ref = run_op(workload, inputs(i), tally, ref)
        i += 1
    return i


def set_up(workload, seed: int, repeats: int):
    """Median over `repeats` of: a fresh-interpreter import, making the input
    pool (and its CSVs) and one warm-up op. Returns the pool and that time."""
    times = []
    for _ in range(repeats):
        import_s = child_import_seconds()
        start = time.perf_counter()
        pool = [workload.make_input(seed, i) for i in range(POOL)]
        workload.warmup()
        times.append(import_s + time.perf_counter() - start)
    return pool, statistics.median(times)


def tail(values):
    """The highest percentile with at least ten values beyond it, as
    (value, percentile, count); None with fewer than eleven values."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def balanced(rows, column, stat=statistics.fmean):
    """`stat` of one column within each scenario, averaged over the scenarios.
    Op times and quality differ by scenario (up to 2.5x), so pooling them
    would make the figure hinge on which scenario a run's median op fell in."""
    per = [[row[column] for row in rows if row[0] == s] for s in (0, 1)]
    values = [stat(v) for v in per if v]
    return statistics.fmean(values) if values else float("nan")


def summary_metrics(tally: Tally, setup_s: float) -> dict:
    """Every end-to-end figure as name -> (value, unit)."""
    ok = tally.fits - tally.failed_fits
    busy = sum(t for _, t, _ in tally.op_s)
    norm = [(s, t / ref) for s, t, ref in tally.op_s]
    out = {
        "setup_s": (setup_s, "s"),
        "fits_per_s": (ok / busy if busy else 0.0, "1/s"),
        "op_s_p50": (balanced(tally.op_s, 1, statistics.median), "s"),
        "op_ref_p50": (balanced(norm, 1, statistics.median), "ref"),
        "fits_per_kref": (1000 * ok / sum(t for _, t in norm) if norm else 0.0, "1/kref"),
        "ref_s_p50": (statistics.median(r for _, _, r in tally.op_s) if norm else 0.0, "s"),
        "fit_ok_frac": (ok / tally.fits if tally.fits else 0.0, "ratio"),
        "failed_frac": (tally.failed_fits / tally.fits if tally.fits else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "misclass_rate": (balanced(tally.quality, 1), "ratio"),
        "denoise_mse": (balanced(tally.quality, 2), "x2"),
    }
    t = tail([t for _, t, _ in tally.op_s])
    if t is not None:
        out[f"op_s_tail (p{t[1]:.0f} of {t[2]} ops)"] = (t[0], "s")
    if tally.k_selected:
        out["k_recovery_rate"] = (
            sum(k == 3 for k in tally.k_selected) / len(tally.k_selected), "ratio")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        n: int | None = None, setup_repeats: int = SETUP_REPEATS):
    """Run one workload. Returns (result object, readable lines, tally)."""
    import workloads

    workdir = WORKDIR / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](workdir, n)
    lines = ["env " + json.dumps(environment(seed))]
    try:
        pool, setup_s = set_up(workload, seed, 1 if trace else setup_repeats)

        def inputs(i):
            return pool[i] if i < len(pool) else workload.make_input(seed, i)

        tally = Tally()
        if not trace:
            attempted = closed_loop(workload, inputs, seconds, tally)
            every = summary_metrics(tally, setup_s)
            metrics = {k: every[k] for k in E2E_METRICS}
        else:
            attempted, metrics, every = traced_run(workload, inputs, seed, seconds, tally)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    lines += [f"{workload_name} ops={attempted} fits={tally.fits} "
              f"failed_fits={tally.failed_fits} checks={dict(tally.checks)}",
              "op_s " + " ".join(f"{t:.3f}" for _, t, _ in tally.op_s),
              "ref_ms " + " ".join(f"{1000 * r:.2f}" for _, _, r in tally.op_s)]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in every.items()]
    lines += tally.errors
    correct = not tally.errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, tally


def traced_run(workload, inputs, seed, seconds, tally):
    """Untraced ops for half the time, then the same inputs again under the
    tracer, which also covers input making and scoring. The overhead is the
    ratio of the two normalised median op times."""
    import spans

    untraced = Tally()
    m = closed_loop(workload, inputs, seconds / 2, untraced)
    with spans.Tracer() as tracer:
        ref = reference_seconds()
        for i in range(m):
            ref = run_op(workload, workload.make_input(seed, i), tally, ref)
    layers, absent = spans.layer_metrics(tracer, m)
    tally.errors += untraced.errors
    tally.failed_ops += untraced.failed_ops
    traced = summary_metrics(tally, 0.0)
    overhead = (traced["op_ref_p50"][0] / summary_metrics(untraced, 0.0)["op_ref_p50"][0]
                if tally.op_s and untraced.op_s else 0.0)
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    every = dict(layers)
    every.update({f"absent: {name}": (0.0, "-") for name in absent})
    every.update({f"traced {k}": v for k, v in traced.items() if k != "setup_s"})
    return 2 * m, layers, every


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print("# " + line.replace("\n", "\n# "))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
