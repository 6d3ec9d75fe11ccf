"""Acceptance gate: the nine release criteria, one test each.

Every test prints a single PASS/FAIL line naming its criterion, so a plain
`pytest -v -s tests/test_acceptance.py` doubles as the release checklist.
"""
import itertools
import time

import numpy as np
import pytest

from rhlpseg.cli import main as cli_main
from rhlpseg.core import Signal, design_matrix
from rhlpseg.piecewise import (
    fisher_dp,
    iterative_fisher,
    segment_cost,
)
from rhlpseg.rhlp import (
    LogisticProcess,
    em_fit,
    irls_gradient,
    irls_hessian,
    irls_objective_q1,
    irls_solve,
    logistic_proportions,
    m_step_regression,
    n_free_parameters,
    select_model,
)
from rhlpseg.simulate import (
    SCENARIOS,
    SITUATION_1,
    SITUATION_2,
    run_benchmark,
    simulate_piecewise,
)


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def exhaustive_best_j(signal: Signal, K: int, p: int, min_len: int) -> float:
    """Minimum criterion J over every feasible partition, by enumeration."""
    n = len(signal.t)
    best = np.inf
    for cuts in itertools.combinations(range(1, n), K - 1):
        gamma = (0,) + cuts + (n,)
        if any(b - a < min_len for a, b in zip(gamma, gamma[1:])):
            continue
        j = sum(
            segment_cost(signal, a, b, p)[0] for a, b in zip(gamma, gamma[1:])
        )
        best = min(best, j)
    return best


def test_criterion_1_dp_global_optimality():
    rng = np.random.default_rng(20260826)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(2, 4))
        p = int(rng.integers(0, 2))
        min_len = p + 2
        n = int(rng.integers(K * min_len, 17))
        t = np.sort(rng.uniform(0.0, 5.0, n))
        x = rng.normal(scale=2.0, size=n) + rng.choice([0.0, 5.0], size=n)
        sig = Signal(t, x)
        fit = fisher_dp(sig, K, p)
        oracle = exhaustive_best_j(sig, K, p, min_len)
        worst = max(worst, abs(fit.criterion_j - oracle))
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 1: DP matches exhaustive enumeration",
        worst <= 1e-9 and elapsed < 30.0,
        f"max |J - oracle| = {worst:.3e} over 200 signals in {elapsed:.1f}s",
    )


def test_criterion_2_em_ascent():
    start = time.perf_counter()
    worst = np.inf
    runs = 0
    for scenario in (SITUATION_1, SITUATION_2):
        for rep in range(25):
            sig, _ = simulate_piecewise(scenario, 500, seed=rep)
            report = em_fit(sig, K=3, p=2, q=1, seed=rep)
            trace = np.asarray(report.log_likelihood_trace)
            worst = min(worst, float(np.diff(trace).min()))
            runs += 1
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 2: EM log-likelihood ascent",
        worst >= -1e-8 and elapsed < 60.0,
        f"smallest increment {worst:.3e} over {runs} runs in {elapsed:.1f}s",
    )


def test_criterion_3_irls_derivatives():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst_g = worst_h = 0.0
    ascent_ok = True
    for _ in range(100):
        K = int(rng.integers(2, 5))
        q = int(rng.integers(0, 3))
        n = int(rng.integers(20, 201))
        t = np.sort(rng.uniform(0.0, 5.0, n))
        w = np.zeros((K, q + 1))
        w[:-1] = rng.normal(scale=0.5, size=(K - 1, q + 1))
        tau = rng.dirichlet(np.ones(K), size=n)

        g = irls_gradient(w, tau, t)
        H = irls_hessian(w, t)
        nf = (K - 1) * (q + 1)
        eps = 1e-5
        flat = w[:-1].ravel()
        fd_g = np.zeros(nf)
        fd_h = np.zeros((nf, nf))
        for i in range(nf):
            up, dn = flat.copy(), flat.copy()
            up[i] += eps
            dn[i] -= eps
            wu = np.zeros((K, q + 1)); wu[:-1] = up.reshape(K - 1, q + 1)
            wd = np.zeros((K, q + 1)); wd[:-1] = dn.reshape(K - 1, q + 1)
            fd_g[i] = (
                irls_objective_q1(wu, tau, t) - irls_objective_q1(wd, tau, t)
            ) / (2 * eps)
            fd_h[:, i] = (
                irls_gradient(wu, tau, t) - irls_gradient(wd, tau, t)
            ) / (2 * eps)
        scale_g = max(1.0, float(np.abs(fd_g).max()))
        scale_h = max(1.0, float(np.abs(fd_h).max()))
        worst_g = max(worst_g, float(np.abs(g - fd_g).max()) / scale_g)
        worst_h = max(worst_h, float(np.abs(H - fd_h).max()) / scale_h)

        before = irls_objective_q1(w, tau, t)
        after = irls_objective_q1(irls_solve(w, tau, t), tau, t)
        ascent_ok = ascent_ok and after >= before - 1e-10
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 3: IRLS gradient/Hessian vs finite differences",
        worst_g <= 1e-5 and worst_h <= 1e-4 and ascent_ok and elapsed < 30.0,
        f"gradient err {worst_g:.2e}, Hessian err {worst_h:.2e}, "
        f"ascent {'held' if ascent_ok else 'violated'}, {elapsed:.1f}s",
    )


def _interior_switch_times(labels, t):
    idx = np.nonzero(np.diff(np.asarray(labels)) != 0)[0] + 1
    return t[idx]


def test_criterion_4_transition_recovery():
    details = []
    ok = True
    for scenario in (SITUATION_1, SITUATION_2):
        truth = np.asarray(scenario.transition_times[1:-1])
        errs_rhlp, errs_dp = [], []
        for rep in range(20):
            sig, _ = simulate_piecewise(scenario, 1000, seed=rep)
            report = em_fit(sig, K=3, p=2, q=1, seed=rep)
            est = _interior_switch_times(report.labels, sig.t)
            if len(est) == len(truth):
                errs_rhlp.extend(np.abs(est - truth))
            else:
                errs_rhlp.extend([np.inf] * len(truth))
            dp = fisher_dp(sig, K=3, p=2)
            errs_dp.extend(np.abs(_interior_switch_times(dp.partition.labels(), sig.t) - truth))
        med_rhlp = float(np.median(errs_rhlp))
        med_dp = float(np.median(errs_dp))
        ok = ok and med_rhlp <= 0.15 and med_rhlp <= 2.0 * med_dp
        details.append(f"{scenario.name}: median {med_rhlp:.4f}s (DP {med_dp:.4f}s)")
    verdict(
        "criterion 4: transition recovery at n=1000",
        ok,
        "; ".join(details),
    )


def test_criterion_5_simulation_study_orderings():
    start = time.perf_counter()
    rows = run_benchmark(
        scenarios=[SITUATION_1, SITUATION_2],
        n_grid=[100, 500, 1000],
        replicates=20,
        methods=["rhlp", "fisher_dp"],
        seed=0,
    )
    elapsed = time.perf_counter() - start
    cells = {}
    for row in rows:
        cells.setdefault((row.scenario, row.n), {})[row.method] = row

    mis_ok = True
    den_wins = 0
    for key, pair in cells.items():
        # one-sided: the claim under test is that the soft-transition model
        # classifies about as well as the exact optimum, so only a deficit
        # beyond two percentage points counts against it
        diff = pair["rhlp"].misclassification - pair["fisher_dp"].misclassification
        if diff > 0.02:
            mis_ok = False
        if pair["rhlp"].denoising_mse <= pair["fisher_dp"].denoising_mse:
            den_wins += 1
    # runtime_s is each cell's mean over its replicates
    n1000 = {key[0]: (pair["rhlp"].runtime_s, pair["fisher_dp"].runtime_s)
             for key, pair in cells.items() if key[1] == 1000}
    rt_ok = all(r < d for r, d in n1000.values())
    den_ok = den_wins * 3 >= len(cells) * 2
    margins = ", ".join(f"{name} {r:.3f}s/{d:.3f}s = {r / d:.2f}"
                        for name, (r, d) in n1000.items())

    verdict(
        "criterion 5: simulation study orderings",
        mis_ok and den_ok and rt_ok and elapsed < 1200.0,
        f"misclassification within 2pp in all {len(cells)} cells: {mis_ok}; "
        f"denoising wins {den_wins}/{len(cells)}; "
        f"runtime at n=1000 rhlp<dp: {rt_ok} (mean rhlp/dp: {margins}); "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_reductions():
    rng = np.random.default_rng(6)
    t = np.linspace(0, 5, 120)
    x = 3.0 - 0.8 * t + 0.3 * rng.standard_normal(120)
    sig = Signal(t, x)

    report = em_fit(sig, K=1, p=1, q=0)
    T = design_matrix(t, 1)
    ols = np.linalg.lstsq(T, x, rcond=None)[0]
    k1_err = float(np.abs(report.params.betas[0] - ols).max())

    sig2, _ = simulate_piecewise(SITUATION_1, 200, seed=0)
    tau = np.zeros((200, 2))
    tau[:90, 0] = 1.0
    tau[90:, 1] = 1.0
    comps = m_step_regression(tau, sig2, p=2)
    _, left = segment_cost(sig2, 0, 90, 2)
    _, right = segment_cost(sig2, 90, 200, 2)
    mstep_err = max(
        float(np.abs(comps[0].beta - left.beta).max()),
        float(np.abs(comps[1].beta - right.beta).max()),
    )

    dp = fisher_dp(sig2, K=3, p=2)
    redone = iterative_fisher(sig2, K=3, p=2, init=dp.partition)
    fixed_point_err = abs(redone.criterion_j - dp.criterion_j)

    ok = k1_err <= 1e-9 and mstep_err <= 1e-9 and fixed_point_err <= 1e-9
    verdict(
        "criterion 6: reductions to least squares and DP fixed point",
        ok,
        f"K=1 vs OLS {k1_err:.2e}; binary-tau M-step {mstep_err:.2e}; "
        f"iterative at DP optimum shifts J by {fixed_point_err:.2e}",
    )


def test_criterion_7_free_parameter_count():
    mismatches = []
    for K, p, q in itertools.product(range(1, 5), range(4), range(3)):
        counted = K * (p + 1) + K + (K - 1) * (q + 1)
        if counted != n_free_parameters(K, p, q):
            mismatches.append((K, p, q))
    verdict(
        "criterion 7: free-parameter formula audit",
        not mismatches,
        f"48 (K,p,q) combinations checked, mismatches: {mismatches or 'none'}",
    )


def test_criterion_8_bic_selects_k3():
    hits = 0
    for rep in range(20):
        sig, _ = simulate_piecewise(SITUATION_1, 1000, seed=rep)
        best, _ = select_model(sig, K_range=[1, 2, 3, 4, 5], p_range=[2], q=1,
                               seed=rep)
        if best.params.K == 3:
            hits += 1
    verdict(
        "criterion 8: BIC recovers K=3",
        hits >= 15,
        f"K=3 maximized BIC in {hits}/20 replicates",
    )


def test_criterion_9_benchmark_determinism(tmp_path):
    argv = ["benchmark", "--scenarios", "situation1,situation2", "--n", "100,200",
            "--replicates", "3", "--seed", "123", "--no-timing"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    rc_a = cli_main(argv + ["--output", str(out_a)])
    rc_b = cli_main(argv + ["--output", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    verdict(
        "criterion 9: benchmark output is bit-reproducible",
        rc_a == 0 and rc_b == 0 and identical,
        f"exit codes ({rc_a}, {rc_b}), byte-identical: {identical}",
    )
