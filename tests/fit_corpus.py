"""The fit corpus: one CSV row per fit of a fixed set of simulated signals,
checked in as tests/fit_corpus.csv, so that a change that moves a fit shows
up as a diff of that file.

- EM rows: the 24 BIC sweeps, both scenarios and seeds 0-11 at n = 500,
  em_fit at K = 1..5, p = 2, q = 1 and seed 0, one row per K. Each row
  carries the K that the BIC picks in its sweep, as select_model picks it.
- Piecewise rows: both scenarios, seeds 0-5, n in {120, 500, 2000}, on the
  raw times and on epoch times 1.7e9 + i with x + 1e3, at (K, p) in {(2, 1),
  (3, 2), (5, 0), (1, 2)}, through fisher_dp and multi_start_iterative
  (seed 0).

Columns: the key (method, scenario, seed, n, times, K, p, q); value, the
repr of the final log-likelihood (EM) or of J (piecewise); gamma, the
segment boundaries (piecewise) or the first 16 hex digits of the SHA-256 of
the labels (EM); steps, the accepted EM steps or the iterative rounds;
converged; and selected_K, the BIC's K (EM rows only). Fields that do not
apply are empty.

    python tests/fit_corpus.py            # rewrite tests/fit_corpus.csv
    python tests/fit_corpus.py OUT.csv    # write the corpus elsewhere

tests/test_fit_corpus.py compares a regenerated subset with the file, and
run as a script, the whole corpus.
"""
import csv
import hashlib
import itertools
import os
import sys

import numpy as np

from rhlpseg.core import Signal
from rhlpseg.piecewise import fisher_dp, multi_start_iterative
from rhlpseg.rhlp import em_fit
from rhlpseg.simulate import SITUATION_1, SITUATION_2, simulate_piecewise

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fit_corpus.csv")
FIELDS = ["method", "scenario", "seed", "n", "times", "K", "p", "q",
          "value", "gamma", "steps", "converged", "selected_K"]
KEY = FIELDS[:8]
SCENARIOS = (SITUATION_1, SITUATION_2)
SWEEP_SEEDS = range(12)
SWEEP_KS = range(1, 6)
PIECEWISE_SEEDS = range(6)
PIECEWISE_NS = (120, 500, 2000)
PIECEWISE_ORDERS = ((2, 1), (3, 2), (5, 0), (1, 2))


def _epoch(signal: Signal) -> Signal:
    return Signal(1.7e9 + np.arange(signal.n, dtype=float), signal.x + 1e3)


def em_rows(scenario, seed):
    """The rows of one BIC sweep: em_fit at each K, p = 2, q = 1, seed 0."""
    signal, _ = simulate_piecewise(scenario, 500, seed=seed)
    fits = [em_fit(signal, K, 2, 1, seed=0) for K in SWEEP_KS]
    # select_model's rule: the largest BIC, ties to the smaller K
    selected = min(fits, key=lambda f: (-f.bic, f.params.K)).params.K
    return [
        {"method": "em_fit", "scenario": scenario.name, "seed": seed, "n": signal.n,
         "times": "raw", "K": fit.params.K, "p": 2, "q": 1,
         "value": repr(float(fit.log_likelihood)),
         "gamma": hashlib.sha256(fit.labels.astype(np.int64).tobytes()).hexdigest()[:16],
         "steps": fit.em_iterations, "converged": int(fit.converged), "selected_K": selected}
        for fit in fits]


def piecewise_rows(scenario, seed, n, times):
    """fisher_dp and multi_start_iterative rows of one signal, every order."""
    signal, _ = simulate_piecewise(scenario, n, seed=seed)
    if times == "epoch":
        signal = _epoch(signal)
    rows = []
    for (K, p), method in itertools.product(PIECEWISE_ORDERS, ("fisher_dp", "iterative")):
        if method == "fisher_dp":
            fit, steps, converged = fisher_dp(signal, K, p), "", ""
        else:
            fit = multi_start_iterative(signal, K, p, seed=0)
            steps, converged = len(fit.j_trace) - 1, ""
        rows.append(
            {"method": method, "scenario": scenario.name, "seed": seed, "n": n,
             "times": times, "K": K, "p": p, "q": "", "value": repr(float(fit.criterion_j)),
             "gamma": " ".join(map(str, fit.partition.gamma.tolist())),
             "steps": steps, "converged": converged, "selected_K": ""})
    return rows


def corpus(sweep_seeds=SWEEP_SEEDS, piecewise_ns=PIECEWISE_NS):
    """Every row, or those of the given sweep seeds and piecewise sizes, as
    dicts of strings in file order."""
    rows = []
    for scenario, seed in itertools.product(SCENARIOS, sweep_seeds):
        rows += em_rows(scenario, seed)
    for scenario, seed, n, times in itertools.product(
            SCENARIOS, PIECEWISE_SEEDS, piecewise_ns, ("raw", "epoch")):
        rows += piecewise_rows(scenario, seed, n, times)
    return [{k: str(v) for k, v in row.items()} for row in rows]


def read(path=PATH):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write(rows, path=PATH):
    with open(path, "w", newline="") as fh:
        out = csv.DictWriter(fh, FIELDS, lineterminator="\n")
        out.writeheader()
        out.writerows(rows)


if __name__ == "__main__":
    write(corpus(), sys.argv[1] if len(sys.argv) > 1 else PATH)
