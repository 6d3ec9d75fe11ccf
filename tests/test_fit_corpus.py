"""The fit corpus (tests/fit_corpus.py) against its checked-in file,
tests/fit_corpus.csv. The test regenerates the quick rows: six of the 24
BIC sweeps and the n = 120 piecewise rows. Run as a script, this file
regenerates every row and compares the whole corpus the same way:

    PYTHONPATH=src python tests/test_fit_corpus.py

The tolerance, stated once here for both: the keys, gamma (the EM label
digest) and the selected K must match exactly; piecewise J within 1e-12
relative; K = 3 EM log-likelihoods within 1e-9 relative; EM rows at any
other K only need to be present. Bits would be too strict on another
machine, whose CPU may round LAPACK and numpy's SIMD log differently: a
1-ulp change of x moves the log-likelihood of up to 17 of the 24 sweeps'
fits at one wrong K by more than 1e-6 relative, against 1 of 24 at K = 3,
and the BIC picks K = 3 in every sweep either way.
"""
import sys

import fit_corpus

PIECEWISE_RTOL = 1e-12
TRUE_K_RTOL = 1e-9
TRUE_K = "3"
QUICK = {"sweep_seeds": range(6), "piecewise_ns": (120,)}


def _key(row):
    return tuple(row[field] for field in fit_corpus.KEY)


def _close(a: str, b: str, rtol: float) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def mismatches(expected, got) -> list[str]:
    """The differences of the rows got from the rows expected that the
    tolerance does not allow, one message each."""
    want, have = {_key(r): r for r in expected}, {_key(r): r for r in got}
    out = [f"missing {k}" for k in want.keys() - have.keys()]
    out += [f"not in the file {k}" for k in have.keys() - want.keys()]
    for k in want.keys() & have.keys():
        a, b = want[k], have[k]
        if a["method"] == "em_fit":
            if a["selected_K"] != b["selected_K"]:
                out.append(f"{k}: selected K {a['selected_K']} -> {b['selected_K']}")
            if a["K"] != TRUE_K:
                continue
            rtol = TRUE_K_RTOL
        else:
            rtol = PIECEWISE_RTOL
        if a["gamma"] != b["gamma"] or not _close(a["value"], b["value"], rtol):
            out.append(f"{k}: {a['value']} {a['gamma']} -> {b['value']} {b['gamma']}")
    return sorted(out)


def _quick(row) -> bool:
    if row["method"] == "em_fit":
        return int(row["seed"]) in QUICK["sweep_seeds"]
    return int(row["n"]) in QUICK["piecewise_ns"]


def test_the_quick_rows_match_the_file():
    expected = [row for row in fit_corpus.read() if _quick(row)]
    assert mismatches(expected, fit_corpus.corpus(**QUICK)) == []


if __name__ == "__main__":
    found = mismatches(fit_corpus.read(), fit_corpus.corpus())
    print("\n".join(found) or "the whole fit corpus matches tests/fit_corpus.csv")
    sys.exit(1 if found else 0)
