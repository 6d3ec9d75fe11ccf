"""Persistence: signal CSVs and the fit-report JSON schema.

Report schema (absent fields are null):
{
  "model": "rhlp" | "piecewise_dp" | "piecewise_iterative",
  "K": int, "p": int, "q": int | null,
  "w": [[...]] | null,          # (K, q+1) logistic coefficients
  "beta": [[...]],              # (K, p+1) regression coefficients
  "sigma2": [...],              # K variances
  "gamma": [...] | null,        # K+1 partition boundaries (piecewise models)
  "log_likelihood": float, "bic": float | null, "criterion_j": float | null,
  "labels": [...], "denoised": [...] | null,
  "runtime_seconds": float | null, "converged": bool | null, "seed": int | null
}
Numbers are serialized with full round-trip precision.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import Signal
from .errors import ParseError, SchemaError
from .piecewise import PiecewiseFit
from .rhlp import FitReport

MODEL_TAGS = ("rhlp", "piecewise_dp", "piecewise_iterative")


def load_signal_csv(path) -> tuple[Signal, np.ndarray | None]:
    """Read a signal CSV with header t,x (an optional third column, label, is
    returned when present). Signal rejects non-finite values and times that
    are not strictly increasing."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip().lower() for h in header]
        if header[:2] != ["t", "x"]:
            raise ParseError(f"expected header starting with 't,x', got {header}", line=1)
        has_labels = len(header) > 2 and header[2] == "label"
        ts, xs, labels = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ts.append(float(row[0]))
                xs.append(float(row[1]))
                if has_labels:
                    labels.append(int(float(row[2])))
            except (ValueError, IndexError) as exc:
                raise ParseError(str(exc), line=lineno) from None
    if not ts:
        raise ParseError("no data rows", line=2)
    return Signal(ts, xs), (np.asarray(labels) if has_labels else None)


def save_signal_csv(path, signal: Signal, labels=None) -> None:
    if labels is None:
        write_csv(path, ["t", "x"], zip(signal.t, signal.x))
    else:
        labels = np.asarray(labels).astype(int)
        write_csv(path, ["t", "x", "label"], zip(signal.t, signal.x, labels))


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else value


def write_csv(path, header, rows) -> None:
    """Write a header and rows in the package's one CSV format: floats by
    repr (round-trip precision), ints such as labels plain, None empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


@dataclass(frozen=True)
class ReportDocument:
    """In-memory form of a persisted fit report."""

    model: str
    K: int
    p: int
    q: int | None
    w: list | None
    beta: list
    sigma2: list
    gamma: list | None
    log_likelihood: float
    bic: float | None
    criterion_j: float | None
    labels: list
    denoised: list | None
    runtime_seconds: float | None
    converged: bool | None
    seed: int | None


def _listify(arr):
    if arr is None:
        return None
    return np.asarray(arr).tolist()


def report_document(fit, model: str | None = None, seed=None,
                    runtime_seconds=None) -> ReportDocument:
    """Build a ReportDocument from a FitReport or PiecewiseFit."""
    if isinstance(fit, FitReport):
        p = fit.params
        return ReportDocument(
            model="rhlp", K=p.K, p=p.p, q=p.q,
            w=_listify(p.logistic.w),
            beta=_listify(p.betas),
            sigma2=_listify(p.sigma2s),
            gamma=None,
            log_likelihood=float(fit.log_likelihood),
            bic=float(fit.bic),
            criterion_j=None,
            labels=_listify(fit.labels),
            denoised=_listify(fit.denoised),
            runtime_seconds=float(
                fit.runtime_seconds if runtime_seconds is None else runtime_seconds
            ),
            converged=bool(fit.converged),
            seed=fit.seed if seed is None else seed,
        )
    if isinstance(fit, PiecewiseFit):
        if model not in ("piecewise_dp", "piecewise_iterative"):
            raise SchemaError(f"piecewise fits need an explicit model tag, got {model!r}")
        return ReportDocument(
            model=model, K=fit.K, p=len(fit.components[0].beta) - 1, q=None,
            w=None,
            beta=_listify([c.beta for c in fit.components]),
            sigma2=[float(c.sigma2) for c in fit.components],
            gamma=_listify(fit.partition.gamma),
            log_likelihood=float(fit.log_likelihood),
            bic=None,
            criterion_j=float(fit.criterion_j),
            labels=_listify(fit.labels()),
            denoised=None,
            runtime_seconds=runtime_seconds,
            converged=None,
            seed=seed,
        )
    raise SchemaError(f"cannot serialize object of type {type(fit).__name__}")


def save_fit_report(fit, path, model: str | None = None, seed=None,
                    runtime_seconds=None) -> None:
    doc = (fit if isinstance(fit, ReportDocument)
           else report_document(fit, model, seed, runtime_seconds))
    with open(path, "w") as fh:
        json.dump(asdict(doc), fh, indent=1)
        fh.write("\n")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_rows(v, n: int, width: int) -> bool:
    return (isinstance(v, list) and len(v) == n
            and all(isinstance(row, list) and len(row) == width for row in v))


def load_fit_report(path) -> ReportDocument:
    """Load and validate a report JSON; raises SchemaError on unknown model
    tags, wrong types or shape mismatches."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    _require(isinstance(raw, dict), "report must be a JSON object")
    known = {f for f in ReportDocument.__dataclass_fields__}
    unknown = set(raw) - known
    _require(not unknown, f"unknown fields {sorted(unknown)}")
    missing = known - set(raw)
    _require(not missing, f"missing fields {sorted(missing)}")
    _require(raw["model"] in MODEL_TAGS, f"unknown model tag {raw['model']!r}")
    K, p, q, labels, sigma2 = (raw[f] for f in ("K", "p", "q", "labels", "sigma2"))
    _require(_is_int(K) and K >= 1 and _is_int(p) and p >= 0 and isinstance(labels, list),
             "K must be an integer >= 1, p one >= 0 and labels a list")
    _require(_is_rows(raw["beta"], K, p + 1), f"beta must be {K} rows of length {p + 1}")
    _require(
        isinstance(sigma2, list) and len(sigma2) == K
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                for v in sigma2),
        f"sigma2 must be a list of {K} positive numbers",
    )
    if raw["model"] == "rhlp":
        _require(_is_int(q) and q >= 0, "rhlp reports require an integer q >= 0")
        _require(_is_rows(raw["w"], K, q + 1), f"w must be {K} rows of length {q + 1}")
    else:
        gamma = raw["gamma"]
        _require(
            isinstance(gamma, list) and len(gamma) == K + 1 and all(map(_is_int, gamma))
            and gamma[0] == 0 and gamma[-1] == len(labels)
            and all(a < b for a, b in zip(gamma, gamma[1:])),
            f"gamma must be {K + 1} integers increasing strictly from 0 to "
            f"{len(labels)}, got {gamma}",
        )
    return ReportDocument(**raw)
