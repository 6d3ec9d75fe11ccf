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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if labels is None:
            writer.writerow(["t", "x"])
            for t, x in zip(signal.t, signal.x):
                writer.writerow([repr(float(t)), repr(float(x))])
        else:
            writer.writerow(["t", "x", "label"])
            for t, x, lab in zip(signal.t, signal.x, labels):
                writer.writerow([repr(float(t)), repr(float(x)), int(lab)])


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
            runtime_seconds=float(fit.runtime_seconds),
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


def load_fit_report(path) -> ReportDocument:
    """Load and validate a report JSON; raises SchemaError on unknown model
    tags or shape mismatches."""
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
    K, p = raw["K"], raw["p"]
    beta = raw["beta"]
    _require(
        isinstance(beta, list) and len(beta) == K
        and all(isinstance(b, list) and len(b) == p + 1 for b in beta),
        f"beta must be {K} rows of length {p + 1}",
    )
    _require(len(raw["sigma2"]) == K, f"sigma2 must have {K} entries")
    if raw["model"] == "rhlp":
        q = raw["q"]
        _require(q is not None, "rhlp reports require q")
        w = raw["w"]
        _require(
            isinstance(w, list) and len(w) == K
            and all(isinstance(row, list) and len(row) == q + 1 for row in w),
            f"w must be {K} rows of length {q + 1}",
        )
    else:
        gamma = raw["gamma"]
        _require(
            isinstance(gamma, list) and len(gamma) == K + 1,
            f"gamma must have {K + 1} entries",
        )
    return ReportDocument(**raw)
