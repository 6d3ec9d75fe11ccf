"""Persistence: signal CSVs and the fit-report JSON schema.

Report schema, version 2 (absent fields are null):
{
  "schema_version": 2,
  "model": "rhlp" | "piecewise_dp" | "piecewise_iterative",
  "K": int, "p": int, "q": int | null,
  "t0": float, "time_factor": float,  # fit time u = (t - t0) * time_factor
  "w": [[...]] | null,          # (K, q+1) logistic coefficients, in u
  "beta": [[...]],              # (K, p+1) regression coefficients, in u
  "sigma2": [...],              # K variances
  "gamma": [...] | null,        # K+1 partition boundaries (piecewise models)
  "log_likelihood": float, "bic": float | null, "criterion_j": float | null,
  "labels": [...], "denoised": [...] | null,
  "runtime_seconds": float | null, "converged": bool | null, "seed": int | null
}
model and seed come from the fit: each fitter stamps its own tag, and
em_fit and multi_start_iterative their seed (null for fisher_dp and
iterative_fisher). Numbers are serialized with full round-trip precision
and are finite: save_fit_report raises on a NaN or an infinity and
load_fit_report rejects one. Besides types and shapes, load_fit_report
checks that labels are integers in 1..K, that a piecewise report's labels
are its gamma's segment numbers, that denoised holds one number per label
for rhlp, and that the fields of the other model are null: gamma and
criterion_j for rhlp; w, q, bic, converged and denoised for the piecewise
models. Version 1 had no time map, so it cannot say whether its times were
rescaled; loading it raises SchemaError.
"""
from __future__ import annotations

import csv
import json
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import Signal
from .errors import LengthMismatchError, ParseError, SchemaError
from .piecewise import Partition, PiecewiseFit
from .rhlp import FitReport

MODEL_TAGS = ("rhlp", "piecewise_dp", "piecewise_iterative")
SCHEMA_VERSION = 2


def _label(text) -> int:
    """A label cell or value as an int: "2", "2.0" and 2.0 parse; a value
    that is not finite and integral, such as inf, nan or 1.7, is a
    ValueError."""
    value = float(text)
    if not value.is_integer():  # False for inf and nan
        raise ValueError(f"label must be an integer, got {str(text).strip()!r}")
    return int(value)


def load_signal_csv(path) -> tuple[Signal, np.ndarray | None]:
    """Read a UTF-8 signal CSV with header t,x (an optional third column,
    label, is returned when present); a leading byte-order mark, as
    spreadsheet exports write it, is skipped. Signal rejects non-finite
    values and times that are not strictly increasing. Bytes that are not
    UTF-8 raise ParseError without a line number: the file is decoded in
    chunks, not by line."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
                        labels.append(_label(row[2]))
                except (ValueError, IndexError) as exc:
                    raise ParseError(str(exc), line=lineno) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}") from None
    if not ts:
        raise ParseError("no data rows", line=2)
    return Signal(ts, xs), (np.asarray(labels) if has_labels else None)


def save_signal_csv(path, signal: Signal, labels=None) -> None:
    """Write a signal CSV that load_signal_csv reads back; labels, when
    given, must be finite integers (ValueError) and one per sample
    (LengthMismatchError), both checked before the file is opened."""
    if labels is None:
        write_csv(path, ["t", "x"], [signal.t, signal.x])
    else:
        labels = [_label(v) for v in labels]
        if len(labels) != signal.n:
            raise LengthMismatchError(f"{len(labels)} labels for a signal of {signal.n} samples")
        write_csv(path, ["t", "x", "label"], [signal.t, signal.x, labels])


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else value


def _csv_column(column) -> list:
    """The cells of one column as write_csv writes them: a numpy float array
    in bulk, as the repr of each value of its tolist, with no Python call
    per cell; any other column cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.astype(float, copy=False).tolist()))
    return [_csv_cell(v) for v in column]


def write_csv(path, header, columns) -> None:
    """Write a header and equal-length columns in the package's one CSV
    format: floats by repr (round-trip precision), ints such as labels
    plain, None empty. Every cell is formatted, and the lengths checked
    (LengthMismatchError), before the file is opened."""
    cells = [_csv_column(column) for column in columns]
    if len({len(column) for column in cells}) > 1:
        raise LengthMismatchError(f"columns of lengths {[len(c) for c in cells]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


@dataclass(frozen=True)
class ReportDocument:
    """In-memory form of a persisted fit report."""

    schema_version: int
    model: str
    K: int
    p: int
    q: int | None
    t0: float
    time_factor: float
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
    return np.asarray(arr).tolist()


def report_document(fit, runtime_seconds=None) -> ReportDocument:
    """Build a ReportDocument from a FitReport or PiecewiseFit; its model tag
    and seed are the fit's own, the seed as a Python int (a numpy integer
    seed is stored as its value). The fitters keep no runtime:
    runtime_seconds is whatever the caller timed, or None."""
    if isinstance(fit, FitReport):
        p = fit.params
        fields = dict(
            K=p.K, p=p.p, q=p.q,
            w=_listify(p.logistic.w),
            beta=_listify(p.betas),
            sigma2=_listify(p.sigma2s),
            gamma=None,
            bic=float(fit.bic),
            criterion_j=None,
            labels=_listify(fit.labels),
            denoised=_listify(fit.denoised),
            converged=bool(fit.converged),
        )
    elif isinstance(fit, PiecewiseFit):
        fields = dict(
            K=fit.K, p=len(fit.components[0].beta) - 1, q=None,
            w=None,
            beta=_listify([c.beta for c in fit.components]),
            sigma2=[float(c.sigma2) for c in fit.components],
            gamma=_listify(fit.partition.gamma),
            bic=None,
            criterion_j=float(fit.criterion_j),
            labels=_listify(fit.labels()),
            denoised=None,
            converged=None,
        )
    else:
        raise SchemaError(f"cannot serialize object of type {type(fit).__name__}")
    return ReportDocument(
        schema_version=SCHEMA_VERSION, model=fit.model,
        t0=float(fit.time_map.t0), time_factor=float(fit.time_map.factor),
        log_likelihood=float(fit.log_likelihood),
        runtime_seconds=runtime_seconds,
        seed=None if fit.seed is None else operator.index(fit.seed), **fields,
    )


def save_fit_report(fit, path) -> None:
    """Write a fit, or a ReportDocument built from one, as report JSON; a
    fit is written with runtime_seconds null, and a runtime reaches a report
    only through report_document(fit, runtime_seconds). The document is
    serialized before the file is opened, so one that JSON cannot encode,
    or that holds a NaN or an infinity (ValueError), raises and leaves no
    file behind. It serializes the document's own field dict, in field
    order; asdict would deep-copy the label and denoised lists first."""
    doc = fit if isinstance(fit, ReportDocument) else report_document(fit)
    text = json.dumps(vars(doc), indent=1, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A finite JSON number: NaN and infinities fail the comparison, and so
    does an integer too large to be a double."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_rows(v, n: int, width: int) -> bool:
    return (isinstance(v, list) and len(v) == n
            and all(isinstance(row, list) and len(row) == width
                    and all(map(_is_finite, row)) for row in v))


def load_fit_report(path) -> ReportDocument:
    """Load and validate a report JSON; raises SchemaError on unknown model
    tags, wrong types or shape mismatches."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
    _require(isinstance(raw, dict), "report must be a JSON object")
    version = raw.get("schema_version")
    _require(_is_int(version) and version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}, got {version!r}; a report "
             "without it predates the stored time map")
    known = {f for f in ReportDocument.__dataclass_fields__}
    unknown = set(raw) - known
    _require(not unknown, f"unknown fields {sorted(unknown)}")
    missing = known - set(raw)
    _require(not missing, f"missing fields {sorted(missing)}")
    _require(raw["model"] in MODEL_TAGS, f"unknown model tag {raw['model']!r}")
    K, p, q, labels, sigma2 = (raw[f] for f in ("K", "p", "q", "labels", "sigma2"))
    _require(_is_int(K) and K >= 1 and _is_int(p) and p >= 0 and isinstance(labels, list),
             "K must be an integer >= 1, p one >= 0 and labels a list")
    _require(_is_rows(raw["beta"], K, p + 1), f"beta must be {K} rows of {p + 1} finite numbers")
    t0, factor = raw["t0"], raw["time_factor"]
    _require(_is_finite(t0) and _is_finite(factor) and factor > 0,
             "t0 must be a finite number and time_factor a finite positive one")
    _require(
        isinstance(sigma2, list) and len(sigma2) == K
        and all(_is_finite(v) and v > 0 for v in sigma2),
        f"sigma2 must be a list of {K} finite positive numbers",
    )
    _require(all(_is_int(v) and 1 <= v <= K for v in labels),
             f"labels must be integers in 1..{K}")
    _require(_is_finite(raw["log_likelihood"]), "log_likelihood must be a finite number")
    for name, valid, kind in (
        ("bic", _is_finite, "a finite number"), ("criterion_j", _is_finite, "a finite number"),
        ("runtime_seconds", _is_finite, "a finite number"), ("seed", _is_int, "an integer"),
        ("converged", lambda v: isinstance(v, bool), "a boolean"),
    ):
        _require(raw[name] is None or valid(raw[name]),
                 f"{name} must be {kind} or null, got {raw[name]!r}")
    denoised = raw["denoised"]
    if raw["model"] == "rhlp":
        _require(_is_int(q) and q >= 0, "rhlp reports require an integer q >= 0")
        _require(_is_rows(raw["w"], K, q + 1), f"w must be {K} rows of {q + 1} finite numbers")
        _require(
            isinstance(denoised, list) and len(denoised) == len(labels)
            and all(map(_is_finite, denoised)),
            f"denoised must be a list of {len(labels)} finite numbers",
        )
    else:
        gamma = raw["gamma"]
        _require(
            isinstance(gamma, list) and len(gamma) == K + 1 and all(map(_is_int, gamma))
            and gamma[0] == 0 and gamma[-1] == len(labels)
            and all(a < b for a, b in zip(gamma, gamma[1:])),
            f"gamma must be {K + 1} integers increasing strictly from 0 to "
            f"{len(labels)}, got {gamma}",
        )
        _require(labels == Partition(gamma).labels().tolist(),
                 "labels must be the segment numbers of gamma")
    # the fields of the other model are absent, and so null
    null = (("gamma", "criterion_j") if raw["model"] == "rhlp"
            else ("w", "q", "bic", "converged", "denoised"))
    given = [name for name in null if raw[name] is not None]
    _require(not given, f"{raw['model']} reports have {', '.join(null)} null, got {given} set")
    return ReportDocument(**raw)
