"""Multi-label evaluation metrics over binary prediction matrices.

All degenerate ratios (0/0) evaluate to 0.0 rather than raising, so
classes with no positive examples or no positive predictions score
zero instead of poisoning aggregates with NaN.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

AGGREGATE_ROW_KEY = "__all__"
PROB_EPS = 1e-7


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def support(self) -> int:
        return self.tp + self.fn


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _matched(a, b, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays as `dtype`; ValueError unless their shapes match."""
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    """Counts for one class column of 0/1 values."""
    t, p = _matched(y_true, y_pred, bool)
    return ConfusionCounts(
        tp=int(np.sum(t & p)),
        fp=int(np.sum(~t & p)),
        fn=int(np.sum(t & ~p)),
        tn=int(np.sum(~t & ~p)),
    )


def precision(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fp)


def recall(c: ConfusionCounts) -> float:
    return _ratio(c.tp, c.tp + c.fn)


def f1(c: ConfusionCounts) -> float:
    p = precision(c)
    r = recall(c)
    return _ratio(2.0 * p * r, p + r)


def false_positive_rate(c: ConfusionCounts) -> float:
    return _ratio(c.fp, c.fp + c.tn)


def false_negative_rate(c: ConfusionCounts) -> float:
    return _ratio(c.fn, c.fn + c.tp)


def weighted_f1(per_class: list[ConfusionCounts]) -> float:
    """Support-weighted mean of per-class F1; zero-support classes drop out."""
    total = sum(c.support for c in per_class)
    if total == 0:
        return 0.0
    return sum(f1(c) * c.support for c in per_class) / total


def jaccard(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Micro Jaccard: intersection over union pooled across every cell."""
    t, p = _matched(y_true, y_pred, bool)
    inter = int(np.sum(t & p))
    union = int(np.sum(t | p))
    return _ratio(inter, union)


def hamming_loss(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of label cells that disagree."""
    t, p = _matched(y_true, y_pred, bool)
    if t.size == 0:
        return 0.0
    return float(np.sum(t != p)) / t.size


def mean_bce(y_true: np.ndarray, probs: np.ndarray, eps: float = PROB_EPS) -> float:
    """Binary cross-entropy averaged over all cells, probabilities clamped."""
    y, p = _matched(y_true, probs, np.float64)
    if y.size == 0:
        return 0.0
    p = np.clip(p, eps, 1.0 - eps)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    fpr: float
    fnr: float


@dataclass(frozen=True)
class MetricsReport:
    per_class: list[ClassMetrics]
    weighted_f1: float
    jaccard: float
    hamming: float
    mean_bce: float


def evaluate(
    class_names: list[str],
    y_true: np.ndarray,
    y_pred: np.ndarray,
    probs: np.ndarray | None = None,
) -> MetricsReport:
    """Full multi-label report for (n, k) truth/prediction matrices."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.ndim != 2 or t.shape != p.shape:
        raise ValueError(f"expected matching 2-d matrices, got {t.shape} vs {p.shape}")
    if t.shape[1] != len(class_names):
        raise ValueError(f"{len(class_names)} classes but {t.shape[1]} label columns")
    per_class = []
    for j, name in enumerate(class_names):
        c = confusion(t[:, j], p[:, j])
        per_class.append(
            ClassMetrics(
                name=name,
                counts=c,
                precision=precision(c),
                recall=recall(c),
                f1=f1(c),
                fpr=false_positive_rate(c),
                fnr=false_negative_rate(c),
            )
        )
    bce = mean_bce(t, probs) if probs is not None else 0.0
    return MetricsReport(
        per_class=per_class,
        weighted_f1=weighted_f1([m.counts for m in per_class]),
        jaccard=jaccard(t, p),
        hamming=hamming_loss(t, p),
        mean_bce=bce,
    )


def write_report_csv(report: MetricsReport, path) -> None:
    """One row per class plus a final `__all__` aggregate row.

    The aggregate row has its own shape: weighted F1, Jaccard, Hamming
    loss, then mean BCE.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class", "precision", "recall", "f1", "fpr", "fnr"])
        for m in report.per_class:
            cells = (m.precision, m.recall, m.f1, m.fpr, m.fnr)
            writer.writerow([m.name, *(f"{v:.6f}" for v in cells)])
        cells = (report.weighted_f1, report.jaccard, report.hamming, report.mean_bce)
        writer.writerow([AGGREGATE_ROW_KEY, *(f"{v:.6f}" for v in cells)])
