"""Calibration, discrimination and screening summaries for binary tasks.

All functions take probabilities in [0, 1] and hard 0/1 labels as flat
arrays. Multi-task matrices with NaN for missing cells go through
macro_average, which applies a single-task metric per column and
averages the columns that were defined. ``eval_report`` builds one
held-out evaluation's report from such a matrix: its metric fields and
its confusion counts.

Binning convention, used everywhere: B equal-width bins over the stated
range; a value lands in bin floor(t * B) of the unit-scaled coordinate
t, clamped so the top of the range falls in the final bin (final bin
right-closed, others half-open). B is ``ECE_BINS`` (10) for ECE and
``HIST_BINS`` (20) for the confusion and screening histograms, whose
bin edges are ``HIST_EDGES``; a screen counts a probability below
``SCREEN_LOW`` (0.05) or above ``SCREEN_HIGH`` (0.95) as extreme.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from .errors import DataError

THRESHOLD = 0.5
ECE_BINS = 10
HIST_BINS = 20
SCREEN_LOW = 0.05
SCREEN_HIGH = 0.95
HIST_EDGES = tuple(k / HIST_BINS for k in range(HIST_BINS + 1))


def _validate(probs, labels=None):
    probs = np.asarray(probs, dtype=np.float64).ravel()
    if probs.size == 0:
        raise DataError("no probabilities given")
    if not np.all(np.isfinite(probs)):
        raise DataError("probabilities contain non-finite values")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise DataError("probabilities outside [0, 1]")
    if labels is None:
        return probs
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if labels.shape != probs.shape:
        raise DataError(f"{labels.size} labels for {probs.size} probabilities")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("labels must be 0 or 1")
    return probs, labels


def _bin_index(t: np.ndarray, n_bins: int) -> np.ndarray:
    # t is the unit-scaled coordinate in [0, 1]
    return np.minimum((t * n_bins).astype(np.int64), n_bins - 1)


# ---------------------------------------------------------------------------
# calibration


def ece(probs, labels) -> float:
    """Expected calibration error over ``ECE_BINS`` equal-width confidence
    bins.

    Confidence is max(p, 1-p) in [0.5, 1]; the predicted class is
    [p >= 0.5]; ECE = sum_b (n_b / N) |accuracy_b - confidence_b| with
    empty bins contributing nothing.
    """
    probs, labels = _validate(probs, labels)
    confidence = np.maximum(probs, 1.0 - probs)
    correct = ((probs >= THRESHOLD) == (labels == 1.0)).astype(np.float64)
    idx = _bin_index((confidence - 0.5) * 2.0, ECE_BINS)
    count = np.bincount(idx, minlength=ECE_BINS).astype(np.int64)
    conf_sum = np.bincount(idx, weights=confidence, minlength=ECE_BINS)
    acc_sum = np.bincount(idx, weights=correct, minlength=ECE_BINS)
    filled = count > 0
    mean_conf = np.where(filled, conf_sum / np.maximum(count, 1), 0.0)
    mean_acc = np.where(filled, acc_sum / np.maximum(count, 1), 0.0)
    return float(np.sum(count / probs.size * np.abs(mean_acc - mean_conf)))


# ---------------------------------------------------------------------------
# discrimination


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group at the mean of the ranks it spans."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def auroc(scores, labels) -> float:
    """Mann-Whitney statistic with mid-rank ties.

    Equals P(score_pos > score_neg) + 0.5 P(score_pos == score_neg)
    over all positive-negative pairs. Scores may be any finite reals.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if scores.size == 0:
        raise DataError("no scores given")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    if scores.shape != labels.shape:
        raise DataError(f"{labels.size} labels for {scores.size} scores")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("single-class input: auroc undefined, "
                        "report the cell as missing")
    ranks = _midranks(scores)
    u = ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def classification_metrics(probs, labels
                           ) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) at ``THRESHOLD``; a degenerate
    ratio falls back to 0."""
    probs, labels = _validate(probs, labels)
    pred = probs >= THRESHOLD
    pos = labels == 1.0
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    precision = 0.0 if (tp + fp) == 0 else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 \
        else 2.0 * precision * recall / (precision + recall)
    return (tp + tn) / probs.size, precision, recall, f1


# ---------------------------------------------------------------------------
# histograms


def confusion_histogram(probs, labels) -> dict[str, np.ndarray]:
    """Per-probability-bin outcome counts at the 0.5 threshold, keyed
    ``tp``, ``fp``, ``tn`` and ``fn``."""
    probs, labels = _validate(probs, labels)
    idx = _bin_index(probs, HIST_BINS)
    pred = probs >= THRESHOLD
    pos = labels == 1.0

    def count(mask):
        return np.bincount(idx[mask], minlength=HIST_BINS).astype(np.int64)

    return {"tp": count(pred & pos), "fp": count(pred & ~pos),
            "tn": count(~pred & ~pos), "fn": count(~pred & pos)}


def screening_summary(probs) -> dict:
    """How much of an unlabeled library gets an extreme probability: the
    fields a screen summary writes, plus the per-bin ``counts``."""
    probs = _validate(probs)
    n_below = int(np.sum(probs < SCREEN_LOW))
    n_above = int(np.sum(probs > SCREEN_HIGH))
    return {"n_total": probs.size, "n_below": n_below, "n_above": n_above,
            "low": SCREEN_LOW, "high": SCREEN_HIGH,
            "extreme_fraction": (n_below + n_above) / probs.size,
            "counts": np.bincount(_bin_index(probs, HIST_BINS),
                                  minlength=HIST_BINS).astype(np.int64)}


# ---------------------------------------------------------------------------
# multi-task aggregation


def macro_average(metric: Callable[[np.ndarray, np.ndarray], Any],
                  probs, labels) -> Any:
    """Column-wise metric over non-missing cells, averaged across tasks.

    NaN labels mark missing cells. Tasks where the metric is undefined
    (e.g. single-class auroc) are skipped; at least one task must be
    defined. A metric returning a tuple of floats is averaged entry by
    entry, giving a tuple of means.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.ndim != 2 or probs.shape != labels.shape:
        raise DataError(f"need matching (n, tasks) matrices, got "
                        f"{probs.shape} and {labels.shape}")
    defined: list = []
    for t in range(probs.shape[1]):
        present = ~np.isnan(labels[:, t])
        if not present.any():
            continue
        try:
            value = metric(probs[present, t], labels[present, t])
        except DataError:
            continue
        defined.append(value if isinstance(value, tuple) else float(value))
    if not defined:
        raise DataError("metric undefined for every task")
    if isinstance(defined[0], tuple):
        # one 1-D mean per entry: the mean of a stacked (tasks, k) array
        # along axis 0 can differ in the last bit from 8 tasks on
        return tuple(float(np.mean(c)) for c in zip(*defined))
    return float(np.mean(defined))


def eval_report(probs, labels) -> tuple[dict, dict[str, np.ndarray]]:
    """Eval's per-seed metric fields and confusion counts from (n, tasks)
    probabilities and labels, NaN where a cell is unlabelled: each metric's
    macro average (None where undefined for every task), then the
    extreme fraction and confusion histogram of the pooled labelled cells."""
    fields: dict = {}
    for names, fn in ((("ece",), ece), (("auroc",), auroc),
                      (("accuracy", "precision", "recall", "f1"),
                       classification_metrics)):
        try:
            means = macro_average(fn, probs, labels)
        except DataError:
            means = (None,) * len(names)
        fields.update(zip(names, means if isinstance(means, tuple)
                          else (means,)))
    present = ~np.isnan(labels)
    pooled_p, pooled_y = probs[present], labels[present]
    fields["extreme_fraction"] = \
        screening_summary(pooled_p)["extreme_fraction"]
    return fields, confusion_histogram(pooled_p, pooled_y)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def aggregate_across_seeds(per_seed: Sequence[dict]) -> dict:
    """Mean and std (sample std for n > 1) per metric name across runs,
    over the runs where that metric is a number (not None or a flag)."""
    if not per_seed:
        raise DataError("no per-seed metrics to aggregate")
    names = sorted({k for d in per_seed for k, v in d.items()
                    if _is_number(v)})
    out = {}
    for name in names:
        vals = np.array([float(d[name]) for d in per_seed
                         if _is_number(d.get(name))])
        out[name] = {"mean": float(vals.mean()),
                     "std": float(vals.std(ddof=1)) if vals.size > 1
                     else 0.0,
                     "n": int(vals.size)}
    return out


# ---------------------------------------------------------------------------
# report rendering


_PALETTE = ("#2a9d8f", "#e76f51", "#457b9d", "#e9c46a",
            "#8d5a97", "#6c757d")


def histogram_svg(series: dict[str, np.ndarray], title: str = "") -> str:
    """Hand-rolled stacked bar chart as SVG text; one bar per
    ``HIST_EDGES`` bin, labelled by its lower edge, one layer per
    series."""
    names = list(series)
    stacks = np.stack([np.asarray(series[n], dtype=np.float64)
                       for n in names])
    if stacks.shape[1] != HIST_BINS:
        raise DataError("series length does not match bin count")
    width, height, margin = 720, 360, 48
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    top = max(float(stacks.sum(axis=0).max()), 1.0)
    bar_w = plot_w / HIST_BINS
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        parts.append(f'<text x="{width / 2}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{title}'
                     f'</text>')
    for k, name in enumerate(names):
        x = margin + 110 * k
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<rect x="{x}" y="{height - 20}" width="12" '
                     f'height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{height - 9}" '
                     f'font-family="sans-serif" font-size="12">{name}'
                     f'</text>')
    for i in range(HIST_BINS):
        y_cursor = margin + plot_h
        for k in range(len(names)):
            h = stacks[k, i] / top * plot_h
            if h <= 0:
                continue
            y_cursor -= h
            parts.append(
                f'<rect x="{margin + i * bar_w + 1:.2f}" '
                f'y="{y_cursor:.2f}" width="{bar_w - 2:.2f}" '
                f'height="{h:.2f}" '
                f'fill="{_PALETTE[k % len(_PALETTE)]}"/>')
        parts.append(
            f'<text x="{margin + (i + 0.5) * bar_w:.2f}" '
            f'y="{margin + plot_h + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">'
            f'{HIST_EDGES[i]:g}</text>')
    parts.append(f'<line x1="{margin}" y1="{margin + plot_h}" '
                 f'x2="{margin + plot_w}" y2="{margin + plot_h}" '
                 f'stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
