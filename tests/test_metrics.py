"""Calibration and discrimination metrics against brute-force oracles."""

import numpy as np
import pytest

from molbayes import cli, metrics
from molbayes.errors import DataError


# ---------------------------------------------------------------------------
# oracles: quadratic-time / loop-based reference implementations


def auroc_pairs(scores, labels):
    """Average over every positive-negative pair, ties worth one half."""
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (pos.size * neg.size)


def ece_loop(probs, labels, n_bins):
    conf = np.maximum(probs, 1.0 - probs)
    correct = ((probs >= 0.5) == (labels == 1.0)).astype(float)
    total = 0.0
    for k in range(n_bins):
        lo = 0.5 + 0.5 * k / n_bins
        hi = 0.5 + 0.5 * (k + 1) / n_bins
        sel = (conf >= lo) & ((conf < hi) | (k == n_bins - 1))
        if sel.any():
            total += (sel.sum() / probs.size
                      * abs(correct[sel].mean() - conf[sel].mean()))
    return total


def random_records(rng, n):
    probs = rng.uniform(0.0, 1.0, size=n)
    labels = rng.integers(0, 2, size=n).astype(float)
    return probs, labels


# ---------------------------------------------------------------------------
# expected calibration error


def test_ece_perfectly_confident_and_correct():
    assert metrics.ece(np.ones(8), np.ones(8)) == 0.0


def test_ece_single_bin_closed_form():
    probs = np.full(10, 0.9)
    labels = np.array([1.0] * 5 + [0.0] * 5)
    assert abs(metrics.ece(probs, labels) - 0.4) < 1e-12


def test_ece_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 300))
        probs, labels = random_records(rng, n)
        got = metrics.ece(probs, labels)
        assert abs(got - ece_loop(probs, labels, metrics.ECE_BINS)) < 1e-12


def test_ece_permutation_invariant():
    rng = np.random.default_rng(7)
    probs, labels = random_records(rng, 200)
    base = metrics.ece(probs, labels)
    for _ in range(5):
        perm = rng.permutation(200)
        assert abs(metrics.ece(probs[perm], labels[perm]) - base) < 1e-12


def test_ece_report_invariants():
    rng = np.random.default_rng(3)
    probs, labels = random_records(rng, 500)
    value = metrics.ece(probs, labels)
    assert type(value) is float and 0.0 <= value <= 1.0


def test_ece_calibrated_synthetic_converges():
    rng = np.random.default_rng(11)
    n = 100_000
    probs = rng.uniform(0.0, 1.0, size=n)
    labels = (rng.uniform(size=n) < probs).astype(float)
    assert metrics.ece(probs, labels) < 0.01


def test_ece_input_validation():
    with pytest.raises(DataError):
        metrics.ece(np.array([]), np.array([]))
    with pytest.raises(DataError):
        metrics.ece(np.array([1.2]), np.array([1.0]))
    with pytest.raises(DataError):
        metrics.ece(np.array([0.5]), np.array([2.0]))
    with pytest.raises(DataError):
        metrics.ece(np.array([0.5, 0.5]), np.array([1.0]))
    with pytest.raises(DataError):
        metrics.ece(np.array([np.nan]), np.array([1.0]))


# ---------------------------------------------------------------------------
# auroc


def test_auroc_perfect_separation():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert metrics.auroc(scores, labels) == 1.0
    assert metrics.auroc(1.0 - scores, labels) == 0.0


def test_auroc_all_ties_is_half():
    assert metrics.auroc(np.full(6, 0.4),
                         np.array([0, 1, 0, 1, 0, 1.0])) == 0.5


def test_auroc_four_point_example():
    got = metrics.auroc(np.array([0.1, 0.35, 0.4, 0.8]),
                        np.array([0.0, 1.0, 0.0, 1.0]))
    assert got == 0.75


def test_auroc_matches_pair_oracle():
    rng = np.random.default_rng(100)
    for trial in range(300):
        n = int(rng.integers(2, 65))
        if trial % 2:
            scores = rng.integers(0, 6, size=n) / 5.0  # force ties
        else:
            scores = rng.uniform(size=n)
        labels = rng.integers(0, 2, size=n).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        got = metrics.auroc(scores, labels)
        assert abs(got - auroc_pairs(scores, labels)) < 1e-12


def test_auroc_monotone_transform_invariant():
    rng = np.random.default_rng(5)
    scores = rng.uniform(-2.0, 2.0, size=64)
    labels = rng.integers(0, 2, size=64).astype(float)
    labels[0], labels[1] = 0.0, 1.0
    base = metrics.auroc(scores, labels)
    for f in (lambda x: 2.0 * x + 1.0, np.exp, lambda x: x ** 3, np.arctan):
        assert metrics.auroc(f(scores), labels) == base


def test_auroc_single_class_rejected():
    with pytest.raises(DataError, match="single-class"):
        metrics.auroc(np.array([0.1, 0.9]), np.array([1.0, 1.0]))
    with pytest.raises(DataError, match="single-class"):
        metrics.auroc(np.array([0.1, 0.9]), np.array([0.0, 0.0]))
    with pytest.raises(DataError):
        metrics.auroc(np.array([]), np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auroc_non_finite_scores_rejected(bad):
    with pytest.raises(DataError, match="non-finite"):
        metrics.auroc([bad, 0.2, 0.3], [1.0, 0.0, 1.0])
    # the per-epoch validation hook averages this way: a diverged
    # prediction leaves every task undefined, so that epoch logs no auroc
    with pytest.raises(DataError, match="every task"):
        metrics.macro_average(metrics.auroc, [[bad], [0.2], [0.3]],
                              [[1.0], [0.0], [1.0]])


# ---------------------------------------------------------------------------
# threshold metrics


def test_classification_all_correct():
    m = metrics.classification_metrics(np.array([0.9, 0.8, 0.1]),
                                       np.array([1.0, 1.0, 0.0]))
    assert m == (1.0, 1.0, 1.0, 1.0)


def test_classification_no_predicted_positives():
    accuracy, precision, recall, f1 = metrics.classification_metrics(
        np.array([0.1, 0.2, 0.3]), np.array([1.0, 1.0, 0.0]))
    assert abs(accuracy - 1 / 3) < 1e-15
    assert precision == 0.0 and recall == 0.0 and f1 == 0.0


def test_classification_two_thirds_example():
    # TP=2, FP=1, FN=1 -> precision = recall = F1 = 2/3
    probs = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
    labels = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
    accuracy, precision, recall, f1 = metrics.classification_metrics(
        probs, labels)
    assert accuracy == 3 / 5
    assert abs(precision - 2 / 3) < 1e-15
    assert abs(recall - 2 / 3) < 1e-15
    assert abs(f1 - 2 / 3) < 1e-15


def test_classification_threshold_is_geq():
    m = metrics.classification_metrics(np.array([0.5]), np.array([1.0]))
    assert m == (1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# histograms


def test_confusion_histogram_single_confident_record():
    hist = metrics.confusion_histogram(np.array([0.99]), np.array([1.0]))
    assert hist["tp"][-1] == 1
    assert hist["tp"].sum() == 1
    assert hist["fp"].sum() + hist["tn"].sum() + hist["fn"].sum() == 0


def test_confusion_histogram_boundary_half():
    hist = metrics.confusion_histogram(np.array([0.5]), np.array([0.0]))
    k = np.flatnonzero(hist["fp"])[0]
    assert metrics.HIST_EDGES[k] <= 0.5 < metrics.HIST_EDGES[k + 1]
    assert hist["fp"][k] == 1  # 0.5 predicts positive, label 0 -> FP


def test_confusion_histogram_top_edge_right_closed():
    hist = metrics.confusion_histogram(np.array([1.0]), np.array([1.0]))
    assert hist["tp"][-1] == 1


def test_confusion_histogram_reconciles_with_metrics():
    rng = np.random.default_rng(9)
    for trial in range(20):
        probs, labels = random_records(rng, int(rng.integers(1, 400)))
        hist = metrics.confusion_histogram(probs, labels)
        tp, fp, tn, fn = (int(hist[k].sum())
                          for k in ("tp", "fp", "tn", "fn"))
        assert tp + fp + tn + fn == probs.size
        assert tp + fn == labels.sum()
        accuracy, precision, recall, _ = metrics.classification_metrics(
            probs, labels)
        assert accuracy == (tp + tn) / probs.size
        assert precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert recall == (tp / (tp + fn) if tp + fn else 0.0)


# ---------------------------------------------------------------------------
# screening


def test_screening_no_extremes():
    s = metrics.screening_summary(np.full(5, 0.5))
    assert (s["n_below"], s["n_above"]) == (0, 0)
    assert s["extreme_fraction"] == 0.0


def test_screening_counts_example():
    s = metrics.screening_summary(np.array([0.01, 0.99, 0.5]))
    assert (s["n_below"], s["n_above"], s["n_total"]) == (1, 1, 3)
    assert abs(s["extreme_fraction"] - 2 / 3) < 1e-15


def test_screening_thresholds_are_strict():
    s = metrics.screening_summary(np.array([0.05, 0.95]))
    assert (s["n_below"], s["n_above"]) == (0, 0)
    assert (s["low"], s["high"]) == (0.05, 0.95)


def test_screening_histogram_totals():
    rng = np.random.default_rng(2)
    probs = rng.uniform(size=333)
    s = metrics.screening_summary(probs)
    assert s["counts"].sum() == 333
    assert s["counts"].size == 20
    with pytest.raises(DataError):
        metrics.screening_summary(np.array([1.5]))
    with pytest.raises(DataError):
        metrics.screening_summary(np.array([]))


# ---------------------------------------------------------------------------
# multi-task aggregation


def test_macro_average_over_tasks():
    rng = np.random.default_rng(15)
    probs = rng.uniform(size=(40, 3))
    labels = rng.integers(0, 2, size=(40, 3)).astype(float)
    labels[:, 0] = np.where(np.arange(40) % 2, labels[:, 0], np.nan)
    mean = metrics.macro_average(metrics.ece, probs, labels)
    present = ~np.isnan(labels)
    per_task = [metrics.ece(probs[present[:, t], t],
                            labels[present[:, t], t]) for t in range(3)]
    assert mean == float(np.mean(per_task))


def test_macro_average_skips_undefined_tasks():
    probs = np.array([[0.2, 0.9], [0.8, 0.7]])
    labels = np.array([[1.0, 1.0], [0.0, 1.0]])  # task 1 single-class
    mean = metrics.macro_average(metrics.auroc, probs, labels)
    assert mean == metrics.auroc(probs[:, 0], labels[:, 0])
    labels_all_nan = np.full((2, 1), np.nan)
    with pytest.raises(DataError):
        metrics.macro_average(metrics.auroc, probs[:, :1], labels_all_nan)


def test_macro_average_tuple_metric_matches_scalar_metrics():
    # twelve tasks, where an axis-0 mean of the stacked tuples can
    # differ in the last bit from averaging each entry on its own
    rng = np.random.default_rng(16)
    probs = rng.uniform(size=(60, 12))
    labels = rng.integers(0, 2, size=(60, 12)).astype(float)
    labels[::3, 4] = np.nan

    means = metrics.macro_average(metrics.classification_metrics,
                                  probs, labels)
    scalars = tuple(metrics.macro_average(
        lambda p, y, k=k: metrics.classification_metrics(p, y)[k],
        probs, labels) for k in range(4))
    assert means == scalars


def test_macro_average_shape_check():
    with pytest.raises(DataError):
        metrics.macro_average(metrics.auroc, np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# writers


def test_aggregate_across_seeds():
    agg = metrics.aggregate_across_seeds([{"ece": 0.1, "auroc": 0.8},
                                          {"ece": 0.3, "auroc": 0.9}])
    assert abs(agg["ece"]["mean"] - 0.2) < 1e-15
    assert abs(agg["ece"]["std"] - np.std([0.1, 0.3], ddof=1)) < 1e-15
    assert agg["auroc"]["n"] == 2
    single = metrics.aggregate_across_seeds([{"ece": 0.1}])
    assert single["ece"]["std"] == 0.0
    with pytest.raises(DataError):
        metrics.aggregate_across_seeds([])


def test_aggregate_across_seeds_skips_values_that_are_not_numbers():
    # an undefined metric is None in one seed's row: the others still count
    agg = metrics.aggregate_across_seeds(
        [{"a": 1.0, "auroc": None, "flag": True},
         {"a": None, "auroc": 0.75, "flag": False}, {"a": 3.0}])
    assert agg == {"a": {"mean": 2.0, "std": float(np.std([1.0, 3.0],
                                                          ddof=1)), "n": 2},
                   "auroc": {"mean": 0.75, "std": 0.0, "n": 1}}


def test_write_histogram_csv(tmp_path):
    hist = metrics.confusion_histogram(
        np.array([0.1, 0.6, 0.8]), np.array([0.0, 1.0, 0.0]))
    base = str(tmp_path / "h")
    cli._write_histogram(base, "d", hist, "outcome mix")
    lines = open(base + ".csv").read().strip().splitlines()[1:]
    assert lines[0] == "bin_low,bin_high,tp,fp,tn,fn"
    assert len(lines) == 21
    cells = [line.split(",") for line in lines[1:]]
    assert sum(int(c) for row in cells for c in row[2:]) == 3


def test_render_histogram_svg():
    hist = metrics.confusion_histogram(
        np.array([0.1, 0.6, 0.8, 0.95]), np.array([0.0, 1.0, 0.0, 1.0]))
    text = metrics.histogram_svg(hist, title="outcome mix")
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<rect") >= 5
    with pytest.raises(DataError):
        metrics.histogram_svg({"tp": hist["tp"][:3]})
