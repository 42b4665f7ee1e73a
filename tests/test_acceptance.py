"""Acceptance checks, one test per numbered criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Criteria 6 and 7 train the full-size model on the real
benchmark and take up to a couple of CPU hours; they, and the split
checks of criterion 8, need bace.csv (and bbbp.csv for 8) under
MOLBAYES_DATA_DIR (default ./data) and skip with a pointer when the
files are absent. Everything else is self-contained and fast.
"""

import json
import time

import numpy as np
import pytest

from molbayes import autodiff as ad
from molbayes import bayes, cli, gnn, metrics
from molbayes.chem import (DATASET_COLUMNS, FeaturizedGraph, featurize,
                           load_dataset, murcko_scaffold, parse_smiles,
                           scaffold_split)
from molbayes.gnn import GnnClassifier, ModelConfig, bce_loss_masked, \
    make_batch

from conftest import real_dataset

GRAD_TOL = 1e-4          # criterion 1
ORACLE_TOL = 1e-12       # criterion 2
CALIBRATED_ECE = 0.01    # criterion 2, N=1e5
SGLD_MEAN_TOL = 0.05     # criterion 3
SGLD_VAR_RANGE = (0.9, 1.1)
SWAG_FROBENIUS = 0.05    # criterion 4
BBB_REL_TOL = 0.10       # criterion 5
ECE_MAP_RANGE = (0.08, 0.30)   # criterion 6
AUROC_RANGE = (0.70, 0.90)


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _random_molecular_graph(rng: np.random.Generator) -> FeaturizedGraph:
    n = int(rng.integers(3, 9))
    pairs = [(i, int(rng.integers(0, i))) for i in range(1, n)]
    if rng.random() < 0.5:                     # occasional ring closure
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    edges = pairs + [(b, a) for a, b in pairs]
    edge_index = np.array(sorted(edges, key=lambda e: (e[1], e[0])),
                          dtype=np.int64)
    return FeaturizedGraph(
        node_x=rng.uniform(-1.0, 1.0, size=(n, 40)),
        edge_x=rng.uniform(0.0, 1.0, size=(len(edges), 4)),
        edge_index=edge_index)


def test_criterion_1_gradcheck_all_architectures():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for arch in gnn.ARCHITECTURES:
        model = GnnClassifier(ModelConfig(
            architecture=arch, hidden_dim=8, graph_dim=8, n_layers=2,
            n_heads=2, n_tasks=1, dropout=0.0))
        flat = model.init_params(rng)
        for g in range(20):
            fg = _random_molecular_graph(rng)
            label = np.array([[float(rng.integers(0, 2))]])
            batch = make_batch([fg], label)
            _, grad = bayes._grad_flat(model, flat, batch)

            def f(v):
                tape = ad.Tape()
                theta = tape.parameter("theta", v)
                logits = model.forward(batch, model.leaves(theta))
                return bce_loss_masked(logits, batch.labels).item()

            coords = rng.choice(model.n_params,
                                size=min(40, model.n_params),
                                replace=False)
            probe, h = flat.copy(), 1e-5
            # central differences carry ~1e-10 absolute roundoff, so
            # coordinates far below the gradient's own scale cannot be
            # held to a pure per-coordinate relative test
            floor = max(1e-4 * np.abs(grad).max(), 1e-6)
            for i in coords:
                keep = probe[i]
                probe[i] = keep + h
                up = f(probe)
                probe[i] = keep - h
                dn = f(probe)
                probe[i] = keep
                fd = (up - dn) / (2.0 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), floor)
                worst = max(worst, rel)
                assert rel < GRAD_TOL, (arch, g, int(i), rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"
    assert worst < GRAD_TOL


# ---------------------------------------------------------------------------
# 2. metric oracles


def _auroc_pairs(probs: np.ndarray, labels: np.ndarray) -> float:
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(wins) / (pos.size * neg.size)


def _ece_loop(probs: np.ndarray, labels: np.ndarray, n_bins: int) -> float:
    conf = np.maximum(probs, 1.0 - probs)
    correct = (probs >= 0.5) == (labels == 1)
    total, n = 0.0, probs.size
    for b in range(n_bins):
        lo = 0.5 + 0.5 * b / n_bins
        hi = 0.5 + 0.5 * (b + 1) / n_bins
        sel = (conf >= lo) & ((conf <= hi) if b == n_bins - 1
                              else (conf < hi))
        if sel.any():
            gap = abs(correct[sel].mean() - conf[sel].mean())
            total += sel.sum() / n * gap
    return total


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        if rng.random() < 0.3:    # quantized scores force ties
            probs = rng.integers(0, 11, size=n) / 10.0
        else:
            probs = rng.random(n)
        got = metrics.auroc(probs, labels)
        assert abs(got - _auroc_pairs(probs, labels)) <= ORACLE_TOL
    for _ in range(300):
        n = int(rng.integers(1, 513))
        probs = rng.random(n)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        got = metrics.ece(probs, labels)
        assert abs(got - _ece_loop(probs, labels, 10)) <= ORACLE_TOL

    n = 100_000
    probs = rng.random(n)
    labels = (rng.random(n) < probs).astype(np.float64)
    assert metrics.ece(probs, labels) < CALIBRATED_ECE


# ---------------------------------------------------------------------------
# 3. langevin sampler stationarity


def test_criterion_3_sgld_standard_normal():
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    n_chains, burn, keep, lr = 64, 20_000, 100_000, 1e-3
    theta = rng.standard_normal(n_chains)   # start at the target itself
    v = np.zeros(n_chains)
    total = np.zeros(n_chains)
    total_sq = np.zeros(n_chains)
    for step in range(burn + keep):
        theta = bayes.psgld_step(v, theta, -theta, lr, rng,
                                 precondition=False, noise=True)
        if step >= burn:
            total += theta
            total_sq += theta * theta
    mean = total.sum() / (n_chains * keep)
    var = total_sq.sum() / (n_chains * keep) - mean ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sgld run took {elapsed:.1f}s"
    assert abs(mean) < SGLD_MEAN_TOL, mean
    assert SGLD_VAR_RANGE[0] < var < SGLD_VAR_RANGE[1], var


# ---------------------------------------------------------------------------
# 4. swag moments


def test_criterion_4_swag_moments():
    snapshots = [np.array([1.0]), np.array([3.0])]
    mean = np.zeros(1)
    sq_mean = np.zeros(1)
    dev_cols = []
    for k, snap in enumerate(snapshots):
        mean = bayes.swa_update(mean, snap, k)
        sq_mean = bayes.swa_update(sq_mean, snap * snap, k)
        dev_cols.append(snap - mean)
    assert mean[0] == pytest.approx(2.0, abs=1e-15)
    diag = sq_mean - mean ** 2
    assert diag[0] == pytest.approx(1.0, abs=1e-15)

    dev = np.stack(dev_cols, axis=1)        # (d, K) = (1, 2)
    post = bayes.PosteriorRepresentation(
        mode="swag", digest="check", swag_mean=mean, swag_sq_mean=sq_mean,
        swag_dev=dev, swag_rank=20)
    k = dev.shape[1]
    target = 0.5 * np.diag(diag) + dev @ dev.T / (2.0 * (k - 1))
    rng = np.random.default_rng(41)
    draws = np.stack([bayes.swag_sample(post, rng)
                      for _ in range(100_000)])
    emp = np.cov(draws.T).reshape(1, 1)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < SWAG_FROBENIUS, rel


# ---------------------------------------------------------------------------
# 5. variational conjugate recovery


class _GaussianMean:
    """One location parameter under unit-variance squared error."""

    n_params = 1
    digest = "gaussian-mean"

    def init_params(self, rng):
        return 0.1 * rng.standard_normal(1)

    def nll(self, tape, theta, batch, train=False, rng=None):
        d = ad.sub(theta, batch)
        return ad.div(ad.tsum(ad.mul(d, d)), 2.0 * float(batch.size))


def test_criterion_5_bbb_conjugate_gaussian():
    rng = np.random.default_rng(3)
    y = rng.normal(1.5, 1.0, size=16)
    tau = 1.0 + y.size               # unit prior and unit noise
    mu_true = y.sum() / tau
    sigma_true = tau ** -0.5
    sched = bayes.TrainSchedule(mode="bbb", epochs=3000, optimizer="adam",
                                lr=0.02, decay_points=(2000,))
    post, _ = bayes.train(_GaussianMean(), lambda r: [y], y.size, sched, 7,
                          kl_scale=1.0, prior_sigma=1.0)
    assert abs(post.mu[0] - mu_true) < BBB_REL_TOL * abs(mu_true)
    assert abs(post.bbb_sigma[0] - sigma_true) < BBB_REL_TOL * sigma_true


# ---------------------------------------------------------------------------
# 6 + 7. benchmark calibration reproduction and screening behavior


@pytest.fixture(scope="module")
def bace_reports(tmp_path_factory):
    path = real_dataset("bace")      # skips when the csv is absent
    out = tmp_path_factory.mktemp("bace_runs")
    base = ["--set", f"dataset.path={path}", "--arch", "gin",
            "--seeds", "0,1,2,3,4,5,6,7", "--out", str(out)]
    reports = {}
    for mode in ("none", "swag"):
        assert cli.main(["train", *base, "--mode", mode]) == 0
        assert cli.main(["eval", *base, "--mode", mode]) == 0
        with open(out / f"eval_{mode}.json") as fh:
            reports[mode] = json.load(fh)
    return reports


def test_criterion_6_bace_calibration(bace_reports):
    for mode in ("none", "swag"):
        assert bace_reports[mode]["missing_seeds"] == []
        assert len(bace_reports[mode]["per_seed"]) == 8
    ece_map = bace_reports["none"]["aggregate"]["ece"]["mean"]
    ece_swag = bace_reports["swag"]["aggregate"]["ece"]["mean"]
    assert ece_swag < ece_map, (ece_swag, ece_map)
    assert ECE_MAP_RANGE[0] <= ece_map <= ECE_MAP_RANGE[1], ece_map
    for mode in ("none", "swag"):
        auc = bace_reports[mode]["aggregate"]["auroc"]["mean"]
        assert AUROC_RANGE[0] <= auc <= AUROC_RANGE[1], (mode, auc)


def test_criterion_7_bace_overconfidence(bace_reports):
    frac = {mode: {row["seed"]: row["extreme_fraction"]
                   for row in bace_reports[mode]["per_seed"]}
            for mode in ("none", "swag")}
    lower = sum(frac["swag"][s] < frac["none"][s] for s in range(8))
    assert lower >= 6, frac


# ---------------------------------------------------------------------------
# 8. scaffold-split integrity


def test_criterion_8_scaffold_split_integrity():
    toluene = murcko_scaffold(parse_smiles("Cc1ccccc1"))
    benzene = murcko_scaffold(parse_smiles("c1ccccc1"))
    assert toluene == benzene
    for acyclic in ("CCO", "CC(C)CC", "NCCN"):
        assert murcko_scaffold(parse_smiles(acyclic)) == ""

    for name in ("bace", "bbbp"):
        path = real_dataset(name)    # skips when the csv is absent
        smiles_col, label_cols = DATASET_COLUMNS[name]
        ds = load_dataset(path, smiles_col, label_cols)
        keys = [ds.scaffold_key(i) for i in range(len(ds))]
        for seed in (0, 1, 2):
            split = scaffold_split(ds, ratios=(0.8, 0.1, 0.1), seed=seed)
            parts = [set(keys[i] for i in split[part])
                     for part in ("train", "valid", "test")]
            assert not (parts[0] & parts[1])
            assert not (parts[0] & parts[2])
            assert not (parts[1] & parts[2])
            sizes = [len(split[part]) for part in ("train", "valid", "test")]
            counts: dict = {}
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            biggest = max(counts.values())
            for size, quota in zip(sizes, split["summary"]["quotas"]):
                assert abs(size - quota) <= biggest, (name, seed, sizes)


# ---------------------------------------------------------------------------
# 9. determinism of artifacts and reports


MODE_SETTINGS = {
    "none": ("--set", "schedule.epochs=3"),
    "ensemble": ("--set", "schedule.epochs=2",
                 "--set", "ensemble_members=2"),
    "swa": ("--set", "schedule.epochs=8", "--set",
            "schedule.decay_points=[1]", "--set", "schedule.cyclic_from=2",
            "--set", "schedule.cycle_len=2", "--set", "schedule.cadence=2"),
    "swag": ("--set", "schedule.epochs=8", "--set",
             "schedule.decay_points=[1]", "--set", "schedule.cyclic_from=2",
             "--set", "schedule.cycle_len=2", "--set", "schedule.cadence=2",
             "--set", "eval_samples=4"),
}


def test_criterion_9_byte_determinism(synthetic_csv, tmp_path):
    for mode, extra in MODE_SETTINGS.items():
        # a view mode (swa) is evaluated from the mode it is read from
        trained = bayes.VIEWS[mode][0] if mode in bayes.VIEWS else mode
        outs = [tmp_path / f"{mode}_{run}" for run in ("a", "b")]
        for out in outs:
            argv_tail = ["--set", f"dataset.path={synthetic_csv}",
                         "--set", "dataset.smiles_column=smiles",
                         "--set", 'dataset.label_columns=["activity"]',
                         "--set", "model.hidden_dim=8",
                         "--set", "model.graph_dim=8",
                         "--set", "model.n_layers=1",
                         "--set", "model.dropout=0.0",
                         "--arch", "gcn", "--seeds", "0", "--out",
                         str(out), *extra]
            assert cli.main(["train", *argv_tail, "--mode", trained]) == 0
            assert cli.main(["eval", *argv_tail, "--mode", mode]) == 0
        for name in (f"{trained}_seed0.post", f"eval_{mode}.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{mode}: {name} differs between identical runs"
