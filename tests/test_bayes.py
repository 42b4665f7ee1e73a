"""Training modes, posterior containers and marginalization."""

import dataclasses
import gc
import os
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from molbayes import artifacts, bayes
from molbayes import autodiff as ad
from molbayes.chem import featurize, parse_smiles
from molbayes.errors import ConfigError, NumericError
from molbayes.gnn import GnnClassifier, ModelConfig, make_batch

SEED = 20260819


# ---------------------------------------------------------------------------
# toy models speaking the flat-parameter protocol


class TinyLogistic:
    """Logistic regression on fixed features, one flat (w, b) vector."""

    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        self.d = self.X.shape[1]
        self.n_params = self.d + 1
        self.digest = "tiny-logistic"

    def init_params(self, rng):
        return 0.1 * rng.standard_normal(self.n_params)

    def nll(self, tape, theta, batch, train=False, rng=None):
        X, y = batch
        w, b = ad.split(theta, [(1, self.d), (1,)])
        z = ad.add(ad.linear(X, w), b)
        per = ad.sub(ad.softplus(z), ad.mul(y, z))
        return ad.div(ad.tsum(per), float(z.data.size))


class GaussianMean:
    """One location parameter under unit-variance squared error."""

    n_params = 1
    digest = "gaussian-mean"

    def init_params(self, rng):
        return 0.1 * rng.standard_normal(1)

    def nll(self, tape, theta, batch, train=False, rng=None):
        d = ad.sub(theta, batch)
        return ad.div(ad.tsum(ad.mul(d, d)), 2.0 * float(batch.size))


class RiggedInit:
    """Wrapper whose chosen init calls return overflow-inducing weights."""

    def __init__(self, base, bad_calls):
        self.base = base
        self.bad = set(bad_calls)
        self.calls = 0
        self.n_params = base.n_params
        self.digest = base.digest

    def init_params(self, rng):
        flat = self.base.init_params(rng)
        if self.calls in self.bad:
            flat = flat + 1e308
        self.calls += 1
        return flat

    def nll(self, *args, **kwargs):
        return self.base.nll(*args, **kwargs)


def toy_logistic():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((16, 3))
    y = (X[:, 0] > 0).astype(float)
    return TinyLogistic(X, y)


def full_batch_data(model):
    """``train``'s epoch-batch callable and example count, one batch."""
    batch = (model.X, model.y)
    return lambda rng: [batch], len(model.X)


class ZeroNoise:
    """Stub generator freezing every reparameterization draw at z = 0."""

    def standard_normal(self, size=None):
        return np.zeros(size if size is not None else ())


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    with pytest.raises(ConfigError):
        bayes.TrainSchedule(mode="laplace", epochs=10, optimizer="adam",
                            lr=1e-3)
    with pytest.raises(ConfigError):
        bayes.TrainSchedule(mode="none", epochs=0, optimizer="adam", lr=1e-3)
    with pytest.raises(ConfigError):
        bayes.TrainSchedule(mode="sgld", epochs=10, optimizer="sgd", lr=1e-3,
                            burn_in=10)
    with pytest.raises(ConfigError):
        bayes.TrainSchedule(mode="sgld", epochs=10, optimizer="sgd", lr=1e-3,
                            cadence=0)
    with pytest.raises(ConfigError):
        bayes.TrainSchedule(mode="none", epochs=10, optimizer="lbfgs",
                            lr=1e-3)


def test_default_schedules():
    for mode in ("none", "ensemble", "mcdo", "bbb"):
        s = bayes.default_schedule(mode)
        assert (s.epochs, s.optimizer, s.lr) == (200, "adam", 1e-3)
        assert s.decay_points == (80, 160)
        assert s.weight_decay == 1e-4
    s = bayes.default_schedule("sgld")
    assert (s.epochs, s.burn_in, s.cadence) == (200, 100, 2)
    assert s.lr == 1e-3 and s.decay_points == ()
    s = bayes.default_schedule("swag")
    assert (s.epochs, s.optimizer, s.lr) == (250, "sgd", 0.1)
    assert s.decay_points == (74,)
    assert (s.cyclic_from, s.cadence) == (150, 4)
    assert bayes.draw_count("bbb") == 100
    assert bayes.draw_count("swag") == 30
    for mode in ("hmc", "swa"):      # swa is read from swag, not trained
        with pytest.raises(ConfigError):
            bayes.default_schedule(mode)


def test_default_schedule_rescales():
    s = bayes.default_schedule("none", epochs=20)
    assert s.epochs == 20 and s.decay_points == (8, 16)
    s = bayes.default_schedule("sgld", epochs=20)
    assert s.burn_in == 10
    s = bayes.default_schedule("swag", epochs=25)
    assert s.cyclic_from == 15 and s.decay_points == (7,)


def test_lr_decay_at_81():
    s = bayes.default_schedule("none")
    assert lr(s, 1) == 1e-3
    assert lr(s, 80) == 1e-3
    assert abs(lr(s, 81) - 1e-4) < 1e-18
    assert abs(lr(s, 160) - 1e-4) < 1e-18
    assert abs(lr(s, 161) - 1e-5) < 1e-18


def lr(s, epoch):
    return bayes.lr_at(s, epoch)


def test_lr_cyclic_endpoints():
    s = bayes.default_schedule("swag")
    assert lr(s, 74) == 0.1
    assert abs(lr(s, 75) - 0.01) < 1e-15
    assert abs(lr(s, 150) - 0.01) < 1e-15
    # each 4-epoch cycle walks 0.01 down to 0.001, then resets
    assert lr(s, 151) == 0.01
    assert lr(s, 154) == 0.001
    assert lr(s, 155) == 0.01
    assert lr(s, 250) == 0.001


def test_lr_epoch_out_of_range():
    s = bayes.default_schedule("none")
    with pytest.raises(ConfigError):
        bayes.lr_at(s, 0)
    with pytest.raises(ConfigError):
        bayes.lr_at(s, 201)


def test_snapshot_counts():
    s = bayes.default_schedule("sgld")
    assert sum(bayes.is_snapshot_epoch(s, e) for e in range(1, 201)) == 50
    s = bayes.TrainSchedule(mode="sgld", epochs=20, optimizer="sgd", lr=1e-3,
                            burn_in=10, cadence=1)
    assert sum(bayes.is_snapshot_epoch(s, e) for e in range(1, 21)) == 10
    s = bayes.default_schedule("swag")
    assert sum(bayes.is_snapshot_epoch(s, e) for e in range(1, 251)) == 25
    assert not bayes.is_snapshot_epoch(bayes.default_schedule("none"), 200)


def test_seed_streams():
    a = bayes.stream(SEED, "init").standard_normal(4)
    b = bayes.stream(SEED, "init").standard_normal(4)
    c = bayes.stream(SEED, "shuffle").standard_normal(4)
    d = bayes.stream(SEED + 1, "init").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    seeds = [bayes.member_seed(SEED, i) for i in range(10)]
    assert len(set(seeds)) == 10
    assert seeds == [bayes.member_seed(SEED, i) for i in range(10)]


# ---------------------------------------------------------------------------
# map training


def test_train_map_lr_zero_keeps_init():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="none", epochs=1, optimizer="adam",
                                lr=0.0)
    post, log = bayes.train(model, *full_batch_data(model), sched, SEED)
    init = model.init_params(bayes.stream(SEED, "init"))
    assert post.mode == "point"
    assert np.array_equal(post.point, init)
    assert len(log) == 1 and {"epoch", "lr", "loss"} <= set(log[0])


def test_train_map_separable_molecules():
    # one carbon vs one oxygen: node features alone separate the classes
    graphs = [featurize(parse_smiles(s)) for s in ("C", "O")]
    batch = make_batch(graphs, np.array([[0.0], [1.0]]))
    model = GnnClassifier(ModelConfig(architecture="gcn", hidden_dim=8,
                                      graph_dim=8, n_layers=1, dropout=0.0))
    sched = bayes.TrainSchedule(mode="none", epochs=200, optimizer="adam",
                                lr=0.01, weight_decay=0.0)
    post, log = bayes.train(model, lambda rng: [batch], 2, sched, SEED)
    assert log[-1]["loss"] < 0.01
    probs = model.predict_proba(post.point, batch)
    assert probs[0, 0] < 0.5 < probs[1, 0]


def test_train_map_deterministic_and_logged():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="none", epochs=5, optimizer="adam",
                                lr=1e-2)
    post1, log1 = bayes.train(model, *full_batch_data(model), sched, SEED)
    post2, log2 = bayes.train(model, *full_batch_data(model), sched, SEED)
    assert post1.point.tobytes() == post2.point.tobytes()
    assert log1 == log2
    assert [e["epoch"] for e in log1] == [1, 2, 3, 4, 5]


def test_train_map_valid_eval_hook():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="none", epochs=2, optimizer="sgd",
                                lr=1e-2)
    post, log = bayes.train(model, *full_batch_data(model), sched, SEED,
                            valid_eval=lambda flat: {"valid_auroc": 1.0})
    assert all(e["valid_auroc"] == 1.0 for e in log)


@pytest.mark.parametrize("mode", ["none", "bbb"])
def test_train_frees_each_step_tape(mode):
    # with the cycle collector off, a record outlives its step only if
    # something in training still holds the step's tape
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "c1ccccc1")]
    batch = make_batch(graphs, np.array([[0.0], [1.0]]))
    model = GnnClassifier(ModelConfig(architecture="gcn", hidden_dim=8,
                                      graph_dim=8, n_layers=1, dropout=0.0))
    sched = bayes.TrainSchedule(mode=mode, epochs=2, optimizer="adam",
                                lr=1e-2, train_samples=2)
    gc.collect()
    gc.disable()
    try:
        bayes.train(model, lambda rng: [batch, batch], 4, sched, SEED)
        alive = sum(isinstance(o, ad._Record) for o in gc.get_objects())
    finally:
        gc.enable()
    assert alive == 0


RINGS = ("c1ccccc1", "c1ccncc1", "C1CCNCC1", "C1CCOC1", "c1ccsc1", "C1CC1")
LINKS = ("C", "CC", "CO", "CN", "C(=O)N", "CCO", "C(C)C")


def generated_batch(n: int = 64, seed: int = 5):
    """n drug-sized molecules of 2-4 ring + linker pieces (1516 atoms and
    3304 directed bonds at the defaults)."""
    rnd = random.Random(seed)
    smiles = ["".join(rnd.choice(RINGS) + rnd.choice(LINKS)
                      for _ in range(rnd.randint(2, 4))) for _ in range(n)]
    labels = np.arange(n, dtype=np.float64).reshape(n, 1) % 2
    return make_batch([featurize(parse_smiles(s)) for s in smiles], labels)


def test_gat_step_peak_memory():
    # one mc-dropout gat step at the default dims peaks at 66.9 MiB of
    # numpy and Python allocations; at commit d824104, before records
    # dropped their input tensors and backward its spent gradients, it
    # peaked at 197.6 MiB. The bound is the lean figure plus 10%.
    batch = generated_batch()
    model = GnnClassifier(ModelConfig(architecture="gat"))
    flat = model.init_params(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        bayes._grad_flat(model, flat, batch, train=True, rng=rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2 ** 20 < 66.9 * 1.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_map_divergence_names_epoch():
    model = RiggedInit(toy_logistic(), bad_calls={0})
    sched = bayes.TrainSchedule(mode="none", epochs=2, optimizer="adam",
                                lr=1e-3)
    with pytest.raises(NumericError, match="epoch 1"):
        bayes.train(model, *full_batch_data(model.base), sched, SEED)


# ---------------------------------------------------------------------------
# deep ensembles


def test_ensemble_rejects_single_member():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="ensemble", epochs=1, optimizer="adam",
                                lr=1e-3)
    with pytest.raises(ConfigError):
        bayes.train(model, *full_batch_data(model), sched, SEED,
                    m_members=1)


def test_ensemble_identical_seeds_identical_members(monkeypatch):
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="ensemble", epochs=3, optimizer="adam",
                                lr=1e-2)
    monkeypatch.setattr(bayes, "member_seed", lambda seed, index: 7)
    post, _ = bayes.train(model, *full_batch_data(model), sched,
                          SEED, m_members=2)
    assert post.mode == "samples"
    assert np.array_equal(post.samples[0], post.samples[1])


def test_ensemble_distinct_seeds_distinct_members():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="ensemble", epochs=3, optimizer="adam",
                                lr=1e-2)
    post, logs = bayes.train(model, *full_batch_data(model), sched,
                             SEED, m_members=3)
    assert post.samples.shape == (3, model.n_params)
    assert not np.array_equal(post.samples[0], post.samples[1])
    assert [entry["member"] for entry in logs] == [0, 1, 2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ensemble_excludes_diverging_member(monkeypatch):
    base = toy_logistic()
    model = RiggedInit(base, bad_calls={1})
    sched = bayes.TrainSchedule(mode="ensemble", epochs=2, optimizer="adam",
                                lr=1e-3)
    monkeypatch.setattr(bayes, "member_seed", lambda seed, index: index + 1)
    post, _ = bayes.train(model, *full_batch_data(base), sched, SEED,
                          m_members=3)
    assert post.samples.shape[0] == 2
    assert post.meta["failed"][0]["member"] == 1

    model = RiggedInit(base, bad_calls={0, 2})
    with pytest.raises(NumericError, match="1 ensemble members"):
        bayes.train(model, *full_batch_data(base), sched, SEED,
                    m_members=3)


# ---------------------------------------------------------------------------
# mc-dropout prediction


class DropoutFake:
    """A model whose dropout pass returns ``predict(dropout_rng)``: a test
    sees the mask stream that ``bayes.predictive`` hands each pass."""

    def __init__(self, predict):
        self.predict = predict

    def predict_proba(self, flat, batch, train=False, dropout_rng=None):
        assert train and dropout_rng is not None
        return self.predict(dropout_rng)


def mc_dropout(predict, n_passes, seed, workers=1, n_batches=1):
    """mcdo's predictive as eval runs it, through ``bayes.predictive``:
    ``n_passes`` passes of one point over ``n_batches`` batches, each
    under the masks that ``predictive`` keys for it."""
    point = bayes.PosteriorRepresentation(mode="point", digest="d",
                                          point=np.zeros(2))
    return bayes.predictive(DropoutFake(predict), point, "mcdo",
                            [None] * n_batches, seed, n_samples=n_passes,
                            workers=workers)


def test_mc_dropout_rejects_zero_passes():
    # predictive reads 0 passes as the mode's default, so an empty pass
    # set can only be made by hand: it is refused on the way to marginalize
    with pytest.raises(ConfigError):
        bayes.marginalize(lambda flat, k, i: np.zeros((1, 1)),
                          bayes.PosteriorRepresentation(
                              mode="samples", digest="d",
                              samples=np.zeros((0, 2))), 0)


def test_mc_dropout_constant_predictor():
    const = np.full((3, 1), 0.25)
    out = mc_dropout(lambda rng: const, 7, 0)
    assert np.allclose(out.mean, 0.25)
    assert out.n_samples == 7


def test_mc_dropout_single_pass_matches_stream():
    def predict(rng):
        return np.array([[rng.uniform()]])

    out = mc_dropout(predict, 1, 11)
    assert out.mean[0, 0] == \
        bayes.stream(11, "eval-dropout", 0, 0).uniform()


def test_mc_dropout_enumerated_masks():
    # 2-unit layer, drop rate 1/2: average over all four masks by hand
    v = np.array([0.6, -1.2])
    w = np.array([1.5, 0.8])
    masks = [np.array(m, dtype=float) for m in
             ((0, 0), (0, 1), (1, 0), (1, 1))]

    def prob(mask):
        kept = v * mask / 0.5  # inverted dropout rescale
        return 1.0 / (1.0 + np.exp(-float(w @ kept)))

    hand = np.mean([prob(m) for m in masks])
    queue = list(masks)

    def predict(rng):
        return np.array([[prob(queue.pop(0))]])

    out = mc_dropout(predict, 4, 0)
    assert abs(out.mean[0, 0] - hand) < 1e-15


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_dropout_masks_are_keyed_by_pass_then_batch(workers):
    # 3 passes over 2 batches: pass k of batch i draws its masks from the
    # eval-dropout stream keyed (k, i), whatever the pool
    out = mc_dropout(lambda rng: np.array([[rng.uniform()]]), 3, 11,
                     workers=workers, n_batches=2)
    hand = np.array([[[bayes.stream(11, "eval-dropout", k, i).uniform()]
                      for i in range(2)] for k in range(3)]).mean(axis=0)
    assert out.mean.tobytes() == hand.tobytes()


# ---------------------------------------------------------------------------
# bayes by backprop


def kl(mu, sigma, sigma0=10.0) -> float:
    """The KL term bbb optimizes, evaluated on untracked tensors."""
    return bayes._kl_tensor(ad.Tensor(mu), ad.Tensor(sigma), sigma0).item()


def test_kl_matches_closed_form():
    assert kl(np.zeros(3), 10.0 * np.ones(3)) == 0
    got = kl(np.zeros(1), np.ones(1))
    want = np.log(10.0) + 1.0 / 200.0 - 0.5
    assert abs(got - want) < 1e-12
    assert abs(got - 1.807585) < 5e-7
    double = kl(np.zeros(2), np.ones(2))
    assert abs(double - 2.0 * got) < 1e-12


def test_bbb_frozen_noise_reduces_to_map(monkeypatch):
    # one draw keeps the reduction bit-exact (n identical draws averaged
    # would round in the last ulp)
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="bbb", epochs=4, optimizer="adam",
                                lr=1e-2, weight_decay=0.0, train_samples=1)
    map_post, map_log = bayes.train(model, *full_batch_data(model),
                                    dataclasses.replace(sched, mode="none"),
                                    SEED)
    keyed = bayes.stream
    monkeypatch.setattr(bayes, "stream", lambda seed, purpose, *key: (
        ZeroNoise() if purpose == "bbb-noise" else keyed(seed, purpose, *key)))
    bbb_post, bbb_log = bayes.train(model, *full_batch_data(model), sched,
                                    SEED, kl_scale=0.0)
    assert np.array_equal(bbb_post.mu, map_post.point)
    assert [e["loss"] for e in bbb_log] == [e["loss"] for e in map_log]
    # sigma sees zero gradient when z is frozen at 0
    rho0 = np.log(np.expm1(0.05))
    assert np.allclose(bbb_post.rho, rho0)


def test_bbb_initial_kl_matches_closed_form():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="bbb", epochs=1, optimizer="adam",
                                lr=0.0)
    post, _ = bayes.train(model, *full_batch_data(model), sched, SEED)
    sigma = post.bbb_sigma
    assert np.allclose(sigma, 0.05, atol=1e-12)
    got = kl(post.mu, sigma)
    want = np.sum(np.log(10.0 / sigma)
                  + (sigma ** 2 + post.mu ** 2) / 200.0 - 0.5)
    assert abs(got - want) < 1e-12


def test_bbb_sigma_collapse_clamped_and_reported(monkeypatch):
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="bbb", epochs=1, optimizer="adam",
                                lr=0.0)
    monkeypatch.setattr(bayes, "SIGMA_INIT", 1e-9)
    with pytest.warns(UserWarning, match="clamped"):
        post, _ = bayes.train(model, *full_batch_data(model), sched, SEED)
    assert post.meta["n_sigma_clamped"] == model.n_params
    assert np.all(post.bbb_sigma >= bayes.SIGMA_FLOOR)


def test_bbb_conjugate_gaussian_posterior():
    rng = np.random.default_rng(3)
    y = rng.normal(1.5, 1.0, size=16)
    tau = 1.0 + y.size  # posterior precision, unit prior and noise
    mu_true = y.sum() / tau
    sigma_true = tau ** -0.5
    sched = bayes.TrainSchedule(mode="bbb", epochs=3000, optimizer="adam",
                                lr=0.02, decay_points=(2000,))
    post, _ = bayes.train(GaussianMean(), lambda r: [y], y.size, sched, SEED,
                          kl_scale=1.0, prior_sigma=1.0)
    assert abs(post.mu[0] - mu_true) < 0.1 * abs(mu_true)
    assert abs(post.bbb_sigma[0] - sigma_true) < 0.1 * sigma_true


# ---------------------------------------------------------------------------
# langevin dynamics


def test_psgld_zero_gradient_no_noise_is_identity():
    w = np.array([1.0, -2.0])
    for precondition in (True, False):
        v = np.zeros(2)
        out = bayes.psgld_step(v, w, np.zeros(2), 1e-2,
                               np.random.default_rng(0),
                               precondition=precondition, noise=False)
        assert np.array_equal(out, w)


def test_psgld_noise_variance_matches_rate():
    n = 200_000
    v = np.zeros(n)
    out = bayes.psgld_step(v, np.zeros(n), np.zeros(n), 0.04,
                           np.random.default_rng(1), precondition=False)
    assert abs(out.var() - 0.04) < 0.002
    assert abs(out.mean()) < 3 * np.sqrt(0.04 / n)


def test_psgld_without_noise_is_sgd_on_neg_log_post():
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        w = rng.standard_normal(6)
        g = rng.standard_normal(6)
        lr = float(rng.uniform(1e-4, 1e-1))
        v = np.zeros(6)
        stepped = bayes.psgld_step(v, w, g, lr,
                                   np.random.default_rng(0),
                                   precondition=False, noise=False)
        opt = ad.OptimizerState(mode="sgd", lr=lr / 2.0)
        sgd = ad.optimizer_step(opt, w, -g)
        assert np.allclose(stepped, sgd, atol=1e-15)


def test_psgld_shape_mismatch_rejected():
    v = np.zeros(2)
    with pytest.raises(ad.ShapeError):
        bayes.psgld_step(v, np.zeros(3), np.zeros(2), 1e-3,
                         np.random.default_rng(0))


def test_psgld_stationary_standard_normal():
    # 64 parallel 1-D chains targeting N(0, 1), pooled after burn-in
    chains = 64
    rng = np.random.default_rng(12)
    w = np.zeros(chains)
    v = np.zeros(chains)
    kept = []
    for step in range(100_000):
        w = bayes.psgld_step(v, w, -w, 1e-3, rng, precondition=False)
        if step >= 20_000:
            kept.append(w.copy())
    pooled = np.concatenate(kept)
    assert abs(pooled.mean()) < 0.05
    assert 0.9 <= pooled.var() <= 1.1


def test_train_sgld_sample_count_and_determinism():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="sgld", epochs=8, optimizer="sgd",
                                lr=1e-4, burn_in=4, cadence=2)
    post1, log1 = bayes.train(model, *full_batch_data(model), sched,
                              SEED)
    post2, _ = bayes.train(model, *full_batch_data(model), sched, SEED)
    assert post1.mode == "samples"
    assert post1.samples.shape == (2, model.n_params)
    assert post1.samples.tobytes() == post2.samples.tobytes()
    assert log1[-1]["n_samples"] == 2


def test_train_sgld_zero_lr_marginalizes_to_point():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="sgld", epochs=4, optimizer="sgd",
                                lr=0.0, burn_in=2, cadence=1)
    post, _ = bayes.train(model, *full_batch_data(model), sched, SEED)
    init = model.init_params(bayes.stream(SEED, "init"))
    assert np.array_equal(post.samples[0], init)
    assert np.array_equal(post.samples[1], init)

    def predict(flat, draw=0, i=0):
        return np.array([[1.0 / (1.0 + np.exp(-flat[0]))]])

    marg = bayes.marginalize(predict, post, SEED)
    assert np.array_equal(marg.mean, predict(init))


def test_train_sgld_needs_sampling_phase():
    model = toy_logistic()
    sched = bayes.TrainSchedule(mode="sgld", epochs=3, optimizer="sgd",
                                lr=1e-4, burn_in=2, cadence=5)
    with pytest.raises(ConfigError):
        bayes.train(model, *full_batch_data(model), sched, SEED)


# ---------------------------------------------------------------------------
# weight averaging


def test_swa_update_examples():
    first = bayes.swa_update(np.zeros(1), np.array([2.0]), 0)
    assert np.array_equal(first, [2.0])
    second = bayes.swa_update(first, np.array([4.0]), 1)
    assert np.array_equal(second, [3.0])
    mean = bayes.swa_update(np.array([1.0]), np.array([3.0]), 1)
    assert np.array_equal(mean, [2.0])


def test_swa_update_matches_arithmetic_mean():
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((25, 6))
    mean = np.zeros(6)
    for k, vec in enumerate(vectors):
        mean = bayes.swa_update(mean, vec, k)
    assert np.allclose(mean, vectors.mean(axis=0), atol=1e-12)


def test_swa_update_rejects_bad_inputs():
    with pytest.raises(ad.ShapeError):
        bayes.swa_update(np.zeros(2), np.zeros(3), 0)
    with pytest.raises(ConfigError):
        bayes.swa_update(np.zeros(2), np.zeros(2), -1)


def swag_schedule(epochs, cyclic_from, cadence=2, lr=1e-3):
    return bayes.TrainSchedule(mode="swag", epochs=epochs, optimizer="sgd",
                               lr=lr, cyclic_from=cyclic_from,
                               cadence=cadence, cyclic_high=lr,
                               cyclic_low=lr / 10.0)


def test_train_swag_moments_match_hand_average():
    model = toy_logistic()
    sched = swag_schedule(8, 4)
    post, log = bayes.train(model, *full_batch_data(model), sched, SEED)
    assert post.mode == "swag"
    assert post.swag_dev.shape == (model.n_params, 2)
    assert post.meta["n_snapshots"] == 2
    assert [e["n_snapshots"] for e in log] == [0] * 5 + [1, 1, 2]
    # rerun the same trajectory and average the two snapshot epochs by hand
    snaps = []
    flat = model.init_params(bayes.stream(SEED, "init"))
    shuffle = bayes.stream(SEED, "shuffle")
    opt = ad.OptimizerState(mode="sgd", lr=0.0, weight_decay=1e-4)
    epoch_batches, _ = full_batch_data(model)
    for epoch in range(1, 9):
        opt.lr = bayes.lr_at(sched, epoch)
        for batch in epoch_batches(shuffle):
            tape = ad.Tape()
            theta = tape.parameter("theta", flat)
            loss = model.nll(tape, theta, batch)
            flat = ad.optimizer_step(opt, flat, ad.backward(tape, loss)
                                     ["theta"])
        if bayes.is_snapshot_epoch(sched, epoch):
            snaps.append(flat.copy())
    assert np.allclose(post.swag_mean, np.mean(snaps, axis=0), atol=1e-12)
    assert np.allclose(post.swag_sq_mean,
                       np.mean([s * s for s in snaps], axis=0), atol=1e-12)


def test_train_swag_rejects_single_snapshot():
    model = toy_logistic()
    sched = swag_schedule(6, 4)  # only epoch 6 qualifies
    with pytest.raises(ConfigError, match="took 1"):
        bayes.train(model, *full_batch_data(model), sched, SEED)


def test_train_swa_swag_needs_snapshots():
    model = toy_logistic()
    sched = swag_schedule(4, 4)
    with pytest.raises(ConfigError, match="took 0"):
        bayes.train(model, *full_batch_data(model), sched, SEED)
    # swa is a view of the swag posterior; no schedule trains it
    for mode in ("swa", "other"):
        with pytest.raises(ConfigError):
            dataclasses.replace(sched, mode=mode)


class NeverTrained(TinyLogistic):
    """A model whose loss must never be evaluated."""

    def nll(self, *args, **kwargs):
        raise AssertionError("a schedule without enough snapshots trained")


@pytest.mark.parametrize("sched, match", [
    (bayes.default_schedule("swag", epochs=8), "took 0"),
    (swag_schedule(6, 4), "took 1"),
    (bayes.default_schedule("sgld", epochs=1), "zero posterior samples"),
    (bayes.TrainSchedule(mode="sgld", epochs=3, optimizer="sgd", lr=1e-3,
                         burn_in=2, cadence=2), "zero posterior samples"),
], ids=["swag-default-8", "swag-one", "sgld-default-1", "sgld-cadence"])
def test_short_schedule_fails_before_the_first_epoch(sched, match):
    base = toy_logistic()
    model = NeverTrained(base.X, base.y)
    with pytest.raises(ConfigError, match=match):
        bayes.train(model, *full_batch_data(base), sched, SEED)


def hand_swag(snapshots, rank=20):
    mean = np.zeros_like(snapshots[0])
    sq = np.zeros_like(snapshots[0])
    cols = []
    for k, w in enumerate(snapshots):
        mean = bayes.swa_update(mean, w, k)
        sq = bayes.swa_update(sq, w * w, k)
        cols.append(w - mean)
    dev = np.stack(cols[-rank:], axis=1)
    return bayes.PosteriorRepresentation(
        mode="swag", digest="hand", swag_mean=mean, swag_sq_mean=sq,
        swag_dev=dev, swag_rank=rank)


def test_swag_one_dim_snapshot_moments():
    post = hand_swag([np.array([1.0]), np.array([3.0])])
    assert post.swag_mean[0] == 2.0
    diag = post.swag_sq_mean - post.swag_mean ** 2
    assert diag[0] == 1.0


def test_swag_identical_snapshots_sample_equals_mean():
    w = np.array([3.0, -1.0])
    post = hand_swag([w.copy() for _ in range(5)])
    rng = np.random.default_rng(4)
    for _ in range(10):
        assert np.allclose(bayes.swag_sample(post, rng), w, atol=1e-12)


def test_swag_diagonal_only_variance():
    n = 100_000
    post = bayes.PosteriorRepresentation(
        mode="swag", digest="d", swag_mean=np.zeros(n),
        swag_sq_mean=np.ones(n), swag_dev=np.zeros((n, 1)), swag_rank=20)
    with pytest.warns(UserWarning, match="diagonal only"):
        draw = bayes.swag_sample(post, np.random.default_rng(9))
    assert abs(draw.var() - 0.5) < 0.05 * 0.5


def test_swag_covariance_frobenius():
    post = hand_swag([np.array([1.0, 0.0]), np.array([3.0, 2.0])])
    target = 0.5 * np.diag(np.maximum(
        post.swag_sq_mean - post.swag_mean ** 2, 0.0))
    target += post.swag_dev @ post.swag_dev.T / 2.0
    rng = np.random.default_rng(21)
    draws = np.stack([bayes.swag_sample(post, rng) for _ in range(100_000)])
    got = np.cov(draws.T)
    rel = np.linalg.norm(got - target) / np.linalg.norm(target)
    assert rel < 0.05
    assert np.allclose(draws.mean(axis=0), post.swag_mean, atol=0.02)


def test_swag_sample_requires_swag_posterior():
    post = bayes.PosteriorRepresentation(mode="point", digest="d",
                                         point=np.zeros(2))
    with pytest.raises(ConfigError):
        bayes.swag_sample(post, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# posterior containers


def test_posterior_validation():
    with pytest.raises(ConfigError):
        bayes.PosteriorRepresentation(mode="point", digest="d")
    with pytest.raises(ConfigError):
        bayes.PosteriorRepresentation(mode="samples", digest="d",
                                      samples=np.zeros((0, 3)))
    with pytest.raises(ConfigError):
        bayes.PosteriorRepresentation(mode="bbb", digest="d",
                                      mu=np.zeros(3))
    with pytest.raises(ConfigError):
        bayes.PosteriorRepresentation(mode="swag", digest="d",
                                      swag_mean=np.zeros(3))
    with pytest.raises(ConfigError):
        bayes.PosteriorRepresentation(
            mode="swag", digest="d", swag_mean=np.zeros(2),
            swag_sq_mean=np.zeros(2), swag_dev=np.zeros((2, 3)),
            swag_rank=2)
    with pytest.raises(ConfigError):
        bayes.PosteriorRepresentation(mode="laplace", digest="d")


def test_posterior_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    posts = {
        "point": bayes.PosteriorRepresentation(
            mode="point", digest="abc", point=rng.standard_normal(7),
            meta={"trained": "none", "seed": 3}),
        "samples": bayes.PosteriorRepresentation(
            mode="samples", digest="abc",
            samples=rng.standard_normal((4, 7))),
        "bbb": bayes.PosteriorRepresentation(
            mode="bbb", digest="abc", mu=rng.standard_normal(7),
            rho=rng.standard_normal(7)),
        "swag": hand_swag([rng.standard_normal(7) for _ in range(3)]),
    }
    for name, post in posts.items():
        path = str(tmp_path / f"{name}.post")
        bayes.save_posterior(path, post)
        back = bayes.load_posterior(path)
        assert back.mode == post.mode
        assert back.digest == post.digest
        for attr in ("point", "samples", "mu", "rho", "swag_mean",
                     "swag_sq_mean", "swag_dev"):
            a, b = getattr(post, attr), getattr(back, attr)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()
    loaded = bayes.load_posterior(str(tmp_path / "point.post"))
    assert loaded.meta["trained"] == "none"

    def predict(flat, draw, i):
        return np.atleast_2d(1.0 / (1.0 + np.exp(-flat[:2])))

    for name in ("point", "samples"):
        orig = bayes.marginalize(predict, posts[name], SEED)
        back = bayes.marginalize(
            predict, bayes.load_posterior(str(tmp_path / f"{name}.post")),
            SEED)
        assert orig.mean.tobytes() == back.mean.tobytes()


# ---------------------------------------------------------------------------
# marginalization


def test_marginalize_two_draws():
    post = bayes.PosteriorRepresentation(
        mode="samples", digest="d",
        samples=np.array([[0.2], [0.8]]))
    out = bayes.marginalize(lambda w, k, i: np.array([[w[0]]]), post, SEED)
    assert out.mean[0, 0] == 0.5
    assert out.uncertainty[0, 0] == 0.5
    assert out.n_samples == 2


def test_marginalize_point_ignores_n_samples():
    post = bayes.PosteriorRepresentation(mode="point", digest="d",
                                         point=np.array([0.3]))
    out = bayes.marginalize(lambda w, k, i: np.array([[w[0]]]), post, SEED,
                            n_samples=50)
    assert out.mean[0, 0] == 0.3
    assert out.n_samples == 1


def test_uncertainty_endpoints_and_peak():
    ys = np.array([[0.0], [1.0], [0.5], [0.25]])
    post = bayes.PosteriorRepresentation(mode="samples", digest="d",
                                         samples=np.array([[0.0]]))
    out = bayes.marginalize(lambda w, k, i: ys, post, SEED)
    u = out.uncertainty
    assert u[0, 0] == 0.0 and u[1, 0] == 0.0
    assert u[2, 0] == 0.5
    assert np.all(u <= 0.5) and np.all(u >= 0.0)
    assert u[2, 0] == u.max()


def test_marginalize_bbb_and_swag_need_a_draw():
    posts = (bayes.PosteriorRepresentation(mode="bbb", digest="d",
                                           mu=np.zeros(1), rho=np.zeros(1)),
             hand_swag([np.zeros(1), np.ones(1)]))
    for post in posts:
        with pytest.raises(ConfigError):
            bayes.marginalize(lambda w, k, i: np.array([[0.5]]), post, SEED,
                              n_samples=0)


def test_marginalize_bbb_tight_posterior_recovers_mu():
    mu = np.array([0.4, 0.9])
    rho = np.full(2, -50.0)  # softplus -> 0, clamped at the floor
    post = bayes.PosteriorRepresentation(mode="bbb", digest="d", mu=mu,
                                         rho=rho)

    def predict(flat, draw, i):
        return np.atleast_2d(flat.copy())

    out = bayes.marginalize(predict, post, SEED, n_samples=10)
    assert np.allclose(out.mean, np.atleast_2d(mu), atol=1e-6)


def test_marginalize_swag_draws():
    post = hand_swag([np.array([0.2, 0.4]), np.array([0.4, 0.2])])
    out = bayes.marginalize(lambda w, k, i: np.atleast_2d(np.clip(w, 0, 1)),
                            post, SEED, n_samples=5)
    assert out.n_samples == 5
    assert out.mean.shape == (1, 2)


def gnn_posteriors():
    """A small gat on generated molecules, its init as a point, and one
    posterior of each stored layout around it; mcdo predicts from the
    point."""
    model = GnnClassifier(ModelConfig(architecture="gat", hidden_dim=16,
                                      graph_dim=16, n_layers=2))
    batch = generated_batch(16)
    point = model.init_params(bayes.stream(SEED, "init"))
    rng = np.random.default_rng(3)
    near = point + 0.1 * rng.standard_normal((5, point.size))
    posts = {
        "point": bayes.PosteriorRepresentation(mode="point", digest="d",
                                               point=point),
        "ensemble": bayes.PosteriorRepresentation(mode="samples", digest="d",
                                                  samples=near[:3]),
        "sgld": bayes.PosteriorRepresentation(mode="samples", digest="d",
                                              samples=near),
        "bbb": bayes.PosteriorRepresentation(
            mode="bbb", digest="d", mu=point,
            rho=np.full(point.size, bayes._softplus_inv(0.05))),
        "swag": hand_swag(list(near)),
    }
    posts["mcdo"] = posts["point"]
    return model, batch, posts


@pytest.mark.parametrize("name", ["point", "ensemble", "sgld", "bbb", "swag",
                                  "mcdo"])
def test_pooled_marginalize_matches_serial(name):
    model, batch, posts = gnn_posteriors()

    def predict_at(workers):
        if name == "mcdo":   # eval's path, masks keyed as it keys them
            return bayes.predictive(model, posts[name], "mcdo", [batch],
                                    SEED, n_samples=7, workers=workers)
        return bayes.marginalize(
            lambda flat, draw, i: model.predict_proba(flat, batch),
            posts[name], SEED, n_samples=6, workers=workers)

    serial, pooled = (predict_at(workers) for workers in (1, 2))
    assert pooled.mean.tobytes() == serial.mean.tobytes()
    assert pooled.n_samples == serial.n_samples


def test_units_cut_batches_only_for_fewer_draws_than_workers():
    assert bayes._units(3, 5, 2) == [(k, range(5)) for k in range(3)]
    assert bayes._units(2, 5, 2) == [(0, range(5)), (1, range(5))]
    assert bayes._units(1, 5, 2) == [(0, range(0, 2)), (0, range(2, 5))]
    assert bayes._units(2, 5, 4) == [(0, range(0, 2)), (0, range(2, 5)),
                                     (1, range(0, 2)), (1, range(2, 5))]
    # never more runs than batches
    assert bayes._units(1, 2, 8) == [(0, range(0, 1)), (0, range(1, 2))]


@pytest.mark.parametrize("name", ["point", "ensemble", "sgld", "bbb", "swag",
                                  "mcdo"])
def test_parted_marginalize_matches_serial(name, monkeypatch):
    # with fewer draws than workers each draw's batches run in parts; rows
    # stack in batch order, so the mean keeps the serial bits
    model, _, posts = gnn_posteriors()
    batches = [generated_batch(6, seed=s) for s in range(5)]
    calls = []
    keyed = bayes.stream

    def mask_stream(seed, purpose, *key):
        # an mcdo call is the (pass, batch) its masks are keyed by
        if purpose == "eval-dropout":
            calls.append(key)
        return keyed(seed, purpose, *key)

    def predict(flat, draw, i):
        calls.append((draw, i))
        return model.predict_proba(flat, batches[i])

    monkeypatch.setattr(bayes, "stream", mask_stream)
    means = []
    for workers in (1, 2, 4, 16):
        calls.clear()
        if name == "mcdo":   # eval's path, masks keyed as it keys them
            pred = bayes.predictive(model, posts[name], "mcdo", batches,
                                    SEED, n_samples=2, workers=workers)
        else:
            pred = bayes.marginalize(predict, posts[name], SEED, n_samples=2,
                                     workers=workers, n_batches=5)
        means.append(pred.mean.tobytes())
        assert sorted(calls) == [(k, i) for k in range(pred.n_samples)
                                 for i in range(5)]
    assert len(set(means)) == 1


@pytest.mark.parametrize("mode", ["bbb", "swag"])
def test_draws_are_keyed_with_bounded_vectors_in_flight(mode, monkeypatch):
    # more threads than cores and a short switch interval: draw k must
    # predict at the weights of the eval-draw stream keyed k, whatever the
    # pool, and no more than ``workers`` vectors may be made and not yet
    # predicted
    n_draws = 40
    post = {"bbb": bayes.PosteriorRepresentation(
                mode="bbb", digest="d", mu=np.zeros(3), rho=np.zeros(3)),
            "swag": hand_swag([np.arange(3.0), np.ones(3), -np.ones(3)])}[mode]
    expected = []
    for k in range(n_draws):
        rng = bayes.stream(SEED, "eval-draw", k)
        expected.append(post.mu + post.bbb_sigma * rng.standard_normal(3)
                        if mode == "bbb" else bayes.swag_sample(post, rng))
    lock = threading.Lock()
    count = {"made": 0, "predicted": 0}
    in_flight, seen = [], {}
    keyed = bayes.stream

    def counting_stream(seed, purpose, *key):
        # a draw makes its stream just before its weights
        with lock:
            count["made"] += 1
            in_flight.append(count["made"] - count["predicted"])
        return keyed(seed, purpose, *key)

    def predict(flat, draw, i):
        time.sleep(0.001 * (draw % 3))
        with lock:
            count["predicted"] += 1
            seen[draw] = flat.copy()
        return np.atleast_2d(1.0 / (1.0 + np.exp(-flat)))

    monkeypatch.setattr(bayes, "stream", counting_stream)
    means = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 4):
            count.update(made=0, predicted=0)
            in_flight.clear()
            seen.clear()
            means.append(bayes.marginalize(predict, post, SEED,
                                           n_samples=n_draws,
                                           workers=workers).mean.tobytes())
            assert sorted(seen) == list(range(n_draws))
            assert all(seen[k].tobytes() == w.tobytes()
                       for k, w in enumerate(expected))
            assert len(in_flight) == n_draws and max(in_flight) <= workers
    finally:
        sys.setswitchinterval(interval)
    assert means[0] == means[1] == means[2]


def test_pool_raises_a_failed_pass():
    post = bayes.PosteriorRepresentation(mode="samples", digest="d",
                                         samples=np.zeros((6, 1)))

    def predict(flat, draw, i):
        if draw == 3:
            raise NumericError("pass 3 failed")
        return np.full((1, 1), 0.5)

    with pytest.raises(NumericError, match="pass 3"):
        bayes.marginalize(predict, post, SEED, workers=2)


def test_pool_without_openblas_predicts_in_the_calling_thread(monkeypatch):
    # where no OpenBLAS control is found the pool cannot hold BLAS to one
    # thread, so every draw runs here, with the serial bits
    post = hand_swag([np.arange(3.0), np.ones(3), -np.ones(3)])
    threads = []

    def predict(flat, draw, i):
        threads.append(threading.get_ident())
        return np.atleast_2d(1.0 / (1.0 + np.exp(-(flat + i))))

    serial = bayes.marginalize(predict, post, SEED, n_samples=5, workers=1,
                               n_batches=3)
    monkeypatch.setattr(bayes, "openblas_threads", lambda: None)
    threads.clear()
    pooled = bayes.marginalize(predict, post, SEED, n_samples=5, workers=2,
                               n_batches=3)
    assert threads == [threading.get_ident()] * 15
    assert pooled.mean.tobytes() == serial.mean.tobytes()


def test_openblas_is_found_under_a_path_with_spaces(tmp_path, monkeypatch):
    if bayes.openblas_threads() is None:
        pytest.skip("no OpenBLAS thread control found in this process")
    maps = artifacts.read_file("/proc/self/maps")
    line = next(line for line in maps.splitlines()
                if b"openblas" in line.rsplit(b"/", 1)[-1].lower())
    *fields, path = line.split(None, 5)
    link = tmp_path / "dir with space" / os.path.basename(os.fsdecode(path))
    link.parent.mkdir()
    link.symlink_to(os.fsdecode(path))
    fake = b" ".join([*fields, os.fsencode(link)]) + b"\n"
    monkeypatch.setattr(artifacts, "read_file", lambda name: fake)
    blas = bayes.openblas_threads.__wrapped__()
    assert blas is not None and blas[0]() >= 1


def test_predictive_validation():
    with pytest.raises(NumericError):
        bayes.PredictiveDistribution(np.array([[np.nan]]), 1)
    with pytest.raises(NumericError):
        bayes.PredictiveDistribution(np.array([[1.5]]), 1)
    with pytest.raises(NumericError):
        bayes.PredictiveDistribution(np.array([[-0.1]]), 1)
