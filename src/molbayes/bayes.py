"""Six ways to learn weights and one way to predict with them.

Modes: "none" (a MAP point), "ensemble" (MAP from several seeds),
"mcdo" (a point queried under fresh dropout masks), "bbb" (a diagonal
Gaussian over weights trained by reparameterized draws), "sgld"
(posterior samples from preconditioned Langevin dynamics) and "swag"
(Gaussian moments around an average of SGD iterates). "swa" is a view,
not trained: it predicts at that average, the swag mean (`VIEWS`).
`train` is the one entry point for all of them: a single epoch loop
whose per-batch step and end-of-epoch snapshot depend on the schedule's
mode. Every mode ends in a PosteriorRepresentation of the kind that
`POSTERIOR_KINDS` names for it (point, samples, bbb or swag); bbb starts
every weight's scale at `SIGMA_INIT`. `predictive` is the one
prediction path: it turns one, read under a trained mode or a view,
into mean probabilities p plus the uncertainty u = sqrt(p(1-p)).
That is the Bernoulli standard deviation at the mean, the same for
every posterior with that mean, not a spread across draws (ROADMAP
item 13 replaces it). An mcdo point is marginalized as a sample set of
identical rows whose predictor keys fresh dropout masks by the draw's
and the batch's index, and `draw_count` gives every mode's number of
draws. Each draw is a pure function of the run seed and its index (bbb
and swag weights come from the `eval-draw` stream keyed by it), so
`marginalize` can run draws, or runs of one draw's batches, on a pool
of threads, one per core by default (`cores`), holding OpenBLAS to one
thread while the pool runs (`openblas_threads`); results are stacked in
draw and batch order.

Models are anything exposing `n_params`, `digest`, `init_params(rng)`
and `nll(tape, theta, batch, train=, rng=)`; `train` takes one epoch's
batches from a callable of a seeded generator.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from . import artifacts
from . import autodiff as ad
from .errors import ConfigError, DataError, NumericError

# each trained mode and the kind of posterior it writes (a _LAYOUT key)
POSTERIOR_KINDS = {"none": "point", "ensemble": "samples", "mcdo": "point",
                   "bbb": "bbb", "sgld": "samples", "swag": "swag"}
TRAINED_MODES = tuple(POSTERIOR_KINDS)
# modes read from a trained mode's posterior: name -> (that mode, the
# array predicted at as a point); SWA's average is SWAG's mean
VIEWS = {"swa": ("swag", "swag_mean")}
MODES = TRAINED_MODES + tuple(VIEWS)

SIGMA_FLOOR = 1e-8
SIGMA_INIT = 0.05         # bbb's starting posterior scale
DIAG_FLOOR = 1e-30

# one generator per purpose, all derived from the run seed
STREAM_IDS = {
    "init": 0,
    "shuffle": 1,
    "dropout": 2,
    "sgld-noise": 3,
    "swag-draw": 4,
    "bbb-noise": 5,
    "split": 6,
    "eval-draw": 7,        # keyed by draw
    "eval-dropout": 8,     # keyed by (pass, batch)
}


def stream(seed: int, purpose: str, *key: int) -> np.random.Generator:
    """Named RNG stream, optionally keyed further by integers; streams
    never overlap across purposes or seeds, nor across keys of one length.
    Trailing zero keys add nothing, so each purpose keeps one key length."""
    return np.random.default_rng(np.random.SeedSequence(
        (int(seed), STREAM_IDS[purpose], *map(int, key))))


def member_seed(seed: int, index: int) -> int:
    """Derived integer seed for ensemble member ``index``."""
    ss = np.random.SeedSequence((int(seed), 1000, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class FlatModel(Protocol):
    n_params: int
    digest: str

    def init_params(self, rng: np.random.Generator) -> np.ndarray: ...

    def nll(self, tape: ad.Tape, theta: ad.Tensor, batch,
            train: bool = False,
            rng: Optional[np.random.Generator] = None) -> ad.Tensor: ...


# ---------------------------------------------------------------------------
# schedules


@dataclass
class TrainSchedule:
    mode: str
    epochs: int
    optimizer: str            # "adam" or "sgd"
    lr: float
    decay_points: tuple[int, ...] = ()
    weight_decay: float = 1e-4
    burn_in: int = 0          # sgld: epochs before sampling starts
    cadence: int = 1          # sample every this many epochs
    cyclic_from: int = 0      # swag: cyclic lr after this epoch (0 = off)
    cyclic_high: float = 0.01
    cyclic_low: float = 0.001
    cycle_len: int = 4
    train_samples: int = 5    # bbb reparameterized draws per step
    swag_rank: int = 20

    def __post_init__(self):
        if self.mode not in TRAINED_MODES:
            raise ConfigError(f"cannot train mode {self.mode!r}; one of "
                              f"{TRAINED_MODES}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.burn_in < self.epochs:
            raise ConfigError("burn-in must be < total epochs")
        if self.cadence < 1:
            raise ConfigError("sampling cadence must be >= 1")
        if self.train_samples < 1:
            raise ConfigError("train_samples must be >= 1")
        if min(self.decay_points, default=1) < 1:
            raise ConfigError("decay points must be epochs >= 1")
        if self.cyclic_from < 0:
            raise ConfigError("cyclic_from must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if min(self.lr, self.weight_decay, self.cyclic_high,
               self.cyclic_low) < 0:
            raise ConfigError("lr, weight_decay, cyclic_high and cyclic_low "
                              "must be non-negative")
        if self.cyclic_from > 0 and self.cycle_len < 2:
            raise ConfigError("a cyclic schedule needs cycle_len >= 2")
        if self.swag_rank < 1:
            raise ConfigError("swag_rank must be >= 1")


def default_schedule(mode: str, epochs: Optional[int] = None) -> TrainSchedule:
    """Per-mode training recipes; ``epochs`` rescales proportionally.

    Adam modes run 200 epochs at 1e-3 with tenfold decays after epochs 80
    and 160. SWAG runs SGD 250 epochs: 0.1, then 0.01 after epoch 74,
    then a 4-epoch sawtooth between 0.01 and 0.001 after epoch 150, with a
    snapshot at each cycle end. SGLD runs 200 epochs at a constant 1e-3,
    sampling every 2nd epoch after 100 burn-in epochs.
    """
    if mode in ("none", "ensemble", "mcdo", "bbb"):
        base = TrainSchedule(mode=mode, epochs=200, optimizer="adam",
                             lr=1e-3, decay_points=(80, 160))
    elif mode == "sgld":
        base = TrainSchedule(mode=mode, epochs=200, optimizer="sgd", lr=1e-3,
                             burn_in=100, cadence=2)
    elif mode == "swag":
        base = TrainSchedule(mode=mode, epochs=250, optimizer="sgd", lr=0.1,
                             decay_points=(74,), cyclic_from=150, cadence=4)
    else:
        raise ConfigError(f"cannot train mode {mode!r}; one of "
                          f"{TRAINED_MODES}")
    if epochs is None or epochs == base.epochs:
        return base
    scale = epochs / base.epochs
    base.epochs = epochs
    base.decay_points = tuple(max(1, int(round(p * scale)))
                              for p in base.decay_points)
    base.burn_in = int(round(base.burn_in * scale))
    base.cyclic_from = int(round(base.cyclic_from * scale))
    if base.burn_in >= epochs:
        base.burn_in = max(0, epochs - 1)
    return base


def lr_at(s: TrainSchedule, epoch: int) -> float:
    """Learning rate for a 1-indexed epoch."""
    if epoch < 1 or epoch > s.epochs:
        raise ConfigError(f"epoch {epoch} outside schedule 1..{s.epochs}")
    if s.cyclic_from and epoch > s.cyclic_from:
        f = ((epoch - s.cyclic_from - 1) % s.cycle_len) / (s.cycle_len - 1)
        return (1.0 - f) * s.cyclic_high + f * s.cyclic_low
    lr = s.lr
    for p in s.decay_points:
        if epoch > p:
            lr *= 0.1
    return lr


def is_snapshot_epoch(s: TrainSchedule, epoch: int) -> bool:
    """Whether this 1-indexed epoch contributes a posterior sample."""
    if s.mode == "sgld":
        return epoch > s.burn_in and (epoch - s.burn_in) % s.cadence == 0
    if s.mode == "swag":
        start = s.cyclic_from
        return epoch > start and (epoch - start) % s.cadence == 0
    return False


# ---------------------------------------------------------------------------
# posterior representations


@dataclass
class PosteriorRepresentation:
    mode: str                 # "point" | "samples" | "bbb" | "swag"
    digest: str
    point: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None      # (S, n)
    mu: Optional[np.ndarray] = None
    rho: Optional[np.ndarray] = None
    swag_mean: Optional[np.ndarray] = None
    swag_sq_mean: Optional[np.ndarray] = None
    swag_dev: Optional[np.ndarray] = None     # (n, K)
    swag_rank: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        """The layout rule: the mode's arrays are present, each of its
        stated ndim and all spanning one weight count; a sample posterior
        holds at least one sample, and a SWAG one no more deviation
        columns than its rank."""
        if self.mode not in _LAYOUT:
            raise ConfigError(f"unknown posterior mode {self.mode!r}")
        sizes = set()
        for name, (ndim, axis) in _LAYOUT[self.mode].items():
            value = getattr(self, name)
            if value is None or np.ndim(value) != ndim:
                raise ConfigError(f"a {self.mode} posterior needs a "
                                  f"{ndim}-D array {name!r}")
            sizes.add(np.shape(value)[axis])
        if len(sizes) != 1:
            raise ConfigError(f"{self.mode} arrays disagree on the number "
                              f"of weights {sorted(sizes)}")
        if self.mode == "samples" and len(self.samples) == 0:
            raise ConfigError("sample posterior needs >= 1 sample")
        if self.mode == "swag" and self.swag_dev.shape[1] > self.swag_rank:
            raise ConfigError(f"{self.swag_dev.shape[1]} deviation columns "
                              f"exceed the stated swag_rank "
                              f"{self.swag_rank}")

    @property
    def n_params(self) -> int:
        """Weights per draw, read off the mode's first array."""
        name, (_, axis) = next(iter(_LAYOUT[self.mode].items()))
        return getattr(self, name).shape[axis]

    @property
    def bbb_sigma(self) -> np.ndarray:
        return np.maximum(ad.softplus(self.rho).data, SIGMA_FLOOR)


def _softplus_inv(y: float) -> float:
    return float(np.log(np.expm1(y)))


_ARRAY_FIELDS = ("point", "samples", "mu", "rho", "swag_mean",
                 "swag_sq_mean", "swag_dev")

# the arrays each mode needs: name -> (ndim, axis spanning the weights)
_LAYOUT = {"point": {"point": (1, 0)},
           "samples": {"samples": (2, 1)},
           "bbb": {"mu": (1, 0), "rho": (1, 0)},
           "swag": {"swag_mean": (1, 0), "swag_sq_mean": (1, 0),
                    "swag_dev": (2, 0)}}


def save_posterior(path: str, post: PosteriorRepresentation) -> None:
    arrays = {}
    for name in _ARRAY_FIELDS:
        value = getattr(post, name)
        if value is not None:
            arrays[name] = np.asarray(value, dtype=np.float64)
    meta = {"mode": post.mode, "digest": post.digest,
            "swag_rank": post.swag_rank, "extra": post.meta}
    artifacts.write_container(path, "posterior", meta, arrays)


def load_posterior(path: str) -> PosteriorRepresentation:
    """Read a posterior artifact; a malformed header (a stated
    ``extra.n_tasks`` included), unknown arrays, or arrays that break the
    layout rule of PosteriorRepresentation raise DataError."""
    _, meta, arrays = artifacts.read_container(path, expect_kind="posterior")
    unknown = sorted(set(arrays) - set(_ARRAY_FIELDS))
    if unknown:
        raise DataError(f"{path}: unknown posterior arrays {unknown}")
    mode, digest = meta.get("mode"), meta.get("digest")
    extra, rank = meta.get("extra", {}), meta.get("swag_rank", 0)
    if not (isinstance(mode, str) and isinstance(digest, str)
            and isinstance(extra, dict) and type(rank) is int and rank >= 0):
        raise DataError(f"{path}: posterior header needs string mode and "
                        f"digest, a non-negative integer swag_rank and an "
                        f"object extra")
    n_tasks = extra.get("n_tasks", 1)
    if type(n_tasks) is not int or n_tasks < 1:
        raise DataError(f"{path}: extra.n_tasks must be a positive integer, "
                        f"got {n_tasks!r}")
    try:
        return PosteriorRepresentation(mode=mode, digest=digest,
                                       swag_rank=rank, meta=extra, **arrays)
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# predictive distributions


@dataclass
class PredictiveDistribution:
    mean: np.ndarray          # (B, T) probabilities
    n_samples: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if not np.all(np.isfinite(self.mean)):
            raise NumericError("non-finite predictive probabilities")
        if self.mean.min(initial=0.0) < 0 or self.mean.max(initial=0.0) > 1:
            raise NumericError("predictive probabilities outside [0, 1]")

    @property
    def uncertainty(self) -> np.ndarray:
        return np.sqrt(self.mean * (1.0 - self.mean))


# ---------------------------------------------------------------------------
# bayes by backprop


def _kl_tensor(mu_t: ad.Tensor, sigma_t: ad.Tensor,
               sigma0: float) -> ad.Tensor:
    """KL( N(mu, diag sigma^2) || N(0, sigma0^2 I) ), closed form."""
    quad = ad.div(ad.add(ad.mul(sigma_t, sigma_t), ad.mul(mu_t, mu_t)),
                  2.0 * sigma0 * sigma0)
    per_coord = ad.sub(ad.add(ad.sub(float(np.log(sigma0)),
                                     ad.log(sigma_t)), quad), 0.5)
    return ad.tsum(per_coord)


# ---------------------------------------------------------------------------
# stochastic gradient langevin dynamics

PSGLD_ALPHA = 0.99
PSGLD_LAMBDA = 1e-8


def psgld_step(v: np.ndarray, params: np.ndarray,
               grad_log_post: np.ndarray, lr: float,
               rng: np.random.Generator, precondition: bool = True,
               noise: bool = True) -> np.ndarray:
    """One Langevin step ascending the log posterior.

    delta = (lr/2) G grad + sqrt(lr G) z with G the RMS preconditioner
    of ``v``, updated in place (identity, ``v`` unused, when
    ``precondition`` is off). ``noise=False`` reduces the step to plain
    gradient ascent, i.e. SGD on the negative log posterior at rate lr/2.
    """
    params = np.asarray(params, dtype=np.float64)
    g = np.asarray(grad_log_post, dtype=np.float64)
    if g.shape != params.shape or v.shape != params.shape:
        raise ad.ShapeError(f"shape mismatch: params {params.shape}, "
                            f"grad {g.shape}, v {v.shape}")
    if precondition:
        v *= PSGLD_ALPHA
        v += (1.0 - PSGLD_ALPHA) * g * g
        G = 1.0 / (np.sqrt(v) + PSGLD_LAMBDA)
    else:
        G = np.ones_like(params)
    delta = 0.5 * lr * G * g
    if noise:
        delta = delta + np.sqrt(lr * G) * rng.standard_normal(params.shape)
    new = params + delta
    if not np.all(np.isfinite(new)):
        raise NumericError("sgld update produced non-finite parameters")
    return new


# ---------------------------------------------------------------------------
# weight averaging


def swa_update(mean: np.ndarray, snapshot: np.ndarray, k: int) -> np.ndarray:
    """Running mean after k previous snapshots: (k*mean + w) / (k+1)."""
    mean = np.asarray(mean, dtype=np.float64)
    snapshot = np.asarray(snapshot, dtype=np.float64)
    if mean.shape != snapshot.shape:
        raise ad.ShapeError(f"mean {mean.shape} vs snapshot "
                            f"{snapshot.shape}")
    if k < 0:
        raise ConfigError("snapshot count cannot be negative")
    return (k * mean + snapshot) / (k + 1.0)


def swag_sample(post: PosteriorRepresentation,
                rng: np.random.Generator) -> np.ndarray:
    """Draw weights from the half-diagonal plus low-rank Gaussian."""
    if post.mode != "swag":
        raise ConfigError("swag_sample needs a swag posterior")
    mean = post.swag_mean
    diag = np.maximum(post.swag_sq_mean - mean * mean, DIAG_FLOOR)
    draw = np.sqrt(0.5 * diag) * rng.standard_normal(mean.shape)
    K = post.swag_dev.shape[1]
    if K >= 2:
        z2 = rng.standard_normal(K)
        draw = draw + (post.swag_dev @ z2) / np.sqrt(2.0 * (K - 1))
    else:
        warnings.warn("fewer than 2 deviation columns; "
                      "sampling the diagonal only")
    return mean + draw


# ---------------------------------------------------------------------------
# training


def _grad_flat(model: FlatModel, flat: np.ndarray, batch,
               train: bool = False,
               rng: Optional[np.random.Generator] = None
               ) -> tuple[float, np.ndarray]:
    tape = ad.Tape()
    theta = tape.parameter("theta", flat)
    loss = model.nll(tape, theta, batch, train=train, rng=rng)
    return loss.item(), ad.backward(tape, loss)["theta"]


def train(model: FlatModel,
          epoch_batches: Callable[[np.random.Generator], Sequence],
          n_examples: int, schedule: TrainSchedule, seed: int, *,
          valid_eval: Optional[Callable[[np.ndarray], dict]] = None,
          m_members: int = 10, kl_scale: float = 0.01,
          prior_sigma: float = 10.0
          ) -> tuple[PosteriorRepresentation, list[dict]]:
    """Fit the posterior ``schedule.mode`` names; returns it and the log.

    All modes share one epoch loop (init and shuffle streams, lr schedule,
    ``epoch_batches(shuffle_rng)`` each epoch, a finiteness check per
    batch, a log entry per epoch extended by ``valid_eval`` of the current
    point) and differ in step and snapshot. none/mcdo/swag step the
    optimizer on the batch mean NLL, mcdo with residual dropout on. bbb
    steps it without weight decay on a flat [mu, rho] vector: the mean NLL
    over ``schedule.train_samples`` draws mu + softplus(rho) * z (z from
    the ``bbb-noise`` stream, sigma starting at ``SIGMA_INIT``) plus
    kl_scale * KL / n_examples, a per-example prior pull. sgld takes pSGLD
    steps on -(n_examples * grad_nll + weight_decay * w), the decay
    doubling as a Gaussian prior precision, and keeps snapshot-epoch
    weights as samples. swag folds snapshot epochs into running moments
    and the last ``swag_rank`` deviations from the updated mean; too few
    snapshot epochs raise ConfigError before the first. An ensemble is one
    MAP run per member seed ``member_seed(seed, i)``, i < ``m_members``,
    dropping members that diverge. The posterior is of the kind
    ``POSTERIOR_KINDS[schedule.mode]``.
    """
    mode = schedule.mode
    if mode == "ensemble":
        return _train_ensemble(model, epoch_batches, n_examples, schedule,
                               seed, m_members, valid_eval)
    n_snapshots = sum(is_snapshot_epoch(schedule, epoch)
                      for epoch in range(1, schedule.epochs + 1))
    if mode == "sgld" and not n_snapshots:
        raise ConfigError("schedule produced zero posterior samples")
    if mode == "swag" and n_snapshots < 2:
        raise ConfigError(f"swag needs at least 2 snapshots; the schedule "
                          f"took {n_snapshots}")
    n = model.n_params
    shuffle_rng = stream(seed, "shuffle")
    w = model.init_params(stream(seed, "init"))

    if mode == "bbb":
        noise_rng = stream(seed, "bbb-noise")
        w = np.concatenate([w, np.full(n, _softplus_inv(SIGMA_INIT))])
        n_draws = schedule.train_samples

        def objective(w: np.ndarray, batch) -> tuple[float, np.ndarray]:
            tape = ad.Tape()
            mu_t, rho_t = ad.split(tape.parameter("w", w), [(n,), (n,)])
            sigma_t = ad.clip_min(ad.softplus(rho_t), SIGMA_FLOOR)
            total = None
            for _ in range(n_draws):
                z = noise_rng.standard_normal(n)
                nll = model.nll(tape, ad.add(mu_t, ad.mul(sigma_t, z)), batch)
                total = nll if total is None else ad.add(total, nll)
            loss = ad.div(total, float(n_draws))
            if kl_scale != 0.0:
                kl = _kl_tensor(mu_t, sigma_t, prior_sigma)
                loss = ad.add(loss, ad.mul(kl, kl_scale / n_examples))
            return loss.item(), ad.backward(tape, loss)["w"]
    else:
        dropout_rng = stream(seed, "dropout") if mode == "mcdo" else None

        def objective(w: np.ndarray, batch) -> tuple[float, np.ndarray]:
            return _grad_flat(model, w, batch, train=mode == "mcdo",
                              rng=dropout_rng)

    if mode == "sgld":
        v = np.zeros(n)
        sgld_rng = stream(seed, "sgld-noise")

        def update(w: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
            glp = -(n_examples * grad + schedule.weight_decay * w)
            return psgld_step(v, w, glp, lr, sgld_rng)
    else:
        opt = ad.OptimizerState(
            mode=schedule.optimizer, lr=schedule.lr,
            weight_decay=0.0 if mode == "bbb" else schedule.weight_decay)

        def update(w: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
            opt.lr = lr
            return ad.optimizer_step(opt, w, grad)

    mean, sq_mean, k = np.zeros(n), np.zeros(n), 0   # swag moments
    kept: list[np.ndarray] = []    # sgld samples or swag deviation columns
    log: list[dict] = []
    for epoch in range(1, schedule.epochs + 1):
        lr = lr_at(schedule, epoch)
        losses = []
        for batch in epoch_batches(shuffle_rng):
            loss, grad = objective(w, batch)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged (loss {loss}) at "
                                   f"epoch {epoch}")
            try:
                w = update(w, grad, lr)
            except NumericError as e:
                raise NumericError(f"{e} at epoch {epoch}") from None
            losses.append(loss)
        entry = {"epoch": epoch, "lr": lr, "loss": float(np.mean(losses))}
        if is_snapshot_epoch(schedule, epoch):
            if mode == "sgld":
                kept.append(w.copy())
            else:
                mean = swa_update(mean, w, k)
                sq_mean = swa_update(sq_mean, w * w, k)
                k += 1
                kept.append(w - mean)
                if len(kept) > schedule.swag_rank:
                    kept.pop(0)
        if mode == "sgld":
            entry["n_samples"] = len(kept)
        elif mode == "swag":
            entry["n_snapshots"] = k
        if valid_eval is not None:
            # the average once one exists, else the weights (bbb: mu)
            entry.update(valid_eval(mean if k else w[:n]))
        log.append(entry)

    digest = model.digest
    meta = {"trained": mode, "seed": int(seed)}
    if mode == "bbb":
        rho = w[n:]
        n_clamped = int(np.sum(ad.softplus(rho).data < SIGMA_FLOOR))
        if n_clamped:
            warnings.warn(f"{n_clamped} posterior scales collapsed below "
                          f"{SIGMA_FLOOR} and were clamped")
        meta.update(kl_scale=kl_scale, prior_sigma=prior_sigma,
                    n_sigma_clamped=n_clamped)
        return PosteriorRepresentation(mode="bbb", digest=digest, mu=w[:n],
                                       rho=rho, meta=meta), log
    if mode == "sgld":
        meta["precondition"] = True
        return PosteriorRepresentation(mode="samples", digest=digest,
                                       samples=np.stack(kept),
                                       meta=meta), log
    if mode == "swag":
        meta["n_snapshots"] = k
        return PosteriorRepresentation(
            mode="swag", digest=digest, swag_mean=mean,
            swag_sq_mean=sq_mean, swag_dev=np.stack(kept, axis=1),
            swag_rank=schedule.swag_rank, meta=meta), log
    return PosteriorRepresentation(mode="point", digest=digest, point=w,
                                   meta=meta), log


def _train_ensemble(model: FlatModel,
                    epoch_batches: Callable[[np.random.Generator], Sequence],
                    n_examples: int, schedule: TrainSchedule, seed: int,
                    m_members: int,
                    valid_eval: Optional[Callable[[np.ndarray], dict]]
                    ) -> tuple[PosteriorRepresentation, list[dict]]:
    """Independent MAP runs differing only in derived member seeds."""
    if m_members < 2:
        raise ConfigError("an ensemble needs at least 2 members")
    point_schedule = replace(schedule, mode="none")
    members, logs, failed = [], [], []
    for i in range(m_members):
        s = member_seed(seed, i)
        try:
            post, log = train(model, epoch_batches, n_examples,
                              point_schedule, s, valid_eval=valid_eval)
        except NumericError as e:
            failed.append({"member": i, "error": str(e)})
            continue
        members.append(post.point)
        logs.append({"member": i, "seed": int(s), "log": log})
    if len(members) < 2:
        raise NumericError(
            f"only {len(members)} ensemble members survived training; "
            f"failures: {failed}")
    post = PosteriorRepresentation(
        mode="samples", digest=model.digest,
        samples=np.stack(members),
        meta={"trained": "ensemble", "seed": int(seed), "failed": failed})
    return post, logs


# ---------------------------------------------------------------------------
# prediction


def trained_mode(mode: str) -> str:
    """The mode whose posterior artifact serves ``mode``."""
    return VIEWS[mode][0] if mode in VIEWS else mode


def draw_count(mode: str, requested: int = 0) -> int:
    """Predictive draws for ``mode``: ``requested``, or when it is 0 the
    mode's default of 100 for bbb and 30 otherwise."""
    return requested or (100 if mode == "bbb" else 30)


def predictive(model, post: PosteriorRepresentation, mode: str,
               batches: Sequence, seed: int, n_samples: int = 0,
               workers: int = 1) -> PredictiveDistribution:
    """``mode``'s predictive distribution over ``batches``, rows in batch
    order; ``model`` exposes ``predict_proba(flat, batch, train=,
    dropout_rng=)``, and ``post`` is of the kind ``POSTERIOR_KINDS``
    names for ``trained_mode(mode)``, as the cli checks of each artifact.

    A view predicts at its array of ``post`` as a point. mcdo queries its
    point ``draw_count(mode, n_samples)`` times, pass k running batch i
    under dropout masks from the ``eval-dropout`` stream keyed (k, i), so
    a pass's masks depend on neither the other passes, nor the other
    batches, nor the thread that runs it. ``marginalize`` averages the
    draws on ``workers`` threads.
    """
    if mode in VIEWS:
        post = PosteriorRepresentation(mode="point", digest=post.digest,
                                       point=getattr(post, VIEWS[mode][1]))
    n_draws = draw_count(mode, n_samples)
    if mode == "mcdo":
        # n_draws copies of the point (a view, no copy), each under new masks
        post = PosteriorRepresentation(
            mode="samples", digest=post.digest,
            samples=np.broadcast_to(post.point, (n_draws, post.point.size)))

    def predict(flat: np.ndarray, draw: int, i: int) -> np.ndarray:
        if mode != "mcdo":
            return model.predict_proba(flat, batches[i])
        return model.predict_proba(
            flat, batches[i], train=True,
            dropout_rng=stream(seed, "eval-dropout", draw, i))

    return marginalize(predict, post, seed, n_draws, workers, len(batches))


def _units(count: int, n_batches: int, workers: int) -> list[tuple]:
    """(draw, batch run) pairs, in draw then batch order: one per draw
    over every batch, or, with fewer draws than workers, each draw's
    batches cut into at most ``workers // count`` contiguous runs."""
    parts = max(1, min(n_batches, workers // count))
    ends = [n_batches * p // parts for p in range(parts + 1)]
    return [(k, range(lo, hi)) for k in range(count)
            for lo, hi in zip(ends, ends[1:])]


def marginalize(predict: Callable[[np.ndarray, int, int], np.ndarray],
                post: PosteriorRepresentation, seed: int,
                n_samples: int = 30, workers: int = 1, n_batches: int = 1
                ) -> PredictiveDistribution:
    """Probability-space average of per-draw predictions.

    ``predict`` maps one flat weight vector, its draw index and a batch
    index below ``n_batches`` to that batch's probabilities; a draw's
    rows are its batches' in batch order. Point posteriors ignore
    n_samples; sample sets use every stored member (for mc-dropout,
    identical rows that ``predict`` masks by draw and batch index); bbb
    and swag make ``n_samples`` fresh weight vectors, draw k from the
    ``eval-draw`` stream of ``seed`` keyed by k, so each draw depends on
    nothing but (seed, k).

    Units of (draw, contiguous run of batches) run on a pool of
    ``workers`` threads (0: one per core), with OpenBLAS held to one
    thread while it runs, so that the units, not BLAS, share the cores;
    the previous count is restored afterwards, also when a draw fails.
    A draw is one unit while there are at least as many draws as workers,
    so no more than ``workers`` weight vectors are held at once; with
    fewer draws, each draw's batches are cut into runs so that one draw
    uses every worker. Rows are stacked by draw and batch, so the mean
    equals the serial one whenever ``predict``'s result does not depend
    on the thread that runs it: a forward pass contracts only over
    feature widths, whose products give the same bits under one and two
    OpenBLAS threads (a test checks the default dims). With one worker,
    one draw of one batch, or no OpenBLAS control found, the draws run
    in the calling thread and BLAS is left as it is.
    """
    count = (1 if post.mode == "point" else len(post.samples)
             if post.mode == "samples" else n_samples)
    if count < 1:
        raise ConfigError("need at least one marginalization draw")
    sigma = post.bbb_sigma if post.mode == "bbb" else None

    def run(unit: tuple) -> list[np.ndarray]:
        k, batches = unit
        if post.mode == "point":
            w = post.point
        elif post.mode == "samples":
            w = post.samples[k]
        else:
            rng = stream(seed, "eval-draw", k)
            w = (post.mu + sigma * rng.standard_normal(sigma.shape)
                 if post.mode == "bbb" else swag_sample(post, rng))
        return [predict(w, k, i) for i in batches]

    workers = min(workers or cores(), count * n_batches)
    blas = openblas_threads() if workers > 1 else None
    units = _units(count, n_batches, workers if blas else 1)
    if blas is None:
        rows = [run(unit) for unit in units]
    else:
        # imported here: only a pooled prediction needs threads
        from concurrent.futures import ThreadPoolExecutor
        get_threads, set_threads = blas
        before = get_threads()
        set_threads(1)
        try:
            with ThreadPoolExecutor(min(workers, len(units))) as pool:
                rows = list(pool.map(run, units))
        finally:
            set_threads(before)
    per_draw = len(units) // count
    draws = [np.concatenate([p for r in rows[k * per_draw:(k + 1) * per_draw]
                             for p in r]) for k in range(count)]
    return PredictiveDistribution(np.stack(draws).mean(axis=0), count)


def cores() -> int:
    """Cores this process may run on: its affinity set, which a
    cpuset-limited container narrows below the host's count, where the
    OS reports one, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# OpenBLAS's thread-count functions under the names its builds export:
# plain, and the symbol-suffixed builds numpy and scipy wheels ship
_OPENBLAS_THREAD_CALLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"))


@functools.cache
def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS mapped into
    this process, or None where none is found: off Linux, under another
    BLAS, or where it exports none of the known names."""
    try:
        maps = artifacts.read_file("/proc/self/maps")
    except DataError:
        return None
    # each mapping: address, perms, offset, device, inode and a path if
    # any, which may itself hold spaces
    paths = {fields[-1] for fields in (line.split(None, 5)
                                       for line in maps.splitlines())
             if len(fields) == 6
             and b"openblas" in os.path.basename(fields[-1]).lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(os.fsdecode(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get_threads = getattr(lib, get_name, None)
            set_threads = getattr(lib, set_name, None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes = ()
                get_threads.restype = ctypes.c_int
                set_threads.argtypes = (ctypes.c_int,)
                set_threads.restype = None
                return get_threads, set_threads
    return None
