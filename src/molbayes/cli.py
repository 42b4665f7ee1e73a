"""Command-line entry point wiring data, models, training and reports.

Subcommands: `split` writes per-seed scaffold-split manifests, `train`
fits one posterior per seed for the configured mode, `eval` turns
posterior artifacts into calibration/discrimination reports, and
`screen` ranks an unlabeled SMILES library by predicted probability.
Every prediction, train's per-epoch validation included, goes through
`bayes.predictive`, which also sizes the draw pool and holds BLAS.

Configuration is one JSON document over DEFAULT_CONFIG, overridable on
the command line with --set dotted.path=value. Every run's resolved
config gets a digest that is embedded in all outputs; eval refuses to
mix artifacts carrying a different digest. A manifest or artifact found
under a seed's name must record that seed, and an artifact must be of
the posterior kind its mode writes. Exit codes: 2 for config problems,
3 for data problems, 4 for numeric failures.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import functools
import hashlib
import io
import json
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import artifacts, bayes, metrics
from .chem import (DATASET_COLUMNS, LabeledDataset, SmilesError, featurize,
                   load_dataset, parse_smiles, scaffold_split)
from .errors import ConfigError, DataError, NumericError
from .gnn import GnnClassifier, ModelConfig, make_batch

DEFAULT_CONFIG: dict = {
    "dataset": {"path": "", "name": "bace"},
    "model": {"architecture": "gin", "hidden_dim": 128, "graph_dim": 256,
              "n_layers": 4, "n_heads": 4, "dropout": 0.2},
    "mode": "none",
    "schedule": {},            # field overrides onto the mode's defaults
    "ensemble_members": 10,
    "kl_scale": 0.01,
    "prior_sigma": 10.0,
    "eval_samples": 0,         # predictive draws; 0 = the mode's default
    "split": {"ratios": [0.8, 0.1, 0.1]},
    "seeds": [0, 1, 2, 3, 4, 5, 6, 7],
    "batch_size": 128,
    "out_dir": "runs",
    "workers": 0,              # train processes, draw threads; 0 = by cores
}

# details that do not change any single artifact's content: execution
# knobs, the seed selection (each artifact records its own seed), and
# prediction-time sampling depths (reports record them as n_draws)
_EXEC_KEYS = ("out_dir", "workers", "seeds", "eval_samples")

# sections that accept keys beyond the defaults (schedule fields,
# custom dataset column mappings), checked when they are used
_OPEN_SECTIONS = ("schedule", "dataset")

# the least value of each number whose default does not say its range
_LEAST = {"batch_size": 1, "workers": 0, "ensemble_members": 2,
          "eval_samples": 0, "kl_scale": 0}


# ---------------------------------------------------------------------------
# configuration


def _fits(default, value) -> bool:
    """Whether ``value`` can stand in for a key whose default is
    ``default``: a finite number for a float, a 64-bit int for an int (a
    bool is neither), a list of items that fit the first item (ints when
    there is none) for a list or tuple, else a value of the default's type.
    """
    if isinstance(value, bool):     # JSON true and false are Python ints
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float)) \
            and abs(value) <= sys.float_info.max
    if isinstance(default, int):
        return isinstance(value, int) and -2 ** 63 <= value < 2 ** 63
    if isinstance(default, (list, tuple)):
        item = default[0] if default else 0
        return isinstance(value, list) and all(_fits(item, v) for v in value)
    return isinstance(value, type(default))


def _merge(cfg: dict, override: dict, defaults: dict = DEFAULT_CONFIG,
           path: str = "") -> dict:
    """``cfg`` with ``override`` laid over it, each known key's value
    checked against the type of its default."""
    out = copy.deepcopy(cfg)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            if path not in _OPEN_SECTIONS:
                raise ConfigError(f"unknown config key {where!r}")
            out[key] = copy.deepcopy(value)
        elif not _fits(defaults[key], value):
            raise ConfigError(f"config key {where!r} must have the type of "
                              f"its default ({defaults[key]!r})")
        elif isinstance(value, dict):
            out[key] = _merge(out[key], value, defaults[key], where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _override(expr: str) -> dict:
    """``--set a.b=v`` as the override {"a": {"b": v}}; ``v`` is JSON, or
    else the raw string."""
    key, sep, raw = expr.partition("=")
    if not sep or not key:
        raise ConfigError(f"--set wants KEY=VALUE, got {expr!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def _validate_config(cfg: dict) -> None:
    """Check the ranges the defaults' types cannot say, and build the
    dataset columns, model config and schedule, so that a bad config
    fails before a command reads data or writes a file."""
    seeds = cfg["seeds"]
    # a stream's entropy is the seed's 32-bit words, zero-padded, so a
    # seed of 2**32 or more would share streams with smaller seeds
    if (not seeds or min(seeds) < 0 or max(seeds) >= 2**32
            or len(set(seeds)) != len(seeds)):
        raise ConfigError("seeds must be a non-empty list of distinct "
                          "integers from 0 to 2**32 - 1")
    if cfg["mode"] not in bayes.MODES:
        raise ConfigError(f"unknown mode {cfg['mode']!r}; "
                          f"one of {bayes.MODES}")
    ratios = cfg["split"]["ratios"]
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1) > 1e-9:
        raise ConfigError("split.ratios must be three non-negative numbers "
                          "that sum to 1")
    for key, least in _LEAST.items():
        if cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}")
    if cfg["prior_sigma"] <= 0:
        raise ConfigError("prior_sigma must be positive")
    if cfg["mode"] == "mcdo" and cfg["model"]["dropout"] == 0:
        # mcdo without dropout would train a MAP point and report its
        # identical passes as draws
        raise ConfigError("mode mcdo needs model.dropout above 0")
    _dataset_columns(cfg)
    ModelConfig(**cfg["model"])
    _schedule_for(cfg)


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        text = artifacts.read_text(args.config, ConfigError)
        try:
            loaded = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"config {args.config} is not valid JSON: "
                              f"{e}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = _merge(cfg, loaded)
    if args.mode:
        cfg["mode"] = args.mode
    if args.arch:
        cfg["model"]["architecture"] = args.arch
    if args.seeds:
        try:
            cfg["seeds"] = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise ConfigError(f"--seeds wants comma-separated integers, "
                              f"got {args.seeds!r}") from None
    if args.out:
        cfg["out_dir"] = args.out
    for expr in args.set or []:
        cfg = _merge(cfg, _override(expr))
    _validate_config(cfg)
    return cfg


def _digest_of(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def config_digest(cfg: dict) -> str:
    """Digest of everything that changes what gets computed."""
    return _digest_of({k: v for k, v in cfg.items() if k not in _EXEC_KEYS})


def split_digest(cfg: dict) -> str:
    """Digest of the inputs that determine the scaffold split alone.

    Narrower than config_digest so every mode trained under one dataset
    and ratio setting shares the same manifests.
    """
    return _digest_of({"dataset": cfg["dataset"], "split": cfg["split"]})


# ---------------------------------------------------------------------------
# dataset plumbing


def _dataset_columns(cfg: dict) -> tuple[str, tuple[str, ...]]:
    section = cfg["dataset"]
    if "smiles_column" in section or "label_columns" in section:
        try:
            smiles_col, label_cols = (section["smiles_column"],
                                      section["label_columns"])
        except KeyError as e:
            raise ConfigError(f"dataset needs both smiles_column and "
                              f"label_columns, missing {e}") from None
        if not _fits("", smiles_col):
            raise ConfigError("dataset.smiles_column must be a string")
        if not _fits([""], label_cols) or not label_cols:
            raise ConfigError("dataset.label_columns must be a non-empty "
                              "list of strings")
        return smiles_col, tuple(label_cols)
    name = section["name"]
    if name not in DATASET_COLUMNS:
        raise ConfigError(
            f"unknown dataset name {name!r}; known: "
            f"{sorted(DATASET_COLUMNS)}; or give dataset.smiles_column "
            f"and dataset.label_columns explicitly")
    return DATASET_COLUMNS[name]


def _load(cfg: dict) -> LabeledDataset:
    path = cfg["dataset"]["path"]
    if not path:
        raise ConfigError("dataset.path is not set")
    if not os.path.isfile(path):
        raise ConfigError(f"dataset file not found: {path}")
    smiles_col, label_cols = _dataset_columns(cfg)
    return load_dataset(path, smiles_col, label_cols)


def _manifest_path(cfg: dict, seed: int) -> str:
    return os.path.join(cfg["out_dir"], f"split_seed{seed}.json")


# the summary fields cmd_split prints, each typed by its example
_SUMMARY = {"sizes": [0], "quotas": [0], "n_scaffolds": 0, "overrun": 0,
            "warnings": [""]}


def _check_seed(stored, seed: int, what: str) -> None:
    """Refuse ``what``, stored under some seed's name, unless the seed it
    records is that seed."""
    if not _fits(seed, stored) or stored != seed:
        raise DataError(f"{what} records seed {stored!r}, not {seed}")


def _ensure_manifest(cfg: dict, ds: LabeledDataset, seed: int) -> dict:
    """Load the seed's manifest, or create and persist it. A stored one
    must be an object that records ``seed``, whose train, valid and test
    are lists of indices into ``ds``, no index listed twice in or across
    them, and whose summary is an object with the ``_SUMMARY`` fields."""
    path = _manifest_path(cfg, seed)
    sd = split_digest(cfg)
    if os.path.isfile(path):
        try:
            manifest = json.loads(artifacts.read_text(path))
        except (json.JSONDecodeError, RecursionError) as e:
            raise DataError(f"manifest {path} is not valid JSON: {e}") \
                from None
        if not isinstance(manifest, dict):
            raise DataError(f"manifest {path} is not a JSON object")
        if manifest.get("split_digest") != sd:
            raise ConfigError(
                f"manifest {path} was made under a different dataset/split "
                f"config (digest {manifest.get('split_digest')} != {sd}); "
                f"remove it or use a fresh out_dir")
        _check_seed(manifest.get("seed"), seed, f"manifest {path}")
        seen: set[int] = set()
        for part in ("train", "valid", "test"):
            idx = manifest.get(part)
            if not _fits([0], idx) or not all(0 <= i < len(ds) for i in idx):
                raise DataError(f"manifest {path}: {part!r} must be a list "
                                f"of molecule indices below {len(ds)}")
            for i in idx:
                if i in seen:
                    raise DataError(f"manifest {path}: molecule index {i} "
                                    f"is listed twice, again in {part!r}")
                seen.add(i)
        summary = manifest.get("summary")
        if not isinstance(summary, dict) or not all(
                _fits(v, summary.get(k)) for k, v in _SUMMARY.items()):
            raise DataError(f"manifest {path}: 'summary' must be an object "
                            f"with {sorted(_SUMMARY)} of the types split "
                            f"writes")
        return manifest
    manifest = {"split_digest": sd, "seed": seed,
                **scaffold_split(ds, ratios=tuple(cfg["split"]["ratios"]),
                                 seed=seed)}
    _write_json(path, manifest)
    return manifest


def _write_json(path: str, payload: dict) -> None:
    artifacts.write_file(path, json.dumps(payload, indent=2, sort_keys=True),
                         "\n")


def _write_histogram(base: str, digest: str, series: dict,
                     title: str) -> None:
    """``base.csv``, a digest comment line then one row of counts per
    ``metrics.HIST_EDGES`` bin, and ``base.svg``, the same counts as a
    stacked bar chart."""
    edges = metrics.HIST_EDGES
    rows = [",".join([f"{lo:g}", f"{hi:g}",
                      *(str(int(c[k])) for c in series.values())]) + "\n"
            for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
    artifacts.write_file(f"{base}.csv", f"# config_digest={digest}\n",
                         ",".join(["bin_low", "bin_high", *series]) + "\n",
                         *rows)
    artifacts.write_file(f"{base}.svg", metrics.histogram_svg(series, title))


def _featurized(ds: LabeledDataset, indices) -> tuple[list, np.ndarray]:
    return ds.graphs(indices), ds.labels[np.asarray(indices, dtype=np.int64)]


def _batches(graphs: list, labels: np.ndarray, batch_size: int) -> list:
    """Consecutive minibatches of at most ``batch_size`` graphs."""
    return [make_batch(graphs[lo:lo + batch_size], labels[lo:lo + batch_size])
            for lo in range(0, len(graphs), batch_size)]


def _model_for(cfg: dict, n_tasks: int) -> GnnClassifier:
    return GnnClassifier(ModelConfig(**cfg["model"], n_tasks=n_tasks))


def _schedule_for(cfg: dict) -> bayes.TrainSchedule:
    overrides = dict(cfg["schedule"])
    epochs = overrides.pop("epochs", None)
    if epochs is not None and not _fits(0, epochs):
        raise ConfigError("schedule.epochs must be an integer")
    base = bayes.default_schedule(bayes.trained_mode(cfg["mode"]),
                                  epochs=epochs)
    kwargs = asdict(base)
    for key, value in overrides.items():
        if key not in kwargs or key == "mode":
            raise ConfigError(f"unknown schedule field {key!r}")
        if not _fits(kwargs[key], value):
            raise ConfigError(f"schedule.{key} must have the type of its "
                              f"default ({kwargs[key]!r})")
        kwargs[key] = tuple(value) if key == "decay_points" else value
    return bayes.TrainSchedule(**kwargs)


def _check_artifact(cfg: dict, model: GnnClassifier,
                    post: bayes.PosteriorRepresentation, path: str,
                    seed: Optional[int]) -> None:
    """Refuse an artifact made under another config or model, of a kind
    the mode does not write, or of a seed other than ``seed`` (None: any
    seed)."""
    digest = config_digest(dict(cfg, mode=bayes.trained_mode(cfg["mode"])))
    stored = post.meta.get("config_digest", "")
    if stored != digest:
        raise ConfigError(
            f"artifact {path} carries config digest {stored!r} but this "
            f"run's is {digest!r}; refusing to mix")
    if post.digest != model.digest:
        raise ConfigError(
            f"artifact {path} was trained on an incompatible model "
            f"(parameter digest {post.digest} != {model.digest})")
    if post.n_params != model.n_params:
        raise DataError(f"artifact {path} holds {post.n_params} weights per "
                        f"draw; the model has {model.n_params}")
    kind = bayes.POSTERIOR_KINDS[bayes.trained_mode(cfg["mode"])]
    if post.mode != kind:
        raise DataError(f"artifact {path} holds a {post.mode} posterior; "
                        f"mode {cfg['mode']} reads a {kind} one")
    if seed is not None:
        _check_seed(post.meta.get("seed"), seed, f"artifact {path}")


def _posterior_path(cfg: dict, seed: int) -> str:
    return os.path.join(cfg["out_dir"],
                        f"{bayes.trained_mode(cfg['mode'])}_seed{seed}.post")


# ---------------------------------------------------------------------------
# commands


def cmd_split(cfg: dict, args: argparse.Namespace) -> int:
    ds = _load(cfg)
    rep = ds.report
    print(f"loaded {rep.n_kept} molecules "
          f"({rep.n_parse_failures} unparseable, "
          f"{rep.n_all_missing} without labels)")
    for seed in cfg["seeds"]:
        manifest = _ensure_manifest(cfg, ds, seed)
        s = manifest["summary"]
        print(f"seed {seed}: sizes {s['sizes']} of quotas {s['quotas']}, "
              f"{s['n_scaffolds']} scaffolds, overrun {s['overrun']}"
              + (f", warnings: {'; '.join(s['warnings'])}"
                 if s["warnings"] else ""))
    return 0


def _train_one_seed(payload: tuple) -> dict:
    cfg, ds, seed, manifest = payload
    model = _model_for(cfg, ds.n_tasks)
    schedule = _schedule_for(cfg)
    train_graphs, train_labels = _featurized(ds, manifest["train"])

    def epoch_batches(rng: np.random.Generator) -> list:
        """Reshuffled minibatches each epoch, driven by the caller's rng."""
        order = rng.permutation(len(train_graphs))
        return _batches([train_graphs[i] for i in order],
                        train_labels[order], cfg["batch_size"])

    hook = None
    if manifest["valid"]:
        graphs, valid_labels = _featurized(ds, manifest["valid"])
        batches = _batches(graphs, valid_labels, cfg["batch_size"])

        def hook(flat: np.ndarray) -> dict:
            point = bayes.PosteriorRepresentation(
                mode="point", digest=model.digest, point=flat)
            try:
                probs = bayes.predictive(model, point, "none", batches, seed,
                                         workers=1).mean
                return {"valid_auroc": metrics.macro_average(
                    metrics.auroc, probs, valid_labels)}
            except (DataError, NumericError):   # a diverged pass: no auroc
                return {}

    post, log = bayes.train(model, epoch_batches, len(train_graphs),
                            schedule, seed, valid_eval=hook,
                            m_members=cfg["ensemble_members"],
                            kl_scale=cfg["kl_scale"],
                            prior_sigma=cfg["prior_sigma"])
    digest = config_digest(cfg)
    post.meta["config_digest"] = digest
    post.meta["n_tasks"] = ds.n_tasks
    path = _posterior_path(cfg, seed)
    bayes.save_posterior(path, post)
    mode = cfg["mode"]
    log_path = os.path.join(cfg["out_dir"], f"{mode}_seed{seed}_log.json")
    _write_json(log_path, {"config_digest": digest, "seed": seed,
                           "mode": mode, "epochs": log})
    final = log[-1] if "loss" in log[-1] else {}   # ensembles log members
    return {"seed": seed, "path": path,
            "final_loss": final.get("loss"),
            "valid_auroc": final.get("valid_auroc")}


def _worker_count(workers: int, n_seeds: int) -> int:
    """Training processes: ``workers``, or for 0 as many as the cores hold
    next to the threads each one's OpenBLAS reports; never more than one
    per seed.

    On a host where BLAS takes every core, seeds train one after another
    in this process, because parallel workers would only contend for the
    cores; so they do where no OpenBLAS control is found, as BLAS's thread
    count is then unknown. Training never sets a BLAS thread count, and
    its validation predicts in the calling thread: the count changes the
    bits of the weight gradient's long contractions, so pinning it here
    would make an artifact depend on the worker count.
    """
    if workers == 0:
        blas = bayes.openblas_threads()
        workers = 1 if blas is None else max(1, bayes.cores() // blas[0]())
    return min(workers, n_seeds)


def _settle(fn, *args):
    """``fn(*args)``, or the exception it raised, so that one failed seed
    does not hide the others' outcomes."""
    try:
        return fn(*args)
    except Exception as e:      # reported per seed, then raised
        return e


def cmd_train(cfg: dict, args: argparse.Namespace) -> int:
    mode = cfg["mode"]
    if mode not in bayes.TRAINED_MODES:
        raise ConfigError(f"mode {mode!r} is read from another posterior: "
                          f"train --mode {bayes.trained_mode(mode)}")
    ds = _load(cfg)
    payloads = []
    for seed in cfg["seeds"]:
        manifest = _ensure_manifest(cfg, ds, seed)
        if not manifest["train"]:
            raise DataError(f"seed {seed}: empty training split")
        payloads.append((cfg, ds, seed, manifest))
    workers = _worker_count(cfg["workers"], len(payloads))
    if workers > 1:
        # imported here: no other command starts a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_train_one_seed, p) for p in payloads]
            outcomes = [_settle(f.result) for f in futures]
    else:
        outcomes = [_settle(_train_one_seed, p) for p in payloads]
    failure = None
    for seed, r in zip(cfg["seeds"], outcomes):
        if isinstance(r, Exception):
            print(f"seed {seed}: failed ({r})", file=sys.stderr)
            if failure is None:
                failure = r
            continue
        extra = ""
        if r["final_loss"] is not None:
            extra += f", final loss {r['final_loss']:.4f}"
        if r["valid_auroc"] is not None:
            extra += f", valid auroc {r['valid_auroc']:.3f}"
        print(f"seed {r['seed']}: wrote {r['path']}{extra}")
    if failure is not None:
        raise failure
    return 0


def _eval_one_seed(cfg: dict, ds: LabeledDataset, model: GnnClassifier,
                   seed: int) -> Optional[tuple[dict, dict]]:
    """(bookkeeping, metric fields) of the seed, None without an artifact."""
    path = _posterior_path(cfg, seed)
    if not os.path.isfile(path):
        return None
    post = bayes.load_posterior(path)
    _check_artifact(cfg, model, post, path, seed)
    manifest = _ensure_manifest(cfg, ds, seed)
    test_idx = manifest["test"] or manifest["valid"]
    if not test_idx:
        raise DataError(f"seed {seed}: no held-out molecules to evaluate")
    graphs, labels = _featurized(ds, test_idx)
    pred = bayes.predictive(model, post, cfg["mode"],
                            _batches(graphs, labels, cfg["batch_size"]),
                            seed, cfg["eval_samples"], cfg["workers"])
    fields, confusion = metrics.eval_report(pred.mean, labels)
    digest = config_digest(cfg)
    _write_histogram(
        os.path.join(cfg["out_dir"], f"{cfg['mode']}_seed{seed}_confusion"),
        digest, confusion, f"{cfg['mode']} seed {seed} [config {digest}]")
    return {"seed": seed, "n_eval": len(test_idx),
            "n_draws": pred.n_samples}, fields


def cmd_eval(cfg: dict, args: argparse.Namespace) -> int:
    ds = _load(cfg)
    model = _model_for(cfg, ds.n_tasks)
    rows, scored, missing = [], [], []
    for seed in cfg["seeds"]:
        result = _eval_one_seed(cfg, ds, model, seed)
        if result is None:
            missing.append(seed)
            continue
        bookkeeping, fields = result
        rows.append({**bookkeeping, **fields})
        scored.append(fields)
    if not rows:
        raise DataError(
            f"no posterior artifacts found under {cfg['out_dir']} for "
            f"mode {cfg['mode']!r} and seeds {cfg['seeds']}")
    report = {"config_digest": config_digest(cfg), "mode": cfg["mode"],
              "per_seed": rows, "aggregate":
              metrics.aggregate_across_seeds(scored),
              "missing_seeds": missing}
    path = os.path.join(cfg["out_dir"], f"eval_{cfg['mode']}.json")
    _write_json(path, report)
    agg = report["aggregate"]
    for name in ("ece", "auroc", "accuracy"):
        if name in agg:
            print(f"{name}: {agg[name]['mean']:.4f} "
                  f"+/- {agg[name]['std']:.4f} (n={agg[name]['n']})")
    if missing:
        print(f"missing artifacts for seeds {missing}")
    print(f"wrote {path}")
    return 0


def cmd_screen(cfg: dict, args: argparse.Namespace) -> int:
    if not args.library:
        raise ConfigError("screen needs --library <smiles file>")
    if not os.path.isfile(args.library):
        raise ConfigError(f"library file not found: {args.library}")
    smiles, molecules, n_dropped = [], [], 0
    # newline=None splits lines at \n, \r\n and \r, as text-mode files do
    for line in io.StringIO(artifacts.read_text(args.library), newline=None):
        token = line.split()[0] if line.split() else ""
        if not token or token.startswith("#"):
            continue
        try:
            molecules.append(parse_smiles(token))
        except SmilesError:
            n_dropped += 1
            continue
        smiles.append(token)
    if not smiles:
        raise DataError(f"library {args.library} has no parseable "
                        f"molecules ({n_dropped} lines dropped)")
    seed = cfg["seeds"][0]
    path = args.posterior or _posterior_path(cfg, seed)
    if not os.path.isfile(path):
        raise ConfigError(f"posterior artifact not found: {path}")
    post = bayes.load_posterior(path)
    n_tasks = post.meta.get("n_tasks", 1)    # checked by load_posterior
    model = _model_for(cfg, n_tasks)
    # --posterior may name any seed's artifact
    _check_artifact(cfg, model, post, path,
                    None if args.posterior else seed)
    unlabeled = np.full((len(molecules), n_tasks), np.nan)
    pred = bayes.predictive(model, post, cfg["mode"],
                            _batches(featurize(molecules), unlabeled,
                                     cfg["batch_size"]),
                            seed, cfg["eval_samples"], cfg["workers"])
    probs = pred.mean[:, 0]
    spread = pred.uncertainty[:, 0]
    digest = config_digest(cfg)
    base = os.path.join(cfg["out_dir"], f"screen_{cfg['mode']}")
    artifacts.write_file(
        f"{base}_ranking.csv", f"# config_digest={digest}\n",
        "smiles,probability,uncertainty\n",
        *(f"{smiles[i]},{probs[i]:.6f},{spread[i]:.6f}\n"
          for i in np.argsort(-probs, kind="stable")))

    summary = metrics.screening_summary(probs)
    counts = summary.pop("counts")
    _write_json(f"{base}_summary.json", {
        "config_digest": digest, "mode": cfg["mode"],
        "posterior": os.path.basename(path), "n_dropped": n_dropped,
        "n_draws": pred.n_samples, **summary})
    _write_histogram(
        f"{base}_hist", digest, {"count": counts},
        f"screening probabilities ({cfg['mode']}) [config {digest}]")
    print(f"screened {summary['n_total']} molecules ({n_dropped} dropped): "
          f"{summary['n_below']} below {summary['low']}, "
          f"{summary['n_above']} above {summary['high']}")
    print(f"wrote {base}_ranking.csv")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molbayes",
        description="Train graph networks on molecular data under "
                    "approximate Bayesian modes and report calibration.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"split": "write per-seed scaffold-split manifests",
             "train": "fit one posterior artifact per seed",
             "eval": "score posteriors on held-out scaffolds",
             "screen": "rank an unlabeled SMILES library"}
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key by dotted path")
        sp.add_argument("--mode", help="bayes mode, e.g. none or swag")
        sp.add_argument("--arch", help="gnn architecture, e.g. gin")
        sp.add_argument("--seeds", "--seed", dest="seeds",
                        help="comma-separated seed list")
        sp.add_argument("--out", help="output directory")
        if name == "screen":
            sp.add_argument("--library",
                            help="SMILES file, one molecule per line")
            sp.add_argument("--posterior",
                            help="posterior artifact to screen with")
        else:
            sp.set_defaults(library=None, posterior=None)
    return parser


# glibc mallopt parameters: blocks below the mmap threshold come from the
# heap, and the heap is returned to the OS only past the trim threshold,
# so the multi-MB temporaries of each op reuse pages the process holds
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20      # glibc's largest allowed value on 64-bit
TRIM_THRESHOLD = 1 << 30


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process instead of faulting it back
    in on the next op; forked workers inherit the setting. A no-op off
    glibc. Allocation never changes arithmetic, so no output depends on
    it."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    commands = {"split": cmd_split, "train": cmd_train,
                "eval": cmd_eval, "screen": cmd_screen}
    try:
        return commands[args.command](resolve_config(args), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
