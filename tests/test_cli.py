"""End-to-end command tests on the synthetic corpus.

Every test goes through cli.main so exit codes and argument plumbing
are exercised exactly as a shell user would hit them.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from molbayes import artifacts, bayes, chem, cli, gnn, metrics
from molbayes.errors import ConfigError, NumericError
from conftest import synthetic_rows

N_ROWS = len(synthetic_rows())


def _args(csv, out, *extra):
    # tiny model and explicit column mapping shared by every command
    return ["--set", "dataset.smiles_column=smiles",
            "--set", 'dataset.label_columns=["activity"]',
            *_tiny(csv, out, *extra)]


def _tiny(csv, out, *extra):
    # the tiny model, over the columns the dataset's name selects
    return ["--set", f"dataset.path={csv}",
            "--set", "model.hidden_dim=8",
            "--set", "model.graph_dim=8",
            "--set", "model.n_layers=1",
            "--set", "model.n_heads=2",
            "--set", "model.dropout=0.0",
            "--set", "batch_size=32",
            "--out", str(out), *extra]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# split


def test_split_writes_partition_manifests(synthetic_csv, tmp_path):
    rc = cli.main(["split", *_args(synthetic_csv, tmp_path),
                   "--seeds", "0,1"])
    assert rc == 0
    for seed in (0, 1):
        manifest = _read_json(tmp_path / f"split_seed{seed}.json")
        parts = [manifest["train"], manifest["valid"], manifest["test"]]
        joined = sorted(i for part in parts for i in part)
        assert joined == list(range(N_ROWS))
        assert manifest["summary"]["n_scaffolds"] == 17
        assert manifest["split_digest"]


def test_split_seeds_differ(synthetic_csv, tmp_path):
    assert cli.main(["split", *_args(synthetic_csv, tmp_path),
                     "--seeds", "0,1"]) == 0
    a = _read_json(tmp_path / "split_seed0.json")
    b = _read_json(tmp_path / "split_seed1.json")
    assert a["train"] != b["train"] or a["test"] != b["test"]


def test_split_all_train_ratio(synthetic_csv, tmp_path):
    rc = cli.main(["split", *_args(synthetic_csv, tmp_path),
                   "--seeds", "3",
                   "--set", "split.ratios=[1,0,0]"])
    assert rc == 0
    manifest = _read_json(tmp_path / "split_seed3.json")
    assert manifest["valid"] == [] and manifest["test"] == []
    assert sorted(manifest["train"]) == list(range(N_ROWS))


def test_split_missing_file_exits_2(tmp_path):
    rc = cli.main(["split", *_args(tmp_path / "nope.csv", tmp_path)])
    assert rc == 2


def test_malformed_labels_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("smiles,activity\nCCO,5\nCC,0\n")
    rc = cli.main(["split", *_args(bad, tmp_path), "--seeds", "0"])
    assert rc == 3


def test_unknown_config_key_exits_2(synthetic_csv, tmp_path):
    rc = cli.main(["split", *_args(synthetic_csv, tmp_path),
                   "--set", "no_such_key=1"])
    assert rc == 2


def test_bad_values_exit_2(synthetic_csv, tmp_path):
    base = _args(synthetic_csv, tmp_path)
    assert cli.main(["split", *base, "--set", "seeds=[]"]) == 2
    assert cli.main(["split", *base, "--set", "batch_size=0"]) == 2
    assert cli.main(["train", *base, "--mode", "laplace"]) == 2
    assert cli.main(["train", *base,
                     "--set", "schedule.warmup=3"]) == 2
    assert cli.main(["eval", *base,
                     "--set", "schedule.eval_samples=8"]) == 2
    assert cli.main(["split", *base, "--set", "schedule.epochs=many"]) == 2
    for draws in ("-1", "2.5", "many"):
        assert cli.main(["split", *base,
                         "--set", f"eval_samples={draws}"]) == 2
    for members in ('"x"', "2.5", "1"):
        assert cli.main(["split", *base,
                         "--set", f"ensemble_members={members}"]) == 2
    for expr in ('split.ratios=["a","b","c"]', "split.ratios=[-0.5,1,0.5]",
                 'workers="x"', "workers=-1", "workers=2.5",
                 'schedule.lr="x"', "schedule.cadence=2.5",
                 'schedule.decay_points="80"', 'model.hidden_dim="x"',
                 "model.n_layers=1.5", 'model.dropout="x"', 'kl_scale="x"',
                 # JSON booleans are not integers or numbers
                 "seeds=[true]", "batch_size=true", "workers=true",
                 "model.n_layers=true", "schedule.cadence=true",
                 "kl_scale=true",
                 # schedules that would fail inside training
                 "schedule.lr=-0.1", "schedule.weight_decay=-1e-4"):
        assert cli.main(["train", *base, "--set", expr]) == 2, expr
    for expr in ("schedule.cycle_len=1", "schedule.swag_rank=0",
                 "schedule.cyclic_high=-0.1", "schedule.cyclic_from=-3"):
        assert cli.main(["train", *base, "--mode", "swag",
                         "--set", expr]) == 2, expr
    # a section or key of the wrong shape, ratios that do not sum to 1,
    # and a model, schedule or prior that would only fail after the
    # manifests were written, or not at all
    for argv in (["--set", "schedule=5"], ["--set", "model=5"],
                 ["--set", "split=[1]"], ["--set", "out_dir=5"],
                 ["--set", "split.ratios=[0.5,0.5,0.5]"],
                 ["--set", "split.ratios=[NaN,0,1]"],
                 ["--set", "model.hidden_dim=0"],
                 ["--set", 'model.architecture="xyz"'],
                 ["--set", "model.dropout=1.5"],
                 ["--arch", "gat", "--set", "model.n_heads=3"],
                 ["--mode", "bbb", "--set", "prior_sigma=0"],
                 ["--mode", "bbb", "--set", "prior_sigma=NaN"],
                 ["--mode", "bbb", "--set", "kl_scale=-1"],
                 ["--mode", "bbb", "--set", "schedule.train_samples=0"],
                 ["--mode", "bbb", "--set", "schedule.lr=Infinity"],
                 ["--set", "schedule.decay_points=[-5]"],
                 ["--set", "seeds=[-1]"], ["--set", "swag_scale=1.0"]):
        for command in ("split", "train"):
            assert cli.main([command, *base, *argv]) == 2, argv
    assert not list(tmp_path.iterdir())


def test_seeds_must_fit_in_32_bits(synthetic_csv, tmp_path, capsys):
    # a stream's entropy is the seed's 32-bit words, zero-padded: seed
    # 2**32 + 5 would initialize from seed 5's shuffle stream
    assert (bayes.stream(2**32 + 5, "init").random(3).tobytes()
            == bayes.stream(5, "shuffle").random(3).tobytes())
    base = _args(synthetic_csv, tmp_path)
    assert cli.main(["split", *base, "--seeds", "4294967296"]) == 2
    assert "seeds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert cli.main(["split", *base, "--seeds", "4294967295"]) == 0
    assert (tmp_path / "split_seed4294967295.json").is_file()


def _dotted_keys(node: dict, path: str = ""):
    for key, value in node.items():
        yield path + key
        if isinstance(value, dict):
            yield from _dotted_keys(value, f"{path}{key}.")


# every section and leaf of the defaults, every schedule field, and the
# custom dataset column keys
CONFIG_KEYS = sorted({*_dotted_keys(cli.DEFAULT_CONFIG),
                      *(f"schedule.{f.name}"
                        for f in fields(bayes.TrainSchedule)),
                      "dataset.smiles_column", "dataset.label_columns"})
# floats() includes NaN and +-inf, which json.dumps writes as NaN/Infinity
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), JSON_VALUES),
                min_size=1, max_size=3))
def test_any_set_value_resolves_or_is_a_config_error(pairs):
    argv = ["train"]
    for key, value in pairs:
        argv += ["--set", f"{key}={json.dumps(value)}"]
    try:
        cli.resolve_config(cli.build_parser().parse_args(argv))
    except ConfigError:
        pass


@pytest.mark.parametrize("key, value", [
    ("dataset.label_columns", '"activity"'),
    ("dataset.label_columns", "[]"),
    ("dataset.label_columns", "[1]"),
    ("dataset.smiles_column", "7"),
])
def test_dataset_columns_must_be_strings(synthetic_csv, tmp_path, capsys,
                                         key, value):
    rc = cli.main(["split", *_args(synthetic_csv, tmp_path),
                   "--set", f"{key}={value}"])
    assert rc == 2
    assert key in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train + eval


def _train_eval(csv, out, mode, seeds, *extra):
    # a view mode (swa) is evaluated from the mode it is read from
    trained = bayes.VIEWS[mode][0] if mode in bayes.VIEWS else mode
    train_argv = ["train", *_args(csv, out, *extra),
                  "--mode", trained, "--arch", "gcn", "--seeds", seeds]
    rc = cli.main(train_argv)
    if rc == 0:
        rc = cli.main(["eval", *_args(csv, out, *extra),
                       "--mode", mode, "--arch", "gcn", "--seeds", seeds])
    return rc


def test_train_eval_map(synthetic_csv, tmp_path):
    rc = _train_eval(synthetic_csv, tmp_path, "none", "0,1",
                     "--set", "schedule.epochs=4")
    assert rc == 0
    for seed in (0, 1):
        assert (tmp_path / f"none_seed{seed}.post").is_file()
        log = _read_json(tmp_path / f"none_seed{seed}_log.json")
        assert len(log["epochs"]) == 4
        assert all("loss" in e and "lr" in e for e in log["epochs"])
        assert "valid_auroc" in log["epochs"][-1]
        assert (tmp_path / f"none_seed{seed}_confusion.csv").is_file()
    report = _read_json(tmp_path / "eval_none.json")
    assert report["missing_seeds"] == []
    assert len(report["per_seed"]) == 2
    for row in report["per_seed"]:
        assert 0.0 <= row["ece"] <= 1.0
        assert 0.0 <= row["auroc"] <= 1.0
        assert row["n_draws"] == 1
    agg = report["aggregate"]
    assert agg["ece"]["n"] == 2 and agg["auroc"]["n"] == 2
    assert report["config_digest"]


def test_eval_aggregate_holds_only_the_metric_fields(trained_point_dir):
    report = _read_json(trained_point_dir / "eval_none.json")
    metric_fields = {"ece", "auroc", "accuracy", "precision", "recall", "f1",
                     "extreme_fraction"}
    assert set(report["aggregate"]) == metric_fields
    # the bookkeeping stays in each seed's row
    assert set(report["per_seed"][0]) == metric_fields | {"seed", "n_eval",
                                                          "n_draws"}


def test_confusion_csv_embeds_digest(synthetic_csv, tmp_path):
    assert _train_eval(synthetic_csv, tmp_path, "none", "0",
                       "--set", "schedule.epochs=2") == 0
    lines = (tmp_path / "none_seed0_confusion.csv").read_text().splitlines()
    report = _read_json(tmp_path / "eval_none.json")
    assert lines[0] == f"# config_digest={report['config_digest']}"
    assert lines[1] == "bin_low,bin_high,tp,fp,tn,fn"
    assert len(lines) == 22


def test_two_task_eval_is_the_macro_average_of_the_stored_posterior(
        tmp_path):
    # the second task leaves every third cell empty, so each metric
    # averages over the labelled cells of each task
    csv = tmp_path / "two_tasks.csv"
    csv.write_text("smiles,activity,ring\n" + "".join(
        f"{smi},{label},{'' if i % 3 == 0 else int('1' in smi)}\n"
        for i, (smi, label) in enumerate(synthetic_rows())))
    out = tmp_path / "out"
    args = _args(csv, out, "--set",
                 'dataset.label_columns=["activity", "ring"]',
                 "--set", "schedule.epochs=2", "--seeds", "0,1")
    for command in (["split"], ["train", "--mode", "none", "--arch", "gcn"],
                    ["eval", "--mode", "none", "--arch", "gcn"]):
        assert cli.main([*command, *args]) == 0
    ds = chem.load_dataset(str(csv), "smiles", ["activity", "ring"])
    model = gnn.GnnClassifier(gnn.ModelConfig(
        "gcn", hidden_dim=8, graph_dim=8, n_layers=1, n_heads=2, n_tasks=2,
        dropout=0.0))
    report = _read_json(out / "eval_none.json")
    assert [row["seed"] for row in report["per_seed"]] == [0, 1]
    for row in report["per_seed"]:
        manifest = _read_json(out / f"split_seed{row['seed']}.json")
        idx = manifest["test"] or manifest["valid"]
        point = bayes.load_posterior(
            str(out / f"none_seed{row['seed']}.post")).point
        graphs = chem.featurize([ds.molecules[i] for i in idx])
        labels = ds.labels[idx]
        assert np.isnan(labels[:, 1]).any()
        probs = np.vstack([model.predict_proba(point, gnn.make_batch(
            graphs[lo:lo + 32], labels[lo:lo + 32]))
            for lo in range(0, len(idx), 32)])
        present = ~np.isnan(labels)
        want = {"ece": metrics.macro_average(metrics.ece, probs, labels),
                "auroc": metrics.macro_average(metrics.auroc, probs, labels),
                "extreme_fraction": metrics.screening_summary(
                    probs[present])["extreme_fraction"]}
        want.update(zip(("accuracy", "precision", "recall", "f1"),
                        metrics.macro_average(metrics.classification_metrics,
                                              probs, labels)))
        assert {k: row[k] for k in want} == want
    assert report["aggregate"]["ece"]["n"] == 2


def test_validation_auroc_is_the_predictive_of_the_stored_point(
        synthetic_csv, tmp_path):
    args = _args(synthetic_csv, tmp_path, "--set", "schedule.epochs=2",
                 "--mode", "none", "--arch", "gcn", "--seeds", "0")
    assert cli.main(["train", *args]) == 0
    log = _read_json(tmp_path / "none_seed0_log.json")
    valid = _read_json(tmp_path / "split_seed0.json")["valid"]
    ds = chem.load_dataset(synthetic_csv, "smiles", ["activity"])
    graphs, labels = ds.graphs(valid), ds.labels[valid]
    batches = [gnn.make_batch(graphs[lo:lo + 32], labels[lo:lo + 32])
               for lo in range(0, len(valid), 32)]
    model = gnn.GnnClassifier(gnn.ModelConfig(
        "gcn", hidden_dim=8, graph_dim=8, n_layers=1, n_heads=2, n_tasks=1,
        dropout=0.0))
    point = bayes.load_posterior(str(tmp_path / "none_seed0.post"))
    probs = bayes.predictive(model, point, "none", batches, 0).mean
    assert log["epochs"][-1]["valid_auroc"] == metrics.macro_average(
        metrics.auroc, probs, labels)


def test_single_class_held_out_labels_leave_auroc_out_of_the_aggregate(
        tmp_path):
    csv = tmp_path / "corpus.csv"
    rows = synthetic_rows()

    def write(labels):
        csv.write_text("smiles,activity\n" + "".join(
            f"{smi},{label}\n" for (smi, _), label in zip(rows, labels)))

    write([label for _, label in rows])
    args = _args(csv, tmp_path, "--set", "schedule.epochs=2",
                 "--mode", "none", "--arch", "gcn", "--seeds", "0,1")
    assert cli.main(["train", *args]) == 0
    tests = [_read_json(tmp_path / f"split_seed{seed}.json")["test"]
             for seed in (0, 1)]
    # seed 0's held-out molecules become actives; the digests cover the
    # config, not the file's contents, so the stored artifacts still load
    labels = [1 if i in tests[0] else label
              for i, (_, label) in enumerate(rows)]
    assert len({labels[i] for i in tests[1]}) == 2
    write(labels)
    assert cli.main(["eval", *args]) == 0
    report = _read_json(tmp_path / "eval_none.json")
    first, second = report["per_seed"]
    assert first["auroc"] is None and 0.0 <= first["ece"] <= 1.0
    assert second["auroc"] is not None
    agg = report["aggregate"]
    assert agg["auroc"] == {"mean": second["auroc"], "std": 0.0, "n": 1}
    assert agg["ece"]["n"] == 2
    assert agg["ece"]["mean"] == float(np.mean([first["ece"],
                                                second["ece"]]))


def test_train_determinism_across_runs_and_workers(synthetic_csv, tmp_path):
    extra = ("--set", "schedule.epochs=3")
    dirs = [tmp_path / name for name in ("a", "b")]
    for out, workers in zip(dirs, (1, 2)):
        rc = cli.main(["train", *_args(synthetic_csv, out, *extra),
                       "--mode", "none", "--arch", "gcn", "--seeds", "0,1",
                       "--set", f"workers={workers}"])
        assert rc == 0
        rc = cli.main(["eval", *_args(synthetic_csv, out, *extra),
                       "--mode", "none", "--arch", "gcn", "--seeds", "0,1"])
        assert rc == 0
    for name in ("none_seed0.post", "none_seed1.post", "eval_none.json"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"


# env: what the process finds of OpenBLAS, the thread count it reports,
# or nothing where no OpenBLAS control is found
@pytest.mark.parametrize("cores, env, workers, n_seeds, expected", [
    (2, {"openblas_threads": 2}, 0, 2, 1),   # BLAS takes both cores
    (2, {"openblas_threads": 1}, 0, 2, 2),
    (8, {"openblas_threads": 2}, 0, 8, 4),
    (8, {"openblas_threads": 2}, 0, 3, 3),   # never more than the seeds
    (8, {"openblas_threads": 1}, 0, 8, 8),
    (8, {"openblas_threads": 4}, 0, 8, 2),
    (2, {"openblas_threads": 4}, 0, 2, 1),   # more threads than cores
    (None, {"openblas_threads": 1}, 0, 2, 1),  # core count unknown
    (2, {}, 3, 8, 3),                        # an explicit count stands
    (2, {"openblas_threads": 1}, 1, 8, 1),
    (2, {}, 5, 2, 2),
    (8, {}, 0, 8, 1),                        # BLAS threads unknown
])
def test_worker_count(monkeypatch, cores, env, workers, n_seeds, expected):
    # cores come from the affinity set, never the host's larger count;
    # without an affinity call, from the host's count, which may be unknown
    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    threads = env.get("openblas_threads")
    blas = None if threads is None else (lambda: threads, None)
    monkeypatch.setattr(bayes, "openblas_threads", lambda: blas)
    assert cli._worker_count(workers, n_seeds) == expected


@pytest.mark.parametrize("var", ["MKL_NUM_THREADS", "GOTO_NUM_THREADS"])
def test_worker_count_follows_the_threads_openblas_runs(var):
    # OpenBLAS reads GOTO_NUM_THREADS but not MKL_NUM_THREADS, so a guess
    # from the variables is wrong one way or the other
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")])
    code = ("from molbayes import bayes, cli\n"
            "blas = bayes.openblas_threads()\n"
            "print(bayes.cores(), blas and blas[0](), "
            "cli._worker_count(0, 64))")
    cores, threads, workers = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout.split()
    expected = 1 if threads == "None" else max(1, int(cores) // int(threads))
    assert int(workers) == expected


def test_pinned_blas_pool_matches_serial(synthetic_csv, tmp_path):
    # with BLAS pinned to one thread the default count trains on a pool
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(cli.__file__)),
                    os.environ.get("PYTHONPATH", "")]))
    dirs = [tmp_path / "default", tmp_path / "serial"]
    for out, extra in zip(dirs, ((), ("--set", "workers=1"))):
        subprocess.run(
            [sys.executable, "-m", "molbayes", "train",
             *_args(synthetic_csv, out, "--set", "schedule.epochs=2"),
             "--mode", "none", "--arch", "gcn", "--seeds", "0,1", *extra],
            env=env, check=True, capture_output=True, timeout=300)
    for name in ("none_seed0.post", "none_seed1.post"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_draw_pool_holds_blas_to_one_thread_and_restores_it():
    blas = bayes.openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread control found in this process")
    get_threads, set_threads = blas
    original = get_threads()
    seen, failing = [], {2}

    def predict(flat, draw, i):
        seen.append(get_threads())
        if draw in failing:
            raise NumericError(f"pass {draw} failed")
        return np.full((1, 1), 0.5)

    passes = bayes.PosteriorRepresentation(mode="samples", digest="d",
                                           samples=np.zeros((4, 1)))
    point = bayes.PosteriorRepresentation(mode="point", digest="d",
                                          point=np.zeros(2))
    set_threads(2)
    try:
        with pytest.raises(NumericError, match="pass 2"):
            bayes.marginalize(predict, passes, 0, 4, 2)
        assert get_threads() == 2 and set(seen) == {1}
        seen.clear()
        failing.clear()
        assert bayes.marginalize(predict, passes, 0, 4, 3).n_samples == 4
        assert get_threads() == 2 and set(seen) == {1}
        # one draw over three batches: its batch runs share the pool
        seen.clear()
        assert bayes.marginalize(predict, point, 0, 4, 2, 3).mean.shape \
            == (3, 1)
        assert get_threads() == 2 and seen == [1] * 3
        # one draw of one batch, or one worker: no pool and no change to
        # BLAS
        seen.clear()
        bayes.marginalize(predict, point, 0, 4, 0)
        bayes.marginalize(predict, passes, 0, 4, 1, 3)
        assert seen == [2] * 13
    finally:
        set_threads(original)


def test_importing_the_cli_leaves_the_pool_module_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, molbayes.cli; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False"


def _no_libc(name):
    raise OSError(f"cannot load {name}")


@pytest.mark.parametrize("load", [_no_libc, lambda name: object()],
                         ids=["no-libc", "no-mallopt"])
def test_commands_run_without_the_allocator_policy(
        synthetic_csv, trained_point_dir, tmp_path, monkeypatch, load):
    library = tmp_path / "library.smi"
    library.write_text("CCO\nc1ccccc1O\nC1CCNCC1\n")
    calls = []
    outs = [tmp_path / "policy", tmp_path / "without"]
    for out in outs:
        cli._keep_freed_memory.cache_clear()
        assert _screen(synthetic_csv, trained_point_dir, out, library) == 0
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: calls.append(name) or load(name))
    assert calls == ["libc.so.6"]
    names = sorted(os.listdir(outs[0]))
    assert names and names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_reports_each_seed_when_one_fails(synthetic_csv, tmp_path,
                                                 monkeypatch, capsys):
    train = bayes.train

    def failing_for_seed_1(model, epoch_batches, n_examples, schedule, seed,
                           **kwargs):
        if seed == 1:
            raise NumericError("training diverged (loss nan) at epoch 1")
        return train(model, epoch_batches, n_examples, schedule, seed,
                     **kwargs)

    monkeypatch.setattr(bayes, "train", failing_for_seed_1)
    rc = cli.main(["train", *_args(synthetic_csv, tmp_path),
                   "--mode", "none", "--arch", "gcn", "--seeds", "0,1",
                   "--set", "schedule.epochs=1", "--set", "workers=1"])
    out, err = capsys.readouterr()
    assert rc == 4
    assert f"seed 0: wrote {tmp_path / 'none_seed0.post'}" in out
    assert "seed 1: wrote" not in out
    assert "seed 1: failed" in err
    assert (tmp_path / "none_seed0.post").is_file()
    assert not (tmp_path / "none_seed1.post").exists()


def test_each_molecule_parsed_once_per_command(synthetic_csv, tmp_path,
                                               monkeypatch):
    calls: dict = {}

    def counted(name, fn):
        # featurize takes a list of molecules: each one in it counts
        def wrapper(arg):
            calls.setdefault(name, []).extend(
                arg if isinstance(arg, list) else [arg])
            return fn(arg)
        return wrapper

    for name in ("parse_smiles", "featurize", "murcko_scaffold"):
        wrapper = counted(name, getattr(chem, name))
        monkeypatch.setattr(chem, name, wrapper)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapper)
    base = [*_args(synthetic_csv, tmp_path, "--set", "schedule.epochs=1"),
            "--mode", "none", "--arch", "gcn", "--seeds", "0,1"]
    for command, extra in (("split", ()), ("train", ("--set", "workers=1")),
                           ("eval", ())):
        calls.clear()
        assert cli.main([command, *base, *extra]) == 0, command
        assert sorted(calls["parse_smiles"]) \
            == sorted(smi for smi, _ in synthetic_rows()), command
        for name in ("featurize", "murcko_scaffold"):
            # each molecule at most once: the dataset keeps every graph
            # alive, so distinct calls have distinct ids
            ids = [id(m) for m in calls.get(name, [])]
            assert len(ids) == len(set(ids)) <= N_ROWS, (command, name)
        if command == "split":
            assert len(calls["murcko_scaffold"]) == N_ROWS
        else:
            assert "murcko_scaffold" not in calls
            assert calls["featurize"]


def test_train_swa_exits_2_and_points_to_swag(synthetic_csv, tmp_path,
                                              capsys):
    rc = cli.main(["train", *_args(synthetic_csv, tmp_path),
                   "--mode", "swa", "--arch", "gcn", "--seeds", "0"])
    assert rc == 2
    assert "--mode swag" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_eval_rejects_other_config_digest(synthetic_csv, tmp_path):
    extra = ("--set", "schedule.epochs=2")
    rc = cli.main(["train", *_args(synthetic_csv, tmp_path, *extra),
                   "--mode", "none", "--arch", "gcn", "--seeds", "0"])
    assert rc == 0
    rc = cli.main(["eval", *_args(synthetic_csv, tmp_path, *extra),
                   "--mode", "none", "--arch", "gcn", "--seeds", "0",
                   "--set", "kl_scale=0.5"])    # changes the digest only
    assert rc == 2


def test_eval_missing_artifact_gives_partial_report(synthetic_csv,
                                                    tmp_path):
    extra = ("--set", "schedule.epochs=2")
    assert cli.main(["train", *_args(synthetic_csv, tmp_path, *extra),
                     "--mode", "none", "--arch", "gcn",
                     "--seeds", "0"]) == 0
    rc = cli.main(["eval", *_args(synthetic_csv, tmp_path, *extra),
                   "--mode", "none", "--arch", "gcn", "--seeds", "0,5"])
    assert rc == 0
    report = _read_json(tmp_path / "eval_none.json")
    assert report["missing_seeds"] == [5]
    assert len(report["per_seed"]) == 1
    assert report["aggregate"]["ece"]["n"] == 1
    assert report["aggregate"]["ece"]["std"] == 0.0


def test_eval_with_no_artifacts_exits_3(synthetic_csv, tmp_path):
    rc = cli.main(["eval", *_args(synthetic_csv, tmp_path),
                   "--mode", "none", "--seeds", "0"])
    assert rc == 3


def test_ensemble_member_artifacts_and_index(synthetic_csv, tmp_path):
    rc = _train_eval(synthetic_csv, tmp_path, "ensemble", "0",
                     "--set", "schedule.epochs=2",
                     "--set", "ensemble_members=3")
    assert rc == 0
    # the seed artifact holds every member; no per-member files
    post = bayes.load_posterior(str(tmp_path / "ensemble_seed0.post"))
    assert post.mode == "samples" and post.samples.shape[0] == 3
    assert len({member.tobytes() for member in post.samples}) == 3
    assert not list(tmp_path.glob("ensemble_seed0_member*"))
    report = _read_json(tmp_path / "eval_ensemble.json")
    assert report["per_seed"][0]["n_draws"] == 3


@pytest.fixture(scope="module")
def trained_point_dir(synthetic_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("point")
    assert _train_eval(synthetic_csv, out, "none", "0",
                       *TRAINED["none"]) == 0
    return out


# mode -> the config its seed-0 artifact is trained under, past _args
TRAINED = {
    "none": ("--set", "schedule.epochs=1"),
    "ensemble": ("--set", "schedule.epochs=1", "--set", "ensemble_members=3"),
    "mcdo": ("--set", "model.dropout=0.2", "--set", "schedule.epochs=1"),
    "swag": ("--set", "schedule.epochs=6", "--set", "schedule.lr=0.01",
             "--set", "schedule.cyclic_from=2", "--set", "schedule.cadence=2"),
}


@pytest.fixture(scope="module")
def trained_dir(synthetic_csv, trained_point_dir, tmp_path_factory):
    """mode -> a directory holding the mode's ``TRAINED`` artifact, made
    on first use."""
    dirs = {"none": trained_point_dir}

    def get(mode):
        if mode not in dirs:
            dirs[mode] = tmp_path_factory.mktemp(mode)
            assert _train_eval(synthetic_csv, dirs[mode], mode, "0",
                               *TRAINED[mode]) == 0
        return dirs[mode]
    return get


def _tail(csv, out, trained, mode, seeds="0"):
    """Arguments that read ``trained``'s ``TRAINED`` config under ``mode``
    for ``seeds``."""
    return [*_args(csv, out, *TRAINED[trained]), "--mode", mode,
            "--arch", "gcn", "--seeds", seeds]


def _with_n_tasks(value):
    return lambda h: {**h, "meta": {**h["meta"], "extra": {
        **h["meta"]["extra"], "n_tasks": value}}}


MALFORMED_HEADERS = {
    "no_arrays": lambda h: {k: v for k, v in h.items() if k != "arrays"},
    "float32_tag": lambda h: {**h, "arrays": [
        {**a, "dtype": "float32"} for a in h["arrays"]]},
    "no_mode": lambda h: {**h, "meta": {
        k: v for k, v in h["meta"].items() if k != "mode"}},
    "unknown_array": lambda h: {**h, "arrays": [
        {**a, "name": "weights"} for a in h["arrays"]]},
    "list_header": lambda h: [h],
    "short_point": lambda h: {**h, "arrays": [
        {**a, "shape": [a["shape"][0] - 1]} for a in h["arrays"]]},
    "flat_swag_dev": lambda h: {
        **h, "meta": {**h["meta"], "mode": "swag", "swag_rank": 20},
        "arrays": [{**h["arrays"][0], "name": name} for name in
                   ("swag_dev", "swag_mean", "swag_sq_mean")]},
    "samples_mode_over_point": lambda h: {
        **h, "meta": {**h["meta"], "mode": "samples"}},
    "swag_rank_below_columns": lambda h: {
        **h, "meta": {**h["meta"], "mode": "swag", "swag_rank": 1},
        "arrays": [{**h["arrays"][0], "name": "swag_dev",
                    "shape": [h["arrays"][0]["shape"][0], 2]}]
        + [{**h["arrays"][0], "name": name}
           for name in ("swag_mean", "swag_sq_mean")]},
    "bool_dimension": lambda h: {**h, "arrays": [
        {**a, "shape": [True]} for a in h["arrays"]]},
    "bool_swag_rank": lambda h: {
        **h, "meta": {**h["meta"], "swag_rank": True}},
    "fractional_swag_rank": lambda h: {
        **h, "meta": {**h["meta"], "swag_rank": 2.5}},
    "n_tasks_string": _with_n_tasks("x"),
    "n_tasks_bool": _with_n_tasks(True),
    "n_tasks_zero": _with_n_tasks(0),
    "n_tasks_negative": _with_n_tasks(-1),
    "n_tasks_fractional": _with_n_tasks(1.5),
    "empty_samples": lambda h: {
        **h, "meta": {**h["meta"], "mode": "samples"},
        "arrays": [{**a, "name": "samples", "shape": [0, a["shape"][0]]}
                   for a in h["arrays"]]},
    "int64_tag": lambda h: {**h, "arrays": [
        {**a, "dtype": "int64"} for a in h["arrays"]]},
    # empty shapes numpy cannot hold: each passes the byte count
    "dimension_overflow": lambda h: {**h, "arrays": [
        {**a, "shape": [0, 2 ** 63]} for a in h["arrays"]]},
    "seventy_dimensions": lambda h: {**h, "arrays": [
        {**a, "shape": [0] * 70} for a in h["arrays"]]},
    "array_too_big": lambda h: {**h, "arrays": [
        {**a, "shape": [2 ** 62, 0, 5]} for a in h["arrays"]]},
}
# body edits that keep each doctored header's byte count honest
MALFORMED_BODIES = {"short_point": lambda body: body[:-8],
                    "empty_samples": lambda body: b"",
                    "bool_dimension": lambda body: body[:8],
                    "flat_swag_dev": lambda body: body * 3,
                    "swag_rank_below_columns": lambda body: body * 4}


def _as_point(post):
    return bayes.PosteriorRepresentation(
        mode="point", digest=post.digest, point=post.swag_mean,
        meta=post.meta)


def _as_one_sample(post):
    return bayes.PosteriorRepresentation(
        mode="samples", digest=post.digest, samples=post.point[None],
        meta=post.meta)


# well-formed artifacts of a kind their mode does not write, header meta
# kept: case -> (mode trained, mode read under, rewrite)
WRONG_KINDS = {"swag_as_point": ("swag", "swag", _as_point),
               "mcdo_as_samples": ("mcdo", "mcdo", _as_one_sample),
               "swag_as_point_under_swa": ("swag", "swa", _as_point)}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS)
                         + sorted(WRONG_KINDS))
def test_malformed_posterior_exits_3(synthetic_csv, trained_dir, tmp_path,
                                     case):
    trained, mode, rewrite = WRONG_KINDS.get(case, ("none", "none", None))
    shutil.copytree(trained_dir(trained), tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{trained}_seed0.post"
    if rewrite is not None:
        bayes.save_posterior(str(path),
                             rewrite(bayes.load_posterior(str(path))))
    else:
        raw = path.read_bytes()
        off = len(artifacts.MAGIC)
        end = off + 8 + int.from_bytes(raw[off:off + 8], "little")
        header = json.dumps(MALFORMED_HEADERS[case](
            json.loads(raw[off + 8:end]))).encode()
        body = MALFORMED_BODIES.get(case, lambda b: b)(raw[end:])
        path.write_bytes(raw[:off] + len(header).to_bytes(8, "little")
                         + header + body)
    library = tmp_path / "library.smi"
    library.write_text("CCO\n")
    tail = _tail(synthetic_csv, tmp_path, trained, mode)
    assert cli.main(["eval", *tail]) == 3
    assert cli.main(["screen", *tail, "--library", str(library)]) == 3


def test_swag_artifact_holds_low_rank_state(synthetic_csv, tmp_path):
    rc = _train_eval(synthetic_csv, tmp_path, "swag", "0",
                     "--set", "schedule.epochs=10",
                     "--set", "schedule.decay_points=[1]",
                     "--set", "schedule.cyclic_from=2",
                     "--set", "schedule.cycle_len=2",
                     "--set", "schedule.cadence=2",
                     "--set", "eval_samples=4")
    assert rc == 0
    post = bayes.load_posterior(str(tmp_path / "swag_seed0.post"))
    assert post.mode == "swag"
    assert post.swag_dev.shape[1] == 4     # snapshots at epochs 4,6,8,10
    assert post.swag_dev.shape[1] <= 20
    assert np.all(post.swag_sq_mean >= post.swag_mean ** 2 - 1e-12)
    report = _read_json(tmp_path / "eval_swag.json")
    assert report["per_seed"][0]["n_draws"] == 4


@pytest.mark.parametrize("mode,extra", [
    ("mcdo", ("--set", "model.dropout=0.2", "--set", "schedule.epochs=3",
              "--set", "eval_samples=4")),
    ("bbb", ("--set", "schedule.epochs=2", "--set", "eval_samples=4")),
    ("sgld", ("--set", "schedule.epochs=6", "--set", "schedule.burn_in=2",
              "--set", "schedule.cadence=2")),
    ("swa", ("--set", "schedule.epochs=10",
             "--set", "schedule.decay_points=[1]",
             "--set", "schedule.cyclic_from=2",
             "--set", "schedule.cycle_len=2",
             "--set", "schedule.cadence=2")),
])
def test_other_modes_roundtrip(synthetic_csv, tmp_path, mode, extra):
    rc = _train_eval(synthetic_csv, tmp_path, mode, "0", *extra)
    assert rc == 0
    report = _read_json(tmp_path / f"eval_{mode}.json")
    row = report["per_seed"][0]
    assert 0.0 <= row["ece"] <= 1.0
    expect = {"mcdo": 4, "bbb": 4, "sgld": 2, "swa": 1}[mode]
    assert row["n_draws"] == expect


def test_mcdo_without_dropout_exits_2(synthetic_csv, tmp_path, capsys):
    # _args sets model.dropout=0.0: mc dropout would train a MAP point and
    # report its identical passes as draws
    library = tmp_path / "library.smi"
    library.write_text("CCO\nc1ccccc1\n")
    base = _args(synthetic_csv, tmp_path, "--mode", "mcdo", "--seeds", "0")
    for argv in (["split", *base], ["train", *base], ["eval", *base],
                 ["screen", *base, "--library", str(library)]):
        assert cli.main(argv) == 2, argv[0]
        assert "model.dropout" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["library.smi"]
    assert cli.main(["split", *base, "--set", "model.dropout=0.1"]) == 0


def test_config_file_plus_set_override(synthetic_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"path": str(synthetic_csv), "smiles_column": "smiles",
                    "label_columns": ["activity"]},
        "model": {"architecture": "gcn", "hidden_dim": 16, "graph_dim": 8,
                  "n_layers": 1, "n_heads": 2, "dropout": 0.0},
        "schedule": {"epochs": 2},
        "seeds": [0],
        "out_dir": str(tmp_path),
    }))
    rc = cli.main(["train", "--config", str(cfg_path),
                   "--set", "model.hidden_dim=8"])
    assert rc == 0
    post = bayes.load_posterior(str(tmp_path / "none_seed0.post"))
    # hidden_dim 8 model is far smaller than the hidden_dim 16 one
    small = cli._model_for({"model": {
        "architecture": "gcn", "hidden_dim": 8, "graph_dim": 8,
        "n_layers": 1, "n_heads": 2, "dropout": 0.0}}, 1)
    assert post.point.size == small.n_params


@pytest.mark.parametrize("header, name, rc", [
    ("mol,Class", None, 0),           # the default name, bace
    ("smiles,p_np", "bbbp", 0),
    ("smiles,activity", "qm9", 2),
], ids=["bace", "bbbp", "unknown"])
def test_dataset_name_selects_its_columns(tmp_path, capsys, header, name,
                                          rc):
    csv = tmp_path / "named.csv"
    csv.write_text("".join(f"{row}\n" for row in [header, *(
        f"{smi},{label}" for smi, label in synthetic_rows())]))
    extra = () if name is None else ("--set", f"dataset.name={name}")
    base = _tiny(csv, tmp_path, *extra, "--set", "schedule.epochs=1",
                 "--arch", "gcn", "--seeds", "0")
    assert cli.main(["split", *base]) == rc
    assert cli.main(["train", *base]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert f"known: {sorted(chem.DATASET_COLUMNS)}" in err
    else:
        assert f"loaded {N_ROWS} molecules" in out
    assert (tmp_path / "none_seed0.post").is_file() == (rc == 0)


CORRUPT_MANIFESTS = {
    "not_json": lambda m: "{",
    "json_list": lambda m: json.dumps([m]),
    "index_past_end": lambda m: json.dumps(
        {**m, "train": m["train"] + [N_ROWS]}),
    "string_index": lambda m: json.dumps(
        {**m, "train": [str(i) for i in m["train"]]}),
    "bool_index": lambda m: json.dumps({**m, "valid": [True]}),
    "no_train": lambda m: json.dumps(
        {k: v for k, v in m.items() if k != "train"}),
    "no_summary": lambda m: json.dumps(
        {k: v for k, v in m.items() if k != "summary"}),
    "list_summary": lambda m: json.dumps({**m, "summary": [m["summary"]]}),
    "summary_without_sizes": lambda m: json.dumps({**m, "summary": {
        k: v for k, v in m["summary"].items() if k != "sizes"}}),
    "summary_warnings_not_strings": lambda m: json.dumps(
        {**m, "summary": {**m["summary"], "warnings": [1]}}),
    "deep_nesting": lambda m: "[" * 100_000,
    "index_in_train_and_test": lambda m: json.dumps(
        {**m, "test": m["test"] + m["train"][:1]}),
    "index_repeated": lambda m: json.dumps(
        {**m, "train": m["train"] + m["train"][:1]}),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_MANIFESTS))
def test_corrupt_manifest_exits_3(synthetic_csv, tmp_path, case):
    base = _args(synthetic_csv, tmp_path, "--set", "schedule.epochs=1",
                 "--seeds", "0")
    assert cli.main(["split", *base]) == 0
    path = tmp_path / "split_seed0.json"
    path.write_text(CORRUPT_MANIFESTS[case](_read_json(path)))
    assert cli.main(["split", *base]) == 3
    assert cli.main(["train", *base]) == 3


def test_manifest_digest_guard(synthetic_csv, tmp_path):
    base = _args(synthetic_csv, tmp_path)
    assert cli.main(["split", *base, "--seeds", "0"]) == 0
    # same out dir, different split ratios: the stale manifest must be
    # refused, not silently reused
    rc = cli.main(["split", *base, "--seeds", "0",
                   "--set", "split.ratios=[0.6,0.2,0.2]"])
    assert rc == 2


def test_manifest_of_another_seed_exits_3(synthetic_csv, tmp_path):
    base = _args(synthetic_csv, tmp_path, "--set", "schedule.epochs=1",
                 "--arch", "gcn")
    assert cli.main(["split", *base, "--seeds", "0"]) == 0
    shutil.copy(tmp_path / "split_seed0.json", tmp_path / "split_seed1.json")
    assert cli.main(["split", *base, "--seeds", "1"]) == 3
    assert cli.main(["train", *base, "--seeds", "1"]) == 3
    assert not (tmp_path / "none_seed1.post").exists()


def test_artifact_of_another_seed_exits_3(synthetic_csv, trained_dir,
                                          tmp_path):
    # seed 0's artifact under seed 1's name would count one seed twice
    shutil.copytree(trained_dir("none"), tmp_path, dirs_exist_ok=True)
    shutil.copy(tmp_path / "none_seed0.post", tmp_path / "none_seed1.post")
    tail = _tail(synthetic_csv, tmp_path, "none", "none", seeds="1")
    library = tmp_path / "library.smi"
    library.write_text("CCO\n")
    assert cli.main(["eval", *tail]) == 3
    assert cli.main(["screen", *tail, "--library", str(library)]) == 3
    # --posterior may name any seed's artifact
    assert cli.main(["screen", *tail, "--library", str(library),
                     "--posterior", str(tmp_path / "none_seed0.post")]) == 0


# ---------------------------------------------------------------------------
# screen


def test_screen_ranks_library(synthetic_csv, tmp_path):
    extra = ("--set", "schedule.epochs=2")
    assert cli.main(["train", *_args(synthetic_csv, tmp_path, *extra),
                     "--mode", "none", "--arch", "gcn", "--seeds", "0"]) == 0
    library = tmp_path / "library.smi"
    library.write_text("CCO\n\n# a comment line\nCCCCN\nnot_a_molecule(\n"
                       "c1ccccc1O\n")
    rc = cli.main(["screen", *_args(synthetic_csv, tmp_path, *extra),
                   "--mode", "none", "--arch", "gcn", "--seeds", "0",
                   "--library", str(library)])
    assert rc == 0
    lines = (tmp_path / "screen_none_ranking.csv").read_text().splitlines()
    assert lines[0].startswith("# config_digest=")
    assert lines[1] == "smiles,probability,uncertainty"
    assert len(lines) == 5        # three parseable molecules
    probs = [float(line.split(",")[1]) for line in lines[2:]]
    assert probs == sorted(probs, reverse=True)
    assert all(0.0 <= p <= 1.0 for p in probs)
    summary = _read_json(tmp_path / "screen_none_summary.json")
    assert summary["n_total"] == 3 and summary["n_dropped"] == 1
    assert summary["n_below"] + summary["n_above"] <= 3
    hist_lines = (tmp_path / "screen_none_hist.csv").read_text().splitlines()
    assert hist_lines[1] == "bin_low,bin_high,count"
    assert len(hist_lines) == 22
    svg = (tmp_path / "screen_none_hist.svg").read_text()
    assert svg.startswith("<svg") and summary["config_digest"] in svg


def test_screen_training_set_with_converged_model(synthetic_csv, tmp_path):
    # a point model fit to convergence on its own training molecules
    # should call most of them with extreme confidence
    extra = ("--set", "schedule.epochs=60", "--set", "schedule.lr=0.01",
             "--set", "split.ratios=[1,0,0]")
    assert cli.main(["train", *_args(synthetic_csv, tmp_path, *extra),
                     "--mode", "none", "--arch", "gcn", "--seeds", "0"]) == 0
    library = tmp_path / "train.smi"
    from conftest import synthetic_rows
    library.write_text("\n".join(s for s, _ in synthetic_rows()) + "\n")
    rc = cli.main(["screen", *_args(synthetic_csv, tmp_path, *extra),
                   "--mode", "none", "--arch", "gcn", "--seed", "0",
                   "--library", str(library)])
    assert rc == 0
    summary = _read_json(tmp_path / "screen_none_summary.json")
    assert summary["extreme_fraction"] > 0.5, summary


@pytest.mark.parametrize("workers", [1, 2])
def test_screen_nan_weight_exits_4(synthetic_csv, trained_dir, tmp_path,
                                   workers):
    # three ensemble members, the second with a NaN weight: the pool must
    # surface the non-finite mean as the serial loop does
    post = bayes.load_posterior(
        str(trained_dir("ensemble") / "ensemble_seed0.post"))
    samples = post.samples.copy()
    samples[1, 0] = np.nan
    path = tmp_path / "nan.post"
    bayes.save_posterior(str(path), bayes.PosteriorRepresentation(
        mode="samples", digest=post.digest, samples=samples,
        meta=post.meta))
    library = tmp_path / "library.smi"
    library.write_text("CCO\nc1ccccc1O\n")
    rc = cli.main(["screen",
                   *_tail(synthetic_csv, tmp_path, "ensemble", "ensemble"),
                   "--posterior", str(path), "--library", str(library),
                   "--set", f"workers={workers}"])
    assert rc == 4


@pytest.mark.parametrize("mode", ["none", "swa", "mcdo", "bbb", "swag"])
def test_eval_and_screen_do_not_depend_on_workers(synthetic_csv, tmp_path,
                                                  mode):
    # batches of two: eval and screen predict over several batches, so a
    # draw's batches run in parts when there are fewer draws than workers
    extra = ("--set", "model.dropout=0.2", "--set", "schedule.epochs=2",
             "--set", "eval_samples=5", "--set", "batch_size=2")
    if mode in ("swag", "swa"):
        # both epochs snapshot, at a rate the tiny model survives
        extra += ("--set", "schedule.cyclic_from=0",
                  "--set", "schedule.cadence=1", "--set", "schedule.lr=0.01")
    base = [*_args(synthetic_csv, tmp_path, *extra), "--arch", "gcn",
            "--seeds", "0"]
    library = tmp_path / "library.smi"
    library.write_text("CCO\nc1ccccc1O\nC1CCNCC1\nCCN\nC1CC1O\nOCCO\n")
    assert cli.main(["train", *base,
                     "--mode", bayes.trained_mode(mode)]) == 0
    outputs = (f"eval_{mode}.json", f"{mode}_seed0_confusion.csv",
               f"screen_{mode}_ranking.csv")
    runs = []
    for workers in (1, 2, 4):
        for command in (["eval"], ["screen", "--library", str(library)]):
            assert cli.main([*command, *base, "--mode", mode,
                             "--set", f"workers={workers}"]) == 0
        runs.append([(tmp_path / name).read_bytes() for name in outputs])
    assert runs[0] == runs[1] == runs[2]


def test_screen_empty_library_exits_3(synthetic_csv, tmp_path):
    extra = ("--set", "schedule.epochs=2")
    assert cli.main(["train", *_args(synthetic_csv, tmp_path, *extra),
                     "--mode", "none", "--arch", "gcn", "--seeds", "0"]) == 0
    library = tmp_path / "junk.smi"
    library.write_text("not_a_molecule(\n###\n")
    rc = cli.main(["screen", *_args(synthetic_csv, tmp_path, *extra),
                   "--mode", "none", "--arch", "gcn", "--seeds", "0",
                   "--library", str(library)])
    assert rc == 3


def test_screen_without_posterior_exits_2(synthetic_csv, tmp_path):
    library = tmp_path / "library.smi"
    library.write_text("CCO\n")
    rc = cli.main(["screen", *_args(synthetic_csv, tmp_path),
                   "--mode", "none", "--seeds", "0",
                   "--library", str(library)])
    assert rc == 2


# ---------------------------------------------------------------------------
# input files: every one read as strict UTF-8, every failure an exit code


@pytest.mark.parametrize("raw", [b'{"out_dir": "\xff"}', b"[" * 100_000],
                         ids=["non_utf8", "deep_nesting"])
def test_unreadable_config_exits_2(tmp_path, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    assert cli.main(["split", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("raw", [
    b"smiles,activity\nCC\xffO,1\nCC,0\n",
    # one field past csv's 131072-character limit
    b"smiles,activity\n" + b"C" * 131_073 + b",1\nCC,0\n",
], ids=["non_utf8", "field_over_limit"])
def test_unreadable_dataset_exits_3(tmp_path, raw):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    assert cli.main(["split", *_args(bad, tmp_path), "--seeds", "0"]) == 3


def test_non_ascii_smiles_digit_row_is_dropped(synthetic_csv, tmp_path,
                                               capsys):
    data = tmp_path / "data.csv"
    with open(synthetic_csv, encoding="utf-8") as fh:
        data.write_text(fh.read() + "C\u00b2,1\n", encoding="utf-8")
    assert cli.main(["split", *_args(data, tmp_path), "--seeds", "0"]) == 0
    assert "1 unparseable" in capsys.readouterr().out


def test_non_ascii_element_symbol_rows_are_dropped(synthetic_csv, tmp_path,
                                                   capsys):
    data = tmp_path / "data.csv"
    with open(synthetic_csv, encoding="utf-8") as fh:
        data.write_text(fh.read() + "[\u00c9],1\n[\u03a9x]C,0\n",
                        encoding="utf-8")
    assert cli.main(["split", *_args(data, tmp_path), "--seeds", "0"]) == 0
    assert "2 unparseable" in capsys.readouterr().out


def _screen(csv, trained_dir, out, library):
    """Screen ``library`` with the trained point posterior into ``out``."""
    return cli.main(["screen", *_args(csv, out, "--set", "schedule.epochs=1"),
                     "--mode", "none", "--arch", "gcn", "--seeds", "0",
                     "--posterior", str(trained_dir / "none_seed0.post"),
                     "--library", str(library)])


def test_non_ascii_smiles_digit_line_is_dropped(synthetic_csv,
                                                trained_point_dir, tmp_path):
    library = tmp_path / "library.smi"
    library.write_text("CCO\nC\u00b2\n[CH\u00b2]\n", encoding="utf-8")
    assert _screen(synthetic_csv, trained_point_dir, tmp_path, library) == 0
    summary = _read_json(tmp_path / "screen_none_summary.json")
    assert summary["n_total"] == 1 and summary["n_dropped"] == 2


def test_non_ascii_element_symbol_lines_are_dropped(synthetic_csv,
                                                    trained_point_dir,
                                                    tmp_path):
    library = tmp_path / "library.smi"
    library.write_text("CCO\n[\u00c9]\n[\u03a9x]C\n", encoding="utf-8")
    assert _screen(synthetic_csv, trained_point_dir, tmp_path, library) == 0
    summary = _read_json(tmp_path / "screen_none_summary.json")
    assert summary["n_total"] == 1 and summary["n_dropped"] == 2


def test_atomless_library_lines_are_dropped(synthetic_csv, trained_point_dir,
                                            tmp_path):
    library = tmp_path / "library.smi"
    library.write_text("CCO\n.\nc1ccccc1O\n..\n")
    assert _screen(synthetic_csv, trained_point_dir, tmp_path, library) == 0
    summary = _read_json(tmp_path / "screen_none_summary.json")
    assert summary["n_total"] == 2 and summary["n_dropped"] == 2


def test_atomless_dataset_rows_are_dropped(tmp_path, capsys):
    csv = tmp_path / "data.csv"
    csv.write_text("smiles,activity\n"
                   + "".join(f"{smi},{label}\n"
                             for smi, label in synthetic_rows())
                   + ".,1\n..,0\n")
    base = [*_args(csv, tmp_path / "out", "--set", "schedule.epochs=1"),
            "--mode", "none", "--arch", "gcn", "--seeds", "0"]
    assert cli.main(["split", *base]) == 0
    assert f"loaded {N_ROWS} molecules (2 unparseable" \
        in capsys.readouterr().out
    assert cli.main(["train", *base]) == 0


def test_non_utf8_library_exits_3(synthetic_csv, trained_point_dir,
                                  tmp_path):
    library = tmp_path / "library.smi"
    library.write_bytes(b"CCO\nC\xffC\n")
    assert _screen(synthetic_csv, trained_point_dir, tmp_path, library) == 3


@pytest.mark.parametrize("kind", ["config", "dataset", "library"])
def test_byte_order_mark_reads_as_the_plain_file(synthetic_csv,
                                                 trained_point_dir, tmp_path,
                                                 kind):
    with open(synthetic_csv, "rb") as fh:
        plain = {"config": json.dumps({"dataset": {
                     "path": str(synthetic_csv), "smiles_column": "smiles",
                     "label_columns": ["activity"]}}).encode(),
                 "dataset": fh.read(),
                 "library": b"CCO\nc1ccccc1\nCCN\n"}[kind]
    source = tmp_path / "input"
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        source.write_bytes(prefix + plain)
        out = tmp_path / f"out{len(prefix)}"
        if kind == "config":
            rc = cli.main(["split", "--config", str(source), "--out",
                           str(out), "--seeds", "0"])
        elif kind == "dataset":
            rc = cli.main(["split", *_args(source, out), "--seeds", "0"])
        else:
            rc = _screen(synthetic_csv, trained_point_dir, out, source)
        assert rc == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


# bytes with a SMILES- and CSV-like alphabet reach the parsers more often
# than uniform ones, which mostly fail to decode or to find a header
SMILES_LIKE = st.text(alphabet="CNOcn12\u00b2()=#[]+-%:H ,.\"\r\n\xff",
                      max_size=80).map(lambda t: t.encode("utf-8"))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["config", "dataset", "library"]),
       raw=st.binary(max_size=200) | SMILES_LIKE)
def test_arbitrary_input_bytes_end_in_an_exit_code(synthetic_csv,
                                                   trained_point_dir, kind,
                                                   raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(b"smiles,activity\n" + raw if kind == "dataset"
                     else raw)
        out = os.path.join(tmp, "out")
        if kind == "config":
            rc = cli.main(["split", "--config", path, "--out", out])
        elif kind == "dataset":
            rc = cli.main(["split", *_args(path, out), "--seeds", "0"])
        else:
            rc = _screen(synthetic_csv, trained_point_dir, out, path)
    assert rc in (0, 2, 3)
