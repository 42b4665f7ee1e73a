"""molbayes benchmark: generated inputs, CLI workloads, output checks, traces.

    python3 perfbench/run.py --workload study --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout. Inputs come from ``gen.py`` and
the seed; the program sees only the generated files. Every molbayes
command runs as its own ``python -m molbayes`` process, one at a time,
with the checkout's ``src`` on PYTHONPATH, inside ``.perfbench/`` of the
checkout. Thread and worker settings are left as found.

``--trace 0`` times the workload. It runs the set-up several times and
reports the median. It then repeats the timed commands for ``--seconds``,
at least twice so reruns can be compared byte for byte, and reports the
mean time per repetition. ``--trace 1`` runs the timed commands once more
in this process under the span tracer (``spans.py``) with one worker,
and reports per-layer metrics. The last line of standard output is the
result as one JSON object.

See README.md beside this file for the workloads, the metrics and which
end-to-end metric each per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans as tracing  # noqa: E402

SETUP_SECONDS = 5.0       # repeat set-up until this long has passed ...
MIN_SETUPS = 3            # ... and at least this often
MIN_ITERS = 2
BUDGET_S = 165.0          # stop starting new work after this long
ARCHS = ("gcn", "gin", "sage", "gat", "gatedgcn")
SWEEP_BATCH = 128
SWEEP_REPS = 3
STARTUP_REPS = 5
OVERHEAD_REPS = 2
OPS = ("segment_sum", "gather_rows", "linear", "add", "slice1d",
       "segment_softmax", "elu", "mul", "dropout", "concat")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    arch: str
    epochs: int               # schedule.epochs for every command
    seeds: tuple[int, ...]
    corpus: int
    library: int = 0          # parseable library molecules (screens)
    malformed: int = 0        # malformed library lines (screens)
    draws: int = 1            # predictive draws per prediction

    @property
    def screen(self) -> bool:
        return self.library > 0

    @property
    def setup(self) -> tuple[str, ...]:
        return ("split", "train") if self.screen else ("split",)

    @property
    def timed(self) -> tuple[str, ...]:
        return ("screen",) if self.screen else ("train", "eval")

    def argv(self, command: str, out: str) -> list[str]:
        args = [command, "--set", "dataset.path=inputs/corpus.csv",
                "--set", f"schedule.epochs={self.epochs}",
                "--mode", self.mode, "--arch", self.arch,
                "--seeds", ",".join(map(str, self.seeds)), "--out", out]
        if command == "screen":
            args += ["--library", "inputs/library.smi"]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("study", "none", "gin", epochs=1, seeds=(0, 1), corpus=384),
    Workload("screen-map", "none", "gin", epochs=1, seeds=(0,), corpus=384,
             library=1024, malformed=24),
    Workload("screen-mcdo-gat", "mcdo", "gat", epochs=1, seeds=(0,),
             corpus=384, library=128, malformed=8, draws=30),
)}


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Op:
    """One molbayes command and what became of it."""
    command: str
    out: str
    rc: int
    wall: float
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)


class Runner:
    def __init__(self, work: str, started: float):
        self.work = work
        self.started = started
        self.ops: list[Op] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.log = os.path.join(work, "commands.log")

    def time_left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def cli(self, argv: list[str], out: str = "") -> Op:
        """Run ``python -m molbayes argv`` in the work dir; kill on budget."""
        with open(self.log, "ab") as log:
            log.write(f"$ molbayes {' '.join(argv)}\n".encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "molbayes", *argv], cwd=self.work,
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            killed = False
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and self.time_left() < 0:
                    os.killpg(proc.pid, signal.SIGKILL)
                    killed = True
                time.sleep(0.002)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(argv[0], out, proc.returncode, wall, usage.ru_maxrss / 1024)
        if killed:
            op.problems.append("killed: benchmark time budget exhausted")
        self.ops.append(op)
        return op

    def inprocess(self, cli, argv: list[str], out: str) -> Op:
        """Run ``cli.main(argv)`` in this process, output to the log."""
        with open(self.log, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            print(f"$ [in-process] molbayes {' '.join(argv)}", flush=True)
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # any escape is a failed command
                traceback.print_exc()
                rc = 1
            wall = time.perf_counter() - t0
        op = Op(argv[0], out, rc, wall)
        self.ops.append(op)
        return op


# ---------------------------------------------------------------------------
# output checks


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def outputs_of(w: Workload, command: str, out: str) -> list[str]:
    """Files a command must leave behind, relative to the work dir."""
    seeds = w.seeds
    if command == "split":
        names = [f"split_seed{s}.json" for s in seeds]
    elif command == "train":
        names = [f"{w.mode}_seed{s}{suffix}" for s in seeds
                 for suffix in (".post", "_log.json")]
    elif command == "eval":
        names = [f"eval_{w.mode}.json"] + [
            f"{w.mode}_seed{s}_confusion.csv" for s in seeds]
    else:
        names = [f"screen_{w.mode}_{k}" for k in
                 ("ranking.csv", "summary.json", "hist.csv")]
    return [os.path.join(out, n) for n in names]


def reproducible_outputs(w: Workload, command: str, out: str) -> list[str]:
    """Outputs that must be byte-identical across repetitions.

    Training logs are left out: they are diagnostics, not results.
    """
    return [p for p in outputs_of(w, command, out)
            if not p.endswith("_log.json")]


def check(w: Workload, op: Op, inputs: dict, work: str) -> None:
    """Append every failed check of a finished command to op.problems."""
    if op.rc != 0:
        op.problems.append(f"exit code {op.rc}")
        return
    missing = [p for p in outputs_of(w, op.command, op.out)
               if not os.path.isfile(os.path.join(work, p))]
    if missing:
        op.problems.append(f"missing outputs {missing}")
        return
    try:
        op.problems.extend(_check_contents(w, op, inputs,
                                           os.path.join(work, op.out)))
    except (OSError, ValueError, KeyError, TypeError) as e:
        op.problems.append(f"unreadable output: {e!r}")


def _finite_unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _check_contents(w: Workload, op: Op, inputs: dict, out: str) -> list:
    p = []
    path = lambda name: os.path.join(out, name)  # noqa: E731
    if op.command == "split":
        for s in w.seeds:
            m = _read_json(path(f"split_seed{s}.json"))
            sizes = [len(m[k]) for k in ("train", "valid", "test")]
            if sum(sizes) != w.corpus or not all(sizes):
                p.append(f"seed {s}: split sizes {sizes} for {w.corpus}")
    elif op.command == "train":
        for s in w.seeds:
            log = _read_json(path(f"{w.mode}_seed{s}_log.json"))["epochs"]
            losses = [e.get("loss") for e in log]
            if len(log) != w.epochs or not all(
                    isinstance(x, float) and math.isfinite(x)
                    for x in losses):
                p.append(f"seed {s}: epoch losses {losses}")
    elif op.command == "eval":
        rep = _read_json(path(f"eval_{w.mode}.json"))
        listed = [r["seed"] for r in rep["per_seed"]]
        if listed != list(w.seeds) or rep["missing_seeds"]:
            p.append(f"eval lists seeds {listed}, missing "
                     f"{rep['missing_seeds']}")
        for r in rep["per_seed"]:
            if not (_finite_unit(r.get("auroc"))
                    and _finite_unit(r.get("ece"))
                    and r.get("n_draws") == w.draws):
                p.append(f"seed {r['seed']}: auroc {r.get('auroc')}, "
                         f"ece {r.get('ece')}, n_draws {r.get('n_draws')}")
    else:
        p.extend(_check_screen(w, path, inputs))
    return p


def _check_screen(w: Workload, path, inputs: dict) -> list[str]:
    problems = []
    rows = read_ranking(path(f"screen_{w.mode}_ranking.csv"))
    probs = [r[1] for r in rows]
    if len(rows) != w.library:
        problems.append(f"ranking has {len(rows)} rows for {w.library} "
                        f"parseable library lines")
    if not all(0.0 <= x <= 1.0 for x in probs):   # NaN fails this too
        problems.append("ranking probability outside [0, 1] or not finite")
    if not all(0.0 <= r[2] <= 0.5 for r in rows):
        problems.append("ranking uncertainty outside [0, 0.5] or not finite")
    if any(a < b for a, b in zip(probs, probs[1:])):
        problems.append("ranking is not sorted by probability")
    if {r[0] for r in rows} != set(inputs["library_labels"]):
        problems.append("ranked molecules differ from the library")
    summary = _read_json(path(f"screen_{w.mode}_summary.json"))
    if summary.get("n_dropped") != w.malformed:
        problems.append(f"n_dropped {summary.get('n_dropped')} != "
                        f"{w.malformed} malformed lines generated")
    if summary.get("n_total") != w.library or \
            summary.get("n_draws") != w.draws:
        problems.append(f"summary n_total {summary.get('n_total')}, "
                        f"n_draws {summary.get('n_draws')}")
    return problems


def read_ranking(path: str) -> list[tuple[str, float, float]]:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("smiles,"):
                continue
            smi, prob, unc = line.rstrip("\n").split(",")
            rows.append((smi, float(prob), float(unc)))
    return rows


def digest_files(work: str, paths: list[str], out: str) -> dict:
    """sha256 per output, keyed by its path relative to ``out``."""
    result = {}
    for p in paths:
        with open(os.path.join(work, p), "rb") as fh:
            result[os.path.relpath(p, out)] = \
                hashlib.sha256(fh.read()).hexdigest()
    return result


class Reproducibility:
    """Fails a command whose outputs differ from its first repetition."""

    def __init__(self, w: Workload, work: str):
        self.w, self.work = w, work
        self.first: dict = {}

    def compare(self, op: Op) -> None:
        if op.failed:
            return
        got = digest_files(self.work, reproducible_outputs(
            self.w, op.command, op.out), op.out)
        ref = self.first.setdefault(op.command, got)
        changed = sorted(k for k in got if ref.get(k) != got[k])
        if changed:
            op.problems.append(f"outputs differ from the first run: "
                               f"{changed}")


# ---------------------------------------------------------------------------
# quality of the predictions (informational, see README.md)


def auroc(scores: list[float], labels: list[int]) -> float:
    """Mann-Whitney statistic with mid-rank ties."""
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == \
                scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    u = sum(r for r, y in zip(ranks, labels) if y) - n_pos * (n_pos + 1) / 2
    return u / (n_pos * n_neg)


def ece(probs: list[float], labels: list[int], n_bins: int = 10) -> float:
    """Expected calibration error on confidence max(p, 1-p) in [0.5, 1]."""
    count = [0] * n_bins
    conf = [0.0] * n_bins
    acc = [0.0] * n_bins
    for p, y in zip(probs, labels):
        c = max(p, 1.0 - p)
        b = min(int((c - 0.5) * 2.0 * n_bins), n_bins - 1)
        count[b] += 1
        conf[b] += c
        acc[b] += float((p >= 0.5) == (y == 1))
    return sum(abs(acc[b] - conf[b]) for b in range(n_bins)
               if count[b]) / len(probs)


def quality(w: Workload, work: str, out: str, inputs: dict) -> dict:
    """Test AUROC and ECE: eval's seed means, or the screen vs labels."""
    if not w.screen:
        agg = _read_json(os.path.join(work, out,
                                      f"eval_{w.mode}.json"))["aggregate"]
        return {"test_auroc": agg["auroc"]["mean"],
                "test_ece": agg["ece"]["mean"]}
    rows = read_ranking(os.path.join(work, out,
                                     f"screen_{w.mode}_ranking.csv"))
    probs = [r[1] for r in rows]
    labels = [inputs["library_labels"][r[0]] for r in rows]
    return {"test_auroc": auroc(probs, labels), "test_ece": ece(probs, labels)}


# ---------------------------------------------------------------------------
# timed run (--trace 0)


def run_commands(w: Workload, runner: Runner, repro: "Reproducibility",
                 inputs: dict, commands, out: str) -> list[Op]:
    """Run commands through the CLI into out; stop at the first failure."""
    ops = []
    for command in commands:
        op = runner.cli(w.argv(command, out), out)
        check(w, op, inputs, runner.work)
        repro.compare(op)
        ops.append(op)
        if op.failed:
            break
    return ops


def timed_run(w: Workload, runner: Runner, inputs: dict,
              seconds: float) -> dict:
    work = runner.work
    repro = Reproducibility(w, work)

    def sequence(commands, out) -> tuple[float, float, bool]:
        ops = run_commands(w, runner, repro, inputs, commands, out)
        return (sum(op.wall for op in ops), max(op.rss_mb for op in ops),
                not ops[-1].failed)

    setup_walls, setup_rss = [], []
    start = time.perf_counter()
    while len(setup_walls) < MIN_SETUPS or \
            time.perf_counter() - start < SETUP_SECONDS:
        out = f"setup{len(setup_walls)}"
        wall, rss, ok = sequence(w.setup, out)
        if not ok:
            return {}
        setup_walls.append(wall)
        setup_rss.append(rss)
        if out != "setup0":
            shutil.rmtree(os.path.join(work, out))

    walls, rss_peaks, qual = [], [], {}
    start = time.perf_counter()
    while len(walls) < MIN_ITERS or time.perf_counter() - start < seconds:
        if walls and runner.time_left() < 1.5 * max(walls):
            break
        out = f"iter{len(walls)}"
        shutil.copytree(os.path.join(work, "setup0"), os.path.join(work, out))
        wall, rss, ok = sequence(w.timed, out)
        if not ok:
            return {}
        walls.append(wall)
        rss_peaks.append(rss)
        if not qual:
            qual = quality(w, work, out, inputs)
        shutil.rmtree(os.path.join(work, out))
    if len(walls) < MIN_ITERS:
        return {}
    return {"setup_s": statistics.median(setup_walls),
            "timed_s": math.fsum(walls) / len(walls),
            "peak_rss_mb": max(statistics.median(setup_rss),
                               statistics.median(rss_peaks)),
            "timed_iterations": len(walls),
            "setup_walls": setup_walls, "timed_walls": walls, **qual}


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def import_program():
    """Import molbayes from this checkout's src, never an installed copy."""
    sys.path.insert(0, SRC)
    import molbayes
    from molbayes import (artifacts, autodiff, bayes, chem,  # noqa: F401
                          cli, gnn, metrics)
    where = os.path.dirname(os.path.abspath(molbayes.__file__))
    if where != os.path.join(SRC, "molbayes"):
        raise RuntimeError(f"imported molbayes from {where}, not {SRC}")
    return molbayes


def traced_run(w: Workload, runner: Runner, inputs: dict, seed: int) -> dict:
    """Per-layer metrics from one traced pass of the workload's commands.

    The traced commands are split, train and eval on study, and screen on
    the screen workloads (whose split and posterior are set-up, run by the
    CLI untraced). The same commands also run untraced in this process,
    for the tracing overhead, and once through the CLI with the default
    worker count, for the parallel speed-up of train. Per-layer figures
    come from the last traced pass.
    """
    pkg = import_program()
    work = runner.work
    traced_cmds = w.timed if w.screen else ("split",) + w.timed
    repro = Reproducibility(w, work)

    ref = run_commands(w, runner, repro, inputs, w.setup + w.timed, "ref")
    if ref[-1].failed:
        return {}
    train_cli_s = 0.0 if w.screen else ref[-2].wall
    qual = quality(w, work, "ref", inputs)

    def inprocess(out: str) -> float:
        if w.screen:
            shutil.copytree(os.path.join(work, "ref"),
                            os.path.join(work, out))
        wall = 0.0
        for command in traced_cmds:
            op = runner.inprocess(pkg.cli, w.argv(command, out)
                                  + ["--set", "workers=1"], out)
            check(w, op, inputs, work)
            repro.compare(op)
            if op.failed:
                raise RuntimeError(f"in-process {command} failed: "
                                   f"{op.problems}")
            wall += op.wall
        return wall

    # alternate untraced and traced passes and compare the faster of
    # each, so a slow spell of the host does not read as tracing cost
    plain, traced = [], []
    here = os.getcwd()
    os.chdir(work)
    try:
        for rep in range(OVERHEAD_REPS):
            plain.append(inprocess(f"plain{rep}"))
            tracer = tracing.Tracer(run_id=f"{w.name}-seed{seed}-{rep}")
            with tracing.installed(tracer, pkg):
                traced.append(inprocess(f"traced{rep}"))
    finally:
        os.chdir(here)
    tracer.write(os.path.join(WORK_ROOT, f"spans-{w.name}-seed{seed}.jsonl"))

    n_mols = w.library + w.malformed if w.screen else w.corpus
    startup = statistics.median(
        runner.cli(["--help"]).wall for _ in range(STARTUP_REPS))
    graphs, labels = first_batch(pkg, work)
    m = layer_metrics(w, tracer, n_mols, train_cli_s, min(plain),
                      min(traced))
    m["cli.startup_s"] = startup
    m["autodiff.tape_records_per_step"] = tape_records(pkg, w, graphs,
                                                       labels)
    m.update(arch_sweep(pkg, graphs, labels))
    m.update(qual)
    return m


def layer_metrics(w: Workload, tr: "tracing.Tracer", n_mols: int,
                  train_cli_s: float, plain_s: float,
                  traced_s: float) -> dict:
    empty = tracing.Stat()
    st = lambda name: tr.stats.get(name, empty)  # noqa: E731

    def per_call_ms(name, inclusive=False):
        s = st(name)
        if not s.calls:
            return 0.0
        return 1000.0 * (s.total if inclusive else s.self_time) / s.calls

    m = {}
    for f in ("parse_smiles", "featurize", "murcko_scaffold"):
        m[f"chem.{f}.calls_per_mol"] = st(f"chem.{f}").calls / n_mols
        m[f"chem.{f}.ms"] = per_call_ms(f"chem.{f}")
    m["gnn.make_batch.ms"] = per_call_ms("gnn.make_batch")
    m["gnn.forward.ms_per_batch"] = per_call_ms("gnn.forward", True)
    for op in OPS:
        m[f"autodiff.{op}.self_s"] = st(f"autodiff.{op}").self_time
    m["autodiff.backward.self_s"] = st("autodiff.backward").self_time
    m["autodiff.optimizer_step.ms"] = per_call_ms("autodiff.optimizer_step")
    m["bayes.train_map.self_s"] = st("bayes.train_map").self_time
    passes = tr.counts.get("bayes.mc_passes", 0)
    draws = tr.counts.get("bayes.marginalize.draws", 0)
    m["bayes.mc_dropout_predict.ms_per_pass"] = \
        1000.0 * st("bayes.mc_dropout_predict").total / passes \
        if passes else 0.0
    m["bayes.marginalize.ms_per_draw"] = \
        1000.0 * st("bayes.marginalize").total / draws if draws else 0.0
    m["bayes.draws"] = passes + draws
    for f in ("write_container", "read_container"):
        m[f"artifacts.{f}.ms"] = per_call_ms(f"artifacts.{f}", True)
    m["artifacts.bytes_written"] = tr.counts.get("artifacts.bytes_written", 0)
    m["metrics.self_s"] = sum(s.self_time for n, s in tr.stats.items()
                              if n.startswith("metrics."))
    m["metrics.classification_metrics.calls_per_seed"] = \
        st("metrics.classification_metrics").calls / len(w.seeds)
    for c in ("split", "train", "eval", "screen"):
        m[f"cli.{c}.self_s"] = st(f"cli.{c}").self_time
    m["cli.train.parallel_speedup"] = \
        st("cli.train").total / train_cli_s if train_cli_s else 0.0
    total = tr.root_seconds()
    for mod in tracing.MODULES:
        m[f"{mod}.self_share"] = sum(
            s.self_time for n, s in tr.stats.items()
            if n.startswith(mod + ".")) / total
    m["trace_overhead_frac"] = traced_s / plain_s - 1.0
    return m


def first_batch(pkg, work: str):
    """The corpus's first SWEEP_BATCH molecules, featurized, and labels."""
    ds = pkg.chem.load_dataset(os.path.join(work, "inputs", "corpus.csv"),
                               "mol", ("Class",))
    graphs = [pkg.chem.featurize(pkg.chem.parse_smiles(s))
              for s in ds.smiles[:SWEEP_BATCH]]
    return graphs, ds.labels[:SWEEP_BATCH]


def _model(pkg, arch: str):
    return pkg.gnn.GnnClassifier(pkg.gnn.ModelConfig(architecture=arch))


def tape_records(pkg, w: Workload, graphs, labels) -> int:
    """len(tape.records) after one nll on a workload batch."""
    model = _model(pkg, w.arch)
    flat = model.init_params(np.random.default_rng(0))
    tape = pkg.autodiff.Tape()
    theta = tape.parameter("theta", flat)
    train = w.mode == "mcdo"
    model.nll(tape, theta, pkg.gnn.make_batch(graphs, labels), train=train,
              rng=np.random.default_rng(1) if train else None)
    return len(tape.records)


def arch_sweep(pkg, graphs, labels) -> dict:
    """Median train-step and forward time per architecture, one batch."""
    batch = pkg.gnn.make_batch(graphs, labels)
    ad = pkg.autodiff
    out = {}
    for arch in ARCHS:
        model = _model(pkg, arch)
        flat = model.init_params(np.random.default_rng(0))
        opt = ad.OptimizerState(mode="adam", lr=1e-3, weight_decay=1e-4)
        steps, fwds = [], []
        for _ in range(SWEEP_REPS):
            t0 = time.perf_counter()
            tape = ad.Tape()
            theta = tape.parameter("theta", flat)
            loss = model.nll(tape, theta, batch)
            grads = ad.backward(tape, loss)
            flat = ad.optimizer_step(opt, flat, grads["theta"])
            t1 = time.perf_counter()
            model.predict_proba(flat, batch)
            t2 = time.perf_counter()
            steps.append(t1 - t0)
            fwds.append(t2 - t1)
        out[f"gnn.train_step_ms.{arch}"] = 1000.0 * statistics.median(steps)
        out[f"gnn.forward_ms.{arch}"] = 1000.0 * statistics.median(fwds)
    return out


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
                ROOT))).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    src = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(SRC, "molbayes")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    src.update(f.encode() + b"\0" + fh.read())
    return {"git_commit": commit or "unavailable (not a git checkout)",
            "source_sha256": src.hexdigest()[:16],
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor() or "unknown",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def result_line(ops: list[Op], metrics: dict, units: dict) -> str:
    failed = sum(op.failed for op in ops)
    correct = bool(ops) and failed == 0 and all(k in metrics for k in units)
    return json.dumps({
        "correct": correct, "attempted": max(1, len(ops)), "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()}})


def benchmark_units(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "molbayes", "cli.py")):
        print(f"no molbayes sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    units = benchmark_units(bool(args.trace))
    work = os.path.join(WORK_ROOT,
                        f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    summary = gen.generate(args.seed, w.corpus, w.library, w.malformed,
                           os.path.join(work, "inputs"))
    inputs = {"library_labels": {}}
    if w.screen:
        with open(os.path.join(work, "inputs", "library_labels.json")) as fh:
            inputs["library_labels"] = json.load(fh)
    env = environment()
    print(json.dumps({"workload": w.name, "seed": args.seed,
                      "inputs": summary, "environment": env}))
    runner = Runner(work, started)
    try:
        if args.trace:
            metrics = traced_run(w, runner, inputs, args.seed)
        else:
            metrics = timed_run(w, runner, inputs, args.seconds)
    except Exception:  # report a failed run rather than no result
        traceback.print_exc()
        metrics = {}
    for op in runner.ops:
        if op.problems:
            print(f"FAILED {op.command} ({op.out}): {'; '.join(op.problems)}",
                  file=sys.stderr)
    attempted = max(1, len(runner.ops))
    failed = sum(op.failed for op in runner.ops)
    info = dict(metrics, failed_frac=failed / attempted)
    info_units = dict(units, test_auroc="1", test_ece="1", failed_frac="1")
    for name in sorted(info):
        if name in info_units:
            print(f"{name} = {info[name]:.6g} {info_units[name]}")
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "inputs": summary, "metrics": info,
              "failures": [f"{op.command} ({op.out}): {op.problems}"
                           for op in runner.ops if op.failed]}
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    with open(os.path.join(WORK_ROOT, "results", os.path.basename(work)
                           + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    print(result_line(runner.ops, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
