"""Byte-identity matrix: run the molbayes CLI from two source trees, diff.

Usage:
    python tools/identity_matrix.py OLD_SRC NEW_SRC [--work DIR]
                                    [--new-workers N] [--new-blas-threads N]

OLD_SRC and NEW_SRC are directories holding the ``molbayes`` package (a
checkout's ``src``). For every architecture and trained mode the script
runs ``split``, ``train``, ``eval`` and ``screen`` under each tree, plus
``eval``/``screen --mode swa`` after ``swag``, on one shared generated
corpus and library. Both trees run with the same relative paths, so any
difference in an output file, in standard output or in an exit code is a
difference in the program. Models are small (width 8, one layer) and the
schedules short; swag trains at lr 0.01 because the default lr diverges.
Both trees run in the caller's environment, BLAS thread settings included;
``--new-blas-threads N`` runs NEW_SRC's commands with
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set to N instead. Every
command runs with ``workers=1``; ``--new-workers N`` runs NEW_SRC's
commands with ``workers=N`` instead, so that passing one tree twice
compares its serial and pooled paths.

A differing ``.json`` output is listed with the key paths where the two
trees' documents differ, e.g. ``aggregate.seed only under old`` or
``per_seed[0].ece differs``.

The last two lines count the differing or one-sided output files of each
architecture and of each mode's chain (``swa`` outputs are in ``swag``'s),
so a change meant to move one architecture's or mode's outputs can show
that no other's moved.

Exit status: 0 when every command exits 0 under both trees and every
output is byte-identical; 1 otherwise, after listing each difference and
each failed command.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Optional

ARCHS = ("gcn", "gin", "sage", "gat", "gatedgcn")
MODES = ("none", "ensemble", "mcdo", "bbb", "sgld", "swag")

COMMON = ("--set", "dataset.path=../inputs/corpus.csv",
          "--set", "dataset.smiles_column=smiles",
          "--set", 'dataset.label_columns=["activity"]',
          "--set", "model.hidden_dim=8", "--set", "model.graph_dim=8",
          "--set", "model.n_layers=1", "--set", "model.n_heads=2",
          "--set", "batch_size=16",
          "--set", "ensemble_members=2", "--set", "eval_samples=4",
          "--seeds", "0,1")
SCHEDULE = {
    "swag": ("--set", "schedule.epochs=10", "--set", "schedule.lr=0.01",
             "--set", "schedule.decay_points=[1]",
             "--set", "schedule.cyclic_from=2",
             "--set", "schedule.cycle_len=2", "--set", "schedule.cadence=2"),
    "sgld": ("--set", "schedule.epochs=6",),
}
DEFAULT_SCHEDULE = ("--set", "schedule.epochs=3")

# ring cores x substituents, plus chains: several scaffold groups, both
# classes (label: contains oxygen) in each; the last rows do not parse.
# Decalin, bicyclopentyl, adamantane and cubane have tied refinement
# colours, so the split manifests depend on tie-broken canonical keys.
CORES = ("C1CC1", "C1CCCC1", "C1CCCCC1", "c1ccccc1", "c1ccncc1",
         "c1ccc2ccccc2c1", "C1CCNCC1", "C1CCSC1", "c1ccsc1", "C1CNCCN1",
         "C1CCC2CCCCC2C1", "C1CCC(C1)C1CCCC1", "C1C2CC3CC1CC(C2)C3",
         "C12C3C4C1C5C2C3C45")
SUBSTITUENTS = ("", "C", "O", "CC(=O)N", "N")
CHAINS = ("CC", "CCC", "CCO", "CCCN", "CC(C)O", "OCCO")
BAD_ROWS = ("C1CC", "C(C", "C%1C")
LIBRARY = ("c1ccccc1CO", "C1CCCCC1N", "c1ccncc1CCO", "CCCCO",
           "C1CCSCC1", "c1ccc2ccccc2c1O", "C1CC1CN", "c1ccsc1C",
           "C%1C", "C1CC", "CC(O)C(=O)N")


def write_inputs(root: str) -> None:
    rows = [core + sub for core in CORES for sub in SUBSTITUENTS]
    rows += CHAINS
    lines = ["smiles,activity"]
    lines += [f"{s},{int('O' in s or 'o' in s)}" for s in rows]
    lines += [f"{s},1" for s in BAD_ROWS]
    os.makedirs(os.path.join(root, "inputs"), exist_ok=True)
    with open(os.path.join(root, "inputs", "corpus.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(root, "inputs", "library.smi"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(LIBRARY) + "\n")


def chain(arch: str, mode: str,
          workers: int = 1) -> list[tuple[str, list[str]]]:
    """The (label, argv) commands run for one architecture and mode."""
    out = f"runs/{arch}/{mode}"
    base = [*COMMON, *SCHEDULE.get(mode, DEFAULT_SCHEDULE), "--arch", arch,
            "--set", f"workers={workers}", "--out", out]
    library = ["--library", "../inputs/library.smi"]
    cmds = [("split", ["split", *base, "--mode", mode]),
            ("train", ["train", *base, "--mode", mode]),
            ("eval", ["eval", *base, "--mode", mode]),
            ("screen", ["screen", *base, "--mode", mode, *library,
                        "--posterior", f"{out}/{mode}_seed0.post"])]
    if mode == "swag":
        cmds += [("eval swa", ["eval", *base, "--mode", "swa"]),
                 ("screen swa", ["screen", *base, "--mode", "swa", *library,
                                 "--posterior", f"{out}/swag_seed0.post"])]
    return [(f"{arch} {mode} {label}", argv) for label, argv in cmds]


def run_chain(side_dir: str, src: str, arch: str, mode: str,
              workers: int, blas_threads: Optional[int] = None) -> list:
    """Run one chain under one tree; (label, exit code, stdout, stderr).
    ``blas_threads`` sets the BLAS thread variables, else they are the
    caller's."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    if blas_threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(blas_threads),
                   OMP_NUM_THREADS=str(blas_threads))
    results = []
    for label, argv in chain(arch, mode, workers):
        proc = subprocess.run([sys.executable, "-m", "molbayes", *argv],
                              cwd=side_dir, env=env, capture_output=True)
        results.append((label, proc.returncode, proc.stdout, proc.stderr))
    return results


def tree_files(root: str) -> dict[str, bytes]:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def diff_runs(old: list, new: list) -> list[str]:
    """Problems between one chain's runs under the two trees."""
    problems = []
    for (label, rc_a, out_a, err_a), (_, rc_b, out_b, _) in zip(old, new):
        if rc_a != rc_b:
            problems.append(f"exit code differs: {label}: {rc_a} vs {rc_b}")
        elif rc_a != 0:
            err = err_a.decode(errors="replace").strip()
            problems.append(f"command failed under both: {label}: exit "
                            f"{rc_a}: {err}")
        if out_a != out_b:
            problems.append(f"stdout differs: {label}")
    return problems


def json_key_paths(old, new, path: str = "") -> list[str]:
    """Where two parsed JSON values differ: each key present on one side
    only, and each differing leaf or list length, by dotted key path."""
    if isinstance(old, dict) and isinstance(new, dict):
        found = []
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                found.append(f"{sub} only under old")
            elif key not in old:
                found.append(f"{sub} only under new")
            else:
                found += json_key_paths(old[key], new[key], sub)
        return found
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in json_key_paths(a, b, f"{path}[{i}]")]
    # dumps, not ==, so that NaN equals NaN and 1 differs from 1.0
    same = json.dumps(old) == json.dumps(new)
    return [] if same else [f"{path or '(document)'} differs"]


def file_difference(rel: str, old: bytes, new: bytes) -> str:
    """The problem line for an output file whose bytes differ; for JSON,
    it names the differing key paths."""
    if not rel.endswith(".json"):
        return f"file differs: {rel}"
    try:
        paths = json_key_paths(json.loads(old), json.loads(new))
    except ValueError:
        return f"file differs: {rel} (not valid JSON on both sides)"
    return f"file differs: {rel}: " + (", ".join(paths) or
                                       "same keys and values")


def compare(work: str, srcs: tuple[str, str], new_workers: int,
            new_blas_threads: Optional[int] = None) -> int:
    write_inputs(work)
    sides = [os.path.join(work, name) for name in ("old", "new")]
    for side in sides:
        os.makedirs(side, exist_ok=True)
    problems = []
    n_cmds = 0
    for arch in ARCHS:
        for mode in MODES:
            old, new = (run_chain(side, src, arch, mode, workers, blas)
                        for side, src, workers, blas in
                        zip(sides, srcs, (1, new_workers),
                            (None, new_blas_threads)))
            n_cmds += len(old)
            problems += diff_runs(old, new)
    files = [tree_files(os.path.join(side, "runs")) for side in sides]
    moved = dict.fromkeys(ARCHS, 0)
    moved_modes = dict.fromkeys(MODES, 0)
    for rel in sorted(set(files[0]) | set(files[1])):
        if rel not in files[0] or rel not in files[1]:
            which = "new" if rel not in files[0] else "old"
            problems.append(f"only under {which}: {rel}")
        elif files[0][rel] != files[1][rel]:
            problems.append(file_difference(rel, files[0][rel],
                                            files[1][rel]))
        else:
            continue
        arch, mode = rel.split(os.sep)[:2]
        moved[arch] += 1
        moved_modes[mode] += 1
    for line in problems:
        print(line)
    print(f"{n_cmds} commands per tree, {len(files[0])} output files, "
          f"{len(problems)} problems")
    print("differing files per architecture: " + ", ".join(
        f"{arch} {count}" for arch, count in moved.items()))
    print("differing files per mode: " + ", ".join(
        f"{mode} {count}" for mode, count in moved_modes.items()))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--work", help="new directory to keep every output "
                        "in (default: a removed temporary one)")
    parser.add_argument("--new-workers", type=int, default=1, metavar="N",
                        help="workers for NEW_SRC's commands (default 1)")
    parser.add_argument("--new-blas-threads", type=int, metavar="N",
                        help="OPENBLAS_NUM_THREADS and OMP_NUM_THREADS for "
                        "NEW_SRC's commands (default: the caller's)")
    args = parser.parse_args(argv)
    if args.new_workers < 0:
        parser.error("--new-workers must be 0 or more")
    if args.new_blas_threads is not None and args.new_blas_threads < 1:
        parser.error("--new-blas-threads must be 1 or more")
    for src in (args.old_src, args.new_src):
        if not os.path.isdir(os.path.join(src, "molbayes")):
            parser.error(f"{src} holds no molbayes package")
    srcs = (args.old_src, args.new_src)
    if args.work:
        if os.path.exists(args.work):
            parser.error(f"{args.work} already exists")
        os.makedirs(args.work)
        return compare(args.work, srcs, args.new_workers,
                       args.new_blas_threads)
    with tempfile.TemporaryDirectory(prefix="identity-matrix-") as work:
        return compare(work, srcs, args.new_workers, args.new_blas_threads)


if __name__ == "__main__":
    sys.exit(main())
