"""In-process span tracer around the public functions of each molbayes module.

The tracer wraps functions at the module attributes the program resolves
at call time. ``cli`` imports some names directly (``parse_smiles``,
``featurize``, ``load_dataset``, ``scaffold_split``, ``make_batch``), so
those attributes of ``cli`` get the same wrapper as the originals. Every
call records a span (id, name, start, end, parent id, run id); spans stay
in memory until ``write`` is called. Self time is a span's duration minus
the time covered by its child spans.

Spans do not come back from forked workers, so traced commands run with
``workers=1``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

# module -> attributes wrapped; "Class.method" names a method
TRACED = {
    "chem": ("parse_smiles", "featurize", "murcko_scaffold", "load_dataset",
             "scaffold_split"),
    "gnn": ("make_batch", "GnnClassifier.forward",
            "GnnClassifier.init_params"),
    "autodiff": ("add", "sub", "mul", "div", "matmul", "linear", "concat",
                 "relu", "leaky_relu", "elu", "sigmoid", "exp", "log",
                 "softplus", "clip_min", "tsum", "reshape", "slice1d",
                 "gather_rows", "segment_sum", "segment_softmax", "dropout",
                 "backward", "optimizer_step"),
    "bayes": ("train_map", "train_ensemble", "train_bbb", "train_sgld",
              "train_swa_swag", "mc_dropout_predict", "marginalize",
              "swag_sample", "save_posterior", "load_posterior"),
    "metrics": ("ece", "auroc", "classification_metrics",
                "confusion_histogram", "screening_summary", "macro_average",
                "aggregate_across_seeds", "write_metrics_json",
                "write_histogram_csv", "render_histogram_svg"),
    "artifacts": ("write_container", "read_container"),
    "cli": ("cmd_split", "cmd_train", "cmd_eval", "cmd_screen"),
}
MODULES = tuple(TRACED)

# names cli binds at import time: same wrapper as the defining module's
CLI_ALIASES = {"parse_smiles": "chem", "featurize": "chem",
               "load_dataset": "chem", "scaffold_split": "chem",
               "make_batch": "gnn"}


def span_name(module: str, attr: str) -> str:
    if module == "cli":
        return "cli." + attr.removeprefix("cmd_")
    return f"{module}.{attr.split('.')[-1]}"


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0      # inclusive seconds
    self_time: float = 0.0  # seconds not covered by child spans


@dataclass
class Tracer:
    run_id: str
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)   # [span id, child seconds]
    _next_id: int = 0

    def count(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_return=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.total += dur
                st.self_time += dur - frame[1]
                self.spans.append((sid, name, start, end, parent,
                                   self.run_id))
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root_seconds(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] == -1)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def _count_draws(key):
    def hook(tracer, args, result):
        tracer.count(key, result.n_samples)
    return hook


def _count_bytes(tracer, args, result):
    tracer.count("artifacts.bytes_written", os.path.getsize(args[0]))


HOOKS = {"bayes.marginalize": _count_draws("bayes.marginalize.draws"),
         "bayes.mc_dropout_predict": _count_draws("bayes.mc_passes"),
         "artifacts.write_container": _count_bytes}


class installed:
    """Context manager that wraps every TRACED function and restores it."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.package = package
        self._saved: list = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        mods = {m: getattr(self.package, m) for m in MODULES}
        for module, attrs in TRACED.items():
            for attr in attrs:
                owner = mods[module]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if not hasattr(owner, leaf):
                    continue    # gone from the program: its metrics read 0
                name = span_name(module, attr)
                wrapper = self.tracer.wrap(name, getattr(owner, leaf),
                                           HOOKS.get(name))
                self._set(owner, leaf, wrapper)
                if module != "cli" and CLI_ALIASES.get(attr) == module:
                    self._set(mods["cli"], attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False
