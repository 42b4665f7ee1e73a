"""Five message-passing architectures over one residual skeleton.

Every model is: input projection -> L residual node-update layers ->
sum readout -> linear classifier. The readout sums each graph's node
states, then projects the sums to the graph dimension. Architectures
differ only in how a layer turns node states into the residual branch,
and each is declared in one place: ``_layer_weights`` lists a layer's
weights in coordinate order and ``_LAYERS`` names its layer function,
which maps (h, e, batch, *weights) to (branch, e); e is the edge state,
None outside gatedgcn. Parameters live in a single flat float64 vector
with a fixed coordinate order, so optimizers and posterior
approximations can treat every model as R^n.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .chem import EDGE_DIM, NODE_DIM, FeaturizedGraph
from .errors import ConfigError, DataError

ARCHITECTURES = ("gcn", "gin", "sage", "gat", "gatedgcn")

LEAKY_SLOPE = 0.2
GATE_EPS = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    architecture: str
    hidden_dim: int = 128
    graph_dim: int = 256
    n_layers: int = 4
    n_heads: int = 4
    n_tasks: int = 1
    dropout: float = 0.2

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}; "
                              f"pick one of {ARCHITECTURES}")
        for name in ("hidden_dim", "graph_dim", "n_layers", "n_heads",
                     "n_tasks"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.architecture == "gat" and self.hidden_dim % self.n_heads:
            raise ConfigError(
                f"attention heads ({self.n_heads}) must divide the hidden "
                f"dim ({self.hidden_dim})")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must be in [0, 1)")


def _layer_weights(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """One layer's (name, shape) pairs in coordinate order."""
    d, dk = cfg.hidden_dim, cfg.hidden_dim // cfg.n_heads
    return {
        "gcn": [("W", (d, d))],
        "gin": [("W1", (d, d)), ("W2", (d, d))],
        "sage": [("W", (d, 2 * d))],
        "gat": [(f"heads.{k}.{w}", shape) for k in range(cfg.n_heads)
                for w, shape in (("W", (dk, d)), ("U", (2 * dk,)))],
        "gatedgcn": [(w, (d, d)) for w in ("U", "W", "A", "B", "C")],
    }[cfg.architecture]


def param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) table defining the flat coordinate layout."""
    d, dg, t = cfg.hidden_dim, cfg.graph_dim, cfg.n_tasks
    specs: list[tuple[str, tuple[int, ...]]] = [("embed.node", (d, NODE_DIM))]
    if cfg.architecture == "gatedgcn":
        specs.append(("embed.edge", (d, EDGE_DIM)))
    specs += [(f"layers.{i}.{name}", shape) for i in range(cfg.n_layers)
              for name, shape in _layer_weights(cfg)]
    return specs + [("readout.W", (dg, d)), ("classify.W", (t, dg)),
                    ("classify.b", (t,))]


def spec_digest(cfg: ModelConfig) -> str:
    """Fingerprint of the coordinate order; guards posterior loads."""
    blob = json.dumps(param_specs(cfg), sort_keys=False).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# batching


@dataclass
class GraphBatch:
    node_x: np.ndarray        # (n_nodes, node_dim)
    edge_x: np.ndarray        # (n_edges, edge_dim)
    edge_index: np.ndarray    # (n_edges, 2) int64, columns (src, dst)
    node_graph: np.ndarray    # (n_nodes,) int64, sorted contiguous
    labels: np.ndarray        # (n_graphs, T) float64, NaN = missing
    n_graphs: int

    @property
    def n_nodes(self) -> int:
        return int(self.node_x.shape[0])

    # one plan per key array, built on first use and shared by every layer,
    # head and draw that runs on this batch; a plan sorts its keys only
    # when a sum first folds with it, and a neighbour sum folds with the
    # destination plan forward and with the source plan backward
    @functools.cached_property
    def edges_by_src(self) -> ad.SumPlan:
        return ad.SumPlan(self.edge_index[:, 0], self.n_nodes)

    @functools.cached_property
    def edges_by_dst(self) -> ad.SumPlan:
        return ad.SumPlan(self.edge_index[:, 1], self.n_nodes)

    @functools.cached_property
    def nodes_by_graph(self) -> ad.SumPlan:
        return ad.SumPlan(self.node_graph, self.n_graphs)


def make_batch(graphs: Sequence[FeaturizedGraph],
               labels: np.ndarray) -> GraphBatch:
    """Concatenate featurized graphs, offsetting edge endpoints."""
    if not graphs:
        raise DataError("cannot batch zero graphs")
    labels = np.asarray(labels, dtype=np.float64)
    if labels.ndim != 2 or labels.shape[0] != len(graphs):
        raise DataError(f"labels shape {labels.shape} does not match "
                        f"{len(graphs)} graphs")
    n_atoms = np.array([g.node_x.shape[0] for g in graphs], dtype=np.int64)
    empty = np.flatnonzero(n_atoms == 0)
    if empty.size:
        raise DataError(f"graph {empty[0]} has no atoms")
    n_edges = [g.edge_index.shape[0] for g in graphs]
    first_atom = np.cumsum(n_atoms) - n_atoms
    batch = GraphBatch(
        node_x=np.concatenate([g.node_x for g in graphs]),
        edge_x=np.concatenate([g.edge_x for g in graphs]),
        edge_index=np.concatenate([g.edge_index for g in graphs])
        + np.repeat(first_atom, n_edges)[:, None],
        node_graph=np.repeat(np.arange(len(graphs), dtype=np.int64),
                             n_atoms),
        labels=labels,
        n_graphs=len(graphs),
    )
    ei = batch.edge_index
    if ei.size and (ei.min() < 0 or ei.max() >= batch.n_nodes):
        raise DataError("edge endpoints outside batch node range")
    if not np.array_equal(batch.node_graph[ei[:, 0]],
                          batch.node_graph[ei[:, 1]]):
        raise DataError("an edge joins atoms of two different graphs")
    return batch


# ---------------------------------------------------------------------------
# layers


def layer_gcn(h, e, batch: GraphBatch, W):
    agg = ad.aggregate(h, batch.edges_by_src, batch.edges_by_dst)
    return ad.relu(ad.linear(ad.add(agg, h), W)), e


def layer_gin(h, e, batch: GraphBatch, W1, W2):
    agg = ad.aggregate(h, batch.edges_by_src, batch.edges_by_dst)
    return ad.linear(ad.relu(ad.linear(ad.add(agg, h), W1)), W2), e


def layer_sage(h, e, batch: GraphBatch, W):
    agg = ad.aggregate(h, batch.edges_by_src, batch.edges_by_dst)
    return ad.relu(ad.linear(ad.concat([h, agg], axis=1), W)), e


def layer_gat(h, e, batch: GraphBatch, *weights):
    """weights: W (d/K, d) then U (2d/K,) for each of the K heads.

    The edge score U^T [p_dst || p_src] is the sum of two per-node logits,
    so only those two columns are gathered to the edges, and the message
    sum weights each neighbour's row by its attention in one planned sum.
    """
    src, dst = batch.edges_by_src, batch.edges_by_dst
    outs = []
    for W, U in zip(weights[0::2], weights[1::2]):
        p = ad.linear(h, W)                       # (n, dk)
        dk = p.data.shape[1]
        u_dst, u_src = ad.split(U, [(1, dk), (1, dk)])
        score = ad.add(ad.gather_rows(ad.linear(p, u_dst), dst),
                       ad.gather_rows(ad.linear(p, u_src), src))
        score = ad.leaky_relu(score, LEAKY_SLOPE)  # (E, 1)
        alpha = ad.segment_softmax(score, dst)
        outs.append(ad.elu(ad.aggregate(p, src, dst, alpha)))
    return ad.concat(outs, axis=1), e


def layer_gatedgcn(h, e, batch: GraphBatch, U, W, A, B, C):
    """Updates the edge states e first; the gates use the update."""
    src, dst = batch.edges_by_src, batch.edges_by_dst
    bump = ad.relu(ad.add(
        ad.add(ad.gather_rows(ad.linear(h, A), dst),
               ad.gather_rows(ad.linear(h, B), src)),
        ad.linear(e, C)))
    e_new = ad.add(e, bump)
    numer = ad.sigmoid(e_new)
    denom = ad.segment_sum(numer, dst)
    gate = ad.div(numer, ad.add(ad.gather_rows(denom, dst), GATE_EPS))
    agg = ad.aggregate(ad.linear(h, W), src, dst, gate)
    return ad.relu(ad.add(ad.linear(h, U), agg)), e_new


_LAYERS = {"gcn": layer_gcn, "gin": layer_gin, "sage": layer_sage,
           "gat": layer_gat, "gatedgcn": layer_gatedgcn}


def bce_loss_masked(logits: ad.Tensor, labels: np.ndarray) -> ad.Tensor:
    """Mean binary cross-entropy over non-missing cells, stable log form.

    loss cell = softplus(z) - y*z, equal to -log sigmoid(z) at y=1 and
    -log(1 - sigmoid(z)) at y=0.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != logits.data.shape:
        raise ad.ShapeError(f"labels {labels.shape} vs logits "
                            f"{logits.data.shape}")
    mask = (~np.isnan(labels)).astype(np.float64)
    n_present = mask.sum()
    if n_present == 0:
        raise DataError("batch has no observed labels")
    y = np.nan_to_num(labels, nan=0.0)
    cells = ad.sub(ad.softplus(logits), ad.mul(logits, y))
    return ad.div(ad.tsum(ad.mul(cells, mask)), float(n_present))


# ---------------------------------------------------------------------------
# model


class GnnClassifier:
    """One architecture bound to a flat parameter coordinate system."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.specs = param_specs(cfg)
        self.offsets: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        pos = 0
        for name, shape in self.specs:
            size = int(np.prod(shape))
            self.offsets[name] = (pos, pos + size, shape)
            pos += size
        self.n_params = pos
        self.digest = spec_digest(cfg)
        self.layer = _LAYERS[cfg.architecture]
        self.layer_names = [[f"layers.{i}.{name}"
                             for name, _ in _layer_weights(cfg)]
                            for i in range(cfg.n_layers)]

    # -- parameters

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Glorot-uniform matrices, zero biases, in coordinate order."""
        flat = np.zeros(self.n_params)
        for name, shape in self.specs:
            lo, hi, _ = self.offsets[name]
            if name == "classify.b":
                continue
            if len(shape) == 1:
                fan_in, fan_out = shape[0], 1
            else:
                fan_out, fan_in = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            flat[lo:hi] = rng.uniform(-limit, limit, size=hi - lo)
        return flat

    def leaves(self, theta: ad.Tensor) -> dict[str, ad.Tensor]:
        """Split one flat tensor into named weights of their shapes."""
        pieces = ad.split(theta, [shape for _, shape in self.specs])
        return {name: t for (name, _), t in zip(self.specs, pieces)}

    # -- forward

    def forward(self, batch: GraphBatch, leaves: dict[str, ad.Tensor],
                train: bool = False,
                dropout_rng: Optional[np.random.Generator] = None
                ) -> ad.Tensor:
        """Per-graph logits (n_graphs, T)."""
        cfg = self.cfg
        if batch.node_x.shape[1] != NODE_DIM:
            raise DataError(f"node features have dim {batch.node_x.shape[1]},"
                            f" model expects {NODE_DIM}")
        use_dropout = train and cfg.dropout > 0.0
        if use_dropout and dropout_rng is None:
            raise ConfigError("dropout requires a dropout rng")
        h = ad.linear(ad.Tensor(batch.node_x), leaves["embed.node"])
        e = None
        if "embed.edge" in self.offsets:
            if batch.edge_x.shape[1] != EDGE_DIM:
                raise DataError(
                    f"edge features have dim {batch.edge_x.shape[1]}, "
                    f"model expects {EDGE_DIM}")
            e = ad.linear(ad.Tensor(batch.edge_x), leaves["embed.edge"])
        for names in self.layer_names:
            branch, e = self.layer(h, e, batch, *[leaves[n] for n in names])
            if use_dropout:
                branch = ad.dropout(branch, cfg.dropout, dropout_rng)
            h = ad.add(h, branch)
        # a sum, then a projection: the sum is linear, so projecting the
        # per-graph sums costs one row per graph instead of one per atom
        pooled = ad.linear(ad.segment_sum(h, batch.nodes_by_graph),
                           leaves["readout.W"])
        logits = ad.linear(pooled, leaves["classify.W"])
        return ad.add(logits, leaves["classify.b"])

    def nll(self, tape: ad.Tape, theta: ad.Tensor, batch: GraphBatch,
            train: bool = False,
            rng: Optional[np.random.Generator] = None) -> ad.Tensor:
        """Mean masked cross-entropy of the batch, differentiable in theta."""
        logits = self.forward(batch, self.leaves(theta), train=train,
                              dropout_rng=rng)
        return bce_loss_masked(logits, batch.labels)

    # -- convenience entry points on flat vectors

    def logits(self, flat: np.ndarray, batch: GraphBatch,
               train: bool = False,
               dropout_rng: Optional[np.random.Generator] = None
               ) -> np.ndarray:
        out = self.forward(batch, self.leaves(ad.Tensor(flat)), train=train,
                           dropout_rng=dropout_rng)
        return out.data

    def predict_proba(self, flat: np.ndarray, batch: GraphBatch,
                      train: bool = False,
                      dropout_rng: Optional[np.random.Generator] = None
                      ) -> np.ndarray:
        return ad.sigmoid(ad.Tensor(self.logits(
            flat, batch, train=train, dropout_rng=dropout_rng))).data
