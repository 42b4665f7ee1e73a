"""Layer semantics, batch mechanics, equivariance and gradients."""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from molbayes import autodiff as ad
from molbayes import bayes, gnn
from molbayes.chem import FeaturizedGraph, featurize, parse_smiles
from molbayes.errors import ConfigError, DataError
from molbayes.gnn import (GnnClassifier, GraphBatch, ModelConfig,
                          bce_loss_masked, make_batch)


def t(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def batch_of(edges, n_nodes, n_graphs=1, node_graph=None, d_e=4):
    """Tiny batch from a directed edge list (both directions supplied)."""
    edge_index = (np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                  if edges else np.zeros((0, 2), dtype=np.int64))
    return GraphBatch(
        node_x=np.zeros((n_nodes, 40)),
        edge_x=np.zeros((len(edges), d_e)),
        edge_index=edge_index,
        node_graph=(np.zeros(n_nodes, dtype=np.int64)
                    if node_graph is None
                    else np.asarray(node_graph, dtype=np.int64)),
        labels=np.zeros((n_graphs, 1)),
        n_graphs=n_graphs,
    )


def both_ways(pairs):
    out = []
    for a, b in pairs:
        out += [(a, b), (b, a)]
    return out


# ---------------------------------------------------------------------------
# individual layers


def test_gcn_isolated_node_identity_weight():
    b = batch_of([], 1)
    h = t([[-1.0, 2.0]])
    out, _ = gnn.layer_gcn(h, None, b, t(np.eye(2)))
    assert np.array_equal(out.data, [[0.0, 2.0]])


def test_gcn_path_graph_hand_value():
    b = batch_of(both_ways([(0, 1)]), 2)
    h = t([[1.0, 0.0], [0.0, 1.0]])
    out, _ = gnn.layer_gcn(h, None, b, t(np.eye(2)))
    assert np.array_equal(out.data, [[1.0, 1.0], [1.0, 1.0]])


def test_gcn_zero_weight():
    b = batch_of(both_ways([(0, 1)]), 2)
    out, _ = gnn.layer_gcn(t(np.random.default_rng(0).normal(size=(2, 3))),
                           None, b, t(np.zeros((3, 3))))
    assert np.all(out.data == 0.0)


def test_gin_isolated_and_triangle():
    b = batch_of([], 1)
    h = t([[0.5, -0.5]])
    out, _ = gnn.layer_gin(h, None, b, t(np.eye(2)), t(np.eye(2)))
    assert np.array_equal(out.data, [[0.5, 0.0]])

    tri = batch_of(both_ways([(0, 1), (1, 2), (0, 2)]), 3)
    h = t([[1.0], [1.0], [1.0]])
    out, _ = gnn.layer_gin(h, None, tri, t([[1.0]]), t([[1.0]]))
    assert np.array_equal(out.data, [[3.0], [3.0], [3.0]])


def test_gin_has_no_outer_relu():
    b = batch_of([], 1)
    out, _ = gnn.layer_gin(t([[1.0]]), None, b, t([[1.0]]), t([[-1.0]]))
    assert out.data[0, 0] == -1.0


def test_sage_excludes_self_from_neighbor_sum():
    b = batch_of([], 1)
    h = t([[1.0]])
    out, _ = gnn.layer_sage(h, None, b, t([[1.0, 1.0]]))
    assert out.data[0, 0] == 1.0  # neighbor block is zero

    edge = batch_of(both_ways([(0, 1)]), 2)
    h = t([[1.0], [1.0]])
    out, _ = gnn.layer_sage(h, None, edge, t([[1.0, 1.0]]))
    assert np.array_equal(out.data, [[2.0], [2.0]])


def dense_gat_head(h, in_nbrs, W, U):
    """Straight-line reimplementation used as an oracle."""
    dk = W.shape[0]
    p = h @ W.T
    out = np.zeros((h.shape[0], dk))
    alphas = {}
    for i, nbrs in enumerate(in_nbrs):
        if not nbrs:
            continue
        scores = []
        for j in nbrs:
            raw = U[:dk] @ p[i] + U[dk:] @ p[j]
            scores.append(raw if raw > 0 else 0.2 * raw)
        scores = np.array(scores)
        a = np.exp(scores - scores.max())
        a /= a.sum()
        alphas[i] = a
        agg = sum(a[m] * p[j] for m, j in enumerate(nbrs))
        out[i] = np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0)))
    return out, alphas


def test_gat_singleton_softmax_and_symmetry():
    rng = np.random.default_rng(5)
    d, k = 4, 2
    heads = [(t(rng.normal(size=(2, 4), scale=0.3)), t(rng.normal(size=4)))
             for _ in range(k)]
    flat_heads = [w for head in heads for w in head]
    # node 0 has exactly one incoming edge: alpha must be 1
    b = batch_of([(1, 0)], 2)
    h_nodes = rng.normal(size=(2, d))
    out, _ = gnn.layer_gat(t(h_nodes), None, b, *flat_heads)
    for W, U in heads:
        p = h_nodes @ W.data.T
        want = np.where(p[1] > 0, p[1], np.expm1(np.minimum(p[1], 0)))
        got = out.data[0, :2] if (W, U) == heads[0] else out.data[0, 2:]
        assert np.allclose(got, want, atol=1e-12)

    # two incoming edges from nodes with identical states: alpha = 0.5 each
    b = batch_of([(1, 0), (2, 0)], 3)
    same = rng.normal(size=d)
    h_nodes = np.stack([rng.normal(size=d), same, same])
    out, _ = gnn.layer_gat(t(h_nodes), None, b, *flat_heads)
    for idx, (W, U) in enumerate(heads):
        p = h_nodes @ W.data.T
        agg = 0.5 * p[1] + 0.5 * p[2]
        want = np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0)))
        assert np.allclose(out.data[0, 2 * idx:2 * idx + 2], want, atol=1e-12)


def test_gat_matches_dense_oracle_and_alpha_sums():
    rng = np.random.default_rng(9)
    d, dk = 6, 3
    # star: center 0 with incoming edges from 1..3, plus reverse edges
    edges = both_ways([(1, 0), (2, 0), (3, 0)])
    b = batch_of(edges, 4)
    in_nbrs = [[], [], [], []]
    for s, dd in edges:
        in_nbrs[dd].append(s)
    h_nodes = rng.normal(size=(4, d), scale=0.5)
    W = rng.normal(size=(dk, d), scale=0.4)
    U = rng.normal(size=2 * dk, scale=0.4)
    out, _ = gnn.layer_gat(t(h_nodes), None, b, t(W), t(U))
    want, alphas = dense_gat_head(h_nodes, in_nbrs, W, U)
    assert np.allclose(out.data, want, atol=1e-12)
    for i, a in alphas.items():
        assert abs(a.sum() - 1.0) < 1e-12


def per_edge_layer_gat(h, e, batch: GraphBatch, *weights):
    """The earlier GAT layer: both halves of the score and the message
    each gather a head's (E, d/K) projection to the edges."""
    src, dst = batch.edges_by_src, batch.edges_by_dst
    outs = []
    for W, U in zip(weights[0::2], weights[1::2]):
        p = ad.linear(h, W)
        dk = p.data.shape[1]
        u_dst, u_src = ad.split(U, [(1, dk), (1, dk)])
        score = ad.add(ad.linear(ad.gather_rows(p, dst), u_dst),
                       ad.linear(ad.gather_rows(p, src), u_src))
        score = ad.leaky_relu(score, gnn.LEAKY_SLOPE)
        alpha = ad.segment_softmax(score, dst)
        msg = ad.mul(alpha, ad.gather_rows(p, src))
        outs.append(ad.elu(ad.segment_sum(msg, dst)))
    return ad.concat(outs, axis=1), e


@pytest.mark.parametrize("train", [False, True], ids=["eval", "dropout"])
def test_gat_matches_the_per_edge_layer(train):
    # per-node logits and the weighted neighbour sum change only rounding
    batch = make_batch(
        featurized(["CC(=O)Oc1ccccc1C(=O)O", "c1ccc2[nH]ccc2c1",
                    "CCN(CC)CCNC(=O)c1ccc(N)cc1", "C1CC1"]),
        np.array([[1.0, 0.0], [0.0, np.nan], [1.0, 1.0], [np.nan, 0.0]]))
    cfg = ModelConfig(architecture="gat", hidden_dim=16, graph_dim=8,
                      n_layers=2, n_heads=4, n_tasks=2, dropout=0.2)
    model, reference = GnnClassifier(cfg), GnnClassifier(cfg)
    reference.layer = per_edge_layer_gat
    flat = model.init_params(np.random.default_rng(8))
    results = []
    for m in (model, reference):
        tape = ad.Tape()
        theta = tape.parameter("theta", flat)
        logits = m.forward(batch, m.leaves(theta), train=train,
                           dropout_rng=np.random.default_rng(9))
        loss = bce_loss_masked(logits, batch.labels)
        results.append((logits.data, ad.backward(tape, loss)["theta"]))
    (logits, grad), (want_logits, want_grad) = results
    assert np.allclose(logits, want_logits, rtol=1e-9, atol=1e-12)
    assert np.allclose(grad, want_grad, rtol=1e-9, atol=1e-12)
    assert np.abs(grad).max() > 1e-3


def dense_gatedgcn(h, w_edge, edges, U, W, A, B, C, eps=1e-6):
    n = h.shape[0]
    w_new = np.zeros_like(w_edge)
    for e, (s, d_) in enumerate(edges):
        z = A @ h[d_] + B @ h[s] + C @ w_edge[e]
        w_new[e] = w_edge[e] + np.maximum(z, 0)
    out = np.zeros_like(h)
    for i in range(n):
        incoming = [e for e, (s, d_) in enumerate(edges) if d_ == i]
        denom = sum(1 / (1 + np.exp(-w_new[e])) for e in incoming) + eps
        acc = U @ h[i]
        for e in incoming:
            s = edges[e][0]
            gate = (1 / (1 + np.exp(-w_new[e]))) / denom
            acc = acc + gate * (W @ h[s])
        out[i] = np.maximum(acc, 0)
    return out, w_new


def test_gatedgcn_gate_normalization():
    rng = np.random.default_rng(13)
    d = 3
    mats = [t(rng.normal(size=(d, d), scale=0.3)) for _ in range(5)]
    # one incoming edge: gate == sigma/(sigma + eps), within eps of 1
    b = batch_of([(1, 0)], 2)
    h_nodes = rng.normal(size=(2, d))
    w0 = rng.normal(size=(1, d))
    out, w_new = gnn.layer_gatedgcn(t(h_nodes), t(w0), b, *mats)
    want, w_want = dense_gatedgcn(h_nodes, w0, [(1, 0)],
                                  *[m.data for m in mats])
    assert np.allclose(out.data, want, atol=1e-12)
    assert np.allclose(w_new.data, w_want, atol=1e-12)


def test_gatedgcn_matches_dense_oracle():
    rng = np.random.default_rng(17)
    d = 4
    edges = both_ways([(0, 1), (1, 2), (2, 3), (0, 3)])
    b = batch_of(edges, 4)
    h_nodes = rng.normal(size=(4, d), scale=0.5)
    w0 = rng.normal(size=(len(edges), d), scale=0.5)
    mats = [rng.normal(size=(d, d), scale=0.4) for _ in range(5)]
    out, w_new = gnn.layer_gatedgcn(t(h_nodes), t(w0), b,
                                    *[t(m) for m in mats])
    want, w_want = dense_gatedgcn(h_nodes, w0, edges, *mats)
    assert np.allclose(out.data, want, atol=1e-12)
    assert np.allclose(w_new.data, w_want, atol=1e-12)


def test_gatedgcn_equal_edge_states_split_gates_evenly():
    d = 2
    eye = t(np.eye(d))
    zero = t(np.zeros((d, d)))
    b = batch_of([(1, 0), (2, 0)], 3)
    h_nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    w0 = np.ones((2, d))
    # A=B=C=0 keeps edge states fixed; U=0, W=I isolates the gated sum
    out, _ = gnn.layer_gatedgcn(t(h_nodes), t(w0), b, zero, eye, zero,
                                zero, zero)
    sig = 1 / (1 + np.exp(-1.0))
    share = sig / (2 * sig + 1e-6)
    assert np.allclose(out.data[0], [2 * share * 1.0, 0.0], atol=1e-12)


def test_residual_update():
    # the forward adds each layer's branch to the node states, so a zero
    # branch (all-zero gcn weight) leaves them unchanged
    model = GnnClassifier(ModelConfig(architecture="gcn", hidden_dim=3,
                                      graph_dim=2, n_layers=1, dropout=0.0))
    batch = make_batch(featurized(["CCO"]), np.zeros((1, 1)))
    flat = model.init_params(np.random.default_rng(8))
    for scale in (1.0, 0.0):
        lo, hi, _ = model.offsets["layers.0.W"]
        flat[lo:hi] *= scale
        w = {name: flat[lo:hi].reshape(shape)
             for name, (lo, hi, shape) in model.offsets.items()}
        h = batch.node_x @ w["embed.node"].T
        branch = gnn.layer_gcn(t(h), None, batch, t(w["layers.0.W"]))[0].data
        assert np.all(branch == 0.0) == (scale == 0.0)
        pooled = ((h + branch) @ w["readout.W"].T).sum(axis=0)
        want = pooled @ w["classify.W"].T + w["classify.b"]
        assert np.allclose(model.logits(flat, batch), [want], atol=1e-12)


# ---------------------------------------------------------------------------
# loss


def test_bce_values():
    z = t(np.array([[0.0]]))
    assert abs(bce_loss_masked(z, np.array([[1.0]])).item()
               - np.log(2.0)) < 1e-12
    z = t(np.array([[20.0]]))
    loss = bce_loss_masked(z, np.array([[1.0]])).item()
    assert abs(loss - 2.0611536181902037e-09) < 1e-15


def test_bce_masking():
    z = t(np.array([[0.0, 100.0]]))
    loss = bce_loss_masked(z, np.array([[1.0, np.nan]])).item()
    assert abs(loss - np.log(2.0)) < 1e-12
    with pytest.raises(DataError):
        bce_loss_masked(z, np.array([[np.nan, np.nan]]))


def test_bce_no_overflow_at_extreme_logits():
    z = t(np.array([[800.0, -800.0]]))
    loss = bce_loss_masked(z, np.array([[0.0, 1.0]])).item()
    assert np.isfinite(loss) and loss > 100


# ---------------------------------------------------------------------------
# config and batching


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(architecture="transformer")
    with pytest.raises(ConfigError):
        ModelConfig(architecture="gat", hidden_dim=10, n_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(architecture="gcn", n_layers=0)


def test_param_shapes_per_architecture():
    d, dg, T = 8, 6, 3
    for arch in gnn.ARCHITECTURES:
        cfg = ModelConfig(architecture=arch, hidden_dim=d, graph_dim=dg,
                          n_layers=2, n_heads=2, n_tasks=T)
        model = GnnClassifier(cfg)
        shapes = dict(model.specs)
        assert shapes["embed.node"] == (d, 40)
        assert shapes["readout.W"] == (dg, d)
        assert shapes["classify.W"] == (T, dg)
        assert shapes["classify.b"] == (T,)
        if arch == "sage":
            assert shapes["layers.0.W"] == (d, 2 * d)
        if arch == "gat":
            assert shapes["layers.0.heads.1.W"] == (d // 2, d)
            assert shapes["layers.1.heads.0.U"] == (d,)
        if arch == "gatedgcn":
            assert shapes["embed.edge"] == (d, 4)
            assert shapes["layers.1.C"] == (d, d)
        flat = model.init_params(np.random.default_rng(0))
        assert flat.shape == (model.n_params,)
        lo, hi, _ = model.offsets["classify.b"]
        assert np.all(flat[lo:hi] == 0.0)


# every saved posterior is tied to these coordinate layouts
DEFAULT_LAYOUTS = {"gcn": ("53fb27fc3adde53b", 103681),
                   "gin": ("077f847823fe6d6e", 169217),
                   "sage": ("9fa627eb2f90a567", 169217),
                   "gat": ("64800f71293a416d", 104705),
                   "gatedgcn": ("a65bef4f8ac053fa", 366337)}
SMALL_DIGESTS = {"gcn": "2084f932e94d3afd", "gin": "a7b9be8a994b2eb4",
                 "sage": "4581e307e082e2b9", "gat": "fe683ad79472d7d6",
                 "gatedgcn": "495d60bfeb1cb864"}


@pytest.mark.parametrize("arch", gnn.ARCHITECTURES)
def test_coordinate_layout_is_pinned(arch):
    model = GnnClassifier(ModelConfig(architecture=arch))
    assert (model.digest, model.n_params) == DEFAULT_LAYOUTS[arch]
    small = ModelConfig(architecture=arch, hidden_dim=8, graph_dim=8,
                        n_layers=1, n_heads=2)
    assert gnn.spec_digest(small) == SMALL_DIGESTS[arch]


def featurized(smiles_list):
    return [featurize(parse_smiles(s)) for s in smiles_list]


def test_make_batch_offsets_edges():
    graphs = featurized(["CC", "CCC"])
    batch = make_batch(graphs, np.zeros((2, 1)))
    assert batch.n_nodes == 5 and batch.n_graphs == 2
    assert batch.edge_index.min() >= 0 and batch.edge_index.max() == 4
    # second graph's edges all reference nodes 2..4
    second = batch.edge_index[len(graphs[0].edge_index):]
    assert second.min() >= 2
    assert np.array_equal(batch.node_graph, [0, 0, 1, 1, 1])


def test_make_batch_rejects_bad_labels():
    graphs = featurized(["CC"])
    with pytest.raises(DataError):
        make_batch(graphs, np.zeros((2, 1)))
    with pytest.raises(DataError):
        make_batch([], np.zeros((0, 1)))


def test_make_batch_rejects_an_edge_between_graphs():
    # atom 0 names atom 2, which is the first atom of the next graph
    reaching = FeaturizedGraph(np.zeros((2, 40)), np.zeros((2, 4)),
                               np.array([[0, 2], [2, 0]], dtype=np.int64))
    with pytest.raises(DataError):
        make_batch([reaching, *featurized(["CC"])], np.zeros((2, 1)))


def _add_at(keys, rows, n):
    out = np.zeros((n,) + rows.shape[1:])
    np.add.at(out, keys, rows)
    return out


def test_plans_are_built_once_per_batch():
    batch = make_batch(featurized(["CCO", "c1ccccc1"]), np.zeros((2, 1)))
    src, dst = batch.edge_index[:, 0], batch.edge_index[:, 1]
    rng = np.random.default_rng(0)
    h = rng.normal(size=(batch.n_nodes, 3))
    e = rng.normal(size=(src.size, 3))
    n = batch.n_nodes
    # each plan: its input rows and the np.add.at sum it must reproduce
    plans = {"edges_by_src": (e, _add_at(src, e, n)),
             "edges_by_dst": (e, _add_at(dst, e, n)),
             "nodes_by_graph": (h, _add_at(batch.node_graph, h,
                                           batch.n_graphs))}
    for name, (rows, want) in plans.items():
        plan = getattr(batch, name)
        assert getattr(batch, name) is plan, name
        assert np.array_equal(plan.apply(rows), want), name
    # a neighbour sum reads each edge's source row
    assert np.array_equal(batch.edges_by_dst.apply(h, index=src),
                          _add_at(dst, h[src], n))


@pytest.mark.parametrize("arch", ["gat", "gatedgcn"])
def test_predictions_build_each_plan_once(arch, monkeypatch):
    built, sorted_ = [], []
    init, layout = ad.SumPlan.__init__, ad.SumPlan.layout.func

    def counting_init(self, keys, n_out):
        built.append(self)
        init(self, keys, n_out)

    def counting_layout(self):
        sorted_.append(self)
        return layout(self)

    counted = functools.cached_property(counting_layout)
    counted.__set_name__(ad.SumPlan, "layout")
    monkeypatch.setattr(ad.SumPlan, "__init__", counting_init)
    monkeypatch.setattr(ad.SumPlan, "layout", counted)
    batch = make_batch(featurized(["CCO", "c1ccccc1"]), np.zeros((2, 1)))
    model = GnnClassifier(small_config(arch, T=1))
    flat = model.init_params(np.random.default_rng(0))
    first = model.predict_proba(flat, batch)
    by_src, by_dst = batch.edges_by_src, batch.edges_by_dst
    readout = batch.nodes_by_graph
    # edges by source and by destination, and the readout, are built; a
    # forward pass only gathers by source, so that plan is never sorted
    assert len(built) == 3 and {*built} == {by_src, by_dst, readout}
    assert sorted_ == [by_dst, readout]
    assert np.array_equal(model.predict_proba(flat, batch), first)
    assert len(built) == 3 and sorted_ == [by_dst, readout]
    # a train step's backward sums the gathered rows back by source
    tape = ad.Tape()
    ad.backward(tape, model.nll(tape, tape.parameter("theta", flat), batch))
    assert len(built) == 3 and sorted_ == [by_dst, readout, by_src]


# ---------------------------------------------------------------------------
# whole-model properties


def small_config(arch, T=2):
    return ModelConfig(architecture=arch, hidden_dim=6, graph_dim=5,
                       n_layers=2, n_heads=2, n_tasks=T, dropout=0.0)


def test_zero_weights_give_bias_logits():
    for arch in gnn.ARCHITECTURES:
        model = GnnClassifier(small_config(arch))
        flat = np.zeros(model.n_params)
        lo, hi, _ = model.offsets["classify.b"]
        flat[lo:hi] = [0.7, -0.3]
        batch = make_batch(featurized(["CCO", "c1ccccc1"]),
                           np.zeros((2, 2)))
        out = model.logits(flat, batch)
        assert np.allclose(out, [[0.7, -0.3], [0.7, -0.3]], atol=1e-15), arch


def test_t12_classifier_emits_12_logits():
    model = GnnClassifier(ModelConfig(architecture="gcn", hidden_dim=6,
                                      graph_dim=5, n_layers=1, n_tasks=12,
                                      dropout=0.0))
    batch = make_batch(featurized(["CC"]), np.zeros((1, 12)))
    flat = model.init_params(np.random.default_rng(0))
    assert model.logits(flat, batch).shape == (1, 12)


def permute_featurized(fg: FeaturizedGraph, perm: np.ndarray):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    edge_index = perm[fg.edge_index]
    key = np.lexsort((edge_index[:, 0], edge_index[:, 1]))
    return FeaturizedGraph(fg.node_x[inv], fg.edge_x[key], edge_index[key])


def test_logits_invariant_under_node_relabeling():
    rng = np.random.default_rng(23)
    for arch in gnn.ARCHITECTURES:
        model = GnnClassifier(small_config(arch))
        flat = model.init_params(np.random.default_rng(1))
        fg = featurized(["CC(=O)Oc1ccccc1"])[0]
        base = model.logits(flat, make_batch([fg], np.zeros((1, 2))))
        for _ in range(3):
            perm = rng.permutation(fg.node_x.shape[0])
            fg2 = permute_featurized(fg, perm)
            out = model.logits(flat, make_batch([fg2], np.zeros((1, 2))))
            assert np.allclose(out, base, atol=1e-10), arch


def test_isomorphic_smiles_give_identical_logits():
    pairs = [("C1CC1", "C2CC2"), ("c1ccccc1", "c1ccc(cc1)"),
             ("CC(=O)O", "OC(C)=O")]
    for arch in gnn.ARCHITECTURES:
        model = GnnClassifier(small_config(arch))
        flat = model.init_params(np.random.default_rng(2))
        for a, b in pairs:
            la = model.logits(flat, make_batch(featurized([a]),
                                               np.zeros((1, 2))))
            lb = model.logits(flat, make_batch(featurized([b]),
                                               np.zeros((1, 2))))
            assert np.allclose(la, lb, atol=1e-10), (arch, a, b)


def test_batched_equals_individual_prediction():
    smiles = ["CCO", "c1ccccc1", "CC(=O)O", "C"]
    labels = np.zeros((4, 2))
    for arch in gnn.ARCHITECTURES:
        model = GnnClassifier(small_config(arch))
        flat = model.init_params(np.random.default_rng(3))
        together = model.predict_proba(flat, make_batch(featurized(smiles),
                                                        labels))
        for i, s in enumerate(smiles):
            alone = model.predict_proba(
                flat, make_batch(featurized([s]), labels[i:i + 1]))
            assert np.allclose(alone, together[i:i + 1], atol=1e-12), arch


def test_gradcheck_every_architecture():
    rng = np.random.default_rng(31)
    batch = make_batch(featurized(["CCO", "C1CC1C"]),
                       np.array([[1.0, 0.0], [0.0, np.nan]]))
    for arch in gnn.ARCHITECTURES:
        model = GnnClassifier(small_config(arch))
        flat = model.init_params(rng)
        _, grad = bayes._grad_flat(model, flat, batch)

        def f(v):
            tape = ad.Tape()
            theta = tape.parameter("theta", v)
            logits = model.forward(batch, model.leaves(theta))
            return bce_loss_masked(logits, batch.labels).item()

        fd = ad.finite_diff_grad(f, flat)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() / scale < 1e-5, arch


def test_dropout_changes_training_forward_only():
    model = GnnClassifier(ModelConfig(architecture="gcn", hidden_dim=6,
                                      graph_dim=5, n_layers=2, n_tasks=1,
                                      dropout=0.5))
    batch = make_batch(featurized(["CCO"]), np.zeros((1, 1)))
    flat = model.init_params(np.random.default_rng(4))
    plain = model.logits(flat, batch)
    assert np.allclose(model.logits(flat, batch), plain)
    rng = np.random.default_rng(5)
    noisy = model.logits(flat, batch, train=True, dropout_rng=rng)
    assert not np.allclose(noisy, plain)
    with pytest.raises(ConfigError):
        model.logits(flat, batch, train=True)



# one sha256 of the raw float64 logits per batch size and architecture,
# at the default dims, on drug-sized molecules of ring and linker pieces
LOGIT_HASHES = """
import hashlib, random
import numpy as np
from molbayes.chem import featurize, parse_smiles
from molbayes.gnn import ARCHITECTURES, GnnClassifier, ModelConfig, make_batch
RINGS = ("c1ccccc1", "C1CCNCC1", "c1ccncc1", "C1CCOC1", "c1ccsc1")
LINKS = ("C", "CC", "CO", "CN", "C(=O)N", "CCO", "C(C)C")
rnd = random.Random(5)
for n in (128, 512):
    smiles = ["".join(rnd.choice(RINGS) + rnd.choice(LINKS)
                      for _ in range(rnd.randint(2, 4))) for _ in range(n)]
    batch = make_batch([featurize(parse_smiles(s)) for s in smiles],
                       np.zeros((n, 1)))
    for arch in ARCHITECTURES:
        model = GnnClassifier(ModelConfig(architecture=arch))
        logits = model.logits(model.init_params(np.random.default_rng(0)),
                              batch)
        print(n, arch, hashlib.sha256(logits.tobytes()).hexdigest())
"""


def test_forward_bits_do_not_depend_on_blas_threads():
    # prediction pins BLAS to one thread while its draws run on a pool;
    # that keeps outputs only because no forward product is split across
    # BLAS threads: each contracts over at most graph_dim = 256 columns
    src = os.path.dirname(os.path.dirname(gnn.__file__))
    runs = [subprocess.Popen(
        [sys.executable, "-c", LOGIT_HASHES], stdout=subprocess.PIPE,
        text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                            PYTHONPATH=os.pathsep.join(
                                [src, os.environ.get("PYTHONPATH", "")])))
        for threads in ("1", "2")]
    hashes = []
    for run in runs:
        out, _ = run.communicate(timeout=300)
        assert run.returncode == 0
        hashes.append(out.splitlines())
    assert len(hashes[0]) == 2 * len(gnn.ARCHITECTURES)
    assert hashes[0] == hashes[1]
