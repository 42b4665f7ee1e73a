"""Gradient correctness and optimizer behaviour for the tape engine."""

import ast
import gc
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from molbayes import autodiff as ad
from molbayes.errors import NumericError


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Max elementwise gap relative to the largest value in play."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def check_param_grads(build, x0: np.ndarray, tol: float = 1e-6):
    """Compare tape gradients against central differences on a flat vector.

    ``build(flat)`` must return (tape, loss) with every entry of ``flat``
    reachable through registered parameters.
    """
    tape, loss = build(x0)
    grads = ad.backward(tape, loss)
    flat_grad = np.concatenate([g.ravel() for g in grads.values()])

    def f(flat):
        _, out = build(flat)
        return out.item()

    fd = ad.finite_diff_grad(f, x0)
    assert rel_err(flat_grad, fd) < tol


# ---------------------------------------------------------------------------
# elementwise and binary ops


BINARY_OPS = [ad.add, ad.sub, ad.mul, ad.div]
UNARY_OPS = [ad.relu, ad.leaky_relu, ad.elu, ad.sigmoid, ad.softplus]


@pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
def test_binary_op_grads(op):
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        x0 = rng.normal(size=2 * n)
        if op is ad.div:
            x0[n:] = np.sign(x0[n:]) * (np.abs(x0[n:]) + 0.5)

        def build(flat):
            tape = ad.Tape()
            a = tape.parameter("a", flat[:n])
            b = tape.parameter("b", flat[n:])
            out = op(a, b)
            return tape, ad.tsum(ad.mul(out, out))

        check_param_grads(build, x0)


@pytest.mark.parametrize("op", UNARY_OPS, ids=lambda op: op.__name__)
def test_unary_op_grads(op):
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        x0 = rng.normal(size=n)
        # keep points away from the relu-family kink at 0
        x0[np.abs(x0) < 1e-3] = 0.5

        def build(flat):
            tape = ad.Tape()
            a = tape.parameter("a", flat)
            out = op(a)
            return tape, ad.tsum(ad.mul(out, out))

        check_param_grads(build, x0)


def test_log_and_clip_min_grads():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        x0 = rng.uniform(0.5, 3.0, size=n)

        def build(flat):
            tape = ad.Tape()
            a = tape.parameter("a", flat)
            out = ad.log(ad.clip_min(a, 1e-12))
            return tape, ad.tsum(out)

        check_param_grads(build, x0)


def test_clip_min_clamps_and_zeroes_grad():
    tape = ad.Tape()
    a = tape.parameter("a", np.array([-1.0, 0.5, 2.0]))
    out = ad.clip_min(a, 0.0)
    assert np.array_equal(out.data, [0.0, 0.5, 2.0])
    grads = ad.backward(tape, ad.tsum(out))
    assert np.array_equal(grads["a"], [0.0, 1.0, 1.0])


def test_broadcasting_grads_sum_correctly():
    # (3,2) + (2,) exercises the unbroadcast path
    def build(flat):
        tape = ad.Tape()
        a = tape.parameter("a", flat[:6].reshape(3, 2))
        b = tape.parameter("b", flat[6:])
        return tape, ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b)))

    rng = np.random.default_rng(19)
    check_param_grads(build, rng.normal(size=8))


def test_softplus_matches_closed_form_in_far_tail():
    tape = ad.Tape()
    a = tape.parameter("a", np.array(-20.0))
    out = ad.softplus(a)
    # log(1 + e^-20) = 2.0611536181902037e-09
    assert abs(out.item() - 2.0611536181902037e-09) < 1e-15
    big = ad.softplus(ad.Tensor(np.array([800.0]))).data
    assert np.isfinite(big).all() and abs(big[0] - 800.0) < 1e-9


def test_sigmoid_saturates_without_overflow():
    z = ad.sigmoid(ad.Tensor(np.array([-800.0, 0.0, 800.0]))).data
    assert np.all(np.isfinite(z))
    assert z[0] == 0.0 and z[1] == 0.5 and z[2] == 1.0


def _elu_where(x, g):
    """The np.where forms of elu and its vjp that the branch-free ones
    replaced (alpha 1)."""
    neg = np.expm1(np.minimum(x, 0.0))
    return np.where(x > 0.0, x, neg), g * np.where(x > 0.0, 1.0, neg + 1.0)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)
# signed zeros, infinities, NaNs of both signs with a payload, subnormals.
# At x = -0.0, np.minimum(-0.0, 0.0) is +0.0, so neg is +0.0, and
# np.maximum(-0.0, +0.0) returns +0.0: the zero np.where took from neg.
ELU_EDGES = np.array([0x0, 0x8000000000000000, 0x7FF0000000000000,
                      0xFFF0000000000000, 0x7FF8000000000000,
                      0xFFF8000000000123, 0x1, 0x8000000000000001,
                      0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF],
                     dtype=np.uint64).view(np.float64)


@st.composite
def elu_cases(draw):
    n = draw(st.integers(0, 16))
    x = np.concatenate([draw(hnp.arrays(np.float64, n, elements=ANY_FLOAT)),
                        ELU_EDGES])
    return x, draw(hnp.arrays(np.float64, x.shape, elements=ANY_FLOAT))


@settings(max_examples=200, deadline=None)
@given(elu_cases())
def test_elu_bit_equal_where_form(case):
    x, g = case
    with np.errstate(invalid="ignore"):
        want_out, want_grad = _elu_where(x, g)
        tape = ad.Tape()
        out = ad.elu(tape.parameter("x", x))
        got_grad = tape.records[-1].vjp(g)[0]
    assert same_bits(out.data, want_out)
    assert same_bits(got_grad, want_grad)


# ---------------------------------------------------------------------------
# structural ops


def test_linear_grads():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n, d_in = (int(rng.integers(1, 5)) for _ in range(2))
        # d_out 1 is GAT's per-node logit: a (1, d/K) weight
        for d_out in (int(rng.integers(2, 5)), 1):

            def build(flat):
                tape = ad.Tape()
                x = tape.parameter("x", flat[:n * d_in].reshape(n, d_in))
                w = tape.parameter("w",
                                   flat[n * d_in:].reshape(d_out, d_in))
                out = ad.linear(x, w)
                return tape, ad.tsum(ad.mul(out, out))

            check_param_grads(build,
                              rng.normal(size=n * d_in + d_out * d_in))


def test_linear_is_x_w_transpose():
    x = np.array([[1.0, 2.0]])
    w = np.array([[3.0, 4.0], [5.0, 6.0]])  # (d_out=2, d_in=2)
    out = ad.linear(ad.Tensor(x), ad.Tensor(w)).data
    assert np.allclose(out, x @ w.T)


def test_linear_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError):
        ad.linear(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5))))
    with pytest.raises(ad.ShapeError):
        ad.linear(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((4, 3))))


def test_concat_split_gather_grads():
    rng = np.random.default_rng(29)
    for trial in range(10):
        n = 6
        index = rng.integers(0, 3, size=5)

        def build(flat):
            tape = ad.Tape()
            a = tape.parameter("a", flat[:n])
            b = tape.parameter("b", flat[n:])
            joined = ad.concat([a, b], axis=0)
            mat, row = ad.split(joined, [(3, 3), (1, 3)])
            rows = ad.gather_rows(ad.concat([mat, row], axis=0),
                                  ad.SumPlan(index, 4))
            return tape, ad.tsum(ad.mul(rows, rows))

        check_param_grads(build, rng.normal(size=2 * n))


def test_split_piece_without_gradient_gets_zeros():
    rng = np.random.default_rng(37)
    x0 = rng.normal(size=11)

    def build(flat):
        tape = ad.Tape()
        theta = tape.parameter("theta", flat)
        first, unused, last = ad.split(theta, [(2, 3), (3,), (1, 2)])
        return tape, ad.add(ad.tsum(ad.mul(first, first)),
                            ad.tsum(ad.mul(last, ad.sigmoid(last))))

    check_param_grads(build, x0)
    tape, loss = build(x0)
    grad = ad.backward(tape, loss)["theta"]
    assert np.array_equal(grad[6:9], np.zeros(3))


def test_split_is_one_record_of_views_in_their_shapes():
    tape = ad.Tape()
    v = tape.parameter("v", np.arange(10.0))
    n_before = len(tape.records)
    pieces = ad.split(v, [(2, 3), (4,)])
    assert len(tape.records) == n_before + 1
    assert [t.shape for t in pieces] == [(2, 3), (4,)]
    assert np.array_equal(pieces[0].data, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(pieces[1].data, np.arange(6.0, 10.0))
    assert all(np.shares_memory(t.data, v.data) for t in pieces)
    assert tape.records[-1].outputs == tuple(t.uid for t in pieces)
    for shapes in ([(2, 3)], [(2, 3), (5,)]):
        with pytest.raises(ad.ShapeError):
            ad.split(v, shapes)


def test_gather_rows_accumulates_repeated_indices():
    tape = ad.Tape()
    x = tape.parameter("x", np.array([[1.0], [2.0]]))
    out = ad.gather_rows(x, ad.SumPlan(np.array([0, 0, 1]), 2))
    grads = ad.backward(tape, ad.tsum(out))
    assert np.array_equal(grads["x"], [[2.0], [1.0]])


def test_segment_sum_values_and_grads():
    tape = ad.Tape()
    x = tape.parameter("x", np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = ad.segment_sum(x, ad.SumPlan(np.array([1, 0, 1]), 3))
    assert np.array_equal(out.data, [[3.0, 4.0], [6.0, 8.0], [0.0, 0.0]])

    rng = np.random.default_rng(31)
    for trial in range(10):
        n, d, k = 7, 3, 4
        seg = ad.SumPlan(rng.integers(0, k, size=n), k)

        def build(flat):
            tape = ad.Tape()
            x = tape.parameter("x", flat.reshape(n, d))
            out = ad.segment_sum(x, seg)
            return tape, ad.tsum(ad.mul(out, out))

        check_param_grads(build, rng.normal(size=n * d))


def test_segment_softmax_matches_per_segment_softmax():
    rng = np.random.default_rng(37)
    for trial in range(10):
        n, d, k = 8, 2, 3
        seg = rng.integers(0, k, size=n)
        plan = ad.SumPlan(seg, k)
        x = rng.normal(size=(n, d))
        out = ad.segment_softmax(ad.Tensor(x), plan).data
        for s in range(k):
            rows = seg == s
            if not rows.any():
                continue
            e = np.exp(x[rows] - x[rows].max(axis=0))
            assert np.allclose(out[rows], e / e.sum(axis=0), atol=1e-12)
        assert np.allclose(
            np.add.reduceat(np.zeros((k, d)), [0])[:0].sum(), 0.0)

        def build(flat):
            tape = ad.Tape()
            xv = tape.parameter("x", flat.reshape(n, d))
            out = ad.segment_softmax(xv, plan)
            return tape, ad.tsum(ad.mul(out, out))

        check_param_grads(build, x.ravel())


def test_segment_softmax_empty_segment_is_fine():
    x = np.array([[0.0], [1.0]])
    out = ad.segment_softmax(ad.Tensor(x),
                             ad.SumPlan(np.array([2, 2]), 4)).data
    e = np.exp(x - 1.0)
    assert np.allclose(out, e / e.sum())


def test_segment_ids_out_of_range_raise():
    # ids are checked once, when the plan is built
    with pytest.raises(ad.ShapeError):
        ad.segment_sum(ad.Tensor(np.zeros((2, 1))),
                       ad.SumPlan(np.array([0, 5]), 3))


def test_gather_rows_index_out_of_range_raises():
    x = ad.Tensor(np.zeros((3, 2)))
    for index in ([0, -1], [0, 3]):
        with pytest.raises(ad.ShapeError):
            ad.gather_rows(x, ad.SumPlan(np.array(index), 3))


def test_ops_reject_a_plan_over_the_wrong_row_count():
    plan = ad.SumPlan(np.array([0, 2, 2, 1]), 3)   # 4 rows -> 3
    for op, rows in ((ad.gather_rows, 4), (ad.segment_sum, 3),
                     (ad.segment_softmax, 3),
                     (lambda x, p: ad.aggregate(x, p, p), 4)):
        with pytest.raises(ad.ShapeError):
            op(ad.Tensor(np.zeros((rows, 2))), plan)


# ---------------------------------------------------------------------------
# the scatter primitive against an np.add.at reference, bit for bit


def _add_at(index, values, n):
    out = np.zeros((n,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def _softmax_at(x, index, n):
    """segment_softmax forward and vjp, every sum done with np.add.at."""
    peak = np.full((n,) + x.shape[1:], -np.inf)
    np.maximum.at(peak, index, x)
    shifted = np.exp(x - peak[index])
    out = shifted / _add_at(index, shifted, n)[index]
    return out, lambda g: out * (g - _add_at(index, g * out, n)[index])


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@st.composite
def scatter_cases(draw):
    """Unsorted, repeated ids over n rows (some left empty), zero or more
    value rows of 1-D, 2-D or 3-D shape, and an upstream gradient."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12))
    index = np.array(draw(st.lists(st.integers(0, n - 1),
                                   min_size=m, max_size=m)), dtype=np.int64)
    shape = (m,) + draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    floats = st.floats(-1e12, 1e12, allow_subnormal=True)
    values = draw(hnp.arrays(np.float64, shape, elements=floats))
    grad = draw(hnp.arrays(np.float64, shape, elements=floats))
    return index, values, grad, n


@settings(max_examples=200, deadline=None)
@given(scatter_cases())
def test_scatter_ops_bit_equal_add_at(case):
    index, values, grad, n = case
    plan = ad.SumPlan(index, n)
    assert same_bits(ad.segment_sum(values, plan).data,
                     _add_at(index, values, n))

    tape = ad.Tape()
    x = tape.parameter("x", np.zeros((n,) + values.shape[1:]))
    out = ad.gather_rows(x, plan)
    assert same_bits(ad.backward(tape, ad.tsum(ad.mul(out, grad)))["x"],
                     _add_at(index, grad, n))

    tape = ad.Tape()
    x = tape.parameter("x", values)
    out = ad.segment_softmax(x, plan)
    want, want_vjp = _softmax_at(values, index, n)
    assert same_bits(out.data, want)
    assert same_bits(ad.backward(tape, ad.tsum(ad.mul(out, grad)))["x"],
                     want_vjp(grad))


@st.composite
def max_fold_cases(draw):
    """Repeated ids over n rows (some left empty), with values drawn
    mostly from the signed zeros, the infinities and NaN."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 16))
    index = np.array(draw(st.lists(st.integers(0, n - 1),
                                   min_size=m, max_size=m)), dtype=np.int64)
    shape = (m,) + draw(st.sampled_from([(), (1,), (3,)]))
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    values = draw(hnp.arrays(np.float64, shape,
                             elements=special | st.floats(-4.0, 4.0)))
    return index, values, n


@settings(max_examples=300, deadline=None)
@given(max_fold_cases())
def test_max_fold_bit_equal_maximum_at(case):
    index, values, n = case
    want = np.full((n,) + values.shape[1:], -np.inf)
    with np.errstate(invalid="ignore"):
        np.maximum.at(want, index, values)
    got = ad.SumPlan(index, n).apply(values, np.maximum, -np.inf)
    assert same_bits(got, want)


def test_sum_plan_is_the_only_reduction():
    # every row reduction runs SumPlan.apply: no ufunc.at, no weighted
    # bincount anywhere in the op layer
    tree = ast.parse(pathlib.Path(ad.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name == "at" or (name == "bincount" and any(
                    kw.arg == "weights" for kw in node.keywords)):
                found.append((name, node.lineno))
    assert found == []


@st.composite
def aggregate_cases(draw):
    """Unsorted, asymmetric and repeated edges over n nodes (some
    isolated, possibly no edges at all), 1-D or 2-D rows, and an upstream
    gradient."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 16))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(draw(ends), dtype=np.int64)
    dst = np.array(draw(ends), dtype=np.int64)
    shape = (n,) + draw(st.sampled_from([(), (1,), (3,)]))
    floats = st.floats(-1e12, 1e12, allow_subnormal=True)
    x = draw(hnp.arrays(np.float64, shape, elements=floats))
    grad = draw(hnp.arrays(np.float64, shape, elements=floats))
    return src, dst, x, grad


@settings(max_examples=200, deadline=None)
@given(aggregate_cases())
def test_aggregate_bit_equal_gather_then_segment_sum(case):
    src, dst, x, grad = case
    n = x.shape[0]
    by_src, by_dst = ad.SumPlan(src, n), ad.SumPlan(dst, n)
    outs, grads = [], []
    for op in (lambda h: ad.aggregate(h, by_src, by_dst),
               lambda h: ad.segment_sum(ad.gather_rows(h, by_src), by_dst)):
        tape = ad.Tape()
        out = op(tape.parameter("x", x))
        outs.append(out.data)
        grads.append(ad.backward(tape, ad.tsum(ad.mul(out, grad)))["x"])
    assert same_bits(*outs)
    assert same_bits(*grads)


@st.composite
def weighted_aggregate_cases(draw):
    """Unsorted and repeated edges over n nodes (some isolated, possibly
    no edges at all), with up to 24 more into a hub, node 0; rows of
    width d, one weight per edge of width 1 or d, and an upstream
    gradient."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 16))
    hub = draw(st.integers(0, 24))
    ends = st.lists(st.integers(0, n - 1), min_size=m + hub,
                    max_size=m + hub)
    src = np.array(draw(ends), dtype=np.int64)
    dst = np.array(draw(ends)[:m] + [0] * hub, dtype=np.int64)
    order = np.array(draw(st.permutations(range(m + hub))), dtype=np.int64)
    d = draw(st.integers(1, 3))
    floats = st.floats(-1e12, 1e12, allow_subnormal=True)
    x = draw(hnp.arrays(np.float64, (n, d), elements=floats))
    w = draw(hnp.arrays(np.float64, (m + hub, draw(st.sampled_from([1, d]))),
                        elements=floats))
    grad = draw(hnp.arrays(np.float64, (n, d), elements=floats))
    return src[order], dst[order], x, w, grad


@settings(max_examples=300, deadline=None)
@given(weighted_aggregate_cases())
def test_weighted_aggregate_bit_equal_mul_then_segment_sum(case):
    src, dst, x, w, grad = case
    n = x.shape[0]
    by_src, by_dst = ad.SumPlan(src, n), ad.SumPlan(dst, n)
    runs = []
    for op in (lambda h, a: ad.aggregate(h, by_src, by_dst, a),
               lambda h, a: ad.segment_sum(
                   ad.mul(a, ad.gather_rows(h, by_src)), by_dst)):
        tape = ad.Tape()
        out = op(tape.parameter("x", x), tape.parameter("w", w))
        grads = ad.backward(tape, ad.tsum(ad.mul(out, grad)))
        runs.append((out.data, grads["x"], grads["w"]))
    for got, want in zip(*runs):
        assert same_bits(got, want)


def test_sum_plan_holds_one_index_entry_per_edge():
    # a hub with 300 in-edges runs 300 ranks, but the plan stores E ids
    rng = np.random.default_rng(3)
    n = 40
    src = np.concatenate([rng.integers(0, n, 300), rng.integers(0, n, 50)])
    dst = np.concatenate([np.zeros(300, dtype=np.int64),
                          rng.integers(1, n, 50)])
    plan = ad.SumPlan(dst, n)
    _, ranks = plan.layout
    assert len(ranks) == 300
    assert sum(ids.size for ids in ranks) == src.size
    x = rng.normal(size=(n, 3))
    assert same_bits(plan.apply(x, index=src), _add_at(dst, x[src], n))


def test_aggregate_grads_and_plan_checks():
    rng = np.random.default_rng(47)
    n_in, n_out, d = 5, 3, 2
    index = rng.integers(0, n_in, size=9)
    keys = rng.integers(0, n_out, size=9)
    src, dst = ad.SumPlan(index, n_in), ad.SumPlan(keys, n_out)

    def build(flat):
        tape = ad.Tape()
        x = tape.parameter("x", flat.reshape(n_in, d))
        out = ad.aggregate(x, src, dst)
        return tape, ad.tsum(ad.mul(out, out))

    check_param_grads(build, rng.normal(size=n_in * d))
    for bad in ((np.zeros((n_out, d)), src, dst),
                (np.zeros((n_in, d)), src, dst, np.ones((8, 1))),
                (np.zeros((n_in, d)), src, ad.SumPlan(keys[:-1], n_out))):
        with pytest.raises(ad.ShapeError):
            ad.aggregate(*bad)
    for bad, n in ((np.array([0] * 8 + [n_out]), n_out),
                   (np.array([-1] + [0] * 8), n_in),
                   (keys.reshape(3, 3), n_out)):
        with pytest.raises(ad.ShapeError):
            ad.SumPlan(bad, n)


def test_dropout_semantics_and_grad():
    rng = np.random.default_rng(41)
    x = np.ones((4, 3))
    mask = (rng.random(x.shape) >= 0.5).astype(np.float64)
    assert 0.0 < mask.mean() < 1.0
    out = ad.dropout(ad.Tensor(x), 0.5, np.random.default_rng(41)).data
    assert np.allclose(out, mask * 2.0)

    # p=0 passes through untouched
    t = ad.Tensor(x)
    assert ad.dropout(t, 0.0, rng) is t

    def build(flat):
        # a fresh stream per call draws the same mask every time
        tape = ad.Tape()
        a = tape.parameter("a", flat.reshape(4, 3))
        out = ad.dropout(a, 0.5, np.random.default_rng(41))
        return tape, ad.tsum(ad.mul(out, out))

    check_param_grads(build, rng.normal(size=12))


def test_dropout_bits_match_the_float_mask_formula():
    # negative values, both signed zeros, NaN and the infinities: a bool
    # mask gives the bits of x * mask * scale with a float64 mask
    special = [-0.0, 0.0, -1.5, -1e-300, -np.inf, np.inf, np.nan, 2.0]
    rng = np.random.default_rng(17)
    x = np.array(special * 8).reshape(8, 8)
    g = rng.permutation(x.ravel()).reshape(8, 8)
    for p in (0.2, 0.5):
        mask = (np.random.default_rng(3).random(x.shape) >= p
                ).astype(np.float64)
        scale = 1.0 / (1.0 - p)
        tape = ad.Tape()
        with np.errstate(invalid="ignore"):
            out = ad.dropout(tape.parameter("x", x), p,
                             np.random.default_rng(3))
            assert same_bits(out.data, x * mask * scale)
            got = ad.backward(tape, ad.tsum(ad.mul(out, g)))["x"]
            assert same_bits(got, g * mask * scale)
        assert 0.0 < mask.mean() < 1.0


def test_dropout_keep_rate_is_unbiased():
    rng = np.random.default_rng(43)
    x = ad.Tensor(np.ones(200_000))
    out = ad.dropout(x, 0.2, rng).data
    assert abs(out.mean() - 1.0) < 0.01


# ---------------------------------------------------------------------------
# tape mechanics


def test_unreachable_param_gets_zero_grad():
    tape = ad.Tape()
    a = tape.parameter("a", np.ones(3))
    tape.parameter("unused", np.ones((2, 2)))
    grads = ad.backward(tape, ad.tsum(a))
    assert np.array_equal(grads["a"], np.ones(3))
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_backward_is_repeatable():
    tape = ad.Tape()
    a = tape.parameter("a", np.array([1.0, -2.0, 3.0]))
    loss = ad.tsum(ad.mul(ad.sigmoid(a), a))
    g1 = ad.backward(tape, loss)
    g2 = ad.backward(tape, loss)
    assert np.array_equal(g1["a"], g2["a"])


def test_backward_rejects_nonscalar_and_foreign_loss():
    tape = ad.Tape()
    a = tape.parameter("a", np.ones(3))
    with pytest.raises(ad.ShapeError):
        ad.backward(tape, ad.mul(a, 2.0))
    other = ad.Tape()
    b = other.parameter("b", np.ones(()))
    with pytest.raises(ValueError):
        ad.backward(tape, ad.tsum(b))


def test_fanout_accumulates_grads():
    tape = ad.Tape()
    a = tape.parameter("a", np.array(3.0))
    loss = ad.add(ad.mul(a, a), ad.mul(2.0, a))  # a^2 + 2a
    grads = ad.backward(tape, loss)
    assert np.allclose(grads["a"], 8.0)


def test_duplicate_parameter_name_rejected():
    tape = ad.Tape()
    tape.parameter("w", np.ones(2))
    with pytest.raises(ValueError):
        tape.parameter("w", np.ones(2))


def test_untracked_ops_record_nothing():
    tape = ad.Tape()
    tape.parameter("a", np.ones(2))
    n_before = len(tape.records)
    ad.mul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones(3)))
    ad.split(ad.Tensor(np.ones(3)), [(1,), (2,)])
    assert len(tape.records) == n_before


def test_tape_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        tape = ad.Tape()
        w = tape.parameter("w", np.arange(3.0).reshape(1, 3))
        b = tape.parameter("b", np.ones(1))
        loss = ad.tsum(ad.add(ad.linear(np.ones((2, 3)), w), b))
        ad.backward(tape, loss)
        gone = weakref.ref(tape)
        del tape, w, b, loss
        assert gone() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# what the tape retains


ALL_KINDS = {"add", "sub", "mul", "div", "linear", "concat",
             "relu", "leaky_relu", "elu", "sigmoid", "log",
             "softplus", "clip_min", "sum", "split",
             "gather_rows", "segment_sum", "segment_softmax", "aggregate",
             "dropout"}


def _every_op_tracked(tape):
    """One tracked call of every op kind, each mixing in a constant where
    the op takes two operands."""
    rng = np.random.default_rng(5)
    a = tape.parameter("a", rng.normal(size=(4, 3)))
    v = tape.parameter("v", rng.normal(size=6))
    c = ad.Tensor(rng.normal(size=(4, 3)))
    seg = np.array([0, 2, 2, 1])
    plan = ad.SumPlan(seg, 3)
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        op(a, c)
    ad.linear(a, ad.Tensor(np.ones((2, 3))))
    ad.linear(c, a)
    ad.concat([a, c], axis=1)
    for op in UNARY_OPS:
        op(a)
    ad.log(ad.clip_min(a, 0.1))
    ad.tsum(a)
    ad.split(v, [(2, 2), (2,)])
    ad.gather_rows(a, ad.SumPlan(seg, 4))
    ad.segment_sum(a, plan)
    ad.segment_softmax(a, plan)
    ad.aggregate(a, ad.SumPlan(seg, 4), ad.SumPlan(np.array([1, 0, 3, 3]), 4))
    ad.dropout(a, 0.5, rng)


def _held(value):
    """The value and, one level down, the items of a container."""
    if isinstance(value, (tuple, list)):
        return [value, *value]
    if isinstance(value, dict):
        return [value, *value.values()]
    return [value]


def test_records_keep_uids_and_no_tensors():
    tape = ad.Tape()
    _every_op_tracked(tape)
    assert {rec.kind for rec in tape.records} == ALL_KINDS
    for rec in tape.records:
        assert all(type(uid) is int
                   for uid in rec.inputs + rec.outputs), rec.kind
        for cell in rec.vjp.__closure__ or ():
            for obj in _held(cell.cell_contents):
                assert not isinstance(obj, (ad.Tensor, ad.Tape)), rec.kind


def test_intermediate_no_vjp_reads_is_freed():
    tape = ad.Tape()
    h = tape.parameter("h", np.arange(6.0).reshape(3, 2))
    rows = ad.gather_rows(h, ad.SumPlan(np.array([0, 1, 1, 2]), 3))
    gone = weakref.ref(rows.data)
    agg = ad.segment_sum(rows,
                         ad.SumPlan(np.array([0, 0, 1, 2]), 3))
    del rows          # segment_sum's vjp needs only the ids
    assert gone() is None
    grads = ad.backward(tape, ad.tsum(agg))
    assert np.array_equal(grads["h"], [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])


def test_vjp_skips_products_for_untracked_inputs():
    rng = np.random.default_rng(7)
    tape = ad.Tape()
    w = tape.parameter("w", rng.normal(size=(2, 3)))
    x = rng.normal(size=(4, 3))
    h = tape.parameter("h", rng.normal(size=(5, 3)))
    # two entries: x rows 3 and 0 into rows 1 and 0 of two
    src, dst = ad.SumPlan(np.array([3, 0]), 4), ad.SumPlan(np.array([1, 0]), 2)
    back_src = ad.SumPlan(np.array([1, 0]), 2)
    back_dst = ad.SumPlan(np.array([1, 1]), 2)
    for build, want in ((lambda: ad.linear(x, w), lambda g: (None, g.T @ x)),
                        (lambda: ad.linear(h, x), lambda g: (g @ x, None)),
                        (lambda: ad.mul(w, x[:2]),
                         lambda g: (g * x[:2], None)),
                        (lambda: ad.aggregate(x, src, dst, w),
                         lambda g: (None, g[[1, 0]] * x[[3, 0]])),
                        (lambda: ad.aggregate(w, back_src, back_dst, x[:2]),
                         lambda g: (back_src.apply(g, weight=x[:2],
                                                   index=back_dst.keys),
                                    None))):
        g = rng.normal(size=build().shape)
        got = tape.records[-1].vjp(g)
        for gi, wi in zip(got, want(g)):
            assert (gi is None) if wi is None else same_bits(gi, wi)


def test_finite_diff_rejects_nondeterministic_f():
    state = {"n": 0}

    def f(x):
        state["n"] += 1
        return float(x.sum()) + state["n"]

    with pytest.raises(ValueError):
        ad.finite_diff_grad(f, np.zeros(2))


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_step_matches_formula():
    state = ad.OptimizerState(mode="sgd", lr=0.1, weight_decay=0.5)
    w = np.array([1.0, -2.0])
    g = np.array([0.2, 0.4])
    out = ad.optimizer_step(state, w, g)
    assert np.allclose(out, w - 0.1 * (g + 0.5 * w))


def test_adam_first_step_is_minus_lr_times_sign():
    # bias correction makes step one exactly lr * g/(|g| + eps')
    state = ad.OptimizerState(mode="adam", lr=1e-3)
    out = ad.optimizer_step(state, np.array([0.0]), np.array([1.0]))
    assert abs(out[0] + 1e-3) < 1e-6


def test_adam_converges_on_quadratic():
    state = ad.OptimizerState(mode="adam", lr=0.05)
    w = np.array([5.0, -3.0])
    target = np.array([1.0, 2.0])
    for _ in range(500):
        w = ad.optimizer_step(state, w, 2.0 * (w - target))
    assert np.allclose(w, target, atol=1e-3)


def test_adam_matches_reference_trace():
    # three hand-stepped iterations of the standard update
    state = ad.OptimizerState(mode="adam", lr=0.1)
    w = np.array([1.0])
    m = v = 0.0
    w_ref = 1.0
    for t in range(1, 4):
        g = 2.0 * w_ref
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w_ref -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        w = ad.optimizer_step(state, w, 2.0 * w)
    assert np.allclose(w, [w_ref], atol=1e-12)


def test_optimizer_rejects_nonfinite_grads():
    state = ad.OptimizerState(mode="sgd", lr=0.1)
    with pytest.raises(NumericError):
        ad.optimizer_step(state, np.zeros(2), np.array([0.0, np.nan]))


def test_optimizer_rejects_bad_config():
    with pytest.raises(ValueError):
        ad.OptimizerState(mode="rmsprop", lr=0.1)
    with pytest.raises(ValueError):
        ad.OptimizerState(mode="sgd", lr=-1.0)


def test_weight_decay_is_gradient_coupled_for_adam():
    # with wd, a zero-gradient point still moves toward the origin
    state = ad.OptimizerState(mode="adam", lr=0.01, weight_decay=1e-1)
    w = np.array([2.0])
    out = ad.optimizer_step(state, w, np.array([0.0]))
    assert out[0] < 2.0
