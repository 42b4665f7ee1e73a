"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

A ``Tape`` records every op applied to tracked tensors, in execution order.
``backward`` replays the records in reverse and returns one gradient per
registered parameter. Ops applied to untracked tensors run as plain numpy
with no recording, so the same model code serves both training and
inference; an untracked op returns before it computes anything only its
vjp would read.

The tape holds only what ``backward`` reads. A record keeps its op kind,
the uids (ints, never the Tensors) of its inputs and outputs, and a vjp
closure over just the arrays, masks and shapes that vjp computes with:
shapes for ``add``/``sub``/``sum``, piece sizes for ``split``, the plan
for ``gather_rows``/``segment_sum``/``segment_softmax``/``aggregate``, a
bool mask for ``relu``/``leaky_relu``/``clip_min``/``dropout``, the
negative branch for ``elu``, and for ``linear``/``mul``/``div`` and a
weighted ``aggregate`` only the operands of the products a tracked input
needs (none is computed for an untracked input). An intermediate no
vjp reads (such as the edge rows ``gather_rows`` hands to
``segment_sum``) is therefore freed as soon as the forward pass drops it.
The parameter registry keeps uids and shapes too, so no tape is in a
reference cycle: it is freed with its last tracked tensor. ``split`` is
the one op with several outputs; its vjp takes one gradient per output,
None for a piece that got none. ``backward`` drops each gradient once its
producing record has been replayed: every consumer of a tensor was
recorded after its producer, so by then the gradient is complete.

The op catalog is exactly what the graph layers and losses need:
``linear``, broadcast arithmetic, concat, the activations, gathers and
segment reductions, planned row sums, dropout, and ``split``, which cuts
a flat weight vector into shaped pieces with one record. Every
reduction over rows (the ``segment_sum`` forward, the ``gather_rows``
vjp, the peak and both sums in ``segment_softmax``, and ``aggregate``)
runs one primitive, ``SumPlan.apply``. A plan holds one key array, the
output row of each entry. It is built once per batch and key array,
checks its keys when it is built and sorts them on its first ``apply``;
each output row folds its entries in ascending entry order, so every sum
is bit-equal to ``np.add.at`` and the peak to ``np.maximum.at``.

``aggregate(x, src, dst, weight)`` is the neighbour sum over the edges
``src.keys[e]`` -> ``dst.keys[e]``: ``dst`` folds row ``src.keys[e]`` of x
for each edge, and its vjp folds the gradient's row ``dst.keys[e]`` with
``src``, so no plan is ever transposed. Its optional per-edge weight is
multiplied into each planned row just before the fold, in the forward pass
and in the vjp. A weighted neighbour sum (GAT's attention
messages, gatedgcn's gated ones) therefore never builds or keeps an (E, d)
copy of its node rows. GAT's edge score needs no such copy either: each
head computes its two attention logits per node and gathers only those
(n, 1) columns to the edges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import NumericError


class ShapeError(ValueError):
    """Operand shapes do not conform to the op's shape rule."""


class Tensor:
    """A float64 array, optionally tracked on a tape.

    ``uid`` is -1 for untracked tensors (constants); tracked tensors carry
    the id the tape assigned at creation.
    """

    __slots__ = ("data", "tape", "uid")

    def __init__(self, data, tape: Optional["Tape"] = None, uid: int = -1):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.uid = uid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f", uid={self.uid}" if self.tape is not None else ""
        return f"Tensor(shape={self.shape}{tag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@dataclass
class _Record:
    kind: str
    inputs: tuple[int, ...]     # input uids; -1 marks an untracked input
    outputs: tuple[int, ...]    # output uids, one per gradient vjp takes
    vjp: Callable[..., tuple]


class Tape:
    """Ordered op records plus the parameter registry for one forward pass."""

    def __init__(self):
        self.records: list[_Record] = []
        self.params: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._next_uid = 0

    def _new_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def track(self, data) -> Tensor:
        """Create a tracked leaf without registering it as a parameter."""
        return Tensor(data, tape=self, uid=self._new_uid())

    def parameter(self, name: str, data) -> Tensor:
        """Register a named leaf whose gradient ``backward`` will report."""
        if name in self.params:
            raise ValueError(f"parameter {name!r} registered twice")
        t = self.track(data)
        self.params[name] = (t.uid, t.data.shape)
        return t


def _result_tape(inputs: Sequence[Tensor]) -> Optional[Tape]:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("inputs tracked on different tapes")
            tape = t.tape
    return tape


def _emit(kind: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
          vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    tape = _result_tape(inputs)
    if tape is None:
        return Tensor(out_data)
    out = tape.track(out_data)
    tape.records.append(
        _Record(kind, tuple(t.uid for t in inputs), (out.uid,), vjp))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to ``shape``, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# op catalog


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _emit("add", (a, b), out, vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _emit("sub", (a, b), out, vjp)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    sa, sb = a.data.shape, b.data.shape
    # each operand is kept only for the other's gradient, if that is tracked
    a_data = a.data if b.uid >= 0 else None
    b_data = b.data if a.uid >= 0 else None

    def vjp(g):
        return (None if b_data is None else _unbroadcast(g * b_data, sa),
                None if a_data is None else _unbroadcast(g * a_data, sb))

    return _emit("mul", (a, b), out, vjp)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data
    sa, sb, b_data = a.data.shape, b.data.shape, b.data
    need_a = a.uid >= 0
    a_data = a.data if b.uid >= 0 else None

    def vjp(g):
        return (_unbroadcast(g / b_data, sa) if need_a else None,
                None if a_data is None else
                _unbroadcast(-g * a_data / (b_data * b_data), sb))

    return _emit("div", (a, b), out, vjp)


def linear(x, w) -> Tensor:
    """x @ w.T for a weight stored math-style as (d_out, d_in)."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear: x {x.data.shape} with weight {w.data.shape}")
    out = x.data @ w.data.T
    # no product for an untracked input, such as the raw features
    x_data = x.data if w.uid >= 0 else None
    w_data = w.data if x.uid >= 0 else None

    def vjp(g):
        return (None if w_data is None else g @ w_data,
                None if x_data is None else g.T @ x_data)

    return _emit("linear", (x, w), out, vjp)


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    ts = tuple(as_tensor(p) for p in parts)
    out = np.concatenate([t.data for t in ts], axis=axis)
    bounds = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def vjp(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _emit("concat", ts, out, vjp)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    if x.tape is None:
        return Tensor(out)
    mask = x.data > 0.0
    return _emit("relu", (x,), out, lambda g: (g * mask,))


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0.0
    out = np.where(mask, x.data, slope * x.data)

    def vjp(g):
        return (g * np.where(mask, 1.0, slope),)

    return _emit("leaky_relu", (x,), out, vjp)


def elu(x) -> Tensor:
    """x for x > 0, e^x - 1 otherwise (alpha 1).

    Branch-free: e^min(x,0) - 1 is 0 for x > 0 and never below x, so the
    max picks the right side, and its derivative is neg + 1 on both.
    """
    x = as_tensor(x)
    neg = np.expm1(np.minimum(x.data, 0.0))
    out = np.maximum(x.data, neg)

    def vjp(g):
        return (g * (neg + 1.0),)

    return _emit("elu", (x,), out, vjp)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    # e^-|x| never overflows; each side picks the form that cannot either
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _emit("sigmoid", (x,), out, vjp)


def log(x) -> Tensor:
    x = as_tensor(x)
    out = np.log(x.data)
    x_data = x.data

    def vjp(g):
        return (g / x_data,)

    return _emit("log", (x,), out, vjp)


def softplus(x) -> Tensor:
    """log(1 + e^x) in the overflow-safe form max(x,0) + log1p(e^-|x|)."""
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    x_data = x.data

    def vjp(g):
        return (g * sigmoid(x_data).data,)   # untracked: plain numpy

    return _emit("softplus", (x,), out, vjp)


def clip_min(x, floor: float) -> Tensor:
    """max(x, floor); gradient is zero on the clamped region."""
    x = as_tensor(x)
    out = np.maximum(x.data, floor)
    if x.tape is None:
        return Tensor(out)
    mask = x.data > floor
    return _emit("clip_min", (x,), out, lambda g: (g * mask,))


def tsum(x) -> Tensor:
    """Full reduction to a scalar."""
    x = as_tensor(x)
    out = np.asarray(x.data.sum())
    shape = x.data.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit("sum", (x,), out, vjp)


def split(x, shapes: Sequence[tuple[int, ...]]) -> list[Tensor]:
    """Consecutive pieces of a vector, each in its shape, covering it.

    The pieces are views of x's data. One record serves every piece: its
    vjp takes one gradient per piece and concatenates them, with zeros
    for a piece that got none.
    """
    x = as_tensor(x)
    sizes = [int(np.prod(shape)) for shape in shapes]
    if x.data.ndim != 1 or sum(sizes) != x.data.shape[0]:
        raise ShapeError(f"split: pieces of {sum(sizes)} entries from "
                         f"{x.data.shape}")
    bounds = np.cumsum(sizes)[:-1]
    pieces = [piece.reshape(shape)
              for piece, shape in zip(np.split(x.data, bounds), shapes)]
    tape = x.tape
    if tape is None:
        return [Tensor(piece) for piece in pieces]
    outs = [tape.track(piece) for piece in pieces]

    def vjp(*grads):
        return (np.concatenate([np.zeros(n) if g is None else g.ravel()
                                for g, n in zip(grads, sizes)]),)

    tape.records.append(
        _Record("split", (x.uid,), tuple(t.uid for t in outs), vjp))
    return outs


def _check_segments(segments: np.ndarray, n_segments: int) -> np.ndarray:
    segments = np.asarray(segments, dtype=np.int64)
    if segments.size and (segments.min() < 0 or segments.max() >= n_segments):
        raise ShapeError(
            f"segment ids must lie in [0, {n_segments}), got range "
            f"[{segments.min()}, {segments.max()}]")
    return segments


class SumPlan:
    """Sums of entries into ``n_out`` rows, entry e into row ``keys[e]``.

    ``apply(x)`` reads row e of x for entry e, or row ``index[e]`` given an
    ``index``, and adds each output row's entries in ascending entry
    order, starting from 0.0, the order ``np.add.at`` uses, so it is
    bit-equal to it, without an (E, d) gather. The keys are checked when
    the plan is built and sorted on its first ``apply``: rows are ordered
    by entry count, largest first, and ``layout`` holds, rank by rank, the
    id of each row's r-th entry for the rows that have one, so rank r
    covers a prefix of the ordered rows. Each rank folds one gathered
    block into that prefix. The loop runs the largest count times, while
    the work stays one row of ``x`` per entry.
    """

    def __init__(self, keys: np.ndarray, n_out: int):
        keys = _check_segments(keys, n_out)
        if keys.ndim != 1:
            raise ShapeError(f"plan keys must be 1-D, got {keys.shape}")
        self.keys, self.n_out = keys, n_out

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each output row's place (rows by entry count, largest first),
        and the entry ids in fold order, split rank by rank."""
        keys, n_out = self.keys, self.n_out
        order = np.argsort(keys, kind="stable")
        counts = np.bincount(keys, minlength=n_out)
        by_count = np.argsort(-counts, kind="stable")
        place = np.empty(n_out, dtype=np.int64)
        place[by_count] = np.arange(n_out)
        starts = np.cumsum(counts) - counts
        sorted_keys = keys[order]
        rank = np.arange(keys.size) - starts[sorted_keys]
        flat = order[np.argsort(rank * n_out + place[sorted_keys],
                                kind="stable")]
        bounds = np.cumsum(np.bincount(rank))
        return place, np.split(flat, bounds[:-1]) if flat.size else []

    def apply(self, x: np.ndarray, fold=np.add, fill: float = 0.0,
              weight: Optional[np.ndarray] = None,
              index: Optional[np.ndarray] = None) -> np.ndarray:
        """Fold each output row's entries into ``fill`` with ``fold``:
        sums by default, the per-column peak with ``np.maximum``. Entry e
        reads row ``index[e]`` of x, or row e without an index. A
        ``weight`` (one row per entry, of width 1 or of x's width) scales
        each entry's row of x just before the fold."""
        n = self.keys.size
        reads = x.shape[0] if index is None else index.size
        if reads != n:
            raise ShapeError(f"plan over {n} entries reads {reads} rows")
        if weight is not None and weight.shape[0] != n:
            raise ShapeError(f"plan over {n} entries weighted by "
                             f"{weight.shape[0]} rows")
        unpermute, ranks = self.layout
        acc = np.full((self.n_out,) + x.shape[1:], fill)
        for ids in ranks:
            head = acc[:ids.size]
            rows = x[ids if index is None else index[ids]]
            if weight is not None:
                rows *= weight[ids]
            fold(head, rows, out=head)
        return acc[unpermute]


def aggregate(x, src: SumPlan, dst: SumPlan, weight=None) -> Tensor:
    """Per row of ``dst``, the sum over its entries e of row
    ``src.keys[e]`` of x, each scaled by entry e's row of ``weight`` if
    given: the neighbour sum over the edges ``src.keys[e]`` ->
    ``dst.keys[e]``. The forward pass folds with ``dst``, the vjp of x
    with ``src``, each reading the other's keys as its index.

    Bit-equal in both directions to ``segment_sum(mul(w, gather_rows(x,
    src)), dst)`` (``segment_sum(gather_rows(x, src), dst)`` without a
    weight), without the (E, d) copies of x that pair keeps on the tape.
    """
    x = as_tensor(x)
    if x.data.shape[0] != src.n_out:
        raise ShapeError(f"aggregate: edges from {src.n_out} rows, x has "
                         f"{x.data.shape[0]}")
    if weight is None:
        out = dst.apply(x.data, index=src.keys)
        return _emit("aggregate", (x,), out,
                     lambda g: (src.apply(g, index=dst.keys),))
    w = as_tensor(weight)
    out = dst.apply(x.data, weight=w.data, index=src.keys)
    sw = w.data.shape
    # each operand is kept only for the other's gradient, if that is tracked
    w_data = w.data if x.uid >= 0 else None
    x_data = x.data if w.uid >= 0 else None

    def vjp(g):
        return (None if w_data is None else
                src.apply(g, weight=w_data, index=dst.keys),
                None if x_data is None else
                _unbroadcast(g[dst.keys] * x_data[src.keys], sw))

    return _emit("aggregate", (x, w), out, vjp)


def gather_rows(x, plan: SumPlan) -> Tensor:
    """Row ``plan.keys[e]`` of x for each entry e of the plan; the
    vjp sums the rows back with the same plan."""
    x = as_tensor(x)
    if x.data.shape[0] != plan.n_out:
        raise ShapeError(f"gather_rows: plan over {plan.n_out} rows, x has "
                         f"{x.data.shape[0]}")
    out = x.data[plan.keys]

    def vjp(g):
        return (plan.apply(g),)

    return _emit("gather_rows", (x,), out, vjp)


def segment_sum(x, plan: SumPlan) -> Tensor:
    """Sum row e of x into row ``plan.keys[e]``."""
    x = as_tensor(x)
    out = plan.apply(x.data)

    def vjp(g):
        return (g[plan.keys],)

    return _emit("segment_sum", (x,), out, vjp)


def segment_softmax(x, plan: SumPlan) -> Tensor:
    """Softmax over the rows of each segment of the plan, per
    column, max-shifted.

    Empty segments simply contribute no rows; softmax over an empty set is
    the empty set.
    """
    x = as_tensor(x)
    keys = plan.keys
    peak = plan.apply(x.data, np.maximum, -np.inf)
    shifted = np.exp(x.data - peak[keys])
    out = shifted / plan.apply(shifted)[keys]

    def vjp(g):
        return (out * (g - plan.apply(g * out)[keys]),)

    return _emit("segment_softmax", (x,), out, vjp)


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: survivors are scaled by 1/(1-p) at apply time."""
    x = as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    # a bool mask: x * True is x and x * False the zero x * 0.0 gives
    keep = rng.random(x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = x.data * keep
    out *= scale

    def vjp(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _emit("dropout", (x,), out, vjp)


# ---------------------------------------------------------------------------
# backward and checking


def backward(tape: Tape, loss: Tensor) -> dict[str, np.ndarray]:
    """Gradient of a scalar loss w.r.t. every registered parameter.

    Parameters with no path to the loss get zero gradients of their own
    shape. The records are replayed in reverse execution order, and each
    intermediate gradient is dropped once its record has been replayed;
    the tape itself is not changed, so two passes over one tape produce
    identical results.
    """
    if loss.tape is not tape or loss.uid < 0:
        raise ValueError("loss was not produced on this tape")
    if loss.data.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    partial: dict[int, np.ndarray] = {loss.uid: np.asarray(1.0)}
    for rec in reversed(tape.records):
        # every consumer was recorded later, so these gradients are complete
        grads = [partial.pop(uid, None) for uid in rec.outputs]
        if all(g is None for g in grads):
            continue
        for uid, gi in zip(rec.inputs, rec.vjp(*grads)):
            if uid < 0 or gi is None:
                continue
            acc = partial.get(uid)
            partial[uid] = gi if acc is None else acc + gi
    return {name: partial.get(uid, np.zeros(shape))
            for name, (uid, shape) in tape.params.items()}


def finite_diff_grad(f: Callable[[np.ndarray], float], params: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    f must be deterministic; a repeated-evaluation mismatch is rejected so
    un-frozen dropout or noise cannot silently corrupt a check.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=np.float64)
    if f(params) != f(params):
        raise ValueError("f is not deterministic; freeze masks and noise")
    grad = np.zeros_like(params)
    probe = params.copy()
    for i in range(params.size):
        orig = probe[i]
        probe[i] = orig + h
        hi = f(probe)
        probe[i] = orig - h
        lo = f(probe)
        probe[i] = orig
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# optimizers

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """SGD or Adam over one flat parameter vector.

    Weight decay enters as gradient addition g + wd*w for both modes.
    """

    mode: str
    lr: float
    weight_decay: float = 0.0
    step_count: int = 0
    m: Optional[np.ndarray] = field(default=None, repr=False)
    v: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer mode {self.mode!r}")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")


def optimizer_step(state: OptimizerState, params: np.ndarray,
                   grads: np.ndarray) -> np.ndarray:
    """One update; returns the new flat vector, mutating only accumulators."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise ShapeError(f"grads {grads.shape} vs params {params.shape}")
    if not np.all(np.isfinite(grads)):
        bad = int(np.flatnonzero(~np.isfinite(grads))[0])
        raise NumericError(f"non-finite gradient at flat coordinate {bad}")
    g = grads + state.weight_decay * params
    state.step_count += 1
    if state.mode == "sgd":
        return params - state.lr * g
    if state.m is None:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step_count)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step_count)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
