"""Dense float64 tensors with reverse-mode gradients.

A global tape records ops in creation order (a valid topological order);
`backward` walks it once in reverse from a scalar loss and then clears it.
Broadcasting follows numpy semantics with gradients reduced back to the input
shape; only leading-dimension batch use is relied on elsewhere.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import kernels
from .errors import CheckpointMismatch, ShapeError, TrainingDiverged

_TAPE: list["Tensor"] = []
_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling tape recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def tape_size() -> int:
    return len(_TAPE)


def clear_tape() -> None:
    _TAPE.clear()


@contextmanager
def tape_scope():
    """Bound one training step: the tape is empty when the block exits, also
    when it raises, so a failed step leaves no recorded nodes behind."""
    try:
        yield
    finally:
        clear_tape()


@contextmanager
def frozen(params):
    """Keep the trainable `params` off the tape inside the block: ops on them
    record no node for their sake, and backward leaves their gradients alone."""
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_bwd")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self._bwd = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(out: Tensor, parents: tuple[Tensor, ...], bwd) -> Tensor:
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._bwd = bwd
        _TAPE.append(out)
    return out


def _accum(t: Tensor, grad: np.ndarray, own: bool = False) -> None:
    """Add `grad` into `t.grad`. Backward rules whose gradient costs more
    than a view or a copy check `requires_grad` before computing it.

    `own` says that the rule computed `grad` afresh for `t` alone, so a
    first write adopts it as the buffer. Otherwise (the one `g` that
    add/sub hand to both parents, or a view of `g`) the first write copies
    it into a buffer of its own."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy holds 0.0 + grad, as zeros followed by += would (-0.0
        # becomes +0.0); an adopted -0.0 stays, and parameter buffers, which
        # add onto zero_grad's +0.0, never show the difference
        t.grad = grad if own else np.add(grad, 0.0, out=np.empty_like(t.values))
    else:
        t.grad += grad


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d theta into the gradient buffer of every
    parameter the loss depends on.

    The loss must be scalar. Only leaves (the parameters) keep their
    gradients: each recorded node's gradient is dropped as soon as it has
    been passed on to its parents. The tape is cleared afterwards.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    # only the loss's ancestors receive a gradient: every other node keeps
    # grad None and is skipped
    _accum(loss, np.ones_like(loss.values), own=True)
    for node in reversed(_TAPE):
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)
            node.grad = None
    clear_tape()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.values @ b.values)

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ b.values.T, own=True)
        if b.requires_grad:
            _accum(b, a.values.T @ g, own=True)
    return _record(out, (a, b), bwd)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one tape node; gradients bit-equal to
    `add(matmul(x, W), b)`."""
    if x.values.ndim != 2 or W.values.ndim != 2 or x.shape[1] != W.shape[0]:
        raise ShapeError(f"linear shape mismatch: {x.shape} @ {W.shape}")
    v = x.values @ W.values
    v += b.values
    out = Tensor(v)

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ W.values.T, own=True)
        if W.requires_grad:
            _accum(W, x.values.T @ g, own=True)
        _accum(b, _unbroadcast(g, b.shape))
    return _record(out, (x, W, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values + b.values)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))
    return _record(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values - b.values)

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape), own=True)
    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.values * b.values)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.values, a.shape), own=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.values, b.shape), own=True)
    return _record(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.values * c)

    def bwd(g):
        _accum(a, g * c, own=True)
    return _record(out, (a,), bwd)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(int(lo), int(hi))
            _accum(t, g[tuple(idx)])
    return _record(out, tuple(tensors), bwd)


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.values.T)

    def bwd(g):
        _accum(a, g.T)
    return _record(out, (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.values.reshape(shape))

    def bwd(g):
        _accum(a, g.reshape(a.shape))
    return _record(out, (a,), bwd)


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather; also the embedding lookup (scatter-add on backward)."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.values[idx])

    def bwd(g):
        flat = g.reshape(len(idx), -1)
        _accum(a, kernels.segment_sum(flat, idx, a.shape[0]).reshape(a.shape),
               own=True)
    return _record(out, (a,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e) for x >= 0 and e/(1+e) below, from e = exp(-|x|) <= 1, so
    # nothing overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    v = _sigmoid(a.values)
    out = Tensor(v)

    def bwd(g):
        _accum(a, g * v * (1.0 - v), own=True)
    return _record(out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.values, 0.0))

    def bwd(g):
        _accum(a, g * (a.values > 0), own=True)
    return _record(out, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    v = np.tanh(a.values)
    out = Tensor(v)

    def bwd(g):
        _accum(a, g * (1.0 - v * v), own=True)
    return _record(out, (a,), bwd)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(a.values.mean(axis=axis))
    denom = a.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is None:
            _accum(a, np.full_like(a.values, g / denom), own=True)
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis) / denom,
                                      a.shape).copy(), own=True)
    return _record(out, (a,), bwd)


def sum_(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(a.values.sum(axis=axis))

    def bwd(g):
        if axis is None:
            _accum(a, np.full_like(a.values, g), own=True)
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),
                   own=True)
    return _record(out, (a,), bwd)


def logsumexp(a: Tensor, axis: int) -> Tensor:
    m = a.values.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a.values - m)
    s = e.sum(axis=axis, keepdims=True)
    out = Tensor(np.squeeze(np.log(s) + m, axis=axis))

    def bwd(g):
        _accum(a, np.expand_dims(g, axis) * (e / s), own=True)
    return _record(out, (a,), bwd)


def sumsq(a: Tensor, axis: int | None = None) -> Tensor:
    """Squared L2 norm over `axis` (all elements when None)."""
    out = Tensor((a.values ** 2).sum(axis=axis))

    def bwd(g):
        if axis is None:
            _accum(a, 2.0 * a.values * g, own=True)
        else:
            _accum(a, 2.0 * a.values * np.expand_dims(g, axis), own=True)
    return _record(out, (a,), bwd)


def dropout(a: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: evaluation is the identity."""
    if not train or p <= 0.0:
        return a
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = (rng.random(a.shape) >= p).astype(np.float64) / (1.0 - p)
    out = Tensor(a.values * keep)

    def bwd(g):
        _accum(a, g * keep, own=True)
    return _record(out, (a,), bwd)


def neighbor_mean(h: Tensor, src: np.ndarray, dst: np.ndarray,
                  classes: tuple | None = None) -> tuple[np.ndarray, Tensor]:
    """Per destination, the mean of `h[src[e]]` over its edges e.

    Returns the distinct `dst` values in ascending order and their means,
    row for row (K x ch); a destination without edges gets no row. Backward
    scatters each mean's gradient, divided by its edge count, onto the
    edges' source rows in one sum.

    `classes` = (class_src, cls, copies, (fix_src, fix_row, sign)) computes
    the same means from fewer rows: row i is the mean over the edges
    (class_src, cls) of class `copies[i]`, plus, divided by row i's count,
    `sign * h[s]` for each correction (s, i, sign). The caller vouches that
    this equals row i's own mean; backward runs per edge all the same, so
    a gradient is exactly zero wherever the per-edge sum makes it so.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    present = np.bincount(dst) > 0
    rows = np.flatnonzero(present)
    inverse = (np.cumsum(present) - 1)[dst]
    if classes is None:
        means, counts = kernels.segment_mean(h.values[src], inverse, len(rows))
    else:
        class_src, cls, copies, (fix_src, fix_row, sign) = classes
        means = kernels.segment_mean(h.values[class_src], cls,
                                     int(cls.max()) + 1)[0][copies]
        counts = kernels.segment_counts(inverse, len(rows))
        means += kernels.segment_sum(sign[:, None] * h.values[fix_src], fix_row,
                                     len(rows)) / counts[:, None]
    out = Tensor(means)

    def bwd(g):
        share = (g / counts[:, None])[inverse]
        _accum(h, kernels.segment_sum(share, src, h.shape[0]), own=True)
    return rows, _record(out, (h,), bwd)


def pair_mlp(h_i: Tensor, h_ref: Tensor, ref_idx: np.ndarray | None,
             W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor) -> Tensor:
    """relu((h_i - h_ref[ref_idx]) W1 + b1) W2 + b2 as one tape node, W2
    with one column.

    With `ref_idx` None, row i of `h_i` pairs with row i of `h_ref` and the
    scores have shape (n,). With an (n, k) array of `h_ref` rows, row i of
    `h_i` pairs with each of `h_ref[ref_idx[i]]` and the scores are (n, k).

    The node maps before it pairs: a pair's pre-activation is row i of
    `h_i W1 + b1` less row j of `h_ref W1`, so no (n k x c) difference block
    is built, nor any product with one. Backward sums the hidden gradient
    over each row's k pairs for `h_i` and scatters it onto `h_ref` in one
    segment sum (row-aligned pairs need no scatter). This equals the
    composed chain of `take_rows`, `sub`, `linear`, `relu` and `linear`
    within rounding, not bit for bit: the difference is rounded relative to
    |h W1|, not to |(h_i - h_ref) W1|.
    """
    c = h_i.shape[-1]
    pairs_ok = (h_ref.shape == h_i.shape if ref_idx is None
                else np.ndim(ref_idx) == 2 and len(ref_idx) == h_i.shape[0])
    if not pairs_ok or h_i.values.ndim != 2 or h_ref.shape[1:] != (c,) \
            or W1.shape[:1] != (c,) or W2.shape[1:] != (1,):
        raise ShapeError(f"pair_mlp shape mismatch: {h_i.shape} against "
                         f"{h_ref.shape} at {np.shape(ref_idx)}, "
                         f"{W1.shape} then {W2.shape}")
    n, width = h_i.shape[0], W1.shape[1]
    lead = (n,) if ref_idx is None else np.shape(ref_idx)
    # row-aligned pairs are the (n, 1) block of row i against row i
    idx = (np.arange(n) if ref_idx is None
           else np.asarray(ref_idx, dtype=np.int64)).reshape(-1)
    a = h_i.values @ W1.values
    a += b1.values
    hidden = (h_ref.values @ W1.values)[idx].reshape(n, -1, width)
    np.subtract(a[:, None, :], hidden, out=hidden)
    np.maximum(hidden, 0.0, out=hidden)
    hidden = hidden.reshape(-1, width)
    raw = hidden @ W2.values
    raw += b2.values
    out = Tensor(raw.reshape(lead))

    def bwd(g):
        g = g.reshape(-1, 1)
        if W2.requires_grad:
            _accum(W2, hidden.T @ g, own=True)
        if b2.requires_grad:
            _accum(b2, g.sum(axis=0), own=True)
        need_a = h_i.requires_grad or W1.requires_grad or b1.requires_grad
        need_r = h_ref.requires_grad or W1.requires_grad
        if not (need_a or need_r):
            return
        # backward runs once per node, so the hidden block turns into its
        # own gradient in place: the rank-1 g W2^T as a broadcast, masked
        mask = hidden > 0
        gh = np.multiply(g, W2.values[:, 0], out=hidden)
        gh *= mask
        if need_a:
            da = np.einsum("nkc->nc", gh.reshape(n, -1, width))  # sum over k
        if need_r:  # a row-aligned pair's gradient is its reference row's
            dr = (gh if ref_idx is None
                  else kernels.segment_sum(gh, idx, h_ref.shape[0]))
        if W1.requires_grad:
            dW1 = h_i.values.T @ da
            dW1 -= h_ref.values.T @ dr
            _accum(W1, dW1, own=True)
        if b1.requires_grad:
            _accum(b1, da.sum(axis=0), own=True)
        if h_i.requires_grad:
            _accum(h_i, da @ W1.values.T, own=True)
        if h_ref.requires_grad:
            dh = dr @ W1.values.T
            _accum(h_ref, np.negative(dh, out=dh), own=True)
    return _record(out, (h_i, h_ref, W1, b1, W2, b2), bwd)


def relu_update(base: Tensor, parts: list[tuple[np.ndarray, Tensor]]) -> Tensor:
    """relu(base + parts) as one tape node: a copy of `base` that adds row i
    of each part's `vals` to its row `rows[i]`, part by part in the given
    order, then takes the ReLU in place. Within a part `rows` must be
    distinct; a repeated row raises ShapeError naming it.

    Backward reads the ReLU's mask from the output and keeps no other array.
    Output and gradients are bit-identical to the composed chain of one row
    addition per part and a `relu`, whose intermediate nodes hand `base`
    and every part but the last the `0.0 + g` copy of the gradient.
    """
    n = base.shape[0]
    parts = [(np.asarray(rows, dtype=np.int64), vals) for rows, vals in parts]
    v = base.values.copy()
    for rows, vals in parts:
        if rows.ndim != 1 or vals.shape != rows.shape + base.shape[1:]:
            raise ShapeError(f"relu_update: {vals.shape} rows at {rows.shape} "
                             f"onto {base.shape}")
        if len(rows):
            if rows.min() < 0 or rows.max() >= n:
                raise ShapeError(f"relu_update: rows {int(rows.min())}.."
                                 f"{int(rows.max())} outside [0, {n})")
            repeats = np.flatnonzero(np.bincount(rows, minlength=n) > 1)
            if len(repeats):
                raise ShapeError(f"relu_update: row {int(repeats[0])} is added "
                                 f"twice in one part")
        v[rows] += vals.values
    np.maximum(v, 0.0, out=v)
    out = Tensor(v)

    def bwd(g):
        g = g * (v > 0)
        if not parts:  # the relu's own gradient, adopted
            _accum(base, g, own=True)
            return
        copy = g if len(parts) == 1 else np.add(g, 0.0)
        for k in range(len(parts) - 1, -1, -1):
            rows, vals = parts[k]
            if k == 0:
                _accum(base, copy)
            if vals.requires_grad:
                _accum(vals, (g if k == len(parts) - 1 else copy)[rows], own=True)
    return _record(out, (base, *(vals for _, vals in parts)), bwd)


def gated_sum(pairs: list[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """The sum over pairs of (1 - g) * h_n + g * h_e as one tape node.

    Backward keeps no array of its own: it reads the pairs' values. Output
    and gradients are bit-identical to the composed chain of `scale`,
    `add`, two `mul`s and an `add` per pair (1 - g is formed as
    g * -1.0 + 1.0, which equals it exactly) and an `add` across pairs.
    """
    if not pairs:
        raise ShapeError("gated_sum needs at least one branch pair")
    total = None
    for h_n, h_e, g in pairs:
        term = (g.values * -1.0 + 1.0) * h_n.values
        term += g.values * h_e.values
        if total is None:
            total = term
        else:
            total += term
    out = Tensor(total)

    def bwd(grad):
        # the chain hands every mul the 0.0 + grad copy
        grad = np.add(grad, 0.0)
        for h_n, h_e, g in reversed(pairs):
            if h_e.requires_grad:
                _accum(h_e, _unbroadcast(grad * g.values, h_e.shape), own=True)
            if h_n.requires_grad:
                _accum(h_n, _unbroadcast(grad * (g.values * -1.0 + 1.0),
                                         h_n.shape), own=True)
            if g.requires_grad:  # from g * h_e, then through 1 - g's copy
                _accum(g, _unbroadcast(grad * h_e.values, g.shape), own=True)
                one_minus = _unbroadcast(grad * h_n.values, g.shape)
                _accum(g, np.add(one_minus, 0.0) * -1.0, own=True)
    return _record(out, tuple(t for pair in pairs for t in pair), bwd)


def gate_blend(h_n: Tensor, h_e: Tensor, W: Tensor, b: Tensor, alpha: float,
               gbar: float) -> tuple[np.ndarray, Tensor]:
    """The per-row gate g~ = sigmoid([h_n || h_e] W + b) and its blend
    g = (1 - alpha) g~ + alpha gbar, recorded as one tape node for g.

    Returns g~'s values (off the tape) and g. The node keeps g~ for
    backward and concatenates the branches again there, for W's gradient.
    Output and gradients are bit-identical to the composed chain of
    `concat`, `linear`, `sigmoid`, `scale` and `add`.
    """
    if h_n.values.ndim != 2 or h_n.shape != h_e.shape or W.values.ndim != 2 \
            or W.shape[0] != 2 * h_n.shape[1]:
        raise ShapeError(f"gate_blend shape mismatch: {h_n.shape} || "
                         f"{h_e.shape} @ {W.shape}")
    c = h_n.shape[1]
    logits = np.concatenate([h_n.values, h_e.values], axis=1) @ W.values
    logits += b.values
    s = _sigmoid(logits)
    v = s * (1.0 - alpha)
    v += alpha * gbar
    out = Tensor(v)

    def bwd(g):
        g = np.add(g, 0.0)  # the blend's add copies it for the scale
        g *= 1.0 - alpha
        g *= s
        g *= 1.0 - s
        if h_n.requires_grad or h_e.requires_grad:
            gx = g @ W.values.T
            _accum(h_n, gx[:, :c])
            _accum(h_e, gx[:, c:])
        if W.requires_grad:
            x = np.concatenate([h_n.values, h_e.values], axis=1)
            _accum(W, x.T @ g, own=True)
        _accum(b, _unbroadcast(g, b.shape))
    return s, _record(out, (h_n, h_e, W, b), bwd)


# ---------------------------------------------------------------------------
# composites used across the model (no new backward rules)
# ---------------------------------------------------------------------------

def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), stably via logsumexp over a stacked zero column."""
    flat = reshape(a, (a.size, 1))
    zeros = Tensor(np.zeros((a.size, 1)))
    return reshape(logsumexp(concat([zeros, flat], axis=1), axis=1), a.shape)


def abs_(a: Tensor) -> Tensor:
    return add(relu(a), relu(scale(a, -1.0)))


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy, computed from logits."""
    t = Tensor(np.asarray(targets, dtype=np.float64))
    return mean(sub(softplus(logits), mul(logits, t)))


# ---------------------------------------------------------------------------
# parameters and optimization
# ---------------------------------------------------------------------------

def init_param(shape: tuple[int, ...], fan_in: int, seed: int,
               fan_out: int | None = None) -> Tensor:
    """Uniform(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    if fan_out is None:
        fan_out = shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class Adam:
    """Adaptive-moment optimizer; `step` also zeroes the gradients.

    `names` label the parameters in a divergence error (default: their
    positions)."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 names: list[str] | None = None):
        self.params = list(params)
        self.names = (list(names) if names is not None
                      else [f"#{i}" for i in range(len(self.params))])
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        """Update every parameter, or raise TrainingDiverged naming the first
        one whose moments or values would turn non-finite (a gradient past
        ~1e154 overflows its square) and change nothing."""
        t = self.t + 1
        b1c = 1.0 - self.beta1 ** t
        b2c = 1.0 - self.beta2 ** t
        updates = []
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p, m, v in zip(self.names, self.params, self.m, self.v):
                g = p.grad
                m = m * self.beta1
                m += (1.0 - self.beta1) * g
                v = v * self.beta2
                v += (1.0 - self.beta2) * g * g
                values = p.values - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
                # a non-finite m makes the values non-finite too
                if not (np.isfinite(v).all() and np.isfinite(values).all()):
                    raise TrainingDiverged(
                        f"Adam step {t} would make parameter {name!r} "
                        f"non-finite", {"parameter": name, "step": t})
                updates.append((m, v, values))
        self.t = t
        self.m = [m for m, _, _ in updates]
        self.v = [v for _, v, _ in updates]
        for p, (_, _, values) in zip(self.params, updates):
            p.values[...] = values
            p.grad[:] = 0.0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad[:] = 0.0


# ---------------------------------------------------------------------------
# checkpoint wire format: 8-byte LE header length, JSON index, then per
# tensor an 8-byte LE byte count followed by little-endian float64 data.
# ---------------------------------------------------------------------------

_MAGIC = b"RGNNTNSR"


def save_tensors(path: str | Path, named: dict[str, Tensor | np.ndarray]) -> None:
    names = sorted(named)
    index = []
    payloads = []
    for name in names:
        t = named[name]
        arr = np.ascontiguousarray(
            t.values if isinstance(t, Tensor) else t, dtype="<f8")
        index.append({"name": name, "shape": list(arr.shape),
                      "nbytes": int(arr.nbytes)})
        payloads.append(arr.tobytes())
    header = json.dumps({"tensors": index}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a file written by `save_tensors`.

    A file that is missing, is not a checkpoint, is cut short, holds bytes
    past its last tensor, or whose byte counts disagree with its header
    raises CheckpointMismatch naming the file and, where one is involved,
    the tensor.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointMismatch(
            f"unreadable checkpoint {path}: {exc.strerror}") from None
    if data[:len(_MAGIC)] != _MAGIC:
        raise CheckpointMismatch(f"not a tensor checkpoint: {path}")
    pos = len(_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(data) - pos:
            raise CheckpointMismatch(
                f"truncated checkpoint {path}: {what} needs {n} bytes, "
                f"{len(data) - pos} left")
        pos += n
        return data[pos - n:pos]

    (hlen,) = struct.unpack("<Q", take(8, "header length"))
    header = take(hlen, "header")
    try:
        index = [(e["name"], tuple(int(d) for d in e["shape"]),
                  int(e["nbytes"]))
                 for e in json.loads(header.decode("utf-8"))["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointMismatch(
            f"unreadable checkpoint header in {path}: {exc}") from None
    out = {}
    for name, shape, listed in index:
        (nbytes,) = struct.unpack("<Q", take(8, f"byte count of {name!r}"))
        if not nbytes == listed == 8 * math.prod(shape):
            raise CheckpointMismatch(
                f"corrupt checkpoint {path}: tensor {name!r} has {nbytes} "
                f"bytes, its header entry {listed} and its shape {list(shape)}")
        arr = np.frombuffer(take(nbytes, f"tensor {name!r}"), dtype="<f8")
        out[name] = arr.reshape(shape).astype(np.float64)
    if pos < len(data):
        raise CheckpointMismatch(f"corrupt checkpoint {path}: {len(data) - pos} "
                                 f"bytes follow the last tensor")
    return out
