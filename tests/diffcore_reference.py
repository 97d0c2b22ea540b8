"""The index ops and activations of ``diffcore`` in their fancy-indexing and
select forms, and its mixing ops in their pair forms, kept as the reference
the ``np.take`` forms, the maxima and the block ops are checked against
byte for byte. Beside them are the references of the in-place forms: the
per-tensor Adam step, the layer norm that makes a new array for each step,
and the backward sweep that adds every later contribution into a new array.

Each op is taped on the engine's own tape, so ``dc.backward`` runs through
it; the pair ops take the raw index arrays and block sizes, and the softmax
the sorted segment ids, as they did before the pair plan.
"""

from dataclasses import dataclass, field

import numpy as np

from threatshare.diffcore import ShapeError
from threatshare.diffcore.optim import BETA1, BETA2, EPS
from threatshare.diffcore.tensor import _as_tensor, _result


def _row_index(idx, n_rows: int, op: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= n_rows)):
        raise ShapeError(f"{op}: indices must be 1-D and inside [0, {n_rows})")
    return idx


def _runs(seg: np.ndarray, op: str) -> tuple[np.ndarray, np.ndarray]:
    step = np.diff(seg)
    if np.any(step < 0):
        raise ShapeError(f"{op}: segment ids must be sorted")
    new = np.concatenate([[seg.size > 0], step != 0])[: seg.size]
    return np.flatnonzero(new), np.cumsum(new) - 1


def relu(a):
    a = _as_tensor(a)
    return _result(np.where(a.data > 0, a.data, 0.0), [(a, lambda g: g * (a.data > 0))])


def leaky_relu(a, slope=0.2):
    a = _as_tensor(a)
    data = np.where(a.data > 0, a.data, slope * a.data)
    return _result(data, [(a, lambda g: g * np.where(a.data > 0, 1.0, slope))])


def gather_rows(a, idx):
    a = _as_tensor(a)
    idx = _row_index(idx, a.shape[0], "gather_rows")

    def back(g):
        order = np.argsort(idx, kind="stable")
        starts, _ = _runs(idx[order], "gather_rows")
        out = np.zeros_like(a.data)
        out[idx[order[starts]]] = np.add.reduceat(g[order], starts, axis=0)
        return out

    return _result(a.data[idx], [(a, back)])


def segment_sum(a, seg, n_segments: int):
    a = _as_tensor(a)
    seg = _row_index(seg, n_segments, "segment_sum")
    starts, _ = _runs(seg, "segment_sum")
    data = np.zeros((n_segments, a.shape[1]))
    data[seg[starts]] = np.add.reduceat(a.data, starts, axis=0)
    return _result(data, [(a, lambda g: g[seg])])


def segment_softmax(a, seg):
    a = _as_tensor(a)
    seg = np.asarray(seg)
    starts, run = _runs(seg, "segment_softmax")
    at = (slice(None), run, np.arange(seg.size) - starts[run])
    width = np.diff(np.append(starts, seg.size)).max(initial=0)
    rows = np.full((a.shape[1], starts.size, width), -np.inf)
    rows[at] = a.data.T
    e = np.exp(rows - rows.max(axis=2, keepdims=True, initial=-np.inf))
    y = (e / e.sum(axis=2, keepdims=True))[at].T
    padded = rows.shape

    def back(g):
        gy = np.zeros(padded)
        gy[at] = (g * y).T
        return y * (g - gy.sum(axis=2)[:, run].T)

    return _result(y, [(a, back)])


class _Blocks:
    def __init__(self, sizes, q_idx, k_idx, op: str):
        sizes = np.asarray(sizes, dtype=np.intp)
        self.n_rows = int(sizes.sum())
        q_idx = _row_index(q_idx, self.n_rows, op)
        k_idx = _row_index(k_idx, self.n_rows, op)
        block = np.repeat(np.arange(sizes.size), sizes)
        local = np.arange(self.n_rows) - (np.cumsum(sizes) - sizes)[block]
        self.block = block[q_idx]
        if np.any(block[k_idx] != self.block):
            raise ShapeError(f"{op}: a pair crosses blocks")
        self.n_blocks, self.width = sizes.size, int(sizes.max(initial=0))
        self.slot = block * self.width + local
        self.q, self.k = local[q_idx], local[k_idx]

    def pad(self, x, heads):
        out = np.zeros((self.n_blocks * self.width, x.shape[1]))
        out[self.slot] = x
        return out.reshape(self.n_blocks, self.width, heads, -1).transpose(0, 2, 1, 3)

    def unpad(self, y):
        return y.transpose(0, 2, 1, 3).reshape(self.n_blocks * self.width, -1)[self.slot]

    def dots(self, a, b, heads):
        prod = self.pad(a, heads) @ self.pad(b, heads).swapaxes(2, 3)
        return prod[self.block, :, self.q, self.k]

    def sums(self, weights, x, transpose=False):
        m = np.zeros((self.n_blocks, weights.shape[1], self.width, self.width))
        m[self.block, :, self.q, self.k] = weights
        if transpose:
            m = m.swapaxes(2, 3)
        return self.unpad(m @ self.pad(x, weights.shape[1]))


def pair_dot(q, k, q_idx, k_idx, heads: int, sizes):
    q, k = _as_tensor(q), _as_tensor(k)
    at = _Blocks(sizes, q_idx, k_idx, "pair_dot")
    return _result(
        at.dots(q.data, k.data, heads),
        [
            (q, lambda g: at.sums(g, k.data)),
            (k, lambda g: at.sums(g, q.data, transpose=True)),
        ],
    )


def pair_mix(alpha, v, q_idx, k_idx, sizes):
    alpha, v = _as_tensor(alpha), _as_tensor(v)
    heads = alpha.shape[1]
    at = _Blocks(sizes, q_idx, k_idx, "pair_mix")
    return _result(
        at.sums(alpha.data, v.data),
        [
            (alpha, lambda g: at.dots(g, v.data, heads)),
            (v, lambda g: at.sums(alpha.data, g, transpose=True)),
        ],
    )


def layer_norm(x, residual, gain, bias, eps=1e-5):
    x, residual = _as_tensor(x), _as_tensor(residual)
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    centred = x.data + residual.data
    centred -= centred.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    xhat = centred * inv

    def back_sum(g):
        dxhat = g * gain.data
        return inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )

    return _result(
        xhat * gain.data + bias.data,
        [
            (x, back_sum),
            (residual, back_sum),
            (gain, lambda g: (g * xhat).sum(axis=0, keepdims=True)),
            (bias, lambda g: g.sum(axis=0, keepdims=True)),
        ],
    )


def backward(loss) -> None:
    reached = {loss._seq: loss}
    stack = [loss]
    while stack:
        for parent, _ in stack.pop()._tape:
            if parent._seq not in reached:
                reached[parent._seq] = parent
                stack.append(parent)
    flowing = {loss._seq: np.ones_like(loss.data)}
    for seq in sorted(reached, reverse=True):
        node = reached.pop(seq)
        g = flowing.pop(seq)
        tape, node._tape = node._tape, ()
        if not tape:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        last = None
        for parent, fn in tape:
            if fn is not last:
                contrib, last = fn(g), fn
            acc = flowing.get(parent._seq)
            flowing[parent._seq] = contrib if acc is None else acc + contrib


@dataclass
class AdamState:
    """Moment buffers keyed by parameter name."""

    lr: float = 1e-4
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params) -> None:
    """One Adam step over ``params.items()`` (name, tensor), each tensor's
    ``data`` rebound to its update."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if state.weight_decay:
            p.data = p.data * (1.0 - state.lr * state.weight_decay)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
