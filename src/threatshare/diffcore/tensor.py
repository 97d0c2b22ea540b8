"""Float64 tensors with taped reverse-mode differentiation.

Deliberately small: eager dense arrays, one closure tape per result, no
views. The cost of an op is almost all interpreter overhead, not arithmetic,
so callers pack many small graphs into one set of matrices and the index ops
(``gather_rows``, ``segment_sum``, ``segment_softmax``, ``pair_dot``,
``pair_mix``) address rows by index arrays instead of dense masks. The pair
ops also take the pack's block layout (rows per graph) and multiply block by
block, so their cost grows with the number of graphs, not the square of the
pack. ``linear`` (``x @ W + b``) and ``layer_norm`` (of a sum and its
residual) are fused: one taped result where there were several.

An op records its tape only if an input requires grad: a pass over constant
tensors builds none. The tape lists the op's parents, each with a closure
that keeps only the arrays it reads. Tensors are numbered as they are
created, so parents precede their results and ``backward`` needs no search:
it sweeps in decreasing number and frees each closure once it has run.
Every op checks its output for NaN/Inf and raises NumericError rather than
letting garbage propagate into training.
"""

from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Operands cannot be combined under the op's shape rules."""


class NumericError(ArithmeticError):
    """A non-finite value appeared, or an op was used out of contract."""


# numbers every tensor in creation order; ``backward`` sweeps by it
_created = itertools.count()


class Tensor:
    """A float64 array plus an optional gradient buffer and backward tape.

    ``grad`` stays ``None`` until :func:`backward` deposits into it;
    repeated backward passes accumulate until ``grad`` is reset.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_seq")

    def __init__(self, data, requires_grad=False, _tape=()):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor holds NaN/Inf")
        self.data = arr
        self.grad = None
        # ``_tape`` holds only parents that require grad (see ``_result``)
        self._tape = _tape
        self.requires_grad = bool(requires_grad or _tape)
        self._seq = next(_created)

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_leaf(self):
        return not self._tape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the free functions below are the real implementation
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents) -> Tensor:
    tape = tuple((p, fn) for p, fn in parents if p.requires_grad)
    return Tensor(data, _tape=tape)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ── elementwise / structural ops ──────────────────────────────────────────


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape}") from None
    return _result(
        data,
        [
            (a, lambda g: _unbroadcast(g, a.data.shape)),
            (b, lambda g: _unbroadcast(g, b.data.shape)),
        ],
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape}") from None
    return _result(
        data,
        [
            (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
        ],
    )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape}")
    data = a.data @ b.data
    return _result(
        data,
        [
            (a, lambda g: g @ b.data.T),
            (b, lambda g: a.data.T @ g),
        ],
    )


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one op, the bias a (1, out) row added to every row."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: shapes {x.shape} and {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear: bias {b.shape} for {w.shape[1]} outputs")
    return _result(
        x.data @ w.data + b.data,
        [
            (x, lambda g: g @ w.data.T),
            (w, lambda g: x.data.T @ g),
            (b, lambda g: g.sum(axis=0, keepdims=True)),
        ],
    )


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: {old} to {shape}") from None
    return _result(data, [(a, lambda g: g.reshape(old))])


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.shape for t in tensors]} along axis {axis}"
        ) from None
    parents = []
    offset = 0
    for t in tensors:
        width = t.data.shape[axis]
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(offset, offset + width)
        parents.append((t, lambda g, sl=tuple(sl): g[sl]))
        offset += width
    return _result(data, parents)


# ── nonlinearities ────────────────────────────────────────────────────────


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _result(np.where(a.data > 0, a.data, 0.0), [(a, lambda g: g * (a.data > 0))])


def leaky_relu(a, slope=0.2) -> Tensor:
    a = _as_tensor(a)
    data = np.where(a.data > 0, a.data, slope * a.data)
    return _result(data, [(a, lambda g: g * np.where(a.data > 0, 1.0, slope))])


def layer_norm(x, residual, gain, bias, eps=1e-5) -> Tensor:
    """Normalize ``x + residual`` over the last axis, then scale and shift.

    One op for the sum and the norm: its tape keeps the normalized sum and
    the inverse deviations, and both summands receive the same gradient.
    """
    x, residual = _as_tensor(x), _as_tensor(residual)
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    if x.data.ndim != 2 or residual.shape != x.shape:
        raise ShapeError(f"layer_norm: data {x.shape}, residual {residual.shape}")
    if not gain.shape == bias.shape == (1, x.shape[1]):
        raise ShapeError(f"layer_norm: data {x.shape}, gain {gain.shape}, bias {bias.shape}")
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


# ── index ops ─────────────────────────────────────────────────────────────
#
# A pack of graphs is one set of row-stacked matrices; these ops address its
# rows through integer index arrays. Segment ids are sorted, so a segment is
# one contiguous run of rows and a scatter-add is one ``np.add.reduceat``.


def _row_index(idx, n_rows: int, op: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= n_rows)):
        raise ShapeError(f"{op}: indices must be 1-D and inside [0, {n_rows})")
    return idx


def _runs(seg: np.ndarray, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Start of each run of equal ids in ``seg`` and each entry's run number."""
    step = np.diff(seg)
    if np.any(step < 0):
        raise ShapeError(f"{op}: segment ids must be sorted")
    new = np.concatenate([[seg.size > 0], step != 0])[: seg.size]
    return np.flatnonzero(new), np.cumsum(new) - 1


def gather_rows(a, idx) -> Tensor:
    """Rows ``idx`` of a 2-D tensor, repeats allowed; the gradient of every
    output row flows back onto the row it was read from."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D, got {a.shape}")
    idx = _row_index(idx, a.shape[0], "gather_rows")

    def back(g):
        order = np.argsort(idx, kind="stable")
        starts, _ = _runs(idx[order], "gather_rows")
        out = np.zeros_like(a.data)
        out[idx[order[starts]]] = np.add.reduceat(g[order], starts, axis=0)
        return out

    return _result(a.data[idx], [(a, back)])


def segment_sum(a, seg, n_segments: int) -> Tensor:
    """``out[s]`` is the sum of the rows ``i`` of ``a`` with ``seg[i] == s``.

    ``seg`` is sorted; a segment without rows sums to zero.
    """
    a = _as_tensor(a)
    seg = _row_index(seg, n_segments, "segment_sum")
    if a.data.ndim != 2 or seg.size != a.shape[0]:
        raise ShapeError(f"segment_sum: {seg.size} segment ids for data {a.shape}")
    starts, _ = _runs(seg, "segment_sum")
    data = np.zeros((n_segments, a.shape[1]))
    data[seg[starts]] = np.add.reduceat(a.data, starts, axis=0)
    return _result(data, [(a, lambda g: g[seg])])


def segment_softmax(a, seg) -> Tensor:
    """Softmax of each column over the rows of each segment (``seg`` sorted),
    shifted by the segment maximum for stability."""
    a = _as_tensor(a)
    seg = np.asarray(seg)
    if a.data.ndim != 2 or seg.shape != (a.shape[0],):
        raise ShapeError(f"segment_softmax: segment ids {seg.shape} for data {a.shape}")
    starts, run = _runs(seg, "segment_softmax")
    # one row per (column, segment), padded with -inf (exp gives 0), so a
    # segment normalizes exactly like the matching row of a dense softmax
    at = (slice(None), run, np.arange(seg.size) - starts[run])
    width = np.diff(np.append(starts, seg.size)).max(initial=0)
    rows = np.full((a.shape[1], starts.size, width), -np.inf)
    rows[at] = a.data.T
    e = np.exp(rows - rows.max(axis=2, keepdims=True))
    y = (e / e.sum(axis=2, keepdims=True))[at].T

    padded = rows.shape

    def back(g):
        gy = np.zeros(padded)
        gy[at] = (g * y).T
        return y * (g - gy.sum(axis=2)[:, run].T)

    return _result(y, [(a, back)])


# ── pair ops ──────────────────────────────────────────────────────────────
#
# Pairs (i, j) of rows inside the blocks of a pack. ``sizes`` is the block
# layout: block b (one graph) is ``sizes[b]`` contiguous rows, and no pair
# leaves its block. Each product pads every block with zero rows to the
# largest, w, and runs once over a (blocks, heads, w, w) stack, so its cost
# grows with the number of blocks, not with the square of the rows. A single
# block needs no padding: its product is the plain (rows x rows) one.


class _Blocks:
    """Where the rows and the pairs of a block layout sit in the padded stack."""

    __slots__ = ("n_rows", "n_blocks", "width", "slot", "block", "q", "k")

    def __init__(self, sizes, q_idx, k_idx, op: str):
        sizes = np.asarray(sizes, dtype=np.intp)
        if sizes.ndim != 1 or np.any(sizes < 0):
            raise ShapeError(f"{op}: block sizes must be 1-D and non-negative")
        self.n_rows = int(sizes.sum())
        q_idx = _row_index(q_idx, self.n_rows, op)
        k_idx = _row_index(k_idx, self.n_rows, op)
        if q_idx.size != k_idx.size:
            raise ShapeError(f"{op}: {q_idx.size} query and {k_idx.size} key indices")
        block = np.repeat(np.arange(sizes.size), sizes)
        local = np.arange(self.n_rows) - (np.cumsum(sizes) - sizes)[block]
        self.block = block[q_idx]
        if np.any(block[k_idx] != self.block):
            raise ShapeError(f"{op}: a pair crosses blocks")
        self.n_blocks, self.width = sizes.size, int(sizes.max(initial=0))
        self.slot = block * self.width + local
        self.q, self.k = local[q_idx], local[k_idx]
        cell = (self.block * self.width + self.q) * self.width + self.k
        if np.bincount(cell).max(initial=0) > 1:
            raise ShapeError(f"{op}: pairs must be distinct")

    def pad(self, x: np.ndarray, heads: int) -> np.ndarray:
        """(rows, heads * dh) -> (blocks, heads, w, dh), zero rows appended."""
        out = np.zeros((self.n_blocks * self.width, x.shape[1]))
        out[self.slot] = x
        return out.reshape(self.n_blocks, self.width, heads, -1).transpose(0, 2, 1, 3)

    def unpad(self, y: np.ndarray) -> np.ndarray:
        """(blocks, heads, w, dh) -> (rows, heads * dh)."""
        return y.transpose(0, 2, 1, 3).reshape(self.n_blocks * self.width, -1)[self.slot]

    def dots(self, a: np.ndarray, b: np.ndarray, heads: int) -> np.ndarray:
        """(pairs, heads): per head, ``a[i] . b[j]`` of every pair (i, j)."""
        prod = self.pad(a, heads) @ self.pad(b, heads).swapaxes(2, 3)
        return prod[self.block, :, self.q, self.k]

    def sums(self, weights: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(rows, x columns): per head h, row i sums ``weights[p, h] * x[j]``
        over the pairs p = (i, j), or over the pairs (j, i) if ``transpose``."""
        m = np.zeros((self.n_blocks, weights.shape[1], self.width, self.width))
        m[self.block, :, self.q, self.k] = weights
        if transpose:
            m = m.swapaxes(2, 3)
        return self.unpad(m @ self.pad(x, weights.shape[1]))


def _head_split(width: int, heads: int, op: str) -> None:
    if heads < 1 or width % heads:
        raise ShapeError(f"{op}: {width} columns do not split into {heads} heads")


def pair_dot(q, k, q_idx, k_idx, heads: int, sizes) -> Tensor:
    """Per-head dot products of row pairs, shape (P, heads):
    ``out[p, h] = q[q_idx[p], block h] . k[k_idx[p], block h]``, the columns
    of ``q`` and ``k`` split into ``heads`` equal blocks.

    ``q`` and ``k`` share the row layout ``sizes`` (rows per graph); pairs
    must be distinct and inside one graph, else ShapeError.
    """
    q, k = _as_tensor(q), _as_tensor(k)
    if q.data.ndim != 2 or k.data.ndim != 2 or q.shape != k.shape:
        raise ShapeError(f"pair_dot: shapes {q.shape} and {k.shape}")
    _head_split(q.shape[1], heads, "pair_dot")
    at = _Blocks(sizes, q_idx, k_idx, "pair_dot")
    if at.n_rows != q.shape[0]:
        raise ShapeError(f"pair_dot: {q.shape[0]} rows for blocks of {at.n_rows}")
    return _result(
        at.dots(q.data, k.data, heads),
        [
            (q, lambda g: at.sums(g, k.data)),
            (k, lambda g: at.sums(g, q.data, transpose=True)),
        ],
    )


def pair_mix(alpha, v, q_idx, k_idx, sizes) -> Tensor:
    """Per-head weighted sums over row pairs, shape (rows, v columns):
    ``out[i, block h]`` sums ``alpha[p, h] * v[k_idx[p], block h]`` over the
    pairs with ``q_idx[p] == i``; the columns of ``v`` split into one block
    per column of ``alpha``.

    The output and ``v`` share the row layout ``sizes``; pairs must be
    distinct and inside one graph, as in :func:`pair_dot`.
    """
    alpha, v = _as_tensor(alpha), _as_tensor(v)
    if alpha.data.ndim != 2 or v.data.ndim != 2:
        raise ShapeError(f"pair_mix: shapes {alpha.shape} and {v.shape}")
    heads = alpha.shape[1]
    _head_split(v.shape[1], heads, "pair_mix")
    at = _Blocks(sizes, q_idx, k_idx, "pair_mix")
    if at.n_rows != v.shape[0] or alpha.shape[0] != at.q.size:
        raise ShapeError(
            f"pair_mix: {alpha.shape[0]} weights and {v.shape[0]} rows "
            f"for {at.q.size} pairs in blocks of {at.n_rows}"
        )
    return _result(
        at.sums(alpha.data, v.data),
        [
            (alpha, lambda g: at.dots(g, v.data, heads)),
            (v, lambda g: at.sums(alpha.data, g, transpose=True)),
        ],
    )


# ── losses ────────────────────────────────────────────────────────────────


def mse(pred, target) -> Tensor:
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    data = np.float64((diff**2).mean())
    return _result(
        data,
        [
            (pred, lambda g: g * 2.0 * diff / n),
            (target, lambda g: g * -2.0 * diff / n),
        ],
    )


# ── reverse sweep ─────────────────────────────────────────────────────────


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every trainable leaf's ``grad``,
    consuming the tape; parents that share a closure share its result."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got {loss.shape}")
    if loss.is_leaf:
        raise NumericError("backward: loss has no recorded operations")

    reached = {loss._seq: loss}
    stack = [loss]
    while stack:
        for parent, _ in stack.pop()._tape:
            if parent._seq not in reached:
                reached[parent._seq] = parent
                stack.append(parent)

    # a tensor's readers were all created after it, so they pass first
    flowing: dict[int, np.ndarray] = {loss._seq: np.ones_like(loss.data)}
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


# ── parameter container ───────────────────────────────────────────────────


class ParamSet:
    """Named trainable tensors plus the init scheme recorded per tensor.

    Shapes are fixed at construction; ``load_state`` copies values in place
    so optimizer moment buffers stay aligned.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._schemes: dict[str, str] = {}

    def add(self, name: str, shape, scheme: str) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.zeros(shape), requires_grad=True)
        self._params[name] = t
        self._schemes[name] = scheme
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def scheme(self, name: str) -> str:
        return self._schemes[name]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        if missing:
            raise ValueError(f"state missing parameters: {sorted(missing)}")
        for name, t in self._params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ShapeError(
                    f"parameter {name}: stored {arr.shape}, expected {t.data.shape}"
                )
            t.data = arr.copy()
