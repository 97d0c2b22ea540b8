"""Float64 tensors with taped reverse-mode differentiation.

Deliberately small: eager dense arrays, one closure tape per result, no
views. The cost of an op is almost all interpreter overhead and data
movement, not arithmetic, so callers pack many small graphs into one set of
matrices and the index ops (``gather_rows``, ``segment_sum``) address rows by
index arrays instead of dense masks. Rows move by ``np.take``: a gather is
one take, and a scatter of distinct rows into zeros is a take from the
source with one sentinel row appended. The pair ops (``pair_dot``,
``pair_mix``, ``pair_softmax``) read one ``PairPlan`` per pack, which fixes
the pairs, checks them once and holds every map they move rows through.
They multiply block by block (one block per graph), so their cost grows with
the number of graphs, not the square of the pack. ``linear`` (``x @ W + b``)
and ``layer_norm`` (of a sum and its residual) are fused: one taped result
where there were several. ``relu`` and ``leaky_relu`` are maxima, with no
data-dependent select.

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
#
# Both are maxima, not selects: a data-dependent select mispredicts on
# random signs. Each equals its select form bit for bit.


def relu(a) -> Tensor:
    a = _as_tensor(a)
    data = np.maximum(0.0, a.data)
    # on a tie of signed zeros np.maximum may return either one; adding +0.0
    # turns -0.0 into +0.0, as the select ``a > 0 ? a : 0`` gives
    data += 0.0
    return _result(data, [(a, lambda g: g * (a.data > 0))])


def leaky_relu(a, slope=0.2) -> Tensor:
    """``max(a, slope * a)``, which is ``a > 0 ? a : slope * a`` only for a
    slope in [0, 1]; any other slope is out of contract."""
    if not 0.0 <= slope <= 1.0:
        raise NumericError(f"leaky_relu: slope {slope!r} outside [0, 1]")
    a = _as_tensor(a)
    # the factor max(a > 0, slope) is 1 where a > 0 and slope elsewhere
    return _result(
        np.maximum(a.data, slope * a.data), [(a, lambda g: g * np.maximum(a.data > 0, slope))]
    )


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
# Rows move by ``np.take``, far cheaper than fancy indexing. A scatter
# of distinct rows into an array of zeros (or -inf) is a take too: from the
# source with one row of the fill value appended, through a fill map that
# names each destination's source row or that sentinel row.


def _row_index(idx, n_rows: int, op: str) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= n_rows)):
        raise ShapeError(f"{op}: indices must be 1-D and inside [0, {n_rows})")
    return idx


def _runs(seg: np.ndarray, op: str, what: str = "segment ids") -> tuple[np.ndarray, np.ndarray]:
    """Start of each run of equal ids in ``seg`` and each entry's run number."""
    step = np.diff(seg)
    if np.any(step < 0):
        raise ShapeError(f"{op}: {what} must be sorted")
    new = np.concatenate([[seg.size > 0], step != 0])[: seg.size]
    return np.flatnonzero(new), np.cumsum(new) - 1


def _fill_map(size: int, dest: np.ndarray) -> np.ndarray:
    """For each of ``size`` destination entries, the flat source index that
    the distinct flat positions ``dest`` send there, or ``dest.size``: the
    sentinel entry appended after the source."""
    fill = np.full(size, dest.size, dtype=np.intp)
    fill[dest.reshape(-1)] = np.arange(dest.size)
    return fill


def _with_sentinel(x: np.ndarray, value: float) -> np.ndarray:
    """``x`` with one more entry of ``value`` along its first axis."""
    out = np.empty((x.shape[0] + 1,) + x.shape[1:])
    out[:-1] = x
    out[-1] = value
    return out


def gather_rows(a, idx) -> Tensor:
    """Rows ``idx`` of a 2-D tensor, repeats allowed; the gradient of every
    output row flows back onto the row it was read from."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D, got {a.shape}")
    idx = _row_index(idx, a.shape[0], "gather_rows")

    def back(g):
        order = np.argsort(idx, kind="stable")
        starts, _ = _runs(np.take(idx, order), "gather_rows")
        sums = np.add.reduceat(np.take(g, order, axis=0), starts, axis=0)
        fill = _fill_map(a.shape[0], np.take(idx, np.take(order, starts)))
        return np.take(_with_sentinel(sums, 0.0), fill, axis=0)

    return _result(np.take(a.data, idx, axis=0), [(a, back)])


def segment_sum(a, seg, n_segments: int) -> Tensor:
    """``out[s]`` is the sum of the rows ``i`` of ``a`` with ``seg[i] == s``.

    ``seg`` is sorted; a segment without rows sums to zero.
    """
    a = _as_tensor(a)
    seg = _row_index(seg, n_segments, "segment_sum")
    if a.data.ndim != 2 or seg.size != a.shape[0]:
        raise ShapeError(f"segment_sum: {seg.size} segment ids for data {a.shape}")
    starts, _ = _runs(seg, "segment_sum")
    sums = np.add.reduceat(a.data, starts, axis=0)
    fill = _fill_map(n_segments, np.take(seg, starts))
    data = np.take(_with_sentinel(sums, 0.0), fill, axis=0)
    return _result(data, [(a, lambda g: np.take(g, seg, axis=0))])


# ── pair ops ──────────────────────────────────────────────────────────────
#
# Pairs (i, j) of rows inside the blocks of a pack: block b (one graph) is
# ``sizes[b]`` contiguous rows, and no pair leaves its block. A PairPlan
# fixes the pairs of one pack and every map the ops below move rows through,
# so a pack is checked and laid out once, however many ops read it. Each
# product pads every block with zero rows to the largest, w, and runs once
# over a (blocks, heads, w, w) stack, so its cost grows with the number of
# blocks, not with the square of the rows. A single block needs no padding:
# its product is the plain (rows x rows) one.


class PairPlan:
    """The pairs of a pack, sorted by query row, and where they sit in the
    padded layouts of the pair ops (the block stack) and of the softmax over
    each query's pairs (one row per head and query, as wide as the query
    with the most pairs).

    ``q`` and ``k`` are the query and key row of each pair. Raises
    ShapeError unless the rows are inside the blocks, the queries sorted,
    the pairs distinct and each inside one block.
    """

    __slots__ = (
        "q", "k", "heads", "n_rows", "n_blocks", "width", "slot", "pad_fill",
        "cells", "cell_fill", "n_queries", "run", "run_width", "run_cells", "run_fill",
    )

    def __init__(self, sizes, q_idx, k_idx, heads: int):
        op = "pair plan"
        sizes = np.asarray(sizes, dtype=np.intp)
        if sizes.ndim != 1 or np.any(sizes < 0):
            raise ShapeError(f"{op}: block sizes must be 1-D and non-negative")
        if heads < 1:
            raise ShapeError(f"{op}: heads must be >= 1, got {heads}")
        self.heads, self.n_rows = heads, int(sizes.sum())
        self.q, self.k = _row_index(q_idx, self.n_rows, op), _row_index(k_idx, self.n_rows, op)
        if self.q.size != self.k.size:
            raise ShapeError(f"{op}: {self.q.size} query and {self.k.size} key indices")
        starts, run = _runs(self.q, op, "query rows")
        block = np.repeat(np.arange(sizes.size), sizes)
        local = np.arange(self.n_rows) - (np.cumsum(sizes) - sizes)[block]
        pair_block = np.take(block, self.q)
        if np.any(np.take(block, self.k) != pair_block):
            raise ShapeError(f"{op}: a pair crosses blocks")
        self.n_blocks, self.width = sizes.size, int(sizes.max(initial=0))
        w, n_pairs = self.width, self.q.size
        # cell of each pair in its block's (w, w) square, blocks in a row
        cell = (pair_block * w + np.take(local, self.q)) * w + np.take(local, self.k)
        if np.bincount(cell).max(initial=0) > 1:
            raise ShapeError(f"{op}: pairs must be distinct")
        self.slot = block * w + local
        self.pad_fill = _fill_map(self.n_blocks * w, self.slot)
        # (pairs, heads) positions in the (blocks, heads, w, w) stack, and back
        head = np.arange(heads)
        self.cells = (cell + pair_block * (heads - 1) * w * w)[:, None] + head * w * w
        self.cell_fill = _fill_map(self.n_blocks * heads * w * w, self.cells)
        # (pairs, heads) positions in the (heads, queries, run width) rows
        self.n_queries, self.run = starts.size, run
        self.run_width = int(np.diff(np.append(starts, n_pairs)).max(initial=0))
        per_head = self.n_queries * self.run_width
        at = run * self.run_width + np.arange(n_pairs) - np.take(starts, run)
        self.run_cells = at[:, None] + head * per_head
        self.run_fill = _fill_map(heads * per_head, self.run_cells)

    def pad(self, x: np.ndarray) -> np.ndarray:
        """(rows, heads * dh) -> (blocks, heads, w, dh), zero rows appended."""
        out = np.take(_with_sentinel(x, 0.0), self.pad_fill, axis=0)
        return out.reshape(self.n_blocks, self.width, self.heads, -1).transpose(0, 2, 1, 3)

    def unpad(self, y: np.ndarray) -> np.ndarray:
        """(blocks, heads, w, dh) -> (rows, heads * dh)."""
        rows = y.transpose(0, 2, 1, 3).reshape(self.n_blocks * self.width, -1)
        return np.take(rows, self.slot, axis=0)

    def dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(pairs, heads): per head, ``a[i] . b[j]`` of every pair (i, j)."""
        return np.take(self.pad(a) @ self.pad(b).swapaxes(2, 3), self.cells)

    def sums(self, weights: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(rows, x columns): per head h, row i sums ``weights[p, h] * x[j]``
        over the pairs p = (i, j), or over the pairs (j, i) if ``transpose``."""
        w = self.width
        m = np.take(_with_sentinel(weights.reshape(-1), 0.0), self.cell_fill)
        m = m.reshape(self.n_blocks, self.heads, w, w)
        if transpose:
            m = m.swapaxes(2, 3)
        return self.unpad(m @ self.pad(x))


def _check_rows(t: Tensor, plan: PairPlan, op: str) -> None:
    if t.data.ndim != 2 or t.shape[0] != plan.n_rows:
        raise ShapeError(f"{op}: shape {t.shape} for blocks of {plan.n_rows} rows")
    if t.shape[1] % plan.heads:
        raise ShapeError(f"{op}: {t.shape[1]} columns do not split into {plan.heads} heads")


def _check_pairs(t: Tensor, plan: PairPlan, op: str) -> None:
    if t.shape != (plan.q.size, plan.heads):
        raise ShapeError(f"{op}: shape {t.shape} for {plan.q.size} pairs of {plan.heads} heads")


def pair_dot(q, k, plan: PairPlan) -> Tensor:
    """Per-head dot products of the plan's row pairs, shape (pairs, heads):
    ``out[p, h] = q[plan.q[p], block h] . k[plan.k[p], block h]``, the
    columns of ``q`` and ``k`` split into ``plan.heads`` equal blocks."""
    q, k = _as_tensor(q), _as_tensor(k)
    _check_rows(q, plan, "pair_dot")
    if k.shape != q.shape:
        raise ShapeError(f"pair_dot: shapes {q.shape} and {k.shape}")
    return _result(
        plan.dots(q.data, k.data),
        [
            (q, lambda g: plan.sums(g, k.data)),
            (k, lambda g: plan.sums(g, q.data, transpose=True)),
        ],
    )


def pair_mix(alpha, v, plan: PairPlan) -> Tensor:
    """Per-head weighted sums over the plan's row pairs, shape (rows, v
    columns): ``out[i, block h]`` sums ``alpha[p, h] * v[plan.k[p], block h]``
    over the pairs with ``plan.q[p] == i``; the columns of ``v`` split into
    one block per head."""
    alpha, v = _as_tensor(alpha), _as_tensor(v)
    _check_pairs(alpha, plan, "pair_mix")
    _check_rows(v, plan, "pair_mix")
    return _result(
        plan.sums(alpha.data, v.data),
        [
            (alpha, lambda g: plan.dots(g, v.data)),
            (v, lambda g: plan.sums(alpha.data, g, transpose=True)),
        ],
    )


def pair_softmax(a, plan: PairPlan) -> Tensor:
    """Softmax of each column of a (pairs, heads) tensor over the pairs of
    each query row, shifted by the query's maximum for stability.

    The padded rows hold -inf (exp gives 0), so a query normalizes exactly
    like the matching row of a dense softmax.
    """
    a = _as_tensor(a)
    _check_pairs(a, plan, "pair_softmax")
    shape = (plan.heads, plan.n_queries, plan.run_width)
    rows = np.take(_with_sentinel(a.data.reshape(-1), -np.inf), plan.run_fill).reshape(shape)
    e = np.exp(rows - rows.max(axis=2, keepdims=True))
    y = np.take(e / e.sum(axis=2, keepdims=True), plan.run_cells)

    def back(g):
        gy = np.take(_with_sentinel((g * y).reshape(-1), 0.0), plan.run_fill).reshape(shape)
        return y * (g - np.take(gy.sum(axis=2).T, plan.run, axis=0))

    return _result(y, [(a, back)])


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
