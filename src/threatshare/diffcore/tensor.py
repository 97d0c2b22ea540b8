"""Float64 tensors with taped reverse-mode differentiation.

Deliberately small: eager dense arrays, one closure tape per result. The
cost of an op is almost all interpreter overhead and data movement, not
arithmetic, so callers pack many small graphs into one set of matrices
and the index ops (``gather_rows``, ``segment_sum``) address rows by index
arrays instead of dense masks. Rows move by ``np.take``: a gather is
one take, and a scatter of distinct rows into zeros is a take from the
source with one sentinel row appended. The block ops (``block_scores``,
``block_softmax``, ``block_mix``) run on one (blocks, heads, w, w) stack per
pack: a ``Blocks`` layout pads every graph's rows to the largest graph's, w,
so their cost grows with the number of graphs, not the square of the pack.
Structure is a (blocks, w, w) mask of that layout (``Blocks.adjacency``);
``pair_softmax`` normalizes over the set cells of a mask, planned once as a
``PairPlan`` (gat's neighbours), and writes the weights into the stack.
``linear`` (``x @ W + b``) and ``layer_norm`` (of a sum and its residual)
are fused: one taped result where there were several, computed in place in
the few arrays the op allocates (layer norm: two forward, two backward).
``relu`` and ``leaky_relu`` are maxima, with no data-dependent select.

An op records its tape only if an input requires grad: a pass over constant
tensors builds none. The tape lists the op's parents, each with a closure
that keeps only the arrays it reads. Tensors are numbered as they are
created, so parents precede their results and ``backward`` needs no search:
it sweeps in decreasing number and frees each closure once it has run.
Closures may pass their gradient on unchanged (``add``), so the sweep adds
a tensor's second and later contributions into an array it allocated
itself, never into one a closure returned; the closures of one op's
parents share what they derive from the gradient alike (``block_mix`` pads
it once, ``block_scores`` scales it once). Every op checks its output for
NaN/Inf and raises NumericError rather than letting garbage propagate into
training.
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
    out = x.data @ w.data
    out += b.data
    return _result(
        out,
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

    def back(g):
        # a float mask, not a bool one numpy casts on every call, and the
        # product in place in it: no second array of the gradient's size
        mask = (a.data > 0).astype(np.float64)
        mask *= g
        return mask

    return _result(data, [(a, back)])


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
    n = x.shape[1]
    # one buffer becomes the centred sum, then xhat; another the squares,
    # then the output. A row mean is its add.reduce over n, as ``mean`` is.
    xhat = x.data + residual.data
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / n
    out = xhat * xhat
    inv = np.add.reduce(out, axis=-1, keepdims=True) / n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def back_sum(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in dxhat
        dxhat = g * gain.data
        both = dxhat * xhat
        mean_both = np.add.reduce(both, axis=-1, keepdims=True) / n
        dxhat -= np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        np.multiply(xhat, mean_both, out=both)
        dxhat -= both
        dxhat *= inv
        return dxhat

    return _result(
        out,
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


def _runs(seg: np.ndarray, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Start of each run of equal ids in ``seg`` and each entry's run number."""
    step = np.diff(seg)
    if np.any(step < 0):
        raise ShapeError(f"{op}: segment ids must be sorted")
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


def _row_max(x: np.ndarray) -> np.ndarray:
    """The maximum of each row along the last axis (keepdims; -inf for an
    empty row). numpy reduces many short rows one by one, several times
    slower than one reduction over a copy with the last axis first; the two
    can differ only in the sign of a zero maximum, which no shift by it sees.
    """
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0, initial=-np.inf)[..., None]


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


# ── block ops ─────────────────────────────────────────────────────────────
#
# The rows of a pack fall in blocks, one per graph: block b is ``sizes[b]``
# contiguous rows, and no op mixes rows of two blocks. ``Blocks`` pads every
# block with zero rows to the largest, w, so that the mixing layers run once
# over a (blocks, heads, w, w) stack, one cell (i, j) per row pair of a
# block. Their cost grows with the number of blocks, not with the square of
# the rows. Which row pairs a graph joins is a (blocks, w, w) bool mask of
# the same cells, ``Blocks.adjacency``. ``block_mix`` is the one ``alpha @ v``
# of every variant; the transformer fills alpha with ``block_scores`` and
# ``block_softmax``, gat with ``pair_softmax`` over a ``PairPlan`` of the
# mask, and gcn passes the mask divided by its row counts.


class Blocks:
    """The row layout of a pack: block b is ``sizes[b]`` contiguous rows,
    padded with zero rows to the largest block, w, and the columns of a row
    split into ``heads`` equal blocks."""

    __slots__ = ("sizes", "heads", "n_rows", "n_blocks", "width", "slot", "pad_fill", "_every", "_key_mask")

    def __init__(self, sizes, heads: int):
        op = "blocks"
        sizes = np.asarray(sizes, dtype=np.intp)
        if sizes.ndim != 1 or np.any(sizes < 0):
            raise ShapeError(f"{op}: block sizes must be 1-D and non-negative")
        if heads < 1:
            raise ShapeError(f"{op}: heads must be >= 1, got {heads}")
        self.sizes, self.heads, self.n_rows = sizes, heads, int(sizes.sum())
        self.n_blocks, self.width = sizes.size, int(sizes.max(initial=0))
        # row r of the pack is row ``slot[r]`` of the padded stack
        offsets = np.cumsum(sizes) - sizes
        self.slot = np.arange(self.n_rows) + np.repeat(np.arange(sizes.size) * self.width - offsets, sizes)
        self.pad_fill = _fill_map(self.n_blocks * self.width, self.slot)
        self._every = self._key_mask = None

    def pad(self, x: np.ndarray) -> np.ndarray:
        """(rows, heads * dh) -> (blocks, heads, w, dh), zero rows appended."""
        out = np.take(_with_sentinel(x, 0.0), self.pad_fill, axis=0)
        out = out.reshape(self.n_blocks, self.width, self.heads, x.shape[1] // self.heads)
        return out.transpose(0, 2, 1, 3)

    def unpad(self, y: np.ndarray) -> np.ndarray:
        """(blocks, heads, w, dh) -> (rows, heads * dh)."""
        rows = y.transpose(0, 2, 1, 3).reshape(self.n_blocks * self.width, -1)
        return np.take(rows, self.slot, axis=0)

    def adjacency(self, src, dst) -> np.ndarray:
        """Each block's adjacency as a (blocks, w, w) bool mask, the
        destination the row: cell (i, j) is set where an edge src -> dst (in
        pack rows) runs from the block's row j to its row i, and at (i, i)
        for every real row i."""
        w = max(self.width, 1)
        mask = np.zeros(self.n_blocks * self.width**2, dtype=bool)
        mask[np.take(self.slot, dst) * w + np.take(self.slot, src) % w] = True
        mask[self.slot * w + self.slot % w] = True
        return mask.reshape(self.n_blocks, self.width, self.width)

    def every_cell(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell of every row pair of each block, block after block and
        row-major, and for each cell of the stack its pair or the sentinel
        (the pair count); built once."""
        if self._every is None:
            inside = np.arange(self.width) < self.sizes[:, None]
            cells = np.flatnonzero(inside[:, :, None] & inside[:, None, :])
            self._every = cells, _fill_map(self.n_blocks * self.width**2, cells)
        return self._every

    def key_mask(self) -> np.ndarray:
        """(blocks, 1, 1, w): -inf on the padded keys of each block, 0 on the
        rest; an empty block keeps key 0, so that no row is all -inf."""
        if self._key_mask is None:
            keys = np.arange(self.width) < np.maximum(self.sizes, 1)[:, None]
            self._key_mask = np.where(keys, 0.0, -np.inf).reshape(self.n_blocks, 1, 1, self.width)
        return self._key_mask


def _once(fn):
    """``fn``, computed once for calls in a row with the same argument: the
    closures of one op's parents are called one after the other with the
    same gradient, and so share what each would derive from it alike."""
    last = [None, None]

    def call(g):
        if last[0] is not g:
            last[:] = g, fn(g)
        return last[1]

    return call


def _check_rows(t: Tensor, blocks: Blocks, op: str) -> None:
    if t.data.ndim != 2 or t.shape[0] != blocks.n_rows:
        raise ShapeError(f"{op}: shape {t.shape} for blocks of {blocks.n_rows} rows")
    if t.shape[1] % blocks.heads:
        raise ShapeError(f"{op}: {t.shape[1]} columns do not split into {blocks.heads} heads")


def _check_stack(t: Tensor, blocks: Blocks, op: str) -> None:
    shape = (blocks.n_blocks, blocks.heads, blocks.width, blocks.width)
    if t.shape != shape:
        raise ShapeError(f"{op}: shape {t.shape} for a block stack of {shape}")


def block_scores(q, k, bias, blocks: Blocks, scale: float) -> Tensor:
    """Per head, ``(q[i] . k[j] + bias[c]) * scale`` for every row pair
    c = (i, j) of each block, as a (blocks, heads, w, w) stack; the columns of
    ``q`` and ``k`` split into one block per head. ``bias`` is (pairs, heads),
    its pairs those of ``Blocks.every_cell``. A cell of a padded row scores 0.
    """
    q, k, bias = _as_tensor(q), _as_tensor(k), _as_tensor(bias)
    _check_rows(q, blocks, "block_scores")
    if k.shape != q.shape:
        raise ShapeError(f"block_scores: shapes {q.shape} and {k.shape}")
    cells, fill = blocks.every_cell()
    heads, w = blocks.heads, blocks.width
    if bias.shape != (cells.size, heads):
        raise ShapeError(f"block_scores: bias {bias.shape} for {cells.size} pairs of {heads} heads")
    qp, kp = blocks.pad(q.data), blocks.pad(k.data)
    data = qp @ kp.swapaxes(2, 3)
    spread = np.take(_with_sentinel(bias.data, 0.0), fill, axis=0)
    data += spread.reshape(blocks.n_blocks, w, w, heads).transpose(0, 3, 1, 2)
    data *= scale
    scaled = _once(lambda g: g * scale)
    return _result(
        data,
        [
            (q, lambda g: blocks.unpad(scaled(g) @ kp)),
            (k, lambda g: blocks.unpad(scaled(g).swapaxes(2, 3) @ qp)),
            (bias, lambda g: np.take(scaled(g).transpose(0, 2, 3, 1).reshape(-1, heads), cells, axis=0)),
        ],
    )


def block_softmax(a, blocks: Blocks) -> Tensor:
    """Softmax along each row of a (blocks, heads, w, w) stack, shifted by
    the row's maximum for stability, over the block's keys only: the padded
    keys get 0. The rows of padded queries stay finite; no caller reads them.
    """
    a = _as_tensor(a)
    _check_stack(a, blocks, "block_softmax")
    y = a.data + blocks.key_mask()
    y -= _row_max(y)
    np.exp(y, out=y)
    y /= y.sum(axis=3, keepdims=True)

    def back(g):
        d = g - (g * y).sum(axis=3, keepdims=True)
        d *= y
        return d

    return _result(y, [(a, back)])


def block_mix(alpha, v, blocks: Blocks) -> Tensor:
    """Per head and block, ``alpha @ v``: row i of the output sums
    ``alpha[b, h, i, j] * v[j, block h]`` over the rows j of its block. The
    columns of ``v`` split into one block per head, and ``alpha`` is a
    (blocks, heads, w, w) stack."""
    alpha, v = _as_tensor(alpha), _as_tensor(v)
    _check_rows(v, blocks, "block_mix")
    _check_stack(alpha, blocks, "block_mix")
    vp = blocks.pad(v.data)
    padded = _once(blocks.pad)
    return _result(
        blocks.unpad(alpha.data @ vp),
        [
            (alpha, lambda g: padded(g) @ vp.swapaxes(2, 3)),
            (v, lambda g: blocks.unpad(alpha.data.swapaxes(2, 3) @ padded(g))),
        ],
    )


class PairPlan:
    """The set cells of a (blocks, w, w) mask, in row-major order, for a
    softmax over each query row's cells: each pair's cell in the block
    stack, its query and key as pack rows (``query_row``, ``key_row``), and
    where it sits in the run layout (one row per head and query, as wide as
    the query with the most pairs).

    Raises ShapeError unless the mask is of the layout's (blocks, w, w).
    """

    __slots__ = ("blocks", "cell", "cell_fill", "query_row", "key_row", "run", "at", "run_fill",
                 "n_queries", "run_width")

    def __init__(self, blocks: Blocks, mask: np.ndarray):
        w = blocks.width
        if mask.shape != (blocks.n_blocks, w, w):
            raise ShapeError(f"pair plan: mask {mask.shape} for blocks of {(blocks.n_blocks, w, w)}")
        self.blocks = blocks
        cell = np.flatnonzero(mask)
        starts, run = _runs(cell // max(w, 1), "pair plan")
        n_pairs = cell.size
        # head 0's entry of each pair in the (blocks, heads, w, w) stack
        self.cell = cell + cell // max(w * w, 1) * (blocks.heads - 1) * w * w
        self.cell_fill = _fill_map(blocks.n_blocks * w * w, cell)
        self.query_row = np.take(blocks.pad_fill, cell // max(w, 1))
        self.key_row = np.take(blocks.pad_fill, cell // max(w * w, 1) * w + cell % max(w, 1))
        self.n_queries, self.run = starts.size, run
        self.run_width = int(np.diff(np.append(starts, n_pairs)).max(initial=0))
        self.at = run * self.run_width + np.arange(n_pairs) - np.take(starts, run)
        self.run_fill = _fill_map(self.n_queries * self.run_width, self.at)


def _by_head(x: np.ndarray, value: float) -> np.ndarray:
    """(pairs, heads) -> (heads, pairs + 1): one row per head, with one more
    entry of ``value``, so that a take along the pairs reads contiguous rows."""
    out = np.empty((x.shape[1], x.shape[0] + 1))
    out[:, :-1] = x.T
    out[:, -1] = value
    return out


def pair_softmax(a, plan: PairPlan) -> Tensor:
    """Softmax of each column of a (pairs, heads) tensor over the pairs of
    each query row, shifted by the query's maximum for stability, written
    into a (blocks, heads, w, w) stack: each pair at its cell, 0 elsewhere.

    The softmax runs in the run layout, whose padding holds -inf (exp gives
    0), so a query normalizes exactly like the matching row of a dense
    softmax; its sums run over the query's pairs alone. In the stack's rows,
    0s would sit between a query's keys and change the order in which numpy
    sums a row of 8 or more.
    """
    a = _as_tensor(a)
    blocks = plan.blocks
    heads, w, n_pairs = blocks.heads, blocks.width, plan.at.size
    if a.shape != (n_pairs, heads):
        raise ShapeError(f"pair_softmax: shape {a.shape} for {n_pairs} pairs of {heads} heads")
    shape = (heads, plan.n_queries, plan.run_width)
    e = np.take(_by_head(a.data, -np.inf), plan.run_fill, axis=1).reshape(shape)
    e -= _row_max(e)
    np.exp(e, out=e)
    e /= e.sum(axis=2, keepdims=True)
    y = np.take(e.reshape(heads, -1), plan.at, axis=1)  # (heads, pairs)
    stack = np.take(_by_head(y.T, 0.0), plan.cell_fill, axis=1)
    stack = stack.reshape(heads, blocks.n_blocks, w, w).transpose(1, 0, 2, 3)

    def back(g):
        gp = np.take(g, plan.cell + np.arange(heads)[:, None] * w * w)
        gy = np.take(_by_head((gp * y).T, 0.0), plan.run_fill, axis=1).reshape(shape)
        return (y * (gp - np.take(gy.sum(axis=2), plan.run, axis=1))).T

    return _result(stack, [(a, back)])


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

    # a tensor's readers were all created after it, so they pass first. A
    # contribution may be another tensor's gradient passed through (``add``),
    # so a second one is added into a new array, which later ones then join
    flowing: dict[int, np.ndarray] = {loss._seq: np.ones_like(loss.data)}
    owned: set[int] = set()
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
            at = parent._seq
            acc = flowing.get(at)
            if acc is None:
                flowing[at] = contrib
            elif at in owned:
                acc += contrib
            else:
                flowing[at] = acc + contrib
                owned.add(at)
