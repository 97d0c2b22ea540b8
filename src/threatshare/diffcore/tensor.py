"""Float64 tensors with taped reverse-mode differentiation.

Deliberately small: eager dense arrays, one closure tape per result, no
fusion, no views. Everything here operates on event-graph-sized matrices
(at most 22 nodes), so clarity wins over throughput. Every op checks its
output for NaN/Inf and raises NumericError rather than letting garbage
propagate into training.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operands cannot be combined under the op's shape rules."""


class NumericError(ArithmeticError):
    """A non-finite value appeared, or an op was used out of contract."""


class Tensor:
    """A float64 array plus an optional gradient buffer and backward tape.

    ``grad`` stays ``None`` until :func:`backward` deposits into it;
    repeated backward passes accumulate until ``grad`` is reset.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad=False, _tape=()):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds NaN/Inf")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p, _ in _tape
        )
        self._tape = tuple(_tape) if self.requires_grad else ()

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

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

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


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape}") from None
    return _result(
        data,
        [
            (a, lambda g: _unbroadcast(g, a.data.shape)),
            (b, lambda g: _unbroadcast(-g, b.data.shape)),
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


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D, got {a.shape}")
    return _result(a.data.T, [(a, lambda g: g.T)])


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
    keep = a.data > 0
    return _result(np.where(keep, a.data, 0.0), [(a, lambda g: g * keep)])


def leaky_relu(a, slope=0.2) -> Tensor:
    a = _as_tensor(a)
    keep = a.data > 0
    data = np.where(keep, a.data, slope * a.data)
    return _result(data, [(a, lambda g: g * np.where(keep, 1.0, slope))])


def softmax(a, axis=-1, mask=None) -> Tensor:
    """Row softmax; ``mask`` (bool, True = participate) zeroes excluded slots.

    Every row must keep at least one unmasked entry.
    """
    a = _as_tensor(a)
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeError(f"softmax mask: {mask.shape} for data {x.shape}")
        if np.any(mask.sum(axis=axis) == 0):
            raise NumericError("softmax: a row is fully masked")
        x = np.where(mask, x, -np.inf)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g, y=y, axis=axis):
        return y * (g - (g * y).sum(axis=axis, keepdims=True))

    return _result(y, [(a, back)])


def layer_norm(a, gain, bias, eps=1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    try:
        data = xhat * gain.data + bias.data
    except ValueError:
        raise ShapeError(
            f"layer_norm: data {a.shape}, gain {gain.shape}, bias {bias.shape}"
        ) from None

    d = x.shape[-1]

    def back_x(g):
        dxhat = g * gain.data
        return inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )

    return _result(
        data,
        [
            (a, back_x),
            (gain, lambda g: _unbroadcast(g * xhat, gain.data.shape)),
            (bias, lambda g: _unbroadcast(g, bias.data.shape)),
        ],
    )


# ── reductions / metrics ──────────────────────────────────────────────────


def mean_rows(a) -> Tensor:
    """Mean over axis 0, keeping a leading singleton axis."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows: expected 2-D, got {a.shape}")
    n = a.data.shape[0]
    data = a.data.mean(axis=0, keepdims=True)
    return _result(data, [(a, lambda g: np.repeat(g / n, n, axis=0))])


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
    """Accumulate d(loss)/d(leaf) into every trainable leaf's ``grad``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got {loss.shape}")
    if loss.is_leaf:
        raise NumericError("backward: loss has no recorded operations")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._tape:
            if id(parent) not in seen:
                stack.append((parent, False))

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        if node.is_leaf:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, fn in node._tape:
            contrib = fn(g)
            acc = flowing.get(id(parent))
            flowing[id(parent)] = contrib if acc is None else acc + contrib


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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

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
