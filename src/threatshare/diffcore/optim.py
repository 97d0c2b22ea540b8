"""Parameters and their initialization, Adam with decoupled weight decay,
scheduling.

Init schemes:
    xavier  — uniform on ±sqrt(6/(fan_in+fan_out)); fully-connected layers
    kaiming — normal with std sqrt(2/fan_in); graph-conv/attention projections
    zeros   — biases
    ones    — layer-norm gains

Each tensor draws from its own RNG stream derived from (seed, name), so the
result does not depend on parameter registration order. A tensor holding
several attention heads side by side, head m in column block m, draws each
block from its own stream, ``<prefix>.H<m>.<leaf>`` for a tensor named
``<prefix>.<leaf>``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from threatshare.diffcore.tensor import ShapeError, Tensor


def _draw(seed: int, stream: str, shape, scheme: str) -> np.ndarray:
    if scheme == "zeros":
        return np.zeros(shape)
    if scheme == "ones":
        return np.ones(shape)
    rng = np.random.default_rng([seed, zlib.crc32(stream.encode("utf-8"))])
    fan_in, fan_out = shape
    if scheme == "xavier":
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=shape)
    if scheme == "kaiming":
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    raise ValueError(f"unknown init scheme {scheme!r} for {stream}")


class ParamSet:
    """Named trainable tensors, each drawn from ``seed`` when it is added,
    or all taken from a stored state by ``from_state``.

    Every value lives in one flat float64 buffer, in the order the tensors
    were added, and each tensor's ``data`` is a view into it, so that
    ``adam_step`` updates all of them in a few passes over one array. The
    buffer is made at the first step, ``load_state`` or ``from_state``, and
    made again after an ``add``. Shapes are fixed once added; ``load_state``
    copies values into the views, and a tensor whose ``data`` was rebound
    gives its values back to the buffer there or at the next step.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._params: dict[str, Tensor] = {}
        self._views: list[np.ndarray] = []
        self._flat = np.empty(0)

    def add(self, name: str, shape, scheme: str, heads: int = 1) -> Tensor:
        """Add ``name`` of ``shape``, drawn by ``scheme``. With ``heads`` > 1
        its columns hold that many heads side by side."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        # a head block draws as its head's own tensor did when each head was
        # stored apart (same stream, same shape, so same fans): the initial
        # values stay, and so do train logs and bench/run.py's VAL_MSE_REFERENCE
        prefix, _, leaf = name.rpartition(".")
        streams = [f"{prefix}.H{m}.{leaf}" for m in range(heads)] if heads > 1 else [name]
        block = (shape[0], shape[1] // heads)
        data = np.concatenate([_draw(self._seed, s, block, scheme) for s in streams], axis=1)
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    @classmethod
    def from_state(cls, seed: int, shapes: dict, state: dict[str, np.ndarray]) -> "ParamSet":
        """The parameters ``shapes`` names (name -> shape), in its order, each
        value copied from ``state``, which must hold exactly these; nothing
        is drawn."""
        p = cls(seed)
        for name, arr in _checked_state(shapes, state).items():
            p._params[name] = Tensor(arr, requires_grad=True)
        p._buffer()
        return p

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Take every value from ``state``, which must hold exactly these
        parameters, each of its shape."""
        shapes = {name: t.data.shape for name, t in self._params.items()}
        arrays = _checked_state(shapes, state)
        self._buffer()
        for name, arr in arrays.items():
            self._params[name].data[...] = arr

    def _buffer(self) -> np.ndarray:
        """The flat buffer, with every tensor's ``data`` a view into it (made
        anew when a tensor was added since), after taking in the value of
        each tensor whose ``data`` is not its view."""
        tensors = self._params.values()
        if len(self._views) != len(tensors):
            self._flat = np.empty(sum(t.data.size for t in tensors))
            self._views, at = [], 0
            for t in tensors:
                self._views.append(self._flat[at : at + t.data.size].reshape(t.data.shape))
                at += t.data.size
        for view, t in zip(self._views, tensors):
            if t.data is not view:
                view[...] = t.data
                t.data = view
        return self._flat


def _checked_state(shapes: dict, state: dict) -> dict[str, np.ndarray]:
    """The arrays of ``state`` as float64, in the order of ``shapes``
    (name -> shape); ``state`` must name exactly those parameters, each of
    its shape."""
    missing = shapes.keys() - state.keys()
    if missing:
        raise ValueError(f"state missing parameters: {sorted(missing)}")
    unknown = state.keys() - shapes.keys()
    if unknown:
        raise ValueError(f"state holds unknown parameters: {sorted(unknown)}")
    arrays = {}
    for name, shape in shapes.items():
        arr = np.asarray(state[name], dtype=np.float64)
        if arr.shape != tuple(shape):
            raise ShapeError(f"parameter {name}: stored {arr.shape}, expected {tuple(shape)}")
        arrays[name] = arr
    return arrays


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state: the moment estimates, each one flat array in the
    order of the parameters' buffer, made at the first step."""

    lr: float = 1e-4
    weight_decay: float = 0.0
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: ParamSet) -> None:
    """One Adam update with bias correction, in place over the parameters'
    flat buffer: one array of every gradient, then one pass of each kind
    over the whole buffer.

    Weight decay is decoupled: parameters shrink by lr*wd*param before the
    moment update, so decay never leaks into the moment estimates. Each
    element goes through the same operations, in the same order, as a
    per-tensor update, so it rounds the same way.
    """
    p = params._buffer()
    g = np.concatenate(
        [np.zeros(t.data.size) if t.grad is None else t.grad for _, t in params.items()], axis=None
    )
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    m, v = state.m, state.v
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    if state.weight_decay:
        p *= 1.0 - state.lr * state.weight_decay
    m *= BETA1
    v *= BETA2
    # v += ((1 - BETA2) * g) * g, then m += (1 - BETA1) * g, g's buffer reused
    step = (1.0 - BETA2) * g
    step *= g
    v += step
    g *= 1.0 - BETA1
    m += g
    # p -= (lr * (m / bc1)) / (sqrt(v / bc2) + EPS)
    np.divide(m, bc1, out=g)
    g *= state.lr
    np.divide(v, bc2, out=step)
    np.sqrt(step, out=step)
    step += EPS
    g /= step
    p -= g


def schedule_and_stop(
    epoch: int,
    val_history,
    *,
    patience: int = 5,
    lr_step: int = 10,
    lr_gamma: float = 0.5,
) -> tuple[float, bool]:
    """Post-epoch decision: LR multiplier for the next epoch, and stop flag.

    ``epoch`` is 1-indexed and must equal ``len(val_history)``. The stop flag
    rises once the best validation loss has gone ``patience`` consecutive
    epochs without a strict improvement.
    """
    if epoch < 1 or epoch != len(val_history):
        raise ValueError(f"epoch {epoch} inconsistent with history length {len(val_history)}")
    multiplier = lr_gamma if epoch % lr_step == 0 else 1.0
    best = np.inf
    streak = 0
    for loss in val_history:
        if loss < best:
            best = loss
            streak = 0
        else:
            streak += 1
    return multiplier, streak >= patience
