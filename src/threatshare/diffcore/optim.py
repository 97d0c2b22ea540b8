"""Parameters and their initialization, Adam with decoupled weight decay,
scheduling.

A ``ParamSet`` is made once, from a seed or from stored arrays, and keeps
every value in one flat float64 buffer that each tensor's ``data`` views:
Adam updates that buffer in place, and training keeps its best epoch as one
copy of it.

Init schemes:
    xavier  — uniform on ±sqrt(6/(fan_in+fan_out)); fully-connected layers
    kaiming — normal with std sqrt(2/fan_in); graph-conv/attention projections
    zeros   — biases
    ones    — layer-norm gains

Each tensor draws from its own RNG stream derived from (seed, name), so the
result does not depend on declaration order. A tensor holding several
attention heads side by side, head m in column block m, draws each block
from its own stream, ``<prefix>.H<m>.<leaf>`` for a tensor named
``<prefix>.<leaf>``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from threatshare.diffcore.tensor import ShapeError, Tensor


def _draw_block(seed: int, stream: str, shape, scheme: str) -> np.ndarray:
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


def _draw(seed: int, name: str, shape, scheme: str, heads: int = 1) -> np.ndarray:
    """``name``'s values of ``shape`` by ``scheme``; with ``heads`` > 1 its
    columns hold that many heads side by side."""
    # a head block draws as its head's own tensor did when each head was
    # stored apart (same stream, same shape, so same fans): the initial
    # values stay, and so do train logs and bench/run.py's VAL_MSE_REFERENCE
    prefix, _, leaf = name.rpartition(".")
    streams = [f"{prefix}.H{m}.{leaf}" for m in range(heads)] if heads > 1 else [name]
    block = (shape[0], shape[1] // heads)
    return np.concatenate([_draw_block(seed, s, block, scheme) for s in streams], axis=1)


class ParamSet:
    """Named trainable tensors over one flat float64 buffer, ``flat``.

    Built once from a name -> array mapping: every array is copied into
    ``flat``, in the mapping's order, and each tensor's ``data`` is a view
    into it. So ``adam_step`` updates every tensor in a few passes over one
    array, and ``flat.copy()`` is a snapshot of every value. Names and
    shapes are fixed; values change in place, never by rebinding ``data``.
    ``draw`` draws the arrays from a seed, ``from_state`` takes them from
    stored ones.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.flat = np.empty(sum(a.size for a in arrays.values()))
        self._params: dict[str, Tensor] = {}
        at = 0
        for name, arr in arrays.items():
            view = self.flat[at : at + arr.size].reshape(arr.shape)
            view[...] = arr
            self._params[name] = Tensor(view, requires_grad=True)
            at += view.size

    @classmethod
    def draw(cls, seed: int, specs) -> "ParamSet":
        """The tensors ``specs`` declares, in order, each as (name, shape,
        init scheme) or (name, shape, init scheme, heads), drawn from
        ``seed``."""
        arrays = {}
        for name, *spec in specs:
            if name in arrays:
                raise ValueError(f"duplicate parameter name: {name}")
            arrays[name] = _draw(seed, name, *spec)
        return cls(arrays)

    @classmethod
    def from_state(cls, shapes: dict, state: dict[str, np.ndarray]) -> "ParamSet":
        """The parameters ``shapes`` names (name -> shape), in its order, each
        value copied from ``state``, which must hold exactly these, each of
        its shape."""
        missing = shapes.keys() - state.keys()
        if missing:
            raise ValueError(f"state missing parameters: {sorted(missing)}")
        unknown = state.keys() - shapes.keys()
        if unknown:
            raise ValueError(f"state holds unknown parameters: {sorted(unknown)}")
        for name, shape in shapes.items():
            stored = state[name].shape
            if stored != tuple(shape):
                raise ShapeError(f"parameter {name}: stored {stored}, expected {tuple(shape)}")
        return cls({name: state[name] for name in shapes})

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state: the moment estimates, each one flat array in the
    order of the parameters' ``flat``, made at the first step."""

    lr: float = 1e-4
    weight_decay: float = 0.0
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: ParamSet) -> None:
    """One Adam update with bias correction, in place over ``params.flat``:
    one array of every gradient, then one pass of each kind over the whole
    buffer.

    Weight decay is decoupled: parameters shrink by lr*wd*param before the
    moment update, so decay never leaks into the moment estimates. Each
    element goes through the same operations, in the same order, as a
    per-tensor update, so it rounds the same way.
    """
    p = params.flat
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
