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
from dataclasses import dataclass, field

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
    """Named trainable tensors, each drawn from ``seed`` when it is added.

    Shapes are fixed at construction; ``load_state`` copies values in place
    so optimizer moment buffers stay aligned.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._params: dict[str, Tensor] = {}

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

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Take every value from ``state``, which must hold exactly these
        parameters, each of its shape."""
        missing = self._params.keys() - state.keys()
        if missing:
            raise ValueError(f"state missing parameters: {sorted(missing)}")
        unknown = state.keys() - self._params.keys()
        if unknown:
            raise ValueError(f"state holds unknown parameters: {sorted(unknown)}")
        for name, t in self._params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ShapeError(
                    f"parameter {name}: stored {arr.shape}, expected {t.data.shape}"
                )
            t.data = arr.copy()


@dataclass
class AdamState:
    """Optimizer state; moment buffers are keyed by parameter name."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def scalars(self) -> dict:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self.step_count,
        }


def adam_step(state: AdamState, params: ParamSet) -> None:
    """One Adam update with bias correction.

    Weight decay is decoupled: parameters shrink by lr*wd*param before the
    moment update, so decay never leaks into the moment estimates.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if state.weight_decay:
            p.data = p.data * (1.0 - state.lr * state.weight_decay)
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        p.data = p.data - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
