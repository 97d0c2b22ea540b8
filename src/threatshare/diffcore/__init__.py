"""Dense float64 compute with reverse-mode gradients, Adam, and checkpoints."""

from threatshare.diffcore.tensor import (
    Blocks,
    NumericError,
    PairPlan,
    ShapeError,
    Tensor,
    add,
    backward,
    block_mix,
    block_scores,
    block_softmax,
    concat,
    gather_rows,
    layer_norm,
    leaky_relu,
    linear,
    matmul,
    mse,
    mul,
    pair_softmax,
    relu,
    reshape,
    segment_sum,
)
from threatshare.diffcore.optim import AdamState, ParamSet, adam_step
