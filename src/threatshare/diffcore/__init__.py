"""Dense float64 compute with reverse-mode gradients, Adam, and checkpoints."""

from threatshare.diffcore.tensor import (
    NumericError,
    ParamSet,
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    gather_rows,
    layer_norm,
    leaky_relu,
    linear,
    matmul,
    mse,
    mul,
    pair_dot,
    pair_mix,
    relu,
    reshape,
    segment_softmax,
    segment_sum,
)
from threatshare.diffcore.optim import (
    AdamState,
    adam_step,
    init_params,
    schedule_and_stop,
)
