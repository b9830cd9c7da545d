from .engine import (
    Parameter,
    Tape,
    Tensor4,
    accumulate,
    op,
)
from .gradcheck import gradcheck
from .ops import (
    abs_val,
    add,
    box_sum3,
    concat_channels,
    conv3d,
    leaky_relu,
    max_pool2,
    mean_all,
    mul,
    replicate_pad,
    scale,
    slice_spatial,
    square,
    sub,
    sum_all,
    upsample_trilinear2,
)

__all__ = [
    "Parameter", "Tape", "Tensor4", "accumulate", "op",
    "gradcheck",
    "abs_val", "add", "box_sum3", "concat_channels", "conv3d", "leaky_relu",
    "max_pool2", "mean_all", "mul", "replicate_pad", "scale", "slice_spatial",
    "square", "sub", "sum_all", "upsample_trilinear2",
]
