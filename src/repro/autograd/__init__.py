"""Reverse-mode autodiff engine (the PyTorch substitute for this repo)."""

from .batching import gather_at, gather_last, pad_stack
from .dtype import get_default_dtype, set_default_dtype
from .functional import (
    conv2d,
    cosine_similarity,
    cross_entropy,
    dropout,
    l2_normalize,
    log_softmax,
    masked_fill,
    segment_softmax,
    segment_sum,
    softmax,
)
from .gradcheck import gradcheck, numerical_gradient
from .plan import Plan, PlanError
from .trace import TraceError, TraceRecorder, active_tracer, trace
from .tensor import (
    Tensor,
    arange,
    concat,
    is_grad_enabled,
    maximum,
    no_grad,
    ones,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "Plan",
    "PlanError",
    "Tensor",
    "TraceError",
    "TraceRecorder",
    "active_tracer",
    "arange",
    "concat",
    "conv2d",
    "cosine_similarity",
    "cross_entropy",
    "dropout",
    "gather_at",
    "gather_last",
    "get_default_dtype",
    "gradcheck",
    "is_grad_enabled",
    "l2_normalize",
    "log_softmax",
    "masked_fill",
    "maximum",
    "no_grad",
    "numerical_gradient",
    "ones",
    "pad_stack",
    "segment_softmax",
    "segment_sum",
    "set_default_dtype",
    "softmax",
    "stack",
    "tensor",
    "trace",
    "where",
    "zeros",
]
