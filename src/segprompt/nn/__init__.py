from segprompt.nn.tensor import (
    Tensor,
    as_tensor,
    attention,
    concat,
    cross_entropy,
    default_dtype,
    finite_diff_grad,
    gelu,
    grad_rel_error,
    layer_norm,
    linear,
    no_grad,
    precision,
    set_default_dtype,
    softmax,
)
from segprompt.nn.layers import (
    ACTIVATIONS,
    AttentionBlock,
    KvCache,
    LayerNorm,
    LinearLayer,
    MlpBlock,
    TransformerBlock,
    init_uniform,
)
from segprompt.nn.optim import AdamW, LrSchedule, OptimState, adamw_step, lr_at
from segprompt.nn.checkpoint import MAGIC, load_checkpoint, load_into, save_checkpoint

__all__ = [
    "ACTIVATIONS", "AdamW", "AttentionBlock", "KvCache", "LayerNorm",
    "LinearLayer", "LrSchedule", "MAGIC", "MlpBlock", "OptimState", "Tensor",
    "TransformerBlock", "adamw_step", "as_tensor", "attention", "concat", "cross_entropy",
    "default_dtype", "finite_diff_grad", "gelu", "grad_rel_error",
    "init_uniform", "layer_norm", "linear", "load_checkpoint", "load_into", "lr_at",
    "no_grad", "precision", "save_checkpoint", "set_default_dtype", "softmax",
]
