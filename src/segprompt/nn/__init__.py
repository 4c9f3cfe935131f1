from segprompt.nn.tensor import (
    Tensor,
    as_tensor,
    attention,
    concat,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    no_grad,
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
from segprompt.nn.optim import AdamW, LrSchedule, lr_at
from segprompt.nn.checkpoint import MAGIC, load_checkpoint, load_into, save_checkpoint

__all__ = [
    "ACTIVATIONS", "AdamW", "AttentionBlock", "KvCache", "LayerNorm",
    "LinearLayer", "LrSchedule", "MAGIC", "MlpBlock", "Tensor",
    "TransformerBlock", "as_tensor", "attention", "concat", "cross_entropy",
    "gelu", "init_uniform", "layer_norm", "linear", "load_checkpoint",
    "load_into", "lr_at", "no_grad", "save_checkpoint",
]
