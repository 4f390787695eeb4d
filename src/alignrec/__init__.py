"""Multimodal alignment recommender with a self-contained autodiff core."""

from .align import gaussian_kernel, infonce, mmd_squared
from .dream import DreamParams, dream_forward
from .model import (
    HyperParams,
    ModelParams,
    Recommender,
    TripletBatch,
    bpr_loss,
    target_dim,
)
from .tensor import Tape, Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "DreamParams", "HyperParams", "ModelParams", "Recommender", "Tape",
    "Tensor", "TripletBatch", "backward", "bpr_loss", "dream_forward",
    "gaussian_kernel", "infonce", "mmd_squared", "target_dim", "__version__",
]
