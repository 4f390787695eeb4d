"""Dilated refinement attention over per-item modality vectors.

Each d-dimensional item vector is treated as a single-channel map of length d.
Five parallel branches (pointwise conv, three dilated convs, pooled global
context) are concatenated, recalibrated by channel and spatial attention,
fused by elementwise max, and projected back to a d-vector that is added to
the input as a residual refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    DimensionError,
    ParameterError,
    Tensor,
    add,
    broadcast_len,
    channel_mean,
    concat_channels,
    conv1d_dilated,
    conv1x1,
    global_avg_pool,
    linear,
    maximum,
    mul,
    relu,
    reshape,
    sigmoid,
)

BRANCHES = 5


@dataclass(frozen=True)
class DreamConfig:
    branch_channels: int
    attention_reduction: int
    dilations: tuple[int, ...]

    def __post_init__(self):
        if self.branch_channels < 1:
            raise ParameterError(
                f"branch_channels must be >= 1, got {self.branch_channels}")
        if self.attention_reduction < 1:
            raise ParameterError(
                f"attention_reduction must be >= 1, got {self.attention_reduction}")
        if self.fused_channels % self.attention_reduction != 0:
            raise ParameterError(
                f"fused channel count {self.fused_channels} is not divisible by "
                f"attention_reduction {self.attention_reduction}")
        if len(self.dilations) != BRANCHES - 2 or any(d < 1 for d in self.dilations) \
                or list(self.dilations) != sorted(set(self.dilations)):
            raise ParameterError(
                f"dilations must be {BRANCHES - 2} strictly increasing positive ints, "
                f"got {self.dilations}")

    @property
    def fused_channels(self) -> int:
        return BRANCHES * self.branch_channels


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class DreamParams:
    """Learnable weights of one refinement instance; shapes fixed by config."""

    point_kernel: Tensor        # (C_b, 1) branch-1 pointwise conv
    dilated_kernels: list[Tensor] = field(default_factory=list)  # each (C_b, 1, 3)
    pool_kernel: Tensor = None  # (C_b, 1) conv after global pooling
    squeeze_weight: Tensor = None   # (5C_b, 5C_b/rho)
    restore_weight: Tensor = None   # (5C_b/rho, 5C_b)
    spatial_kernel: Tensor = None   # (1, 1)
    spatial_bias: Tensor = None     # (1, 1)
    out_kernel: Tensor = None       # (1, 5C_b) residual projection

    @classmethod
    def create(cls, cfg: DreamConfig, rng: np.random.Generator) -> "DreamParams":
        cb = cfg.branch_channels
        fused = cfg.fused_channels
        hidden = fused // cfg.attention_reduction

        def t(arr):
            return Tensor(arr, requires_grad=True)

        return cls(
            point_kernel=t(xavier_uniform(rng, (cb, 1), 1, cb)),
            dilated_kernels=[t(xavier_uniform(rng, (cb, 1, 3), 3, 3 * cb))
                             for _ in cfg.dilations],
            pool_kernel=t(xavier_uniform(rng, (cb, 1), 1, cb)),
            squeeze_weight=t(xavier_uniform(rng, (fused, hidden), fused, hidden)),
            restore_weight=t(xavier_uniform(rng, (hidden, fused), hidden, fused)),
            spatial_kernel=t(xavier_uniform(rng, (1, 1), 1, 1)),
            spatial_bias=t(np.zeros((1, 1))),
            out_kernel=t(xavier_uniform(rng, (1, fused), fused, 1)),
        )

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {
            f"{prefix}.point_kernel": self.point_kernel,
            f"{prefix}.pool_kernel": self.pool_kernel,
            f"{prefix}.squeeze_weight": self.squeeze_weight,
            f"{prefix}.restore_weight": self.restore_weight,
            f"{prefix}.spatial_kernel": self.spatial_kernel,
            f"{prefix}.spatial_bias": self.spatial_bias,
            f"{prefix}.out_kernel": self.out_kernel,
        }
        for i, k in enumerate(self.dilated_kernels):
            out[f"{prefix}.dilated_kernel_{i}"] = k
        return out

    def regularized(self) -> list[Tensor]:
        """Weights that enter the l2 penalty; the spatial bias is excluded."""
        return [self.point_kernel, *self.dilated_kernels, self.pool_kernel,
                self.squeeze_weight, self.restore_weight, self.spatial_kernel,
                self.out_kernel]


def multi_scale(x: Tensor, params: DreamParams, cfg: DreamConfig) -> Tensor:
    """Concatenate the five branch outputs, each ReLU-activated.

    `x` is a single-channel map (1, d), or (N, 1, d) for a batch of rows.
    """
    length = x.shape[-1]
    branches = [relu(conv1x1(x, params.point_kernel))]
    for kernel, dilation in zip(params.dilated_kernels, cfg.dilations):
        branches.append(relu(conv1d_dilated(x, kernel, dilation)))
    pooled = conv1x1(global_avg_pool(x), params.pool_kernel)
    branches.append(relu(broadcast_len(pooled, length)))
    return concat_channels(branches)


def channel_attention(fused: Tensor, params: DreamParams) -> tuple[Tensor, Tensor]:
    """Gate channels by a squeeze-and-restore MLP on the pooled channel vector."""
    z = global_avg_pool(fused)                       # (..., C', 1)
    vec = reshape(z, z.shape[:-1])                   # (..., C')
    hidden = relu(linear(vec, params.squeeze_weight))
    gate = sigmoid(linear(hidden, params.restore_weight))
    gate_map = reshape(gate, gate.shape + (1,))      # (..., C', 1)
    return gate_map, mul(fused, gate_map)


def spatial_attention(fused: Tensor, params: DreamParams) -> tuple[Tensor, Tensor]:
    """Gate positions by a 1x1 conv over the channel-averaged response."""
    pooled = channel_mean(fused)                     # (..., 1, d)
    raw = add(conv1x1(pooled, params.spatial_kernel), params.spatial_bias)
    gate = sigmoid(raw)                              # (..., 1, d)
    return gate, mul(fused, gate)


def attention_fuse(channel_out: Tensor, spatial_out: Tensor) -> Tensor:
    """Keep the stronger of the two attention responses at every entry."""
    if channel_out.shape != spatial_out.shape:
        raise DimensionError(
            f"attention_fuse: shapes {channel_out.shape} and {spatial_out.shape} differ")
    return maximum(channel_out, spatial_out)


def dream_forward(rows: Tensor, params: DreamParams, cfg: DreamConfig) -> Tensor:
    """Refine (N, d) rows in place of their maps; output is input + projection."""
    n, d = rows.shape
    x = reshape(rows, (n, 1, d))
    fused = multi_scale(x, params, cfg)
    _, channel_out = channel_attention(fused, params)
    _, spatial_out = spatial_attention(fused, params)
    refined = attention_fuse(channel_out, spatial_out)
    projected = reshape(conv1x1(refined, params.out_kernel), (n, d))
    return add(rows, projected)
