"""Dilated refinement attention over per-item modality vectors.

Each d-dimensional item vector is treated as a single-channel map of length d.
Five parallel branches (pointwise conv, three dilated convs, pooled global
context) are concatenated, recalibrated by channel and spatial attention,
fused by elementwise max, and projected back to a d-vector that is added to
the input as a residual refinement.

The stages below are plain numpy on maps of shape (..., channels, length).
`dream_forward` chains them and records the whole block as one tape node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tensor, _make_out, stable_sigmoid

if TYPE_CHECKING:
    from .model import HyperParams

BRANCHES = 5


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class DreamParams:
    """Learnable weights of one refinement instance, whose shapes fix every
    width of the block, and the dilation of each dilated branch."""

    point_kernel: Tensor            # (C_b, 1) branch-1 pointwise conv
    dilated_kernels: list[Tensor]   # each (C_b, 1, 3)
    pool_kernel: Tensor             # (C_b, 1) conv after global pooling
    squeeze_weight: Tensor          # (5C_b, 5C_b/rho)
    restore_weight: Tensor          # (5C_b/rho, 5C_b)
    spatial_kernel: Tensor          # (1, 1)
    spatial_bias: Tensor            # (1, 1)
    out_kernel: Tensor              # (1, 5C_b) residual projection
    dilations: tuple[int, ...]

    @classmethod
    def create(cls, hp: HyperParams, rng: np.random.Generator) -> "DreamParams":
        """Draw the weights for the branch channels, attention reduction and
        dilations of `hp`, which checked them when it was built."""
        cb = hp.branch_channels
        fused = BRANCHES * cb
        hidden = fused // hp.attention_reduction

        def t(arr):
            return Tensor(arr, requires_grad=True)

        return cls(
            point_kernel=t(xavier_uniform(rng, (cb, 1), 1, cb)),
            dilated_kernels=[t(xavier_uniform(rng, (cb, 1, 3), 3, 3 * cb))
                             for _ in hp.dilations],
            pool_kernel=t(xavier_uniform(rng, (cb, 1), 1, cb)),
            squeeze_weight=t(xavier_uniform(rng, (fused, hidden), fused, hidden)),
            restore_weight=t(xavier_uniform(rng, (hidden, fused), hidden, fused)),
            spatial_kernel=t(xavier_uniform(rng, (1, 1), 1, 1)),
            spatial_bias=t(np.zeros((1, 1))),
            out_kernel=t(xavier_uniform(rng, (1, fused), fused, 1)),
            dilations=hp.dilations,
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


def pointwise_conv(kernel: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """Channel mixing: out[..., o, l] = sum_c kernel[o, c] * x[..., c, l]."""
    return np.einsum("oc,...cl->...ol", kernel, x, out=out)


def _pointwise_grads(kernel, x, g):
    """(input, kernel) gradients of `pointwise_conv` on (N, C, L) maps."""
    return np.einsum("oc,...ol->...cl", kernel, g), np.einsum("nol,ncl->oc", g, x)


def _live_taps(dilation: int, length: int) -> slice:
    """The taps that can read the input: at a dilation >= the length, both
    outer taps read only zero padding and just the centre tap is live."""
    return slice(1, 2) if dilation >= length else slice(0, 3)


def dilated_conv(kernel: np.ndarray, x: np.ndarray, dilation: int,
                 out=None) -> tuple[np.ndarray, np.ndarray]:
    """Length-3 dilated convolution with symmetric zero padding of `dilation`.

    Output length equals input length: out[..., o, l] =
    sum_{c,k in 0..2} kernel[o, c, k] * xpad[..., c, l + k*dilation].
    Also returns the taps (..., C, 3, L) that the kernel gradient reads.
    Taps that read only padding are left out of the sum: for a finite kernel
    they add only zeros.
    """
    length = x.shape[-1]
    taps = np.zeros(x.shape[:-1] + (3, length))
    taps[..., 1, :] = x
    if dilation < length:
        taps[..., 0, dilation:] = x[..., :length - dilation]
        taps[..., 2, :length - dilation] = x[..., dilation:]
    live = _live_taps(dilation, length)
    return np.einsum("ock,...ckl->...ol", kernel[..., live], taps[..., live, :],
                     out=out), taps


def _dilated_grads(kernel, taps, g, dilation):
    """(input, kernel) gradients of `dilated_conv` on (N, C, L) maps.

    A dead tap's kernel gradient is a sum of products with zero padding,
    +0.0 for a finite `g`, and its input gradient lands in the padding.
    """
    length = g.shape[-1]
    live = _live_taps(dilation, length)
    spread = np.einsum("ock,...ol->...ckl", kernel[..., live], g)
    g_kernel = np.zeros_like(kernel)
    g_kernel[..., live] = np.einsum("nol,nckl->ock", g, taps[..., live, :])
    if dilation >= length:  # einsum sums from +0.0, as the padded sum did
        return spread[..., 0, :], g_kernel
    padded = np.zeros(spread.shape[:-2] + (length + 2 * dilation,))
    for k in range(3):
        padded[..., k * dilation:k * dilation + length] += spread[..., k, :]
    return padded[..., dilation:dilation + length], g_kernel


def _relu(a: np.ndarray) -> np.ndarray:
    """max(a, 0) in place, bit for bit `np.where(a > 0, a, 0.0)`: `fmax`
    drops NaN, and adding +0.0 turns the -0.0 it may keep into +0.0."""
    np.fmax(a, 0.0, out=a)
    a += 0.0
    return a


def _channel_sum(*maps: np.ndarray) -> np.ndarray:
    """Sum over the channel axis of the maps' product, (..., C, L) ->
    (..., L), without building the product map.

    Bit for bit `(a * b).sum(axis=-2)`: over the strided channel axis,
    einsum adds the channels in order from +0.0, as numpy's reduce does. At
    length 1 the channel axis is contiguous and the two sum it in different
    orders, so such maps take numpy's reduce."""
    if maps[0].shape[-1] == 1:
        return reduce(np.multiply, maps).sum(axis=-2)
    return np.einsum(",".join(["...cl"] * len(maps)) + "->...l", *maps)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting. An axis
    already of length 1 is never summed: numpy's sum starts from +0.0, so
    at d = 1 a lone -0.0 would come out +0.0 and change the bits."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def multi_scale(x: np.ndarray, params: DreamParams):
    """Concatenate the five branch outputs, each ReLU-activated.

    `x` is a single-channel map (1, d), or (N, 1, d) for a batch of rows.
    Returns the (..., 5C_b, d) map, then the taps of each dilated branch and
    the pooled input, which the backward pass reads.
    """
    cb = params.point_kernel.shape[0]
    fused = np.empty(x.shape[:-2] + (BRANCHES * cb, x.shape[-1]))
    branch = [fused[..., i * cb:(i + 1) * cb, :] for i in range(BRANCHES)]
    pointwise_conv(params.point_kernel.data, x, out=branch[0])
    taps = []
    for j, (kernel, dilation) in enumerate(zip(params.dilated_kernels, params.dilations)):
        taps.append(dilated_conv(kernel.data, x, dilation, out=branch[1 + j])[1])
    pooled = x.mean(axis=-1, keepdims=True)
    branch[-1][...] = pointwise_conv(params.pool_kernel.data, pooled)
    # Every branch is an einsum, whose sums start from +0.0, so the map holds
    # no -0.0 and `fmax` alone is the ReLU (see `_relu`).
    return np.fmax(fused, 0.0, out=fused), taps, pooled


def channel_attention(fused: np.ndarray, params: DreamParams):
    """Gate channels by a squeeze-and-restore MLP on the pooled channel vector.

    Returns the gate (..., C', 1) and the gated map, then the pooled vector
    and the hidden layer, which the backward pass reads.
    """
    pooled = fused.mean(axis=-1)
    hidden = _relu(pooled @ params.squeeze_weight.data)
    gate = stable_sigmoid(hidden @ params.restore_weight.data)[..., None]
    return gate, fused * gate, pooled, hidden


def spatial_attention(fused: np.ndarray, params: DreamParams):
    """Gate positions by a 1x1 conv over the channel-averaged response.

    Returns the gate (..., 1, d) and the gated map, then the channel mean,
    which the backward pass reads.
    """
    pooled = (_channel_sum(fused) / fused.shape[-2])[..., None, :]
    gate = stable_sigmoid(pointwise_conv(params.spatial_kernel.data, pooled)
                          + params.spatial_bias.data)
    return gate, fused * gate, pooled


def attention_fuse(channel_out: np.ndarray, spatial_out: np.ndarray, out=None):
    """Keep the stronger of the two attention responses at every entry.

    Ties go to the channel response. Also returns where the channel response
    was kept, which routes the gradient. `out` may be `channel_out`.

    Both responses are one ReLU map times a gate >= 0, so neither holds a
    -0.0 and `np.maximum` keeps what `np.where(channel >= spatial, ...)`
    would, unless a response is NaN.
    """
    take_channel = channel_out >= spatial_out
    return np.maximum(channel_out, spatial_out, out=out), take_channel


def dream_forward(rows: Tensor, params: DreamParams) -> Tensor:
    """Refine (N, d) rows in place of their maps; output is input + projection.

    The block is one tape node. Its backward replays each stage's rule in
    reverse and sums into the two maps with several consumers (`x`, `fused`)
    in the order a tape of the separate operations would, so its gradients
    equal that tape's bit for bit.
    """
    n, d = rows.shape
    x = rows.data.reshape(n, 1, d)
    fused, taps, pooled_x = multi_scale(x, params)
    channel_gate, channel_out, pooled_channels, hidden = channel_attention(fused, params)
    spatial_gate, spatial_out, pooled_positions = spatial_attention(fused, params)
    refined, take_channel = attention_fuse(channel_out, spatial_out, out=channel_out)
    del channel_out, spatial_out
    projected = pointwise_conv(params.out_kernel.data, refined).reshape(n, d)

    def backward(g):
        # The maps this reads are overwritten, so the tape replays once.
        g_refined, g_out_kernel = _pointwise_grads(
            params.out_kernel.data, refined, g.reshape(n, 1, d))
        # np.where(take, g, 0.0) and its complement, by masking. Off the mask
        # this leaves a zero of g's sign; each one only enters numpy sums and
        # einsums, which start from +0.0, or `g_fused` after an einsum term,
        # so every result keeps its bits while g is finite.
        g_spatial = g_refined * ~take_channel
        g_channel = np.multiply(g_refined, take_channel, out=g_refined)

        # spatial attention: the gated product, then the channel mean
        g_gate = _channel_sum(g_spatial, fused)[:, None, :]
        g_fused = np.multiply(g_spatial, spatial_gate, out=g_spatial)
        g_logit = g_gate * spatial_gate * (1.0 - spatial_gate)
        g_spatial_bias = _unbroadcast(g_logit, params.spatial_bias.shape)
        g_pooled, g_spatial_kernel = _pointwise_grads(
            params.spatial_kernel.data, pooled_positions, g_logit)
        g_fused += g_pooled / fused.shape[-2]

        # channel attention: the gated product, then the pooled vector
        g_gate = _unbroadcast(g_channel * fused, channel_gate.shape)
        g_channel *= channel_gate
        g_fused += g_channel
        g_logit = (g_gate * channel_gate * (1.0 - channel_gate)).reshape(
            pooled_channels.shape)
        g_restore = hidden.T @ g_logit
        g_hidden = (g_logit @ params.restore_weight.data.T) * (hidden > 0.0)
        g_squeeze = pooled_channels.T @ g_hidden
        g_pooled = g_hidden @ params.squeeze_weight.data.T
        g_fused += g_pooled[..., None] / d

        # branches, last first: pool, dilated (widest first), point. A ReLU
        # output is > 0 exactly where its input was, so `fused` gives the masks.
        # Each branch's gradient is its own contiguous array: einsum may sum
        # in another order over a strided view.
        cb = params.point_kernel.shape[0]
        g_branches = [g_fused[..., i * cb:(i + 1) * cb, :]
                      * (fused[..., i * cb:(i + 1) * cb, :] > 0.0)
                      for i in range(BRANCHES)]
        g_pooled, g_pool_kernel = _pointwise_grads(
            params.pool_kernel.data, pooled_x,
            g_branches[-1].sum(axis=-1, keepdims=True))
        g_x = np.broadcast_to(g_pooled / d, x.shape)
        g_dilated = [None] * len(params.dilations)
        for j in reversed(range(len(params.dilations))):
            g_in, g_dilated[j] = _dilated_grads(
                params.dilated_kernels[j].data, taps[j], g_branches[1 + j],
                params.dilations[j])
            g_x = g_x + g_in
        g_in, g_point_kernel = _pointwise_grads(params.point_kernel.data, x,
                                                g_branches[0])
        g_x = g_x + g_in
        return (g + g_x.reshape(n, d), g_point_kernel, *g_dilated, g_pool_kernel,
                g_squeeze, g_restore, g_spatial_kernel, g_spatial_bias, g_out_kernel)

    inputs = (rows, params.point_kernel, *params.dilated_kernels, params.pool_kernel,
              params.squeeze_weight, params.restore_weight, params.spatial_kernel,
              params.spatial_bias, params.out_kernel)
    return _make_out(rows.data + projected, inputs, backward)
