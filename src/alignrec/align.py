"""Global distribution alignment: Gaussian-kernel MMD and InfoNCE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    ParameterError,
    Tensor,
    add,
    gaussian_from_sqdist,
    l2_normalize_rows,
    logsumexp_rows,
    matmul,
    mul,
    pairwise_sqdist,
    scale,
    sub,
    sum_all,
    sum_axis,
    transpose2d,
)


@dataclass(frozen=True)
class AlignConfig:
    """Kernel bandwidths of the distribution distance.

    Multiple bandwidths are averaged into a multi-kernel estimator; pass a
    single-element tuple to use one Gaussian kernel.
    """

    bandwidths: tuple[float, ...]

    def __post_init__(self):
        if not self.bandwidths or not all(s > 0 for s in self.bandwidths):
            raise ParameterError(f"bandwidths must be positive, got {self.bandwidths}")


def gaussian_kernel(v: np.ndarray, t: np.ndarray, sigma: float) -> float:
    """exp(-|v - t|^2 / (2 sigma^2)) for a single vector pair."""
    if sigma <= 0:
        raise ParameterError(f"kernel bandwidth must be positive, got {sigma}")
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if v.shape != t.shape:
        raise DimensionError(f"gaussian_kernel: shapes {v.shape} and {t.shape} differ")
    diff = v - t
    return float(np.exp(-(diff @ diff) / (2.0 * sigma * sigma)))


def mmd_squared(first: Tensor, second: Tensor, cfg: AlignConfig) -> Tensor:
    """Biased kernel-form MMD^2 between two equally sized sample sets.

    (1/N^2) [sum k(v,v') + sum k(t,t') - 2 sum k(v,t)], averaged over the
    configured bandwidths.
    """
    if first.ndim != 2 or second.ndim != 2:
        raise DimensionError(
            f"mmd_squared expects matrices, got {first.shape} and {second.shape}")
    n = first.shape[0]
    if n < 1:
        raise DimensionError("mmd_squared: empty sample set")
    if second.shape[0] != n or second.shape[1] != first.shape[1]:
        raise DimensionError(
            f"mmd_squared: sample shapes {first.shape} and {second.shape} differ")

    d_ff = pairwise_sqdist(first, first)
    d_ss = pairwise_sqdist(second, second)
    d_fs = pairwise_sqdist(first, second)
    total = None
    for sigma in cfg.bandwidths:
        within = add(sum_all(gaussian_from_sqdist(d_ff, sigma)),
                     sum_all(gaussian_from_sqdist(d_ss, sigma)))
        cross = scale(sum_all(gaussian_from_sqdist(d_fs, sigma)), 2.0)
        term = scale(sub(within, cross), 1.0 / (n * n))
        total = term if total is None else add(total, term)
    return scale(total, 1.0 / len(cfg.bandwidths))


def _nce_direction(sim_scaled: Tensor, eye: Tensor, n: int) -> Tensor:
    lse = logsumexp_rows(sim_scaled)
    matched = sum_axis(mul(sim_scaled, eye), axis=1)
    return scale(sum_all(sub(lse, matched)), 1.0 / n)


def infonce(first: Tensor, second: Tensor, temperature: float,
            symmetric: bool = False) -> Tensor:
    """Temperature-scaled contrastive loss over in-batch negatives.

    Rows are l2-normalized internally; similarity is their dot product.
    Anchors are the rows of `first`; `symmetric=True` averages both
    anchoring directions.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if first.ndim != 2 or second.ndim != 2 or first.shape != second.shape:
        raise DimensionError(
            f"infonce: sample shapes {first.shape} and {second.shape} differ")
    n = first.shape[0]
    first_n = l2_normalize_rows(first)
    second_n = l2_normalize_rows(second)
    sim = scale(matmul(first_n, transpose2d(second_n)), 1.0 / temperature)
    eye = Tensor(np.eye(n))
    loss = _nce_direction(sim, eye, n)
    if symmetric:
        loss = scale(add(loss, _nce_direction(transpose2d(sim), eye, n)), 0.5)
    return loss
