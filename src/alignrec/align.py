"""Global distribution alignment: Gaussian-kernel MMD and InfoNCE.

Each loss is one tape node over plain numpy helpers. Its backward sums the
gradient pieces in the order a tape of the separate operations would, so the
gradients equal that tape's bit for bit.
"""

from __future__ import annotations

import numpy as np

from .tensor import DimensionError, ParameterError, Tensor, _make_out, recorded

NORM_EPS = 1e-12
# Smallest InfoNCE temperature, 2 / ln(float64 max) ~ 2.82e-3. Cosines lie in
# [-1, 1], so a row's logits span up to 2 / temperature; below this floor
# that gap leaves `exp`'s range, a row's softmax can be exactly one-hot, and
# the term carries no gradient.
MIN_TEMPERATURE = 2 / np.log(np.finfo(np.float64).max)


# The smallest Gaussian bandwidth whose kernel coefficient -1 / (2 sigma^2)
# is finite: below it, 2 sigma^2 is 0 or so small that its reciprocal
# overflows.
MIN_BANDWIDTH = float(np.nextafter(np.sqrt(0.5 / np.finfo(np.float64).max), np.inf))


def check_bandwidths(bandwidths: tuple[float, ...]) -> None:
    """Reject an empty tuple or one holding a value that is not finite or is
    below `MIN_BANDWIDTH`."""
    if not bandwidths or not all(MIN_BANDWIDTH <= s < np.inf for s in bandwidths):
        raise ParameterError(f"bandwidths must be finite and >= {MIN_BANDWIDTH:.4g}, "
                             f"got {bandwidths}")


def check_temperature(temperature: float) -> None:
    """Reject a temperature that is not finite or is below `MIN_TEMPERATURE`."""
    if not MIN_TEMPERATURE <= temperature < np.inf:
        raise ParameterError(f"temperature must be finite and >= {MIN_TEMPERATURE:.4g}, "
                             f"got {temperature}")


def gaussian_kernel(v: np.ndarray, t: np.ndarray, sigma: float) -> float:
    """exp(-|v - t|^2 / (2 sigma^2)) for a single vector pair."""
    check_bandwidths((sigma,))
    v = np.asarray(v, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if v.shape != t.shape:
        raise DimensionError(f"gaussian_kernel: shapes {v.shape} and {t.shape} differ")
    diff = v - t
    return float(np.exp(-(diff @ diff) / (2.0 * sigma * sigma)))


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances |a_i - b_j|^2, clamped at 0
    against cancellation."""
    sq_a = (a * a).sum(axis=1)[:, None]
    sq_b = (b * b).sum(axis=1)[None, :]
    cross = a @ b.T
    cross *= 2.0
    out = np.subtract(sq_a + sq_b, cross, out=cross)
    return np.maximum(out, 0.0, out=out)


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by max(|row|, NORM_EPS), and that divisor; a zero row
    stays zero."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    denom = np.maximum(norms, NORM_EPS)
    return x / denom, denom


def _normalize_rows_grad(out: np.ndarray, denom: np.ndarray,
                         g: np.ndarray) -> np.ndarray:
    # rows above the guard: (g - y * <y, g>) / |x|; guarded rows: g / eps
    dot = (out * g).sum(axis=-1, keepdims=True)
    return np.where(denom > NORM_EPS, (g - out * dot) / denom, g / denom)


def logsumexp_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log(sum(exp(x))) with max-shift stabilization, (N, D) -> (N,),
    and the row softmax that is its gradient."""
    m = x.max(axis=1, keepdims=True)
    softmax = np.subtract(x, m)
    np.exp(softmax, out=softmax)
    total = softmax.sum(axis=1, keepdims=True)
    softmax /= total
    return (np.log(total) + m).reshape(-1), softmax


def _gaussian_kernels(dist: np.ndarray, coefs: list[float]) -> list[np.ndarray]:
    """exp(coef * dist) for each exponent coefficient."""
    kernels = [coef * dist for coef in coefs]
    for k in kernels:
        np.exp(k, out=k)
    return kernels


def _pair_grads(x: np.ndarray, y: np.ndarray, kernels: list[np.ndarray],
                coefs: list[float], w) -> list[np.ndarray]:
    """Gradients for `x` and `y` of `w` times the sum of `kernels`, the
    kernels of their distance. The kernels become the distance's gradient
    in place, summed last bandwidth first."""
    g_d = None
    for coef, k in reversed(list(zip(coefs, kernels))):
        k *= w
        k *= coef
        if g_d is None:
            g_d = k
        else:
            g_d += k
    return [2.0 * (g_d.sum(axis=1, keepdims=True) * x - g_d @ y),
            2.0 * (g_d.sum(axis=0)[:, None] * y - g_d.T @ x)]


def mmd_squared(first: Tensor, second: Tensor, bandwidths: tuple[float, ...],
                expect: float = 1.0) -> Tensor:
    """Biased kernel-form MMD^2 between two equally sized sample sets.

    (1/N^2) [sum k(v,v') + sum k(t,t') - 2 sum k(v,t)], averaged over the
    Gaussian kernels of `bandwidths`; a one-element tuple gives one kernel.

    `expect` is the gradient the result will receive, 1.0 for a loss that is
    differentiated directly. When the node is recorded, the input gradients
    for it are made in the forward pass, one pair of sample sets at a time,
    so that no kernel outlives its pair. A backward that receives another
    gradient makes the kernels again.
    """
    check_bandwidths(bandwidths)
    if first.ndim != 2 or second.ndim != 2:
        raise DimensionError(
            f"mmd_squared expects matrices, got {first.shape} and {second.shape}")
    n = first.shape[0]
    if n < 1:
        raise DimensionError("mmd_squared: empty sample set")
    if second.shape[0] != n or second.shape[1] != first.shape[1]:
        raise DimensionError(
            f"mmd_squared: sample shapes {first.shape} and {second.shape} differ")

    a, b = first.data, second.data
    pairs = ((a, a), (b, b), (a, b))
    coefs = [-1.0 / (2.0 * sigma * sigma) for sigma in bandwidths]

    def weights(g):
        # the gradient each pair's kernel sum receives: ff, ss, fs
        g_term = g * (1.0 / len(bandwidths)) * (1.0 / (n * n))
        return g_term, g_term, -g_term * 2.0

    inputs = (first, second, second, second, first, first)
    expected = np.float64(expect)
    eager = recorded(inputs)
    sums, pieces = [], []
    for (x, y), w in zip(pairs, weights(expected)):
        # one kernel per bandwidth, made from the pair's distance, which is
        # dropped once they are made; the kernels are freed before the next
        # pair's are made
        kernels = _gaussian_kernels(sqdist(x, y), coefs)
        sums.append([k.sum() for k in kernels])
        if eager:
            pieces.append(_pair_grads(x, y, kernels, coefs, w))
        del kernels
    total = None
    for sum_ff, sum_ss, sum_fs in zip(*sums):
        within = sum_ff + sum_ss
        cross = sum_fs * 2.0
        term = (within - cross) * (1.0 / (n * n))
        total = term if total is None else total + term

    def backward(g):
        if g.tobytes() == expected.tobytes():
            grads = pieces
        else:
            grads = [_pair_grads(x, y, _gaussian_kernels(sqdist(x, y), coefs), coefs, w)
                     for (x, y), w in zip(pairs, weights(g))]
        # last pair first: fs, ss, ff
        return [piece for pair in reversed(grads) for piece in pair]

    return _make_out(total * (1.0 / len(bandwidths)), inputs, backward)


def infonce(first: Tensor, second: Tensor, temperature: float,
            symmetric: bool = False) -> Tensor:
    """Temperature-scaled contrastive loss over in-batch negatives.

    Rows are l2-normalized internally; similarity is their dot product.
    Anchors are the rows of `first`; `symmetric=True` averages both
    anchoring directions.
    """
    check_temperature(temperature)
    if first.ndim != 2 or second.ndim != 2 or first.shape != second.shape:
        raise DimensionError(
            f"infonce: sample shapes {first.shape} and {second.shape} differ")
    n = first.shape[0]
    first_n, first_denom = normalize_rows(first.data)
    second_n, second_denom = normalize_rows(second.data)
    # Contiguous transposes: with a strided operand, BLAS products and numpy
    # row sums can round differently, which would change the loss's bits.
    second_nt = second_n.T.copy()
    sim = (first_n @ second_nt) * (1.0 / temperature)

    def direction(logits):
        lse, softmax = logsumexp_rows(logits)
        # `lse` is never -0.0, so a matched logit of -0.0 counts as +0.0 does
        return (lse - logits.diagonal()).sum() * (1.0 / n), softmax

    loss, softmax = direction(sim)
    if symmetric:
        loss_t, softmax_t = direction(sim.T.copy())
        loss = (loss + loss_t) * 0.5

    def direction_grad(g_sim, softmax, g_loss):
        # the matched (diagonal) term, then the log-sum-exp
        c = g_loss * (1.0 / n)
        g_sim.flat[::n + 1] -= c
        softmax *= c
        g_sim += softmax
        return g_sim

    def backward(g):
        if symmetric:
            g = g * 0.5
            g_sim = direction_grad(np.zeros((n, n)), softmax_t, g).T.copy()
        else:
            g_sim = np.zeros((n, n))
        g_sim = direction_grad(g_sim, softmax, g)
        g_sim *= 1.0 / temperature
        g_first_n = g_sim @ second_nt.T
        g_second_n = (first_n.T @ g_sim).T.copy()
        return (_normalize_rows_grad(first_n, first_denom, g_first_n),
                _normalize_rows_grad(second_n, second_denom, g_second_n))

    return _make_out(loss, (first, second), backward)
