"""Alignment losses: kernel values, MMD vs a brute-force oracle, InfoNCE."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import alignrec.align
from alignrec.align import (
    MIN_BANDWIDTH,
    MIN_TEMPERATURE,
    check_bandwidths,
    gaussian_kernel,
    infonce,
    logsumexp_rows,
    mmd_squared,
    sqdist,
)
from alignrec.evaluation import pair_mask, sample_negatives
from alignrec.gradcheck import grad_check
from alignrec.model import (
    HyperParams,
    ModelParams,
    Recommender,
    TripletBatch,
    build_propagation_operator,
)
from alignrec.tensor import DimensionError, ParameterError, Tape, Tensor, backward


def mmd_loop_oracle(first: np.ndarray, second: np.ndarray,
                    bandwidths) -> float:
    """Direct double-loop evaluation of the biased kernel-form estimator."""
    n = first.shape[0]
    total = 0.0
    for sigma in bandwidths:
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc += gaussian_kernel(first[i], first[j], sigma)
                acc += gaussian_kernel(second[i], second[j], sigma)
                acc -= 2.0 * gaussian_kernel(first[i], second[j], sigma)
        total += acc / (n * n)
    return total / len(bandwidths)


# ---------------------------------------------------------------------------
# gaussian kernel
# ---------------------------------------------------------------------------

def test_kernel_at_zero_distance_is_one():
    v = np.array([0.3, -1.2, 4.0])
    assert gaussian_kernel(v, v, 1.7) == 1.0


def test_kernel_at_two_sigma_squared():
    sigma = 1.3
    v = np.zeros(2)
    t = np.array([sigma * np.sqrt(2.0), 0.0])  # |v-t|^2 = 2 sigma^2
    assert abs(gaussian_kernel(v, t, sigma) - math.exp(-1.0)) <= 1e-12


def test_kernel_symmetry_and_errors():
    rng = np.random.default_rng(0)
    v, t = rng.standard_normal(4), rng.standard_normal(4)
    assert gaussian_kernel(v, t, 2.0) == gaussian_kernel(t, v, 2.0)
    for sigma in (0.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError):
            gaussian_kernel(v, t, sigma)
    with pytest.raises(DimensionError):
        gaussian_kernel(v, t[:3], 1.0)


# ---------------------------------------------------------------------------
# MMD
# ---------------------------------------------------------------------------

def test_mmd_identical_sets_is_zero():
    v = np.random.default_rng(1).standard_normal((6, 3))
    bandwidths = (1.0, 1.5, 2.0)
    assert abs(mmd_squared(Tensor(v), Tensor(v.copy()), bandwidths).item()) <= 1e-12


def test_mmd_single_pair_closed_form():
    rng = np.random.default_rng(2)
    v, t = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
    bandwidths = (1.5,)
    expected = 2.0 - 2.0 * gaussian_kernel(v[0], t[0], 1.5)
    assert abs(mmd_squared(Tensor(v), Tensor(t), bandwidths).item() - expected) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_mmd_matches_double_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((16, 8))
    t = rng.standard_normal((16, 8)) + 0.25
    bandwidths = (1.0, 1.5, 2.0)
    got = mmd_squared(Tensor(v), Tensor(t), bandwidths).item()
    assert abs(got - mmd_loop_oracle(v, t, bandwidths)) <= 1e-10


@given(st.integers(0, 1000))
def test_mmd_symmetry_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((5, 3))
    t = rng.standard_normal((5, 3)) * 2.0
    bandwidths = (1.0, 2.0)
    ab = mmd_squared(Tensor(v), Tensor(t), bandwidths).item()
    ba = mmd_squared(Tensor(t), Tensor(v), bandwidths).item()
    assert abs(ab - ba) <= 1e-12
    assert ab >= -1e-12


def test_mmd_decreases_as_sets_approach():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((2, 4))
    t = v + 1.5
    bandwidths = (1.0,)
    values = []
    for step in (0.0, 0.25, 0.5, 0.75):
        moved = t + step * (v - t)
        values.append(mmd_squared(Tensor(v), Tensor(moved), bandwidths).item())
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mmd_errors():
    bandwidths = (1.0, 1.5, 2.0)
    with pytest.raises(DimensionError):
        mmd_squared(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))), bandwidths)
    with pytest.raises(DimensionError):
        mmd_squared(Tensor(np.empty((0, 2))), Tensor(np.empty((0, 2))), bandwidths)


def test_mmd_gradient_check():
    rng = np.random.default_rng(4)
    v = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    t = Tensor(rng.standard_normal((6, 4)) + 0.5, requires_grad=True)
    bandwidths = (1.0, 1.5, 2.0)
    report = grad_check(lambda: mmd_squared(v, t, bandwidths), {"v": v, "t": t},
                        tol=1e-5)
    assert report.passed, report.max_rel_error


# ---------------------------------------------------------------------------
# InfoNCE
# ---------------------------------------------------------------------------

def test_infonce_single_pair_is_exactly_zero():
    rng = np.random.default_rng(5)
    v = Tensor(rng.standard_normal((1, 4)))
    t = Tensor(rng.standard_normal((1, 4)))
    assert infonce(v, t, 0.2).item() == 0.0


def test_infonce_uniform_similarities_give_log_n():
    row = np.array([1.0, 0.0, 0.0])
    v = Tensor(np.tile(row, (5, 1)))
    t = Tensor(np.tile(row, (5, 1)))
    assert abs(infonce(v, t, 0.5).item() - math.log(5)) <= 1e-12


def test_infonce_orthonormal_pairs_closed_form():
    v = Tensor(np.eye(2))
    t = Tensor(np.eye(2))
    expected = -math.log(math.e / (math.e + 1.0))
    assert abs(infonce(v, t, 1.0).item() - expected) <= 1e-9
    assert abs(expected - 0.313262) <= 1e-6


def test_bandwidth_floor_is_the_smallest_with_a_finite_coefficient():
    assert math.isfinite(-1.0 / (2.0 * MIN_BANDWIDTH * MIN_BANDWIDTH))
    below = float(np.nextafter(MIN_BANDWIDTH, 0.0))
    assert -1.0 / (2.0 * below * below) == -math.inf
    for sigma in (0.0, 5e-324, 1e-300, 1e-160, below, np.inf, np.nan):
        with pytest.raises(ParameterError, match="bandwidths"):
            check_bandwidths((1.0, sigma))
    check_bandwidths((MIN_BANDWIDTH,))  # the floor itself is accepted
    v = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    assert math.isfinite(mmd_squared(v, Tensor(v.data + 1.0), (MIN_BANDWIDTH,)).item())


def test_infonce_rejects_bad_temperature():
    v = Tensor(np.ones((2, 2)))
    for temperature in (0.0, 1e-300, np.nextafter(MIN_TEMPERATURE, 0.0), np.inf, np.nan):
        with pytest.raises(ParameterError):
            infonce(v, v, temperature)
    assert infonce(v, v, MIN_TEMPERATURE).item() == pytest.approx(math.log(2))
    HyperParams(temperature=MIN_TEMPERATURE)  # the floor itself is accepted


@given(st.integers(0, 500))
def test_infonce_nonnegative(seed):
    rng = np.random.default_rng(seed)
    v = Tensor(rng.standard_normal((4, 3)))
    t = Tensor(rng.standard_normal((4, 3)))
    assert infonce(v, t, 0.2).item() >= 0.0


def test_infonce_bounded_by_log_n_when_pairs_align():
    rng = np.random.default_rng(6)
    v = rng.standard_normal((7, 5))
    loss = infonce(Tensor(v), Tensor(v.copy()), 0.2).item()
    assert 0.0 <= loss <= math.log(7) + 1e-9


def test_infonce_invariant_to_common_row_rescaling():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((5, 4))
    t = rng.standard_normal((5, 4))
    base = infonce(Tensor(v), Tensor(t), 0.3).item()
    scaled = infonce(Tensor(37.0 * v), Tensor(t), 0.3).item()
    assert abs(base - scaled) <= 1e-9


def test_infonce_symmetric_averages_both_directions():
    rng = np.random.default_rng(8)
    v, t = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    forward = infonce(Tensor(v), Tensor(t), 0.2).item()
    reverse = infonce(Tensor(t), Tensor(v), 0.2).item()
    both = infonce(Tensor(v), Tensor(t), 0.2, symmetric=True).item()
    assert abs(both - 0.5 * (forward + reverse)) <= 1e-12


@pytest.mark.parametrize("symmetric", [False, True])
def test_infonce_gradient_check(symmetric):
    rng = np.random.default_rng(9)
    v = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    t = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    report = grad_check(lambda: infonce(v, t, 0.2, symmetric), {"v": v, "t": t},
                        tol=1e-5)
    assert report.passed, report.max_rel_error


def test_infonce_zero_row_passes_the_norm_guard():
    rng = np.random.default_rng(10)
    v = rng.standard_normal((4, 3))
    v[1] = 0.0
    first = Tensor(v, requires_grad=True)
    second = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    with Tape() as tape:
        loss = infonce(first, second, 0.2, symmetric=True)
    backward(loss, tape)
    assert np.isfinite(loss.item())
    assert np.isfinite(first.grad).all() and np.isfinite(second.grad).all()


def test_logsumexp_rows_finite_at_large_logits():
    logits = np.array([[1000.0, 1000.0], [-1000.0, 0.0], [800.0, -800.0]])
    with np.errstate(over="raise"):  # the max shift keeps exp in range
        lse, softmax = logsumexp_rows(logits)
    assert np.allclose(lse, [1000.0 + math.log(2.0), 0.0, 800.0])
    assert np.allclose(softmax, [[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])


def test_sqdist_clamped_at_zero():
    rows = np.random.default_rng(1).standard_normal((6, 5)) + 1e3
    sq = (rows * rows).sum(axis=1)
    unclamped = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
    assert unclamped.min() < 0.0  # cancellation at this offset
    d = sqdist(rows, rows)
    assert d.min() == 0.0
    loops = np.array([[((x - y) ** 2).sum() for y in rows] for x in rows])
    assert np.allclose(d, loops, atol=1e-6)


def test_mmd_rejects_bad_bandwidths():
    v = Tensor(np.ones((2, 3)))
    for bandwidths in [(), (1.0, -2.0), (float("nan"),), (1.0, float("inf"))]:
        with pytest.raises(ParameterError, match="bandwidths"):
            mmd_squared(v, v, bandwidths)


# ---------------------------------------------------------------------------
# pinned bits
# ---------------------------------------------------------------------------

# Recorded from the tape of separate operations (distance, kernel, norm,
# log-sum-exp and transpose nodes) that each loss used to record
# (x86-64, numpy 2.4, OpenBLAS). The golden metric streams do not notice the
# last-bit change a reordered gradient sum makes; these digests do.
# The package runs OpenBLAS on one thread, which rounds the MMD's products
# differently than two or more threads at this shape; MMD_DIGEST is the
# separate-operation tape's value at one thread.
MMD_DIGEST = "0e17f5f15504ab6dc4030910471c1b08232d1ae31ed433743f4cfc53f8938a84"
INFONCE_DIGESTS = {
    False: "88906485496bd141bda27f6cbcb1e298c4a469d122e973f24b02b9e85f66dc8b",
    True: "0a0c674c014d843671c13892f1fe71eab55b990094b100eb9fb37f8659804e49",
}
TOTAL_LOSS_DIGEST = "fb5d3bc923d4131098979caf872034865ff424edfcc01a970961b4f204684bc1"


def _pair(seed, n=150, d=24):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((n, d)), requires_grad=True),
            Tensor(rng.standard_normal((n, d)) * 0.8 + 0.3, requires_grad=True))


def _taped(f, tensors):
    """sha256 over the loss `f()` and the gradients it gives `tensors`."""
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    digest = hashlib.sha256(loss.data.tobytes())
    for t in tensors:
        digest.update(t.grad.tobytes())
    return digest.hexdigest()


def test_mmd_bits_match_per_op_tape():
    v, t = _pair(30)
    bandwidths = (1.0, 1.5, 2.0)
    assert _taped(lambda: mmd_squared(v, t, bandwidths), (v, t)) == MMD_DIGEST


@pytest.mark.parametrize("symmetric", [False, True])
def test_infonce_bits_match_per_op_tape(symmetric):
    v, t = _pair(31)
    got = _taped(lambda: infonce(v, t, 0.2, symmetric), (v, t))
    assert got == INFONCE_DIGESTS[symmetric]


def _small_model_and_batch():
    hp = HyperParams(reduction=2, id_dim=8, branch_channels=4)
    rng = np.random.default_rng(5)
    n_users, n_items = 12, 40
    params = ModelParams.create(n_users, n_items, 48, 40, hp, rng)
    users = np.repeat(np.arange(n_users), 4)
    items = np.concatenate([rng.choice(n_items, size=4, replace=False)
                            for _ in range(n_users)])
    pairs = np.stack([users, items], axis=1)
    negs = sample_negatives(users, pair_mask(pairs, n_users, n_items), rng)
    batch = TripletBatch(users=users, pos_items=items, neg_items=negs)
    model = Recommender(params, hp, Tensor(rng.standard_normal((n_items, 48))),
                        Tensor(rng.standard_normal((n_items, 40))),
                        build_propagation_operator(pairs, n_users, n_items))
    return model, batch


def test_total_loss_bits_match_per_op_tape():
    """Both alignment terms feed the same encoded rows, so this also pins
    the order in which their gradients reach `accumulate_grad`."""
    model, batch = _small_model_and_batch()
    named = model.params.named()
    got = _taped(lambda: model.total_loss(batch)[0],
                 [named[k] for k in sorted(named)])
    assert got == TOTAL_LOSS_DIGEST


@pytest.mark.parametrize("loss", ["mmd", "infonce", "infonce-symmetric"])
def test_alignment_loss_records_one_tape_node(loss):
    v, t = _pair(32, n=6, d=4)
    with Tape() as tape:
        if loss == "mmd":
            mmd_squared(v, t, (1.0, 2.0))
        else:
            infonce(v, t, 0.2, symmetric=loss == "infonce-symmetric")
    assert len(tape) == 1


# ---------------------------------------------------------------------------
# MMD makes its gradients in the forward pass
# ---------------------------------------------------------------------------

def test_mmd_holds_no_kernel_after_its_forward():
    """What a recorded MMD node holds until its backward: its six (N, d)
    gradient pieces, not its nine (N, N) kernels."""
    n, d = 600, 16
    v, t = _pair(33, n, d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss = mmd_squared(v, t, (1.0, 1.5, 2.0))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < n * n * 8
    backward(loss, tape)
    assert v.grad.shape == t.grad.shape == (n, d)


def test_training_step_never_makes_the_mmd_kernels_again(monkeypatch):
    """`total_loss` tells the MMD node the gradient its `scale` sends, so the
    backward returns the pieces made in the forward: three distances per
    step, not six."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return sqdist(a, b)

    monkeypatch.setattr(alignrec.align, "sqdist", counted)
    model, batch = _small_model_and_batch()
    assert model.lambda_mmd not in (0.0, 1.0)
    with Tape() as tape:
        loss, _ = model.total_loss(batch)
    backward(loss, tape)
    assert len(calls) == 3


def test_mmd_makes_gradient_pieces_only_when_recorded(monkeypatch):
    calls = []
    pair_grads = alignrec.align._pair_grads

    def counted(*args):
        calls.append(1)
        return pair_grads(*args)

    monkeypatch.setattr(alignrec.align, "_pair_grads", counted)
    v, t = _pair(34, n=6, d=4)
    mmd_squared(v, t, (1.0, 2.0))  # no tape
    with Tape() as tape:
        mmd_squared(Tensor(v.data), Tensor(t.data), (1.0, 2.0))  # no input needs a grad
    assert len(tape) == 0 and calls == []
    with Tape() as tape:
        mmd_squared(v, t, (1.0, 2.0))
    assert len(tape) == 1 and len(calls) == 3
