"""Refinement module: branch structure, attention gates, fusion, residual."""

import hashlib
import os
import sys
import warnings

import numpy as np
import pytest

from alignrec import dream
from alignrec.diagnostics import inner
from alignrec.dream import (
    BRANCHES,
    DreamParams,
    attention_fuse,
    channel_attention,
    dream_forward,
    multi_scale,
    spatial_attention,
)
from alignrec.errors import ConfigError
from alignrec.gradcheck import grad_check
from alignrec.model import HyperParams
from alignrec.tensor import (
    DimensionError,
    Tape,
    Tensor,
    UsageError,
    add,
    backward,
)


D = 12  # width of the maps `make` refines
FUSED = BRANCHES * 4  # channels of the fused map of a `make()` block


def make(seed=0, cb=4):
    hp = HyperParams(branch_channels=cb, attention_reduction=4, dilations=(1, 2, 3))
    return hp, DreamParams.create(hp, np.random.default_rng(seed))


def create(seed, **settings):
    """Weights drawn for the DREAM settings of a `HyperParams`."""
    return DreamParams.create(HyperParams(**settings), np.random.default_rng(seed))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_config_invariants():
    with pytest.raises(ConfigError, match="not divisible"):
        HyperParams(branch_channels=3, attention_reduction=4, dilations=(6, 12, 18))
    with pytest.raises(ConfigError, match="dilations"):
        HyperParams(branch_channels=8, attention_reduction=4, dilations=(6, 6, 12))
    with pytest.raises(ConfigError, match="dilations"):  # one dilated branch each
        HyperParams(branch_channels=8, attention_reduction=4, dilations=(6, 12))
    with pytest.raises(ConfigError, match="branch_channels"):
        HyperParams(branch_channels=0, attention_reduction=4, dilations=(6, 12, 18))
    with pytest.raises(ConfigError, match="attention_reduction"):
        HyperParams(branch_channels=8, attention_reduction=0, dilations=(6, 12, 18))
    with pytest.raises(ConfigError, match="dilations"):
        HyperParams(branch_channels=8, attention_reduction=4, dilations=(0, 6, 12))


def test_multi_scale_zero_input_gives_zero_map():
    hp, params = make()
    out, _, _ = multi_scale(np.zeros((1, D)), params.weights())
    assert out.shape == (BRANCHES * hp.branch_channels, D)
    assert np.array_equal(out, np.zeros_like(out))


def test_multi_scale_channel_count():
    _, params = make(cb=8)
    out, _, _ = multi_scale(np.ones((1, D)), params.weights())
    assert out.shape[0] == 5 * 8


def test_multi_scale_pool_branch_constant_for_constant_input():
    hp, params = make()
    out, _, _ = multi_scale(np.full((1, D), 0.7), params.weights())
    pooled_rows = out[4 * hp.branch_channels:]
    assert np.allclose(pooled_rows, pooled_rows[:, :1])


def test_multi_scale_matches_per_branch_oracles():
    hp, params = make(seed=3)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, D))
    out, _, _ = multi_scale(x, params.weights())
    cb = hp.branch_channels

    point = np.maximum(params.point_kernel.data @ x, 0.0)
    assert np.max(np.abs(out[:cb] - point)) <= 1e-12

    for j, dilation in enumerate(hp.dilations):
        kernel = params.dilated_kernels[j].data
        expected = np.zeros((cb, D))
        for o in range(cb):
            for l in range(D):
                for k in (-1, 0, 1):
                    src = l + k * dilation
                    if 0 <= src < D:
                        expected[o, l] += kernel[o, 0, k + 1] * x[0, src]
        expected = np.maximum(expected, 0.0)
        rows = out[(1 + j) * cb:(2 + j) * cb]
        assert np.max(np.abs(rows - expected)) <= 1e-12

    pooled = np.maximum(params.pool_kernel.data @ x.mean(axis=1, keepdims=True), 0.0)
    assert np.max(np.abs(out[4 * cb:] - pooled)) <= 1e-12


def test_channel_attention_zero_weights_halve_map():
    _, params = make()
    params.squeeze_weight.data[:] = 0.0
    params.restore_weight.data[:] = 0.0
    fused = np.random.default_rng(1).standard_normal((FUSED, D))
    gate, recalibrated, _, _ = channel_attention(fused, params.weights())
    assert np.allclose(gate, 0.5)
    assert np.allclose(recalibrated, 0.5 * fused)


def test_channel_attention_matches_formula_oracle():
    _, params = make(seed=5)
    rng = np.random.default_rng(2)
    fused = rng.standard_normal((FUSED, D))
    gate, recalibrated, _, _ = channel_attention(fused, params.weights())

    pooled = fused.mean(axis=1)
    hidden = np.maximum(pooled @ params.squeeze_weight.data, 0.0)
    expected_gate = sigmoid(hidden @ params.restore_weight.data)
    assert np.max(np.abs(gate.reshape(-1) - expected_gate)) <= 1e-12
    assert np.max(np.abs(recalibrated - fused * expected_gate[:, None])) <= 1e-12
    assert np.all(gate > 0.0) and np.all(gate < 1.0)


def test_spatial_attention_zero_weights_halve_map():
    _, params = make()
    params.spatial_kernel.data[:] = 0.0
    params.spatial_bias.data[:] = 0.0
    fused = np.random.default_rng(3).standard_normal((FUSED, D))
    gate, highlighted, _ = spatial_attention(fused, params.weights())
    assert np.allclose(gate, 0.5)
    assert np.allclose(highlighted, 0.5 * fused)


def test_spatial_attention_matches_formula_oracle():
    _, params = make(seed=6)
    rng = np.random.default_rng(4)
    fused = rng.standard_normal((FUSED, D))
    gate, highlighted, _ = spatial_attention(fused, params.weights())

    pooled = fused.mean(axis=0, keepdims=True)
    expected_gate = sigmoid(params.spatial_kernel.data[0, 0] * pooled
                            + params.spatial_bias.data[0, 0])
    assert np.max(np.abs(gate - expected_gate)) <= 1e-12
    assert np.max(np.abs(highlighted - fused * expected_gate)) <= 1e-12


def test_spatial_pool_of_constant_map_is_constant():
    _, params = make()
    fused = np.full((FUSED, D), 1.3)
    gate, _, _ = spatial_attention(fused, params.weights())
    assert np.allclose(gate, gate[0, 0])


def test_attention_fuse_rules():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))
    fused, take_channel = attention_fuse(a, a.copy())
    assert np.array_equal(fused, a)
    assert take_channel.all()  # ties go to the channel response
    fused, take_channel = attention_fuse(a, a + 1.0)
    assert np.array_equal(fused, a + 1.0)
    assert not take_channel.any()
    b = rng.standard_normal((4, 6))
    expected = np.where(a >= b, a, b)
    assert np.max(np.abs(attention_fuse(a, b)[0] - expected)) <= 1e-12


def test_dream_forward_zero_projection_is_identity():
    _, params = make(seed=7)
    params.out_kernel.data[:] = 0.0
    rows = np.random.default_rng(6).standard_normal((5, D))
    out = dream_forward([Tensor(rows)], [params])[0]
    assert np.array_equal(out.data, rows)


def test_dream_forward_zero_input_fixpoint():
    _, params = make(seed=8)  # biases are zero-initialized
    out = dream_forward([Tensor(np.zeros((4, D)))], [params])[0]
    assert np.array_equal(out.data, np.zeros((4, D)))


@pytest.mark.parametrize("n,d,cb", [(1, 4, 4), (3, 16, 4), (2, 40, 8)])
def test_dream_forward_shape_contract(n, d, cb):
    params = create(9, branch_channels=cb, attention_reduction=4,
                    dilations=(6, 12, 18))
    out = dream_forward([Tensor(np.random.default_rng(10).standard_normal((n, d)))],
                        [params])[0]
    assert out.shape == (n, d)


def test_dream_forward_gradient_check():
    params = create(11, branch_channels=4, attention_reduction=4,
                    dilations=(6, 12, 18))
    rows = Tensor(np.random.default_rng(12).standard_normal((3, 16)),
                  requires_grad=True)
    probe = np.random.default_rng(13).standard_normal((3, 16))

    def f():
        return inner(dream_forward([rows], [params])[0], probe)

    report = grad_check(f, {"rows": rows, **params.named("p")}, tol=1e-5)
    assert report.passed, report.max_rel_error


def dream_oracle(rows, params, hp):
    """The block written out with scalar loops, one row at a time."""
    cb = hp.branch_channels
    channels = BRANCHES * cb
    squeeze = params.squeeze_weight.data
    restore = params.restore_weight.data
    hidden_width = squeeze.shape[1]
    out = np.zeros_like(rows)
    for r, v in enumerate(rows):
        d = len(v)
        fused = []
        for o in range(cb):
            fused.append([max(params.point_kernel.data[o, 0] * v[l], 0.0)
                          for l in range(d)])
        for kernel, dilation in zip(params.dilated_kernels, hp.dilations):
            for o in range(cb):
                row = []
                for l in range(d):
                    total = 0.0
                    for k in (-1, 0, 1):
                        if 0 <= l + k * dilation < d:
                            total += kernel.data[o, 0, k + 1] * v[l + k * dilation]
                    row.append(max(total, 0.0))
                fused.append(row)
        mean = sum(v) / d
        for o in range(cb):
            fused.append([max(params.pool_kernel.data[o, 0] * mean, 0.0)] * d)

        pooled = [sum(fused[c]) / d for c in range(channels)]
        hidden = [max(sum(pooled[c] * squeeze[c, h] for c in range(channels)), 0.0)
                  for h in range(hidden_width)]
        channel_gate = [sigmoid(sum(hidden[h] * restore[h, c]
                                    for h in range(hidden_width)))
                        for c in range(channels)]
        spatial_gate = [sigmoid(params.spatial_kernel.data[0, 0]
                                * sum(fused[c][l] for c in range(channels)) / channels
                                + params.spatial_bias.data[0, 0])
                        for l in range(d)]
        for l in range(d):
            projection = 0.0
            for c in range(channels):
                refined = max(fused[c][l] * channel_gate[c],
                              fused[c][l] * spatial_gate[l])
                projection += params.out_kernel.data[0, c] * refined
            out[r, l] = v[l] + projection
    return out


@pytest.mark.parametrize("n,d,cb,reduction,dilations", [
    (1, 12, 1, 5, (1, 2, 3)),       # one row, one channel per branch
    (3, 4, 8, 4, (1, 6, 12)),       # d smaller than the widest dilations
    (2, 9, 8, 8, (2, 3, 5)),
], ids=["one-row-one-channel", "d-below-dilations", "eight-channels"])
def test_dream_forward_matches_loop_oracle(n, d, cb, reduction, dilations):
    hp = HyperParams(branch_channels=cb, attention_reduction=reduction,
                     dilations=dilations)
    params = DreamParams.create(hp, np.random.default_rng(14))
    params.spatial_bias.data[:] = 0.3
    rows = np.random.default_rng(15).standard_normal((n, d))
    out = dream_forward([Tensor(rows)], [params])[0]
    assert np.max(np.abs(out.data - dream_oracle(rows, params, hp))) <= 1e-12


def test_dream_forward_ties_route_gradient_to_channel_attention():
    _, params = make(seed=16)
    params.restore_weight.data[:] = 0.0   # channel gate exactly 0.5
    params.spatial_kernel.data[:] = 0.0   # spatial gate exactly 0.5
    params.spatial_bias.data[:] = 0.0
    rows = Tensor(np.random.default_rng(17).standard_normal((3, D)))
    probe = np.random.default_rng(18).standard_normal((3, D))
    with Tape() as tape:
        loss = inner(dream_forward([rows], [params])[0], probe)
    backward(loss, tape)
    # every entry ties, so the spatial branch receives no gradient at all
    assert np.array_equal(params.spatial_kernel.grad, np.zeros((1, 1)))
    assert np.array_equal(params.spatial_bias.grad, np.zeros((1, 1)))
    assert np.any(params.restore_weight.grad != 0.0)


def test_dream_forward_records_one_tape_node():
    _, params = make(seed=19)
    rows = Tensor(np.random.default_rng(20).standard_normal((4, D)),
                  requires_grad=True)
    with Tape() as tape:
        dream_forward([rows], [params])[0]
    assert len(tape) == 1


# Recorded from the tape of separate operations that the one-node block
# replaced (x86-64, numpy 2.4, OpenBLAS). The golden metric streams do not
# notice the last-bit change a reordered gradient sum makes; this digest does.
PER_OP_TAPE_DIGEST = "8ec53386e34073b70b9cbe65401b0f4e18ebac91639d502742242148c606058b"

# Recorded from the block before its kernels wrote in place and skipped
# dead taps (same platform). At width 12 the outer taps of dilations 12 and
# 18 read only padding, and every fourth row gets an exactly zero upstream
# gradient, as an item that no batch row reads does.
DEAD_TAP_DIGEST = "194de03dfc7b9e045905eec00ebe3abdbe1c1849109626ecd2772d460b17b234"


def taped_digest(n, d, param_seed, data_seed, unread=None):
    """sha256 over the output and every input and parameter gradient."""
    params = create(param_seed, branch_channels=8, attention_reduction=4,
                    dilations=(6, 12, 18))
    rng = np.random.default_rng(data_seed)
    rows = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    probe = rng.standard_normal((n, d))
    if unread is not None:
        probe[unread] = 0.0
    with Tape() as tape:
        out = dream_forward([rows], [params])[0]
        loss = inner(out, probe)
    backward(loss, tape)
    digest = hashlib.sha256(out.data.tobytes() + rows.grad.tobytes())
    for p in params.named("p").values():
        digest.update(p.grad.tobytes())
    return digest.hexdigest()


def test_dream_forward_bits_match_per_op_tape():
    assert taped_digest(50, 64, 21, 22) == PER_OP_TAPE_DIGEST


def test_dream_forward_bits_with_dead_taps_and_unread_rows():
    assert taped_digest(300, 12, 23, 24, unread=slice(None, None, 4)) == DEAD_TAP_DIGEST


def test_dream_backward_replays_once():
    _, params = make(seed=25)
    rows = Tensor(np.random.default_rng(26).standard_normal((4, D)), requires_grad=True)
    with Tape() as tape:
        loss = inner(dream_forward([rows], [params])[0], np.ones((4, D)))
    backward(loss, tape)
    with pytest.raises(UsageError, match="already replayed"):
        backward(loss, tape)


# ---------------------------------------------------------------------------
# two modalities in one node, the second on the lane
# ---------------------------------------------------------------------------

@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the process may use to `n`, with no lane started yet;
    the lane a test starts is shut down after it."""
    monkeypatch.setattr(dream, "_LANE", None)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield set_cpus
    if dream._LANE is not None:
        dream._LANE.shutdown()


def two_modalities(n=30, d=16):
    params = [create(seed, branch_channels=8, attention_reduction=4,
                     dilations=(6, 12, 18)) for seed in (31, 32)]
    rng = np.random.default_rng(33)
    rows = [rng.standard_normal((n, d)) for _ in params]
    probes = [rng.standard_normal((n, d)) for _ in params]
    return params, rows, probes


def taped_bytes(params, rows, probes, together):
    """Each modality's output, input gradient and weight gradients, from one
    `dream_forward` over both or from one call each."""
    inputs = [Tensor(r, requires_grad=True) for r in rows]
    with Tape() as tape:
        outs = (dream_forward(inputs, params) if together
                else [dream_forward([x], [p])[0] for x, p in zip(inputs, params)])
        loss = add(inner(outs[0], probes[0]), inner(outs[1], probes[1]))
    backward(loss, tape)
    return [out.data.tobytes() + x.grad.tobytes()
            + b"".join(w.grad.tobytes() for w in p.tensors())
            for out, x, p in zip(outs, inputs, params)]


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["in-order", "lane"])
def test_two_modalities_equal_one_call_each(cpus, n_cpus):
    """One node over both modalities gives each one's output and gradients
    bit for bit as its own call does, with the lane or without it."""
    cpus(n_cpus)
    params, rows, probes = two_modalities()
    together = taped_bytes(params, rows, probes, together=True)
    assert (dream._LANE is not None) == (n_cpus == 2)
    for p in params:
        for w in p.tensors():
            w.zero_grad()
    assert together == taped_bytes(params, rows, probes, together=False)


def test_lane_bits_hold_under_frequent_thread_switches(cpus):
    """The lane and the calling thread write disjoint rows of one output and
    read shared weights; with the interpreter switching threads as often as
    it can, every repeat still gives one call's bits per modality."""
    cpus(2)
    params, rows, probes = two_modalities(n=12)
    expected = taped_bytes(params, rows, probes, together=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            for p in params:
                for w in p.tensors():
                    w.zero_grad()
            assert taped_bytes(params, rows, probes, together=True) == expected
    finally:
        sys.setswitchinterval(interval)


def test_two_modalities_record_one_node_with_row_views(cpus):
    cpus(2)
    params, rows, _ = two_modalities(n=5)
    inputs = [Tensor(r, requires_grad=True) for r in rows]
    with Tape() as tape:
        first, second = dream_forward(inputs, params)
    (out, recorded_inputs, _), = tape._nodes
    assert first.data.base is out.data and second.data.base is out.data
    assert first.grad.base is out.grad and second.grad.base is out.grad
    assert recorded_inputs == (inputs[0], *params[0].tensors(),
                               inputs[1], *params[1].tensors())


def test_dream_forward_rejects_unpaired_or_unequal_modalities():
    params, rows, _ = two_modalities(n=4)
    with pytest.raises(UsageError, match="one or two modalities"):
        dream_forward([Tensor(rows[0])], params)
    with pytest.raises(UsageError, match="one or two modalities"):
        dream_forward([Tensor(r) for r in rows * 2], params * 2)
    with pytest.raises(DimensionError, match="widths differ"):
        dream_forward([Tensor(rows[0]), Tensor(rows[1][:, :8])], params)


def test_lane_runs_under_the_callers_errstate(cpus):
    """Only the second modality, the lane's, overflows. Its error reaches
    the caller under `raise`, and under `ignore` it warns of nothing: the
    lane runs in a copy of the caller's context."""
    cpus(2)
    params, rows, _ = two_modalities(n=4)
    with np.errstate(over="ignore"):
        inputs = [Tensor(rows[0]), Tensor(rows[1] * 1e308)]
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        dream_forward(inputs, params)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        dream_forward(inputs, params)
    assert dream._LANE is not None
