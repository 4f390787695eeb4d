"""Refinement module: branch structure, attention gates, fusion, residual."""

import numpy as np
import pytest

from alignrec.dream import (
    DreamConfig,
    DreamParams,
    attention_fuse,
    channel_attention,
    dream_forward,
    multi_scale,
    spatial_attention,
)
from alignrec.gradcheck import grad_check
from alignrec.tensor import DimensionError, ParameterError, Tensor, mul, sum_all


D = 12  # width of the maps `make` refines


def make(seed=0, cb=4):
    cfg = DreamConfig(branch_channels=cb, attention_reduction=4, dilations=(1, 2, 3))
    params = DreamParams.create(cfg, np.random.default_rng(seed))
    return cfg, params


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_config_invariants():
    with pytest.raises(ParameterError):
        DreamConfig(branch_channels=3, attention_reduction=4, dilations=(6, 12, 18))
    with pytest.raises(ParameterError):
        DreamConfig(branch_channels=8, attention_reduction=4, dilations=(6, 6, 12))
    with pytest.raises(ParameterError):  # one dilated branch per dilation, three
        DreamConfig(branch_channels=8, attention_reduction=4, dilations=(6, 12))
    with pytest.raises(ParameterError):
        DreamConfig(branch_channels=0, attention_reduction=4, dilations=(6, 12, 18))
    with pytest.raises(ParameterError):
        DreamConfig(branch_channels=8, attention_reduction=0, dilations=(6, 12, 18))


def test_multi_scale_zero_input_gives_zero_map():
    cfg, params = make()
    out = multi_scale(Tensor(np.zeros((1, D))), params, cfg)
    assert out.shape == (cfg.fused_channels, D)
    assert np.array_equal(out.data, np.zeros_like(out.data))


def test_multi_scale_channel_count():
    cfg, params = make(cb=8)
    out = multi_scale(Tensor(np.ones((1, D))), params, cfg)
    assert out.shape[0] == 5 * 8


def test_multi_scale_pool_branch_constant_for_constant_input():
    cfg, params = make()
    out = multi_scale(Tensor(np.full((1, D), 0.7)), params, cfg)
    pooled_rows = out.data[4 * cfg.branch_channels:]
    assert np.allclose(pooled_rows, pooled_rows[:, :1])


def test_multi_scale_matches_per_branch_oracles():
    cfg, params = make(seed=3)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, D))
    out = multi_scale(Tensor(x), params, cfg).data
    cb = cfg.branch_channels

    point = np.maximum(params.point_kernel.data @ x, 0.0)
    assert np.max(np.abs(out[:cb] - point)) <= 1e-12

    for j, dilation in enumerate(cfg.dilations):
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
    cfg, params = make()
    params.squeeze_weight.data[:] = 0.0
    params.restore_weight.data[:] = 0.0
    fused = Tensor(np.random.default_rng(1).standard_normal(
        (cfg.fused_channels, D)))
    gate, recalibrated = channel_attention(fused, params)
    assert np.allclose(gate.data, 0.5)
    assert np.allclose(recalibrated.data, 0.5 * fused.data)


def test_channel_attention_matches_formula_oracle():
    cfg, params = make(seed=5)
    rng = np.random.default_rng(2)
    fused = rng.standard_normal((cfg.fused_channels, D))
    gate, recalibrated = channel_attention(Tensor(fused), params)

    pooled = fused.mean(axis=1)
    hidden = np.maximum(pooled @ params.squeeze_weight.data, 0.0)
    expected_gate = sigmoid(hidden @ params.restore_weight.data)
    assert np.max(np.abs(gate.data.reshape(-1) - expected_gate)) <= 1e-12
    assert np.max(np.abs(recalibrated.data - fused * expected_gate[:, None])) <= 1e-12
    assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)


def test_spatial_attention_zero_weights_halve_map():
    cfg, params = make()
    params.spatial_kernel.data[:] = 0.0
    params.spatial_bias.data[:] = 0.0
    fused = Tensor(np.random.default_rng(3).standard_normal(
        (cfg.fused_channels, D)))
    gate, highlighted = spatial_attention(fused, params)
    assert np.allclose(gate.data, 0.5)
    assert np.allclose(highlighted.data, 0.5 * fused.data)


def test_spatial_attention_matches_formula_oracle():
    cfg, params = make(seed=6)
    rng = np.random.default_rng(4)
    fused = rng.standard_normal((cfg.fused_channels, D))
    gate, highlighted = spatial_attention(Tensor(fused), params)

    pooled = fused.mean(axis=0, keepdims=True)
    expected_gate = sigmoid(params.spatial_kernel.data[0, 0] * pooled
                            + params.spatial_bias.data[0, 0])
    assert np.max(np.abs(gate.data - expected_gate)) <= 1e-12
    assert np.max(np.abs(highlighted.data - fused * expected_gate)) <= 1e-12


def test_spatial_pool_of_constant_map_is_constant():
    cfg, params = make()
    fused = Tensor(np.full((cfg.fused_channels, D), 1.3))
    gate, _ = spatial_attention(fused, params)
    assert np.allclose(gate.data, gate.data[0, 0])


def test_attention_fuse_rules():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))
    assert np.array_equal(attention_fuse(Tensor(a), Tensor(a.copy())).data, a)
    assert np.array_equal(attention_fuse(Tensor(a), Tensor(a + 1.0)).data, a + 1.0)
    b = rng.standard_normal((4, 6))
    expected = np.where(a >= b, a, b)
    assert np.max(np.abs(attention_fuse(Tensor(a), Tensor(b)).data - expected)) <= 1e-12
    with pytest.raises(DimensionError):
        attention_fuse(Tensor(a), Tensor(np.ones((4, 5))))


def test_dream_forward_zero_projection_is_identity():
    cfg, params = make(seed=7)
    params.out_kernel.data[:] = 0.0
    rows = np.random.default_rng(6).standard_normal((5, D))
    out = dream_forward(Tensor(rows), params, cfg)
    assert np.array_equal(out.data, rows)


def test_dream_forward_zero_input_fixpoint():
    cfg, params = make(seed=8)  # biases are zero-initialized
    out = dream_forward(Tensor(np.zeros((4, D))), params, cfg)
    assert np.array_equal(out.data, np.zeros((4, D)))


@pytest.mark.parametrize("n,d,cb", [(1, 4, 4), (3, 16, 4), (2, 40, 8)])
def test_dream_forward_shape_contract(n, d, cb):
    cfg = DreamConfig(branch_channels=cb, attention_reduction=4,
                      dilations=(6, 12, 18))
    params = DreamParams.create(cfg, np.random.default_rng(9))
    out = dream_forward(Tensor(np.random.default_rng(10).standard_normal((n, d))),
                        params, cfg)
    assert out.shape == (n, d)


def test_dream_forward_gradient_check():
    cfg = DreamConfig(branch_channels=4, attention_reduction=4, dilations=(6, 12, 18))
    params = DreamParams.create(cfg, np.random.default_rng(11))
    rows = Tensor(np.random.default_rng(12).standard_normal((3, 16)),
                  requires_grad=True)
    probe = Tensor(np.random.default_rng(13).standard_normal((3, 16)))

    def f():
        return sum_all(mul(dream_forward(rows, params, cfg), probe))

    report = grad_check(f, {"rows": rows, **params.named("p")}, tol=1e-5)
    assert report.passed, report.max_rel_error
