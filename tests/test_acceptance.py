"""Acceptance gate: one test per criterion, each printing a PASS line.

The heavy criteria train real models on the planted-factor dataset
(300 users, 200 items, latent dim 8, 20 interactions per user, noise 0.1,
seed 0). Variant comparisons run at a fixed 70-epoch budget with early
stopping disabled so every variant gets the same optimization budget.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import io
import json
import math
import time

import numpy as np
import pytest

from alignrec.align import gaussian_kernel, infonce, mmd_squared
from alignrec.config import RunConfig
from alignrec.data import SynthSpec, synth_generate
from alignrec.diagnostics import align_stats, run_gradcheck
from alignrec.errors import ConfigError
from alignrec.model import (
    TripletBatch,
    bpr_loss,
    projection_param_count,
    target_dim,
)
from alignrec.tensor import Tensor
from alignrec.train import restore_model, run_training

from test_align import mmd_loop_oracle
from test_evaluation import metrics_oracle, recall_ndcg_at_k


def announce(number: int, message: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number} PASS: {message} ({elapsed:.1f}s)")


@pytest.fixture(scope="session")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    spec = SynthSpec(users=300, items=200, latent_dim=8,
                     interactions_per_user=20, noise=0.1, seed=0)
    return synth_generate(spec, root / "data"), root


def train(dataset, root, name, variant="full", seed=0, max_epochs=70,
          patience=10_000, **overrides) -> tuple[list[dict], object]:
    cfg = RunConfig(interactions=dataset["interactions"],
                    visual=dataset["visual"], text=dataset["text"],
                    out=str(root / name), seed=seed, variant=variant,
                    max_epochs=max_epochs, patience=patience, **overrides)
    stream = io.StringIO()
    run_training(cfg, stdout=stream)
    lines = [json.loads(line) for line in stream.getvalue().strip().splitlines()]
    return lines, root / name


@pytest.fixture(scope="session")
def battery(planted):
    """The fixed-budget variant runs shared by criterion 7."""
    dataset, root = planted
    started = time.perf_counter()
    runs = {}
    for variant in ("full", "text-only", "visual-only"):
        for seed in (0, 1, 2):
            lines, out = train(dataset, root, f"b_{variant}_{seed}",
                               variant=variant, seed=seed)
            runs[(variant, seed)] = (lines[-1], out)
    lines, out = train(dataset, root, "b_no-ga_0", variant="no-ga", seed=0)
    runs[("no-ga", 0)] = (lines[-1], out)
    return runs, time.perf_counter() - started


def test_c01_gradient_correctness():
    started = time.perf_counter()
    results, passed = run_gradcheck(seed=0, tol=1e-4, h=1e-6)
    elapsed = time.perf_counter() - started
    worst = max(r["worst_rel_error"] for r in results.values())
    assert passed, results
    assert set(results) == {"dream_forward", "mmd_squared", "infonce",
                            "bpr_loss", "l2_penalty", "propagate", "total_loss"}
    assert elapsed < 30.0
    announce(1, f"gradcheck worst rel error {worst:.2e} <= 1e-4", elapsed)


def test_c02_mmd_oracle():
    started = time.perf_counter()
    bandwidths = (1.0, 1.5, 2.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal((16, 8))
        t = rng.standard_normal((16, 8)) + rng.uniform(-0.5, 0.5)
        fast = mmd_squared(Tensor(v), Tensor(t), bandwidths).item()
        slow = mmd_loop_oracle(v, t, bandwidths)
        worst = max(worst, abs(fast - slow))
        assert abs(fast - slow) <= 1e-10
        flipped = mmd_squared(Tensor(t), Tensor(v), bandwidths).item()
        assert abs(fast - flipped) <= 1e-12
        self_dist = mmd_squared(Tensor(v), Tensor(v.copy()), bandwidths).item()
        assert -1e-12 <= self_dist <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(2, f"100 batches, worst oracle gap {worst:.2e} <= 1e-10", elapsed)


def test_c03_closed_form_spot_values():
    started = time.perf_counter()
    nce = infonce(Tensor(np.eye(2)), Tensor(np.eye(2)), 1.0).item()
    assert abs(nce - 0.313262) <= 1e-6

    batch = TripletBatch(users=np.array([0]), pos_items=np.array([0]),
                         neg_items=np.array([1]))
    zero_margin = bpr_loss(batch, Tensor(np.ones((1, 2))),
                           Tensor(np.ones((2, 2)))).item()
    assert abs(zero_margin - math.log(2.0)) <= 1e-12

    sigma = 0.9
    v = np.zeros(3)
    t = np.array([sigma * math.sqrt(2.0), 0.0, 0.0])
    assert abs(gaussian_kernel(v, t, sigma) - math.exp(-1.0)) <= 1e-12

    _, ndcg = recall_ndcg_at_k([5, 3], {3}, 10)
    assert abs(ndcg - 1.0 / math.log2(3.0)) <= 1e-12
    announce(3, "InfoNCE, BPR, kernel and NDCG spot values match",
             time.perf_counter() - started)


def test_c04_metric_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 11))
        ranked = [int(i) for i in rng.permutation(n)[:int(rng.integers(1, n + 1))]]
        relevant = set(int(i) for i in rng.choice(
            n, size=int(rng.integers(1, n + 1)), replace=False))
        got = recall_ndcg_at_k(ranked, relevant, k)
        want = metrics_oracle(ranked, relevant, k)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(4, "recall/NDCG match the definitional oracle on 200 instances",
             elapsed)


def test_c05_dimension_rule():
    started = time.perf_counter()
    assert target_dim(4096, 384, 8) == 48
    assert target_dim(4096, 384, 1) == 384
    with pytest.raises(ConfigError):
        target_dim(16, 16, 32)
    announce(5, "target_dim(4096, 384, 8) = 48; r=1 identity; sub-unit rejected",
             time.perf_counter() - started)


def test_c06_planted_structure_learning(planted):
    dataset, root = planted
    started = time.perf_counter()
    lines, _ = train(dataset, root, "c6_defaults", max_epochs=200, patience=20)
    elapsed = time.perf_counter() - started
    final = lines[-1]
    assert final["split"] == "test"
    assert final["recall@20"] >= 0.30, final
    assert elapsed < 300.0
    announce(6, f"test recall@20 {final['recall@20']:.3f} >= 0.30 "
                f"(random expectation ~0.10)", elapsed)


def test_c07_ablation_direction(battery):
    runs, train_time = battery
    started = time.perf_counter()

    def mean_recall(variant):
        return np.mean([runs[(variant, s)][0]["recall@20"] for s in (0, 1, 2)])

    full = mean_recall("full")
    text_only = mean_recall("text-only")
    visual_only = mean_recall("visual-only")
    assert full >= text_only, (full, text_only)
    assert full >= visual_only, (full, visual_only)

    def stats_for(key):
        model, _, _ = restore_model(runs[key][1] / "checkpoint.mrec")
        return align_stats(model)["mmd_mean"]

    aligned = stats_for(("full", 0))
    unaligned = stats_for(("no-ga", 0))
    assert aligned < unaligned, (aligned, unaligned)
    elapsed = train_time + time.perf_counter() - started
    assert elapsed < 1200.0
    announce(7, f"mean recall@20 full {full:.3f} >= text {text_only:.3f}, "
                f">= visual {visual_only:.3f}; MMD {aligned:.4f} < {unaligned:.4f}",
             elapsed)


def test_c08_reduction_factor_accounting(tmp_path_factory):
    started = time.perf_counter()
    assert projection_param_count(512, 384, 8) == 48 * (512 + 384)
    assert projection_param_count(512, 384, 1) == 384 * (512 + 384)

    root = tmp_path_factory.mktemp("reduction")
    spec = SynthSpec(users=120, items=100, latent_dim=8,
                     interactions_per_user=10, visual_dim=512, text_dim=384,
                     noise=0.1, seed=0)
    dataset = synth_generate(spec, root / "data")

    def epoch_ms(reduction):
        lines, _ = train(dataset, root, f"r{reduction}", max_epochs=2,
                         reduction=reduction)
        return np.mean([r["wall_ms"] for r in lines if r["split"] == "validation"])

    fast = epoch_ms(8)
    slow = epoch_ms(1)
    assert fast < slow, (fast, slow)
    elapsed = time.perf_counter() - started
    announce(8, f"projection params 43008 vs 344064; epoch {fast:.0f}ms (r=8) "
                f"< {slow:.0f}ms (r=1)", elapsed)


def test_c09_exact_ablation_code_paths():
    from test_model import tiny_model
    from alignrec.model import encode_items, reduce_modalities
    from alignrec.diagnostics import inner
    from alignrec.tensor import add, scale

    started = time.perf_counter()
    model, batch, _ = tiny_model(variant="no-ga")
    loss, _ = model.total_loss(batch)
    user_repr, item_repr, _ = model.representations()
    expected = scale(bpr_loss(batch, user_repr, item_repr), 1.0 / len(batch))
    reg = None
    for p in model.params.regularized():
        term = inner(p, p.data)
        reg = term if reg is None else add(reg, term)
    expected = add(expected, scale(reg, model.hp.lambda_reg))
    assert loss.item() == expected.item()

    model2, _, _ = tiny_model(variant="no-la")
    reduced_v, reduced_t = reduce_modalities(model2.features,
                                             model2.params).values()
    h_v, h_t = encode_items(*model2.features.values(), model2.params,
                            refine=model2.refine).values()
    assert np.array_equal(h_v.data, reduced_v.data)
    assert np.array_equal(h_t.data, reduced_t.data)
    announce(9, "no-ga loss and no-la encodings are bit-identical to their "
                "reduced forms", time.perf_counter() - started)


def test_c10_determinism(planted):
    dataset, root = planted
    started = time.perf_counter()

    def normalized_stream(name):
        _, out_dir = train(dataset, root, name, max_epochs=3, patience=20, seed=5)
        lines = []
        for line in (out_dir / "metrics.jsonl").read_text().splitlines():
            record = json.loads(line)
            record["wall_ms"] = 0  # timing is the one nondeterministic field
            lines.append(json.dumps(record))
        return "\n".join(lines), (out_dir / "checkpoint.mrec").read_bytes()

    stream_a, ckpt_a = normalized_stream("det_a")
    stream_b, ckpt_b = normalized_stream("det_b")
    assert stream_a.encode() == stream_b.encode()
    assert ckpt_a == ckpt_b
    announce(10, "identical seeds give byte-identical metrics (modulo wall_ms) "
                 "and checkpoints", time.perf_counter() - started)
