"""Model contracts: dimension rule, encoders, propagation, fusion, objective,
exact ablation code paths, checkpoint format."""

import math

import numpy as np
import pytest

from alignrec.diagnostics import inner
from alignrec.errors import ConfigError, DataFormatError
from alignrec.gradcheck import grad_check
from alignrec.model import (
    HyperParams,
    ModelParams,
    Recommender,
    TripletBatch,
    bpr_loss,
    build_propagation_operator,
    encode_items,
    fuse,
    l2_penalty,
    load_checkpoint,
    projection_param_count,
    propagate,
    reduce_modalities,
    save_checkpoint,
    target_dim,
)
from alignrec.tensor import (
    ParameterError,
    Tape,
    Tensor,
    UsageError,
    add,
    backward,
    scale,
)

from test_align import _taped


def tiny_model(seed=0, variant="full", **hp_kwargs):
    defaults = dict(reduction=2, id_dim=8, branch_channels=4, graph_layers=2)
    defaults.update(hp_kwargs)
    hp = HyperParams(variant=variant, **defaults)
    rng = np.random.default_rng(seed)
    params = ModelParams.create(5, 8, 32, 32, hp, rng)
    pairs = []
    for u in range(5):
        items = rng.choice(8, size=3, replace=False)
        pairs.extend((u, int(i)) for i in items)
    pairs = np.array(pairs, dtype=np.int64)
    operator = build_propagation_operator(pairs, 5, 8)
    x_visual = Tensor(rng.standard_normal((8, 32)) * 0.3)
    x_text = Tensor(rng.standard_normal((8, 32)) * 0.3)
    if variant == "text-only":
        x_visual = None
    if variant == "visual-only":
        x_text = None
    model = Recommender(params, hp, x_visual, x_text, operator)
    negs = []
    rng2 = np.random.default_rng(seed + 99)
    pos_sets = {}
    for u, i in pairs:
        pos_sets.setdefault(int(u), set()).add(int(i))
    for u, _ in pairs:
        while True:
            j = int(rng2.integers(0, 8))
            if j not in pos_sets[int(u)]:
                negs.append(j)
                break
    batch = TripletBatch(users=pairs[:, 0].copy(), pos_items=pairs[:, 1].copy(),
                         neg_items=np.array(negs, dtype=np.int64))
    return model, batch, pairs


# ---------------------------------------------------------------------------
# dimension rule and projections
# ---------------------------------------------------------------------------

def test_target_dim_pretrained_extractor_widths():
    # VGG16-style visual features against sentence-embedding text features
    assert target_dim(4096, 384, 8) == 48


def test_target_dim_identity_and_errors():
    assert target_dim(100, 60, 1) == 60
    with pytest.raises(ConfigError, match="32.*16.*16|16.*16.*32"):
        target_dim(16, 16, 32)
    with pytest.raises(ParameterError):
        target_dim(16, 16, 0)


def test_projection_param_count_scales_with_reduction():
    full = projection_param_count(512, 384, 1)
    reduced = projection_param_count(512, 384, 8)
    assert full == 384 * (512 + 384)
    assert reduced == 48 * (512 + 384)
    assert reduced * 8 == full


def test_reduce_modalities_zero_and_identity():
    hp = HyperParams(reduction=1, id_dim=4, branch_channels=4)
    params = ModelParams.create(3, 4, 6, 6, hp, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((4, 6)))
    params.branches["visual"].reduce.data = np.eye(6)
    v, t = reduce_modalities(x, x, params)
    assert np.array_equal(v.data, x.data)
    params.branches["text"].reduce.data[:] = 0.0
    _, t = reduce_modalities(x, x, params)
    assert np.array_equal(t.data, np.zeros((4, 6)))


# ---------------------------------------------------------------------------
# item encoding and ablation bypass
# ---------------------------------------------------------------------------

def test_encode_items_bypass_is_bit_identical_to_reduction():
    model, _, _ = tiny_model()
    reduced_v, reduced_t = reduce_modalities(model.x_visual, model.x_text,
                                             model.params)
    h_v, h_t = encode_items(model.x_visual, model.x_text, model.params,
                            refine=False)
    assert np.array_equal(h_v.data, reduced_v.data)
    assert np.array_equal(h_t.data, reduced_t.data)


def test_encode_items_shapes_and_gradients_flow():
    model, _, _ = tiny_model()
    with Tape() as tape:
        h_v, h_t = encode_items(model.x_visual, model.x_text, model.params)
        loss = inner(h_v, np.ones(h_v.shape))
    assert h_v.shape == (8, 16) and h_t.shape == (8, 16)
    backward(loss, tape)
    assert np.any(model.params.branches["visual"].reduce.grad != 0.0)
    assert np.any(model.params.branches["visual"].dream.point_kernel.grad != 0.0)


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_zero_layers_is_identity():
    model, _, pairs = tiny_model()
    p, q = model.params.user_emb, model.params.item_emb
    out_p, out_q = propagate(p, q, model.operator, 0)
    assert out_p is p and out_q is q


def test_propagate_two_node_oracle():
    pairs = np.array([[0, 0]], dtype=np.int64)
    operator = build_propagation_operator(pairs, 1, 1)
    p = Tensor(np.array([[2.0, 4.0]]))
    q = Tensor(np.array([[-1.0, 3.0]]))
    out_p, out_q = propagate(p, q, operator, 1)
    assert np.allclose(out_p.data, 0.5 * (p.data + q.data))
    assert np.allclose(out_q.data, 0.5 * (p.data + q.data))


def test_propagation_operator_row_sums_at_most_one():
    rng = np.random.default_rng(0)
    pairs = np.array([(u, int(i)) for u in range(10)
                      for i in rng.choice(15, size=4, replace=False)],
                     dtype=np.int64)
    operator = build_propagation_operator(pairs, 10, 15)
    row_sums = operator @ np.ones(25)
    assert np.all(row_sums <= 1.0 + 1e-12)


def test_propagation_degree_zero_guard():
    pairs = np.array([[0, 0]], dtype=np.int64)
    operator = build_propagation_operator(pairs, 2, 1)  # user 1 isolated
    p = Tensor(np.array([[1.0, 1.0], [5.0, -3.0]]))
    q = Tensor(np.array([[2.0, 2.0]]))
    out_p, _ = propagate(p, q, operator, 3)
    assert np.allclose(out_p.data[1], p.data[1])


# ---------------------------------------------------------------------------
# fusion and scoring
# ---------------------------------------------------------------------------

def test_fuse_zero_projections_gives_collaborative_items():
    model, _, _ = tiny_model()
    model.params.branches["visual"].fuse.data[:] = 0.0
    model.params.branches["text"].fuse.data[:] = 0.0
    _, item_repr, _, _ = model.representations()
    p_star, q_star = propagate(model.params.user_emb, model.params.item_emb,
                               model.operator, model.hp.graph_layers)
    assert np.allclose(item_repr.data, q_star.data)


def test_fuse_full_is_average_of_single_contributions():
    model, _, _ = tiny_model()
    h_v, h_t = encode_items(model.x_visual, model.x_text, model.params)
    p_star, q_star = propagate(model.params.user_emb, model.params.item_emb,
                               model.operator, 2)
    _, both = fuse(p_star, q_star, h_v, h_t, model.params)
    _, only_v = fuse(p_star, q_star, h_v, None, model.params)
    _, only_t = fuse(p_star, q_star, None, h_t, model.params)
    lhs = both.data - q_star.data
    rhs = 0.5 * ((only_v.data - q_star.data) + (only_t.data - q_star.data))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fuse_text_only_term():
    model, _, _ = tiny_model(variant="text-only")
    h_v, h_t = encode_items(None, model.x_text, model.params)
    p_star, q_star = propagate(model.params.user_emb, model.params.item_emb,
                               model.operator, 2)
    _, item_repr = fuse(p_star, q_star, None, h_t, model.params)
    expected = q_star.data + h_t.data @ model.params.branches["text"].fuse.data
    assert np.max(np.abs(item_repr.data - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_bpr_zero_margin_is_log_two_per_triple():
    users = Tensor(np.ones((1, 3)))
    items = Tensor(np.ones((2, 3)))  # identical scores for pos and neg
    batch = TripletBatch(users=np.array([0]), pos_items=np.array([0]),
                         neg_items=np.array([1]))
    assert abs(bpr_loss(batch, users, items).item() - math.log(2.0)) <= 1e-12


def test_bpr_unit_margin_closed_form():
    users = Tensor(np.array([[1.0]]))
    items = Tensor(np.array([[1.0], [0.0]]))
    batch = TripletBatch(users=np.array([0]), pos_items=np.array([0]),
                         neg_items=np.array([1]))
    expected = -math.log(1.0 / (1.0 + math.exp(-1.0)))
    assert abs(bpr_loss(batch, users, items).item() - expected) <= 1e-12
    assert abs(expected - 0.313262) <= 1e-6


def test_bpr_decreases_with_margin():
    batch = TripletBatch(users=np.array([0]), pos_items=np.array([0]),
                         neg_items=np.array([1]))
    losses = []
    for margin in (0.0, 0.5, 1.0, 2.0):
        items = Tensor(np.array([[margin], [0.0]]))
        losses.append(bpr_loss(batch, Tensor(np.array([[1.0]])), items).item())
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_bpr_empty_batch_errors():
    empty = TripletBatch(users=np.array([], dtype=np.int64),
                         pos_items=np.array([], dtype=np.int64),
                         neg_items=np.array([], dtype=np.int64))
    with pytest.raises(UsageError):
        bpr_loss(empty, Tensor(np.ones((1, 2))), Tensor(np.ones((1, 2))))


def test_bpr_extreme_margins_stay_finite():
    """A margin of 1e3 either way overflows neither the loss nor its
    gradient: a triple's loss is 0 or minus its margin, and its sigmoid
    weight 0 or 1."""
    users = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
    items = Tensor(np.array([[1e3], [0.0], [-1e3]]), requires_grad=True)
    batch = TripletBatch(users=np.array([0, 1]), pos_items=np.array([0, 2]),
                         neg_items=np.array([1, 1]))
    with np.errstate(over="raise", invalid="raise", divide="raise"), Tape() as tape:
        loss = bpr_loss(batch, users, items)
        backward(loss, tape)
    assert loss.item() == 1e3
    assert np.array_equal(users.grad, [[0.0], [1e3]])
    assert np.array_equal(items.grad, [[0.0], [1.0], [-1.0]])


def test_total_loss_all_zero_weights_equals_bpr():
    model, batch, _ = tiny_model(lambda_cl=0.0, lambda_mmd=0.0, lambda_reg=0.0)
    loss, parts = model.total_loss(batch)
    user_repr, item_repr, _, _ = model.representations()
    expected = bpr_loss(batch, user_repr, item_repr).item() / len(batch)
    assert loss.item() == expected
    assert parts["mmd"] == 0.0 and parts["infonce"] == 0.0 and parts["reg"] == 0.0


def test_total_loss_zero_params_zero_regularizer():
    model, batch, _ = tiny_model(lambda_cl=0.0, lambda_mmd=0.0, lambda_reg=0.5)
    for p in model.params.regularized():
        p.data[:] = 0.0
    _, parts = model.total_loss(batch)
    assert parts["reg"] == 0.0


def test_total_loss_is_weighted_sum_of_independent_terms():
    from alignrec.align import infonce, mmd_squared
    # default weights, then a single alignment term (the other is skipped)
    for weights in ({}, {"lambda_mmd": 0.4, "lambda_cl": 0.0}):
        model, batch, _ = tiny_model(**weights)
        hp = model.hp
        loss, parts = model.total_loss(batch)

        user_repr, item_repr, h_v, h_t = model.representations()
        expected = bpr_loss(batch, user_repr, item_repr).item() / len(batch)
        unique_pos = np.unique(batch.pos_items)
        hv = Tensor(h_v.data[unique_pos])
        ht = Tensor(h_t.data[unique_pos])
        expected += hp.lambda_mmd * mmd_squared(hv, ht, hp.bandwidths).item()
        expected += hp.lambda_cl * infonce(hv, ht, hp.temperature).item()
        expected += hp.lambda_reg * sum(float((p.data ** 2).sum())
                                        for p in model.params.regularized())
        assert abs(loss.item() - expected) <= 1e-12
        assert (parts["infonce"] == 0.0) == (hp.lambda_cl == 0.0)


def test_no_ga_variant_is_bit_identical_to_bpr_plus_reg():
    model, batch, _ = tiny_model(variant="no-ga")
    loss, _ = model.total_loss(batch)

    user_repr, item_repr, _, _ = model.representations()
    expected = scale(bpr_loss(batch, user_repr, item_repr), 1.0 / len(batch))
    reg = None
    for p in model.params.regularized():
        term = inner(p, p.data)
        reg = term if reg is None else add(reg, term)
    expected = add(expected, scale(reg, model.hp.lambda_reg))
    assert loss.item() == expected.item()


def test_total_loss_gradient_matches_finite_differences():
    model, batch, _ = tiny_model(seed=1)
    report = grad_check(lambda: model.total_loss(batch)[0],
                        model.params.named(), tol=1e-4, max_coords_per_param=6)
    assert report.passed, report.max_rel_error


def test_item_scaling_preserves_rankings():
    model, _, _ = tiny_model()
    user_repr, item_repr, _, _ = model.representations()
    scores = user_repr.data @ item_repr.data.T
    scaled = user_repr.data @ (4.2 * item_repr.data).T
    for u in range(scores.shape[0]):
        assert np.array_equal(np.argsort(-scores[u], kind="stable"),
                              np.argsort(-scaled[u], kind="stable"))


def test_reduces_to_matrix_factorization_bpr():
    from alignrec.tensor import scale
    model, batch, _ = tiny_model(lambda_cl=0.0, lambda_mmd=0.0, lambda_reg=0.0,
                                 graph_layers=0)
    model.params.branches["visual"].fuse.data[:] = 0.0
    model.params.branches["text"].fuse.data[:] = 0.0
    loss, _ = model.total_loss(batch)
    plain = bpr_loss(batch, model.params.user_emb, model.params.item_emb)
    assert loss.item() == scale(plain, 1.0 / len(batch)).item()


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError) as err:
        HyperParams(variant="bogus")
    assert str(err.value) == ("unknown variant 'bogus'; valid: full, no-la, "
                              "no-ga, text-only, visual-only")


# ---------------------------------------------------------------------------
# fused blocks: pinned bits and one tape node each
# ---------------------------------------------------------------------------

# Recorded from the tapes of separate operations these blocks recorded
# before each became one node (x86-64, numpy 2.4, scipy 1.17): 3 gathers,
# 2 products, 2 row sums, difference, negation, softplus and sum for BPR;
# square, sum and add per tensor for l2; stack, L x (sparse product, add)
# and scale for propagation.
BPR_DIGEST = "34050ce5c5c2796d1fbc21227768b8a4f6d93dde5eecc049c9ce1bff3f90aa40"
L2_DIGEST = "75b8d060e6bf9f43654a68b924a383892a1784a4126823149c45b8a1322bf11e"
PROPAGATE_DIGESTS = {
    0: "cc635c3cea3a6bbea12b8b9811b6f81153ee5b109c6d7c23130d37a7593ea19f",
    1: "cd3e7680d56f4d38a339d50779c79c4e18cc70b83daf6f6368357b14d7faef5f",
    2: "dbf0e3509339e9b6dd783f42d9ff06defc4c2d39be4f78bc134764f4365464e3",
    3: "1b6c0441828effdabb74a394738a75785dc81ca4f3a82a8cda5e295d4afbce2f",
}


def _bpr_case():
    """Margins up to about 170 either way, users and items drawn with
    repeats, and items that are a positive in one triple and a negative in
    another."""
    rng = np.random.default_rng(41)
    users = Tensor(rng.standard_normal((7, 6)) * 10.0 ** rng.integers(-3, 2, (7, 1)),
                   requires_grad=True)
    items = Tensor(rng.standard_normal((9, 6)) * 10.0 ** rng.integers(-3, 2, (9, 1)),
                   requires_grad=True)
    n = 300
    batch = TripletBatch(users=rng.integers(0, 7, n), pos_items=rng.integers(0, 9, n),
                         neg_items=rng.integers(0, 9, n))
    return batch, users, items


def _l2_tensors():
    rng = np.random.default_rng(42)
    out = []
    for shape in ((5, 3), (4,), (2, 3, 2), (1, 1), (6, 2)):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4, shape)
        values[rng.random(shape) < 0.3] = -0.0
        out.append(Tensor(values, requires_grad=True))
    return out


def _propagate_case():
    """User 3 and item 5 have no training pair, so the operator keeps their
    rows as identity rows."""
    rng = np.random.default_rng(43)
    pairs = np.array([[0, 0], [0, 1], [0, 4], [1, 1], [1, 2], [2, 0], [2, 3],
                      [2, 4], [1, 4]], dtype=np.int64)
    operator = build_propagation_operator(pairs, 4, 6)
    user_emb = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    item_emb = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    probes = (rng.standard_normal((4, 5)), rng.standard_normal((6, 5)))
    return user_emb, item_emb, operator, probes


def test_bpr_bits_match_per_op_tape():
    batch, users, items = _bpr_case()
    got = _taped(lambda: scale(bpr_loss(batch, users, items), 1.0 / len(batch)),
                 (users, items))
    assert got == BPR_DIGEST


def test_l2_penalty_bits_match_per_op_tape():
    tensors = _l2_tensors()
    assert _taped(lambda: scale(l2_penalty(tensors), 1e-4), tensors) == L2_DIGEST


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_propagate_bits_match_per_op_tape(layers):
    user_emb, item_emb, operator, (user_probe, item_probe) = _propagate_case()

    def loss():
        p, q = propagate(user_emb, item_emb, operator, layers)
        return add(inner(p, user_probe), inner(q, item_probe))

    assert _taped(loss, (user_emb, item_emb)) == PROPAGATE_DIGESTS[layers]


# Recorded before propagation's outputs became row views, when each was cut
# from the node by a slicing node of its own (x86-64, numpy 2.4, OpenBLAS).
ONE_OUTPUT_DIGESTS = {
    (1, "users"): "4fdb5a687bafaff4a3abf608ed539d7d82fe25cdcd40451281985db8861aa848",
    (1, "items"): "c7376c37b8c1ccc99d8b951b4d46dfda6f1668300d697bf180f7fe03e19400f8",
    (3, "users"): "d94e723100b1e7da5b67a38c46d9a75f67a22a0d7aa657ee77c37448dbef3ff3",
    (3, "items"): "7a115fbe43029839fde8573cdd75c316a44bd3c67a3fa47f7ec394f25309a8f1",
}


@pytest.mark.parametrize("layers,read", list(ONE_OUTPUT_DIGESTS), ids=str)
def test_propagate_loss_of_one_output_reaches_both_embeddings(layers, read):
    """A loss that reads only the user rows, or only the item rows, still
    gives both embeddings their gradients through the graph, and the rows it
    does not read add zeros."""
    user_emb, item_emb, operator, probes = _propagate_case()
    which = ("users", "items").index(read)

    def loss():
        return inner(propagate(user_emb, item_emb, operator, layers)[which],
                     probes[which])

    assert _taped(loss, (user_emb, item_emb)) == ONE_OUTPUT_DIGESTS[layers, read]


def _recorded(f) -> list[str]:
    """Names of the blocks whose nodes `f` records, in tape order."""
    with Tape() as tape:
        f()
    return [bw.__qualname__.split(".", 1)[0] for _, _, bw in tape._nodes]


def test_bpr_and_l2_record_one_tape_node():
    batch, users, items = _bpr_case()
    assert _recorded(lambda: bpr_loss(batch, users, items)) == ["bpr_loss"]
    tensors = _l2_tensors()
    assert _recorded(lambda: l2_penalty(tensors)) == ["l2_penalty"]


def test_propagate_records_one_node_and_two_slices():
    """The two slices are row views of the node's output, not nodes, and
    their gradients row views of the node's gradient."""
    user_emb, item_emb, operator, _ = _propagate_case()
    with Tape() as tape:
        p, q = propagate(user_emb, item_emb, operator, 3)
    (mean, _, _), = tape._nodes
    assert p.data.base is mean.data and q.data.base is mean.data
    assert p.grad.base is mean.grad and q.grad.base is mean.grad
    assert _recorded(lambda: propagate(user_emb, item_emb, operator, 3)) == ["propagate"]


def test_training_step_records_22_tape_nodes():
    """Propagation 1, encoding 3 (two reductions, one refinement of both
    modalities), fusion 5, BPR 2, alignment rows 2, MMD 3, InfoNCE 3 and
    l2 3."""
    model, batch, _ = tiny_model()
    assert len(_recorded(lambda: model.total_loss(batch))) == 22


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model, _, _ = tiny_model(seed=2)
    path = tmp_path / "model.mrec"
    save_checkpoint(path, model.params.named())
    arrays = load_checkpoint(path)
    for name, tensor in model.params.named().items():
        assert np.array_equal(arrays[name], tensor.data)

    clone, _, _ = tiny_model(seed=3)
    clone.params.load_state(arrays)
    for name, tensor in clone.params.named().items():
        assert np.array_equal(tensor.data, model.params.named()[name].data)


# `ModelParams.named()` of `tiny_model` per variant, recorded before the
# modality branches became one table. The keys are the checkpoint's
# parameter names, so a checkpoint saved earlier must still load.
_DREAM_NAMED = [
    ("point_kernel", (4, 1)), ("pool_kernel", (4, 1)),
    ("squeeze_weight", (20, 5)), ("restore_weight", (5, 20)),
    ("spatial_kernel", (1, 1)), ("spatial_bias", (1, 1)), ("out_kernel", (1, 20)),
    ("dilated_kernel_0", (4, 1, 3)), ("dilated_kernel_1", (4, 1, 3)),
    ("dilated_kernel_2", (4, 1, 3)),
]
NAMED_SHAPES = {
    "full": [
        ("user_emb", (5, 8)), ("item_emb", (8, 8)),
        ("visual_reduce", (32, 16)), ("text_reduce", (32, 16)),
        ("visual_fuse", (16, 8)), ("text_fuse", (16, 8)),
        *((f"dream_visual.{name}", shape) for name, shape in _DREAM_NAMED),
        *((f"dream_text.{name}", shape) for name, shape in _DREAM_NAMED),
    ],
    "text-only": [
        ("user_emb", (5, 8)), ("item_emb", (8, 8)),
        ("text_reduce", (32, 16)), ("text_fuse", (16, 8)),
        *((f"dream_text.{name}", shape) for name, shape in _DREAM_NAMED),
    ],
    "visual-only": [
        ("user_emb", (5, 8)), ("item_emb", (8, 8)),
        ("visual_reduce", (32, 16)), ("visual_fuse", (16, 8)),
        *((f"dream_visual.{name}", shape) for name, shape in _DREAM_NAMED),
    ],
}

# `ModelParams.regularized()` by name, recorded with NAMED_SHAPES: the order
# the l2 penalty sums its terms in.
_DREAM_REGULARIZED = ["point_kernel", "dilated_kernel_0", "dilated_kernel_1",
                      "dilated_kernel_2", "pool_kernel", "squeeze_weight",
                      "restore_weight", "spatial_kernel", "out_kernel"]
REGULARIZED_NAMES = {
    "full": ["user_emb", "item_emb", "visual_reduce", "text_reduce",
             "visual_fuse", "text_fuse",
             *(f"dream_visual.{name}" for name in _DREAM_REGULARIZED),
             *(f"dream_text.{name}" for name in _DREAM_REGULARIZED)],
    "text-only": ["user_emb", "item_emb", "text_reduce", "text_fuse",
                  *(f"dream_text.{name}" for name in _DREAM_REGULARIZED)],
    "visual-only": ["user_emb", "item_emb", "visual_reduce", "visual_fuse",
                    *(f"dream_visual.{name}" for name in _DREAM_REGULARIZED)],
}


@pytest.mark.parametrize("variant", ["full", "text-only", "visual-only"])
def test_named_parameters_keep_their_keys_order_and_shapes(variant):
    model, _, _ = tiny_model(variant=variant)
    named = [(name, t.shape) for name, t in model.params.named().items()]
    assert named == NAMED_SHAPES[variant]


@pytest.mark.parametrize("variant", ["full", "text-only", "visual-only"])
def test_regularized_parameters_keep_their_order(variant):
    model, _, _ = tiny_model(variant=variant)
    named = model.params.named()
    regularized = model.params.regularized()
    assert len(regularized) == len(REGULARIZED_NAMES[variant])
    for tensor, name in zip(regularized, REGULARIZED_NAMES[variant]):
        assert tensor is named[name], name


def test_checkpoint_bytes_are_deterministic(tmp_path):
    model, _, _ = tiny_model(seed=4)
    a, b = tmp_path / "a.mrec", tmp_path / "b.mrec"
    save_checkpoint(a, model.params.named())
    save_checkpoint(b, model.params.named())
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_write_failure_keeps_old_file(tmp_path):
    class Unreadable:
        @property
        def data(self):
            raise OSError("no space left on device")

    model, _, _ = tiny_model(seed=4)
    path = tmp_path / "model.mrec"
    save_checkpoint(path, model.params.named())
    before = path.read_bytes()
    # names sort so that some parameters are written before the failure
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, {**model.params.named(), "m_unreadable": Unreadable()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.mrec"]


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    model, _, _ = tiny_model(seed=5)
    path = tmp_path / "model.mrec"
    save_checkpoint(path, model.params.named())
    blob = path.read_bytes()

    bad = tmp_path / "bad.mrec"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(bad)

    short = tmp_path / "short.mrec"
    short.write_bytes(blob[:len(blob) - 9])
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(short)


def test_load_state_shape_mismatch(tmp_path):
    model, _, _ = tiny_model(seed=6)
    path = tmp_path / "model.mrec"
    save_checkpoint(path, model.params.named())
    arrays = load_checkpoint(path)
    arrays["user_emb"] = arrays["user_emb"][:, :4]
    with pytest.raises(DataFormatError, match="user_emb"):
        model.params.load_state(arrays)
