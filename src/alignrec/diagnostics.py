"""Seeded gradient-check suite and alignment diagnostics for the CLI."""

from __future__ import annotations

import numpy as np

from .align import infonce, mmd_squared, normalize_rows
from .data import save_fmat
from .dream import DreamParams, dream_forward
from .errors import ConfigError
from .evaluation import pair_mask, sample_negatives
from .gradcheck import GradCheckReport, check_settings, grad_check
from .model import (
    HyperParams,
    ModelParams,
    Recommender,
    TripletBatch,
    bpr_loss,
    build_propagation_operator,
    l2_penalty,
    propagate,
)
from .tensor import Tensor, _make_out


def inner(y: Tensor, probe: np.ndarray) -> Tensor:
    """`(y * probe).sum()` as one node: a scalar that reads every entry of
    `y`, whose gradient for `y` is `probe`."""
    return _make_out((y.data * probe).sum(), (y,), lambda g: (g * probe,))


def _random_triples(rng: np.random.Generator, n_users: int, n_items: int,
                    per_user: int) -> tuple[np.ndarray, TripletBatch]:
    users = np.repeat(np.arange(n_users), per_user)
    items = np.concatenate([rng.choice(n_items, size=per_user, replace=False)
                            for _ in range(n_users)])
    pairs = np.stack([users, items], axis=1)
    negs = sample_negatives(users, pair_mask(pairs, n_users, n_items), rng)
    return pairs, TripletBatch(users=users, pos_items=items, neg_items=negs)


def build_suite(seed: int) -> list[tuple[str, object, dict]]:
    """Named scalar functions with their parameter dicts, all on one seeded
    (5 users, 8 items, width 16, 4 branch channels) instance."""
    rng = np.random.default_rng(seed)
    suite = []
    hp = HyperParams(reduction=2, id_dim=8, branch_channels=4, graph_layers=2)

    # dilated refinement block end to end
    dream = DreamParams.create(hp, rng)
    x = Tensor(rng.standard_normal((3, 16)), requires_grad=True)
    probe = rng.standard_normal((3, 16))
    dream_params = {"input": x, **dream.named("dream")}

    def dream_loss():
        return inner(dream_forward([x], [dream])[0], probe)

    suite.append(("dream_forward", dream_loss, dream_params))

    # distribution distance between two trainable sample sets
    v = Tensor(rng.standard_normal((8, 16)), requires_grad=True)
    t = Tensor(rng.standard_normal((8, 16)) + 0.3, requires_grad=True)
    suite.append(("mmd_squared", lambda: mmd_squared(v, t, hp.bandwidths),
                  {"first": v, "second": t}))

    v2 = Tensor(rng.standard_normal((8, 16)), requires_grad=True)
    t2 = Tensor(rng.standard_normal((8, 16)), requires_grad=True)
    suite.append(("infonce", lambda: infonce(v2, t2, hp.temperature),
                  {"first": v2, "second": t2}))

    # pairwise ranking loss on trainable representations, their weight
    # penalty, and the loss after graph smoothing over the batch's pairs
    users = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    items = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
    bpr_pairs, bpr_batch = _random_triples(rng, 5, 8, 2)
    reprs = {"user_repr": users, "item_repr": items}
    suite.append(("bpr_loss", lambda: bpr_loss(bpr_batch, users, items), reprs))
    suite.append(("l2_penalty", lambda: l2_penalty([users, items]), reprs))
    graph = build_propagation_operator(bpr_pairs, 5, 8)
    suite.append(("propagate", lambda: bpr_loss(
        bpr_batch, *propagate(users, items, graph, hp.graph_layers)), reprs))

    # the joint objective over a full model instance
    model_rng = np.random.default_rng(seed + 1)
    params = ModelParams.create(5, 8, 32, 32, hp, model_rng)
    pairs, batch = _random_triples(model_rng, 5, 8, 3)
    operator = build_propagation_operator(pairs, 5, 8)
    x_visual = Tensor(model_rng.standard_normal((8, 32)))
    x_text = Tensor(model_rng.standard_normal((8, 32)))
    model = Recommender(params, hp, x_visual, x_text, operator)
    suite.append(("total_loss", lambda: model.total_loss(batch)[0], params.named()))

    return suite


def run_gradcheck(seed: int, tol: float, h: float,
                  max_coords: int = 8) -> tuple[dict, bool]:
    """Run every suite entry; returns (report dict, all passed)."""
    check_settings(h, tol, seed)
    results = {}
    all_passed = True
    for name, fn, params in build_suite(seed):
        report: GradCheckReport = grad_check(fn, params, h=h, tol=tol,
                                             max_coords_per_param=max_coords,
                                             seed=seed)
        results[name] = {
            "passed": report.passed,
            "worst_rel_error": report.worst,
            "per_param": report.max_rel_error,
        }
        all_passed = all_passed and report.passed
    return results, all_passed


def align_stats(model: Recommender, export_path=None) -> dict:
    """Distribution diagnostics between the two item encodings.

    Reports the kernel-form distribution distance per bandwidth and averaged,
    plus the mean cosine of matched cross-modality pairs; optionally exports
    the fused item representations for external plotting.
    """
    user_repr, item_repr, h_v, h_t = model.representations()
    if h_v is None or h_t is None:
        raise ConfigError("alignment stats require both modalities")
    per_bandwidth = {str(sigma): mmd_squared(h_v, h_t, (sigma,)).item()
                     for sigma in model.hp.bandwidths}
    combined = mmd_squared(h_v, h_t, model.hp.bandwidths)

    a, _ = normalize_rows(h_v.data)
    b, _ = normalize_rows(h_t.data)
    mean_cosine = float((a * b).sum(axis=1).mean())

    out = {"items": int(item_repr.shape[0]), "mmd": per_bandwidth,
           "mmd_mean": combined.item(), "mean_cosine": mean_cosine}
    if export_path is not None:
        save_fmat(export_path, item_repr.data)
        out["export"] = str(export_path)
    return out
