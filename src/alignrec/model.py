"""The recommender: reduced modality projections, refinement, graph smoothing,
fusion, inner-product scoring, BPR, and the joint training objective."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .align import check_bandwidths, check_temperature, infonce, mmd_squared
from .data import atomic_open
from .dream import BRANCHES, DreamParams, dream_forward, xavier_uniform
from .errors import ConfigError, DataFormatError
from .tensor import (
    ParameterError,
    Tensor,
    UsageError,
    _make_out,
    _row_index,
    _scatter_rows,
    add,
    gather_rows,
    matmul,
    row_views,
    scale,
    stable_sigmoid,
)

VISUAL = "visual"
TEXT = "text"
MODALITIES = (VISUAL, TEXT)
# Each variant is an exact code path: (the modalities it has, whether the
# refinement block runs, whether the alignment losses keep their weights).
VARIANTS = {
    "full": (MODALITIES, True, True),        # everything on
    "no-la": (MODALITIES, False, True),      # encodings are the reduced features
    "no-ga": (MODALITIES, True, False),      # alignment loss weights forced to zero
    "text-only": ((TEXT,), True, True),      # visual branch absent, no alignment
    "visual-only": ((VISUAL,), True, True),  # text branch absent, no alignment
}
# The joint objective's terms, in the order they are reported.
LOSS_TERMS = ("bpr", "mmd", "infonce", "reg")


def target_dim(visual_dim: int, text_dim: int, reduction: int) -> int:
    """Shared embedding width: floor(min(D_V, D_T) / r)."""
    return shared_width({VISUAL: visual_dim, TEXT: text_dim}, reduction)


def shared_width(dims: dict[str, int], reduction: int) -> int:
    """Shared embedding width of the modalities in `{modality: width}`:
    the narrowest width floor-divided by r."""
    if reduction < 1:
        raise ParameterError(f"reduction factor must be >= 1, got {reduction}")
    d = min(dims.values()) // reduction
    if d < 1:
        widths = ", ".join(f"{m} {w}" for m, w in dims.items())
        raise ConfigError(
            f"reduction factor {reduction} collapses feature dims ({widths}) below 1")
    return d


def projection_param_count(visual_dim: int, text_dim: int, reduction: int) -> int:
    """Entries in both reduction matrices at a given reduction factor."""
    return target_dim(visual_dim, text_dim, reduction) * (visual_dim + text_dim)


# Largest width, reduction factor or propagation hop count a config may ask
# for. Far wider arrays fail in numpy's allocator, and far more hops run
# without end, instead of failing the config check.
MAX_WIDTH = 1 << 16


@dataclass(frozen=True)
class HyperParams:
    """Loss weights, dimensions and architecture knobs for one model."""

    lambda_cl: float = 0.01
    lambda_mmd: float = 0.15
    lambda_reg: float = 1e-4
    reduction: int = 8
    id_dim: int = 64
    graph_layers: int = 2
    branch_channels: int = 8
    attention_reduction: int = 4
    dilations: tuple[int, ...] = (6, 12, 18)
    bandwidths: tuple[float, ...] = (1.0, 1.5, 2.0)
    temperature: float = 0.2
    symmetric_infonce: bool = False
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant '{self.variant}'; valid: {', '.join(VARIANTS)}")
        for name in ("reduction", "id_dim", "branch_channels", "graph_layers"):
            if getattr(self, name) > MAX_WIDTH:
                raise ConfigError(f"{name} must be <= {MAX_WIDTH}, "
                                  f"got {getattr(self, name)}")
        for name in ("reduction", "id_dim", "branch_channels", "attention_reduction"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.graph_layers < 0:
            raise ConfigError(f"graph_layers must be >= 0, got {self.graph_layers}")
        fused = BRANCHES * self.branch_channels
        if fused % self.attention_reduction != 0:
            raise ConfigError(
                f"fused channel count {fused} is not divisible by "
                f"attention_reduction {self.attention_reduction}")
        if len(self.dilations) != BRANCHES - 2 or any(d < 1 for d in self.dilations) \
                or list(self.dilations) != sorted(set(self.dilations)):
            raise ConfigError(
                f"dilations must be {BRANCHES - 2} strictly increasing positive ints, "
                f"got {self.dilations}")
        if not all(math.isfinite(w) and w >= 0
                   for w in (self.lambda_cl, self.lambda_mmd, self.lambda_reg)):
            raise ConfigError("loss weights must be finite and non-negative")
        # `mmd_squared` and `infonce` check their values too; checked with
        # the config, a bad value fails before data loads.
        try:
            check_temperature(self.temperature)
            check_bandwidths(self.bandwidths)
        except ParameterError as err:
            raise ConfigError(str(err)) from None


@dataclass
class Branch:
    """One modality's weights: its reduction to the shared width d, its
    refinement block, and its projection into the item embeddings."""

    reduce: Tensor
    dream: DreamParams
    fuse: Tensor


@dataclass
class ModelParams:
    """Every learnable tensor: the id embeddings, and one branch per present
    modality in MODALITIES order."""

    user_emb: Tensor
    item_emb: Tensor
    branches: dict[str, Branch] = field(default_factory=dict)

    @classmethod
    def create(cls, n_users: int, n_items: int, dims: dict[str, int],
               hp: HyperParams, rng: np.random.Generator) -> "ModelParams":
        """`dims` maps each modality to its feature width; only the
        variant's modalities are read."""
        dims = {m: dims[m] for m in VARIANTS[hp.variant][0]}
        d = shared_width(dims, hp.reduction)

        def t(shape):
            return Tensor(xavier_uniform(rng, shape, shape[0], shape[1]),
                          requires_grad=True)

        params = cls(user_emb=t((n_users, hp.id_dim)),
                     item_emb=t((n_items, hp.id_dim)))
        for modality, dim in dims.items():
            params.branches[modality] = Branch(reduce=t((dim, d)),
                                               dream=DreamParams.create(hp, rng),
                                               fuse=t((d, hp.id_dim)))
        return params

    def named(self) -> dict[str, Tensor]:
        """Checkpoint names: ids, the reduces, the fuses, then each DREAM."""
        out = {"user_emb": self.user_emb, "item_emb": self.item_emb}
        out.update({f"{m}_reduce": b.reduce for m, b in self.branches.items()})
        out.update({f"{m}_fuse": b.fuse for m, b in self.branches.items()})
        for m, b in self.branches.items():
            out.update(b.dream.named(f"dream_{m}"))
        return out

    def regularized(self) -> list[Tensor]:
        """The l2 penalty's terms, in the order it sums them."""
        out = [self.user_emb, self.item_emb]
        out += [b.reduce for b in self.branches.values()]
        out += [b.fuse for b in self.branches.values()]
        for b in self.branches.values():
            out += b.dream.regularized()
        return out

    def zero_grads(self) -> None:
        for p in self.named().values():
            p.zero_grad()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        mine = self.named()
        missing = sorted(set(mine) - set(arrays))
        extra = sorted(set(arrays) - set(mine))
        if missing or extra:
            raise DataFormatError(
                f"checkpoint does not match model: missing {missing}, unexpected {extra}")
        for name, p in mine.items():
            if arrays[name].shape != p.data.shape:
                raise DataFormatError(
                    f"checkpoint param '{name}' has shape {arrays[name].shape}, "
                    f"model expects {p.data.shape}")
            p.data = arrays[name].astype(np.float64).copy()


@dataclass
class TripletBatch:
    """(user, interacted item, sampled non-interacted item) index triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def reduce_modalities(features: dict[str, Tensor],
                      params: ModelParams) -> dict[str, Tensor]:
    """Project the raw features of each of `params`' modalities into the
    shared width d."""
    return {m: matmul(features[m], b.reduce) for m, b in params.branches.items()}


def encode_items(x_visual: Tensor | None, x_text: Tensor | None,
                 params: ModelParams, refine: bool = True) -> dict[str, Tensor]:
    """Reduced then refined item encodings of each present modality.

    The features come by position, None for an absent modality: the
    benchmark's tracer counts the rows encoded from the first two arguments.
    With refine=False the refinement stage is bypassed entirely and the
    outputs are exactly the reduced features (the local-alignment ablation).
    Otherwise every present modality is refined in one `dream_forward`.
    """
    reduced = reduce_modalities(dict(zip(MODALITIES, (x_visual, x_text))), params)
    if not refine:
        return reduced
    return dict(zip(reduced, dream_forward(
        list(reduced.values()), [b.dream for b in params.branches.values()])))


def build_propagation_operator(train_pairs: np.ndarray, n_users: int,
                               n_items: int) -> sp.csr_matrix:
    """Degree-normalized neighborhood-averaging operator on the bipartite graph.

    Row-stochastic: each node averages its neighbors, so applying the operator
    to all-ones yields values <= 1. Nodes with no training interactions get an
    identity row and keep their own embedding through every layer.
    """
    size = n_users + n_items
    if len(train_pairs) == 0:
        return sp.identity(size, format="csr")
    u = train_pairs[:, 0].astype(np.int64)
    i = train_pairs[:, 1].astype(np.int64) + n_users
    rows = np.concatenate([u, i])
    cols = np.concatenate([i, u])
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    degree = np.asarray(adj.sum(axis=1)).reshape(-1)
    isolated = np.flatnonzero(degree == 0)
    inv = np.zeros(size)
    inv[degree > 0] = 1.0 / degree[degree > 0]
    operator = sp.diags(inv) @ adj
    if isolated.size:
        operator = operator + sp.csr_matrix(
            (np.ones(isolated.size), (isolated, isolated)), shape=(size, size))
    return operator.tocsr()


def propagate(user_emb: Tensor, item_emb: Tensor, operator: sp.csr_matrix,
              layers: int) -> tuple[Tensor, Tensor]:
    """Average the embeddings of 0..layers propagation hops; 0 layers is identity.

    The mean over the stacked user and item rows is one tape node, and the
    two outputs are row views of it (`row_views`). Its backward replays the
    tape of the separate stack, L x (sparse product, add) and scale nodes:
    every partial sum of the hops gets the scaled gradient `t`, and from the
    last hop down, a hop gets `t` after the transposed product of the hop
    above it.
    """
    if layers < 0:
        raise ParameterError(f"layers must be >= 0, got {layers}")
    if layers == 0:
        return user_emb, item_emb
    n_users = user_emb.shape[0]
    weight = 1.0 / (layers + 1)
    current = np.concatenate([user_emb.data, item_emb.data])
    total = current.copy()
    for _ in range(layers):
        current = operator @ current
        total += current
    total *= weight

    def backward(g):
        # The transpose of a CSR matrix is a CSC view of the same arrays; its
        # product adds each output's terms in the order the CSR transpose
        # would, so nothing is converted.
        t = g * weight  # every partial sum's gradient; like `g`, it holds no -0.0
        hop = t
        for _ in range(layers - 1):
            hop = operator.T @ hop
            hop += t
        stacked = t + operator.T @ hop
        return stacked[:n_users], stacked[n_users:]

    return row_views(_make_out(total, (user_emb, item_emb), backward), n_users)


def fuse(user_out: Tensor, item_out: Tensor, encodings: dict[str, Tensor],
         params: ModelParams) -> tuple[Tensor, Tensor]:
    """Additive fusion: items absorb projected modality encodings, users stay
    collaborative. Both modalities average; a single one enters with weight 1."""
    terms = [matmul(h, params.branches[m].fuse) for m, h in encodings.items()]
    if len(terms) == 2:
        return user_out, add(item_out, scale(add(terms[0], terms[1]), 0.5))
    return user_out, add(item_out, terms[0])


def bpr_loss(batch: TripletBatch, user_repr: Tensor, item_repr: Tensor) -> Tensor:
    """Pairwise ranking loss: sum of -log sigmoid(pos score - neg score).

    One tape node. Its backward replays the tape of the separate gather,
    product, row-sum, difference, negation, softplus and sum nodes: the
    anchors get the negatives' term, then the positives'; `item_repr` gets
    the negatives' scatter, then the positives', then `user_repr` the
    anchors'.
    """
    if len(batch) == 0:
        raise UsageError("bpr_loss: empty batch")
    n_users, n_items = user_repr.shape[0], item_repr.shape[0]
    users = _row_index(batch.users, n_users, "bpr_loss")
    pos_items = _row_index(batch.pos_items, n_items, "bpr_loss")
    neg_items = _row_index(batch.neg_items, n_items, "bpr_loss")
    anchors = user_repr.data[users]
    pos = item_repr.data[pos_items]
    neg = item_repr.data[neg_items]
    x = -((anchors * pos).sum(axis=1) - (anchors * neg).sum(axis=1))

    def backward(g):
        # Each scatter sums from +0.0, so the sign of a zero term is lost
        # there and the tape's `+ 0.0` steps can be left out.
        g_pos_score = -(g * stable_sigmoid(x))
        g_neg_score = -g_pos_score
        g_anchors = g_neg_score[:, None] * neg
        g_anchors += g_pos_score[:, None] * pos
        return (_scatter_rows(neg_items, g_neg_score[:, None] * anchors, n_items),
                _scatter_rows(pos_items, g_pos_score[:, None] * anchors, n_items),
                _scatter_rows(users, g_anchors, n_users))

    return _make_out(np.logaddexp(0.0, x).sum(), (item_repr, item_repr, user_repr),
                     backward)


def l2_penalty(tensors: list[Tensor]) -> Tensor:
    """Sum of the squared entries of `tensors`, as one tape node: each term is
    `(p * p).sum()`, added in list order, and its gradient is `g * 2.0 * p`."""
    tensors = tuple(tensors)
    total = None
    for p in tensors:
        term = (p.data * p.data).sum()
        total = term if total is None else total + term

    def backward(g):
        return tuple(g * 2.0 * p.data if p.requires_grad else None for p in tensors)

    return _make_out(total, tensors, backward)


class Recommender:
    """Bundles parameters, constant item features (`{modality: features}` of
    the present modalities) and the propagation operator.

    `hp.variant` selects an exact code path through `VARIANTS`."""

    def __init__(self, params: ModelParams, hp: HyperParams,
                 features: dict[str, Tensor], operator: sp.csr_matrix):
        self.params = params
        self.hp = hp
        self.features = features
        self.operator = operator
        _, self.refine, aligned = VARIANTS[hp.variant]
        self.lambda_mmd = hp.lambda_mmd if aligned else 0.0
        self.lambda_cl = hp.lambda_cl if aligned else 0.0

    def representations(self) -> tuple[Tensor, Tensor, dict[str, Tensor]]:
        """Forward pass to fused user/item representations, and the item
        encodings of each present modality."""
        p_star, q_star = propagate(self.params.user_emb, self.params.item_emb,
                                   self.operator, self.hp.graph_layers)
        encodings = encode_items(*map(self.features.get, MODALITIES), self.params,
                                 refine=self.refine)
        user_repr, item_repr = fuse(p_star, q_star, encodings, self.params)
        return user_repr, item_repr, encodings

    def total_loss(self, batch: TripletBatch, representations: tuple | None = None
                   ) -> tuple[Tensor, dict[str, float]]:
        """Mean BPR + weighted alignment terms + l2 penalty.

        The ranking term is averaged over the batch so the alignment and
        regularization weights keep their meaning at any batch size.
        Zero-weight terms are skipped entirely, keeping ablated paths
        bit-identical to their reduced objective.

        `representations`, the output of `representations()` at the current
        parameters, is used in place of a new forward; to be differentiated,
        it must be recorded on the tape this loss is recorded on."""
        user_repr, item_repr, encodings = representations or self.representations()
        loss = scale(bpr_loss(batch, user_repr, item_repr), 1.0 / len(batch))
        parts = {**dict.fromkeys(LOSS_TERMS, 0.0), "bpr": loss.item()}
        if len(encodings) == 2 and (self.lambda_mmd != 0.0 or self.lambda_cl != 0.0):
            unique_pos = np.unique(batch.pos_items)
            hv_rows, ht_rows = (gather_rows(h, unique_pos) for h in encodings.values())
            if self.lambda_mmd != 0.0:
                # `scale` sends the MMD node exactly 1.0 * lambda_mmd
                mmd = mmd_squared(hv_rows, ht_rows, self.hp.bandwidths,
                                  expect=self.lambda_mmd)
                parts["mmd"] = mmd.item()
                loss = add(loss, scale(mmd, self.lambda_mmd))
            if self.lambda_cl != 0.0:
                nce = infonce(hv_rows, ht_rows, self.hp.temperature,
                              self.hp.symmetric_infonce)
                parts["infonce"] = nce.item()
                loss = add(loss, scale(nce, self.lambda_cl))
        if self.hp.lambda_reg != 0.0:
            reg = l2_penalty(self.params.regularized())
            parts["reg"] = reg.item()
            loss = add(loss, scale(reg, self.hp.lambda_reg))
        return loss, parts


# ---------------------------------------------------------------------------
# checkpoint format: magic, u32 version, then per parameter (lexicographic by
# name): u16 name length, name bytes, u8 rank, u32 extents, f64 LE values
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MREC"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, named: dict[str, Tensor]) -> None:
    """Write through `atomic_open`, so `path` holds either its old content
    or the whole new checkpoint."""
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name in sorted(named):
            data = np.ascontiguousarray(named[name].data, dtype="<f8")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", data.ndim))
            for extent in data.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(data.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    offset = 4
    out: dict[str, np.ndarray] = {}

    def need(n: int):
        if offset + n > len(blob):
            raise DataFormatError(
                f"{path}: truncated checkpoint, expected {offset + n} bytes, "
                f"have {len(blob)}")

    need(4)
    (version,) = struct.unpack_from("<I", blob, offset)
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    offset += 4
    while offset < len(blob):
        need(2)
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        need(name_len + 1)
        try:
            name = blob[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as err:
            raise DataFormatError(
                f"{path}: parameter name at byte {offset} is not UTF-8") from err
        offset += name_len
        (rank,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        need(4 * rank)
        shape = struct.unpack_from(f"<{rank}I", blob, offset) if rank else ()
        offset += 4 * rank
        count = math.prod(shape)  # exact: np.prod wraps around past 2**63
        need(8 * count)
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        out[name] = values.reshape(shape).astype(np.float64)
    return out
