"""Split protocol, negative sampling, top-K ranking and metrics, early stop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .tensor import ParameterError, UsageError


@dataclass
class SplitDataset:
    """Per-user disjoint train/validation/test interactions over dense ids."""

    n_users: int
    n_items: int
    train: np.ndarray       # (T, 2) [user, item]
    validation: np.ndarray  # (V, 2)
    test: np.ndarray        # (S, 2)
    train_positives: list[set[int]] = field(default_factory=list)
    validation_positives: list[set[int]] = field(default_factory=list)
    test_positives: list[set[int]] = field(default_factory=list)


def _positives_by_user(pairs: np.ndarray, n_users: int) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(n_users)]
    for u, i in pairs:
        out[int(u)].add(int(i))
    return out


def split_811(interactions: np.ndarray, n_users: int, n_items: int,
              seed: int) -> SplitDataset:
    """Shuffle each user's items and hold out ~10% validation and ~10% test.

    Counts are floors of 10% with a minimum of one each once the user has at
    least three interactions; users below that keep everything in train.
    """
    if len(interactions) == 0:
        raise UsageError("split_811: empty interaction set")
    rng = np.random.default_rng(seed)
    items_of: list[list[int]] = [[] for _ in range(n_users)]
    for u, i in interactions:
        items_of[int(u)].append(int(i))
    train, validation, test = [], [], []
    for u in range(n_users):
        items = np.array(sorted(items_of[u]), dtype=np.int64)
        n = len(items)
        if n == 0:
            continue
        rng.shuffle(items)
        if n >= 3:
            held = max(n // 10, 1)
            n_test, n_val = held, held
        else:
            n_test = n_val = 0
        test.extend((u, int(i)) for i in items[:n_test])
        validation.extend((u, int(i)) for i in items[n_test:n_test + n_val])
        train.extend((u, int(i)) for i in items[n_test + n_val:])

    def arr(pairs):
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)

    ds = SplitDataset(n_users=n_users, n_items=n_items, train=arr(train),
                      validation=arr(validation), test=arr(test))
    ds.train_positives = _positives_by_user(ds.train, n_users)
    ds.validation_positives = _positives_by_user(ds.validation, n_users)
    ds.test_positives = _positives_by_user(ds.test, n_users)
    return ds


def sample_negative(user: int, positives: set[int], n_items: int,
                    rng: np.random.Generator) -> int:
    """Uniform draw over items the user has not interacted with.

    Rejection sampling capped at 100 tries, then a uniform pick from the
    enumerated complement.
    """
    if len(positives) >= n_items:
        raise UsageError(f"user {user} interacted with every item; cannot sample")
    for _ in range(100):
        candidate = int(rng.integers(0, n_items))
        if candidate not in positives:
            return candidate
    complement = np.setdiff1d(np.arange(n_items), np.fromiter(positives, dtype=np.int64))
    return int(complement[rng.integers(0, len(complement))])


def rank_topk(user_repr: np.ndarray, item_repr: np.ndarray, user: int,
              mask: set[int], k: int) -> list[int]:
    """Top-k items by score, excluding masked ids, ties broken by item index."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    scores = item_repr @ user_repr[user]
    if mask:
        scores = scores.copy()
        scores[list(mask)] = -np.inf
    order = np.argsort(-scores, kind="stable")
    ranked = [int(i) for i in order if np.isfinite(scores[i])]
    return ranked[:k]


def recall_ndcg_at_k(ranked: list[int], relevant: set[int],
                     k: int) -> tuple[float, float]:
    """Recall and binary-gain NDCG of one ranking against a relevant set."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not relevant:
        raise UsageError("recall_ndcg_at_k: empty relevant set")
    top = ranked[:k]
    hits = sum(1 for item in top if item in relevant)
    recall = hits / len(relevant)
    dcg = sum(1.0 / math.log2(pos + 2)
              for pos, item in enumerate(top) if item in relevant)
    ideal = min(k, len(relevant))
    idcg = sum(1.0 / math.log2(pos + 2) for pos in range(ideal))
    return recall, dcg / idcg


# Score matrix entries per ranking block: 512 Ki float64 scores, 4 MiB.
_SCORE_BLOCK_ENTRIES = 1 << 19


def evaluate(user_repr: np.ndarray, item_repr: np.ndarray, split: SplitDataset,
             which: str = "test", ks: tuple[int, ...] = (10, 20)) -> dict[str, float]:
    """Mean recall/NDCG over users with held-out items in the chosen split.

    The ranking contract is the one `rank_topk` states for a single user:
    each user's scores are the mat-vec `item_repr @ user_repr[user]`, the
    user's training positives (from `split.train`) are masked, items with a
    non-finite score are never ranked, and ties go to the lower item index.
    Users are ranked in blocks whose score matrix holds at most
    `_SCORE_BLOCK_ENTRIES` entries, and the per-user metrics are summed in
    ascending user order.
    """
    held = {"validation": split.validation_positives,
            "test": split.test_positives}[which]
    k_max = max(ks)
    users = [user for user in range(split.n_users) if held[user]]
    if not users:
        raise UsageError(f"evaluate: no users with {which} interactions")
    if k_max < 1:
        raise ParameterError(f"k must be >= 1, got {k_max}")
    n_items = item_repr.shape[0]
    cut = min(k_max, n_items)
    block = max(1, _SCORE_BLOCK_ENTRIES // n_items)

    train_order = np.argsort(split.train[:, 0], kind="stable")
    train_users = split.train[train_order, 0]
    train_items = split.train[train_order, 1]
    row_of = np.full(split.n_users, -1, dtype=np.int64)

    sums = {f"recall@{k}": 0.0 for k in ks}
    sums.update({f"ndcg@{k}": 0.0 for k in ks})
    scores = np.empty((min(block, len(users)), n_items),
                      dtype=np.result_type(user_repr, item_repr))
    for start in range(0, len(users), block):
        chunk = users[start:start + block]
        rows = scores[:len(chunk)]
        for row, user in enumerate(chunk):
            np.matmul(item_repr, user_repr[user], out=rows[row])
        rows[~np.isfinite(rows)] = -np.inf

        # Blocks cover ascending user ranges, so the pairs between lo and hi
        # belong to this block's users or to users without held-out items.
        row_of[chunk] = np.arange(len(chunk))
        lo, hi = np.searchsorted(train_users, [chunk[0], chunk[-1] + 1])
        train_rows = row_of[train_users[lo:hi]]
        listed = train_rows >= 0
        rows[train_rows[listed], train_items[lo:hi][listed]] = -np.inf

        # Every item scoring at least the row's cut-th best score, so the
        # stable sort below sees all items tied at the cut.
        kth = np.argpartition(-rows, cut - 1, axis=1)[:, cut - 1]
        threshold = rows[np.arange(len(chunk)), kth]
        for row, user in enumerate(chunk):
            line = rows[row]
            candidates = np.flatnonzero((line >= threshold[row])
                                        & (line > -np.inf))
            order = np.argsort(-line[candidates], kind="stable")
            ranked = candidates[order[:k_max]].tolist()
            for k in ks:
                recall, ndcg = recall_ndcg_at_k(ranked, held[user], k)
                sums[f"recall@{k}"] += recall
                sums[f"ndcg@{k}"] += ndcg
    return {name: value / len(users) for name, value in sums.items()}


def lr_schedule(epoch: int, base_lr: float = 0.001) -> float:
    """Stepped decay: base_lr * 0.96 ** floor(epoch / 50)."""
    if epoch < 0:
        raise ParameterError(f"epoch must be >= 0, got {epoch}")
    return base_lr * 0.96 ** (epoch // 50)


@dataclass
class EarlyStopState:
    """Tracks strict improvement of the monitored metric."""

    patience: int = 20
    best_value: float = -math.inf
    best_epoch: int = -1
    stale: int = 0


def early_stop_update(state: EarlyStopState, metric: float,
                      epoch: int) -> tuple[EarlyStopState, bool]:
    """Record one evaluation; returns (state, should_stop). Ties count as
    stagnation; only strict improvement resets the counter."""
    if math.isnan(metric):
        raise NumericalError("early stopping received a NaN metric")
    if metric > state.best_value:
        state.best_value = metric
        state.best_epoch = epoch
        state.stale = 0
    else:
        state.stale += 1
    return state, state.stale >= state.patience
