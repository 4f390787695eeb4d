"""Split protocol, negative sampling, top-K ranking and metrics, early stop."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .tensor import ParameterError, UsageError


@dataclass
class SplitDataset:
    """Per-user disjoint train/validation/test interactions over dense ids.
    Each array is the only record of its pairs, grouped by ascending user."""

    n_users: int
    n_items: int
    train: np.ndarray       # (T, 2) [user, item]
    validation: np.ndarray  # (V, 2)
    test: np.ndarray        # (S, 2)


def split_811(interactions: np.ndarray, n_users: int, n_items: int,
              seed: int) -> SplitDataset:
    """Shuffle each user's items and hold out ~10% validation and ~10% test.

    Counts are floors of 10% with a minimum of one each once the user has at
    least three interactions; users below that keep everything in train.
    Each user's sorted items are shuffled, in ascending user order.
    """
    if len(interactions) == 0:
        raise UsageError("split_811: empty interaction set")
    rng = np.random.default_rng(seed)
    pairs = interactions[np.lexsort((interactions[:, 1], interactions[:, 0]))]
    users, items = pairs[:, 0], pairs[:, 1]
    counts = np.bincount(users, minlength=n_users)
    starts = np.cumsum(counts) - counts
    for u in np.flatnonzero(counts >= 2):  # shuffling one item draws nothing
        rng.shuffle(items[starts[u]:starts[u] + counts[u]])
    rank = np.arange(len(pairs)) - starts[users]
    held = np.where(counts >= 3, np.maximum(counts // 10, 1), 0)[users]
    return SplitDataset(n_users, n_items, train=pairs[rank >= 2 * held],
                        validation=pairs[(rank >= held) & (rank < 2 * held)],
                        test=pairs[rank < held])


def pair_keys(pairs: np.ndarray, n_items: int) -> np.ndarray:
    """Sorted distinct `user * n_items + item` keys of (user, item) pairs."""
    return np.unique(pairs[:, 0] * n_items + pairs[:, 1])


def pair_mask(pairs: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """(n_users, n_items) byte mask, True at each (user, item) of `pairs`."""
    mask = np.zeros((n_users, n_items), dtype=bool)
    mask[pairs[:, 0], pairs[:, 1]] = True
    return mask


# Most draws in one block of `sample_negatives`: a training batch of the
# default size is one block, and a 100-rejection fallback discards at most
# the rest of one.
_DRAW_BLOCK = 2048


def sample_negatives(users: np.ndarray, positive: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Per user, a uniform draw over the items not marked in its row of the
    `pair_mask` `positive`, equal draw for draw to the loop where each user
    in turn calls `rng.integers(0, n_items)` until the item is not a
    positive, or after 100 rejections picks from its complement. A block
    holds one draw per user still without a negative, up to `_DRAW_BLOCK`,
    so the loop would draw all of them, and hands them out in order: a
    rejected draw leaves the same user to take the next one, in this block
    or the next. At the 100th rejection the generator is rewound to the
    draws used, and a new block follows the user's pick from its
    complement. PCG64 keeps the spare half of a 64-bit output in its state,
    so blocks of any size draw the same values.

    Training builds the mask once per run from its training pairs: one byte
    per (user, item) pair, about 6 MB for 3000 users and 2000 items."""
    n_items = positive.shape[1]
    flat = memoryview(positive.reshape(-1))  # reads faster than ndarray.item
    rows = (users * n_items).tolist()  # each user's offset into the flat mask
    out = np.empty(len(users), dtype=np.int64)
    done = tries = 0  # users with a negative, and the next one's rejections
    while done < len(users):
        saved = rng.bit_generator.state
        block = rng.integers(0, n_items,
                             size=min(len(users) - done, _DRAW_BLOCK)).tolist()
        for used, item in enumerate(block, 1):
            if not flat[rows[done] + item]:
                out[done] = item
                done, tries = done + 1, 0
                continue
            tries += 1
            if tries == 100:
                rng.bit_generator.state = saved
                rng.integers(0, n_items, size=used)
                complement = np.flatnonzero(~positive[users[done]])
                if len(complement) == 0:
                    raise UsageError(f"user {users[done]} interacted with every item")
                out[done] = complement[rng.integers(0, len(complement))]
                done, tries = done + 1, 0
                break
    return out


# Score matrix entries per ranking block: 512 Ki float64 scores, 4 MiB.
_SCORE_BLOCK_ENTRIES = 1 << 19


def top_k(score_rows, n_rows: int, n_cols: int, cut: int) -> np.ndarray:
    """Each row's `cut` best columns, best first, of an (n_rows, n_cols)
    float64 score matrix: the first `cut` finite entries of
    `np.argsort(-row, kind="stable")`, so ties go to the lower column.
    Non-finite scores are never ranked; a row with fewer than `cut` finite
    scores fills its remaining slots with -1.

    The matrix is never held whole. It is made and ranked in blocks of at
    most `_SCORE_BLOCK_ENTRIES` scores: `score_rows(rows, out)` writes the
    scores of the rows in the slice `rows` into `out`, one block buffer that
    the ranking then overwrites. In a block, one partition finds each row's
    cut-th best score. Rows with exactly `cut` finite scores at or above it
    are ranked by one stable sort over their candidate matrix; a row with a
    tie at the cut or fewer finite scores than the cut is ranked on its own."""
    if not 1 <= cut <= n_cols:
        raise ParameterError(f"cut must be in 1..{n_cols}, got {cut}")
    block = max(1, _SCORE_BLOCK_ENTRIES // n_cols)
    buffer = np.empty((min(block, n_rows), n_cols))
    ranked = np.full((n_rows, cut), -1, dtype=np.int64)
    for start in range(0, n_rows, block):
        rows = slice(start, min(start + block, n_rows))
        scores, out = buffer[:rows.stop - start], ranked[rows]
        score_rows(rows, scores)
        scores[~(scores < np.inf)] = -np.inf  # NaN and +inf are never ranked
        threshold = np.partition(scores, n_cols - cut, axis=1)[:, n_cols - cut]
        above = scores >= threshold[:, None]
        full = (np.count_nonzero(above, axis=1) == cut) & (threshold > -np.inf)
        candidates = np.flatnonzero(above[full]).reshape(-1, cut) % n_cols
        order = np.argsort(-scores[np.flatnonzero(full)[:, None], candidates],
                           axis=1, kind="stable")
        out[full] = np.take_along_axis(candidates, order, axis=1)
        for row in np.flatnonzero(~full):
            line = scores[row]
            candidates = np.flatnonzero(above[row] & (line > -np.inf))
            top = candidates[np.argsort(-line[candidates], kind="stable")[:cut]]
            out[row, :len(top)] = top
    return ranked


@dataclass
class Ranking:
    """The top-K lists of one `evaluate` call, kept for a later call to read.

    `evaluate` fills it when it ranks and reads `ranked` instead of ranking
    when called with the same `user_repr`, `item_repr` and `split.train`
    array objects, for the same users at the same cut. The ranking masks
    only the training pairs, so `split_811`'s validation and test splits,
    which hold out items for the same users, share one. Any other call
    ranks and fills the holder anew."""

    user_repr: np.ndarray | None = None
    item_repr: np.ndarray | None = None
    train: np.ndarray | None = None
    users: np.ndarray | None = None
    ranked: np.ndarray | None = None  # (len(users), cut) item ids, -1: none

    def copy(self) -> "Ranking":
        """This ranking over copies of its representations, which an
        in-place update of the originals (Adam's, of `user_emb`) leaves as
        they were ranked."""
        return replace(self, user_repr=self.user_repr.copy(),
                       item_repr=self.item_repr.copy())


def evaluate(user_repr: np.ndarray, item_repr: np.ndarray, split: SplitDataset,
             which: str = "test", ks: tuple[int, ...] = (10, 20),
             ranking: Ranking | None = None) -> dict[str, float]:
    """Mean recall/NDCG over users with held-out items in the chosen split.

    Each user's scores are the mat-vec `item_repr @ user_repr[user]`, the
    user's training pairs in `split.train` are masked, items with a
    non-finite score are never ranked, and ties go to the lower item index.
    `top_k` asks for the scores one block of users at a time. A `ranking`
    holder that holds this call's ranking (see `Ranking`) is read instead;
    any other holder is filled with this call's.

    Recall is the integer hit count over the relevant count, and DCG and
    ideal DCG are running sums over `1.0 / math.log2(pos + 2)` in rank
    order, where a miss adds +0.0 and so leaves the sum unchanged. Each
    metric is summed from 0.0 user by user in ascending user order. The
    cutoffs in `ks` must be distinct. The per-user loop in
    `tests/test_evaluation.py` (`rank_topk`, `recall_ndcg_at_k`) is the
    reference this equals bit for bit.
    """
    held = {"validation": split.validation, "test": split.test}[which]
    n_items = item_repr.shape[0]
    keys = pair_keys(held, n_items)
    users, n_relevant = np.unique(keys // n_items, return_counts=True)
    if len(users) == 0:
        raise UsageError(f"evaluate: no users with {which} interactions")
    if min(ks) < 1:
        raise ParameterError(f"k must be >= 1, got {min(ks)}")
    if len(set(ks)) != len(ks):
        raise ParameterError(f"cutoffs must be distinct, got {tuple(ks)}")
    cut = min(max(ks), n_items)
    train_users, train_items = split.train[:, 0], split.train[:, 1]
    row_of = np.full(split.n_users, -1, dtype=np.int64)

    def score_rows(rows: slice, out: np.ndarray) -> None:
        chunk = users[rows]
        # One gemv per user, as `item_repr @ user_repr[user]` runs it.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(item_repr, user_repr[chunk][:, :, None], out=out[:, :, None])
        # Blocks cover ascending user ranges, so the pairs between lo and hi
        # belong to this block's users or to users without held-out items.
        row_of[chunk] = np.arange(len(chunk))
        lo, hi = np.searchsorted(train_users, [chunk[0], chunk[-1] + 1])
        train_rows = row_of[train_users[lo:hi]]
        listed = train_rows >= 0
        out[train_rows[listed], train_items[lo:hi][listed]] = -np.inf

    if (ranking is not None and ranking.user_repr is user_repr
            and ranking.item_repr is item_repr and ranking.train is split.train
            and ranking.ranked is not None and ranking.ranked.shape[1] == cut
            and np.array_equal(ranking.users, users)):
        ranked = ranking.ranked
    else:
        ranked = top_k(score_rows, len(users), n_items, cut)
        if ranking is not None:
            ranking.user_repr, ranking.item_repr, ranking.train = \
                user_repr, item_repr, split.train
            ranking.users, ranking.ranked = users, ranked
    ranked_keys = users[:, None] * n_items + ranked  # -1 fills a slot: a miss
    hit = (ranked >= 0) & (keys.take(np.searchsorted(keys, ranked_keys), mode="clip")
                           == ranked_keys)
    discount = np.array([1.0 / math.log2(pos + 2) for pos in range(cut)])
    ideal_dcg = np.cumsum(discount)  # [n - 1]: DCG of n hits on top
    # A cutoff above the catalog ranks it whole; clamped in Python, since a
    # cutoff beyond int64 would make numpy build an object array.
    clamped = [min(k, cut) for k in ks]
    at = np.array(clamped) - 1
    metrics = np.hstack((
        np.cumsum(hit, axis=1)[:, at] / n_relevant[:, None],
        np.cumsum(hit * discount, axis=1)[:, at]
        / ideal_dcg[np.minimum(clamped, n_relevant[:, None]) - 1]))
    # One sequential sum per column, from 0.0 in ascending user order.
    sums = np.cumsum(np.vstack((np.zeros(metrics.shape[1]), metrics)), axis=0)[-1]
    names = [f"recall@{k}" for k in ks] + [f"ndcg@{k}" for k in ks]
    return dict(zip(names, (sums / len(users)).tolist()))


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
