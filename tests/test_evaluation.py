"""Protocol kit: splits, sampling, ranking, metrics, schedule, early stop."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrec import evaluation
from alignrec.errors import NumericalError
from alignrec.evaluation import (
    EarlyStopState,
    Ranking,
    SplitDataset,
    early_stop_update,
    evaluate,
    lr_schedule,
    pair_mask,
    sample_negatives,
    split_811,
    top_k,
)
from alignrec.tensor import ParameterError, UsageError


def make_interactions(counts, seed=0):
    """counts[u] interactions for each user over max(counts)*2 items."""
    rng = np.random.default_rng(seed)
    n_items = max(counts) * 2
    pairs = []
    for u, c in enumerate(counts):
        for i in rng.choice(n_items, size=c, replace=False):
            pairs.append((u, int(i)))
    return np.array(pairs, dtype=np.int64), len(counts), n_items


def positives_by_user(pairs, n_users):
    """The per-user item sets of a (user, item) pair array."""
    out = [set() for _ in range(n_users)]
    for u, i in pairs.tolist():
        out[u].add(i)
    return out


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_ten_interactions_is_8_1_1():
    pairs, m, n = make_interactions([10])
    split = split_811(pairs, m, n, seed=0)
    assert len(split.train) == 8
    assert len(split.validation) == 1
    assert len(split.test) == 1


def test_split_two_interactions_all_train():
    pairs, m, n = make_interactions([2])
    split = split_811(pairs, m, n, seed=0)
    assert len(split.train) == 2
    assert len(split.validation) == 0 and len(split.test) == 0


def test_split_deterministic_under_seed():
    pairs, m, n = make_interactions([10, 7, 23], seed=3)
    a = split_811(pairs, m, n, seed=11)
    b = split_811(pairs, m, n, seed=11)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.validation, b.validation)
    assert np.array_equal(a.test, b.test)


def test_split_empty_errors():
    with pytest.raises(UsageError):
        split_811(np.empty((0, 2), dtype=np.int64), 0, 0, seed=0)


def split_811_reference(interactions, n_users, seed):
    """The split as one loop over users: sort, shuffle, cut test/val/train."""
    rng = np.random.default_rng(seed)
    items_of = [[] for _ in range(n_users)]
    for u, i in interactions:
        items_of[int(u)].append(int(i))
    train, validation, test = [], [], []
    for u in range(n_users):
        items = np.array(sorted(items_of[u]), dtype=np.int64)
        n = len(items)
        if n == 0:
            continue
        rng.shuffle(items)
        held = max(n // 10, 1) if n >= 3 else 0
        test.extend((u, int(i)) for i in items[:held])
        validation.extend((u, int(i)) for i in items[held:2 * held])
        train.extend((u, int(i)) for i in items[2 * held:])
    return tuple(np.array(pairs, dtype=np.int64).reshape(-1, 2)
                 for pairs in (train, validation, test))


@given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 9, 10, 11, 19, 20, 21, 35]),
                min_size=1, max_size=10),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 99))
def test_split_matches_per_user_reference(counts, order_seed, seed):
    counts[0] = max(counts[0], 1)  # at least one interaction
    pairs, m, n = make_interactions(counts, seed=order_seed)
    pairs = pairs[np.random.default_rng(order_seed).permutation(len(pairs))]
    split = split_811(pairs, m, n, seed=seed)
    want = split_811_reference(pairs, m, seed)
    for got, expected in zip((split.train, split.validation, split.test), want):
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.all(np.diff(got[:, 0]) >= 0)  # grouped by ascending user


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 99))
def test_split_disjoint_and_covering(counts, seed):
    pairs, m, n = make_interactions(counts, seed=7)
    split = split_811(pairs, m, n, seed=seed)
    original = set(map(tuple, pairs))
    rebuilt = (set(map(tuple, split.train)) | set(map(tuple, split.validation))
               | set(map(tuple, split.test)))
    assert rebuilt == original
    assert len(split.train) + len(split.validation) + len(split.test) == len(pairs)
    sets = [positives_by_user(part, m)
            for part in (split.train, split.validation, split.test)]
    for tr, va, te in zip(*sets):
        assert not (tr & va) and not (tr & te) and not (va & te)
        if len(tr) + len(va) + len(te) >= 3:
            assert len(tr) >= 1


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def sample_negative_reference(user, positives, n_items, rng):
    """The sampler as one scalar loop per user: rejection sampling capped at
    100 tries, then a uniform pick from the enumerated complement."""
    if len(positives) >= n_items:
        raise UsageError(f"user {user} interacted with every item; cannot sample")
    for _ in range(100):
        candidate = int(rng.integers(0, n_items))
        if candidate not in positives:
            return candidate
    complement = np.setdiff1d(np.arange(n_items),
                              np.fromiter(positives, dtype=np.int64))
    return int(complement[rng.integers(0, len(complement))])


def draw_negatives(positives, n_items, draws, seed, user=0):
    """`draws` negatives for one user whose positives are the given items."""
    positive = pair_mask(np.array([(user, i) for i in positives],
                                  dtype=np.int64).reshape(-1, 2), user + 1, n_items)
    return sample_negatives(np.full(draws, user), positive,
                            np.random.default_rng(seed))


def test_sample_negative_forced_outcome():
    assert draw_negatives({1}, 2, 50, seed=0).tolist() == [0] * 50


def test_sample_negative_never_returns_positive():
    positives = {0, 3, 5, 9}
    negatives = draw_negatives(positives, 12, 10 ** 6, seed=1)
    assert not np.isin(negatives, list(positives)).any()


def test_sample_negative_uniform_within_3_sigma():
    positives = {0, 1}
    n_items, draws = 12, 100_000
    counts = np.bincount(draw_negatives(positives, n_items, draws, seed=2),
                         minlength=n_items)
    candidates = n_items - len(positives)
    p = 1.0 / candidates
    expected = draws * p
    sigma = math.sqrt(draws * p * (1 - p))
    for item in range(n_items):
        if item in positives:
            assert counts[item] == 0
        else:
            assert abs(counts[item] - expected) <= 3 * sigma


def test_sample_negative_exhausted_user_errors():
    with pytest.raises(UsageError):
        draw_negatives({0, 1, 2}, 3, 1, seed=3)


def test_sample_negative_fallback_scan_is_uniform():
    # rejection cap of 100 makes failure astronomically unlikely here, so
    # exercise the fallback directly with one available candidate
    assert draw_negatives(set(range(999)), 1000, 1, seed=4).tolist() == [999]


@st.composite
def sampling_cases(draw):
    n_items = draw(st.integers(1, 400))
    n_users = draw(st.integers(1, 6))
    positives = []
    for _ in range(n_users):
        kind = draw(st.sampled_from(["none", "some", "all-but-one"]))
        size = {"none": 0, "all-but-one": n_items - 1,
                "some": draw(st.integers(0, n_items - 1))}[kind]
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        positives.append(set(rng.choice(n_items, size=size, replace=False).tolist()))
    users = draw(st.lists(st.integers(0, n_users - 1), max_size=300))
    return n_items, positives, np.array(users, dtype=np.int64)


def assert_matches_scalar_loop(n_items, positives, users, seed, rng=None):
    """`sample_negatives` on `rng`, by default a generator of `seed`, draws
    what the scalar loop draws on a generator of `seed`."""
    pairs = np.array([(u, i) for u, items in enumerate(positives) for i in items],
                     dtype=np.int64).reshape(-1, 2)
    rng = rng if rng is not None else np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    got = sample_negatives(users, pair_mask(pairs, len(positives), n_items), rng)
    want = [sample_negative_reference(int(u), positives[u], n_items, reference_rng)
            for u in users]
    assert got.tolist() == want
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(sampling_cases(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200)
def test_sample_negatives_matches_scalar_loop(case, seed):
    assert_matches_scalar_loop(*case, seed)


def test_sample_negatives_fallback_mid_batch_matches_scalar_loop(monkeypatch):
    # User 1 has one free item in 500, so most of its triples reach the
    # 100-rejection fallback: in the 400-user batch the rewind lands in the
    # middle of a block and the next block starts after it. The one-user
    # batch draws blocks of one draw, so its rejections carry across 100
    # blocks and the fallback lands on a block's last draw. Blocks of 7
    # split the 400-user batch.
    positives = [set(range(0, 500, 7)), set(range(499)), set()]
    for block in (evaluation._DRAW_BLOCK, 7):
        monkeypatch.setattr(evaluation, "_DRAW_BLOCK", block)
        for users in (np.random.default_rng(5).integers(0, 3, size=400), np.array([1])):
            for seed in range(3):
                assert_matches_scalar_loop(500, positives, users, seed)


def test_sample_negatives_dense_users_match_scalar_loop(monkeypatch):
    # Users 1 and 2 have 3 and 1 free items in 60, so most of their draws
    # are rejected and their runs of rejections often cross block ends;
    # user 2's runs often reach the 100-rejection fallback mid-block. User 0
    # mostly accepts its first draw between them. Blocks of 7 split the
    # batch.
    positives = [set(range(0, 60, 9)), set(range(60)) - {7, 30, 44}, set(range(59))]
    users = np.random.default_rng(7).integers(0, 3, size=600)
    for block in (evaluation._DRAW_BLOCK, 7):
        monkeypatch.setattr(evaluation, "_DRAW_BLOCK", block)
        for seed in range(3):
            assert_matches_scalar_loop(60, positives, users, seed)


class CountingRng:
    """A generator's `integers` and `bit_generator`, counting the values
    `integers` draws."""

    def __init__(self, seed):
        self.rng, self.drawn = np.random.default_rng(seed), 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def integers(self, low, high, size=None):
        self.drawn += 1 if size is None else size
        return self.rng.integers(low, high, size=size)


def test_sample_negatives_draws_linearly_in_its_fallbacks():
    """A user holding 59 of 60 items reaches the 100-rejection fallback at
    ~19% of its negatives, and each fallback discards the rest of its block.
    Blocks as long as the batch's remainder made the values drawn grow with
    the square of the batch: 9.7 and 84 million for 10,000 and 30,000
    negatives. Blocks of 2048 drew ~409 values a negative; a block of 128
    after each fallback, doubling up to 2048, draws ~99."""
    positives = [set(range(59))]
    mask = pair_mask(np.array([(0, i) for i in range(59)]), 1, 60)
    drawn = {}
    for n in (3000, 10000, 30000):
        rng, users = CountingRng(0), np.zeros(n, dtype=np.int64)
        if n == 3000:  # two blocks
            assert_matches_scalar_loop(60, positives, users, 0, rng)
        else:
            sample_negatives(users, mask, rng)
        # A negative uses at most 100 items and a pick, U <= 101 n. A fallback
        # discards its block: the first at most `_DRAW_BLOCK`, each later one
        # `_REFILL_BLOCK` more than the blocks used since the previous one.
        assert rng.drawn <= n * (2 * 101 + evaluation._REFILL_BLOCK) + evaluation._DRAW_BLOCK
        drawn[n] = rng.drawn
    assert drawn[30000] < 3.5 * drawn[10000]


def test_sample_negatives_exhausted_user_errors_like_scalar_loop():
    positives = [{0}, {0, 1, 2}]
    users = np.array([0, 0, 1, 0])
    positive = pair_mask(np.array([(0, 0), (1, 0), (1, 1), (1, 2)]), 2, 3)
    with pytest.raises(UsageError, match="user 1"):
        sample_negatives(users, positive, np.random.default_rng(6))
    with pytest.raises(UsageError, match="user 1"):
        rng = np.random.default_rng(6)
        for u in users:
            sample_negative_reference(int(u), positives[u], 3, rng)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def rank_topk(user_repr: np.ndarray, item_repr: np.ndarray, user: int,
              mask: set[int], k: int) -> list[int]:
    """Reference ranking of one user: top-k items by the mat-vec score,
    excluding masked ids and non-finite scores, ties broken by item index."""
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
    """Reference recall and binary-gain NDCG of one ranking. Each sum runs
    in rank order from 0.0 in an explicit loop, so no summation algorithm
    of the Python version can change its bits."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not relevant:
        raise UsageError("recall_ndcg_at_k: empty relevant set")
    hits, dcg = 0, 0.0
    for pos, item in enumerate(ranked[:k]):
        if item in relevant:
            hits += 1
            dcg += 1.0 / math.log2(pos + 2)
    idcg = 0.0
    for pos in range(min(k, len(relevant))):
        idcg += 1.0 / math.log2(pos + 2)
    return hits / len(relevant), dcg / idcg


def test_rank_topk_single_candidate():
    users = np.array([[1.0, 0.0]])
    items = np.random.default_rng(0).standard_normal((5, 2))
    ranked = rank_topk(users, items, 0, {0, 1, 2, 4}, 3)
    assert ranked == [3]


def test_rank_topk_tie_rule_ascending_index():
    users = np.array([[1.0]])
    items = np.ones((6, 1))
    assert rank_topk(users, items, 0, set(), 4) == [0, 1, 2, 3]


def test_rank_topk_matches_sort_oracle():
    rng = np.random.default_rng(1)
    users = rng.standard_normal((2, 8))
    items = rng.standard_normal((30, 8))
    mask = {3, 11, 17}
    ranked = rank_topk(users, items, 1, mask, 10)
    scores = items @ users[1]
    oracle = sorted((i for i in range(30) if i not in mask),
                    key=lambda i: (-scores[i], i))[:10]
    assert ranked == oracle


def test_rank_topk_masks_never_leak():
    rng = np.random.default_rng(2)
    users = rng.standard_normal((1, 4))
    items = rng.standard_normal((20, 4))
    mask = set(range(0, 20, 2))
    ranked = rank_topk(users, items, 0, mask, 50)
    assert not (set(ranked) & mask)
    assert len(ranked) == 10  # k above candidate count returns all unmasked


def test_rank_topk_k_validation():
    with pytest.raises(ParameterError):
        rank_topk(np.ones((1, 2)), np.ones((3, 2)), 0, set(), 0)


@st.composite
def score_rows(draw):
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    # few distinct values, so that ties and ties at the cut are common
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
    rows = np.array(draw(st.lists(st.lists(value | st.floats(-3, 3), min_size=n_cols,
                                           max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows)))
    cut = draw(st.sampled_from([1, n_cols]) | st.integers(1, n_cols))
    return rows, cut


@given(score_rows(), st.sampled_from([evaluation._SCORE_BLOCK_ENTRIES]) | st.integers(1, 24))
@settings(max_examples=300)
def test_top_k_is_the_stable_argsort_of_finite_scores(case, block_entries):
    rows, cut = case
    before = rows.tobytes()

    def copy_rows(block, out):
        out[:] = rows[block]

    with mock.patch.object(evaluation, "_SCORE_BLOCK_ENTRIES", block_entries):
        ranked = top_k(copy_rows, *rows.shape, cut)  # small blocks split the rows
    assert rows.tobytes() == before
    for row, got in zip(rows, ranked.tolist()):
        want = [int(i) for i in np.argsort(-row, kind="stable") if np.isfinite(row[i])]
        want = want[:cut] + [-1] * max(0, cut - len(want))
        assert got == want


def test_top_k_cut_validation():
    for cut in (0, 4):
        with pytest.raises(ParameterError):
            top_k(lambda rows, out: out.fill(0.0), 2, 3, cut)


@st.composite
def approximate_score_rows(draw):
    """Exact scores on a grid of 2^-4, with near ties, and approximations
    that move each score by -E, 0 or +E, E a power of two: every sum is
    exact, and the approximations reach the bound E."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exact = rng.integers(-6, 7, size=(n_rows, n_cols)) / 16.0
    exact[rng.random((n_rows, n_cols)) < 0.1] = -np.inf  # masked
    error = 2.0 ** rng.integers(-8, -3, size=n_rows)  # gaps of 2E are ties or not
    moved = exact + error[:, None] * rng.integers(-1, 2, size=(n_rows, n_cols))
    cut = draw(st.sampled_from([1, n_cols]) | st.integers(1, n_cols))
    return exact, moved, error, cut


@given(approximate_score_rows(), st.integers(1, 24))
@settings(max_examples=100)
def test_top_k_ranks_approximate_scores_as_the_exact_ones(case, block_entries):
    """Rows whose best cut + 1 approximations are each more than 2E apart
    are ranked on them; all others are scored again, exactly."""
    exact, moved, error, cut = case
    rescored = []

    def approximate(block, out):
        out[:] = moved[block]
        return error[block]

    def rescore(row, line):
        rescored.append(row)
        line[:] = exact[row]

    with mock.patch.object(evaluation, "_SCORE_BLOCK_ENTRIES", block_entries):
        ranked = top_k(approximate, *exact.shape, cut, rescore)
    for row, got in enumerate(ranked.tolist()):
        line = exact[row]
        want = [int(i) for i in np.argsort(-line, kind="stable") if np.isfinite(line[i])]
        assert got == want[:cut] + [-1] * max(0, cut - len(want))
        best = np.sort(moved[row])[::-1][:cut + 1]
        separated = (np.isfinite(best).all() and len(best) == min(cut + 1, len(line))
                     and (-np.diff(best) > 2 * error[row]).all())
        assert (row in rescored) == (not separated)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metrics_oracle(ranked, relevant, k):
    top = ranked[:k]
    hits = [i for i in top if i in relevant]
    recall = len(hits) / len(relevant)
    dcg = 0.0
    for pos, item in enumerate(top):
        if item in relevant:
            dcg += 1.0 / math.log2(pos + 2)
    idcg = sum(1.0 / math.log2(p + 2) for p in range(min(k, len(relevant))))
    return recall, dcg / idcg


def test_perfect_ranking_scores_one():
    recall, ndcg = recall_ndcg_at_k([4, 2, 9], {4, 2, 9}, 5)
    assert recall == 1.0 and ndcg == 1.0


def test_single_relevant_at_rank_two():
    recall, ndcg = recall_ndcg_at_k([7, 3, 1, 0], {3}, 10)
    assert recall == 1.0
    assert abs(ndcg - 1.0 / math.log2(3)) <= 1e-12
    assert abs(ndcg - 0.630930) <= 1e-6


def test_metrics_match_oracle_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 11))
        ranked = list(rng.permutation(n)[:int(rng.integers(1, n + 1))])
        ranked = [int(i) for i in ranked]
        relevant = set(int(i) for i in
                       rng.choice(n, size=int(rng.integers(1, n + 1)),
                                  replace=False))
        got = recall_ndcg_at_k(ranked, relevant, k)
        want = metrics_oracle(ranked, relevant, k)
        assert abs(got[0] - want[0]) <= 1e-12
        assert abs(got[1] - want[1]) <= 1e-12


@given(st.integers(0, 10_000))
def test_metric_ranges(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    ranked = [int(i) for i in rng.permutation(n)]
    relevant = set(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)),
                                              replace=False))
    k = int(rng.integers(1, 12))
    recall, ndcg = recall_ndcg_at_k(ranked, relevant, k)
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= ndcg <= 1.0
    ideal = min(k, len(relevant))
    top_all_relevant = all(i in relevant for i in ranked[:ideal])
    assert (abs(ndcg - 1.0) <= 1e-12) == top_all_relevant


def test_metrics_validation():
    with pytest.raises(ParameterError):
        recall_ndcg_at_k([1], {1}, 0)
    with pytest.raises(UsageError):
        recall_ndcg_at_k([1], set(), 3)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_random_representations_near_chance():
    rng = np.random.default_rng(4)
    pairs, m, n = make_interactions([20] * 40, seed=5)
    split = split_811(pairs, m, n, seed=0)
    users = rng.standard_normal((m, 6))
    items = rng.standard_normal((n, 6))
    got = evaluate(users, items, split, "test", ks=(20,))["recall@20"]

    k = 20
    means, variances = [], []
    train_sets = positives_by_user(split.train, m)
    test_sets = positives_by_user(split.test, m)
    for u in range(m):
        relevant = len(test_sets[u])
        if relevant == 0:
            continue
        candidates = n - len(train_sets[u])
        mean_hits = k * relevant / candidates
        var_hits = (k * (relevant / candidates) * (1 - relevant / candidates)
                    * (candidates - k) / (candidates - 1))
        means.append(mean_hits / relevant)
        variances.append(var_hits / relevant ** 2)
    expected = np.mean(means)
    sigma = math.sqrt(np.sum(variances)) / len(means)
    assert abs(got - expected) <= 3 * sigma


def test_evaluate_deterministic_and_key_count():
    pairs, m, n = make_interactions([12] * 6, seed=6)
    split = split_811(pairs, m, n, seed=1)
    rng = np.random.default_rng(7)
    users, items = rng.standard_normal((m, 4)), rng.standard_normal((n, 4))
    a = evaluate(users, items, split, "test")
    b = evaluate(users, items, split, "test")
    assert a == b
    assert set(a) == {"recall@10", "recall@20", "ndcg@10", "ndcg@20"}


def test_evaluate_skips_users_without_heldout():
    pairs, m, n = make_interactions([10, 2], seed=8)  # user 1 has no test items
    split = split_811(pairs, m, n, seed=2)
    rng = np.random.default_rng(9)
    users, items = rng.standard_normal((m, 4)), rng.standard_normal((n, 4))
    metrics = evaluate(users, items, split, "test", ks=(5,))
    only_user0 = recall_ndcg_at_k(
        rank_topk(users, items, 0, positives_by_user(split.train, m)[0], 5),
        positives_by_user(split.test, m)[0], 5)
    assert metrics["recall@5"] == only_user0[0]


def evaluate_reference(users, items, split, which, ks):
    """`evaluate` as one `rank_topk` call per user, summed in user order."""
    held = positives_by_user(
        {"validation": split.validation, "test": split.test}[which], split.n_users)
    train_sets = positives_by_user(split.train, split.n_users)
    sums = {f"recall@{k}": 0.0 for k in ks}
    sums.update({f"ndcg@{k}": 0.0 for k in ks})
    counted = 0
    for user in range(split.n_users):
        if not held[user]:
            continue
        counted += 1
        ranked = rank_topk(users, items, user, train_sets[user], max(ks))
        for k in ks:
            recall, ndcg = recall_ndcg_at_k(ranked, held[user], k)
            sums[f"recall@{k}"] += recall
            sums[f"ndcg@{k}"] += ndcg
    return {name: value / counted for name, value in sums.items()}


@st.composite
def ranking_cases(draw):
    n_items = draw(st.integers(3, 25))
    counts = draw(st.lists(st.integers(0, n_items), min_size=1, max_size=12))
    counts[0] = max(counts[0], 3)  # at least one user has held-out items
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = np.array([(u, int(i)) for u, c in enumerate(counts)
                      for i in rng.choice(n_items, size=c, replace=False)],
                     dtype=np.int64)
    split = split_811(pairs, len(counts), n_items, seed=draw(st.integers(0, 99)))
    dim = draw(st.integers(1, 4))
    # small integers make exact score ties common
    users = rng.integers(-2, 3, size=(len(counts), dim)).astype(np.float64)
    items = rng.integers(-2, 3, size=(n_items, dim)).astype(np.float64)
    for value in (np.nan, np.inf, -np.inf):
        rows = draw(st.lists(st.integers(0, n_items - 1), max_size=2))
        items[rows] = value
    ks = tuple(draw(st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True)))
    which = draw(st.sampled_from(["validation", "test"]))
    block_entries = draw(st.integers(1, 80))  # from one user per block to all
    return users, items, split, which, ks, block_entries


@given(ranking_cases())
@settings(max_examples=200)
def test_evaluate_matches_per_user_reference(case):
    users, items, split, which, ks, block_entries = case
    with np.errstate(invalid="ignore"), \
            mock.patch.object(evaluation, "_SCORE_BLOCK_ENTRIES", block_entries):
        got = evaluate(users, items, split, which, ks)
        want = evaluate_reference(users, items, split, which, ks)
    assert got == want


def split_of(n_users, n_items, train, test):
    """A split from (user, item) pair lists grouped by ascending user."""
    def as_pairs(pairs):
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return SplitDataset(n_users, n_items, as_pairs(train), as_pairs([]), as_pairs(test))


def evaluate_both(users, items, split, ks, block_entries=evaluation._SCORE_BLOCK_ENTRIES):
    """`evaluate` with the given block size, checked equal to the reference."""
    with mock.patch.object(evaluation, "_SCORE_BLOCK_ENTRIES", block_entries):
        got = evaluate(users, items, split, "test", ks)
    with np.errstate(all="ignore"):
        assert got == evaluate_reference(users, items, split, "test", ks)
    return got


def random_case(seed, n_users=40, n_items=20, dim=2):
    """Small-integer representations, so that score ties are common."""
    rng = np.random.default_rng(seed)
    per_user = max(3, n_items // 2)
    pairs = np.array([(u, int(i)) for u in range(n_users)
                      for i in rng.choice(n_items, per_user, replace=False)])
    split = split_811(pairs, n_users, n_items, seed=seed)
    users = rng.integers(-2, 3, size=(n_users, dim)).astype(np.float64)
    items = rng.integers(-2, 3, size=(n_items, dim)).astype(np.float64)
    return users, items, split


def test_evaluate_rejects_a_repeated_or_zero_cutoff():
    users, items, split = random_case(seed=11)
    for ks in ((2, 2), (20, 10, 20), (0, 5)):
        with pytest.raises(ParameterError):
            evaluate(users, items, split, "test", ks)


def test_evaluate_tie_at_the_cut_inside_a_block():
    """Three users in one block see the scores 3, 2, 2, 2, 1, 0; their
    training items leave users 0 and 2 tied at the second place."""
    users, items = np.ones((3, 1)), np.array([[3.0], [2.0], [2.0], [2.0], [1.0], [0.0]])
    split = split_of(3, 6, train=[(0, 1), (1, 1), (1, 2)],
                     test=[(0, 3), (1, 3), (2, 1)])
    got = evaluate_both(users, items, split, (2,), block_entries=18)
    # Ranked: user 0 [0, 2], user 1 [0, 3], user 2 [0, 1].
    hit = 1.0 / math.log2(3)
    assert got == {"recall@2": 2 / 3, "ndcg@2": (0.0 + hit + hit) / 3}


def test_evaluate_row_with_fewer_finite_scores_than_the_cut():
    """Scores 1, nan, inf, 2, 3, -inf leave three finite items, one of them
    trained; a user with a NaN representation has none."""
    users = np.array([[1.0], [np.nan]])
    items = np.array([[1.0], [np.nan], [np.inf], [2.0], [3.0], [-np.inf]])
    split = split_of(2, 6, train=[(0, 4)], test=[(0, 0), (1, 0)])
    with np.errstate(invalid="ignore"):
        got = evaluate_both(users, items, split, (1, 5), block_entries=12)
    assert got["recall@1"] == 0.0 and got["recall@5"] == 0.5  # user 0: [3, 0]


def test_evaluate_cutoff_above_catalog_size():
    users, items, split = random_case(seed=12, n_items=5)
    for block_entries in (5, 15, 1 << 19):
        evaluate_both(users, items, split, (3, 10), block_entries)
        evaluate_both(users, items, split, (7,), block_entries)
        evaluate_both(users, items, split, (3, 10 ** 20), block_entries)


def test_evaluate_overflowing_scores_warn_nothing():
    """Representations near the float64 range overflow the score product to
    +-inf or NaN; those items are not ranked, and no RuntimeWarning escapes."""
    users, items, split = random_case(seed=13, dim=3)
    users[::3] *= 1e200
    items[::2] *= 1e200
    with warnings.catch_warnings(), np.errstate(all="warn"):  # underflow too
        warnings.simplefilter("error")
        got = evaluate(users, items, split, "test", (2, 10))
    with np.errstate(all="ignore"):
        assert got == evaluate_reference(users, items, split, "test", (2, 10))


@st.composite
def adversarial_cases(draw):
    """Continuous representations, where one product of a block of users
    rounds otherwise than each user's mat-vec, with the inputs at which the
    two may disagree on a ranking."""
    n_items, dim = draw(st.integers(3, 24)), draw(st.sampled_from([1, 3, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_users = draw(st.integers(1, 10))
    # up to every item for a user, which leaves it fewer unmasked items than
    # a cut near the catalog's size
    pairs = np.array([(u, int(i)) for u in range(n_users)
                      for i in rng.choice(n_items, draw(st.integers(3, n_items)),
                                          replace=False)])
    split = split_811(pairs, n_users, n_items, seed=0)
    users, items = rng.standard_normal((n_users, dim)), rng.standard_normal((n_items, dim))
    pick = st.integers(0, n_items - 1)
    for kind in draw(st.lists(st.sampled_from(
            ["duplicate", "ulp", "zero-user", "huge", "tiny", "non-finite"]), unique=True)):
        if kind == "duplicate":
            items[draw(pick)] = items[draw(pick)]
        elif kind == "ulp":
            items[draw(pick)] = np.nextafter(items[draw(pick)], np.inf)
        elif kind == "zero-user":
            users[draw(st.integers(0, n_users - 1))] = 0.0
        elif kind in ("huge", "tiny"):  # products overflow, or underflow
            for scaled in (users, items):
                with np.errstate(over="ignore"):  # the float max next to an -inf
                    scaled[rng.random(len(scaled)) < 0.5] *= 1e160 if kind == "huge" else 1e-160
        else:
            items.flat[rng.integers(0, items.size, size=2)] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
    ks = tuple(draw(st.lists(st.sampled_from([1, n_items - 1, n_items]) | st.integers(1, 30),
                             min_size=1, max_size=3, unique=True)))
    return users, items, split, ks, draw(st.integers(1, 80))


@given(adversarial_cases())
@settings(max_examples=100)
def test_evaluate_ranks_adversarial_representations_as_the_reference(case):
    """Every ranking and metric equals the reference bit for bit, and
    `evaluate` warns of nothing, underflow included."""
    users, items, split, ks, block_entries = case
    holder = Ranking()
    with mock.patch.object(evaluation, "_SCORE_BLOCK_ENTRIES", block_entries), \
            warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        got = evaluate(users, items, split, "test", ks, ranking=holder)
    train_sets = positives_by_user(split.train, split.n_users)
    cut = min(max(ks), split.n_items)
    with np.errstate(all="ignore"):
        assert got == evaluate_reference(users, items, split, "test", ks)
        for user, ranked in zip(holder.users.tolist(), holder.ranked.tolist()):
            want = rank_topk(users, items, user, train_sets[user], cut)
            assert ranked == want + [-1] * (cut - len(want))


def test_evaluate_scores_again_exactly_the_users_with_a_near_tie():
    """Item 1 is item 0 reversed. A user symmetric under reversal who points
    along both scores them first, tied exactly, but each product sums the
    two in another order: the block product and the mat-vec may round them
    apart, each its own way. Only those users are scored again by their own
    mat-vec, and every ranking equals the reference."""
    rng = np.random.default_rng(15)
    n_users, n_items, ks = 60, 300, (10, 20)
    pairs = np.array([(u, int(i)) for u in range(n_users)
                      for i in 2 + rng.choice(n_items - 2, 10, replace=False)])
    split = split_811(pairs, n_users, n_items, seed=15)
    train_sets = positives_by_user(split.train, n_users)
    users, items = rng.standard_normal((n_users, 64)), rng.standard_normal((n_items, 64))
    items[1] = items[0, ::-1]
    rescored = []

    def counting_top_k(score_rows, n_rows, n_cols, cut, rescore):
        def counted(row, line):
            rescored.append(row)
            rescore(row, line)
        return top_k(score_rows, n_rows, n_cols, cut, counted)

    for planted in ([], [4, 17, 18, 25, 33, 40, 41, 52, 59]):
        for user in planted:
            noise = rng.standard_normal(64)
            users[user] = 10.0 * (items[0] + items[1]) + noise + noise[::-1]
        holder, rescored[:] = Ranking(), []
        with mock.patch.object(evaluation, "top_k", counting_top_k):
            got = evaluate(users, items, split, "test", ks, ranking=holder)
        assert holder.users[rescored].tolist() == planted
        assert got == evaluate_reference(users, items, split, "test", ks)
        for user, ranked in zip(holder.users.tolist(), holder.ranked.tolist()):
            assert ranked == rank_topk(users, items, user, train_sets[user], 20)
            assert (sorted(ranked[:2]) == [0, 1]) == (user in planted)


def test_evaluate_reads_only_a_ranking_of_the_same_call():
    """A holder filled by the validation call serves the test call over the
    same arrays without ranking, with the metrics of a call without a
    holder. Other arrays, another cut, other users or other training pairs
    rank anew and refill the holder."""
    users, items, split = random_case(seed=14)
    others = {
        "user-array": (users.copy(), items, split, (2, 5)),
        "item-array": (users, items.copy(), split, (2, 5)),
        "cut": (users, items, split, (2, 6)),
        "users": (users, items, SplitDataset(split.n_users, split.n_items, split.train,
                                             split.validation,
                                             split.test[split.test[:, 0] != 0]), (2, 5)),
        "train-pairs": (users, items, SplitDataset(split.n_users, split.n_items,
                                                   split.train.copy(), split.validation,
                                                   split.test), (2, 5)),
    }
    ranked = []
    with mock.patch.object(evaluation, "top_k",
                           lambda *args: ranked.append(1) or top_k(*args)):
        for name, (u, i, other_split, ks) in [("same", (users, items, split, (2, 5))),
                                              *others.items()]:
            holder = Ranking()
            evaluate(users, items, split, "validation", (2, 5), ranking=holder)
            filled = len(ranked)
            got = evaluate(u, i, other_split, "test", ks, ranking=holder)
            assert len(ranked) == filled + (name != "same"), name
            assert holder.user_repr is u and holder.item_repr is i, name
            assert holder.train is other_split.train, name
            assert got == evaluate(u, i, other_split, "test", ks), name


# ---------------------------------------------------------------------------
# schedule and early stopping
# ---------------------------------------------------------------------------

def test_lr_schedule_values():
    assert lr_schedule(0) == 0.001
    assert lr_schedule(49) == 0.001
    assert abs(lr_schedule(100) - 0.0009216) <= 1e-12
    assert lr_schedule(50, base_lr=0.01) == 0.01 * 0.96
    with pytest.raises(ParameterError):
        lr_schedule(-1)


def test_early_stop_never_fires_while_improving():
    state = EarlyStopState(patience=20)
    for epoch, value in enumerate(np.linspace(0.1, 0.9, 100), start=1):
        state, stop = early_stop_update(state, float(value), epoch)
        assert not stop


def test_early_stop_constant_stream_fires_at_patience():
    state = EarlyStopState(patience=20)
    state, stop = early_stop_update(state, 0.5, 1)
    assert not stop
    for n in range(1, 21):
        state, stop = early_stop_update(state, 0.5, 1 + n)
        assert stop == (n == 20)
    assert state.best_epoch == 1


def test_early_stop_reset_on_late_improvement():
    state = EarlyStopState(patience=20)
    state, _ = early_stop_update(state, 0.5, 1)
    for n in range(19):
        state, stop = early_stop_update(state, 0.5, 2 + n)
        assert not stop
    state, stop = early_stop_update(state, 0.6, 21)  # improvement at update 19
    assert not stop and state.stale == 0 and state.best_epoch == 21


def test_early_stop_rejects_nan():
    state = EarlyStopState()
    with pytest.raises(NumericalError):
        early_stop_update(state, float("nan"), 1)
