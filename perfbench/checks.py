"""Output checks: a numpy ranking oracle, metrics-stream sanity and hashing,
and span accounting for the traced run."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def oracle_metrics(user_repr: np.ndarray, item_repr: np.ndarray, split,
                   which: str, ks: tuple[int, ...]) -> dict[str, float]:
    """Recall@K and NDCG@K from a full stable argsort of every user's scores.

    Training positives are masked to -inf from the split's pair array and
    ties go to the lower item index through the stable sort.  Scores are
    each user's `item_repr @ user_repr[u]`, the product the ranking path
    uses, so the oracle differs from it only in how it ranks and masks.
    The per-user sums accumulate in user order to agree bit for bit.
    """
    held_pairs = {"validation": split.validation, "test": split.test}[which]
    users = np.unique(held_pairs[:, 0])
    scores = np.stack([item_repr @ user_repr[u] for u in users])
    row_of = np.full(split.n_users, -1, dtype=np.int64)
    row_of[users] = np.arange(users.size)
    train_rows = row_of[split.train[:, 0]]
    keep = train_rows >= 0
    scores[train_rows[keep], split.train[keep, 1]] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")
    k_max = max(ks)
    relevant_of = {int(u): set() for u in users}
    for u, i in held_pairs:
        relevant_of[int(u)].add(int(i))
    sums = {f"recall@{k}": 0.0 for k in ks}
    sums.update({f"ndcg@{k}": 0.0 for k in ks})
    for row, user in enumerate(users):
        ranked_row = order[row]
        finite = np.isfinite(scores[row, ranked_row])
        ranked = [int(i) for i in ranked_row[finite][:k_max]]
        relevant = relevant_of[int(user)]
        for k in ks:
            top = ranked[:k]
            hits = [pos for pos, item in enumerate(top) if item in relevant]
            sums[f"recall@{k}"] += len(hits) / len(relevant)
            dcg = sum(1.0 / math.log2(pos + 2) for pos in hits)
            idcg = sum(1.0 / math.log2(pos + 2)
                       for pos in range(min(k, len(relevant))))
            sums[f"ndcg@{k}"] += dcg / idcg
    return {name: value / users.size for name, value in sums.items()}


def random_recall(split, which: str, k: int) -> float:
    """Expected Recall@k of a uniformly random ranking of each user's
    candidates (items not among the user's training positives)."""
    held_pairs = {"validation": split.validation, "test": split.test}[which]
    users = np.unique(held_pairs[:, 0])
    train_counts = np.bincount(split.train[:, 0], minlength=split.n_users)
    candidates = split.n_items - train_counts[users]
    return float(np.mean(np.minimum(k, candidates) / candidates))


# Test Recall@20 must beat a random ranking by this factor.
RECALL_FLOOR_LIFT = 2.0


def oracle_problems(capture) -> list[str]:
    """Disagreements between the run's test metrics and the oracle, and a
    Recall@20 below the quality floor."""
    if capture is None:
        return ["the run never evaluated the test split"]
    user_repr, item_repr, split, ks, reported = capture
    expected = oracle_metrics(user_repr, item_repr, split, "test", ks)
    problems = [f"{name}: run reported {reported.get(name)!r}, oracle {value!r}"
                for name, value in sorted(expected.items())
                if reported.get(name) != value]
    if 20 in ks:
        floor = RECALL_FLOOR_LIFT * random_recall(split, "test", 20)
        if not reported.get("recall@20", 0.0) >= floor:
            problems.append(f"recall@20 {reported.get('recall@20')!r} is below "
                            f"the floor {floor:.4f} ({RECALL_FLOOR_LIFT}x random)")
    return problems


def stream_problems(lines: list[str], epochs: int) -> list[str]:
    """Checks every record: finite losses, metrics in [0, 1], and exactly
    `epochs` validation records followed by one test record."""
    problems = []
    records = [json.loads(line) for line in lines]
    splits = [r.get("split") for r in records]
    if splits != ["validation"] * epochs + ["test"]:
        problems.append(f"expected {epochs} validation records and one test "
                        f"record, got splits {splits}")
    for number, record in enumerate(records, start=1):
        for name, value in record.get("losses", {}).items():
            if not math.isfinite(value):
                problems.append(f"record {number}: loss {name} = {value}")
        for name, value in record.items():
            if name.startswith(("recall@", "ndcg@")) and not 0.0 <= value <= 1.0:
                problems.append(f"record {number}: {name} = {value} outside [0, 1]")
    return problems


def stream_hash(lines: list[str]) -> str:
    """sha256 of the metrics stream with `wall_ms` removed from each record."""
    digest = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        record.pop("wall_ms", None)
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def accounting_problems(spans: list[list], selfs: list[float],
                        roots: list[int], credited: list[float]) -> list[str]:
    """Checks the trace of each epoch (`roots` are the epoch spans' indices).

    Every span that opens between an epoch's start and end belongs to that
    epoch's tree, so no layer call lost its link to the epoch; children lie
    inside their parents and no self time is negative; and the seconds the
    per-layer figures credit to the epoch (`credited`) add up to its
    duration.  Spans are stored in the order they opened.
    """
    problems = []
    epoch_of = {root: root for root in roots}
    for index, (name, start, end, parent, _) in enumerate(spans):
        root = epoch_of.get(parent) if index not in epoch_of else index
        if root is None:
            continue
        epoch_of[index] = root
        if index != root and not (
                spans[parent][1] <= start <= end <= spans[parent][2]):
            problems.append(f"span {index} ({name}) lies outside its parent")
        if selfs[index] < -1e-9:
            problems.append(f"span {index} ({name}) has negative self time")
    for root, total in zip(roots, credited):
        _, first, last, _, _ = spans[root]
        index = root + 1
        while index < len(spans) and spans[index][1] <= last:
            if epoch_of.get(index) != root:
                problems.append(f"span {index} ({spans[index][0]}) opened "
                                f"during epoch span {root} outside its tree")
            index += 1
        if not math.isclose(total, last - first, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"epoch span {root}: per-layer figures account "
                            f"for {total:.9f} s, epoch took {last - first:.9f} s")
    return problems
