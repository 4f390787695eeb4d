"""Training loop: shuffled triplet batches, Adam with stepped decay,
per-epoch validation, early stopping on Recall@20, best-checkpoint saving."""

from __future__ import annotations

import ctypes
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .config import RunConfig, resolve_config
from .data import Dataset, atomic_open, load_dataset, save_mapping
from .errors import ConfigError, DataFormatError, NumericalError
from .evaluation import EarlyStopState, Ranking, SplitDataset, early_stop_update, \
    evaluate, lr_schedule, pair_mask, sample_negatives, split_811
from .model import (
    LOSS_TERMS,
    VARIANTS,
    ModelParams,
    Recommender,
    TripletBatch,
    build_propagation_operator,
    load_checkpoint,
    save_checkpoint,
)
from .optim import AdamState, adam_step
from .tensor import Tape, Tensor, UsageError, backward


def log(message: str) -> None:
    print(message, file=sys.stderr)


def emit(record: dict, stream, copy_to=None) -> None:
    line = json.dumps(record)
    # Copied first, so that the copy holds every printed line when a signal
    # stops the run.
    if copy_to is not None:
        copy_to.write(line + "\n")
    print(line, file=stream)
    stream.flush()


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory(libc=None) -> None:
    """Let glibc keep the training step's freed arrays for the next step.

    By default glibc maps each large array on its own or trims the top of
    its heap once the step's temporaries are freed, and the next step faults
    the same pages in again. Arrays up to 64 MiB come from the heap and up to
    512 MiB of free heap top is kept. The trim threshold is raised only once
    the mmap threshold is accepted: set alone, it freezes glibc's adaptive
    mmap threshold at 128 KiB. Every thread allocates from one arena, so
    that DREAM's lane (`dream._side_by_side`) and the calling thread reuse
    what the other freed; an arena of the lane's own kept its own
    high-water mark, ~8 MB more resident on planted-large. A libc without
    `mallopt` is left as it is. `libc` is the C library to call, the
    running process's by default."""
    try:
        mallopt = (libc if libc is not None else ctypes.CDLL(None)).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 64 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 512 << 20)
    mallopt(_M_ARENA_MAX, 1)


def prepare_run(cfg: RunConfig) -> tuple[Dataset, SplitDataset, Recommender]:
    """Load the features the variant uses, split 8:1:1 and build the model at
    its seeded initial parameters."""
    if cfg.interactions is None:
        raise ConfigError("no interactions path given")
    # The config's feature fields are named after the modalities.
    paths = {m: getattr(cfg, m) for m in VARIANTS[cfg.variant][0]}
    for m, path in paths.items():
        if path is None:
            raise ConfigError(f"variant requires --{m} features")
    ds = load_dataset(cfg.interactions, paths, cfg.kcore)
    split = split_811(ds.pairs, ds.n_users, ds.n_items, cfg.seed)
    log(f"dataset: {ds.n_users} users, {ds.n_items} items, "
        f"{len(ds.pairs)} interactions "
        f"(train {len(split.train)}, val {len(split.validation)}, "
        f"test {len(split.test)})")
    # The sampler draws each training user an item outside its training pairs.
    covered = np.flatnonzero(np.bincount(split.train[:, 0], minlength=ds.n_users)
                             == ds.n_items)
    if len(covered):
        raise DataFormatError(f"user {ds.user_tokens[covered[0]]!r} interacted with "
                              f"every item, so no negative item can be drawn for it")
    # `split_811` holds out validation and test pairs for the same users.
    if not len(split.test):
        raise DataFormatError("no user has the three interactions a held-out "
                              "pair needs, so nothing can be validated or tested")

    rng = np.random.default_rng(cfg.seed)
    params = ModelParams.create(ds.n_users, ds.n_items,
                                {m: x.shape[1] for m, x in ds.features.items()},
                                cfg, rng)
    operator = build_propagation_operator(split.train, ds.n_users, ds.n_items)
    model = Recommender(params, cfg, {m: Tensor(x) for m, x in ds.features.items()},
                        operator)

    total_params = sum(p.data.size for p in params.named().values())
    projection = sum(b.reduce.data.size for b in params.branches.values())
    log(f"params: total {total_params}, projection {projection} at reduction "
        f"{cfg.reduction}")
    return ds, split, model


def iterate_batches(train_pairs: np.ndarray, positive: np.ndarray, batch_size: int,
                    rng: np.random.Generator):
    """Shuffled triples of `train_pairs`, each with a negative drawn outside
    `positive`, the `pair_mask` of the training pairs."""
    shuffled = train_pairs[rng.permutation(len(train_pairs))]
    for start in range(0, len(shuffled), batch_size):
        users, items = shuffled[start:start + batch_size].T.copy()
        negatives = sample_negatives(users, positive, rng)
        yield TripletBatch(users=users, pos_items=items, neg_items=negatives)


def _source(epoch: int | None) -> str:
    return f"at epoch {epoch}" if epoch is not None else "from the restored checkpoint"


def check_finite(representations: tuple, epoch: int | None = None) -> None:
    """Raise NumericalError naming the first array of a
    `Recommender.representations()` result that holds a NaN or inf, and
    the training epoch that made it; without one, it came from a restored
    checkpoint. Each encoding is checked before the item representation it
    feeds, in `MODALITIES` order, then the user and item representations."""
    user_repr, item_repr, encodings = representations
    checked = {**{f"{m} encoding": h for m, h in encodings.items()},
               "user representation": user_repr, "item representation": item_repr}
    for name, t in checked.items():
        if not np.isfinite(t.data).all():
            raise NumericalError(f"non-finite {name} {_source(epoch)}")


def check_ranked(ranking: Ranking, epoch: int | None = None) -> None:
    """Raise NumericalError naming the first user of a filled `ranking`
    whose top list starts with -1: no unmasked item has a finite score for
    it. `prepare_run` refuses a user who holds every item, so a list is
    empty only when each of the user's scores left the float range."""
    empty = np.flatnonzero(ranking.ranked[:, 0] < 0)
    if len(empty):
        raise NumericalError(f"no finite score for user {ranking.users[empty[0]]} "
                             f"{_source(epoch)}")


def run_training(cfg: RunConfig, stdout=None) -> dict:
    """Train per the resolved config; returns a summary with the best epoch,
    test metrics and output paths. Emits one metrics JSON line per epoch
    (validation) plus a final test line at the restored best parameters.

    Each parameter state is forwarded once. The validation forward is
    recorded on a tape, and the next epoch's first step records its loss on
    the same tape. The test split reads the best epoch's validation ranking
    (`Ranking`): both splits hold out items of the same users and mask only
    the training pairs.

    On glibc the process keeps the memory training frees for reuse (see
    `_keep_freed_memory`), so its resident size stays near its high-water
    mark after the run."""
    stdout = stdout if stdout is not None else sys.stdout
    _keep_freed_memory()
    out_dir = Path(cfg.out) if cfg.out else None
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create output directory: {err}") from err
    ds, split, model = prepare_run(cfg)
    params = model.params
    named = params.named()

    if out_dir is not None:
        with atomic_open(out_dir / "resolved_config.txt") as fh:
            fh.write("\n".join(cfg.lines()) + "\n")
        save_mapping(out_dir / "users.tsv", ds.user_tokens)
        save_mapping(out_dir / "items.tsv", ds.item_tokens)

    rng = np.random.default_rng(cfg.seed)
    positive = pair_mask(split.train, ds.n_users, ds.n_items)
    adam = AdamState(lr=cfg.base_lr)
    stopper = EarlyStopState(patience=cfg.patience)
    best_state = {name: p.data.copy() for name, p in named.items()}
    best_epoch = 0
    best = None  # the best epoch's validation ranking, over copies of its arrays
    carried = None  # the last validation forward's tape and representations
    tag = {"variant": cfg.variant} if cfg.variant != "full" else {}

    # The metrics lines stream into a temp file that replaces metrics.jsonl
    # when training ends, also by an error, so the path holds whole lines.
    with atomic_open(out_dir / "metrics.jsonl", keep_partial=True) \
            if out_dir is not None else nullcontext() as metrics_file:
        for epoch in range(1, cfg.max_epochs + 1):
            started = time.perf_counter()
            adam.lr = lr_schedule(epoch - 1, cfg.base_lr)
            loss_sums = dict.fromkeys(LOSS_TERMS, 0.0)
            n_batches = 0
            # Non-finite values are named by the checks below, not warned of;
            # Adam raises on its own overflow.
            with np.errstate(all="ignore"):
                for step, batch in enumerate(iterate_batches(
                        split.train, positive, cfg.batch_size, rng), start=1):
                    params.zero_grads()
                    tape, representations = carried or (Tape(), None)
                    carried = None
                    with tape:
                        loss, parts = model.total_loss(batch, representations)
                    if not np.isfinite(loss.data):
                        term = next((k for k, v in parts.items()
                                     if not np.isfinite(v)), "total")
                        raise NumericalError(f"non-finite loss at epoch {epoch}, "
                                             f"step {step} ({term})")
                    backward(loss, tape)
                    grads = {name: p.grad for name, p in named.items()
                             if p.grad is not None}
                    adam_step(named, grads, adam)
                    for key in loss_sums:
                        loss_sums[key] += parts[key]
                    n_batches += 1

                tape = Tape()
                with tape:
                    representations = model.representations()
                check_finite(representations, epoch)
                carried = tape, representations
                ranking = Ranking()
                val = evaluate(representations[0].data, representations[1].data,
                               split, "validation", cfg.eval_ks, ranking=ranking)
                check_ranked(ranking, epoch)
            wall_ms = int(round((time.perf_counter() - started) * 1000))
            record = {"epoch": epoch, "split": "validation", **tag,
                      **{k: val[k] for k in sorted(val)},
                      "losses": {k: v / n_batches for k, v in loss_sums.items()},
                      "wall_ms": wall_ms}
            emit(record, stdout, metrics_file)

            stopper, should_stop = early_stop_update(
                stopper, val[f"recall@{max(cfg.eval_ks)}"], epoch)
            if stopper.best_epoch == epoch:
                best_state = {name: p.data.copy() for name, p in named.items()}
                best = ranking.copy()
                best_epoch = epoch
            if should_stop:
                log(f"early stop at epoch {epoch}; best epoch {best_epoch}")
                break
        tape = carried = None  # the last forward is never replayed

        params.load_state(best_state)
        started = time.perf_counter()
        if best is None:  # no epoch ran: the initial parameters are tested
            representations = model.representations()
            best = Ranking(representations[0].data, representations[1].data)
        test = evaluate(best.user_repr, best.item_repr, split, "test", cfg.eval_ks,
                        ranking=best)
        wall_ms = int(round((time.perf_counter() - started) * 1000))
        record = {"epoch": best_epoch, "split": "test", **tag,
                  **{k: test[k] for k in sorted(test)},
                  "losses": dict.fromkeys(LOSS_TERMS, 0.0),
                  "wall_ms": wall_ms}
        emit(record, stdout, metrics_file)

        checkpoint_path = None
        if out_dir is not None:
            checkpoint_path = out_dir / "checkpoint.mrec"
            save_checkpoint(checkpoint_path, params.named())
            log(f"checkpoint saved to {checkpoint_path}")
        return {"best_epoch": best_epoch, "test_metrics": test,
                "checkpoint": str(checkpoint_path) if checkpoint_path else None}


# What a restore may set: where the data is now, what to report and the
# checkpoint. The rest is its run's own, from `resolved_config.txt` beside it.
RESTORE_FIELDS = ("interactions", "visual", "text", "eval_ks", "checkpoint")


def restore_model(checkpoint, given=None) -> tuple[Recommender, SplitDataset, RunConfig]:
    """Rebuild a saved run's model from its own configuration, with the
    restore fields in `given` laid over it, and load its parameters."""
    given = {**(given or {}), "checkpoint": str(checkpoint)}
    if not set(given) <= set(RESTORE_FIELDS):
        raise UsageError(f"a restore sets only {', '.join(RESTORE_FIELDS)}")
    arrays = load_checkpoint(checkpoint)
    run_config = Path(checkpoint).with_name("resolved_config.txt")
    if not run_config.is_file():
        raise DataFormatError(f"no run configuration at {run_config}")
    try:  # resolved alone first, so that its own faults are data faults
        resolve_config(str(run_config), {})
    except ConfigError as err:
        raise DataFormatError(f"damaged run configuration {run_config}: {err}") from None
    cfg = resolve_config(str(run_config), given)
    log("\n  ".join(["resolved configuration:", *cfg.lines()]))
    ds, split, model = prepare_run(cfg)
    try:
        model.params.load_state(arrays)
    except DataFormatError as err:
        raise DataFormatError(
            f"checkpoint does not fit dataset "
            f"({ds.n_users} users, {ds.n_items} items): {err}") from err
    return model, split, cfg


def restored_forward(model: Recommender) -> tuple:
    """A restored model's `representations()`, checked by `check_finite`;
    numpy warns of no non-finite value, the check names it instead."""
    with np.errstate(all="ignore"):
        representations = model.representations()
    check_finite(representations)
    return representations
