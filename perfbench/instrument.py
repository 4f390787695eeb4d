"""Instrumentation of alignrec installed from outside the package.

Nothing under `src/` is edited: the benchmark replaces module attributes
(functions, methods) with wrappers for the length of one repetition and puts
the originals back afterwards.

Two levels exist:

* `EpochRecorder` (always on) hooks only calls made once per epoch or run:
  `train.iterate_batches` (epoch start, first-batch marker, end of the batch
  loop through a marker chained after the generator), `train.evaluate`,
  `ModelParams.load_state` (start of the final test evaluation), and the
  metrics stream that `run_training` writes to.  No Python code runs per
  training step, so the untraced timings are those a user sees.
* `Tracer` (the traced run) adds a span around every layer call, times each
  backward closure under its primitive's name by wrapping `Tape.record`, and
  counts work (tape nodes, bytes, rows) per step.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
from time import perf_counter

import numpy as np

from alignrec import data, model, tensor, train


class SetupDone(Exception):
    """Raised at the first batch of a set-up-only repetition to end it."""


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def _call_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _mark_end(epoch: dict):
    """Empty generator that timestamps the moment the batch loop ran dry."""
    epoch["loop_end"] = perf_counter()
    return
    yield  # pragma: no cover - makes this a generator


class MetricsSink:
    """Text stream handed to `run_training` as its stdout.

    Each complete line is one metrics record.  A validation record closes
    the epoch that is open; the write happens right after the run measures
    its own `wall_ms`, so the epoch interval matches that field.
    """

    def __init__(self, recorder: "EpochRecorder"):
        self._recorder = recorder
        self._pending = ""
        self.lines: list[str] = []

    def write(self, text: str) -> int:
        now = perf_counter()
        self._pending += text
        while "\n" in self._pending:
            line, self._pending = self._pending.split("\n", 1)
            if line:
                self.lines.append(line)
                if json.loads(line).get("split") == "validation":
                    self._recorder.close_epoch(now)
        return len(text)

    def flush(self) -> None:
        pass


class EpochRecorder:
    """Once-per-epoch timestamps of one `run_training` call."""

    def __init__(self, tracer: "Tracer | None" = None,
                 stop_at_first_batch: bool = False):
        self.tracer = tracer
        self.stop_at_first_batch = stop_at_first_batch
        self.setup_end: float | None = None
        self.epochs: list[dict] = []
        self.test_capture: tuple | None = None
        self.test_start: float | None = None
        self.test_end: float | None = None
        self.test_users = 0
        self.sink = MetricsSink(self)
        self._users_ranked: dict[str, int] = {}

    def install(self, patches: Patches) -> None:
        orig_iterate = train.iterate_batches
        orig_evaluate = train.evaluate
        orig_load_state = model.ModelParams.load_state

        @functools.wraps(orig_iterate)
        def iterate_batches(*args, **kwargs):
            now = perf_counter()
            if self.setup_end is None:
                self.setup_end = now
            if self.stop_at_first_batch:
                raise SetupDone
            call = _call_args(orig_iterate, args, kwargs)
            epoch = {"start": now, "triples": len(call["train_pairs"])}
            self.epochs.append(epoch)
            batches = orig_iterate(*args, **kwargs)
            if self.tracer is not None:
                epoch["span"] = self.tracer.open("train.epoch", now)
                batches = self.tracer.traced_batches(batches)
            return itertools.chain(batches, _mark_end(epoch))

        @functools.wraps(orig_evaluate)
        def evaluate(*args, **kwargs):
            result = orig_evaluate(*args, **kwargs)
            end = perf_counter()
            call = _call_args(orig_evaluate, args, kwargs)
            which = call["which"]
            if which == "test":
                self.test_end = end
                self.test_users = self._count_users(call["split"], which)
                self.test_capture = (np.array(call["user_repr"]),
                                     np.array(call["item_repr"]),
                                     call["split"], tuple(call["ks"]),
                                     dict(result))
            elif self.epochs and "end" not in self.epochs[-1]:
                epoch = self.epochs[-1]
                epoch["eval_end"] = end
                epoch["users"] = self._count_users(call["split"], which)
            return result

        @functools.wraps(orig_load_state)
        def load_state(params, arrays):
            orig_load_state(params, arrays)
            self.test_start = perf_counter()

        patches.set(train, "iterate_batches", iterate_batches)
        patches.set(train, "evaluate", evaluate)
        patches.set(model.ModelParams, "load_state", load_state)

    def _count_users(self, split, which: str) -> int:
        if which not in self._users_ranked:
            held = {"validation": split.validation,
                    "test": split.test}[which]
            self._users_ranked[which] = int(np.unique(held[:, 0]).size)
        return self._users_ranked[which]

    def close_epoch(self, now: float) -> None:
        if not self.epochs or "end" in self.epochs[-1]:
            return
        epoch = self.epochs[-1]
        epoch["end"] = now
        if self.tracer is not None:
            self.tracer.close(epoch["span"], now)

    def complete_epochs(self) -> list[dict]:
        return [e for e in self.epochs
                if {"loop_end", "eval_end", "end"} <= e.keys()]


def primitive_of(backward_fn) -> str:
    """Name of the tensor primitive whose closure this is (`mul.<locals>.bw`)."""
    return backward_fn.__qualname__.split(".", 1)[0]


class Tracer:
    """Spans and per-step counts of one traced run, kept in memory.

    A span is `[name, start, end, parent, step]`; `parent` is the index of
    the enclosing span (-1 at top level) and `step` the number of the
    training step it ran in (-1 outside steps, which includes sampling the
    next batch).  Spans are stored in the order they opened, so a
    parent always precedes its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.step = -1
        self.steps = 0
        self.nesting_errors = 0
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter() if start is None else start,
                           None, parent, self.step])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index][2] = perf_counter() if end is None else end
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:
            self.nesting_errors += 1
            if index in self._stack:
                del self._stack[self._stack.index(index):]

    def reset_stack(self) -> None:
        """Forget spans left open by a repetition that raised."""
        self.nesting_errors += len(self._stack)
        self._stack.clear()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def timed(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def traced_batches(self, batches):
        """Time each `next()` of the batch generator and each loop body."""
        while True:
            index = self.open("train.sample")
            try:
                batch = next(batches)
            except StopIteration:
                self.close(index)
                return
            self.close(index)
            self.step = self.steps
            self.steps += 1
            self.count("model.rows_read",
                       np.union1d(batch.pos_items, batch.neg_items).size)
            index = self.open("train.step")
            try:
                yield batch
            finally:
                self.close(index)
                self.step = -1

    # -- installation ------------------------------------------------------

    def install(self, patches: Patches) -> None:
        t = self.timed

        def encode_rows(*args, **kwargs):
            if tensor.active_tape() is None:
                return
            rows = [x.shape[0] for x in args[:2] if x is not None]
            self.count("model.rows_encoded", max(rows, default=0))

        def mmd_rows(first, *args, **kwargs):
            self.count("align.mmd_rows", first.shape[0])

        orig_repr = model.Recommender.representations

        @functools.wraps(orig_repr)
        def representations(recommender):
            taped = tensor.active_tape() is not None
            name = ("model.representations_taped" if taped
                    else "model.representations_untaped")
            index = self.open(name)
            try:
                return orig_repr(recommender)
            finally:
                self.close(index)

        orig_record = tensor.Tape.record

        def record(tape, out, inputs, backward_fn):
            prim = primitive_of(backward_fn)
            self.count("tensor.tape_nodes", 1)
            self.count(f"tensor.tape_nodes.{prim}", 1)
            self.count("tensor.out_bytes", out.data.nbytes)
            orig_record(tape, out, inputs,
                        t(f"tensor.backward.{prim}", backward_fn))

        def grad_bytes(tensor_, g):
            self.count("tensor.grad_bytes", np.asarray(g).nbytes)

        patches.set(model.Recommender, "representations", representations)
        patches.set(tensor.Tape, "record", record)
        patches.set(tensor.Tensor, "accumulate_grad",
                    t("tensor.accumulate_grad", tensor.Tensor.accumulate_grad,
                      before=grad_bytes))
        for owner, attr, name, before in (
                (model, "propagate", "model.propagate", None),
                (model, "encode_items", "model.encode_items", encode_rows),
                (model, "dream_forward", "dream.forward", None),
                (model, "fuse", "model.fuse", None),
                (model, "bpr_loss", "model.bpr", None),
                (model, "mmd_squared", "align.mmd", mmd_rows),
                (model, "infonce", "align.infonce", None),
                (train, "backward", "tensor.backward", None),
                (train, "adam_step", "optim.adam", None),
                (train, "load_dataset", "data.load", None),
                (train, "split_811", "evaluation.split", None),
                (train, "build_propagation_operator", "model.build_operator",
                 None),
                (train, "save_checkpoint", "model.save_checkpoint", None),
                (train, "evaluate", "evaluation.evaluate", None)):
            patches.set(owner, attr, t(name, getattr(owner, attr), before))

    def synth(self, spec, out_dir):
        """`data.synth_generate` under a span; the benchmark calls it directly."""
        return self.timed("data.synth", data.synth_generate)(spec, out_dir)
