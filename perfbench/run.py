"""End-to-end and per-layer training benchmark for alignrec.

    python3 perfbench/run.py --workload planted-small --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` and the metric names and units from `BENCHMARK.json`.  Each run is
one process and a closed loop with one caller: it generates planted-factor
data from `--seed`, then repeats "set up and train the fixed epoch budget
through `train.run_training`" until `--seconds` are used, and at least
twice.  Every repetition starts with fresh data files, so each one also
gives a set-up sample; after each, set-up-only repetitions, stopped at the
first batch, add more, so the samples spread over the whole run.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced repetition (the reference) with a traced one and reports the
per-layer metrics.  Both check the outputs: the test metrics against a numpy
oracle and a Recall@20 floor, every record of the metrics stream, a
byte-identical stream across repetitions (traced and untraced alike), and in
the traced run the span accounting.  The last stdout line is the result
object; the line before it is a report with the stream hash, sample counts,
per-layer self times and the machine.  Any failed check makes the exit code
1.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; one thread keeps the figures
# steady on a shared machine and never exceeds the cores available.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BATCH_SIZE = 2048
# After each full repetition, set-up-only repetitions run until they have
# taken SETUP_SHARE of that repetition's time (at least one), so the set-up
# samples spread over the whole run instead of one phase of a shared host.
SETUP_SHARE = 0.1
# Metrics streams per run (full repetitions, traced or not), whatever
# --seconds is: the determinism check compares them.
MIN_STREAMS = 2

# Layers timed per epoch: span name -> metric name (inclusive ms per epoch).
EPOCH_LAYERS = {
    "train.sample": "train.sample_ms",
    "train.step": "train.step_ms",
    "model.representations_taped": "model.representations_taped_ms",
    "model.propagate": "model.propagate_ms",
    "model.encode_items": "model.encode_items_ms",
    "dream.forward": "dream.forward_ms",
    "model.fuse": "model.fuse_ms",
    "model.bpr": "model.bpr_ms",
    "align.mmd": "align.mmd_ms",
    "align.infonce": "align.infonce_ms",
    "tensor.backward": "tensor.backward_ms",
    "tensor.accumulate_grad": "tensor.accumulate_grad_ms",
    "optim.adam": "optim.adam_ms",
    "model.representations_untaped": "model.representations_untaped_ms",
    "evaluation.evaluate": "evaluation.evaluate_ms",
}
# Layers with child spans also report their own (self) time.
PARENT_LAYERS = ("train.step", "model.representations_taped",
                 "model.representations_untaped", "model.encode_items",
                 "tensor.backward")
# Layers called once per set-up or repetition: median ms per call.
SETUP_LAYERS = {
    "data.synth": "data.synth_ms",
    "data.load": "data.load_ms",
    "evaluation.split": "evaluation.split_ms",
    "model.build_operator": "model.build_operator_ms",
    "model.save_checkpoint": "model.save_checkpoint_ms",
}
# Work counted per training step (mean over the traced steps).
STEP_COUNTS = ("tensor.tape_nodes", "tensor.out_bytes", "tensor.grad_bytes",
               "model.rows_encoded", "model.rows_read", "align.mmd_rows")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric names with their units, as
    BENCHMARK.json at the checkout root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


@dataclass
class Repetition:
    """What one call of `run_training` left behind."""

    setup_s: float | None
    seconds: float
    epochs: list[dict] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    test_capture: tuple | None = None
    test_eval: tuple[int, float] | None = None  # users ranked, seconds
    error: str | None = None


class Bench:
    def __init__(self, workload: Workload, seed: int, train_seed: int,
                 work_dir: Path):
        from alignrec.data import SynthSpec
        self.workload = workload
        self.spec = SynthSpec(users=workload.users, items=workload.items,
                              interactions_per_user=workload.interactions_per_user,
                              seed=seed)
        self.train_seed = train_seed
        self.work_dir = work_dir

    def repetition(self, tracer=None, setup_only: bool = False) -> Repetition:
        from alignrec import data, train
        from alignrec.config import RunConfig
        from instrument import EpochRecorder, Patches, SetupDone

        recorder = EpochRecorder(tracer, stop_at_first_batch=setup_only)
        patches = Patches()
        if tracer is not None:
            tracer.install(patches)
        recorder.install(patches)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        error = None
        started = perf_counter()
        try:
            synth = tracer.synth if tracer is not None else data.synth_generate
            paths = synth(self.spec, self.work_dir / "data")
            epochs = self.workload.epochs
            cfg = RunConfig(interactions=paths["interactions"],
                            visual=paths["visual"], text=paths["text"],
                            out=str(self.work_dir / "run"), seed=self.train_seed,
                            batch_size=BATCH_SIZE, max_epochs=epochs,
                            patience=epochs + 1)
            train.run_training(cfg, stdout=recorder.sink)
        except SetupDone:
            pass
        except Exception:  # a failed repetition is counted, not fatal
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        finally:
            patches.restore()
            if tracer is not None:
                tracer.reset_stack()
        setup_s = (recorder.setup_end - started
                   if recorder.setup_end is not None else None)
        test_eval = None
        if recorder.test_start is not None and recorder.test_end is not None:
            test_eval = (recorder.test_users,
                         recorder.test_end - recorder.test_start)
        return Repetition(setup_s=setup_s, seconds=perf_counter() - started,
                          epochs=recorder.complete_epochs(),
                          lines=recorder.sink.lines,
                          test_capture=recorder.test_capture,
                          test_eval=test_eval, error=error)


class Outcome:
    """Attempted and failed operations (epochs and checks) with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    value there; with fewer than eleven samples, the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def check_repetitions(reps: list[Repetition], epochs: int,
                      outcome: Outcome) -> str | None:
    """Epoch failures, the oracle, stream sanity and equal stream hashes."""
    from checks import oracle_problems, stream_hash, stream_problems
    hashes = []
    for number, rep in enumerate(reps, start=1):
        started = len(rep.epochs) + (1 if rep.error else 0)
        outcome.attempted += max(started, 1)
        if rep.error:
            outcome.failed += 1
            outcome.problems.append(f"repetition {number} raised: "
                                    f"{rep.error.strip().splitlines()[-1]}")
            continue
        outcome.check(f"repetition {number} oracle",
                      oracle_problems(rep.test_capture))
        outcome.check(f"repetition {number} stream",
                      stream_problems(rep.lines, epochs))
        hashes.append(stream_hash(rep.lines))
    if len(hashes) < MIN_STREAMS:
        problem = [f"not performed: {len(hashes)} checked stream(s)"]
    elif len(set(hashes)) > 1:
        problem = [f"streams differ across repetitions: {sorted(set(hashes))}"]
    else:
        problem = []
    outcome.check("determinism", problem)
    return hashes[0] if hashes else None


def end_to_end(reps: list[Repetition], setups: list[float], peak_rss_mb: float,
               outcome: Outcome) -> tuple[dict, dict]:
    epochs = [e for rep in reps for e in rep.epochs]
    if not epochs or not setups:
        return {}, {}
    epoch_ms = [1000.0 * (e["end"] - e["start"]) for e in epochs]
    percentile, tail_ms = tail(epoch_ms)
    # Rates are work over time summed across the run.  Evaluation windows
    # run from the end of the batch loop (or from restoring the best
    # parameters, for the test split) to the end of `evaluate`, so they
    # cover the tape-off `representations()` call as well.
    evals = [(e["users"], e["eval_end"] - e["loop_end"]) for e in epochs]
    evals += [r.test_eval for r in reps if r.test_eval]
    values = {
        "setup_s": statistics.median(setups),
        "epoch_ms": statistics.median(epoch_ms),
        "epoch_ms_tail": tail_ms,
        "train_triples_per_s": sum(e["triples"] for e in epochs) / sum(
            e["loop_end"] - e["start"] for e in epochs),
        "eval_users_per_s": sum(u for u, _ in evals) / sum(t for _, t in evals),
        "peak_rss_mb": peak_rss_mb,
        "completed_share": 1.0 - outcome.failed / max(outcome.attempted, 1),
    }
    info = {"epoch_samples": len(epochs), "setup_samples": len(setups),
            "epoch_ms_tail_percentile": round(percentile, 2),
            "eval_windows": len(evals)}
    return values, info


def per_layer(tracer, traced: list[Repetition], references: list[Repetition],
              units: dict[str, str], outcome: Outcome) -> tuple[dict, dict]:
    from checks import accounting_problems, self_times
    spans = tracer.spans
    roots = [e["span"] for rep in traced for e in rep.epochs]
    problems = [f"{tracer.nesting_errors} spans closed out of order"] \
        if tracer.nesting_errors else []
    if any(span[2] is None for span in spans):
        outcome.check("trace accounting", problems + ["spans left open"])
        return {}, {}
    selfs = self_times(spans)
    primitives = {name.rsplit(".", 1)[1] for name in units
                  if name.startswith("tensor.backward_ms.")}

    def name_of(span_name: str) -> str:
        prefix = "tensor.backward."
        if span_name.startswith(prefix):
            prim = span_name[len(prefix):]
            return f"tensor.backward_ms.{prim if prim in primitives else 'other'}"
        return EPOCH_LAYERS.get(span_name, "")

    root_pos = {root: pos for pos, root in enumerate(roots)}
    per_epoch: dict[str, list[float]] = {}
    self_per_epoch: dict[str, list[float]] = {}
    setup_calls: dict[str, list[float]] = {}
    # Seconds of each epoch that the per-layer figures account for: self
    # time for the epoch (train.unattributed_ms) and the parent layers
    # (*_self_ms), inclusive time for every other layer.  A span with no
    # metric, or a layer reported inclusive that has children, breaks the sum.
    credited = [0.0] * len(roots)
    epoch_of = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        pos = root_pos.get(index, epoch_of.get(parent))
        if pos is None:
            if name in SETUP_LAYERS:
                setup_calls.setdefault(SETUP_LAYERS[name], []).append(
                    1000.0 * (end - start))
            continue
        epoch_of[index] = pos
        metric = name_of(name)
        if metric:
            per_epoch.setdefault(metric, [0.0] * len(roots))[pos] += \
                1000.0 * (end - start)
        self_per_epoch.setdefault(name, [0.0] * len(roots))[pos] += \
            1000.0 * selfs[index]
        if index in root_pos or name in PARENT_LAYERS:
            credited[pos] += selfs[index]
        elif metric:
            credited[pos] += end - start
    problems += accounting_problems(spans, selfs, roots, credited)
    outcome.check("trace accounting", problems)
    if not roots:
        return {}, {}

    values = {metric: 0.0 for metric in units}
    for metric, series in per_epoch.items():
        values[metric] = statistics.median(series)
    for layer in PARENT_LAYERS:
        values[f"{layer}_self_ms"] = statistics.median(
            self_per_epoch.get(layer, [0.0]))
    values["train.unattributed_ms"] = statistics.median(
        self_per_epoch["train.epoch"])
    for metric, calls in setup_calls.items():
        values[metric] = statistics.median(calls)

    steps = max(tracer.steps, 1)
    for name in STEP_COUNTS:
        values[name] = tracer.counts.get(name, 0) / steps
    prefix = "tensor.tape_nodes."
    for name, count in tracer.counts.items():
        if name.startswith(prefix):
            prim = name[len(prefix):]
            key = f"{prefix}{prim if prim in primitives else 'other'}"
            values[key] += count / steps
    encoded = tracer.counts.get("model.rows_encoded", 0)
    values["model.encode_useful_ratio"] = (
        tracer.counts.get("model.rows_read", 0) / encoded if encoded else 0.0)
    values["train.steps"] = tracer.steps / len(roots)
    traced_epochs = [e for rep in traced for e in rep.epochs]
    values["evaluation.users_ranked"] = statistics.median(
        e["users"] for e in traced_epochs)
    traced_ms = statistics.median(1000.0 * (e["end"] - e["start"])
                                  for e in traced_epochs)
    values["trace.epoch_ms"] = traced_ms
    reference_epochs = [e for rep in references for e in rep.epochs]
    if reference_epochs:
        values["trace.overhead_ms"] = traced_ms - statistics.median(
            1000.0 * (e["end"] - e["start"]) for e in reference_epochs)
    info = {"traced_epochs": len(roots), "traced_steps": tracer.steps,
            "reference_epochs": len(reference_epochs),
            "self_ms": {name: round(statistics.median(series), 4)
                        for name, series in sorted(self_per_epoch.items())}}
    return values, info


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# name, start_s, end_s, parent_index, step\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def run(args, workload: Workload, work_dir: Path,
        units: dict[str, str]) -> tuple[dict, dict]:
    from instrument import Tracer

    bench = Bench(workload, args.seed, args.train_seed, work_dir)
    tracer = Tracer() if args.trace else None
    outcome = Outcome()
    started = perf_counter()
    setups, reps, references = [], [], []
    while True:
        lap_start = perf_counter()
        if tracer is not None:
            # An untraced repetition before each traced one gives the
            # reference stream and the epochs the overhead is measured on.
            references.append(bench.repetition())
        rep = bench.repetition(tracer)
        reps.append(rep)
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
        gap_start = perf_counter()
        while not rep.error:
            only = bench.repetition(tracer, setup_only=True)
            outcome.check("set-up", [only.error.strip().splitlines()[-1]]
                          if only.error else [])
            if only.setup_s is None:
                break
            setups.append(only.setup_s)
            if perf_counter() - gap_start >= SETUP_SHARE * rep.seconds:
                break
        now = perf_counter()
        if rep.error or any(r.error for r in references):
            break
        if (len(reps) + len(references) >= MIN_STREAMS
                and now - started + (now - lap_start) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stream = check_repetitions(reps + references, workload.epochs, outcome)
    final = next((r.test_capture[4] for r in reversed(reps) if r.test_capture),
                 {})
    report = {"workload": workload.name, "seed": args.seed,
              "train_seed": args.train_seed,
              "epochs_per_repetition": workload.epochs,
              "repetitions": len(reps), "stream_sha256": stream,
              "test_metrics": final}
    if args.trace:
        values, info = per_layer(tracer, reps, references, units, outcome)
        spans_path = OUT / (f"spans-{workload.name}-s{args.seed}"
                            f"-t{args.train_seed}.jsonl")
        write_spans(tracer, spans_path)
        report.update(info, spans=str(spans_path.relative_to(ROOT)))
    else:
        values, info = end_to_end(reps, setups, peak_rss_mb, outcome)
        report.update(info)
    missing = sorted(set(units) - set(values))
    outcome.check("metrics", [f"not measured: {m}" for m in missing])
    report.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems, machine=machine())
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items() if name in values}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the data generator's seed")
    parser.add_argument("--train-seed", type=int, default=0,
                        help="training seed: split, initialisation, sampling")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "alignrec" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'alignrec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alignrec
    if Path(alignrec.__file__).resolve().parent != SRC / "alignrec":
        print(f"alignrec imported from {alignrec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    end_to_end_units, per_layer_units = declared_metrics()
    workload = WORKLOADS[args.workload]
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        report, result = run(args, workload, work_dir,
                             per_layer_units if args.trace else end_to_end_units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    for name, value in report["test_metrics"].items():
        print(f"# test {name} = {value:.6g} ratio", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
