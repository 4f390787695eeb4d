"""Command-line front end.

Subcommands: train, evaluate, gradcheck, align-stats, synth. `train
--variant` trains one ablation variant.
Metrics and results are JSON lines on stdout; logs go to stderr.
Exit codes: 0 success, 2 usage or config error or memory that cannot be
allocated, 3 data or format error,
4 numerical failure, 128 + the signal number when SIGINT (130) or SIGTERM
(143) stops a command, 141 when the reader of stdout closes it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import RunConfig, format_value, parse_value, resolve_config
from .data import SynthSpec, synth_generate
from .diagnostics import align_stats, run_gradcheck
from .errors import ConfigError, DataFormatError, NumericalError
from .evaluation import evaluate
from .model import VARIANTS
from .tensor import DimensionError, ParameterError, UsageError
from .train import RESTORE_FIELDS, check_finite, log, restore_model, run_training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a command SIGPIPE killed


# Flags not spelled `--<field-name-with-dashes>`.
_SPELLINGS = {"eval_ks": "--ks"}
# `train` takes every field but a restore's checkpoint.
_TRAIN_FIELDS = [f.name for f in fields(RunConfig) if f.name != "checkpoint"]


def _read_config_flag(annotation: str):
    """A config flag's text is read as a config-file value, except that text
    fields keep it raw and a list is given without brackets;
    `resolve_config` checks the type."""
    if annotation.startswith("tuple["):
        return lambda text: parse_value(f"[{text}]")
    return str if annotation.startswith("str") else parse_value


def _add_field_flags(parser: argparse.ArgumentParser, cls, read, names=None) -> None:
    """One flag per field of the dataclass `cls`, or per field in `names`,
    its text read by `read(annotation)`. A flag not given sets no attribute,
    but a restore's `--checkpoint` must be given, and a restore's other flags
    default to the run's own values."""
    restore = names is not None and "checkpoint" in names
    for f in fields(cls):
        if names is None or f.name in names:
            listed = ", comma-separated" if f.type.startswith("tuple[") else ""
            if f.name == "variant":
                listed = f", one of {', '.join(VARIANTS)}"
            default = ("required" if f.name == "checkpoint"
                       else "default: the run's own value" if restore
                       else f"default {format_value(f.default)}")
            parser.add_argument(
                _SPELLINGS.get(f.name, "--" + f.name.replace("_", "-")),
                dest=f.name, type=read(f.type), default=argparse.SUPPRESS,
                required=f.name == "checkpoint", help=f"{f.type}{listed}, {default}")


def _given(args: argparse.Namespace, cls) -> dict:
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _config_command(sub, name: str, help: str, handler,
                    names=_TRAIN_FIELDS) -> argparse.ArgumentParser:
    """A subcommand taking the `RunConfig` fields in `names` as flags, and
    `--config` when it trains: a restore reads its own run's configuration."""
    parser = sub.add_parser(name, help=help)
    if "checkpoint" not in names:
        parser.add_argument("--config", help="key = value config file")
    _add_field_flags(parser, RunConfig, _read_config_flag, names)
    parser.set_defaults(handler=handler)
    return parser


def cmd_train(args) -> int:
    cfg = resolve_config(args.config, _given(args, RunConfig))
    log("\n  ".join(["resolved configuration:", *cfg.lines()]))
    run_training(cfg)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, split, cfg = restore_model(args.checkpoint, _given(args, RunConfig))
    with np.errstate(all="ignore"):  # a non-finite result is named below
        representations = model.representations()
    check_finite(representations)
    user_repr, item_repr, _, _ = representations
    metrics = evaluate(user_repr.data, item_repr.data, split, "test", cfg.eval_ks)
    print(json.dumps({"split": "test", **{k: metrics[k] for k in sorted(metrics)}}))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results, passed = run_gradcheck(seed=args.seed, tol=args.tol, h=args.h)
    print(json.dumps({"tol": args.tol, "h": args.h, "passed": passed,
                      "groups": results}))
    if not passed:
        raise NumericalError("gradient check failed")
    return EXIT_OK


def cmd_align_stats(args) -> int:
    model, _, _ = restore_model(args.checkpoint, _given(args, RunConfig))
    export = args.export or Path(args.checkpoint).with_name("item_repr.fmat")
    print(json.dumps(align_stats(model, export_path=export)))
    return EXIT_OK


def cmd_synth(args) -> int:
    print(json.dumps(synth_generate(SynthSpec(**_given(args, SynthSpec)), args.out)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignrec",
        description="multimodal alignment recommender: train, evaluate, diagnose")
    sub = parser.add_subparsers(dest="command", required=True)

    _config_command(sub, "train", "train and save the best checkpoint", cmd_train)
    _config_command(sub, "evaluate", "test-split metrics for a checkpoint",
                    cmd_evaluate, RESTORE_FIELDS)

    p_grad = sub.add_parser("gradcheck",
                            help="verify analytic gradients on a seeded instance")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.add_argument("--h", type=float, default=1e-6)
    p_grad.set_defaults(handler=cmd_gradcheck)

    p_stats = _config_command(sub, "align-stats",
                              "modality distribution diagnostics for a checkpoint",
                              cmd_align_stats,
                              [n for n in RESTORE_FIELDS if n != "eval_ks"])
    p_stats.add_argument("--export", default=None,
                         help="FMAT path for fused item representations, "
                              "default item_repr.fmat beside the checkpoint")

    p_synth = sub.add_parser("synth", help="generate a planted-factor dataset")
    p_synth.add_argument("--out", required=True)
    _add_field_flags(p_synth, SynthSpec, {"int": int, "float": float}.get)
    p_synth.set_defaults(handler=cmd_synth)

    return parser


class Interrupted(BaseException):
    """A signal stopped the command; outputs close as on any error."""


def _interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    for s in previous:
        if previous[s] is not signal.SIG_IGN:  # an ignored signal stays ignored
            signal.signal(s, _interrupt)
    try:
        return args.handler(args)
    except Interrupted as stop:
        log(f"error: interrupted by {stop.args[0].name}")
        return 128 + stop.args[0]
    except BrokenPipeError:
        # Stdout, and stderr when it was on the same pipe, now lead nowhere,
        # so the interpreter's flush at exit has nothing to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            log("error: stdout was closed by its reader")
        except BrokenPipeError:
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ConfigError, ParameterError, UsageError) as err:
        log(f"error: {err}")
        return EXIT_USAGE
    except MemoryError as err:  # numpy's names the size it could not allocate
        log(f"error: {str(err) or 'out of memory'}")
        return EXIT_USAGE
    except (DataFormatError, DimensionError, OSError, IndexError) as err:
        log(f"error: {err}")
        return EXIT_DATA
    except NumericalError as err:
        log(f"error: {err}")
        return EXIT_NUMERIC
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


if __name__ == "__main__":
    sys.exit(main())
