"""Command-line front end.

Subcommands: train, evaluate, ablate, gradcheck, align-stats, synth.
Metrics and results are JSON lines on stdout; logs go to stderr.
Exit codes: 0 success, 2 usage or config error, 3 data or format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .config import RunConfig, parse_value, resolve_config
from .data import SynthSpec, synth_generate
from .diagnostics import align_stats, run_gradcheck
from .errors import ConfigError, DataFormatError, NumericalError
from .evaluation import evaluate
from .model import Recommender, load_checkpoint
from .tensor import DimensionError, ParameterError, UsageError
from .train import log, restore_model, run_training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--interactions", help="interaction TSV path")
    parser.add_argument("--visual", help="visual feature FMAT path")
    parser.add_argument("--text", help="text feature FMAT path")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--kcore", type=int)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int)
    parser.add_argument("--base-lr", dest="base_lr", type=float)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--id-dim", dest="id_dim", type=int)
    parser.add_argument("--reduction", type=int)
    parser.add_argument("--graph-layers", dest="graph_layers", type=int)
    parser.add_argument("--branch-channels", dest="branch_channels", type=int)
    parser.add_argument("--lambda-cl", dest="lambda_cl", type=float)
    parser.add_argument("--lambda-mmd", dest="lambda_mmd", type=float)
    parser.add_argument("--lambda-reg", dest="lambda_reg", type=float)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--bandwidths", help="comma-separated, e.g. 1.0,1.5,2.0")
    parser.add_argument("--ks", dest="eval_ks", help="comma-separated cutoffs")


def _flag_values(args: argparse.Namespace) -> dict:
    values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    # Lists take the config-file syntax; resolve_config checks their types.
    for key in ("bandwidths", "eval_ks"):
        if values[key] is not None:
            values[key] = parse_value(f"[{values[key]}]")
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    cfg = resolve_config(getattr(args, "config", None), _flag_values(args))
    log("resolved configuration:")
    for line in cfg.lines():
        log(f"  {line}")
    return cfg


def cmd_train(args) -> int:
    cfg = _resolve(args)
    run_training(cfg)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _resolve(args)
    arrays = load_checkpoint(cfg.checkpoint)
    model, split, _ = restore_model(cfg, arrays)
    user_repr, item_repr, _, _ = model.representations()
    metrics = evaluate(user_repr.data, item_repr.data, split, "test", cfg.eval_ks)
    record = {"split": "test", **{k: metrics[k] for k in sorted(metrics)}}
    print(json.dumps(record))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results, passed = run_gradcheck(seed=args.seed or 0, tol=args.tol, h=args.h)
    print(json.dumps({"tol": args.tol, "h": args.h, "passed": passed,
                      "groups": results}))
    if not passed:
        raise NumericalError("gradient check failed")
    return EXIT_OK


def cmd_align_stats(args) -> int:
    cfg = _resolve(args)
    arrays = load_checkpoint(cfg.checkpoint)
    model, _, _ = restore_model(cfg, arrays)
    export = args.export
    if export is None and cfg.out:
        export = str(Path(cfg.out) / "item_repr.fmat")
    print(json.dumps(align_stats(model, export_path=export)))
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(users=args.users, items=args.items,
                     latent_dim=args.latent_dim,
                     interactions_per_user=args.interactions_per_user,
                     visual_dim=args.visual_dim, text_dim=args.text_dim,
                     noise=args.noise, seed=args.seed)
    result = synth_generate(spec, args.out)
    print(json.dumps(result))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignrec",
        description="multimodal alignment recommender: train, evaluate, ablate")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and save the best checkpoint")
    _add_config_flags(p_train)
    p_train.set_defaults(handler=cmd_train)

    p_ablate = sub.add_parser("ablate", help="train one ablation variant")
    _add_config_flags(p_ablate)
    p_ablate.add_argument("--variant", required=True,
                          choices=Recommender.VARIANTS)
    p_ablate.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("evaluate", help="test-split metrics for a checkpoint")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_grad = sub.add_parser("gradcheck",
                            help="verify analytic gradients on a seeded instance")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.add_argument("--h", type=float, default=1e-6)
    p_grad.set_defaults(handler=cmd_gradcheck)

    p_stats = sub.add_parser("align-stats",
                             help="modality distribution diagnostics for a checkpoint")
    _add_config_flags(p_stats)
    p_stats.add_argument("--checkpoint", required=True)
    p_stats.add_argument("--export", default=None,
                         help="FMAT path for fused item representations")
    p_stats.set_defaults(handler=cmd_align_stats)

    p_synth = sub.add_parser("synth", help="generate a planted-factor dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--users", type=int, default=300)
    p_synth.add_argument("--items", type=int, default=200)
    p_synth.add_argument("--latent-dim", dest="latent_dim", type=int, default=8)
    p_synth.add_argument("--interactions-per-user", dest="interactions_per_user",
                         type=int, default=20)
    p_synth.add_argument("--visual-dim", dest="visual_dim", type=int, default=128)
    p_synth.add_argument("--text-dim", dest="text_dim", type=int, default=96)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(handler=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParameterError, UsageError) as err:
        log(f"error: {err}")
        return EXIT_USAGE
    except (DataFormatError, DimensionError, OSError, IndexError) as err:
        log(f"error: {err}")
        return EXIT_DATA
    except NumericalError as err:
        log(f"error: {err}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
