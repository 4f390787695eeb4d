#!/usr/bin/env python3
"""Train every ablation variant over several seeds and print a comparison.

Reproduces the module-ablation and modality-ablation experiments on a
planted-factor dataset: recall/NDCG per variant (mean over seeds) plus the
cross-modality distribution distance of the full model against the variant
trained without global alignment.
"""

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from alignrec.config import RunConfig
from alignrec.data import SynthSpec, synth_generate
from alignrec.diagnostics import align_stats
from alignrec.model import Recommender
from alignrec.train import restore_model, run_training


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/ablation", help="output root")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--epochs", type=int, default=70)
    parser.add_argument("--users", type=int, default=300)
    parser.add_argument("--items", type=int, default=200)
    args = parser.parse_args()

    root = Path(args.out)
    seeds = [int(s) for s in args.seeds.split(",")]
    dataset = synth_generate(
        SynthSpec(users=args.users, items=args.items, seed=0), root / "data")
    print(f"dataset: {dataset['interaction_count']} interactions, "
          f"density {dataset['density']:.3f}", file=sys.stderr)

    results = {}
    for variant in Recommender.VARIANTS:
        per_seed = []
        for seed in seeds:
            cfg = RunConfig(interactions=dataset["interactions"],
                            visual=dataset["visual"], text=dataset["text"],
                            out=str(root / f"{variant}_{seed}"), seed=seed,
                            variant=variant, max_epochs=args.epochs,
                            patience=10_000)
            stream = io.StringIO()
            run_training(cfg, stdout=stream)
            final = json.loads(stream.getvalue().strip().splitlines()[-1])
            per_seed.append(final)
            print(f"  {variant} seed {seed}: recall@20 "
                  f"{final['recall@20']:.4f}", file=sys.stderr)
        results[variant] = per_seed

    print(f"{'variant':<12} {'R@10':>8} {'R@20':>8} {'N@10':>8} {'N@20':>8}")
    for variant, rows in results.items():
        means = {k: float(np.mean([r[k] for r in rows]))
                 for k in ("recall@10", "recall@20", "ndcg@10", "ndcg@20")}
        print(f"{variant:<12} {means['recall@10']:>8.4f} "
              f"{means['recall@20']:>8.4f} {means['ndcg@10']:>8.4f} "
              f"{means['ndcg@20']:>8.4f}")

    for variant in ("full", "no-ga"):
        model, _, _ = restore_model(root / f"{variant}_{seeds[0]}" / "checkpoint.mrec")
        stats = align_stats(model)
        print(f"{variant}: cross-modal MMD {stats['mmd_mean']:.5f}, "
              f"matched-pair cosine {stats['mean_cosine']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
