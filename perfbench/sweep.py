"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads planted-small planted-large \
        --seeds 1-10 --seconds 45 [--trace 0] [--out summary.json] [--label TEXT]

Runs one process at a time from the checkout root.  For every metric it
prints the median, the first and third quartiles (`statistics.quantiles`
with n=4) and the spread, the quartile distance as a share of the median.
`--out` writes the same summary as JSON, with every run's values, stream
hash and operation counts, and the machine the runs came from.  A seed may
repeat (`--seeds 1,1`) to show that the traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return {"seed": seed, "report": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (values[0],) * 3
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else 0.0,
                     "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--label", default="",
                        help="free text stored in the summary, e.g. the commit")
    args = parser.parse_args(argv)

    summary = {"label": args.label, "seconds": args.seconds,
               "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        metrics = summarise(runs)
        summary["machine"] = runs[-1]["report"]["machine"]
        summary["workloads"][workload] = {
            "epochs_per_repetition": WORKLOADS[workload].epochs,
            "metrics": metrics,
            "runs": [{"seed": r["seed"],
                      "stream_sha256": r["report"]["stream_sha256"],
                      "test_metrics": r["report"]["test_metrics"],
                      "attempted": r["result"]["attempted"],
                      "failed": r["result"]["failed"]} for r in runs],
        }
        for name, m in metrics.items():
            print(f"{workload:14s} {name:40s} median {m['median']:.6g} "
                  f"{m['unit']:6s} q1 {m['q1']:.6g} q3 {m['q3']:.6g} "
                  f"spread {m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
