#!/usr/bin/env python3
"""Run one or all bundled experiment specs and emit plot-ready series.

Examples:
    python scripts/run_experiments.py --all --out results --threads 4
    python scripts/run_experiments.py fig5-rate-vs-M1-split --draws 10
"""

import argparse
import dataclasses
import json
import pathlib
import sys

from coopbeam.experiments import EXPERIMENT_IDS, emit_plotdata, load_spec, run_experiment

SPEC_DIR = pathlib.Path(__file__).parent / "specs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment ids to run")
    parser.add_argument("--all", action="store_true", help="run every bundled spec")
    parser.add_argument("--out", default="results")
    parser.add_argument("--draws", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    wanted = list(EXPERIMENT_IDS) if args.all else args.experiments
    if not wanted:
        parser.error("give experiment ids or --all")
    for exp_id in wanted:
        overrides = {"out_dir": args.out, "draws": args.draws, "seed": args.seed}
        spec = dataclasses.replace(
            load_spec(SPEC_DIR / f"{exp_id}.json"),
            **{k: v for k, v in overrides.items() if v is not None},
        )
        print(f"== {exp_id} (draws={spec.draws}, seed={spec.seed}) ==", flush=True)
        summary = run_experiment(spec, threads=args.threads)
        summary["plotdata"] = emit_plotdata(summary["csv"])
        print(json.dumps(summary["assertions"], indent=2, sort_keys=True))
        print(f"   csv: {summary['csv']}  ({summary['runtime_s']:.1f}s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
