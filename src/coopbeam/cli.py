"""Command line front end: run, validate, and list the bundled experiments."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .experiments import EXPERIMENTS, emit_plotdata, load_spec, run_experiment


def _cmd_run(args):
    overrides = {"seed": args.seed, "draws": args.draws, "out_dir": args.out}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    # replace() re-runs the spec validation on the overridden values; every
    # spec is checked before the first one runs
    specs = [dataclasses.replace(load_spec(path), **overrides) for path in args.specs]
    targets = [(os.path.normpath(spec.out_dir), spec.experiment) for spec in specs]
    if len(set(targets)) < len(targets):
        raise ValueError("two specs would write the same <out_dir>/<experiment>.csv")
    for spec in specs:
        summary = run_experiment(spec, threads=args.threads)
        if args.plotdata:
            summary["plotdata"] = emit_plotdata(summary["csv"])
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _cmd_list(_args):
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:24s} {exp.description}")
        for name, opt in exp.options.items():
            print(f"    {name} = {json.dumps(opt.default)}")
        if exp.methods:
            print(f"    methods from: {' '.join(sorted(exp.methods))}")
    return 0


def _cmd_validate(args):
    spec = load_spec(args.spec)
    print(f"ok: {args.spec}")
    json.dump(spec.to_dict(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coopbeam",
        description="Double-IRS cooperative passive beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiment specs (JSON), one after another")
    run_p.add_argument("specs", nargs="+", metavar="spec", help="paths to experiment spec files")
    run_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    run_p.add_argument("--draws", type=int, default=None, help="override draws per point")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--threads", type=int, default=1, help="worker processes")
    run_p.add_argument("--plotdata", action="store_true", help="also emit per-method series files")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-experiments", help="list available experiment ids")
    list_p.set_defaults(func=_cmd_list)

    val_p = sub.add_parser("validate", help="check an experiment spec file")
    val_p.add_argument("spec", help="path to the experiment spec file")
    val_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
