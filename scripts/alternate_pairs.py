"""Usage: python scripts/alternate_pairs.py <parent_checkout> <change_checkout>
          --workload W --pairs N [--seed S] [--seconds T]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
each checkout, one after the other, N times, alternating which side runs first
(pair 1 starts with the parent).  Each run's last stdout line, the result
object, gives the end-to-end metrics that BENCHMARK.json lists.  For every such
metric this prints each side's median and quartiles, the change/parent ratio of
the medians, the parent's quartile spread (q3 - q1) and the share of pairs the
change won (ties count for neither side), and applies the rule for claiming a
gain in a small sandbox: at least 10 pairs were run, the change wins at least
9/10 of them, its median beats the parent's by more than the parent's quartile
spread, and no larger share of its draws fails.  The last line is the whole summary as JSON.

Exits non-zero when a run does not finish or reports a failed check; the
verdicts are reported, not enforced, so comparing a checkout with itself exits 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # pairs a gain needs, and
WIN_SHARE = 0.9  # the share of them the change must win


def end_to_end_metrics():
    """{name: "higher" | "lower"} of the end-to-end metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def parse_result(stdout):
    """The result object of one perfbench/run.py run: the JSON on its last non-empty line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"the last line is not a result object: {lines[-1][:200]}")
    return result


def run_side(checkout, workload, seed, seconds):
    """Result object of one end-to-end run of the benchmark in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    try:
        result = parse_result(proc.stdout)
    except ValueError as err:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}, {err}\n{proc.stderr}") from err
    if proc.returncode != 0 or not result.get("correct", False):
        raise RuntimeError(f"{checkout}: exit {proc.returncode}, result {json.dumps(result)}")
    return result


def quartiles(values):
    """(q1, median, q3) by linear interpolation; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics):
    """Per-metric comparison of (parent_result, change_result) pairs; see the module docstring."""
    failed = {side: sum(p[i]["failed"] for p in pairs) / max(1, sum(p[i]["attempted"] for p in pairs))
              for i, side in enumerate(("parent", "change"))}
    out = {}
    for name, better in metrics.items():
        parent = [p[0]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        spread = pq[2] - pq[0]
        out[name] = {
            "better": better,
            "parent": parent,
            "change": change,
            "parent_quartiles": pq,
            "change_quartiles": cq,
            "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
            "parent_spread": spread,
            "won": wins / len(pairs),
            "gain": (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                     and sign * (cq[1] - pq[1]) > spread and failed["change"] <= failed["parent"]),
        }
    return {"pairs": len(pairs), "failed_share": failed, "metrics": out}


def report(summary):
    """Human-readable lines of a summary."""
    lines = [f"{summary['pairs']} pairs; failed share parent {summary['failed_share']['parent']:.4g}, "
             f"change {summary['failed_share']['change']:.4g}",
             f"{'metric':14s} {'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
             f"{'ratio':>7s} {'spread':>9s} {'won':>5s}  gain"]
    for name, m in summary["metrics"].items():
        pq = "/".join(f"{v:.4g}" for v in m["parent_quartiles"])
        cq = "/".join(f"{v:.4g}" for v in m["change_quartiles"])
        lines.append(f"{name:14s} {pq:>32s} {cq:>32s} {m['ratio']:7.4f} {m['parent_spread']:9.3g} "
                     f"{m['won']:5.0%}  {'yes' if m['gain'] else 'no'} ({m['better']} is better)")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[1],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_checkout", type=Path)
    parser.add_argument("change_checkout", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = (args.parent_checkout, args.change_checkout)
    metrics = end_to_end_metrics()
    pairs = []
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            try:
                results[side] = run_side(sides[side], args.workload, args.seed, args.seconds)
            except RuntimeError as err:
                print(f"pair {i + 1}: {err}", file=sys.stderr)
                return 1
        pairs.append(tuple(results))
        values = ", ".join(f"{name} {results[0]['metrics'][name]['value']:.6g} -> "
                           f"{results[1]['metrics'][name]['value']:.6g}"
                           for name in metrics)
        print(f"pair {i + 1} ({'parent' if order[0] == 0 else 'change'} first): {values}", flush=True)
    summary = summarize(pairs, metrics)
    for line in report(summary):
        print(line)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
