"""coopbeam benchmark: Monte-Carlo workloads through the public experiment API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload su-prop1 --seed 1 --seconds 35 --trace 0

Each workload is an ExperimentSpec file under perfbench/workloads/ whose
``draws`` field is the unit of work of one ``run_experiment`` call.  Call j of
a run uses the experiment seed ``seed * 1000 + j``; the first
``reference_calls`` calls are always made, and further calls follow until
``--seconds`` have passed.  Every call is checked (see ``check_call``).
On the workloads bound by per-call overhead on small arrays, a fixed numpy
kernel that does not use coopbeam is timed between calls, and ``points_per_s``
is scaled by it to a fixed reference speed of the machine (see ``calibrate``).

--trace 0 prints the end-to-end metrics.  --trace 1 replays only the reference
calls: once untraced, then twice under the span tracer of tracing.py, checks that
the CSV bytes of all three passes and the counts of both traced passes are
identical, and prints the per-layer metrics.  The last stdout line is the
result object; the full record (environment, CSV fingerprint, layer table) is
written under perfbench/out/.  See perfbench/README.md for the reasons behind
each workload and metric.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and its children; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
# median calibrate() time on the reference machine (README), the speed that
# points_per_s is scaled to; one calibration sample per CALIBRATE_EVERY_S of calls
CALIBRATION_REF_S = 0.056
CALIBRATE_EVERY_S = 1.0
MAX_CALLS = 1000  # keeps the per-call experiment seeds of two bench seeds apart
HELD_OUT_SEED = 7919  # never run while the benchmark was tuned; confirm claims on it
OPTIMIZING = ("ao-ib", "single-irs", "alg1-mmse", "single-mmse")  # rows averaged by rate_bits


@dataclasses.dataclass(frozen=True)
class Workload:
    spec: str             # file under perfbench/workloads/
    reference_calls: int  # calls every run makes; rate_bits, fingerprint and trace use these
    assertion: str        # summary["assertions"] key that must be True
    # scale points_per_s by calibrate(): on for the workloads whose time, like the
    # kernel's, is numpy call overhead on small arrays and drifts with the host.
    # mu-maxmin spends its time in LAPACK on 17x17 and 33x33 matrices; its raw
    # wall time is steadier and the kernel does not track it (README, Calibration).
    calibrated: bool


WORKLOADS = {
    "su-prop1": Workload("su-prop1.json", 6, "pass", True),
    "mu-maxmin": Workload("mu-maxmin.json", 5, "alg1_ge_dft_mmse", False),
    "mu-tiny": Workload("mu-tiny.json", 9, "alg1_ge_dft_mmse", True),
}


class BenchError(RuntimeError):
    """The benchmark cannot run or a correctness check failed."""


def import_coopbeam():
    """Import coopbeam from this checkout's src/, never from an installed copy."""
    if not (SRC / "coopbeam" / "__init__.py").is_file():
        raise BenchError(f"no coopbeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coopbeam
    import coopbeam.experiments

    if Path(coopbeam.__file__).resolve().parent != (SRC / "coopbeam").resolve():
        raise BenchError(f"imported coopbeam from {coopbeam.__file__}, not from {SRC}")
    return coopbeam


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fname in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                      "openblas_get_num_threads"):
            fn = getattr(lib, fname, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(spec_path):
    """Median wall time of a fresh interpreter running `coopbeam validate <spec>`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-m", "coopbeam.cli", "validate", str(spec_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"spec validation failed: {proc.stderr.strip()}")
    return statistics.median(times)


@functools.cache
def _calibration_inputs():
    """Fixed small arrays shaped like the workloads' hot loops."""
    import numpy as np

    rng = np.random.default_rng(20080913)
    g = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    x = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 16))
    w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return g, x, w, a @ a.conj().T + np.eye(3)


def calibrate(repeats=1500):
    """Seconds for a fixed loop of small-vector products, phase alignments and
    3x3 eigh/solve calls.

    The host gives this process a CPU whose speed drifts by tens of percent in
    phases of seconds to minutes.  Timing this kernel between the calls of a
    run measures that speed.  Its work is the kind the workloads spend their
    time in (per-call numpy overhead on small arrays, as in the single-user AO
    loop and the small feasibility checks), and it does not use coopbeam, so a
    change to the program cannot move it.
    """
    import numpy as np

    g, x, w, psi = _calibration_inputs()
    t0 = time.perf_counter()
    for _ in range(repeats):
        h = g @ x
        abs(np.vdot(w, h)) ** 2 / np.vdot(w, w).real
        x = np.exp(1j * np.angle(g.conj().T @ w + x))
        _, v = np.linalg.eigh(psi)
        np.linalg.solve(psi, v).sum()
    return time.perf_counter() - t0


def check_call(workload, spec, summary, rows):
    """Correctness gate of one run_experiment call; returns a list of problems."""
    problems = []
    if summary["failures"]:
        problems.append(f"failed draws: {summary['failures']}")
    assertions = summary["assertions"]
    if assertions.get(workload.assertion) is not True:
        problems.append(f"assertion {workload.assertion} not met: {assertions}")
    if workload.assertion == "pass" and assertions.get("violations") != 0:
        problems.append(f"prop1 violations: {assertions.get('violations')}")
    methods = {r["method"] for r in rows}
    if not methods or len(rows) != len(spec.sweep) * len(methods):
        problems.append(f"{len(rows)} CSV rows for {len(spec.sweep)} points x {sorted(methods)}")
    for r in rows:
        rate = float(r["mean_rate"])
        if r["status"] != "ok" or int(r["draws"]) != spec.draws or not math.isfinite(rate) or rate < 0:
            problems.append(f"bad CSV row {r}")
    return problems


def run_call(cb, workload, base_spec, seed, index, out_dir):
    """One run_experiment call through the module attribute (so tracing sees it)."""
    spec = dataclasses.replace(base_spec, seed=seed * 1000 + index, out_dir=str(out_dir))
    t0 = time.perf_counter()
    summary = cb.experiments.run_experiment(spec, threads=1)
    elapsed = time.perf_counter() - t0
    data = Path(summary["csv"]).read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    return {
        "seconds": elapsed,
        "points": spec.draws * len(spec.sweep),
        "draws": spec.draws,
        "failed_draws": len(summary["failures"]),
        "csv": data,
        "rows": rows,
        "problems": check_call(workload, spec, summary, rows),
    }


def run_calls(cb, workload, base_spec, seed, out_dir, count=None, seconds=0.0, calibration=None):
    """`count` calls, or the reference calls and then more until `seconds` have passed.

    With a `calibration` list, calibrate() is timed before the first call and
    after each call, once per started CALIBRATE_EVERY_S of the call's time.
    """
    calls = []
    if calibration is not None:
        calibrate()  # warm-up, not recorded
        calibration.append(calibrate())
    t0 = time.perf_counter()
    while len(calls) < MAX_CALLS:
        if count is not None and len(calls) >= count:
            break
        if count is None and len(calls) >= workload.reference_calls \
                and time.perf_counter() - t0 >= seconds:
            break
        calls.append(run_call(cb, workload, base_spec, seed, len(calls), out_dir))
        if calibration is not None:
            for _ in range(max(1, math.ceil(calls[-1]["seconds"] / CALIBRATE_EVERY_S))):
                calibration.append(calibrate())
    return calls


def fingerprint(calls):
    digest = hashlib.sha256()
    for call in calls:
        digest.update(hashlib.sha256(call["csv"]).digest())
    return digest.hexdigest()


def rate_bits(calls):
    rates = [float(r["mean_rate"]) for c in calls for r in c["rows"] if r["method"] in OPTIMIZING]
    return statistics.fmean(rates)


def end_to_end(cb, workload, base_spec, spec_path, seed, seconds, out_dir):
    setup_s = measure_setup(spec_path)
    calibration = [] if workload.calibrated else None
    calls = run_calls(cb, workload, base_spec, seed, out_dir, seconds=seconds,
                      calibration=calibration)
    reference = calls[: workload.reference_calls]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    points_per_s = wall_points_per_s = \
        sum(c["points"] for c in calls) / sum(c["seconds"] for c in calls)
    if calibration:
        # the wall time as it would read on the reference machine's speed
        points_per_s *= statistics.fmean(calibration) / CALIBRATION_REF_S
        print(f"wall-clock points_per_s {wall_points_per_s:.6g} 1/s, calibration mean "
              f"{statistics.fmean(calibration):.6g} s over {len(calibration)} samples")
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (points_per_s, "1/s"),
        "rate_bits": (rate_bits(reference), "bits/s/Hz"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {"call_seconds": [c["seconds"] for c in calls],
              "calibration_seconds": calibration,
              "wall_points_per_s": wall_points_per_s,
              "reference_fingerprint": fingerprint(reference)}
    return calls, metrics, record


def traced(cb, workload, base_spec, seed, out_dir):
    from tracing import Tracer, layer_metrics

    n = workload.reference_calls
    plain = run_calls(cb, workload, base_spec, seed, out_dir, count=n)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            calls = run_calls(cb, workload, base_spec, seed, out_dir, count=n)
        finally:
            tracer.uninstall()
        passes.append((tracer, calls))
    (tracer, calls), (tracer2, calls2) = passes

    problems = []
    for label, other in (("first traced", calls), ("second traced", calls2)):
        if [c["csv"] for c in other] != [c["csv"] for c in plain]:
            problems.append(f"{label} pass CSV bytes differ from the untraced pass")
    counts = tracer.deterministic_counts()
    if counts != tracer2.deterministic_counts() or len(tracer.spans) != len(tracer2.spans):
        problems.append("counts differ between the two traced passes of one seed")

    untraced_wall = sum(c["seconds"] for c in plain)
    traced_wall = sum(c["seconds"] for c in calls)
    overhead = traced_wall / untraced_wall
    self_s, _ = tracer.self_times()
    self_total = sum(self_s.values())
    # the span tree partitions each run_experiment span, so the self times add
    # up to the traced wall time less the harness time outside the root spans
    coverage = self_total / traced_wall
    if not 0.99 <= coverage <= 1.0 + 1e-9:
        problems.append(f"self times sum to {coverage:.4%} of the traced wall time")

    spans_path = out_dir / f"spans-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    inclusive = tracer.inclusive_times()
    table = {k: {"self_s": v, "self_share": v / self_total, "inclusive_share": inclusive[k] / self_total}
             for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])}
    record = {
        "calls": n,
        "reference_fingerprint": fingerprint(plain),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "self_time_coverage": coverage,
        "layers": table,
        "counts": counts,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    print(f"{'self share':>10s} {'inclusive':>10s} {'self s':>10s}  span")
    for span_name, row in table.items():
        print(f"{row['self_share']:10.2%} {row['inclusive_share']:10.2%} "
              f"{row['self_s']:10.4f}  {span_name}")
    return plain + calls + calls2, layer_metrics(tracer, overhead), record, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    cb = import_coopbeam()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    if args.seed == HELD_OUT_SEED:
        print(f"seed {HELD_OUT_SEED} is the held-out seed")

    spec_path = BENCH / "workloads" / workload.spec
    base_spec = cb.experiments.load_spec(spec_path)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        calls, metrics, record, problems = traced(cb, workload, base_spec,
                                                  args.seed, out_dir)
    else:
        calls, metrics, record = end_to_end(cb, workload, base_spec, spec_path,
                                            args.seed, args.seconds, out_dir)
        problems = []
    problems += [f"call {i}: {p}" for i, c in enumerate(calls) for p in c["problems"]]

    print(f"csv fingerprint {record['reference_fingerprint']} "
          f"({workload.reference_calls} reference calls)")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:44s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(c["draws"] for c in calls),
        "failed": sum(c["failed_draws"] for c in calls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, result=result, problems=problems)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
