"""Usage: perfbench/run.py ... --trace 1 | python scripts/check_trace_counts.py
          <workload> <max_checks_per_call> <max_newton_per_check> [<max_ao_iters>]

Reads a traced benchmark run's output on stdin and exits non-zero unless its last
line, the result object, shows at most <max_checks_per_call> feasibility checks per
bisection, at most <max_newton_per_check> Newton steps per check, no numerical
failure and, when <max_ao_iters> is given, at most that many AO cycles per
`ao_single_user` call on average.  The traced counts are pure functions of the seed,
so these limits carry no timing noise.
"""

import json
import sys

workload, max_checks, max_steps = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
max_iters = float(sys.argv[4]) if len(sys.argv) > 4 else float("inf")
m = json.loads(sys.stdin.read().splitlines()[-1])["metrics"]
checks = m["sdp.bisection_maxmin.checks_per_call"]["value"]
steps = m["sdp.feasibility_check.newton_per_check"]["value"]
failures = m["sdp.feasibility_check.numerical_failures"]["value"]
iters = m["single_user.ao_single_user.iters_mean"]["value"]
print(f"checks_per_call {checks}, newton_per_check {steps}, numerical_failures {failures}, "
      f"ao_iters_mean {iters}")
if checks > max_checks or steps > max_steps or failures > 0 or iters > max_iters:
    sys.exit(f"{workload}: at most {max_checks:g} checks per bisection, {max_steps:g} Newton "
             f"steps per check, {max_iters:g} AO cycles per ao_single_user call and no "
             "numerical failure allowed")
