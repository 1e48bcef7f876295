"""Usage: perfbench/run.py ... --trace 1 | python scripts/check_trace_counts.py
          <workload> <max_checks_per_call> <max_newton_per_check>

Reads a traced benchmark run's output on stdin and exits non-zero unless its last
line, the result object, shows at most <max_checks_per_call> feasibility checks per
bisection, at most <max_newton_per_check> Newton steps per check and no numerical
failure.  The traced counts are pure functions of the seed, so these limits carry
no timing noise.
"""

import json
import sys

workload, max_checks, max_steps = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
m = json.loads(sys.stdin.read().splitlines()[-1])["metrics"]
checks = m["sdp.bisection_maxmin.checks_per_call"]["value"]
steps = m["sdp.feasibility_check.newton_per_check"]["value"]
failures = m["sdp.feasibility_check.numerical_failures"]["value"]
print(f"checks_per_call {checks}, newton_per_check {steps}, numerical_failures {failures}")
if checks > max_checks or steps > max_steps or failures > 0:
    sys.exit(f"{workload}: at most {max_checks:g} checks per bisection, {max_steps:g} Newton "
             "steps per check and no numerical failure allowed")
