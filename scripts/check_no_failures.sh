#!/usr/bin/env bash
# Usage: scripts/check_no_failures.sh <out_dir>
#
# Exits non-zero when the `coopbeam run` artifacts in <out_dir> record a failed sweep
# point: a CSV row whose status is failed, or a summary whose failures list is not
# empty.  Both are checked, as a point that fails in every draw writes no CSV row.
set -euo pipefail
out="$1"
if grep -H ',failed' "$out"/*.csv; then exit 1; fi
python - "$out" <<'PY'
import json, pathlib, sys
failed = [p.name for p in sorted(pathlib.Path(sys.argv[1]).glob("*_summary.json"))
          if json.loads(p.read_text())["failures"]]
if failed:
    sys.exit(f"failures recorded in {', '.join(failed)}")
PY
