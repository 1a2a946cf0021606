#!/usr/bin/env bash
# Usage: same_run.sh A B
# Fails unless two `mico train` output directories hold the same report.json
# (without the wall clock) and byte-identical fold checkpoints.
set -euo pipefail
python - "$1" "$2" <<'PY'
import json, sys
reports = [json.load(open(f"{d}/report.json")) for d in sys.argv[1:]]
for r in reports:
    r.pop("wall_clock_s")
if reports[0] != reports[1]:
    sys.exit(f"reports differ: {sys.argv[1]} {sys.argv[2]}")
PY
ls "$1"/*.mico
for f in "$1"/*.mico; do cmp "$f" "$2/${f#"$1/"}"; done
test "$(ls "$1"/*.mico | wc -l)" = "$(ls "$2"/*.mico | wc -l)"
