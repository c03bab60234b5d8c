#!/usr/bin/env bash
# Runs the README's verification snippet, its one python block, as a script:
# the worked report exits 0, a copy with one nested certificate tampered exits
# 1, and a malformed report or a missing path exits 2 with one `error:` line.
# Run from the repository root with the package importable:
#   PYTHONPATH=src bash .github/scripts/check_readme_snippet.sh
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

awk '/^```python$/{on=1; next} /^```$/{on=0} on' README.md > "$work/verify.py"
test -s "$work/verify.py"
python "$work/verify.py" tests/data/worked_pushing_report.json

python - tests/data/worked_pushing_report.json "$work/tampered.json" <<'EOF'
import json
import sys

from quatgenus.certificates import certificates_in_report, tamper

report = json.load(open(sys.argv[1]))
cert = next(c for c in certificates_in_report(report) if c["premises"])
cert["premises"][0] = tamper(cert["premises"][0])
json.dump(report, open(sys.argv[2], "w"))
EOF
status=0
python "$work/verify.py" "$work/tampered.json" || status=$?
test "$status" -eq 1

# exit 2 with exactly one `error:` line on stderr, as the CLI does, not 1
expect_one_error_line() {
  local status=0
  python "$work/verify.py" "$@" 2> "$work/stderr" || status=$?
  test "$status" -eq 2
  test "$(wc -l < "$work/stderr")" -eq 1
  grep -q '^error: ' "$work/stderr"
}
echo '{"base": "rationals", "final_state": {"levels": [{"form": [0]}]}}' > "$work/malformed.json"
expect_one_error_line "$work/malformed.json"
expect_one_error_line  # a run that names no report at all
echo "README snippet: worked 0, tampered 1, malformed 2, no path 2"
