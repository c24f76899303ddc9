#!/usr/bin/env bash
# Run massf-check over the tree against tools/massf_check.baseline — the
# invocation CI gates on. Also `cmake --build build --target lint` and the
# ctest entry lint_tree. Arguments pass through:
#
#   tools/run_check.sh                      # whole tree, exit 1 on findings
#   tools/run_check.sh --sarif out.sarif    # also write SARIF 2.1.0
#   tools/run_check.sh --only RULE | --list-rules
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if ! command -v python3 >/dev/null 2>&1; then
  echo "run_check.sh: python3 not found; skipping static checks" >&2
  exit 0
fi

exec python3 "$root/tools/massf_check.py" --root "$root" "$@"
