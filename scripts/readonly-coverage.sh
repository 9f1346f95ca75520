#!/usr/bin/env bash
# scripts/readonly-coverage.sh — hold the read-only contract's one check
# to full coverage.
#
# TestReadOnlyContract (internal/server) snapshot-compares the job slice
# after every run it makes, so it sees a write only on a statement it
# executes. This script runs it with -coverpkg over the packages that take
# a shared job slice and fails unless it covers every statement of every
# function there whose signature holds one ([]Job, []workload.Job or
# []sim.Job). The list is read from the source, so a branch, or a new
# function, added later must come with a row that runs it.
#
# Usage:
#   scripts/readonly-coverage.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(server sim tags)
profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT

go test -count=1 -run '^TestReadOnlyContract$' \
  -coverpkg="$(printf 'sita/internal/%s,' "${pkgs[@]}" | sed 's/,$//')" \
  -coverprofile="$profile" ./internal/server/ >/dev/null

# file:line of every non-test function whose signature (which may span
# lines) names a job slice; `go tool cover -func` keys functions the same
# way.
files=()
for p in "${pkgs[@]}"; do
  for f in internal/"$p"/*.go; do
    [[ "$f" == *_test.go ]] || files+=("$f")
  done
done
mapfile -t holders < <(awk '
  /^func / { sig = ""; start = FNR }
  start { sig = sig $0 }
  start && /[{}]$/ {
    if (sig ~ /\[\](workload\.|sim\.)?Job([^A-Za-z0-9_]|$)/) print FILENAME ":" start ":"
    start = 0
  }
' "${files[@]}")
if [ "${#holders[@]}" -eq 0 ]; then
  echo "readonly coverage: found no function that takes a job slice" >&2
  exit 1
fi

report="$(go tool cover -func="$profile")"
fail=0
for h in "${holders[@]}"; do
  line="$(grep -F "sita/$h" <<<"$report" || true)"
  pct="$(awk '{ print $NF }' <<<"$line")"
  if [ "$pct" = "100.0%" ]; then
    echo "$line"
  else
    echo "readonly coverage: $h ${line:-not in the profile} — TestReadOnlyContract must run every statement" >&2
    fail=1
  fi
done
exit "$fail"
