#!/usr/bin/env bash
# scripts/contract-coverage.sh — hold the simulator's contract table to
# full coverage of everything it runs.
#
# Two contracts are checked at run time, each only on the statements a
# test executes: the read-only input contract (TestReadOnlyContract in
# internal/server snapshot-compares the shared job slice after every run)
# and the allocation contract (its allocation column: a run allocates no
# more objects on a feed twice as long, and a held pooled core allocates
# none). This script runs the table with -coverpkg over the simulator's
# packages and fails unless every function there that the table enters
# at all runs every one of its statements. A new branch in a hot
# function, or a new helper it calls, must therefore come with a row
# that runs it, and then both contracts see it.
#
# Besides the table, the run includes:
#   - sim's TestHeldEngineAllocatesNothing, the allocation row for an
#     engine held across runs (only package sim can hold one);
#   - the kernel tripwire tests: scheduling in the past, a negative
#     delay, a dispatch-order violation, a NaN index key and an empty
#     host set. No model can trip these; only the kernels' own tests
#     reach them.
#
# Usage:
#   scripts/contract-coverage.sh
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(server sim tags hostindex stats)
tests='^(TestReadOnlyContract|TestHeldEngineAllocatesNothing|TestEngineSchedulePastPanics|TestEngineNegativeDelayPanics|TestEngineFeedOrderCheck|TestTreeNaNPanics|TestResetRefusesNoHosts)$'
profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT

go test -count=1 -run "$tests" \
  -coverpkg="$(printf 'sita/internal/%s,' "${pkgs[@]}" | sed 's/,$//')" \
  -coverprofile="$profile" ./internal/server/ ./internal/sim/ ./internal/hostindex/ >/dev/null

# One line per function: "file:line: name pct". A function at 0.0% was
# never entered; every other one must read 100.0%.
report="$(go tool cover -func="$profile" | grep -v '^total:')"
entered="$(awk '$NF != "0.0%"' <<<"$report")"
if [ -z "$entered" ]; then
  echo "contract coverage: the table entered no function" >&2
  exit 1
fi
echo "contract coverage: $(wc -l <<<"$entered") functions entered"
short="$(awk '$NF != "100.0%"' <<<"$entered")"
if [ -n "$short" ]; then
  echo "contract coverage: the table must run every statement of every function it enters:" >&2
  echo "$short" >&2
  exit 1
fi
