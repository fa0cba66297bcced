#!/usr/bin/env bash
# fuzz-pass.sh runs one `go test -fuzz` pass and fails it when the pass's
# final "execs:" count is below a floor. A pass can stall without failing:
# a worker minimizing a new input reports no execs, and Go's default
# minimization budget (60 s) outlasts a short pass. Each floor is stated
# beside its pass in the Makefile or CI file.
#
# Usage: bash scripts/fuzz-pass.sh <floor> go test -run=Fuzz -fuzz=<name> ... <package>
set -euo pipefail
floor=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log"
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -1 | cut -d' ' -f2)
if [ -z "$execs" ] || [ "$execs" -lt "$floor" ]; then
	echo "fuzz-pass: ${execs:-no} execs, below the floor of $floor" >&2
	exit 1
fi
echo "fuzz-pass: $execs execs, floor $floor"
