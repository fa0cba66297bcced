#!/usr/bin/env bash
# check-gates.sh fails when a test pattern a make target runs matches no
# test. `go test -run` passes silently when its pattern matches nothing, so
# a gate whose test was renamed or deleted would stop gating without a
# sound. For every `go test ... -run '<pattern>' <packages>` line the named
# targets run (as `make -n` prints them), each top-level alternative of the
# pattern must match at least one test listed by `go test -list` in those
# packages; `-run=NONE` lines run benchmarks only and are skipped.
#
# Usage: bash scripts/check-gates.sh [target ...]
# (default: chaos-net cluster-check obs-check bench-json bench-serve bench-ingest bench-cluster)
set -euo pipefail
cd "$(dirname "$0")/.."
targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
	targets=(chaos-net cluster-check obs-check bench-json bench-serve bench-ingest bench-cluster)
fi
GO=${GO:-go}

# alternatives prints the top-level |-separated alternatives of a regex,
# one a line, leaving groups such as (Single|Batch64) whole.
alternatives() {
	awk -v s="$1" 'BEGIN {
		depth = 0; cur = ""
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "(") depth++
			if (c == ")") depth--
			if (c == "|" && depth == 0) { print cur; cur = ""; continue }
			cur = cur c
		}
		print cur
	}'
}

declare -A listed
fail=0
checked=0
while IFS= read -r line; do
	pattern=$(sed -n "s/.* -run '\([^']*\)'.*/\1/p" <<<"$line")
	[ -n "$pattern" ] || continue
	read -ra pkgs <<<"$(grep -o '\./[^ ]*' <<<"$line" | tr '\n' ' ')"
	names=""
	for pkg in "${pkgs[@]}"; do
		if [ -z "${listed[$pkg]+x}" ]; then
			listed[$pkg]=$($GO test -list '.*' "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
		fi
		names+="${listed[$pkg]}"$'\n'
	done
	# An anchored ^(a|b)$ pattern anchors each alternative; an unanchored
	# one matches substrings, as go test does.
	pre="" post="" body="$pattern"
	if [[ $body == '^('*')$' ]]; then
		pre='^(' post=')$' body=${body#'^('} body=${body%')$'}
	fi
	while IFS= read -r alt; do
		checked=$((checked + 1))
		if ! grep -Eq "$pre$alt$post" <<<"$names"; then
			echo "check-gates: -run '$pattern' in ${pkgs[*]}: '$alt' matches no test" >&2
			fail=1
		fi
	done < <(alternatives "$body")
done < <(make -n --no-print-directory "${targets[@]}" | sed -e ':a' -e '/\\$/N; s/\\\n//; ta')
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check-gates: every one of $checked test patterns in ${targets[*]} names a test"
