#!/usr/bin/env bash
# mutants.sh is the mutation gate. Each patch under scripts/mutants/ plants
# one bug and names the test that must catch it, in a header above the
# diff:
#
#	Package: ./internal/catalog/
#	Test: TestWALGenerationSurvivesReopen
#
# For each patch the script copies the tree (without .git) into a temporary
# directory, applies the patch there (patch -p1, no fuzz) and runs the named
# test. The mutant is killed when that test reports "--- FAIL". It fails the
# gate when the test passes (a survivor), when the test is not listed in its
# package, when the patch no longer applies, and when the copy does not
# build. The working tree is never touched.
#
# Usage: bash scripts/mutants.sh [patch ...]   (default: scripts/mutants/*.patch)
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
	patches=(scripts/mutants/*.patch)
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0
start=$SECONDS
for p in "${patches[@]}"; do
	name=$(basename "$p" .patch)
	pkg=$(sed -n 's/^Package: *//p' "$p" | head -1)
	test=$(sed -n 's/^Test: *//p' "$p" | head -1)
	if [ -z "$pkg" ] || [ -z "$test" ]; then
		echo "mutants: $name: the header names no Package or Test" >&2
		fail=1
		continue
	fi
	listed=$($GO test -list "^$test\$" "$pkg")
	if ! grep -qx "$test" <<<"$listed"; then
		echo "mutants: $name: $test is not a test in $pkg, so nothing catches the mutant" >&2
		fail=1
		continue
	fi
	dir="$tmp/$name"
	mkdir "$dir"
	tar --exclude=./.git -cf - . | tar -C "$dir" -xf -
	if ! patch -p1 -s --fuzz=0 --no-backup-if-mismatch -d "$dir" <"$p"; then
		echo "mutants: $name: the patch no longer applies" >&2
		fail=1
		continue
	fi
	status=0
	out=$(cd "$dir" && $GO test -count=1 -run "^$test\$" "$pkg" 2>&1) || status=$?
	if [ "$status" -ne 0 ] && grep -q -- "--- FAIL: $test " <<<"$out"; then
		echo "mutants: $name: killed by $test"
	elif [ "$status" -ne 0 ]; then
		echo "mutants: $name: the mutated tree did not build or $test did not run:" >&2
		tail -20 <<<"$out" >&2
		fail=1
	else
		echo "mutants: $name: SURVIVED, $test passes" >&2
		fail=1
	fi
	rm -rf "$dir"
done
echo "mutants: ${#patches[@]} mutants in $((SECONDS - start)) s"
exit "$fail"
