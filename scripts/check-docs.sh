#!/usr/bin/env bash
# check-docs.sh fails unless README.md names every flag `epfis-serve -h`
# prints and every route the service mounts, so a new flag or route cannot
# ship undocumented. A flag counts as named when README.md holds it as a
# whole word (`-max-batch`, not the `-cache` inside `memo-cache`); a route
# when README.md holds its method and whole path as one string
# (`GET /v1/indexes/{key}`, which does not name `GET /v1/indexes`). The
# routes are the route* constants of internal/service, each a string
# literal or a literal joined to a cluster.Path* constant of
# internal/cluster.
#
# Usage: bash scripts/check-docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
readme=README.md
fail=0

# Flags: the "  -name ..." lines of the usage text.
flags=$($GO run ./cmd/epfis-serve -h 2>&1 | sed -n 's/^  \(-[a-z0-9-]*\).*/\1/p')
if [ -z "$flags" ]; then
	echo "check-docs: epfis-serve -h listed no flags" >&2
	exit 1
fi
nflags=0
for f in $flags; do
	nflags=$((nflags + 1))
	if ! grep -Eq -- "(^|[^A-Za-z0-9_-])$f([^A-Za-z0-9_-]|\$)" "$readme"; then
		echo "check-docs: $readme does not name the epfis-serve flag $f" >&2
		fail=1
	fi
done

# Routes: resolve cluster.Path* names, then evaluate each route constant.
gofiles() { ls "$1"/*.go | grep -v '_test\.go$'; }
declare -A path
while read -r name value; do
	path[$name]=$value
done < <(sed -n 's/^[[:space:]]*\(Path[A-Za-z]*\)[[:space:]]*=[[:space:]]*"\([^"]*\)".*/\1 \2/p' $(gofiles internal/cluster))
nroutes=0
while IFS= read -r expr; do
	route=""
	while IFS= read -r part; do
		part=$(sed 's/^[[:space:]]*//; s/[[:space:]]*$//' <<<"$part")
		case $part in
		\"*\") route+=${part:1:${#part}-2} ;;
		cluster.Path*)
			name=${part#cluster.}
			if [ -z "${path[$name]+x}" ]; then
				echo "check-docs: no cluster.$name constant in internal/cluster" >&2
				exit 1
			fi
			route+=${path[$name]}
			;;
		*)
			echo "check-docs: cannot read the route constant $expr" >&2
			exit 1
			;;
		esac
	done < <(tr '+' '\n' <<<"$expr")
	nroutes=$((nroutes + 1))
	# Whole routes only: GET /v1/indexes/{key} does not name GET /v1/indexes.
	re=$(sed 's/[][\.*^$|{}()+?/]/\\&/g' <<<"$route")
	if ! grep -Eq -- "$re([^A-Za-z0-9_./{}-]|\$)" "$readme"; then
		echo "check-docs: $readme does not name the route $route" >&2
		fail=1
	fi
done < <(sed -n 's/^[[:space:]]*\(const[[:space:]]\{1,\}\)\{0,1\}route[A-Z][A-Za-z]*[[:space:]]*=[[:space:]]*"/"/p' $(gofiles internal/service) |
	sed 's/[[:space:]]\/\/.*$//')
if [ "$nroutes" -eq 0 ]; then
	echo "check-docs: found no route constants in internal/service" >&2
	exit 1
fi
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check-docs: $readme names all $nflags epfis-serve flags and all $nroutes routes"
