#!/bin/sh
# Fuzzes every fuzz target in the module for 10 s, one target after
# another. Run from the repository root:
#
#   sh scripts/fuzz.sh
#
# The targets are whatever `go test -list '^Fuzz' ./...` lists, package
# by package, so a new Fuzz function is fuzzed without editing this
# script. Each target runs on top of its committed seed corpus with two
# fuzz workers (-parallel 2), and minimizes a new interesting input for
# at most 1s: the default minimization limit is 60s, no execs are
# counted while a worker minimizes, and with one worker or the default
# limit a target could spend its whole budget on a handful of inputs.
# Each target's final execs count is printed and, when
# GITHUB_STEP_SUMMARY names a file, appended to it as a table. A target
# that reports no execs count fails: go test exits 0 with a warning
# when -fuzz fuzzes nothing. Every target runs; the script exits 1
# naming the first one that failed.
set -u
summary=${GITHUB_STEP_SUMMARY:-/dev/null}
log=$(mktemp)
trap 'rm -f "$log"' EXIT
trap 'exit 130' INT TERM

# One "name package" pair per target: go test -list prints a package's
# matching names, then its "ok <package>" line.
if ! go test -list '^Fuzz' ./... >"$log" 2>&1; then
	cat "$log"
	echo "fuzz: listing the fuzz targets failed" >&2
	exit 1
fi
targets=$(awk '/^Fuzz/ { names = names " " $1 }
	/^ok/ { n = split(names, a, " "); for (i = 1; i <= n; i++) print a[i], $2; names = "" }' "$log")
if [ -z "$targets" ]; then
	echo "fuzz: go test -list found no fuzz targets" >&2
	exit 1
fi

{
	echo "### Fuzzing, 10s per target, -parallel 2, -fuzzminimizetime 1s"
	echo '| target | package | execs | result |'
	echo '| --- | --- | --- | --- |'
} >>"$summary"
first=
set -- $targets
while [ $# -ge 2 ]; do
	name=$1 pkg=$2
	shift 2
	result=ok
	go test -run '^$' -fuzz "^$name\$" -fuzztime 10s -fuzzminimizetime 1s -parallel 2 \
		"$pkg" >"$log" 2>&1 || result=FAIL
	execs=$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | cut -d' ' -f2)
	[ -n "$execs" ] || result=FAIL
	[ "$result" = ok ] || [ -n "$first" ] || first=$name
	echo "$name ($pkg): ${execs:-no} execs, $result"
	[ "$result" = ok ] || cat "$log"
	echo "| $name | $pkg | ${execs:-none} | $result |" >>"$summary"
done
if [ -n "$first" ]; then
	echo "fuzz: $first failed (the first failing target)" >&2
	exit 1
fi
