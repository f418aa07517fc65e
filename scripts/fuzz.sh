#!/bin/sh
# Fuzzes every fuzz target in the module for 10 s, one target after
# another. Run from the repository root:
#
#   sh scripts/fuzz.sh
#
# Each target runs on top of its committed seed corpus with two fuzz
# workers (-parallel 2), and minimizes a new interesting input for at
# most 1s: the default minimization limit is 60s, no execs are counted
# while a worker minimizes, and with one worker or the default limit a
# target could spend its whole budget on a handful of inputs. Each
# target's final execs count is printed and, when GITHUB_STEP_SUMMARY
# names a file, appended to it as a table. A target that reports no
# execs count fails: go test exits 0 with a warning when -fuzz matches
# no target, so a renamed or mistyped entry below would otherwise pass
# without fuzzing anything. Every target runs; the script exits 1
# naming the first one that failed.
set -u
# name package, one target a line
targets="
FuzzBuildGraph ./internal/kernels/
FuzzReadMatrixMarket ./internal/kernels/
FuzzLifeRun ./internal/kernels/
FuzzReadChromeTrace ./internal/obs/
FuzzParseOpenMetrics ./internal/telemetry/
FuzzParseGoBench ./internal/benchgate/
FuzzParseObjective ./internal/flight/
FuzzParseSSEFrame ./internal/serviced/
FuzzHandleJobs ./internal/serviced/
FuzzLoadCache ./internal/tune/
"
summary=${GITHUB_STEP_SUMMARY:-/dev/null}
log=$(mktemp)
trap 'rm -f "$log"' EXIT
trap 'exit 130' INT TERM

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
