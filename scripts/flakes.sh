#!/bin/sh
# The tier-1 flake protocol as one command. Run from the repository root.
#
#   sh scripts/flakes.sh [N]
#       N full `go build ./... && go test -count=1 ./...` suites (default
#       50), then the failures counted per test name.
#   sh scripts/flakes.sh -run <Test> <pkg>
#       `go test -count=200 -run '^<Test>$' <pkg>` alone, then again
#       beside two busy-loop hogs, which are killed on exit.
#
# Exits 1 when any run failed. The hogs are the only processes it starts
# besides the go command.
set -u
log=$(mktemp)
fails=$(mktemp)
hogs=
cleanup() {
	[ -z "$hogs" ] || kill $hogs 2>/dev/null
	rm -f "$log" "$fails"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

if [ "${1:-}" = "-run" ]; then
	if [ $# -ne 3 ]; then
		echo "usage: sh scripts/flakes.sh -run <Test> <pkg>" >&2
		exit 2
	fi
	status=0
	for mode in alone hogs; do
		if [ "$mode" = hogs ]; then
			for _ in 1 2; do
				(while :; do :; done) &
				hogs="$hogs $!"
			done
		fi
		if go test -count=200 -run "^$2\$" "$3" >"$log" 2>&1; then
			echo "$2 $mode: 200 of 200 passed"
		else
			status=1
			echo "$2 $mode: $(grep -c -- "--- FAIL: $2" "$log") of 200 failed"
			grep -A 3 -- "--- FAIL" "$log" | head -n 20
		fi
	done
	exit $status
fi

n=${1:-50}
bad=0
i=0
while [ "$i" -lt "$n" ]; do
	i=$((i + 1))
	if go build ./... >"$log" 2>&1 && go test -count=1 ./... >>"$log" 2>&1; then
		echo "suite $i of $n: ok"
		continue
	fi
	bad=$((bad + 1))
	echo "suite $i of $n: FAIL"
	grep -A 3 -- "--- FAIL" "$log" | head -n 20
	if grep -q -- "--- FAIL: " "$log"; then
		grep -o -- "--- FAIL: [^ ]*" "$log" | sed 's/^--- FAIL: //' >>"$fails"
	else
		# A build error, panic or timeout fails a package with no test line.
		grep -E "^FAIL|^panic:|build failed" "$log" | head -n 5
		echo "(a package, not a test: see its run above)" >>"$fails"
	fi
done
echo "$bad of $n suites failed"
if [ -s "$fails" ]; then
	echo "failures per test:"
	sort "$fails" | uniq -c | sort -rn
	exit 1
fi
[ "$bad" -eq 0 ]
