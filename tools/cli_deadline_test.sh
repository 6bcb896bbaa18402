#!/usr/bin/env bash
# `mcmpart partition --deadline-ms` on a graph too large for the deadline.
#
#   1. A 5 ms deadline on BERT at 36 chips degrades the solves: the run
#      still succeeds, warns on stderr naming the propagation budget, and
#      records the degraded solves in the --metrics-out report.
#   2. The same request without a deadline on a small graph prints no
#      warning and records zero degraded solves.
#
# Usage: cli_deadline_test.sh <path-to-mcmpart>
set -u

MCMPART=${1:?usage: cli_deadline_test.sh <mcmpart>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

degraded() {  # degraded <report.json>: prints its degraded_solves value
  python3 -c 'import json, sys; print(int(json.load(open(sys.argv[1]))["values"]["degraded_solves"]))' "$1"
}

"$MCMPART" generate bert "$TMP/bert.graph" > /dev/null || fail "generate bert"
"$MCMPART" partition "$TMP/bert.graph" --method solver --chips 36 \
  --deadline-ms 5 --metrics-out "$TMP/tight.json" \
  > "$TMP/tight.out" 2> "$TMP/tight.err" || fail "tight run exited $?"
grep -q "^warning: .*fell back" "$TMP/tight.err" || fail "no degradation warning"
grep -q -- "--deadline-ms 5 allows 10000 propagations" "$TMP/tight.err" ||
  fail "warning does not name the propagation budget: $(cat "$TMP/tight.err")"
[ "$(degraded "$TMP/tight.json")" -gt 0 ] || fail "report records no degraded solves"

"$MCMPART" generate mlp "$TMP/mlp.graph" > /dev/null || fail "generate mlp"
"$MCMPART" partition "$TMP/mlp.graph" --method solver --chips 8 \
  --metrics-out "$TMP/free.json" > "$TMP/free.out" 2> "$TMP/free.err" ||
  fail "unhurried run exited $?"
grep -q "warning" "$TMP/free.err" && fail "unexpected warning: $(cat "$TMP/free.err")"
[ "$(degraded "$TMP/free.json")" = 0 ] || fail "unhurried run degraded"
echo "PASS"
