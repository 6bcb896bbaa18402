#!/usr/bin/env bash
# mcmlint harness test on a synthetic two-file tree.
#
#   1. The lint finds the cross-file taint (Entry -> Helper -> rand) and
#      the direct mcm-nondeterminism finding.
#   2. stdout and SARIF are byte-identical at MCMPART_THREADS=1 and 4
#      (files are parsed in parallel on the runtime pool).
#   3. The SARIF output is structurally valid 2.1.0 (schema/rules/results).
#
# Usage: lint_harness_test.sh <path-to-mcmlint>
set -u

MCMLINT=${1:?usage: lint_harness_test.sh <mcmlint>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

mkdir -p "$TMP/src"
cat > "$TMP/src/a.cc" <<'EOF'
namespace demo {
int Helper(int x);
// MCM_CONTRACT(deterministic)
int Entry(int x) { return Helper(x) + 1; }
}  // namespace demo
EOF
cat > "$TMP/src/b.cc" <<'EOF'
#include <cstdlib>
namespace demo {
int Helper(int x) { return std::rand() + x; }
}  // namespace demo
EOF
cat > "$TMP/lint.conf" <<'EOF'
scan.dirs = src
scan.extensions = .cc .h
rule.mcm-env-registry.enabled = false
EOF

run_lint() {  # run_lint <threads>: writes out<threads>.{txt,sarif}
  MCMPART_THREADS=$1 "$MCMLINT" --root "$TMP" --config lint.conf \
    --sarif "$TMP/out$1.sarif" > "$TMP/out$1.txt" 2> "$TMP/err.txt"
  echo $?
}

# 1. Cross-file taint plus the direct finding.
status=$(run_lint 1)
[ "$status" = 1 ] || fail "expected exit 1 (violations), got $status"
grep -q "mcm-nondet-reach" "$TMP/out1.txt" || fail "no cross-file taint finding"
grep -q "mcm-nondeterminism" "$TMP/out1.txt" || fail "no direct rand() finding"

# 2. Same output at any thread count.
status=$(run_lint 4)
[ "$status" = 1 ] || fail "4 threads: expected exit 1, got $status"
cmp "$TMP/out1.txt" "$TMP/out4.txt" || fail "stdout differs between 1 and 4 threads"
cmp "$TMP/out1.sarif" "$TMP/out4.sarif" || fail "SARIF differs between 1 and 4 threads"

# 3. SARIF structure.
python3 - "$TMP/out1.sarif" <<'EOF' || fail "SARIF structure check"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == "2.1.0", doc.get("version")
assert doc["$schema"].endswith("sarif-2.1.0.json"), doc["$schema"]
run = doc["runs"][0]
driver = run["tool"]["driver"]
assert driver["name"] == "mcmlint"
rule_ids = {r["id"] for r in driver["rules"]}
assert "mcm-nondet-reach" in rule_ids, sorted(rule_ids)
results = run["results"]
assert results, "no results for a failing tree"
for r in results:
    assert r["ruleId"] in rule_ids, r["ruleId"]
    assert r["level"] == "error"
    assert r["message"]["text"]
    loc = r["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].startswith("src/")
    assert loc["region"]["startLine"] >= 1
EOF

echo "PASS"
