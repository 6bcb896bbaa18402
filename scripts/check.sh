#!/usr/bin/env bash
# Local pre-merge gate, in the order the stages usually fail: mcmlint (the
# determinism/concurrency contract), the Release build + test suite, then the
# sanitizer rebuilds — ThreadSanitizer for data races in the runtime/ worker
# pool, ASan+UBSan for memory and undefined-behavior bugs.
#
# Usage: scripts/check.sh [--lint-only] [--release-only] [--tsan-only] [--asan-only]
#                         [--sarif PATH]
# With no flags every stage runs; flags are combinable and select exactly the
# named stages (e.g. "--lint-only --asan-only" runs lint then ASan).
# Lint-stage modifier: --sarif PATH additionally writes the findings as
# SARIF 2.1.0 for code-scanning upload.
set -euo pipefail
cd "$(dirname "$0")/.."

run_lint=0
run_release=0
run_tsan=0
run_asan=0
lint_flags=()
expect_sarif_path=0
if [ "$#" = 0 ]; then
  run_lint=1
  run_release=1
  run_tsan=1
  run_asan=1
fi
for arg in "$@"; do
  if [ "${expect_sarif_path}" = 1 ]; then
    lint_flags+=(--sarif "${arg}")
    expect_sarif_path=0
    continue
  fi
  case "${arg}" in
    --lint-only) run_lint=1 ;;
    --release-only) run_release=1 ;;
    --tsan-only) run_tsan=1 ;;
    --asan-only) run_asan=1 ;;
    --sarif) expect_sarif_path=1 ;;
    *)
      echo "usage: scripts/check.sh [--lint-only] [--release-only]" \
           "[--tsan-only] [--asan-only] [--sarif PATH]" >&2
      exit 2
      ;;
  esac
done
if [ "${expect_sarif_path}" = 1 ]; then
  echo "error: --sarif requires a PATH argument" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [ "${run_lint}" = 1 ]; then
  echo "== mcmlint: determinism/concurrency contract =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"${jobs}" --target mcmlint
  ./build/tools/mcmlint/mcmlint --root . --config tools/mcmlint/mcmlint.conf \
    "${lint_flags[@]+"${lint_flags[@]}"}"
  ./build/tools/mcmlint/mcmlint --expect-dir tools/mcmlint/testdata
fi

if [ "${run_release}" = 1 ]; then
  echo "== Release build + ctest =="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j"${jobs}"
  ctest --test-dir build --output-on-failure -j"${jobs}"
fi

if [ "${run_tsan}" = 1 ]; then
  echo "== ThreadSanitizer build + ctest =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMCMPART_TSAN=ON
  cmake --build build-tsan -j"${jobs}"
  # TSan slows execution ~5-15x; run the suite with multiple worker threads
  # so the parallel code paths are actually exercised under the sanitizer.
  MCMPART_THREADS="${MCMPART_THREADS:-4}" \
    ctest --test-dir build-tsan --output-on-failure -j2
fi

if [ "${run_asan}" = 1 ]; then
  echo "== AddressSanitizer+UBSan build + ctest =="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMCMPART_ASAN=ON
  cmake --build build-asan -j"${jobs}"
  # UBSan findings are fatal (-fno-sanitize-recover=undefined in
  # CMakeLists.txt), so a pass here means zero UB reports, not just zero
  # crashes.  Worker threads on so the pool's paths run sanitized too.
  MCMPART_THREADS="${MCMPART_THREADS:-4}" \
    ctest --test-dir build-asan --output-on-failure -j2
fi

echo "== check.sh: all green =="
