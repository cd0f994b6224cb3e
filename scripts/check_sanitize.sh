#!/usr/bin/env bash
# Builds the suites listed in tests/sanitize_suites.txt (the list CI's
# sanitizer legs select by label) under a sanitizer and runs them with
# the runtime fanned out (REDOPT_THREADS > 1), so memory errors, UB and
# data races in the thread pool or the wired hot paths surface as hard
# failures.
#
#   scripts/check_sanitize.sh [thread|address,undefined] [threads]
#
# Default is ThreadSanitizer with 4 runtime threads; pass a second
# argument to stress a different thread count.
set -eu
SANITIZE=${1:-thread}
THREADS=${2:-4}
BUILD="build-sanitize-${SANITIZE//,/-}"
TESTS=$(grep -v '^#' "$(dirname "$0")/../tests/sanitize_suites.txt" | tr '\n' ' ')

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo -DREDOPT_SANITIZE="$SANITIZE"
for t in $TESTS; do
  cmake --build "$BUILD" --target "$t" -j "$(nproc)"
done
for t in $TESTS; do
  echo "=== $t (REDOPT_THREADS=$THREADS, -fsanitize=$SANITIZE) ==="
  REDOPT_THREADS=$THREADS "$BUILD/tests/$t"
done
echo "sanitize check passed: $TESTS"
