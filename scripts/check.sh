#!/usr/bin/env bash
# One-command pre-push check: everything CI gates on that can run
# locally, in the order that fails fastest.
#
#   scripts/check.sh            # lint + build + tests + tidy
#   scripts/check.sh --quick    # skip the build/test cycle (lint only)
#
# Steps that need a tool the machine lacks (clang, clang-tidy) SKIP
# with a notice instead of failing — CI is the enforcing run for those.
# Everything else failing here would fail CI too.

set -uo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == --quick ]] && QUICK=1

BUILD_DIR=${BUILD_DIR:-build}
FAILED=()

step() {
  local name=$1
  shift
  echo
  echo "==> $name"
  if "$@"; then
    echo "==> $name: OK"
  else
    echo "==> $name: FAILED"
    FAILED+=("$name")
  fi
}

step "crowd-lint" python3 scripts/crowd_lint.py
step "crowd-lint unit tests" python3 tests/crowd_lint_test.py

# Bounded libFuzzer pass over the fuzz/ harnesses (CI: fuzz-smoke).
# Needs clang for -fsanitize=fuzzer; without it the corpus replay in
# the plain test run below is the local stand-in.
fuzz_smoke() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "SKIP: clang not found (corpus replay still runs via ctest;"
    echo "      CI job fuzz-smoke is the enforcing run)"
    return 0
  fi
  CC=clang CXX=clang++ cmake -B "$BUILD_DIR-fuzz" -S . \
    -DCROWDEVAL_SANITIZE=fuzzer,address,undefined \
    -DCROWDEVAL_WERROR=OFF -DCROWDEVAL_BUILD_TESTS=OFF \
    -DCROWDEVAL_BUILD_BENCHMARKS=OFF -DCROWDEVAL_BUILD_EXAMPLES=OFF \
    || return 1
  cmake --build "$BUILD_DIR-fuzz" -j --target \
    fuzz_protocol fuzz_journal fuzz_snapshot fuzz_binary_io fuzz_csv \
    || return 1
  local t
  for t in fuzz_protocol fuzz_journal fuzz_snapshot fuzz_binary_io \
           fuzz_csv; do
    "$BUILD_DIR-fuzz/fuzz/$t" -runs=10000 -max_total_time=30 \
      "fuzz/corpus/$t" || return 1
  done
}

# MSan needs an MSan-instrumented libc++ on top of clang; that only
# exists in the CI msan job's cached toolchain, so locally this is a
# availability check, not a run.
msan_note() {
  echo "SKIP: MemorySanitizer needs clang + an MSan-built libc++"
  echo "      (CI job memory-sanitizer is the enforcing run)"
  return 0
}

if [[ $QUICK -eq 0 ]]; then
  step "configure" cmake -B "$BUILD_DIR" -S .
  step "build" cmake --build "$BUILD_DIR" -j
  step "tests (incl. fuzz corpus replay)" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  step "fuzz smoke (bounded libFuzzer)" fuzz_smoke
  step "msan" msan_note
  step "clang-tidy (changed files)" scripts/run_tidy.sh --changed
fi

echo
if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "check.sh: FAILED steps: ${FAILED[*]}"
  exit 1
fi
echo "check.sh: all checks passed"
