#!/usr/bin/env bash
# Line-coverage report + gate for the byte-parsing surfaces.
#
# Builds an instrumented tree, runs every suite that feeds the parsers
# (protocol, journal, snapshot, binary_io, csv — unit tests plus the
# fuzz corpus replay), and fails if line coverage of any parser file
# drops below the gate. response_matrix.cc counts as a parser file:
# ResponseMatrix::FromCells is where a snapshot's cells are validated.
# Two toolchains, auto-selected:
#
#   clang  source-based coverage (-fprofile-instr-generate) reported
#          with llvm-profdata/llvm-cov — precise region counts.
#   gcc    --coverage + gcov — available everywhere the repo builds;
#          what the CI coverage-gate job runs.
#
# Usage:
#   scripts/coverage.sh            # build, run, report, gate
#   CC=clang CXX=clang++ scripts/coverage.sh
#   COVERAGE_BUILD_DIR=build-cov scripts/coverage.sh
#
# Per-file gates are the floor measured when the fuzz layer landed
# (gcc 12 gcov line accounting), minus a few points of slack for
# compiler-version drift. Raise them when coverage improves; never
# lower one to make a regression pass.
#
# response_matrix.cc is the exception: its gate is the measured 100%,
# with no drift slack, so a single line that no test runs (say, a
# branch of FromCells, the snapshot cell check) fails it. A new
# ResponseMatrix method needs a data_test case with it.
#
# journal.cc's gate is its measured coverage once the failed-write
# rollback ran in tests (92.86%, rounded down). The lines left are the
# metrics-on counters and a rollback whose truncation fails too; no
# test fails a sync, so that rollback runs only as a branch not taken.
#
# protocol.cc gates lower than the rest because roughly a third of its
# lines are response *serializers* (BinaryReportJson, KaryResultJson)
# that only execute inside the daemon process, whose counters die with
# it; the parsing half (ParseCommand, Tokenize, JsonEscape) is what
# the fuzz corpus and unit suites saturate.

set -euo pipefail

# path:minimum-line-coverage-percent
PARSER_GATES=(
  src/server/protocol.cc:60
  src/server/journal.cc:92
  src/server/snapshot.cc:90
  src/server/binary_io.cc:90
  src/util/csv.cc:95
  src/data/response_matrix.cc:100
)
PARSER_FILES=()
for entry in "${PARSER_GATES[@]}"; do
  PARSER_FILES+=("${entry%:*}")
done

# ctest selection: parser-facing unit suites + the corpus replay.
TEST_REGEX='data_test|server_protocol_test|server_persistence_test|server_binary_io_test|server_service_test|server_e2e_test|util_test|fuzz_regression_'

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${COVERAGE_BUILD_DIR:-${ROOT}/build-coverage}"
CXX_BIN="${CXX:-c++}"

cd "${ROOT}"

if "${CXX_BIN}" --version 2>/dev/null | grep -qi clang; then
  MODE=llvm
  CMAKE_COV_FLAGS="-fprofile-instr-generate -fcoverage-mapping"
else
  MODE=gcov
  CMAKE_COV_FLAGS="--coverage"
fi
echo "coverage: ${MODE} mode (CXX=${CXX_BIN}), build dir ${BUILD}"

cmake -B "${BUILD}" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="${CMAKE_COV_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${CMAKE_COV_FLAGS}" \
  -DCROWDEVAL_BUILD_BENCHMARKS=OFF \
  -DCROWDEVAL_BUILD_EXAMPLES=OFF \
  >/dev/null
cmake --build "${BUILD}" -j"$(nproc)" >/dev/null

if [[ "${MODE}" == llvm ]]; then
  export LLVM_PROFILE_FILE="${BUILD}/coverage-%p.profraw"
fi
# Stale counters from a previous run would dilute the report.
find "${BUILD}" -name '*.gcda' -delete 2>/dev/null || true
rm -f "${BUILD}"/coverage-*.profraw "${BUILD}/coverage.profdata"

ctest --test-dir "${BUILD}" -R "${TEST_REGEX}" --output-on-failure \
  -j"$(nproc)" >/dev/null

# ------------------------------------------------------------------
# Per-file line coverage, one "percent path" line per parser file.

if [[ "${MODE}" == llvm ]]; then
  PROFDATA="${LLVM_PROFDATA:-llvm-profdata}"
  LLVMCOV="${LLVM_COV:-llvm-cov}"
  "${PROFDATA}" merge -sparse "${BUILD}"/coverage-*.profraw \
    -o "${BUILD}/coverage.profdata"
  # Every instrumented test binary contributes mappings; objects after
  # the first need the -object flag.
  mapfile -t BINARIES < <(find "${BUILD}/tests" "${BUILD}/fuzz" \
    -maxdepth 1 -type f -executable 2>/dev/null | sort)
  OBJ_ARGS=()
  for b in "${BINARIES[@]:1}"; do OBJ_ARGS+=(-object "$b"); done
  "${LLVMCOV}" report "${BINARIES[0]}" "${OBJ_ARGS[@]}" \
    -instr-profile="${BUILD}/coverage.profdata" \
    "${PARSER_FILES[@]/#/${ROOT}/}" \
    | python3 - "${ROOT}" <<'PYEOF' > "${BUILD}/parser_coverage.txt"
import sys
root = sys.argv[1].rstrip("/") + "/"
for line in sys.stdin:
    cols = line.split()
    # llvm-cov report rows: Filename ... Lines Missed-Lines Cover ...
    if not cols or not cols[0].endswith(".cc"):
        continue
    path = cols[0]
    if path.startswith(root):
        path = path[len(root):]
    # "Cover" (line coverage) is the 4th column from the end.
    print(f"{cols[-4].rstrip('%')} {path}")
PYEOF
else
  GCOV_DIR="${BUILD}/gcov-report"
  rm -rf "${GCOV_DIR}"
  mkdir -p "${GCOV_DIR}"
  # gcov needs the .gcno/.gcda pairs; feed it every one and let the
  # intermediate report name the sources they compile.
  ( cd "${GCOV_DIR}" && \
    find "${BUILD}/src" -name '*.gcda' -print0 \
      | xargs -0 gcov -r -s "${ROOT}" >/dev/null 2>&1 || true )
  python3 - "${GCOV_DIR}" <<'PYEOF' > "${BUILD}/parser_coverage.txt"
import glob, os, sys
gcov_dir = sys.argv[1]
best = {}
for path in glob.glob(os.path.join(gcov_dir, "*.gcov")):
    source, lines_total, lines_hit = None, 0, 0
    with open(path, errors="replace") as fh:
        for raw in fh:
            parts = raw.split(":", 2)
            if len(parts) < 3:
                continue
            count, lineno = parts[0].strip(), parts[1].strip()
            if lineno == "0":
                if parts[2].startswith("Source:"):
                    source = parts[2][len("Source:"):].strip()
                continue
            if count == "-":
                continue
            lines_total += 1
            if count not in ("#####", "====="):
                lines_hit += 1
    if not source or not lines_total:
        continue
    pct = 100.0 * lines_hit / lines_total
    # The same source can appear once per object file that includes
    # it; counts are per-object, so keep the best-covered instance
    # (the object whose tests actually ran).
    if pct > best.get(source, (-1.0,))[0]:
        best[source] = (pct, lines_hit, lines_total)
for source, (pct, hit, total) in sorted(best.items()):
    print(f"{pct:.2f} {source}")
PYEOF
fi

# ------------------------------------------------------------------
# Gate.

echo
echo "line coverage of parser files (per-file gates):"
fail=0
for entry in "${PARSER_GATES[@]}"; do
  f="${entry%:*}"
  gate="${entry##*:}"
  pct="$(awk -v f="$f" '$2 == f { print $1 }' "${BUILD}/parser_coverage.txt")"
  if [[ -z "${pct}" ]]; then
    echo "  MISSING  ${f} (no coverage data — did its tests run?)"
    fail=1
    continue
  fi
  if python3 -c "import sys; sys.exit(0 if float('${pct}') >= ${gate} else 1)"; then
    echo "  ok   ${pct}%  ${f} (gate ${gate}%)"
  else
    echo "  LOW  ${pct}%  ${f} (gate ${gate}%)"
    fail=1
  fi
done

if [[ "${fail}" -ne 0 ]]; then
  echo "coverage: FAILED — parser file under its gate" >&2
  exit 1
fi
echo "coverage: OK"
