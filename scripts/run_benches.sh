#!/usr/bin/env bash
# Builds the Release paper-figure bench binaries and runs each one,
# writing a BENCH_<name>.json result file per binary. Results are only
# written from a clean tree: the script refuses to run when
# `git status --porcelain` reports any change, so every result is
# attributable to the commit in its provenance block.
#
# Scale knobs (defaults are deliberately small so a laptop run finishes
# in minutes; set FASTMATCH_ROWS=0 to use the paper-scale datasets —
# the bench harness treats 0/absent as "paper defaults", 16-24M rows):
#   FASTMATCH_ROWS   rows per synthetic dataset   (default 200000)
#   FASTMATCH_RUNS   timed runs per configuration (default 2)
#   BUILD_DIR        cmake build tree             (default build-bench)
#   OUT_DIR          where BENCH_*.json land      (default bench-results)
#   BENCH_FILTER     regex of bench names to run  (default: all)

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${ROOT}/build-bench}"
OUT_DIR="${OUT_DIR:-${ROOT}/bench-results}"
BENCH_FILTER="${BENCH_FILTER:-.}"

export FASTMATCH_ROWS="${FASTMATCH_ROWS:-200000}"
export FASTMATCH_RUNS="${FASTMATCH_RUNS:-2}"

command -v jq >/dev/null || { echo "run_benches.sh: jq is required" >&2; exit 1; }

if [[ -n "$(git -C "${ROOT}" status --porcelain 2>/dev/null)" ]]; then
  echo "run_benches.sh: the working tree has uncommitted changes;" \
    "commit or stash them first so results match the recorded git_sha" >&2
  exit 1
fi

# Host/build provenance stamped into every BENCH_*.json, so results stay
# attributable across commits and machines.
GIT_SHA="$(git -C "${ROOT}" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
CPU_MODEL="$(awk -F': *' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[[ -n "${CPU_MODEL}" ]] || CPU_MODEL=unknown  # e.g. ARM /proc/cpuinfo
THREADS="$(nproc 2>/dev/null || echo 1)"

# BUILD_DIR gotcha guard: pointing BUILD_DIR at an existing test build
# tree used to silently reconfigure it with -DFASTMATCH_BUILD_TESTS=OFF,
# vanishing the test targets while stale test binaries kept running.
# Preserve whatever the existing cache says about tests/examples (a
# fresh tree still gets the lean bench-only defaults).
TESTS_FLAG=OFF
EXAMPLES_FLAG=OFF
cmake_truthy() {  # CMake's truthy set: 1, ON, YES, TRUE, Y, non-zero number
  case "$(printf '%s' "$1" | tr '[:lower:]' '[:upper:]')" in
    1|ON|YES|TRUE|Y) return 0 ;;
    *) [[ "$1" =~ ^[0-9]+$ && "$1" != 0 ]] ;;
  esac
}
if [[ -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cached_tests="$(sed -n 's/^FASTMATCH_BUILD_TESTS:BOOL=//p' "${BUILD_DIR}/CMakeCache.txt")"
  cached_examples="$(sed -n 's/^FASTMATCH_BUILD_EXAMPLES:BOOL=//p' "${BUILD_DIR}/CMakeCache.txt")"
  if cmake_truthy "${cached_tests}" || cmake_truthy "${cached_examples}"; then
    TESTS_FLAG="${cached_tests:-OFF}"
    EXAMPLES_FLAG="${cached_examples:-OFF}"
    echo "run_benches.sh: ${BUILD_DIR} is an existing tree with" \
      "FASTMATCH_BUILD_TESTS=${cached_tests:-unset}," \
      "FASTMATCH_BUILD_EXAMPLES=${cached_examples:-unset};" \
      "preserving those flags instead of disabling them." >&2
  fi
fi

cmake -B "${BUILD_DIR}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DFASTMATCH_BUILD_TESTS="${TESTS_FLAG}" \
  -DFASTMATCH_BUILD_EXAMPLES="${EXAMPLES_FLAG}"
cmake --build "${BUILD_DIR}" -j --target benches

mkdir -p "${OUT_DIR}"

status=0
for exe in "${BUILD_DIR}"/bench/bench_*; do
  [[ -f "${exe}" && -x "${exe}" ]] || continue
  name="$(basename "${exe}")"
  [[ "${name}" =~ ${BENCH_FILTER} ]] || continue
  out_json="${OUT_DIR}/BENCH_${name#bench_}.json"
  echo "=== ${name} -> ${out_json}"

  start="$(date +%s.%N)"
  if output="$("${exe}" 2>&1)"; then exit_code=0; else exit_code=$?; fi
  end="$(date +%s.%N)"

  jq -n \
    --arg bench "${name}" \
    --arg timestamp "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rows "${FASTMATCH_ROWS}" \
    --arg runs "${FASTMATCH_RUNS}" \
    --arg git_sha "${GIT_SHA}" \
    --arg cpu_model "${CPU_MODEL}" \
    --argjson threads "${THREADS}" \
    --argjson seconds "$(echo "${end} ${start}" | awk '{printf "%.3f", $1-$2}')" \
    --argjson exit_code "${exit_code}" \
    --arg output "${output}" \
    '{bench: $bench, timestamp: $timestamp,
      env: {FASTMATCH_ROWS: $rows, FASTMATCH_RUNS: $runs},
      provenance: {git_sha: $git_sha, cpu_model: $cpu_model,
                   threads: $threads},
      wall_seconds: $seconds, exit_code: $exit_code,
      output_lines: ($output | split("\n"))}' > "${out_json}"

  if [[ "${exit_code}" -ne 0 ]]; then
    echo "run_benches.sh: ${name} exited ${exit_code}" >&2
    status=1
  fi
done

echo "Results in ${OUT_DIR}/"
exit "${status}"
