#!/usr/bin/env bash
# Same results as the base: builds a base source tree and a head source tree
# (default: this checkout), runs the same smoke-scale benches in both, and
# fails unless `repro_report --digest` says each pair of REPRO_JSON
# documents is identical outside the wall-clock "perf" section. A speed-up
# that changes a digest simulates something else.
#
# Usage: tools/digest_vs_base.sh BASE_SRC [HEAD_SRC]
#
# Environment:
#   BENCHES     bench targets to compare (default: bench_table6_traces
#               bench_tier)
#   OUT         directory for the REPRO_JSON documents and logs (default:
#               digest-artifacts)
#   CMAKE_CXX_COMPILER_LAUNCHER  e.g. ccache, passed to both configures
#   REPRO_*     passed through to every run; REPRO_SCALE, REPRO_SECONDS and
#               REPRO_SHARDS default to 0.05, 2 and 8.
#
# Each tree is built (Release) in its own build-digest/ directory. Each
# side's `[engine]` sim-ops/s lines are printed for information only:
# the gate is digest equality, not speed. Exit 0 = all digests equal,
# 1 = a digest differs, 2 = usage or build error.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_SRC [HEAD_SRC]" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "${2:-$(dirname "$0")/..}" && pwd)
benches=${BENCHES:-bench_table6_traces bench_tier}
out=${OUT:-digest-artifacts}
build=build-digest
export REPRO_SCALE=${REPRO_SCALE:-0.05}
export REPRO_SECONDS=${REPRO_SECONDS:-2}
export REPRO_SHARDS=${REPRO_SHARDS:-8}
mkdir -p "$out"
out=$(cd "$out" && pwd)

for side in base head; do
  src=${!side}
  # shellcheck disable=SC2086
  cmake -B "$src/$build" -S "$src" -G Ninja -DCMAKE_BUILD_TYPE=Release \
    ${CMAKE_CXX_COMPILER_LAUNCHER:+-DCMAKE_CXX_COMPILER_LAUNCHER=$CMAKE_CXX_COMPILER_LAUNCHER} \
    > "$out/$side-configure.log" || { echo "configure failed: $src" >&2; exit 2; }
  # shellcheck disable=SC2086
  cmake --build "$src/$build" -j --target $benches repro_report \
    > "$out/$side-build.log" || { echo "build failed: $src" >&2; exit 2; }
done

status=0
for bench in $benches; do
  for side in base head; do
    src=${!side}
    REPRO_JSON="$out/$side-$bench.json" "$src/$build/bench/$bench" \
      > "$out/$side-$bench.txt"
    echo "$side $bench: $(grep '^\[engine\]' "$out/$side-$bench.txt" | head -n 3 | tr '\n' ' ')"
  done
  if "$head/$build/tools/repro_report" --digest \
       "$out/base-$bench.json" "$out/head-$bench.json"; then
    echo "$bench: digests equal"
  else
    echo "$bench: DIGEST MISMATCH against the base" >&2
    status=1
  fi
done
exit $status
