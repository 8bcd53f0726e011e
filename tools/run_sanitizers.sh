#!/usr/bin/env bash
# Build every target in a Release tree, then build and run the
# concurrency-sensitive test suites under sanitizers, in three dedicated
# build trees:
#   <repo>/build-release — CMAKE_BUILD_TYPE=Release, build only
#   <repo>/build-asan    — AUTOSENS_SANITIZE=address + AUTOSENS_UBSAN=ON
#   <repo>/build-tsan    — AUTOSENS_SANITIZE=thread
#
# The Release tree compiles at -O3 under the default AUTOSENS_WERROR=ON, so
# the warnings GCC raises only at that level (false -Wmaybe-uninitialized /
# -Wrestrict among them) fail this run rather than a later benchmark build.
#
# Each tree runs the net, parallel, obs, simd, store, telemetry and core ctest
# labels: the fault-injection matrix, the wire fuzz corpus, the
# emitter/collector pipeline, the parallel execution layer, the metrics
# registry, the live-scraped introspection server, wire trace propagation,
# the dispatched SIMD kernels, the out-of-core store's mmap/varint decoders,
# the parallel select kernel behind validation and slicing and the ASL2
# reader, which both fill unzeroed columns on pool threads, the ingest
# engine's chunk parsers, the fused select pass behind store windows, and
# the estimator core, whose accumulator merges per-chunk partials filled on
# pool threads — the code where memory-safety and data-race bugs would
# actually live. Pass --soak to also run the slow-labelled soak tests
# (ctest -C soak -L slow) in each tree.
#
# Only the test targets for those labels are built in the sanitizer trees,
# not the whole tree, so a sanitizer pass stays affordable on a small
# machine.
#
# Usage: tools/run_sanitizers.sh [--soak] [--asan-dir DIR] [--tsan-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
release_dir="${repo_root}/build-release"
asan_dir="${repo_root}/build-asan"
tsan_dir="${repo_root}/build-tsan"
soak=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --soak) soak=1; shift ;;
    --asan-dir) asan_dir="$2"; shift 2 ;;
    --tsan-dir) tsan_dir="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# The test executables behind those ctest labels.
targets=(wire_test net_pipeline_test fault_test wire_fuzz_test
         net_fault_matrix_test net_trace_test spsc_test net_shard_test
         net_udp_test parallel_test
         parallel_determinism_test obs_metrics_test obs_trace_test
         obs_log_test obs_server_test simd_kernels_test simd_dispatch_test
         store_test store_prune_test store_soak_test store_summary_test
         dataset_test filter_test validate_test select_test ingest_test
         binlog_test
         pipeline_test streaming_test confounder_time_test confounder_dow_test
         unbiased_test slices_test confidence_test estimator_core_test
         estimator_fixture_test)

jobs="$(nproc 2>/dev/null || echo 2)"

run_tree() {
  local dir="$1"; shift
  local label="$1"; shift
  echo "=== [$label] configure: $dir ==="
  cmake -B "$dir" -S "$repo_root" "$@" > /dev/null
  echo "=== [$label] build: ${targets[*]} ==="
  cmake --build "$dir" -j "$jobs" --target "${targets[@]}"
  echo "=== [$label] ctest -L 'net|parallel|obs|simd|store|telemetry|core' ==="
  ctest --test-dir "$dir" -L 'net|parallel|obs|simd|store|telemetry|core' -LE slow --output-on-failure -j "$jobs"
  if [[ "$soak" -eq 1 ]]; then
    echo "=== [$label] soak: ctest -C soak -L slow ==="
    ctest --test-dir "$dir" -C soak -L slow --output-on-failure
  fi
}

echo "=== [Release] configure + build every target: $release_dir ==="
cmake -B "$release_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$release_dir" -j "$jobs"

run_tree "$asan_dir" "ASan+UBSan" \
  -DAUTOSENS_SANITIZE=address -DAUTOSENS_UBSAN=ON
run_tree "$tsan_dir" "TSan" \
  -DAUTOSENS_SANITIZE=thread

echo "Release tree built ($release_dir); sanitizer suites passed: ASan+UBSan ($asan_dir), TSan ($tsan_dir)"
