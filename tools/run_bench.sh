#!/usr/bin/env bash
# Run the benchmark suite in a dedicated Release build and record the results
# as google-benchmark JSON in the repo root:
#   BENCH_parallel.json — --threads scaling of the parallel execution layer
#   BENCH_obs.json      — observability overhead (disabled / metrics / +trace)
#                         plus the /metrics scrape cost (encode-only and the
#                         full loopback HTTP round trip on a ~1k-series
#                         registry)
#   BENCH_columnar.json — columnar data-plane kernels (column access, the
#                         index-view day-block bootstrap, the confidence
#                         replicate loop)
#   BENCH_ingest.json   — the parallel zero-copy ingest engine (chunked
#                         CSV/JSONL parse and the ASL2 columnar binlog load
#                         at 1/2/4 threads)
#   BENCH_kernels.json  — the SIMD analysis kernels (biased/unbiased histogram
#                         fill, fused classify+fill, Savitzky–Golay FIR),
#                         Arg(0)=scalar vs Arg(1)=dispatch, recorded with
#                         per-repetition samples so the robust regression gate
#                         (tools/check_bench_regression.py) can filter
#                         scheduler spikes instead of gating on a raw mean
#   BENCH_net.json      — the collector fan-in saturation sweep (records/s vs
#                         session count, 1→10k): the sharded epoll collector
#                         (1/2/4 shards) vs the batched UDP transport, with
#                         per-repetition samples on the gated 1k-session rows
#   BENCH_store.json    — the out-of-core ASL3 store: full-store streaming
#                         scan (raw bytes/s through decode + CRC) and the
#                         windowed analyze wall-clock, store-streamed (Arg 1)
#                         vs the in-memory window baseline (Arg 0)
#
# The script configures and builds its own Release tree (default:
# <repo>/build-bench) instead of reusing the dev build — benchmark numbers
# from a Debug/RelWithDebInfo library are not comparable and earlier JSONs
# recorded "library_build_type": "debug" for exactly that reason.
#
# Usage: tools/run_bench.sh [build-dir] [parallel-out] [obs-out] [columnar-out]
#        [ingest-out] [kernels-out] [net-out] [store-out]
#        tools/run_bench.sh net  — rerun only the net sweep into BENCH_net.json
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

only_net=0
if [[ "${1:-}" == "net" ]]; then
  only_net=1
  shift
fi

BUILD="${1:-$ROOT/build-bench}"
OUT="${2:-$ROOT/BENCH_parallel.json}"
OBS_OUT="${3:-$ROOT/BENCH_obs.json}"
COLUMNAR_OUT="${4:-$ROOT/BENCH_columnar.json}"
INGEST_OUT="${5:-$ROOT/BENCH_ingest.json}"
KERNELS_OUT="${6:-$ROOT/BENCH_kernels.json}"
NET_OUT="${7:-$ROOT/BENCH_net.json}"
STORE_OUT="${8:-$ROOT/BENCH_store.json}"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target micro_kernels -j "$(nproc)" >/dev/null

if [[ ! -x "$BUILD/bench/micro_kernels" ]]; then
  echo "error: $BUILD/bench/micro_kernels not built" >&2
  exit 1
fi

# Note: the "library_build_type" field google-benchmark writes describes how
# the *installed benchmark library* was compiled, not this repo —
# autosens_build_type below records the build type that actually matters.
run_filter() {
  local filter="$1" out="$2"
  shift 2
  "$BUILD/bench/micro_kernels" \
    --benchmark_filter="$filter" \
    --benchmark_context=autosens_build_type=Release \
    "$@" \
    --benchmark_format=json \
    --benchmark_out_format=json \
    --benchmark_out="$out.tmp" >/dev/null
  mv "$out.tmp" "$out"
  echo "wrote $out"
}

# The fan-in sweep runs with 5 repetitions throughout: the gate only reads
# the 1k-session rows, but one uniform run keeps the JSON self-consistent
# and gives every row a distribution for the checker's spike filter.
run_net() {
  run_filter 'BM_Net' "$NET_OUT" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=false
}

if [[ "$only_net" -eq 1 ]]; then
  run_net
  exit 0
fi

run_filter 'Threads' "$OUT"
# Per-repetition samples (not just aggregates) give the regression checker a
# distribution to run its outlier filter and robust statistic over.
run_filter 'BM_Kernel' "$KERNELS_OUT" \
  --benchmark_repetitions=15 \
  --benchmark_report_aggregates_only=false
run_filter 'ObsAnalyzeOverhead|ObsScrape' "$OBS_OUT"
# The prechange_* context entries freeze the pre-columnar Release baseline
# (AoS dataset, copying resample) measured on the same fig3-scale dataset,
# so the before/after story travels with the JSON.
run_filter 'Ingest' "$INGEST_OUT"
run_filter 'DatasetColumns|DayBlockResample|ConfidenceReplicates' "$COLUMNAR_OUT" \
  --benchmark_context=prechange_analyze_once_ms=64.9 \
  --benchmark_context=prechange_day_block_resample_ms_per_rep=29.43 \
  --benchmark_context=prechange_confidence50_ms_best_of_3=3088.5 \
  --benchmark_context=postchange_analyze_once_ms=38.4 \
  --benchmark_context=postchange_day_block_resample_ms_per_rep=0.003 \
  --benchmark_context=postchange_confidence50_ms_best_of_3=1549.5
# Disk + mmap timings wobble; per-repetition samples feed the store gate's
# median, like the net sweep.
run_filter 'BM_Store' "$STORE_OUT" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=false

run_net
