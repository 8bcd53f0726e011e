// Windowed AutoSens over an ASL3 store (DESIGN.md §6e): tile the store's
// time range into analysis windows and analyze each one, reading only the
// partitions (and blocks) a window overlaps. Peak memory is O(window),
// independent of store size — the out-of-core path for datasets larger than
// RAM.
//
// A window is a time-ordered list of segments, one per partition it
// touches. A partition whose footer counts hold no row of the requested
// (action, user_class) slice is pruned without being opened. A partition
// that lies wholly inside the window is merged from its summary
// (core/partition_summary.h): the exact statistics of its interior runs,
// plus its first and last runs as samples. Every other partition — in
// practice the partial ones at the window's two edges — is read: one fused
// select pass (telemetry/select.h) scrubs its rows, applies the slice filter
// and appends the kept rows' time and latency to one buffer all windows
// reuse. One stitcher then adds every run that is not a summary's interior
// exactly once, in time order, with its true neighbours: row stretches in
// bulk, and the runs at segment edges one at a time, joining equal-time
// runs a shard cut split. Every opened block of every column is still
// CRC-checked and decoded, except that the compressed user column, which
// no selection reads, only has its varints checked
// (codec::check_delta_u64), keeping no value. A merged summary blob is
// CRC-checked and validated against its footer.
//
// Summaries are not used, and the window's summary_fallback names why, when
// the window asks for something they do not hold: a user_class filter
// ("user_class"), scrub off ("no_scrub"), non-default ValidationOptions
// ("validation"), intervals ("confidence"), a non-default bin_width_ms,
// max_latency_ms, alpha_bin_width_ms or alpha_slot_ms ("geometry"), or the
// Monte-Carlo U ("mc"). Such a window reads every partition as rows; the
// loop is otherwise the same. A confidence window resamples the same
// buffer of kept times and latencies, so it checks the user column without
// keeping it, like every other window.
//
// Equivalence contract: each window's result is byte-identical to running
// analyze()/analyze_with_confidence() on the same rows cut out of a fully
// in-memory Dataset, scrubbed with telemetry::validate and sliced with
// Dataset::filtered — with or without summaries, the estimators see the
// same exact statistics, and confidence replicates reseed per window and
// resample only the window's days, so they never touch partitions outside
// it. The autosens_validate_* counters count the same verdicts too: a
// summarized partition adds the verdicts its footer recorded.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/confidence.h"
#include "core/options.h"
#include "core/preference.h"
#include "telemetry/clock.h"
#include "telemetry/record.h"
#include "telemetry/store/store.h"
#include "telemetry/validate.h"

namespace autosens::core {

struct StoreStreamOptions {
  /// Window width; windows tile [min_time, max_time] from min_time.
  std::int64_t window_ms = 7 * telemetry::kMillisPerDay;
  /// Scrub each window's rows with the telemetry::validate rule, in the same
  /// pass that applies the slice filters (a record-local rule, so per-window
  /// scrubbing equals scrubbing the whole dataset first). Drops go to the
  /// autosens_validate_* counters. Off analyzes every stored row as is.
  bool scrub = true;
  telemetry::ValidationOptions validation;
  /// Optional slice filters applied to each window before analysis; they
  /// also prune partitions whose footer counts hold none of the slice.
  std::optional<telemetry::ActionType> action;
  std::optional<telemetry::UserClass> user_class;
  /// Attach day-block bootstrap intervals per window, resampled from the
  /// window's kept time and latency columns (no other column is kept).
  /// Each window gets a fresh generator seeded with `confidence_seed`, so a
  /// window's interval does not depend on which windows ran before it.
  bool with_confidence = false;
  ConfidenceOptions confidence;
  std::vector<double> probe_latencies;
  std::uint64_t confidence_seed = 17;
};

/// One analysis window's outcome. `preference` (and `confidence`) are empty
/// when the window holds no usable rows or cannot support a curve.
struct StoreWindowResult {
  std::int64_t begin_ms = 0;
  std::int64_t end_ms = 0;
  std::size_t records = 0;  ///< Rows analyzed (after slice filters).
  std::size_t partitions_scanned = 0;
  /// Partitions skipped by time range or by footer slice counts.
  std::size_t partitions_pruned = 0;
  /// Partitions wholly inside the window merged from their summaries; with
  /// partitions_scanned and partitions_pruned it accounts for every
  /// partition.
  std::size_t partitions_summarized = 0;
  std::uint64_t bytes_read = 0;    ///< Stored bytes consumed (columns and summaries).
  std::uint64_t rows_decoded = 0;  ///< Rows of the column blocks read.
  /// Why the window read every partition as rows, or "none" (see below).
  std::string_view summary_fallback = "none";
  std::optional<PreferenceResult> preference;
  std::optional<PreferenceWithConfidence> confidence;
};

/// Stream window results in time order through `sink` — O(window) memory.
/// Windows tile [min_time, max_time] from min_time; a window end that would
/// pass INT64_MAX is clamped there, so window_ms = INT64_MAX yields one window
/// holding the whole store. Each window runs under a `store.window` trace
/// span (partitions scanned, pruned and summarized, bytes read, rows decoded
/// and selected, summary_fallback) with a `store.select` child for the scan,
/// a `store.merge` child for the summaries and the estimator spans; `sink`
/// runs inside it too.
void analyze_store_windows(const telemetry::store::StoredDataset& store,
                           const AutoSensOptions& options, const StoreStreamOptions& stream,
                           const std::function<void(const StoreWindowResult&)>& sink);

/// Convenience: collect every window's result (memory scales with window
/// count, still not with row count).
std::vector<StoreWindowResult> analyze_store_windows(
    const telemetry::store::StoredDataset& store, const AutoSensOptions& options,
    const StoreStreamOptions& stream = {});

}  // namespace autosens::core
