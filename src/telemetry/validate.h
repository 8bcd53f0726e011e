// Dataset sanity validation. Real telemetry is messy: negative or absurd
// latencies, clock skew, error rows. The paper's pipeline keeps only
// successful actions (§3.1); this module implements that scrub and reports
// exactly what was dropped and why. Drop counts are also mirrored into the
// obs metrics registry (autosens_validate_dropped_total{reason=...}) so a
// silently lossy measurement path shows up in any metrics snapshot.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "telemetry/dataset.h"

namespace autosens::telemetry {

/// Validation policy.
struct ValidationOptions {
  double min_latency_ms = 0.0;       ///< Drop below this (exclusive of 0: <= 0 drops).
  double max_latency_ms = 60'000.0;  ///< Drop above this (client timeouts, skew).
  bool successful_only = true;       ///< Drop records with status == kError.
  /// Timestamps before this are clock-skew garbage (pre-epoch by default).
  std::int64_t min_time_ms = 0;
  /// Optional observation window: records outside [window_begin_ms,
  /// window_end_ms) are dropped. Disabled by default.
  std::int64_t window_begin_ms = std::numeric_limits<std::int64_t>::min();
  std::int64_t window_end_ms = std::numeric_limits<std::int64_t>::max();

  bool operator==(const ValidationOptions&) const = default;
};

/// Why validate() drops a record, or kKept. The checks run in this order.
enum class DropReason {
  kKept,
  kBadTimestamp,
  kOutOfWindow,
  kNonfiniteLatency,
  kErrorStatus,
  kNonpositiveLatency,
  kExcessiveLatency,
};

/// The record-local keep rule of validate(): it reads only the record's own
/// time, latency and status, so a stream can apply it one record at a time.
inline DropReason drop_reason(std::int64_t time_ms, double latency_ms, ActionStatus status,
                              const ValidationOptions& options = {}) noexcept {
  if (time_ms < options.min_time_ms) return DropReason::kBadTimestamp;
  if (time_ms < options.window_begin_ms || time_ms >= options.window_end_ms) {
    return DropReason::kOutOfWindow;
  }
  if (!std::isfinite(latency_ms)) return DropReason::kNonfiniteLatency;
  if (options.successful_only && status == ActionStatus::kError) {
    return DropReason::kErrorStatus;
  }
  if (latency_ms <= options.min_latency_ms) return DropReason::kNonpositiveLatency;
  if (latency_ms > options.max_latency_ms) return DropReason::kExcessiveLatency;
  return DropReason::kKept;
}

/// Per-reason drop accounting.
struct ValidationReport {
  std::size_t total = 0;
  std::size_t kept = 0;
  std::size_t dropped_error_status = 0;
  std::size_t dropped_nonpositive_latency = 0;
  std::size_t dropped_excessive_latency = 0;
  std::size_t dropped_nonfinite_latency = 0;
  std::size_t dropped_bad_timestamp = 0;
  std::size_t dropped_out_of_window = 0;

  std::size_t dropped() const noexcept { return total - kept; }
  /// Count one record's verdict; true when the record is kept.
  void merge(const ValidationReport& other) noexcept {
    total += other.total;
    kept += other.kept;
    dropped_error_status += other.dropped_error_status;
    dropped_nonpositive_latency += other.dropped_nonpositive_latency;
    dropped_excessive_latency += other.dropped_excessive_latency;
    dropped_nonfinite_latency += other.dropped_nonfinite_latency;
    dropped_bad_timestamp += other.dropped_bad_timestamp;
    dropped_out_of_window += other.dropped_out_of_window;
  }
  bool tally(DropReason reason) noexcept {
    ++total;
    switch (reason) {
      case DropReason::kKept: ++kept; return true;
      case DropReason::kBadTimestamp: ++dropped_bad_timestamp; break;
      case DropReason::kOutOfWindow: ++dropped_out_of_window; break;
      case DropReason::kNonfiniteLatency: ++dropped_nonfinite_latency; break;
      case DropReason::kErrorStatus: ++dropped_error_status; break;
      case DropReason::kNonpositiveLatency: ++dropped_nonpositive_latency; break;
      case DropReason::kExcessiveLatency: ++dropped_excessive_latency; break;
    }
    return false;
  }
  std::string summary() const;
  /// Compact single-line form for end-of-run stderr reporting:
  /// `kept 120/128 (dropped: error-status 5, bad-timestamp 3)` — zero-count
  /// reasons are omitted.
  std::string one_line() const;
};

/// Result of scrubbing.
struct ValidatedDataset {
  Dataset dataset;  ///< Kept records, sorted by time.
  ValidationReport report;
};

/// Scrub `input` by drop_reason: the select kernel (telemetry/select.h) with
/// an empty filter on `threads` pool workers (0 = all hardware threads; the
/// result is the same for every value), then a stable sort_by_time on the
/// same workers when the input was unsorted.
ValidatedDataset validate(const Dataset& input, const ValidationOptions& options = {},
                          std::size_t threads = 0);

/// Add a report's counts to the autosens_validate_* counters. validate()
/// calls it; so does any pass that scrubs with drop_reason on its own.
void publish_validation_metrics(const ValidationReport& report);

}  // namespace autosens::telemetry
