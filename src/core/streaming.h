// Streaming AutoSens: a running normalized-latency-preference estimate over
// an unbounded, chronological record stream — what a production monitor
// ingesting a live collector feed needs (the batch pipeline requires the
// whole dataset in memory).
//
// Snapshots are exact, not approximate: the stream feeds the same
// core::Accumulator the batch pipeline fills, one duplicate-time run at a
// time with one sample of lookahead (a run's Voronoi cells close when the
// next distinct time arrives; a snapshot closes the pending run at the end
// of the data). Records are scrubbed with telemetry::validate's record-local
// rule at its default ValidationOptions, and scrubbed records get no time.
// So a snapshot is byte-identical to analyze_detailed(validate(fed).dataset)
// over the records fed so far. Memory is O(bins) plus the pending run:
// independent of how many records have been fed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/accumulator.h"
#include "core/options.h"
#include "core/preference.h"
#include "telemetry/dataset.h"
#include "telemetry/record.h"

namespace autosens::core {

class StreamingAutoSens {
 public:
  /// Validates options eagerly (geometry, smoothing, α slots).
  explicit StreamingAutoSens(AutoSensOptions options);

  /// Feed one record. Records that telemetry::validate would drop are
  /// counted and skipped; the kept ones must arrive in non-decreasing time
  /// order (throws std::invalid_argument otherwise — feed from a collector
  /// or a sorted log).
  void feed(const telemetry::ActionRecord& record);

  /// Feed an entire sorted dataset by scanning its time / latency / status
  /// columns — equivalent to feed() on every record in order, without
  /// materializing ActionRecords. Throws like feed() if the dataset starts
  /// before the last fed record.
  void feed_all(const telemetry::Dataset& dataset);

  std::size_t records_seen() const noexcept { return seen_; }
  std::size_t records_used() const noexcept { return used_; }

  /// Compute the preference curve from everything fed so far. Requires
  /// enough supported data, like the batch path (throws otherwise). The
  /// stream can continue to be fed after a snapshot.
  PreferenceResult snapshot() const;

  /// The current α estimate per time-of-day class (diagnostics).
  std::vector<double> alpha_by_class() const;

 private:
  void feed_sample(std::int64_t time_ms, double latency_ms,
                   telemetry::ActionStatus status);
  /// The statistics so far, with the pending run closed at the end of the
  /// data.
  Accumulator closed() const;

  Accumulator accumulator_;  ///< Every closed run.
  std::optional<std::int64_t> first_ms_;     ///< First kept record.
  std::optional<std::int64_t> previous_ms_;  ///< Time of the last closed run.
  std::int64_t run_ms_ = 0;                  ///< Time of the pending run.
  std::vector<double> run_latencies_;        ///< The pending run (empty: none).
  std::size_t seen_ = 0;
  std::size_t used_ = 0;
  /// records_used() at the previous snapshot — feeds the snapshot-cadence
  /// gauge (records per snapshot) in the obs registry.
  mutable std::size_t used_at_last_snapshot_ = 0;
};

}  // namespace autosens::core
