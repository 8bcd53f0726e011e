// Partition summaries for the out-of-core store (DESIGN.md §6e): what a
// store window needs from a partition that lies wholly inside it, without
// reading the partition's rows.
//
// In the Voronoi estimator a run of samples (one time, one or more
// samples) depends on the window only through its neighbours. A
// partition's runs other than its first and last ("interior" runs) have
// both neighbours inside the partition, so their statistics are the same in
// every window that holds the partition: they are accumulated once, at
// build time, with their true neighbours. The first and last runs border
// rows of other partitions (or the window's ends), so they are kept as
// samples and added when a window stitches its partitions together. The
// interior's data range names the times of the second and second-to-last
// runs, the first and last runs' inner neighbours.
//
// Summaries cover the rows the default ValidationOptions keep, in the
// analysis geometry of the default AutoSensOptions; a window with another
// scrub rule or geometry reads rows instead (core/store_analyze.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/accumulator.h"
#include "core/options.h"
#include "telemetry/dataset.h"
#include "telemetry/store/format.h"

namespace autosens::core {

/// One duplicate-time run: the samples that share `time_ms`.
struct SampleRun {
  std::int64_t time_ms = 0;
  std::vector<double> latencies;
};

/// The summary of one slice of one partition.
struct PartitionSummary {
  Accumulator interior;  ///< Every run but the first and last (kSlot grid).
  SampleRun first;
  std::optional<SampleRun> last;  ///< Absent when the slice is one run.

  std::size_t records() const noexcept;
  /// Time of the run after `first`, and of the run before `last` (both need
  /// `last`).
  std::int64_t after_first() const;
  std::int64_t before_last() const;
};

/// The options summaries are built with: the default geometry, one thread.
AutoSensOptions summary_options();

/// The summary of sorted, non-empty samples of one slice.
PartitionSummary summarize(telemetry::SampleColumns samples);

void encode_summary(const PartitionSummary& summary, std::vector<std::uint8_t>& out);

/// Decodes one blob. It must hold exactly `records` samples, all inside
/// [min_time_ms, max_time_ms] and kept by the default scrub rule, in the
/// geometry of `options`. Throws std::runtime_error otherwise, or on
/// truncated, malformed or trailing bytes.
PartitionSummary decode_summary(std::span<const std::uint8_t> bytes, std::uint64_t records,
                                std::int64_t min_time_ms, std::int64_t max_time_ms,
                                const AutoSensOptions& options);

/// The summary file of one partition and its footer index.
struct SummaryFile {
  std::vector<std::uint8_t> bytes;
  telemetry::store::PartitionSummaries index;
};

/// Scrubs one partition's sorted rows with the default ValidationOptions and
/// summarizes every (action, *) slice and (*, *).
SummaryFile summarize_partition(const telemetry::RowColumns& rows);

}  // namespace autosens::core
