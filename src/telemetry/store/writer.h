// StoreWriter — incremental builder of an ASL3 store directory. Rows are
// appended in strictly ascending time order (enforced; the whole pruning
// contract rests on it); the writer buffers at most one partition
// (StoreOptions::partition_rows rows) and flushes it to disk when the
// calendar day changes or the shard fills, so building a store of any size
// needs O(partition) memory.
//
// build_store converts an in-memory Dataset; build_store_from_binlog is the
// ingest-to-store spill path — a sorted ASL2 binlog streams frame-by-frame
// through the writer without ever materializing the dataset (unsorted or
// legacy ASL1 inputs fall back to a full load + sort first).
//
// Every partition also gets its summary file (format.h): the estimator
// statistics of each (action, *) slice and of (*, *), which store windows
// merge instead of reading the partition's rows. Building them needs
// core::Accumulator, so this writer is compiled into autosens_core.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "telemetry/dataset.h"
#include "telemetry/ingest.h"
#include "telemetry/store/format.h"

namespace autosens::telemetry::store {

class StoreWriter {
 public:
  /// Creates `dir` (and parents) if needed. Throws std::runtime_error when
  /// the directory already contains a MANIFEST — stores are write-once.
  explicit StoreWriter(std::filesystem::path dir, StoreOptions options = {});

  /// Flushes any buffered rows and writes the MANIFEST on a best-effort
  /// basis when finish() was never called (errors swallowed; call finish()
  /// to observe them).
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Append column slices. All spans must be the same length and `times`
  /// must be ascending and start at or after the last appended time; throws
  /// std::invalid_argument otherwise (nothing is appended on failure).
  void append_columns(std::span<const std::int64_t> times, std::span<const double> latencies,
                      std::span<const std::uint64_t> user_ids,
                      std::span<const ActionType> actions,
                      std::span<const UserClass> user_classes,
                      std::span<const ActionStatus> statuses);

  /// Append a whole sorted dataset (throws std::invalid_argument if unsorted).
  void append(const Dataset& dataset);

  /// Flush the trailing partial partition and write the MANIFEST.
  /// Idempotent; append after finish throws.
  void finish();

  /// Partitions flushed so far (all of them after finish()).
  const std::vector<PartitionInfo>& partitions() const noexcept { return manifest_; }
  std::uint64_t rows_written() const noexcept { return rows_written_; }
  const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  void flush_partition();

  std::filesystem::path dir_;
  StoreOptions options_;
  std::vector<PartitionInfo> manifest_;

  // The buffered (current) partition.
  std::vector<std::int64_t> times_;
  std::vector<double> latencies_;
  std::vector<std::uint64_t> user_ids_;
  std::vector<ActionType> actions_;
  std::vector<UserClass> user_classes_;
  std::vector<ActionStatus> statuses_;

  std::int64_t buffer_day_ = 0;  ///< day_index of every buffered row.
  std::int64_t last_time_ = std::numeric_limits<std::int64_t>::min();
  std::uint32_t next_shard_ = 0;  ///< Shard number within buffer_day_.
  std::uint64_t rows_written_ = 0;
  bool finished_ = false;
};

/// One-shot: write all of `dataset` (must be sorted) as a store at `dir`.
void build_store(const Dataset& dataset, const std::string& dir, StoreOptions options = {});

/// Spill an existing binlog into a store. Sorted ASL2 files stream through
/// O(partition) memory; ASL1 and unsorted inputs load fully first. Returns
/// the number of rows written.
std::uint64_t build_store_from_binlog(const std::string& binlog_path, const std::string& dir,
                                      StoreOptions options = {},
                                      const IngestOptions& ingest = {});

}  // namespace autosens::telemetry::store
