// StoredDataset — the read side of the ASL3 out-of-core store. Opening a
// store reads the MANIFEST and every partition footer (a few KB per
// partition); column data stays on disk until a read touches it, so a store
// far larger than RAM opens instantly and an analysis window only pays for
// the partitions (and blocks) it overlaps.
//
// Partition summaries (format.h) are read the same lazy way: open() decodes
// only their footer index; read_summary() maps a partition's summary file
// and CRC-checks the one blob a window merges.
//
// Reads are CRC-verified at block granularity. Raw-codec columns hand out
// zero-copy spans aliasing the memory mapping (the 24-byte column header
// keeps 8-byte elements aligned); compressed columns decode just the
// touched blocks into owned buffers. PartitionData owns both kinds of
// backing storage — its spans are valid for its lifetime.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "telemetry/dataset.h"
#include "telemetry/ingest.h"
#include "telemetry/store/format.h"

namespace autosens::telemetry::store {

/// One contiguous row range of one partition, materialized for reading.
/// Spans alias either the column-file mappings (raw codecs) or the decoded
/// buffers this object owns; both live exactly as long as it does.
class PartitionData {
 public:
  std::size_t rows() const noexcept { return times_.size(); }
  std::span<const std::int64_t> times() const noexcept { return times_; }
  std::span<const double> latencies() const noexcept { return latencies_; }
  std::span<const std::uint64_t> user_ids() const noexcept { return user_ids_; }
  std::span<const ActionType> actions() const noexcept { return actions_; }
  std::span<const UserClass> user_classes() const noexcept { return user_classes_; }
  std::span<const ActionStatus> statuses() const noexcept { return statuses_; }
  SampleColumns columns() const noexcept { return {times_, latencies_}; }
  RowColumns row_columns() const noexcept {
    return {times_, latencies_, user_ids_, actions_, user_classes_, statuses_};
  }

  /// Stored (on-disk) bytes CRC-checked and consumed by this read.
  std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  /// Columns served zero-copy straight from the mapping (raw codec).
  std::size_t zero_copy_columns() const noexcept { return zero_copy_columns_; }

 private:
  friend class StoredDataset;
  std::vector<MappedFile> maps_;
  std::vector<std::int64_t> owned_times_;
  std::vector<std::uint64_t> owned_user_ids_;
  std::vector<double> owned_latencies_;
  std::vector<std::uint8_t> owned_bytes_[3];  ///< action / class / status.
  std::span<const std::int64_t> times_;
  std::span<const double> latencies_;
  std::span<const std::uint64_t> user_ids_;
  std::span<const ActionType> actions_;
  std::span<const UserClass> user_classes_;
  std::span<const ActionStatus> statuses_;
  std::uint64_t bytes_read_ = 0;
  std::size_t zero_copy_columns_ = 0;
};

class StoredDataset {
 public:
  /// Read MANIFEST + all partition footers. Throws std::runtime_error on a
  /// missing/corrupt manifest or a footer that disagrees with it.
  static StoredDataset open(const std::string& dir);

  const std::filesystem::path& dir() const noexcept { return dir_; }
  const std::vector<PartitionInfo>& partitions() const noexcept { return manifest_; }
  const PartitionFooter& footer(std::size_t i) const { return footers_.at(i); }

  std::uint64_t rows() const noexcept;
  std::uint64_t raw_bytes() const noexcept;
  std::uint64_t stored_bytes() const noexcept;
  /// Bytes of the partitions' summary files.
  std::uint64_t summary_bytes() const noexcept;
  /// Overall time range [min, max] across partitions. Throws when empty.
  std::int64_t min_time_ms() const;
  std::int64_t max_time_ms() const;

  /// Indices of partitions overlapping [begin_ms, end_ms) — the manifest
  /// range test only, no disk IO.
  std::vector<std::size_t> prune(std::int64_t begin_ms, std::int64_t end_ms) const;

  /// Materialize one whole partition (CRC-verified; raw columns zero-copy).
  PartitionData read_partition(std::size_t i) const;
  /// Whether a read hands out the user column. Either way every block of all
  /// six columns in the range is CRC-checked and decoded; kCheckOnly walks
  /// a compressed user column's varints with codec::check_delta_u64 (same
  /// errors, no values written) and leaves user_ids() empty, for readers no
  /// filter term needs it for.
  enum class UserIds { kMaterialize, kCheckOnly };

  /// Materialize rows [row_begin, row_end) of partition i, touching only the
  /// blocks that cover the range.
  PartitionData read_rows(std::size_t i, std::size_t row_begin, std::size_t row_end,
                          UserIds user_ids = UserIds::kMaterialize) const;

  /// The summary blob of one slice of partition i — (action, *), or (*, *)
  /// when `action` is unset — CRC-checked; empty when the slice kept no
  /// rows. Throws std::runtime_error when the summary file disagrees with
  /// the footer index.
  std::vector<std::uint8_t> read_summary(std::size_t i, std::optional<ActionType> action) const;

  /// What one window read touched.
  struct WindowScan {
    std::size_t partitions_scanned = 0;    ///< Opened and read.
    std::size_t partitions_pruned = 0;     ///< Skipped without opening.
    std::size_t partitions_summarized = 0; ///< Left to the caller's summary.
    std::uint64_t bytes_read = 0;          ///< Stored bytes consumed.
    std::uint64_t rows_decoded = 0;        ///< Rows of the blocks read.
  };

  /// Hand `visit` the rows with time in [begin_ms, end_ms), one overlapping
  /// partition at a time in time order, with the partition's index, as spans
  /// into the partition read (valid only during the call). Partitions
  /// outside the window are pruned via the manifest, and so is any partition
  /// whose footer counts hold no row of the (action, user_class) slice — an
  /// unset field matches every value. A partition wholly inside the window is
  /// offered to `use_summary` (when given) first; one it accepts is not read
  /// and counts as summarized. Partitions straddling a boundary are trimmed
  /// at block granularity, then exactly by binary search on the decoded time
  /// column. The rows still need the slice filter: a partition that holds
  /// the slice holds other rows too.
  WindowScan scan_window(std::int64_t begin_ms, std::int64_t end_ms,
                         std::optional<ActionType> action, std::optional<UserClass> user_class,
                         UserIds user_ids,
                         const std::function<void(std::size_t, const RowColumns&)>& visit,
                         const std::function<bool(std::size_t)>& use_summary = {}) const;

  struct WindowLoad : WindowScan {
    Dataset dataset;  ///< Sorted by construction (partitions tile time).
  };

  /// All rows with time in [begin_ms, end_ms) as an in-memory Dataset
  /// (scan_window with no slice, every column kept).
  WindowLoad load_window(std::int64_t begin_ms, std::int64_t end_ms) const;

  /// The whole store as a Dataset (must fit in memory — tests/conversion).
  Dataset load_all() const;

 private:
  StoredDataset() = default;

  std::filesystem::path dir_;
  std::vector<PartitionInfo> manifest_;
  std::vector<PartitionFooter> footers_;
};

/// Stream a store back out as a sorted ASL2 binlog, one partition at a time
/// (O(partition) memory). The inverse of build_store_from_binlog.
void export_binlog(const StoredDataset& store, const std::string& path,
                   std::size_t batch_size = 4096);

}  // namespace autosens::telemetry::store
