// ASL3 — the on-disk layout of the time-partitioned out-of-core columnar
// store (DESIGN.md §6e). A store is a directory:
//
//   <root>/MANIFEST                     partition index (prune without opening)
//   <root>/day-<day>.<shard>/           one partition (a day, or a shard of one)
//       time.col latency.col user.col   one file per Dataset column
//       action.col class.col status.col
//       footer.asf                      per-block stats + per-slice row counts
//                                       + the summary index
//       summary.asu                     per-slice estimator summaries
//
// Partitions are cut on calendar-day boundaries (telemetry::day_index — the
// same unit the day-block bootstrap resamples), with a secondary cut at
// StoreOptions::partition_rows so a heavy day splits into shards. Rows are
// appended strictly time-ascending, so partitions (and blocks within them)
// tile the time axis in order and window pruning is a range test.
//
// Column file layout ("ASC1"): a 24-byte header — magic(4), version(1),
// column_id(1), codec(1), pad(1), u64 rows, u64 data_bytes — followed by the
// data region. 24 ≡ 0 (mod 8), so a raw column's data starts 8-byte aligned
// inside the mmap and int64/double spans alias the mapping zero-copy.
//
// The data region is split into blocks of footer.block_rows rows. Raw blocks
// are contiguous slices (offsets computable); compressed blocks restart
// their delta chain per block and carry per-block byte lengths in the
// footer, so any block decodes independently. Every block has a CRC-32 in
// the footer; readers verify the blocks they touch.
//
// Footer ("ASF1") and MANIFEST ("ASM1") are varint/zigzag-coded streams with
// a trailing CRC-32 over everything after the magic (see footer.cpp).
//
// Summary file ("ASU1"): the magic, then one blob per slice in the order of
// PartitionSummaries — (action 0, *) … (action 4, *), then (*, *). Each blob
// is the exact core::Accumulator statistics of the slice's interior runs
// plus its first and last runs as samples (core/partition_summary.h). The
// footer indexes the blobs (length, CRC-32, kept rows); the file is only
// mapped, and a blob only CRC-checked and decoded, when a window merges it.
//
// Version 2 added the summaries. Readers reject any other version (a
// version-1 store fails at its MANIFEST with a runtime_error).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/record.h"
#include "telemetry/validate.h"

namespace autosens::telemetry::store {

inline constexpr std::array<char, 4> kColumnMagic = {'A', 'S', 'C', '1'};
inline constexpr std::array<char, 4> kFooterMagic = {'A', 'S', 'F', '1'};
inline constexpr std::array<char, 4> kManifestMagic = {'A', 'S', 'M', '1'};
inline constexpr std::array<char, 4> kSummaryMagic = {'A', 'S', 'U', '1'};
inline constexpr std::uint8_t kFormatVersion = 2;

inline constexpr std::string_view kManifestFileName = "MANIFEST";
inline constexpr std::string_view kFooterFileName = "footer.asf";
inline constexpr std::string_view kSummaryFileName = "summary.asu";

/// Column order is fixed and mirrors the Dataset SoA layout.
enum class ColumnId : std::uint8_t {
  kTime = 0,
  kLatency = 1,
  kUserId = 2,
  kAction = 3,
  kUserClass = 4,
  kStatus = 5,
};
inline constexpr std::size_t kColumnCount = 6;

inline constexpr std::array<std::string_view, kColumnCount> kColumnFileNames = {
    "time.col", "latency.col", "user.col", "action.col", "class.col", "status.col"};

/// Element width of each column in its raw (decoded) representation.
inline constexpr std::array<std::size_t, kColumnCount> kColumnElemBytes = {8, 8, 8, 1, 1, 1};

/// Logical bytes per row across all six columns (the "raw" size every
/// compression ratio and scan-throughput figure is measured against).
inline constexpr std::size_t kRowBytes = 8 + 8 + 8 + 1 + 1 + 1;

inline constexpr std::size_t kColumnHeaderBytes = 24;
static_assert(kColumnHeaderBytes % 8 == 0,
              "raw column data must start 8-byte aligned for zero-copy spans");

/// How a column's data region is encoded. The codec byte is an open seam:
/// kZstd is reserved for a general-purpose block compressor and is only
/// functional when the build carries one (AUTOSENS_HAVE_ZSTD); this tree
/// never writes it, and readers reject it with a clear error instead of
/// misparsing.
enum class ColumnCodec : std::uint8_t {
  kRaw = 0,          ///< Native little-endian elements, mmap zero-copy.
  kDeltaVarint = 1,  ///< Per block: zigzag-varint first value, then deltas.
  kRle = 2,          ///< Per block: (value u8, run varint) pairs.
  kZstd = 3,         ///< Reserved; gated behind AUTOSENS_HAVE_ZSTD.
};

std::string_view to_string(ColumnCodec codec) noexcept;

/// Writer knobs. The defaults target analysis-sized partitions: 1M-row
/// shards (27 MB raw) in 64K-row blocks.
struct StoreOptions {
  /// Secondary partition cut: a day with more rows splits into shards.
  std::uint64_t partition_rows = 1u << 20;
  /// Rows per block (the pruning/decode granule inside a partition).
  std::uint32_t block_rows = 1u << 16;
  /// When true (default): time/user_id delta+varint, enums RLE, latency raw.
  /// When false every column is raw (all-mmap partitions, no decode step).
  bool compress = true;
};

/// Per-block time range (times are sorted, so first/last are min/max).
struct BlockStat {
  std::int64_t first_time_ms = 0;
  std::int64_t last_time_ms = 0;
};

/// One column's encoding metadata inside a partition footer.
struct ColumnMeta {
  ColumnCodec codec = ColumnCodec::kRaw;
  std::uint64_t stored_bytes = 0;          ///< Data-region bytes on disk.
  std::vector<std::uint64_t> block_bytes;  ///< Stored bytes per block.
  std::vector<std::uint32_t> block_crcs;   ///< CRC-32 per stored block.
};

/// One slice's blob in the summary file. Blobs lie back to back in slice
/// order after the magic, so the lengths place them.
struct SummaryRef {
  std::uint64_t kept_rows = 0;  ///< Rows of the slice the scrub keeps; 0 = no blob.
  std::uint64_t bytes = 0;      ///< Blob length.
  std::uint32_t crc = 0;        ///< CRC-32 of the blob.
};

/// The footer's index of a partition's summaries: one per (action, *) slice
/// and one for (*, *), built from the rows the default ValidationOptions
/// keep, plus that rule's verdicts over every row of the partition.
struct PartitionSummaries {
  ValidationReport report;
  std::array<SummaryRef, kActionTypeCount> by_action;
  SummaryRef all;

  /// The (action, *) summary, or (*, *) when `action` is unset.
  const SummaryRef& slice(std::optional<ActionType> action) const noexcept {
    return action ? by_action[static_cast<std::size_t>(*action)] : all;
  }
  /// Byte offset of slice's blob in the summary file.
  std::uint64_t offset(std::optional<ActionType> action) const noexcept {
    std::uint64_t at = kSummaryMagic.size();
    for (std::size_t a = 0; a < by_action.size(); ++a) {
      if (action && static_cast<std::size_t>(*action) == a) return at;
      at += by_action[a].bytes;
    }
    return at;
  }
  /// Size of the summary file.
  std::uint64_t file_bytes() const noexcept { return offset(std::nullopt) + all.bytes; }
};

/// Everything footer.asf carries for one partition.
struct PartitionFooter {
  std::uint64_t rows = 0;
  std::uint32_t block_rows = 0;
  std::int64_t min_time_ms = 0;
  std::int64_t max_time_ms = 0;
  /// Row counts per (action, user_class) slice — the pruning statistic for
  /// sliced scans ("does this partition hold any Business SelectMail rows?").
  std::array<std::array<std::uint64_t, kUserClassCount>, kActionTypeCount> slice_rows{};
  std::vector<BlockStat> blocks;
  std::array<ColumnMeta, kColumnCount> columns;
  PartitionSummaries summaries;

  std::size_t block_count() const noexcept { return blocks.size(); }
  /// Rows of one action (all actions when unset) and one user class (all
  /// classes when unset).
  std::uint64_t slice_row_count(std::optional<ActionType> action,
                                std::optional<UserClass> user_class) const noexcept {
    std::uint64_t total = 0;
    for (std::size_t a = 0; a < slice_rows.size(); ++a) {
      if (action && static_cast<std::size_t>(*action) != a) continue;
      for (std::size_t c = 0; c < slice_rows[a].size(); ++c) {
        if (user_class && static_cast<std::size_t>(*user_class) != c) continue;
        total += slice_rows[a][c];
      }
    }
    return total;
  }
  std::uint64_t raw_bytes() const noexcept { return rows * kRowBytes; }
  std::uint64_t stored_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& column : columns) total += column.stored_bytes;
    return total;
  }
};

/// One MANIFEST entry: enough to prune a partition by time range without
/// opening its footer.
struct PartitionInfo {
  std::string dir_name;  ///< Relative directory, e.g. "day-000012.0".
  std::int64_t day = 0;  ///< telemetry::day_index of every row in it.
  std::uint32_t shard = 0;
  std::uint64_t rows = 0;
  std::int64_t min_time_ms = 0;
  std::int64_t max_time_ms = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t stored_bytes = 0;
};

}  // namespace autosens::telemetry::store
