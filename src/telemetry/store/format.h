// ASL3 — the on-disk layout of the time-partitioned out-of-core columnar
// store (DESIGN.md §6e). A store is a directory:
//
//   <root>/MANIFEST                     partition index (prune without opening)
//   <root>/day-<day>.<shard>/           one partition (a day, or a shard of one)
//       time.col latency.col user.col   one file per Dataset column
//       action.col class.col status.col
//       footer.asf                      per-block stats + per-slice row counts
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
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/record.h"

namespace autosens::telemetry::store {

inline constexpr std::array<char, 4> kColumnMagic = {'A', 'S', 'C', '1'};
inline constexpr std::array<char, 4> kFooterMagic = {'A', 'S', 'F', '1'};
inline constexpr std::array<char, 4> kManifestMagic = {'A', 'S', 'M', '1'};
inline constexpr std::uint8_t kFormatVersion = 1;

inline constexpr std::string_view kManifestFileName = "MANIFEST";
inline constexpr std::string_view kFooterFileName = "footer.asf";

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
