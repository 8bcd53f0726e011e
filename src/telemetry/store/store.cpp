#include "telemetry/store/store.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "telemetry/binlog.h"
#include "telemetry/store/codec.h"
#include "telemetry/store/footer.h"

namespace autosens::telemetry::store {
namespace {

struct ReaderMetrics {
  obs::Counter& partitions_scanned;
  obs::Counter& partitions_pruned;
  obs::Counter& partitions_summarized;
  obs::Counter& bytes_read;
  obs::Counter& bytes_mapped;

  ReaderMetrics()
      : partitions_scanned(obs::registry().counter(
            "autosens_store_partitions_scanned_total",
            "Partitions overlapping a window (opened for reading)")),
        partitions_pruned(obs::registry().counter(
            "autosens_store_partitions_pruned_total",
            "Partitions skipped by the manifest time range or footer slice counts")),
        partitions_summarized(obs::registry().counter(
            "autosens_store_partitions_summarized_total",
            "Partitions inside a window merged from their summaries, not read")),
        bytes_read(obs::registry().counter("autosens_store_read_bytes_total",
                                           "Stored bytes CRC-checked and consumed by reads")),
        bytes_mapped(obs::registry().counter("autosens_store_mapped_bytes_total",
                                             "Column-file bytes memory-mapped by reads")) {}
};

ReaderMetrics& reader_metrics() {
  static ReaderMetrics metrics;
  return metrics;
}

std::uint64_t load_u64_le(const std::uint8_t* p) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return value;
}

struct ColumnHeader {
  std::uint8_t version = 0;
  std::uint8_t column_id = 0;
  std::uint8_t codec = 0;
  std::uint64_t rows = 0;
  std::uint64_t data_bytes = 0;
};

ColumnHeader parse_column_header(std::span<const std::uint8_t> data, const std::string& path) {
  if (data.size() < kColumnHeaderBytes ||
      std::memcmp(data.data(), kColumnMagic.data(), 4) != 0) {
    throw std::runtime_error("store: bad column header in " + path);
  }
  ColumnHeader header;
  header.version = data[4];
  header.column_id = data[5];
  header.codec = data[6];
  header.rows = load_u64_le(data.data() + 8);
  header.data_bytes = load_u64_le(data.data() + 16);
  if (header.version != kFormatVersion) {
    throw std::runtime_error("store: unsupported column format version in " + path);
  }
  return header;
}

/// Verify the CRC of stored block `b` and return its byte slice.
std::span<const std::uint8_t> checked_block(std::span<const std::uint8_t> region,
                                            const ColumnMeta& meta, std::size_t b,
                                            std::size_t byte_offset, const std::string& path) {
  const std::size_t bytes = meta.block_bytes[b];
  if (byte_offset + bytes > region.size()) {
    throw std::runtime_error("store: column data truncated in " + path);
  }
  const auto slice = region.subspan(byte_offset, bytes);
  if (telemetry::codec::crc32(slice) != meta.block_crcs[b]) {
    throw std::runtime_error("store: block crc mismatch in " + path);
  }
  return slice;
}

}  // namespace

StoredDataset StoredDataset::open(const std::string& dir) {
  StoredDataset store;
  store.dir_ = dir;
  const MappedFile manifest = MappedFile::map((store.dir_ / kManifestFileName).string());
  store.manifest_ = decode_manifest(manifest.bytes());
  store.footers_.reserve(store.manifest_.size());
  const PartitionInfo* prev = nullptr;
  for (const auto& p : store.manifest_) {
    const MappedFile f = MappedFile::map((store.dir_ / p.dir_name / kFooterFileName).string());
    PartitionFooter footer = decode_footer(f.bytes());
    if (footer.rows != p.rows || footer.min_time_ms != p.min_time_ms ||
        footer.max_time_ms != p.max_time_ms) {
      throw std::runtime_error("store: footer disagrees with MANIFEST for " + p.dir_name);
    }
    if (p.rows == 0 || p.min_time_ms > p.max_time_ms ||
        (prev != nullptr && p.min_time_ms < prev->max_time_ms)) {
      // Pruning and window loads rely on partitions tiling time in order.
      throw std::runtime_error("store: partitions are not time-ordered at " + p.dir_name);
    }
    store.footers_.push_back(std::move(footer));
    prev = &p;
  }
  return store;
}

std::uint64_t StoredDataset::rows() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : manifest_) total += p.rows;
  return total;
}

std::uint64_t StoredDataset::raw_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : manifest_) total += p.raw_bytes;
  return total;
}

std::uint64_t StoredDataset::stored_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& p : manifest_) total += p.stored_bytes;
  return total;
}

std::uint64_t StoredDataset::summary_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& footer : footers_) total += footer.summaries.file_bytes();
  return total;
}

std::int64_t StoredDataset::min_time_ms() const {
  if (manifest_.empty()) throw std::runtime_error("store: empty store has no time range");
  return manifest_.front().min_time_ms;
}

std::int64_t StoredDataset::max_time_ms() const {
  if (manifest_.empty()) throw std::runtime_error("store: empty store has no time range");
  return manifest_.back().max_time_ms;
}

std::vector<std::size_t> StoredDataset::prune(std::int64_t begin_ms,
                                              std::int64_t end_ms) const {
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < manifest_.size(); ++i) {
    if (manifest_[i].min_time_ms < end_ms && manifest_[i].max_time_ms >= begin_ms) {
      kept.push_back(i);
    }
  }
  return kept;
}

PartitionData StoredDataset::read_partition(std::size_t i) const {
  return read_rows(i, 0, static_cast<std::size_t>(footer(i).rows));
}

PartitionData StoredDataset::read_rows(std::size_t i, std::size_t row_begin,
                                       std::size_t row_end, UserIds user_ids) const {
  const PartitionFooter& footer = footers_.at(i);
  const PartitionInfo& info = manifest_[i];
  PartitionData out;
  if (row_begin >= row_end) return out;
  if (row_end > footer.rows) {
    throw std::out_of_range("store: row range exceeds partition");
  }
  const std::uint32_t block_rows = footer.block_rows;
  const std::size_t b0 = row_begin / block_rows;
  const std::size_t b1 = (row_end - 1) / block_rows + 1;
  // Decoded buffers cover whole blocks; spans trim to the exact row range.
  const std::size_t decode_begin = b0 * block_rows;
  const std::size_t decode_rows =
      std::min<std::size_t>(footer.rows, b1 * static_cast<std::size_t>(block_rows)) -
      decode_begin;

  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_mapped = 0;
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    // One span per column decode, naming the column and the stored bytes
    // of the blocks it read.
    obs::Span column_span("store.decode_column");
    const std::string_view file_name = kColumnFileNames[c];
    column_span.attr("column", std::string(file_name.substr(0, file_name.find('.'))));
    const std::uint64_t bytes_before = bytes_read;
    const ColumnMeta& meta = footer.columns[c];
    const std::string path = (dir_ / info.dir_name / file_name).string();
    MappedFile map = MappedFile::map(path);
    const auto bytes = map.bytes();
    const ColumnHeader header = parse_column_header(bytes, path);
    if (header.column_id != c || header.codec != static_cast<std::uint8_t>(meta.codec) ||
        header.rows != footer.rows || header.data_bytes != meta.stored_bytes ||
        bytes.size() != kColumnHeaderBytes + meta.stored_bytes) {
      throw std::runtime_error("store: column header disagrees with footer in " + path);
    }
    const auto region = bytes.subspan(kColumnHeaderBytes);
    bytes_mapped += bytes.size();

    const std::size_t elem = kColumnElemBytes[c];
    const std::uint8_t* raw = nullptr;  ///< Element row_begin when zero-copy.
    switch (meta.codec) {
      case ColumnCodec::kRaw: {
        if (meta.stored_bytes != footer.rows * elem) {
          throw std::runtime_error("store: raw column size mismatch in " + path);
        }
        std::size_t offset = decode_begin * elem;
        for (std::size_t b = b0; b < b1; ++b) {
          offset += checked_block(region, meta, b, offset, path).size();
          bytes_read += meta.block_bytes[b];
        }
        raw = region.data() + row_begin * elem;
        ++out.zero_copy_columns_;
        break;
      }
      case ColumnCodec::kDeltaVarint:
      case ColumnCodec::kRle: {
        std::size_t offset = 0;
        for (std::size_t b = 0; b < b0; ++b) offset += meta.block_bytes[b];
        std::size_t dest = 0;
        const auto each_block = [&](auto&& decode) {
          for (std::size_t b = b0; b < b1; ++b) {
            const std::size_t in_block =
                std::min<std::size_t>(footer.rows, (b + 1) * block_rows) - b * block_rows;
            const auto slice = checked_block(region, meta, b, offset, path);
            decode(slice, dest, in_block);
            offset += slice.size();
            dest += in_block;
            bytes_read += meta.block_bytes[b];
          }
        };
        const ColumnId id = static_cast<ColumnId>(c);
        if (meta.codec == ColumnCodec::kDeltaVarint && id == ColumnId::kTime) {
          out.owned_times_.resize(decode_rows);
          each_block([&](auto slice, std::size_t at, std::size_t n) {
            codec::decode_delta_i64(slice, {out.owned_times_.data() + at, n});
          });
        } else if (meta.codec == ColumnCodec::kDeltaVarint && id == ColumnId::kUserId &&
                   user_ids == UserIds::kMaterialize) {
          out.owned_user_ids_.resize(decode_rows);
          each_block([&](auto slice, std::size_t at, std::size_t n) {
            codec::decode_delta_u64(slice, {out.owned_user_ids_.data() + at, n});
          });
        } else if (meta.codec == ColumnCodec::kDeltaVarint && id == ColumnId::kUserId) {
          // Checked, not kept: every block runs the decoder's varint walk,
          // so corrupt bytes throw exactly as above, and no value is written.
          each_block([&](auto slice, std::size_t, std::size_t n) {
            codec::check_delta_u64(slice, n);
          });
        } else if (meta.codec == ColumnCodec::kRle && c >= 3) {
          auto& owned = out.owned_bytes_[c - 3];
          owned.resize(decode_rows);
          each_block([&](auto slice, std::size_t at, std::size_t n) {
            codec::decode_rle_u8(slice, {owned.data() + at, n});
          });
        } else {
          throw std::runtime_error("store: codec not valid for column in " + path);
        }
        break;
      }
      case ColumnCodec::kZstd:
#ifdef AUTOSENS_HAVE_ZSTD
        throw std::runtime_error("store: zstd decode not implemented in " + path);
#else
        throw std::runtime_error("store: column uses zstd but this build lacks zstd (" +
                                 path + ")");
#endif
    }

    const std::size_t count = row_end - row_begin;
    const std::size_t trim = row_begin - decode_begin;  ///< Offset into decoded buffers.
    switch (static_cast<ColumnId>(c)) {
      case ColumnId::kTime:
        out.times_ = raw != nullptr
                         ? std::span<const std::int64_t>(
                               reinterpret_cast<const std::int64_t*>(raw), count)
                         : std::span<const std::int64_t>(out.owned_times_)
                               .subspan(trim, count);
        break;
      case ColumnId::kLatency:
        out.latencies_ = std::span<const double>(reinterpret_cast<const double*>(raw), count);
        break;
      case ColumnId::kUserId:
        if (user_ids == UserIds::kCheckOnly) break;
        out.user_ids_ = raw != nullptr
                            ? std::span<const std::uint64_t>(
                                  reinterpret_cast<const std::uint64_t*>(raw), count)
                            : std::span<const std::uint64_t>(out.owned_user_ids_)
                                  .subspan(trim, count);
        break;
      case ColumnId::kAction:
        out.actions_ = raw != nullptr
                           ? std::span<const ActionType>(
                                 reinterpret_cast<const ActionType*>(raw), count)
                           : std::span<const ActionType>(
                                 reinterpret_cast<const ActionType*>(out.owned_bytes_[0].data()),
                                 out.owned_bytes_[0].size())
                                 .subspan(trim, count);
        break;
      case ColumnId::kUserClass:
        out.user_classes_ =
            raw != nullptr
                ? std::span<const UserClass>(reinterpret_cast<const UserClass*>(raw), count)
                : std::span<const UserClass>(
                      reinterpret_cast<const UserClass*>(out.owned_bytes_[1].data()),
                      out.owned_bytes_[1].size())
                      .subspan(trim, count);
        break;
      case ColumnId::kStatus:
        out.statuses_ =
            raw != nullptr
                ? std::span<const ActionStatus>(reinterpret_cast<const ActionStatus*>(raw),
                                                count)
                : std::span<const ActionStatus>(
                      reinterpret_cast<const ActionStatus*>(out.owned_bytes_[2].data()),
                      out.owned_bytes_[2].size())
                      .subspan(trim, count);
        break;
    }
    out.maps_.push_back(std::move(map));
    column_span.attr("bytes", static_cast<std::int64_t>(bytes_read - bytes_before));
  }

  // CRC catches corruption, not a well-formed file written with out-of-range
  // values; validate the enum columns like the binlog reader does.
  std::uint8_t max_action = 0;
  std::uint8_t max_class = 0;
  std::uint8_t max_status = 0;
  for (std::size_t k = 0; k < out.actions_.size(); ++k) {
    max_action = std::max(max_action, static_cast<std::uint8_t>(out.actions_[k]));
    max_class = std::max(max_class, static_cast<std::uint8_t>(out.user_classes_[k]));
    max_status = std::max(max_status, static_cast<std::uint8_t>(out.statuses_[k]));
  }
  if (max_action >= kActionTypeCount || max_class >= kUserClassCount || max_status > 1) {
    throw std::runtime_error("store: invalid enum value in partition " + info.dir_name);
  }
  if (!std::is_sorted(out.times_.begin(), out.times_.end())) {
    throw std::runtime_error("store: time column not sorted in partition " + info.dir_name);
  }

  out.bytes_read_ = bytes_read;
  ReaderMetrics& metrics = reader_metrics();
  metrics.bytes_read.inc(bytes_read);
  metrics.bytes_mapped.inc(bytes_mapped);
  return out;
}

std::vector<std::uint8_t> StoredDataset::read_summary(std::size_t i,
                                                      std::optional<ActionType> action) const {
  const PartitionFooter& footer = footers_.at(i);
  const std::string path = (dir_ / manifest_[i].dir_name / kSummaryFileName).string();
  const SummaryRef& ref = footer.summaries.slice(action);
  if (ref.bytes == 0) return {};
  const MappedFile map = MappedFile::map(path);
  const auto bytes = map.bytes();
  if (bytes.size() != footer.summaries.file_bytes() ||
      std::memcmp(bytes.data(), kSummaryMagic.data(), kSummaryMagic.size()) != 0) {
    throw std::runtime_error("store: summary file disagrees with footer in " + path);
  }
  const auto blob = bytes.subspan(footer.summaries.offset(action), ref.bytes);
  if (telemetry::codec::crc32(blob) != ref.crc) {
    throw std::runtime_error("store: summary crc mismatch in " + path);
  }
  reader_metrics().bytes_read.inc(blob.size());
  return {blob.begin(), blob.end()};
}

StoredDataset::WindowScan StoredDataset::scan_window(
    std::int64_t begin_ms, std::int64_t end_ms, std::optional<ActionType> action,
    std::optional<UserClass> user_class, UserIds user_ids,
    const std::function<void(std::size_t, const RowColumns&)>& visit,
    const std::function<bool(std::size_t)>& use_summary) const {
  WindowScan out;
  const bool sliced = action.has_value() || user_class.has_value();
  for (std::size_t i = 0; i < manifest_.size(); ++i) {
    const PartitionInfo& p = manifest_[i];
    const PartitionFooter& footer = footers_[i];
    if (!(p.min_time_ms < end_ms && p.max_time_ms >= begin_ms) ||
        (sliced && footer.slice_row_count(action, user_class) == 0)) {
      ++out.partitions_pruned;
      continue;
    }
    if (use_summary && p.min_time_ms >= begin_ms && p.max_time_ms < end_ms && use_summary(i)) {
      ++out.partitions_summarized;
      continue;
    }
    ++out.partitions_scanned;
    // Trim to the blocks whose time range overlaps the window.
    const std::size_t blocks = footer.block_count();
    std::size_t b0 = 0;
    while (b0 < blocks && footer.blocks[b0].last_time_ms < begin_ms) ++b0;
    std::size_t b1 = blocks;
    while (b1 > b0 && footer.blocks[b1 - 1].first_time_ms >= end_ms) --b1;
    if (b0 >= b1) continue;  // The window falls in a time gap between blocks.
    const std::size_t row_begin = b0 * footer.block_rows;
    const std::size_t row_end = std::min<std::size_t>(
        footer.rows, b1 * static_cast<std::size_t>(footer.block_rows));
    const PartitionData part = read_rows(i, row_begin, row_end, user_ids);
    out.bytes_read += part.bytes_read();
    out.rows_decoded += part.rows();
    // Exact trim: the decoded times are sorted.
    const auto times = part.times();
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), begin_ms) - times.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), end_ms) - times.begin());
    if (lo < hi) visit(i, part.row_columns().slice(lo, hi - lo));
  }
  ReaderMetrics& metrics = reader_metrics();
  metrics.partitions_scanned.inc(out.partitions_scanned);
  metrics.partitions_pruned.inc(out.partitions_pruned);
  metrics.partitions_summarized.inc(out.partitions_summarized);
  return out;
}

StoredDataset::WindowLoad StoredDataset::load_window(std::int64_t begin_ms,
                                                     std::int64_t end_ms) const {
  WindowLoad out;
  const auto append = [&](std::size_t, const RowColumns& rows) {
    out.dataset.append_columns(rows.times, rows.latencies, rows.user_ids, rows.actions,
                               rows.user_classes, rows.statuses);
  };
  static_cast<WindowScan&>(out) = scan_window(begin_ms, end_ms, std::nullopt, std::nullopt,
                                              UserIds::kMaterialize, append);
  return out;
}

Dataset StoredDataset::load_all() const {
  Dataset dataset;
  dataset.reserve(static_cast<std::size_t>(rows()));
  for (std::size_t i = 0; i < manifest_.size(); ++i) {
    const PartitionData part = read_partition(i);
    dataset.append_columns(part.times(), part.latencies(), part.user_ids(), part.actions(),
                           part.user_classes(), part.statuses());
  }
  return dataset;
}

void export_binlog(const StoredDataset& store, const std::string& path,
                   std::size_t batch_size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("store: cannot open " + path + " for writing");
  write_binlog_header(out);
  for (std::size_t i = 0; i < store.partitions().size(); ++i) {
    const PartitionData part = store.read_partition(i);
    write_binlog_frames(out, part.times(), part.latencies(), part.user_ids(), part.actions(),
                        part.user_classes(), part.statuses(), batch_size);
  }
}

}  // namespace autosens::telemetry::store
