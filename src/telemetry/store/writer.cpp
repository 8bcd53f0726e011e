#include "telemetry/store/writer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/partition_summary.h"
#include "obs/metrics.h"
#include "telemetry/binlog.h"
#include "telemetry/clock.h"
#include "telemetry/store/codec.h"
#include "telemetry/store/footer.h"

namespace autosens::telemetry::store {
namespace {

struct WriterMetrics {
  obs::Counter& partitions;
  obs::Counter& rows;
  obs::Counter& raw_bytes;
  obs::Counter& stored_bytes;

  WriterMetrics()
      : partitions(obs::registry().counter("autosens_store_partitions_written_total",
                                           "Partitions flushed by StoreWriter")),
        rows(obs::registry().counter("autosens_store_rows_written_total",
                                     "Rows flushed by StoreWriter")),
        raw_bytes(obs::registry().counter("autosens_store_raw_bytes_written_total",
                                          "Logical (uncompressed) bytes flushed")),
        stored_bytes(obs::registry().counter("autosens_store_stored_bytes_written_total",
                                             "On-disk data-region bytes flushed")) {}
};

WriterMetrics& writer_metrics() {
  static WriterMetrics metrics;
  return metrics;
}

void put_u64_le(std::uint8_t* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/// Append one column's 24-byte "ASC1" header.
void write_column_header(std::ofstream& out, ColumnId id, ColumnCodec codec, std::uint64_t rows,
                         std::uint64_t data_bytes) {
  std::array<std::uint8_t, kColumnHeaderBytes> header{};
  std::memcpy(header.data(), kColumnMagic.data(), 4);
  header[4] = kFormatVersion;
  header[5] = static_cast<std::uint8_t>(id);
  header[6] = static_cast<std::uint8_t>(codec);
  header[7] = 0;
  put_u64_le(header.data() + 8, rows);
  put_u64_le(header.data() + 16, data_bytes);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
}

/// Encode one column into `data` block-by-block, filling the footer metadata
/// (codec, per-block byte lengths and CRCs, stored size). `encode_block`
/// appends the encoded form of rows [begin, end) to `data`.
template <typename EncodeBlock>
void encode_column(ColumnMeta& meta, ColumnCodec codec, std::size_t rows,
                   std::uint32_t block_rows, std::vector<std::uint8_t>& data,
                   EncodeBlock&& encode_block) {
  meta.codec = codec;
  data.clear();
  const std::size_t blocks = rows == 0 ? 0 : (rows + block_rows - 1) / block_rows;
  meta.block_bytes.resize(blocks);
  meta.block_crcs.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * block_rows;
    const std::size_t end = std::min(rows, begin + static_cast<std::size_t>(block_rows));
    const std::size_t before = data.size();
    encode_block(begin, end);
    meta.block_bytes[b] = data.size() - before;
    meta.block_crcs[b] = telemetry::codec::crc32(
        std::span<const std::uint8_t>(data.data() + before, data.size() - before));
  }
  meta.stored_bytes = data.size();
}

/// Raw codec: the block payload is the column memory itself.
template <typename T>
void encode_raw_column(ColumnMeta& meta, const std::vector<T>& values, std::uint32_t block_rows,
                       std::vector<std::uint8_t>& data) {
  encode_column(meta, ColumnCodec::kRaw, values.size(), block_rows, data,
                [&](std::size_t begin, std::size_t end) {
                  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data() + begin);
                  data.insert(data.end(), p, p + (end - begin) * sizeof(T));
                });
}

template <typename Enum>
void encode_rle_column(ColumnMeta& meta, const std::vector<Enum>& values,
                       std::uint32_t block_rows, std::vector<std::uint8_t>& data) {
  static_assert(sizeof(Enum) == 1);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(values.data());
  encode_column(meta, ColumnCodec::kRle, values.size(), block_rows, data,
                [&](std::size_t begin, std::size_t end) {
                  codec::encode_rle_u8({bytes + begin, end - begin}, data);
                });
}

}  // namespace

StoreWriter::StoreWriter(std::filesystem::path dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.partition_rows == 0 || options_.block_rows == 0) {
    throw std::invalid_argument("StoreWriter: partition_rows and block_rows must be nonzero");
  }
  std::filesystem::create_directories(dir_);
  if (std::filesystem::exists(dir_ / kManifestFileName)) {
    throw std::runtime_error("StoreWriter: " + (dir_ / kManifestFileName).string() +
                             " already exists (stores are write-once)");
  }
}

StoreWriter::~StoreWriter() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {
    // Destructor path: nothing sane to do with the error; call finish()
    // explicitly to observe it.
  }
}

void StoreWriter::append_columns(std::span<const std::int64_t> times,
                                 std::span<const double> latencies,
                                 std::span<const std::uint64_t> user_ids,
                                 std::span<const ActionType> actions,
                                 std::span<const UserClass> user_classes,
                                 std::span<const ActionStatus> statuses) {
  if (finished_) throw std::invalid_argument("StoreWriter: append after finish");
  const std::size_t count = times.size();
  if (latencies.size() != count || user_ids.size() != count || actions.size() != count ||
      user_classes.size() != count || statuses.size() != count) {
    throw std::invalid_argument("StoreWriter: column length mismatch");
  }
  if (count == 0) return;
  // Validate the whole batch before touching the buffers so a failed append
  // leaves the writer unchanged.
  if (times.front() < last_time_) {
    throw std::invalid_argument("StoreWriter: rows must be appended in ascending time order");
  }
  for (std::size_t i = 1; i < count; ++i) {
    if (times[i] < times[i - 1]) {
      throw std::invalid_argument("StoreWriter: rows must be appended in ascending time order");
    }
  }

  std::size_t offset = 0;
  while (offset < count) {
    const std::int64_t day = day_index(times[offset]);
    if (!times_.empty() && day != buffer_day_) flush_partition();
    if (times_.empty()) {
      if (day != buffer_day_) next_shard_ = 0;
      buffer_day_ = day;
    }
    // Rows of this day still in the batch, bounded by the room left in the
    // current shard.
    const std::int64_t day_end_ms = (buffer_day_ + 1) * kMillisPerDay;
    const auto* day_end =
        std::lower_bound(times.data() + offset, times.data() + count, day_end_ms);
    const std::size_t day_rows = static_cast<std::size_t>(day_end - (times.data() + offset));
    const std::size_t room = static_cast<std::size_t>(options_.partition_rows) - times_.size();
    const std::size_t take = std::min(day_rows, room);
    times_.insert(times_.end(), times.begin() + offset, times.begin() + offset + take);
    latencies_.insert(latencies_.end(), latencies.begin() + offset,
                      latencies.begin() + offset + take);
    user_ids_.insert(user_ids_.end(), user_ids.begin() + offset,
                     user_ids.begin() + offset + take);
    actions_.insert(actions_.end(), actions.begin() + offset, actions.begin() + offset + take);
    user_classes_.insert(user_classes_.end(), user_classes.begin() + offset,
                         user_classes.begin() + offset + take);
    statuses_.insert(statuses_.end(), statuses.begin() + offset,
                     statuses.begin() + offset + take);
    offset += take;
    if (times_.size() >= options_.partition_rows) flush_partition();
  }
  last_time_ = times.back();
}

void StoreWriter::append(const Dataset& dataset) {
  if (!dataset.is_sorted()) {
    throw std::invalid_argument("StoreWriter: dataset must be sorted by time");
  }
  append_columns(dataset.times(), dataset.latencies(), dataset.user_ids(), dataset.actions(),
                 dataset.user_classes(), dataset.statuses());
}

void StoreWriter::flush_partition() {
  const std::size_t rows = times_.size();
  if (rows == 0) return;

  PartitionFooter footer;
  footer.rows = rows;
  footer.block_rows = options_.block_rows;
  footer.min_time_ms = times_.front();
  footer.max_time_ms = times_.back();
  for (std::size_t i = 0; i < rows; ++i) {
    footer.slice_rows[static_cast<std::size_t>(actions_[i])]
                     [static_cast<std::size_t>(user_classes_[i])]++;
  }
  const std::size_t blocks = (rows + footer.block_rows - 1) / footer.block_rows;
  footer.blocks.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * footer.block_rows;
    const std::size_t end = std::min(rows, begin + static_cast<std::size_t>(footer.block_rows));
    footer.blocks[b] = {times_[begin], times_[end - 1]};
  }

  char name[64];
  std::snprintf(name, sizeof(name), "day-%06lld.%u", static_cast<long long>(buffer_day_),
                next_shard_);
  const std::filesystem::path partition_dir = dir_ / name;
  std::filesystem::create_directory(partition_dir);

  std::vector<std::uint8_t> data;
  const std::uint32_t block_rows = footer.block_rows;
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    const ColumnId id = static_cast<ColumnId>(c);
    ColumnMeta& meta = footer.columns[c];
    switch (id) {
      case ColumnId::kTime:
        if (options_.compress) {
          encode_column(meta, ColumnCodec::kDeltaVarint, rows, block_rows, data,
                        [&](std::size_t begin, std::size_t end) {
                          codec::encode_delta_i64({times_.data() + begin, end - begin}, data);
                        });
        } else {
          encode_raw_column(meta, times_, block_rows, data);
        }
        break;
      case ColumnId::kLatency:
        // Doubles of IEEE bits don't delta well; keep them raw so the reader
        // can hand out zero-copy spans over the mapping.
        encode_raw_column(meta, latencies_, block_rows, data);
        break;
      case ColumnId::kUserId:
        if (options_.compress) {
          encode_column(meta, ColumnCodec::kDeltaVarint, rows, block_rows, data,
                        [&](std::size_t begin, std::size_t end) {
                          codec::encode_delta_u64({user_ids_.data() + begin, end - begin},
                                                  data);
                        });
        } else {
          encode_raw_column(meta, user_ids_, block_rows, data);
        }
        break;
      case ColumnId::kAction:
        if (options_.compress) {
          encode_rle_column(meta, actions_, block_rows, data);
        } else {
          encode_raw_column(meta, actions_, block_rows, data);
        }
        break;
      case ColumnId::kUserClass:
        if (options_.compress) {
          encode_rle_column(meta, user_classes_, block_rows, data);
        } else {
          encode_raw_column(meta, user_classes_, block_rows, data);
        }
        break;
      case ColumnId::kStatus:
        if (options_.compress) {
          encode_rle_column(meta, statuses_, block_rows, data);
        } else {
          encode_raw_column(meta, statuses_, block_rows, data);
        }
        break;
    }
    const std::filesystem::path path = partition_dir / kColumnFileNames[c];
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("StoreWriter: cannot open " + path.string());
    write_column_header(out, id, meta.codec, rows, meta.stored_bytes);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) throw std::runtime_error("StoreWriter: write failed for " + path.string());
  }

  const core::SummaryFile summary = core::summarize_partition(
      {times_, latencies_, user_ids_, actions_, user_classes_, statuses_});
  const std::filesystem::path summary_path = partition_dir / kSummaryFileName;
  std::ofstream summary_out(summary_path, std::ios::binary | std::ios::trunc);
  summary_out.write(reinterpret_cast<const char*>(summary.bytes.data()),
                    static_cast<std::streamsize>(summary.bytes.size()));
  if (!summary_out) {
    throw std::runtime_error("StoreWriter: write failed for " + summary_path.string());
  }
  footer.summaries = summary.index;

  const std::vector<std::uint8_t> footer_bytes = encode_footer(footer);
  const std::filesystem::path footer_path = partition_dir / kFooterFileName;
  std::ofstream footer_out(footer_path, std::ios::binary | std::ios::trunc);
  footer_out.write(reinterpret_cast<const char*>(footer_bytes.data()),
                   static_cast<std::streamsize>(footer_bytes.size()));
  if (!footer_out) {
    throw std::runtime_error("StoreWriter: write failed for " + footer_path.string());
  }

  manifest_.push_back({name, buffer_day_, next_shard_, footer.rows, footer.min_time_ms,
                       footer.max_time_ms, footer.raw_bytes(), footer.stored_bytes()});
  rows_written_ += rows;
  ++next_shard_;

  WriterMetrics& metrics = writer_metrics();
  metrics.partitions.inc();
  metrics.rows.inc(rows);
  metrics.raw_bytes.inc(footer.raw_bytes());
  metrics.stored_bytes.inc(footer.stored_bytes());

  times_.clear();
  latencies_.clear();
  user_ids_.clear();
  actions_.clear();
  user_classes_.clear();
  statuses_.clear();
}

void StoreWriter::finish() {
  if (finished_) return;
  flush_partition();
  const std::vector<std::uint8_t> manifest_bytes = encode_manifest(manifest_);
  const std::filesystem::path path = dir_ / kManifestFileName;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(manifest_bytes.data()),
            static_cast<std::streamsize>(manifest_bytes.size()));
  if (!out) throw std::runtime_error("StoreWriter: write failed for " + path.string());
  finished_ = true;
}

void build_store(const Dataset& dataset, const std::string& dir, StoreOptions options) {
  StoreWriter writer(dir, options);
  writer.append(dataset);
  writer.finish();
}

namespace {

/// Streaming ASL2 → store conversion. Pass 1 walks every frame reading only
/// the time block (CRC-checking each payload once) to confirm the file is
/// globally sorted; pass 2 decodes the six column blocks of one frame at a
/// time into scratch vectors and appends them, so peak memory is
/// O(frame + partition) regardless of file size. Returns false when the file
/// is not sorted (caller falls back to the full loader).
bool stream_sorted_v2(std::span<const std::uint8_t> data,
                      const std::vector<BinlogFrameView>& frames, StoreWriter& writer) {
  constexpr std::size_t kV2RecordBytes = 8 + 8 + 8 + 3;
  struct FramePlan {
    std::size_t blocks_offset = 0;
    std::size_t count = 0;
  };
  std::vector<FramePlan> plans(frames.size());
  std::vector<std::int64_t> times;
  std::int64_t last_time = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto payload = data.subspan(frames[i].payload_offset, frames[i].payload_len);
    if (telemetry::codec::crc32(payload) != frames[i].crc) {
      throw std::runtime_error("store: binlog crc mismatch");
    }
    std::size_t offset = 0;
    std::uint64_t count = 0;
    if (!telemetry::codec::get_varint(payload, offset, count)) {
      throw std::runtime_error("store: truncated binlog record count");
    }
    const std::size_t block_bytes = payload.size() - offset;
    if (block_bytes % kV2RecordBytes != 0 || count != block_bytes / kV2RecordBytes) {
      throw std::runtime_error("store: binlog frame size does not match record count");
    }
    plans[i] = {offset, static_cast<std::size_t>(count)};
    if (count == 0) continue;
    times.resize(count);
    std::memcpy(times.data(), payload.data() + offset, count * sizeof(std::int64_t));
    if (times.front() < last_time ||
        !std::is_sorted(times.begin(), times.end())) {
      return false;
    }
    last_time = times.back();
  }

  std::vector<double> latencies;
  std::vector<std::uint64_t> user_ids;
  std::vector<ActionType> actions;
  std::vector<UserClass> user_classes;
  std::vector<ActionStatus> statuses;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const FramePlan& plan = plans[i];
    if (plan.count == 0) continue;
    const auto payload = data.subspan(frames[i].payload_offset, frames[i].payload_len);
    const std::uint8_t* p = payload.data() + plan.blocks_offset;
    const std::size_t n = plan.count;
    times.resize(n);
    latencies.resize(n);
    user_ids.resize(n);
    actions.resize(n);
    user_classes.resize(n);
    statuses.resize(n);
    std::memcpy(times.data(), p, n * sizeof(std::int64_t));
    p += n * sizeof(std::int64_t);
    std::memcpy(latencies.data(), p, n * sizeof(double));
    p += n * sizeof(double);
    std::memcpy(user_ids.data(), p, n * sizeof(std::uint64_t));
    p += n * sizeof(std::uint64_t);
    std::uint8_t max_action = 0, max_class = 0, max_status = 0;
    for (std::size_t k = 0; k < n; ++k) {
      max_action = std::max(max_action, p[k]);
      max_class = std::max(max_class, p[n + k]);
      max_status = std::max(max_status, p[2 * n + k]);
    }
    if (max_action >= kActionTypeCount || max_class >= kUserClassCount || max_status > 1) {
      throw std::runtime_error("store: invalid enum value in binlog");
    }
    std::memcpy(actions.data(), p, n);
    std::memcpy(user_classes.data(), p + n, n);
    std::memcpy(statuses.data(), p + 2 * n, n);
    writer.append_columns(times, latencies, user_ids, actions, user_classes, statuses);
  }
  return true;
}

}  // namespace

std::uint64_t build_store_from_binlog(const std::string& binlog_path, const std::string& dir,
                                      StoreOptions options, const IngestOptions& ingest) {
  const MappedFile input = MappedFile::map(binlog_path);
  const auto data = input.bytes();
  const BinlogVersion version = binlog_version(data);
  StoreWriter writer(dir, options);
  bool streamed = false;
  if (version == BinlogVersion::kV2) {
    streamed = stream_sorted_v2(data, walk_binlog_frames(data), writer);
  }
  if (!streamed) {
    // ASL1 or out-of-order ASL2: no streaming path — load, sort, append.
    writer.append(read_binlog_buffer(data, ingest));
  }
  writer.finish();
  return writer.rows_written();
}

}  // namespace autosens::telemetry::store
