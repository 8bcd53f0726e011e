#include "telemetry/binlog.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/parallel.h"
#include "obs/trace.h"

namespace autosens::telemetry {
namespace codec {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

bool get_varint(std::span<const std::uint8_t> in, std::size_t& offset, std::uint64_t& value) {
  value = 0;
  int shift = 0;
  while (offset < in.size() && shift < 64) {
    const std::uint8_t byte = in[offset++];
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

std::uint64_t zigzag_encode(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t zigzag_decode(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>(value >> 1) ^ -static_cast<std::int64_t>(value & 1);
}

namespace {

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
/// table[k] advances a byte through k further zero bytes, letting the hot
/// loop fold 8 input bytes per iteration (~8x the byte-loop throughput,
/// which matters now that every ASL2 column block is CRC-checked on load).
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xffu];
    }
  }
  return tables;
}

#if defined(__x86_64__) && defined(__GNUC__)
/// Carry-less-multiplication CRC32 (Intel's folding method, the same
/// constants zlib uses for the reflected 0xedb88320 polynomial). Takes and
/// returns the working register state (initialised to ~0 by the caller);
/// `len` must be >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    const std::uint8_t* buf, std::size_t len, std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  buf += 64;
  len -= 64;

  // Fold four 128-bit lanes in parallel, 64 input bytes per iteration.
  while (len >= 64) {
    __m128i x5 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    __m128i x6 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    __m128i x7 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    __m128i x8 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x00)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, x6),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x10)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, x7),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x20)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, x8),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0x30)));
    buf += 64;
    len -= 64;
  }

  // Fold the four lanes into one.
  __m128i x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x2), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x3), x5);
  x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, x4), x5);

  // Remaining 16-byte blocks.
  while (len >= 16) {
    x5 = _mm_clmulepi64_si128(x1, k3k4, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, x5),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf)));
    buf += 16;
    len -= 16;
  }

  // Fold 128 -> 64 bits, then Barrett-reduce to 32.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x0 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x0);
  x0 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k5, 0x00);
  x1 = _mm_xor_si128(x1, x0);
  x0 = _mm_and_si128(x1, mask32);
  x0 = _mm_clmulepi64_si128(x0, poly, 0x10);
  x0 = _mm_and_si128(x0, mask32);
  x0 = _mm_clmulepi64_si128(x0, poly, 0x00);
  x1 = _mm_xor_si128(x1, x0);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool cpu_has_clmul() noexcept {
  static const bool supported =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return supported;
}
#endif  // __x86_64__ && __GNUC__

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  static const auto tables = make_crc_tables();
  std::uint32_t crc = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__) && defined(__GNUC__)
  if (n >= 64 && cpu_has_clmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = crc32_clmul(p, folded, crc);
    p += folded;
    n -= folded;
  }
#endif
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = tables[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_batch(std::span<const ActionRecord> records) {
  std::vector<std::uint8_t> out;
  out.reserve(records.size() * 8 + 16);
  put_varint(out, records.size());
  std::int64_t prev_time = 0;
  std::uint64_t prev_user = 0;
  for (const auto& r : records) {
    put_varint(out, zigzag_encode(r.time_ms - prev_time));
    put_varint(out, zigzag_encode(static_cast<std::int64_t>(r.user_id) -
                                  static_cast<std::int64_t>(prev_user)));
    const double scaled = std::round(r.latency_ms * 100.0);
    put_varint(out, zigzag_encode(static_cast<std::int64_t>(scaled)));
    out.push_back(static_cast<std::uint8_t>(r.action));
    out.push_back(static_cast<std::uint8_t>(r.user_class));
    out.push_back(static_cast<std::uint8_t>(r.status));
    prev_time = r.time_ms;
    prev_user = r.user_id;
  }
  return out;
}

namespace {

/// The record count at the front of an ASL1/wire payload; `offset` moves
/// past it.
std::uint64_t read_batch_count(std::span<const std::uint8_t> payload, std::size_t& offset) {
  std::uint64_t count = 0;
  if (!get_varint(payload, offset, count)) {
    throw std::runtime_error("decode_batch: truncated count");
  }
  return count;
}

/// The most records `payload` can hold whatever its count says: each needs
/// >= 6 bytes (three varints + three enum bytes). `count` is
/// attacker-controlled, so what it sizes is clamped to this bound rather
/// than letting a bogus huge count throw bad_alloc instead of the
/// documented runtime_error from the per-record truncation check.
std::size_t max_batch_records(std::span<const std::uint8_t> payload, std::uint64_t count) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(count, payload.size() / 6));
}

/// Decode the `count` records after the count varint at `offset`, handing
/// record i to emit(i, record) once it is whole. Record i has then consumed
/// at least 1 + 6 * (i + 1) bytes, so i < max_batch_records(payload, count).
template <typename Emit>
void decode_records(std::span<const std::uint8_t> payload, std::size_t offset,
                    std::uint64_t count, const Emit& emit) {
  std::int64_t prev_time = 0;
  std::uint64_t prev_user = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t time_delta = 0;
    std::uint64_t user_delta = 0;
    std::uint64_t latency_scaled = 0;
    if (!get_varint(payload, offset, time_delta) ||
        !get_varint(payload, offset, user_delta) ||
        !get_varint(payload, offset, latency_scaled) || offset + 3 > payload.size()) {
      throw std::runtime_error("decode_batch: truncated record");
    }
    ActionRecord r;
    r.time_ms = prev_time + zigzag_decode(time_delta);
    r.user_id = static_cast<std::uint64_t>(static_cast<std::int64_t>(prev_user) +
                                           zigzag_decode(user_delta));
    r.latency_ms = static_cast<double>(zigzag_decode(latency_scaled)) / 100.0;
    const std::uint8_t action = payload[offset++];
    const std::uint8_t user_class = payload[offset++];
    const std::uint8_t status = payload[offset++];
    if (action >= kActionTypeCount || user_class >= kUserClassCount || status > 1) {
      throw std::runtime_error("decode_batch: invalid enum value");
    }
    r.action = static_cast<ActionType>(action);
    r.user_class = static_cast<UserClass>(user_class);
    r.status = static_cast<ActionStatus>(status);
    emit(static_cast<std::size_t>(i), r);
    prev_time = r.time_ms;
    prev_user = r.user_id;
  }
  if (offset != payload.size()) {
    throw std::runtime_error("decode_batch: trailing bytes in payload");
  }
}

}  // namespace

std::vector<ActionRecord> decode_batch(std::span<const std::uint8_t> payload) {
  std::vector<ActionRecord> records;
  decode_batch_into(payload, records);
  return records;
}

void decode_batch_into(std::span<const std::uint8_t> payload, std::vector<ActionRecord>& records) {
  records.clear();
  std::size_t offset = 0;
  const std::uint64_t count = read_batch_count(payload, offset);
  records.reserve(max_batch_records(payload, count));
  decode_records(payload, offset, count,
                 [&records](std::size_t, const ActionRecord& r) { records.push_back(r); });
}

}  // namespace codec

namespace {

// The ASL2 block copies below reinterpret column memory as little-endian
// wire bytes directly; a big-endian port would need byte-swapping loops.
static_assert(std::endian::native == std::endian::little,
              "ASL2 column block I/O assumes a little-endian host");
static_assert(sizeof(ActionType) == 1 && sizeof(UserClass) == 1 && sizeof(ActionStatus) == 1,
              "ASL2 enum blocks are one byte per record");

constexpr std::array<char, 4> kMagicV1 = {'A', 'S', 'L', '1'};
constexpr std::array<char, 4> kMagicV2 = {'A', 'S', 'L', '2'};

/// Fixed bytes per record in an ASL2 payload after the varint count:
/// time (8) + latency (8) + user_id (8) + action/class/status (1 each).
constexpr std::size_t kV2RecordBytes = 8 + 8 + 8 + 3;

void put_u32(std::ostream& out, std::uint32_t value) {
  std::array<std::uint8_t, 4> bytes = {
      static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value >> 16), static_cast<std::uint8_t>(value >> 24)};
  out.write(reinterpret_cast<const char*>(bytes.data()), 4);
}

std::uint32_t load_u32(std::span<const std::uint8_t> data, std::size_t offset) noexcept {
  return static_cast<std::uint32_t>(data[offset]) |
         (static_cast<std::uint32_t>(data[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(data[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(data[offset + 3]) << 24);
}

void append_block(std::vector<std::uint8_t>& out, const void* src, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  out.insert(out.end(), p, p + bytes);
}

/// ASL2: validate frame geometry serially (varint count + fixed block
/// sizes), prefix-sum destination offsets, then CRC + memcpy every frame's
/// column blocks straight into its precomputed slice of the unzeroed output
/// columns in parallel. Destinations depend only on the frame headers, so the
/// result is identical for every thread count; a corrupt frame throws and
/// the pool rethrows the lowest frame's error deterministically.
Dataset read_binlog_v2(std::span<const std::uint8_t> data,
                       const std::vector<BinlogFrameView>& frames,
                       const IngestOptions& options) {
  struct FramePlan {
    std::size_t blocks_offset = 0;  ///< Offset of the time block in the payload.
    std::size_t count = 0;
    std::size_t dest = 0;  ///< First destination record index.
  };
  std::vector<FramePlan> plans(frames.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto payload = data.subspan(frames[i].payload_offset, frames[i].payload_len);
    std::size_t offset = 0;
    std::uint64_t count = 0;
    if (!codec::get_varint(payload, offset, count)) {
      throw std::runtime_error("read_binlog: truncated record count");
    }
    // Validate by division, not multiplication: `count * kV2RecordBytes` can
    // wrap uint64 for attacker-chosen counts and pass an equality check while
    // the real block is tiny. With this form count is bounded by
    // payload.size() / kV2RecordBytes, so the running total cannot wrap either.
    const std::size_t block_bytes = payload.size() - offset;
    if (block_bytes % kV2RecordBytes != 0 || count != block_bytes / kV2RecordBytes) {
      throw std::runtime_error("read_binlog: frame size does not match record count");
    }
    plans[i] = {offset, static_cast<std::size_t>(count), total};
    total += count;
  }

  // Unzeroed columns: each page is first touched by the worker that copies
  // its frame in, not zero-filled here on one thread.
  Dataset dataset;
  const MutableRowColumns out = dataset.resize_for_overwrite(total, /*ascending=*/false);

  core::parallel_for_items(frames.size(), options.threads, [&](std::size_t i) {
    const auto payload = data.subspan(frames[i].payload_offset, frames[i].payload_len);
    if (codec::crc32(payload) != frames[i].crc) {
      throw std::runtime_error("read_binlog: crc mismatch");
    }
    const FramePlan& plan = plans[i];
    // Empty frames have nothing to copy; also keeps memcpy away from the
    // nullptr data() of all-empty column vectors (UB even with length 0).
    if (plan.count == 0) return;
    const std::uint8_t* p = payload.data() + plan.blocks_offset;
    std::memcpy(out.times.data() + plan.dest, p, plan.count * sizeof(std::int64_t));
    p += plan.count * sizeof(std::int64_t);
    std::memcpy(out.latencies.data() + plan.dest, p, plan.count * sizeof(double));
    p += plan.count * sizeof(double);
    std::memcpy(out.user_ids.data() + plan.dest, p, plan.count * sizeof(std::uint64_t));
    p += plan.count * sizeof(std::uint64_t);
    // The enum blocks are validated byte-wise (CRC catches corruption, not a
    // well-formed file written with out-of-range values), then copied.
    const std::uint8_t* action_block = p;
    const std::uint8_t* class_block = p + plan.count;
    const std::uint8_t* status_block = p + 2 * plan.count;
    // Branch-free max reductions vectorize; one range check per block after.
    std::uint8_t max_action = 0;
    std::uint8_t max_class = 0;
    std::uint8_t max_status = 0;
    for (std::size_t k = 0; k < plan.count; ++k) {
      max_action = std::max(max_action, action_block[k]);
      max_class = std::max(max_class, class_block[k]);
      max_status = std::max(max_status, status_block[k]);
    }
    if (max_action >= kActionTypeCount || max_class >= kUserClassCount || max_status > 1) {
      throw std::runtime_error("read_binlog: invalid enum value");
    }
    std::memcpy(out.actions.data() + plan.dest, action_block, plan.count);
    std::memcpy(out.user_classes.data() + plan.dest, class_block, plan.count);
    std::memcpy(out.statuses.data() + plan.dest, status_block, plan.count);
  });

  dataset.sort_by_time(options.threads);
  return dataset;
}

/// ASL1 (legacy row format): each frame's leading record count, clamped by
/// max_batch_records, sizes its range of the unzeroed output columns; then
/// the frames decode on the fixed chunk grid straight into their ranges.
/// Ranges follow frame order, so the record sequence — and after the stable
/// sort, the dataset — is the same for every thread count. A frame whose
/// count cannot be read gets an empty range and throws in its decode, after
/// its CRC check, as decode_batch would.
Dataset read_binlog_v1(std::span<const std::uint8_t> data,
                       const std::vector<BinlogFrameView>& frames,
                       const IngestOptions& options) {
  std::vector<std::size_t> first_row(frames.size() + 1, 0);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto payload = data.subspan(frames[i].payload_offset, frames[i].payload_len);
    std::size_t offset = 0;
    std::uint64_t count = 0;
    const std::size_t rows =
        codec::get_varint(payload, offset, count) ? codec::max_batch_records(payload, count) : 0;
    first_row[i + 1] = first_row[i] + rows;
  }
  Dataset dataset;
  const MutableRowColumns out = dataset.resize_for_overwrite(first_row.back(), false);
  core::parallel_for(
      frames.size(), options.threads, /*min_per_chunk=*/1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto payload = data.subspan(frames[i].payload_offset, frames[i].payload_len);
          if (codec::crc32(payload) != frames[i].crc) {
            throw std::runtime_error("read_binlog: crc mismatch");
          }
          const detail::RowRange rows =
              detail::row_range(out, first_row[i], first_row[i + 1] - first_row[i]);
          std::size_t offset = 0;
          const std::uint64_t count = codec::read_batch_count(payload, offset);
          codec::decode_records(payload, offset, count,
                                [&rows](std::size_t k, const ActionRecord& r) {
                                  rows.times[k] = r.time_ms;
                                  rows.latencies[k] = r.latency_ms;
                                  rows.user_ids[k] = r.user_id;
                                  rows.actions[k] = r.action;
                                  rows.user_classes[k] = r.user_class;
                                  rows.statuses[k] = r.status;
                                });
        }
      });
  dataset.sort_by_time(options.threads);
  return dataset;
}

}  // namespace

BinlogVersion binlog_version(std::span<const std::uint8_t> data) {
  if (data.size() < 4) throw std::runtime_error("read_binlog: bad magic");
  const std::array<char, 4> magic = {static_cast<char>(data[0]), static_cast<char>(data[1]),
                                     static_cast<char>(data[2]), static_cast<char>(data[3])};
  if (magic == kMagicV1) return BinlogVersion::kV1;
  if (magic == kMagicV2) return BinlogVersion::kV2;
  throw std::runtime_error("read_binlog: bad magic");
}

std::vector<BinlogFrameView> walk_binlog_frames(std::span<const std::uint8_t> data) {
  std::vector<BinlogFrameView> frames;
  std::size_t offset = 4;  // past magic
  while (offset < data.size()) {
    if (data.size() - offset < 4) {
      throw std::runtime_error("read_binlog: truncated frame header");
    }
    const std::uint32_t len = load_u32(data, offset);
    offset += 4;
    if (data.size() - offset < len) throw std::runtime_error("read_binlog: truncated payload");
    const std::size_t payload_offset = offset;
    offset += len;
    if (data.size() - offset < 4) throw std::runtime_error("read_binlog: truncated crc");
    frames.push_back({payload_offset, len, load_u32(data, offset)});
    offset += 4;
  }
  return frames;
}

void write_binlog_header(std::ostream& out) {
  out.write(kMagicV2.data(), kMagicV2.size());
  if (!out) throw std::runtime_error("write_binlog: stream write failed");
}

void write_binlog_frames(std::ostream& out, std::span<const std::int64_t> times,
                         std::span<const double> latencies,
                         std::span<const std::uint64_t> user_ids,
                         std::span<const ActionType> actions,
                         std::span<const UserClass> user_classes,
                         std::span<const ActionStatus> statuses, std::size_t batch_size) {
  if (batch_size == 0) throw std::invalid_argument("write_binlog: batch_size must be nonzero");
  const std::size_t size = times.size();
  if (latencies.size() != size || user_ids.size() != size || actions.size() != size ||
      user_classes.size() != size || statuses.size() != size) {
    throw std::invalid_argument("write_binlog: column length mismatch");
  }
  std::vector<std::uint8_t> payload;
  for (std::size_t start = 0; start < size; start += batch_size) {
    const std::size_t count = std::min(batch_size, size - start);
    payload.clear();
    payload.reserve(10 + count * kV2RecordBytes);
    codec::put_varint(payload, count);
    append_block(payload, times.data() + start, count * sizeof(std::int64_t));
    append_block(payload, latencies.data() + start, count * sizeof(double));
    append_block(payload, user_ids.data() + start, count * sizeof(std::uint64_t));
    append_block(payload, actions.data() + start, count);
    append_block(payload, user_classes.data() + start, count);
    append_block(payload, statuses.data() + start, count);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    put_u32(out, codec::crc32(payload));
  }
  if (!out) throw std::runtime_error("write_binlog: stream write failed");
}

void write_binlog(std::ostream& out, const Dataset& dataset, std::size_t batch_size) {
  write_binlog_header(out);
  write_binlog_frames(out, dataset.times(), dataset.latencies(), dataset.user_ids(),
                      dataset.actions(), dataset.user_classes(), dataset.statuses(),
                      batch_size);
}

void write_binlog_file(const std::string& path, const Dataset& dataset, std::size_t batch_size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_binlog_file: cannot open " + path);
  write_binlog(out, dataset, batch_size);
}

Dataset read_binlog_buffer(std::span<const std::uint8_t> data, const IngestOptions& options) {
  const BinlogVersion version = binlog_version(data);
  const auto frames = walk_binlog_frames(data);
  return version == BinlogVersion::kV2 ? read_binlog_v2(data, frames, options)
                                       : read_binlog_v1(data, frames, options);
}

Dataset read_binlog(std::istream& in, const IngestOptions& options) {
  const MappedFile input = MappedFile::read_stream(in);
  return read_binlog_buffer(input.bytes(), options);
}

Dataset read_binlog_file(const std::string& path, const IngestOptions& options) {
  obs::Span span("ingest_binlog");
  span.attr("path", path);
  const MappedFile input = MappedFile::map(path);
  const auto start = std::chrono::steady_clock::now();
  Dataset dataset = read_binlog_buffer(input.bytes(), options);
  const IngestStats stats{
      .bytes = input.size(),
      .records = dataset.size(),
      .errors = 0,
      .seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
      .mapped = input.is_mapped()};
  note_ingest("binlog", stats);
  span.attr("records", static_cast<std::int64_t>(stats.records));
  span.attr("bytes", static_cast<std::int64_t>(stats.bytes));
  return dataset;
}

}  // namespace autosens::telemetry
