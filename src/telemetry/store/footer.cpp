#include "telemetry/store/footer.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "telemetry/binlog.h"

namespace autosens::telemetry::store {
namespace {

using telemetry::codec::crc32;
using telemetry::codec::get_varint;
using telemetry::codec::put_varint;
using telemetry::codec::zigzag_decode;
using telemetry::codec::zigzag_encode;

void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t value) {
  put_varint(out, zigzag_encode(value));
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

/// Cursor over a checked payload; every read throws on truncation.
struct Reader {
  std::span<const std::uint8_t> in;
  std::size_t offset = 0;
  const char* what;

  std::uint64_t varint() {
    std::uint64_t value = 0;
    if (!get_varint(in, offset, value)) {
      throw std::runtime_error(std::string(what) + ": truncated varint");
    }
    return value;
  }
  std::int64_t zigzag() { return zigzag_decode(varint()); }
  std::uint8_t byte() {
    if (offset >= in.size()) throw std::runtime_error(std::string(what) + ": truncated byte");
    return in[offset++];
  }
  std::uint32_t u32_le() {
    if (in.size() - offset < 4) throw std::runtime_error(std::string(what) + ": truncated u32");
    const std::uint32_t value = static_cast<std::uint32_t>(in[offset]) |
                                (static_cast<std::uint32_t>(in[offset + 1]) << 8) |
                                (static_cast<std::uint32_t>(in[offset + 2]) << 16) |
                                (static_cast<std::uint32_t>(in[offset + 3]) << 24);
    offset += 4;
    return value;
  }
  std::size_t counted(std::uint64_t count, std::size_t min_bytes_each) {
    // Attacker-controlled counts: bound by the bytes actually present so a
    // bogus huge count throws runtime_error, not bad_alloc.
    if (count > (in.size() - offset) / (min_bytes_each == 0 ? 1 : min_bytes_each)) {
      throw std::runtime_error(std::string(what) + ": count exceeds payload");
    }
    return static_cast<std::size_t>(count);
  }
  void done() {
    if (offset != in.size()) {
      throw std::runtime_error(std::string(what) + ": trailing bytes");
    }
  }
};

/// Strip "magic + payload + crc" framing and verify; returns the payload.
std::span<const std::uint8_t> checked_payload(std::span<const std::uint8_t> data,
                                              const std::array<char, 4>& magic,
                                              const char* what) {
  if (data.size() < 8 ||
      !std::equal(magic.begin(), magic.end(), reinterpret_cast<const char*>(data.data()))) {
    throw std::runtime_error(std::string(what) + ": bad magic");
  }
  const auto payload = data.subspan(4, data.size() - 8);
  const auto crc_bytes = data.subspan(data.size() - 4);
  const std::uint32_t expect = static_cast<std::uint32_t>(crc_bytes[0]) |
                               (static_cast<std::uint32_t>(crc_bytes[1]) << 8) |
                               (static_cast<std::uint32_t>(crc_bytes[2]) << 16) |
                               (static_cast<std::uint32_t>(crc_bytes[3]) << 24);
  if (crc32(payload) != expect) {
    throw std::runtime_error(std::string(what) + ": crc mismatch");
  }
  return payload;
}

void seal(std::vector<std::uint8_t>& out) {
  const std::span<const std::uint8_t> payload(out.data() + 4, out.size() - 4);
  put_u32_le(out, crc32(payload));
}

/// The version check of a footer or MANIFEST, naming both versions.
void check_version(std::uint64_t version, const char* what) {
  if (version != kFormatVersion) {
    throw std::runtime_error(std::string(what) + ": unsupported format version " +
                             std::to_string(version) + " (this build reads version " +
                             std::to_string(kFormatVersion) + ")");
  }
}

/// The report fields in encoding order.
std::array<std::size_t*, 8> report_fields(ValidationReport& r) {
  return {&r.total,
          &r.kept,
          &r.dropped_error_status,
          &r.dropped_nonpositive_latency,
          &r.dropped_excessive_latency,
          &r.dropped_nonfinite_latency,
          &r.dropped_bad_timestamp,
          &r.dropped_out_of_window};
}

void put_summaries(std::vector<std::uint8_t>& out, const PartitionSummaries& summaries) {
  ValidationReport report = summaries.report;
  for (const std::size_t* field : report_fields(report)) put_varint(out, *field);
  const auto put_ref = [&](const SummaryRef& ref) {
    put_varint(out, ref.kept_rows);
    put_varint(out, ref.bytes);
    put_u32_le(out, ref.crc);
  };
  for (const auto& ref : summaries.by_action) put_ref(ref);
  put_ref(summaries.all);
}

/// Sums untrusted counts, throwing instead of wrapping.
std::uint64_t checked_sum(std::uint64_t a, std::uint64_t b, const char* what) {
  std::uint64_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    throw std::runtime_error(std::string("store footer: ") + what + " overflow");
  }
  return sum;
}

/// The summary index must account for the partition's rows: the scrub
/// verdicts cover every row, each slice keeps no more rows than it holds,
/// and the kept rows of the (action, *) slices add up to (*, *)'s.
void check_summaries(const PartitionFooter& footer) {
  const PartitionSummaries& summaries = footer.summaries;
  const ValidationReport& report = summaries.report;
  std::uint64_t verdicts = report.kept;
  for (const std::uint64_t dropped :
       {report.dropped_error_status, report.dropped_nonpositive_latency,
        report.dropped_excessive_latency, report.dropped_nonfinite_latency,
        report.dropped_bad_timestamp, report.dropped_out_of_window}) {
    verdicts = checked_sum(verdicts, dropped, "scrub verdict");
  }
  if (report.total != footer.rows || verdicts != report.total) {
    throw std::runtime_error("store footer: scrub verdicts do not account for the rows");
  }
  std::uint64_t kept = 0;
  std::uint64_t bytes = 0;
  for (std::size_t a = 0; a <= summaries.by_action.size(); ++a) {
    const bool all = a == summaries.by_action.size();
    const SummaryRef& ref = all ? summaries.all : summaries.by_action[a];
    if ((ref.kept_rows == 0) != (ref.bytes == 0)) {
      throw std::runtime_error("store footer: summary blob without kept rows, or rows without one");
    }
    bytes = checked_sum(bytes, ref.bytes, "summary size");
    if (all) continue;
    if (ref.kept_rows >
        footer.slice_row_count(static_cast<ActionType>(a), std::nullopt)) {
      throw std::runtime_error("store footer: summary keeps more rows than its slice holds");
    }
    kept = checked_sum(kept, ref.kept_rows, "summary kept rows");
  }
  checked_sum(bytes, kSummaryMagic.size(), "summary size");
  if (kept != report.kept || summaries.all.kept_rows != report.kept) {
    throw std::runtime_error("store footer: summary kept rows disagree with the scrub verdicts");
  }
}

ColumnCodec parse_codec(std::uint8_t value, const char* what) {
  if (value > static_cast<std::uint8_t>(ColumnCodec::kZstd)) {
    throw std::runtime_error(std::string(what) + ": unknown column codec " +
                             std::to_string(value));
  }
  return static_cast<ColumnCodec>(value);
}

}  // namespace

std::string_view to_string(ColumnCodec codec) noexcept {
  switch (codec) {
    case ColumnCodec::kRaw: return "raw";
    case ColumnCodec::kDeltaVarint: return "delta+varint";
    case ColumnCodec::kRle: return "rle";
    case ColumnCodec::kZstd: return "zstd";
  }
  return "?";
}

std::vector<std::uint8_t> encode_footer(const PartitionFooter& footer) {
  std::vector<std::uint8_t> out(kFooterMagic.begin(), kFooterMagic.end());
  put_varint(out, kFormatVersion);
  put_varint(out, footer.rows);
  put_varint(out, footer.block_rows);
  put_zigzag(out, footer.min_time_ms);
  put_zigzag(out, footer.max_time_ms);
  for (const auto& per_action : footer.slice_rows) {
    for (const std::uint64_t rows : per_action) put_varint(out, rows);
  }
  put_varint(out, footer.blocks.size());
  for (const auto& block : footer.blocks) {
    put_zigzag(out, block.first_time_ms);
    put_zigzag(out, block.last_time_ms);
  }
  for (const auto& column : footer.columns) {
    out.push_back(static_cast<std::uint8_t>(column.codec));
    put_varint(out, column.stored_bytes);
    for (const std::uint64_t bytes : column.block_bytes) put_varint(out, bytes);
    for (const std::uint32_t crc : column.block_crcs) put_u32_le(out, crc);
  }
  put_summaries(out, footer.summaries);
  seal(out);
  return out;
}

PartitionFooter decode_footer(std::span<const std::uint8_t> data) {
  Reader r{checked_payload(data, kFooterMagic, "store footer"), 0, "store footer"};
  check_version(r.varint(), "store footer");
  PartitionFooter footer;
  footer.rows = r.varint();
  footer.block_rows = static_cast<std::uint32_t>(r.varint());
  footer.min_time_ms = r.zigzag();
  footer.max_time_ms = r.zigzag();
  for (auto& per_action : footer.slice_rows) {
    for (auto& rows : per_action) rows = r.varint();
  }
  const std::size_t blocks = r.counted(r.varint(), 2);
  footer.blocks.resize(blocks);
  for (auto& block : footer.blocks) {
    block.first_time_ms = r.zigzag();
    block.last_time_ms = r.zigzag();
  }
  for (auto& column : footer.columns) {
    column.codec = parse_codec(r.byte(), "store footer");
    column.stored_bytes = r.varint();
    column.block_bytes.resize(blocks);
    for (auto& bytes : column.block_bytes) bytes = r.varint();
    column.block_crcs.resize(blocks);
    for (auto& crc : column.block_crcs) crc = r.u32_le();
  }
  for (std::size_t* field : report_fields(footer.summaries.report)) *field = r.varint();
  const auto get_ref = [&](SummaryRef& ref) {
    ref.kept_rows = r.varint();
    ref.bytes = r.varint();
    ref.crc = r.u32_le();
  };
  for (auto& ref : footer.summaries.by_action) get_ref(ref);
  get_ref(footer.summaries.all);
  r.done();
  if (footer.rows > 0 && footer.block_rows == 0) {
    throw std::runtime_error("store footer: zero block_rows");
  }
  const std::uint64_t expect_blocks =
      footer.rows == 0 ? 0 : (footer.rows + footer.block_rows - 1) / footer.block_rows;
  if (expect_blocks != blocks) {
    throw std::runtime_error("store footer: block count does not match row count");
  }
  // Window scans prune partitions on these counts, so they must account for
  // every row (summed without wrapping: the counts are untrusted).
  std::uint64_t slice_total = 0;
  for (const auto& per_action : footer.slice_rows) {
    for (const std::uint64_t rows : per_action) {
      if (rows > footer.rows - slice_total) {
        throw std::runtime_error("store footer: slice row counts exceed row count");
      }
      slice_total += rows;
    }
  }
  if (slice_total != footer.rows) {
    throw std::runtime_error("store footer: slice row counts do not sum to row count");
  }
  check_summaries(footer);
  return footer;
}

std::vector<std::uint8_t> encode_manifest(std::span<const PartitionInfo> partitions) {
  std::vector<std::uint8_t> out(kManifestMagic.begin(), kManifestMagic.end());
  put_varint(out, kFormatVersion);
  put_varint(out, partitions.size());
  for (const auto& p : partitions) {
    put_varint(out, p.dir_name.size());
    out.insert(out.end(), p.dir_name.begin(), p.dir_name.end());
    put_zigzag(out, p.day);
    put_varint(out, p.shard);
    put_varint(out, p.rows);
    put_zigzag(out, p.min_time_ms);
    put_zigzag(out, p.max_time_ms);
    put_varint(out, p.raw_bytes);
    put_varint(out, p.stored_bytes);
  }
  seal(out);
  return out;
}

std::vector<PartitionInfo> decode_manifest(std::span<const std::uint8_t> data) {
  Reader r{checked_payload(data, kManifestMagic, "store manifest"), 0, "store manifest"};
  check_version(r.varint(), "store manifest");
  const std::size_t count = r.counted(r.varint(), 8);
  std::vector<PartitionInfo> partitions(count);
  for (auto& p : partitions) {
    const std::size_t name_len = r.counted(r.varint(), 1);
    if (r.in.size() - r.offset < name_len) {
      throw std::runtime_error("store manifest: truncated name");
    }
    p.dir_name.assign(reinterpret_cast<const char*>(r.in.data() + r.offset), name_len);
    r.offset += name_len;
    if (p.dir_name.empty() || p.dir_name.find('/') != std::string::npos ||
        p.dir_name.find("..") != std::string::npos) {
      // Names join onto the store root; reject anything that could escape it.
      throw std::runtime_error("store manifest: invalid partition name");
    }
    p.day = r.zigzag();
    p.shard = static_cast<std::uint32_t>(r.varint());
    p.rows = r.varint();
    p.min_time_ms = r.zigzag();
    p.max_time_ms = r.zigzag();
    p.raw_bytes = r.varint();
    p.stored_bytes = r.varint();
  }
  r.done();
  return partitions;
}

}  // namespace autosens::telemetry::store
