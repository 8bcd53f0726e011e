// Compact binary log formats for ActionRecords, plus the byte-level codec
// primitives (varint, zigzag, CRC32) shared with the network wire format.
//
// Two file formats share one frame envelope:
//
//   magic (4 bytes, "ASL1" or "ASL2")
//   frames: [u32 payload_len][payload][u32 crc32(payload)] ...
//
// ASL1 (legacy, row-oriented): each payload is a delta/varint batch of
// records — codec::encode_batch / decode_batch, also the network wire
// payload. Latency is quantized to round(latency_ms * 100), 10 µs
// resolution.
//
// ASL2 (current, column-oriented): each payload is
//   varint record_count
//   time_ms   block: record_count × int64  (little-endian)
//   latency   block: record_count × double (IEEE-754 bits, little-endian)
//   user_id   block: record_count × uint64 (little-endian)
//   action / user_class / status blocks: record_count × uint8 each
// i.e. exactly the Dataset's structure-of-arrays layout. Loading an ASL2
// file is zero-copy in the row sense: the reader memory-maps the file,
// CRC-checks and memcpy's each column block straight into the SoA column
// vectors — no per-record materialization — with frames processed in
// parallel on the shared thread pool (deterministic: every frame's
// destination slice is precomputed from the frame headers alone). Latency
// round-trips exactly (raw double bits).
//
// write_binlog emits ASL2; read_binlog reads both.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "telemetry/dataset.h"
#include "telemetry/ingest.h"

namespace autosens::telemetry {
namespace codec {

/// Append an unsigned LEB128 varint.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);
/// Read a varint; advances `offset`. Returns false on truncated/overlong input.
bool get_varint(std::span<const std::uint8_t> in, std::size_t& offset, std::uint64_t& value);

/// Zigzag mapping for signed deltas.
std::uint64_t zigzag_encode(std::int64_t value) noexcept;
std::int64_t zigzag_decode(std::uint64_t value) noexcept;

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF).
std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// Encode / decode a whole record batch (the ASL1/wire payload format).
std::vector<std::uint8_t> encode_batch(std::span<const ActionRecord> records);
/// Throws std::runtime_error on malformed payloads.
std::vector<ActionRecord> decode_batch(std::span<const std::uint8_t> payload);
/// decode_batch into a caller-owned buffer: `out` is cleared but keeps its
/// capacity, so frame loops reuse one allocation across frames instead of
/// constructing a fresh vector per frame.
void decode_batch_into(std::span<const std::uint8_t> payload, std::vector<ActionRecord>& out);

}  // namespace codec

/// One frame of a binlog image located by the envelope walk: payload bounds
/// plus the recorded CRC — no payload bytes touched yet.
struct BinlogFrameView {
  std::size_t payload_offset = 0;
  std::size_t payload_len = 0;
  std::uint32_t crc = 0;
};

enum class BinlogVersion { kV1, kV2 };

/// Classify a binlog image by its magic. Throws std::runtime_error on bad
/// magic or a buffer too short to hold one.
BinlogVersion binlog_version(std::span<const std::uint8_t> data);

/// Walk the frame envelopes of a binlog image (cheap header-only pass,
/// magic already validated via binlog_version). Throws std::runtime_error
/// on truncation. Public for the ASL3 store converter, which streams frames
/// through a StoreWriter without ever materializing a Dataset.
std::vector<BinlogFrameView> walk_binlog_frames(std::span<const std::uint8_t> data);

/// Write the 4-byte ASL2 magic (the other streaming half of write_binlog).
void write_binlog_header(std::ostream& out);

/// The streaming half of write_binlog: append ASL2 frames (no magic) for
/// the given column slices, `batch_size` records per frame. All spans must
/// be the same length. Lets callers that produce columns incrementally (the
/// store exporter) emit one binlog from many column slices.
void write_binlog_frames(std::ostream& out, std::span<const std::int64_t> times,
                         std::span<const double> latencies,
                         std::span<const std::uint64_t> user_ids,
                         std::span<const ActionType> actions,
                         std::span<const UserClass> user_classes,
                         std::span<const ActionStatus> statuses,
                         std::size_t batch_size = 4096);

/// Write `dataset` as an ASL2 columnar binary log, batching `batch_size`
/// records per frame. Column blocks are copied straight out of the SoA
/// columns. Throws std::runtime_error on IO failure.
void write_binlog(std::ostream& out, const Dataset& dataset, std::size_t batch_size = 4096);
void write_binlog_file(const std::string& path, const Dataset& dataset,
                       std::size_t batch_size = 4096);

/// Read a binary log (either magic). Throws std::runtime_error on bad
/// magic, CRC mismatch, or truncation (these formats are checksummed;
/// errors are never silent). The buffer form parses a mapped or in-memory
/// image in place; the stream form slurps first; the file form
/// memory-maps. Output is identical for every `options.threads` value.
Dataset read_binlog_buffer(std::span<const std::uint8_t> data,
                           const IngestOptions& options = {});
Dataset read_binlog(std::istream& in, const IngestOptions& options = {});
Dataset read_binlog_file(const std::string& path, const IngestOptions& options = {});

}  // namespace autosens::telemetry
