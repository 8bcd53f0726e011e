#include "telemetry/store/codec.h"

#include <stdexcept>

#include "telemetry/binlog.h"

namespace autosens::telemetry::store::codec {

namespace {

using telemetry::codec::get_varint;
using telemetry::codec::put_varint;
using telemetry::codec::zigzag_decode;
using telemetry::codec::zigzag_encode;

[[noreturn]] void truncated(const char* what) {
  throw std::runtime_error(std::string("store codec: truncated ") + what + " block");
}

void check_consumed(std::span<const std::uint8_t> in, std::size_t offset, const char* what) {
  if (offset != in.size()) {
    throw std::runtime_error(std::string("store codec: trailing bytes in ") + what + " block");
  }
}

}  // namespace

void encode_delta_i64(std::span<const std::int64_t> values, std::vector<std::uint8_t>& out) {
  std::int64_t prev = 0;
  for (const std::int64_t value : values) {
    // First value encodes as a delta from 0 — one uniform loop, and the
    // decoder needs no special case either.
    put_varint(out, zigzag_encode(value - prev));
    prev = value;
  }
}

void decode_delta_i64(std::span<const std::uint8_t> in, std::span<std::int64_t> out) {
  std::size_t offset = 0;
  std::int64_t prev = 0;
  for (std::int64_t& value : out) {
    std::uint64_t encoded = 0;
    if (!get_varint(in, offset, encoded)) truncated("delta-i64");
    prev += zigzag_decode(encoded);
    value = prev;
  }
  check_consumed(in, offset, "delta-i64");
}

void encode_delta_u64(std::span<const std::uint64_t> values, std::vector<std::uint8_t>& out) {
  std::uint64_t prev = 0;
  for (const std::uint64_t value : values) {
    // Wrap-around difference reinterpreted as signed: nearby ids in either
    // direction zigzag to short varints, and any sequence round-trips.
    put_varint(out, zigzag_encode(static_cast<std::int64_t>(value - prev)));
    prev = value;
  }
}

void decode_delta_u64(std::span<const std::uint8_t> in, std::span<std::uint64_t> out) {
  std::size_t offset = 0;
  std::uint64_t prev = 0;
  for (std::uint64_t& value : out) {
    std::uint64_t encoded = 0;
    if (!get_varint(in, offset, encoded)) truncated("delta-u64");
    prev += static_cast<std::uint64_t>(zigzag_decode(encoded));
    value = prev;
  }
  check_consumed(in, offset, "delta-u64");
}

void check_delta_u64(std::span<const std::uint8_t> in, std::size_t rows) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t encoded = 0;
    if (!get_varint(in, offset, encoded)) truncated("delta-u64");
  }
  check_consumed(in, offset, "delta-u64");
}

void encode_rle_u8(std::span<const std::uint8_t> values, std::vector<std::uint8_t>& out) {
  std::size_t i = 0;
  while (i < values.size()) {
    const std::uint8_t value = values[i];
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == value) ++run;
    out.push_back(value);
    put_varint(out, run);
    i += run;
  }
}

void decode_rle_u8(std::span<const std::uint8_t> in, std::span<std::uint8_t> out) {
  std::size_t offset = 0;
  std::size_t filled = 0;
  while (filled < out.size()) {
    if (offset >= in.size()) truncated("rle");
    const std::uint8_t value = in[offset++];
    std::uint64_t run = 0;
    if (!get_varint(in, offset, run)) truncated("rle");
    if (run == 0 || run > out.size() - filled) {
      throw std::runtime_error("store codec: rle run overflows block");
    }
    for (std::uint64_t k = 0; k < run; ++k) out[filled++] = value;
  }
  check_consumed(in, offset, "rle");
}

}  // namespace autosens::telemetry::store::codec
