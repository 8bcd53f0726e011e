// Block codecs for ASL3 column files. Every function works on one block
// (<= StoreOptions::block_rows rows): compressed blocks restart their state,
// so a reader can decode any block without touching the ones before it —
// the property partition-window reads rely on.
//
// Encoders append to `out` (callers reuse one buffer across blocks);
// decoders throw std::runtime_error on truncated or trailing bytes, so a
// block that passes its CRC but was written short still fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "telemetry/store/format.h"

namespace autosens::telemetry::store::codec {

/// kDeltaVarint over signed values (the time column): zigzag-varint of the
/// first value, then zigzag-varint deltas. Sorted input yields tiny deltas.
void encode_delta_i64(std::span<const std::int64_t> values, std::vector<std::uint8_t>& out);
void decode_delta_i64(std::span<const std::uint8_t> in, std::span<std::int64_t> out);

/// kDeltaVarint over unsigned values (the user_id column). Deltas are taken
/// with wrap-around uint64 arithmetic, so arbitrary id sequences round-trip.
void encode_delta_u64(std::span<const std::uint64_t> values, std::vector<std::uint8_t>& out);
void decode_delta_u64(std::span<const std::uint8_t> in, std::span<std::uint64_t> out);
/// Checks a kDeltaVarint block of `rows` unsigned values without writing
/// them: the same varint walk as decode_delta_u64, so it throws exactly
/// when that would, with the same message.
void check_delta_u64(std::span<const std::uint8_t> in, std::size_t rows);

/// kRle over byte-wide enum columns: (value, run-length varint) pairs.
void encode_rle_u8(std::span<const std::uint8_t> values, std::vector<std::uint8_t>& out);
void decode_rle_u8(std::span<const std::uint8_t> in, std::span<std::uint8_t> out);

}  // namespace autosens::telemetry::store::codec
