#include "telemetry/binlog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/rng.h"
#include "reference_codecs.h"

namespace autosens::telemetry {
namespace {

Dataset random_dataset(std::size_t n, std::uint64_t seed) {
  stats::Random random(seed);
  Dataset d;
  std::int64_t t = 1'600'000'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(random.exponential(0.001));
    d.add({.time_ms = t,
           .user_id = 1000 + random.uniform_index(50),
           .latency_ms = std::round(random.lognormal(5.5, 0.5) * 100.0) / 100.0,
           .action = static_cast<ActionType>(random.uniform_index(kActionTypeCount)),
           .user_class = static_cast<UserClass>(random.uniform_index(kUserClassCount)),
           .status = random.bernoulli(0.05) ? ActionStatus::kError : ActionStatus::kSuccess});
  }
  return d;
}

/// The rows of `d` as records: the input codec::encode_batch takes.
std::vector<ActionRecord> rows_of(const Dataset& d) {
  std::vector<ActionRecord> rows;
  for (std::size_t i = 0; i < d.size(); ++i) rows.push_back(d[i]);
  return rows;
}

TEST(CodecTest, VarintRoundtripSmallValues) {
  for (const std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16'384ull}) {
    std::vector<std::uint8_t> buf;
    codec::put_varint(buf, v);
    std::size_t offset = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(codec::get_varint(buf, offset, out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(offset, buf.size());
  }
}

TEST(CodecTest, VarintRoundtripLargeValues) {
  for (const std::uint64_t v :
       {~std::uint64_t{0}, std::uint64_t{1} << 63, std::uint64_t{0xdeadbeefcafebabe}}) {
    std::vector<std::uint8_t> buf;
    codec::put_varint(buf, v);
    std::size_t offset = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(codec::get_varint(buf, offset, out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodecTest, VarintDetectsTruncation) {
  std::vector<std::uint8_t> buf;
  codec::put_varint(buf, 1'000'000);
  buf.pop_back();
  std::size_t offset = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(codec::get_varint(buf, offset, out));
}

TEST(CodecTest, ZigzagRoundtrip) {
  for (const std::int64_t v :
       std::initializer_list<std::int64_t>{0, 1, -1, 1234567, -1234567,
                                           std::numeric_limits<std::int64_t>::max(),
                                           std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(codec::zigzag_decode(codec::zigzag_encode(v)), v);
  }
}

TEST(CodecTest, ZigzagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(codec::zigzag_encode(0), 0u);
  EXPECT_EQ(codec::zigzag_encode(-1), 1u);
  EXPECT_EQ(codec::zigzag_encode(1), 2u);
  EXPECT_EQ(codec::zigzag_encode(-2), 3u);
}

TEST(CodecTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE).
  const std::string s = "123456789";
  const auto crc = codec::crc32(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(CodecTest, Crc32EmptyIsZero) {
  EXPECT_EQ(codec::crc32({}), 0u);
}

// Long inputs take the SIMD folding path where available; writers and
// readers share codec::crc32, so a broken fold would still roundtrip.
// Pin it to an independent bytewise computation at lengths around the
// 64-byte dispatch threshold and the 16-byte fold granularity.
TEST(CodecTest, Crc32LongBufferMatchesBytewise) {
  const auto bytewise = [](std::span<const std::uint8_t> data) {
    std::uint32_t crc = 0xffffffffu;
    for (const std::uint8_t byte : data) {
      crc ^= byte;
      for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
  };
  std::vector<std::uint8_t> data(4099);
  std::uint32_t state = 0x12345678u;
  for (auto& byte : data) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  for (const std::size_t len : {0u, 1u, 7u, 63u, 64u, 65u, 80u, 127u, 1024u, 4099u}) {
    const std::span<const std::uint8_t> view(data.data(), len);
    EXPECT_EQ(codec::crc32(view), bytewise(view)) << "length " << len;
  }
}

TEST(CodecTest, BatchRoundtrip) {
  const auto dataset = random_dataset(500, 1);
  const auto payload = codec::encode_batch(rows_of(dataset));
  const auto decoded = codec::decode_batch(payload);
  ASSERT_EQ(decoded.size(), dataset.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i], dataset[i]);
  }
}

TEST(CodecTest, BatchPreservesSubCentLatencyResolution) {
  Dataset d;
  d.add({.time_ms = 1, .user_id = 1, .latency_ms = 123.45});
  const auto decoded = codec::decode_batch(codec::encode_batch(rows_of(d)));
  EXPECT_DOUBLE_EQ(decoded[0].latency_ms, 123.45);
}

TEST(CodecTest, DecodeBatchIntoReusesScratchAcrossCalls) {
  // The ingest hot loop decodes every frame into one scratch vector; the
  // reused buffer must produce the same records as the allocating overload
  // and keep its capacity once grown.
  std::vector<ActionRecord> scratch;
  for (const std::size_t n : {500u, 100u, 300u}) {
    const Dataset dataset = random_dataset(n, 7 + n);
    const auto payload = codec::encode_batch(rows_of(dataset));
    codec::decode_batch_into(payload, scratch);
    const auto fresh = codec::decode_batch(payload);
    ASSERT_EQ(scratch.size(), n);
    ASSERT_EQ(scratch, fresh);
  }
  // Capacity from the 500-record call survived the smaller decodes.
  EXPECT_GE(scratch.capacity(), 500u);
}

TEST(CodecTest, EmptyBatchRoundtrip) {
  const auto payload = codec::encode_batch({});
  EXPECT_TRUE(codec::decode_batch(payload).empty());
}

TEST(CodecTest, DecodeRejectsTruncatedPayload) {
  const auto dataset = random_dataset(10, 2);
  auto payload = codec::encode_batch(rows_of(dataset));
  payload.resize(payload.size() / 2);
  EXPECT_THROW(codec::decode_batch(payload), std::runtime_error);
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  const auto dataset = random_dataset(3, 3);
  auto payload = codec::encode_batch(rows_of(dataset));
  payload.push_back(0);
  EXPECT_THROW(codec::decode_batch(payload), std::runtime_error);
}

TEST(CodecTest, DecodeRejectsInvalidEnums) {
  Dataset d;
  d.add({.time_ms = 1, .user_id = 1, .latency_ms = 1.0});
  auto payload = codec::encode_batch(rows_of(d));
  payload[payload.size() - 3] = 99;  // action byte
  EXPECT_THROW(codec::decode_batch(payload), std::runtime_error);
}

TEST(BinlogTest, StreamRoundtrip) {
  const auto dataset = random_dataset(2000, 4);
  std::stringstream stream;
  write_binlog(stream, dataset, /*batch_size=*/256);
  const auto decoded = read_binlog(stream);
  ASSERT_EQ(decoded.size(), dataset.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) EXPECT_EQ(decoded[i], dataset[i]);
}

TEST(BinlogTest, ZeroBatchSizeThrows) {
  std::stringstream stream;
  EXPECT_THROW(write_binlog(stream, Dataset{}, 0), std::invalid_argument);
}

TEST(BinlogTest, EmptyDatasetRoundtrip) {
  std::stringstream stream;
  write_binlog(stream, Dataset{});
  EXPECT_TRUE(read_binlog(stream).empty());
}

TEST(BinlogTest, BadMagicThrows) {
  std::istringstream in("XXXX");
  EXPECT_THROW(read_binlog(in), std::runtime_error);
}

TEST(BinlogTest, CorruptedPayloadFailsCrc) {
  const auto dataset = random_dataset(100, 5);
  std::stringstream stream;
  write_binlog(stream, dataset);
  std::string bytes = stream.str();
  bytes[20] ^= 0x40;  // flip a bit inside the first frame payload
  std::istringstream in(bytes);
  EXPECT_THROW(read_binlog(in), std::runtime_error);
}

TEST(BinlogTest, CrcFailureInMiddleFrameThrowsCleanly) {
  // The reader sizes its unzeroed columns before any frame is checked, then
  // copies frames in parallel: a bad middle frame must still end in the CRC
  // error at every thread count, and the reader must work again afterwards.
  const auto dataset = random_dataset(2000, 8);
  std::stringstream stream;
  write_binlog(stream, dataset, /*batch_size=*/256);
  const std::string text = stream.str();
  std::vector<std::uint8_t> bytes(text.begin(), text.end());
  const auto frames = walk_binlog_frames(bytes);
  ASSERT_EQ(frames.size(), 8u);
  const BinlogFrameView& middle = frames[frames.size() / 2];
  const std::vector<std::uint8_t> good = bytes;
  bytes[middle.payload_offset + middle.payload_len / 2] ^= 0x01;
  for (const std::size_t threads : {1, 2, 8}) {
    try {
      read_binlog_buffer(bytes, {.threads = threads});
      ADD_FAILURE() << "no throw at threads " << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "read_binlog: crc mismatch") << "threads " << threads;
    }
    const Dataset decoded = read_binlog_buffer(good, {.threads = threads});
    ASSERT_EQ(decoded.size(), dataset.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) ASSERT_EQ(decoded[i], dataset[i]);
  }
}

TEST(BinlogTest, TruncatedFileThrows) {
  const auto dataset = random_dataset(100, 6);
  std::stringstream stream;
  write_binlog(stream, dataset);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 3);
  std::istringstream in(bytes);
  EXPECT_THROW(read_binlog(in), std::runtime_error);
}

TEST(CodecTest, DecodeRejectsHugeClaimedCount) {
  // A tiny payload claiming 2^60 records must fail the per-record truncation
  // check (runtime_error), not die in reserve() with bad_alloc/length_error.
  std::vector<std::uint8_t> payload;
  codec::put_varint(payload, std::uint64_t{1} << 60);
  EXPECT_THROW(codec::decode_batch(payload), std::runtime_error);
}

namespace {

/// Assembles one ASL2 envelope frame (length + payload + CRC) from raw bytes.
std::string frame_bytes(const std::vector<std::uint8_t>& payload) {
  std::string out;
  const auto put_u32 = [&out](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<char>((v >> shift) & 0xff));
    }
  };
  put_u32(static_cast<std::uint32_t>(payload.size()));
  out.append(payload.begin(), payload.end());
  put_u32(codec::crc32(payload));
  return out;
}

}  // namespace

TEST(BinlogTest, RejectsOverflowingV2RecordCount) {
  // Because 27 (the fixed bytes-per-record) is odd, it is invertible mod
  // 2^64: for any payload remainder L there is a huge count whose product
  // `count * 27` wraps to exactly L. A multiplication-based size check
  // accepts such frames and the loader then reads ~1e18 records out of
  // bounds. Craft the two-frame variant of that attack (counts summing to
  // 2 mod 2^64, so even the total looks sane) and require a clean throw.
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - 27 * inv;  // Newton: 27^{-1} mod 2^64
  ASSERT_EQ(inv * 27, 1u);

  std::vector<std::uint8_t> payload1;
  codec::put_varint(payload1, inv);  // inv * 27 == 1 (mod 2^64)
  payload1.push_back(0);             // 1 byte of "records"

  const std::uint64_t count2 = 2 - inv;  // count2 * 27 == 53 (mod 2^64)
  std::vector<std::uint8_t> payload2;
  codec::put_varint(payload2, count2);
  payload2.insert(payload2.end(), 53, 0);

  std::string bytes = "ASL2";
  bytes += frame_bytes(payload1);
  bytes += frame_bytes(payload2);
  std::istringstream in(bytes);
  EXPECT_THROW(read_binlog(in), std::runtime_error);
}

TEST(BinlogTest, V1HostileCountsThrowTheDecodeErrors) {
  // An ASL1 frame's count sizes its row range, clamped by the payload's
  // bytes: a valid frame, then one claiming 2^60 records in four bytes, must
  // throw decode_batch's truncation error, not bad_alloc; a frame whose
  // count varint is cut short throws decode_batch's truncated count.
  Dataset one;
  one.add({.time_ms = 5, .user_id = 1, .latency_ms = 2.5});
  std::stringstream valid;
  write_binlog_v1(valid, one);
  std::vector<std::uint8_t> huge;
  codec::put_varint(huge, std::uint64_t{1} << 60);
  huge.insert(huge.end(), {2, 2, 2, 0});
  const std::vector<std::uint8_t> cut = {0x80};
  const std::pair<std::vector<std::uint8_t>, const char*> cases[] = {
      {huge, "decode_batch: truncated record"}, {cut, "decode_batch: truncated count"}};
  for (const auto& [payload, message] : cases) {
    for (const std::size_t threads : {1u, 4u}) {
      std::istringstream in(valid.str() + frame_bytes(payload));
      try {
        (void)read_binlog(in, {.threads = threads});
        ADD_FAILURE() << "expected " << message;
      } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), message) << "threads " << threads;
      }
    }
  }
}

TEST(BinlogTest, V2EmptyFramesProduceEmptyDataset) {
  // write_binlog never emits count-0 frames, but the format allows them;
  // reading them must not touch the (possibly nullptr) column buffers.
  std::vector<std::uint8_t> empty_payload;
  codec::put_varint(empty_payload, 0);
  std::string bytes = "ASL2";
  bytes += frame_bytes(empty_payload);
  bytes += frame_bytes(empty_payload);
  std::istringstream in(bytes);
  EXPECT_TRUE(read_binlog(in).empty());
}

TEST(BinlogTest, FileRoundtrip) {
  const auto dataset = random_dataset(300, 7);
  const std::string path = ::testing::TempDir() + "/autosens_binlog_test.bin";
  write_binlog_file(path, dataset);
  const auto decoded = read_binlog_file(path);
  ASSERT_EQ(decoded.size(), dataset.size());
  EXPECT_EQ(decoded[0], dataset[0]);
  EXPECT_EQ(decoded[decoded.size() - 1], dataset[dataset.size() - 1]);
}

TEST(BinlogTest, V1CompressionBeatsCsvForDenseLogs) {
  const auto dataset = random_dataset(5000, 8);
  std::stringstream bin;
  // The delta-varint property belongs to the legacy row format; ASL2 trades
  // size (fixed 27 bytes/record) for zero-copy loads.
  write_binlog_v1(bin, dataset);
  EXPECT_LT(bin.str().size(), dataset.size() * 20);  // < 20 bytes/record
}

TEST(BinlogTest, ReadsLegacyV1Files) {
  const auto dataset = random_dataset(500, 8);
  std::stringstream stream;
  write_binlog_v1(stream, dataset, /*batch_size=*/128);
  const auto decoded = read_binlog(stream);
  ASSERT_EQ(decoded.size(), dataset.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) EXPECT_EQ(decoded[i], dataset[i]);
}

/// Property: roundtrip across batch sizes, including batch = 1 and batch
/// larger than the dataset.
class BinlogBatchProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BinlogBatchProperty, RoundtripAnyBatchSize) {
  const auto dataset = random_dataset(257, 9);
  std::stringstream stream;
  write_binlog(stream, dataset, GetParam());
  const auto decoded = read_binlog(stream);
  ASSERT_EQ(decoded.size(), dataset.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) EXPECT_EQ(decoded[i], dataset[i]);
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BinlogBatchProperty,
                         ::testing::Values(1, 2, 100, 256, 257, 1000));

}  // namespace
}  // namespace autosens::telemetry
