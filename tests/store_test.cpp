#include "telemetry/store/store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/rng.h"
#include "telemetry/binlog.h"
#include "telemetry/clock.h"
#include "telemetry/store/codec.h"
#include "telemetry/store/footer.h"
#include "telemetry/store/writer.h"
#include "reference_codecs.h"

namespace autosens::telemetry::store {
namespace {

/// Fresh temp directory per test (removed up front so write-once stores can
/// be rebuilt across runs).
std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

Dataset random_dataset(std::size_t n, std::uint64_t seed,
                       std::int64_t start_ms = 1'600'000'000'000,
                       std::int64_t mean_gap_ms = 1000) {
  stats::Random random(seed);
  Dataset d;
  std::int64_t t = start_ms;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(random.exponential(1.0 / static_cast<double>(mean_gap_ms)));
    d.add({.time_ms = t,
           .user_id = 1000 + random.uniform_index(50),
           .latency_ms = std::round(random.lognormal(5.5, 0.5) * 100.0) / 100.0,
           .action = static_cast<ActionType>(random.uniform_index(kActionTypeCount)),
           .user_class = static_cast<UserClass>(random.uniform_index(kUserClassCount)),
           .status = random.bernoulli(0.05) ? ActionStatus::kError : ActionStatus::kSuccess});
  }
  return d;
}

void expect_equal(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "record " << i;
  }
}

TEST(StoreCodecTest, DeltaI64RoundtripIncludingNegativeFirstValue) {
  const std::vector<std::int64_t> values = {-5'000'000, -5'000'000, -4'999'999, 0,
                                            1'700'000'000'000,
                                            std::numeric_limits<std::int64_t>::max()};
  std::vector<std::uint8_t> encoded;
  codec::encode_delta_i64(values, encoded);
  std::vector<std::int64_t> decoded(values.size());
  codec::decode_delta_i64(encoded, decoded);
  EXPECT_EQ(decoded, values);
}

TEST(StoreCodecTest, DeltaU64RoundtripWithWraparound) {
  const std::vector<std::uint64_t> values = {std::numeric_limits<std::uint64_t>::max(), 0, 7,
                                             std::numeric_limits<std::uint64_t>::max(), 3};
  std::vector<std::uint8_t> encoded;
  codec::encode_delta_u64(values, encoded);
  std::vector<std::uint64_t> decoded(values.size());
  codec::decode_delta_u64(encoded, decoded);
  EXPECT_EQ(decoded, values);
}

TEST(StoreCodecTest, RleRoundtripAndCompression) {
  std::vector<std::uint8_t> values(10'000, 1);
  values[5000] = 0;
  std::vector<std::uint8_t> encoded;
  codec::encode_rle_u8(values, encoded);
  EXPECT_LT(encoded.size(), 16u);  // Three runs.
  std::vector<std::uint8_t> decoded(values.size());
  codec::decode_rle_u8(encoded, decoded);
  EXPECT_EQ(decoded, values);
}

TEST(StoreCodecTest, DecodersRejectTruncationAndTrailingBytes) {
  const std::vector<std::int64_t> values = {1, 2, 3};
  std::vector<std::uint8_t> encoded;
  codec::encode_delta_i64(values, encoded);
  std::vector<std::int64_t> out(values.size());
  auto truncated = encoded;
  truncated.pop_back();
  EXPECT_THROW(codec::decode_delta_i64(truncated, out), std::runtime_error);
  auto trailing = encoded;
  trailing.push_back(0);
  EXPECT_THROW(codec::decode_delta_i64(trailing, out), std::runtime_error);
  std::vector<std::uint8_t> rle_out(2);
  EXPECT_THROW(codec::decode_rle_u8(encoded, rle_out), std::runtime_error);
}

/// What decode_delta_u64 or check_delta_u64 says about `in` read as
/// `rows` values: the runtime_error message, or "" when it passes.
std::string delta_u64_verdict(std::span<const std::uint8_t> in, std::size_t rows, bool check) {
  try {
    if (check) {
      codec::check_delta_u64(in, rows);
    } else {
      std::vector<std::uint64_t> out(rows);
      codec::decode_delta_u64(in, out);
    }
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// check_delta_u64 throws exactly when decode_delta_u64 does, with the same
/// message; returns that verdict.
std::string expect_same_delta_u64_verdict(std::span<const std::uint8_t> in, std::size_t rows) {
  const std::string decoded = delta_u64_verdict(in, rows, false);
  EXPECT_EQ(delta_u64_verdict(in, rows, true), decoded)
      << in.size() << " bytes as " << rows << " rows";
  return decoded;
}

TEST(StoreCodecTest, CheckDeltaU64ThrowsExactlyWhenDecodeDoes) {
  stats::Random random(20);
  // Ids of every varint length, both delta signs and the wrap-around.
  std::vector<std::uint64_t> values = {0, std::numeric_limits<std::uint64_t>::max(), 1};
  for (int i = 0; i < 200; ++i) {
    values.push_back(random.uniform_index(std::uint64_t{1} << random.uniform_index(64)));
  }
  std::vector<std::uint8_t> block;
  codec::encode_delta_u64(values, block);

  // Valid blocks, empty ones included.
  EXPECT_EQ(expect_same_delta_u64_verdict(block, values.size()), "");
  EXPECT_EQ(expect_same_delta_u64_verdict({}, 0), "");
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    std::vector<std::uint8_t> prefix;
    codec::encode_delta_u64(std::span(values).first(n), prefix);
    EXPECT_EQ(expect_same_delta_u64_verdict(prefix, n), "");
  }
  // Every truncation of the block.
  for (std::size_t len = 0; len < block.size(); ++len) {
    EXPECT_NE(expect_same_delta_u64_verdict(std::span(block).first(len), values.size()), "");
  }
  // One trailing byte, and a block read as one row too many.
  auto trailing = block;
  trailing.push_back(0);
  EXPECT_NE(expect_same_delta_u64_verdict(trailing, values.size()), "");
  EXPECT_NE(expect_same_delta_u64_verdict(block, values.size() + 1), "");
  // An over-long varint: ten continuation bytes before the terminator.
  std::vector<std::uint8_t> overlong(10, 0x80);
  overlong.push_back(0x01);
  EXPECT_NE(expect_same_delta_u64_verdict(overlong, 1), "");
  // Seeded garbage: a mix of continuation and terminator bytes, read half
  // the time as as many rows as it has terminators, so both verdicts occur.
  std::size_t passed = 0;
  for (int k = 0; k < 1000; ++k) {
    std::vector<std::uint8_t> garbage(random.uniform_index(48));
    std::size_t terminators = 0;
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(random.uniform_index(256));
      terminators += byte < 0x80 ? 1 : 0;
    }
    const std::size_t rows = k % 2 == 0 ? terminators : random.uniform_index(24);
    passed += expect_same_delta_u64_verdict(garbage, rows).empty() ? 1 : 0;
  }
  EXPECT_GT(passed, 0u);
  EXPECT_LT(passed, 1000u);
}

TEST(StoreFooterTest, FooterRoundtrip) {
  PartitionFooter footer;
  footer.rows = 100;
  footer.block_rows = 64;
  footer.min_time_ms = -17;
  footer.max_time_ms = 123456;
  footer.slice_rows[2][1] = 40;
  footer.slice_rows[0][0] = 60;  // The slice counts account for all 100 rows.
  footer.blocks = {{-17, 500}, {501, 123456}};
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    footer.columns[c].codec = c == 1 ? ColumnCodec::kRaw : ColumnCodec::kDeltaVarint;
    footer.columns[c].block_bytes = {11, 22};
    footer.columns[c].block_crcs = {0xdeadbeef, 0xcafebabe};
    footer.columns[c].stored_bytes = 33;
  }
  // The summary index accounts for the same rows: 7 dropped, 93 kept.
  footer.summaries.report = {.total = 100, .kept = 93, .dropped_error_status = 7};
  footer.summaries.by_action[0] = {.kept_rows = 55, .bytes = 300, .crc = 0x01020304};
  footer.summaries.by_action[2] = {.kept_rows = 38, .bytes = 200, .crc = 0x0a0b0c0d};
  footer.summaries.all = {.kept_rows = 93, .bytes = 450, .crc = 0xfeedface};
  const auto bytes = encode_footer(footer);
  const PartitionFooter back = decode_footer(bytes);
  EXPECT_EQ(back.rows, footer.rows);
  EXPECT_EQ(back.min_time_ms, footer.min_time_ms);
  EXPECT_EQ(back.max_time_ms, footer.max_time_ms);
  EXPECT_EQ(back.slice_rows, footer.slice_rows);
  EXPECT_EQ(back.blocks.size(), 2u);
  EXPECT_EQ(back.columns[0].block_bytes, footer.columns[0].block_bytes);
  EXPECT_EQ(back.columns[0].block_crcs, footer.columns[0].block_crcs);
  EXPECT_EQ(back.summaries.report.kept, 93u);
  EXPECT_EQ(back.summaries.report.dropped_error_status, 7u);
  EXPECT_EQ(back.summaries.by_action[2].crc, 0x0a0b0c0du);
  EXPECT_EQ(back.summaries.all.bytes, 450u);
  EXPECT_EQ(back.summaries.offset(ActionType::kSearch), 4u + 300u);
  EXPECT_EQ(back.summaries.file_bytes(), 4u + 300u + 200u + 450u);

  auto corrupt = bytes;
  corrupt[10] ^= 0xff;
  EXPECT_THROW(decode_footer(corrupt), std::runtime_error);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(decode_footer(truncated), std::runtime_error);
}

TEST(StoreFooterTest, SliceCountsMustSumToRows) {
  // Window scans prune partitions on the slice counts, so a footer whose
  // counts miss rows (or overshoot, or wrap) is rejected even with a valid
  // CRC.
  PartitionFooter footer;
  footer.rows = 10;
  footer.block_rows = 64;
  footer.blocks = {{0, 9}};
  for (auto& column : footer.columns) {
    column.block_bytes = {80};
    column.block_crcs = {0};
    column.stored_bytes = 80;
  }
  footer.summaries.report = {.total = 10, .kept = 0, .dropped_error_status = 10};
  footer.slice_rows[1][0] = 10;
  EXPECT_NO_THROW(decode_footer(encode_footer(footer)));
  footer.slice_rows[1][0] = 9;
  EXPECT_THROW(decode_footer(encode_footer(footer)), std::runtime_error);
  footer.slice_rows[1][0] = 11;
  EXPECT_THROW(decode_footer(encode_footer(footer)), std::runtime_error);
  footer.slice_rows[1][0] = 5;
  footer.slice_rows[3][1] = std::numeric_limits<std::uint64_t>::max() - 2;  // 5 + it wraps to 2.
  footer.slice_rows[4][0] = 8;
  EXPECT_THROW(decode_footer(encode_footer(footer)), std::runtime_error);
}

TEST(StoreFooterTest, ManifestRejectsPathEscapes) {
  PartitionInfo p{.dir_name = "day-000001.0", .day = 1, .shard = 0, .rows = 1};
  auto bytes = encode_manifest(std::vector<PartitionInfo>{p});
  EXPECT_EQ(decode_manifest(bytes).size(), 1u);
  p.dir_name = "../escape";
  bytes = encode_manifest(std::vector<PartitionInfo>{p});
  EXPECT_THROW(decode_manifest(bytes), std::runtime_error);
}

TEST(StoreTest, DatasetRoundtripCompressed) {
  const Dataset dataset = random_dataset(20'000, 11);
  const auto dir = fresh_dir("store_roundtrip");
  StoreOptions options;
  options.partition_rows = 4096;
  options.block_rows = 512;
  build_store(dataset, dir.string(), options);

  const StoredDataset store = StoredDataset::open(dir.string());
  EXPECT_EQ(store.rows(), dataset.size());
  EXPECT_EQ(store.min_time_ms(), dataset.times().front());
  EXPECT_EQ(store.max_time_ms(), dataset.times().back());
  const Dataset back = store.load_all();
  EXPECT_TRUE(back.is_sorted());
  expect_equal(dataset, back);

  // Partition cuts: shards within a day respect partition_rows, and every
  // partition holds exactly one calendar day.
  EXPECT_GT(store.partitions().size(), 1u);
  for (const auto& p : store.partitions()) {
    EXPECT_LE(p.rows, options.partition_rows);
    EXPECT_EQ(day_index(p.min_time_ms), p.day);
    EXPECT_EQ(day_index(p.max_time_ms), p.day);
  }
  // Compression must actually help on sorted telemetry.
  EXPECT_LT(store.stored_bytes(), store.raw_bytes());
}

TEST(StoreTest, DatasetRoundtripRawIsZeroCopy) {
  const Dataset dataset = random_dataset(5'000, 12);
  const auto dir = fresh_dir("store_raw");
  StoreOptions options;
  options.compress = false;
  options.partition_rows = 2048;
  options.block_rows = 256;
  build_store(dataset, dir.string(), options);

  const StoredDataset store = StoredDataset::open(dir.string());
  for (std::size_t i = 0; i < store.partitions().size(); ++i) {
    const PartitionData part = store.read_partition(i);
    EXPECT_EQ(part.zero_copy_columns(), kColumnCount);
    for (std::size_t c = 0; c < kColumnCount; ++c) {
      EXPECT_EQ(store.footer(i).columns[c].codec, ColumnCodec::kRaw);
    }
  }
  expect_equal(dataset, store.load_all());
  // Raw stores trade size for decode-free reads.
  EXPECT_EQ(store.raw_bytes(), store.stored_bytes());
}

TEST(StoreTest, CompressedLatencyStaysZeroCopy) {
  const Dataset dataset = random_dataset(2'000, 13);
  const auto dir = fresh_dir("store_latency_zero_copy");
  build_store(dataset, dir.string(), {.partition_rows = 1024, .block_rows = 128});
  const StoredDataset store = StoredDataset::open(dir.string());
  // Even with compress=true the hot numeric column is raw -> mmap zero-copy.
  EXPECT_EQ(store.footer(0).columns[static_cast<std::size_t>(ColumnId::kLatency)].codec,
            ColumnCodec::kRaw);
  const PartitionData part = store.read_partition(0);
  EXPECT_GE(part.zero_copy_columns(), 1u);
}

TEST(StoreTest, WriterRejectsUnsortedAndOverlappingAppends) {
  const auto dir = fresh_dir("store_unsorted");
  StoreWriter writer(dir, {});
  Dataset dataset;
  dataset.add({.time_ms = 100, .user_id = 1, .latency_ms = 10.0});
  dataset.add({.time_ms = 50, .user_id = 1, .latency_ms = 10.0});
  EXPECT_THROW(writer.append(dataset), std::invalid_argument);

  Dataset sorted = dataset;
  sorted.sort_by_time();
  writer.append(sorted);
  Dataset earlier;
  earlier.add({.time_ms = 75, .user_id = 1, .latency_ms = 10.0});
  EXPECT_THROW(writer.append(earlier), std::invalid_argument);
  writer.finish();
  EXPECT_EQ(writer.rows_written(), 2u);
  EXPECT_THROW(writer.append(sorted), std::invalid_argument);
}

TEST(StoreTest, StoresAreWriteOnce) {
  const auto dir = fresh_dir("store_write_once");
  build_store(random_dataset(10, 14), dir.string(), {});
  EXPECT_THROW(StoreWriter(dir, {}), std::runtime_error);
}

TEST(StoreTest, EmptyStoreRoundtrip) {
  const auto dir = fresh_dir("store_empty");
  build_store(Dataset{}, dir.string(), {});
  const StoredDataset store = StoredDataset::open(dir.string());
  EXPECT_EQ(store.rows(), 0u);
  EXPECT_TRUE(store.partitions().empty());
  EXPECT_TRUE(store.load_all().empty());
  EXPECT_THROW(store.min_time_ms(), std::runtime_error);
}

TEST(StoreTest, CorruptedColumnByteFailsCrc) {
  const Dataset dataset = random_dataset(3'000, 15);
  const auto dir = fresh_dir("store_corrupt_column");
  build_store(dataset, dir.string(), {.partition_rows = 4096, .block_rows = 512});
  const StoredDataset store = StoredDataset::open(dir.string());
  const auto victim = dir / store.partitions().front().dir_name / "time.col";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    char byte = 0;
    f.seekg(200);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x1);
    f.seekp(200);
    f.put(byte);
  }
  EXPECT_THROW(store.read_partition(0), std::runtime_error);
}

TEST(StoreTest, CorruptedFooterFailsOpen) {
  const Dataset dataset = random_dataset(500, 16);
  const auto dir = fresh_dir("store_corrupt_footer");
  build_store(dataset, dir.string(), {});
  const StoredDataset store = StoredDataset::open(dir.string());
  const auto victim = dir / store.partitions().front().dir_name /
                      std::string(kFooterFileName);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\x7f');
  }
  EXPECT_THROW(StoredDataset::open(dir.string()), std::runtime_error);
}

TEST(StoreTest, BinlogRoundtripGolden) {
  // store -> ASL2 -> store must reproduce every partition file byte for
  // byte: the store layout is a pure function of the sorted record sequence.
  const Dataset dataset = random_dataset(12'000, 17);
  const auto dir_a = fresh_dir("store_golden_a");
  const StoreOptions options{.partition_rows = 2048, .block_rows = 256, .compress = true};
  build_store(dataset, dir_a.string(), options);

  const StoredDataset store_a = StoredDataset::open(dir_a.string());
  const std::string binlog = ::testing::TempDir() + "/store_golden.bin";
  export_binlog(store_a, binlog, /*batch_size=*/1000);

  const auto dir_b = fresh_dir("store_golden_b");
  EXPECT_EQ(build_store_from_binlog(binlog, dir_b.string(), options), dataset.size());

  for (const auto& p : store_a.partitions()) {
    for (const auto name : kColumnFileNames) {
      const auto read_file = [](const std::filesystem::path& path) {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      };
      EXPECT_EQ(read_file(dir_a / p.dir_name / name), read_file(dir_b / p.dir_name / name))
          << p.dir_name << "/" << name;
    }
  }
  expect_equal(dataset, StoredDataset::open(dir_b.string()).load_all());
}

TEST(StoreTest, StreamingConverterMatchesFullLoadBuilder) {
  const Dataset dataset = random_dataset(8'000, 18);
  const std::string binlog = ::testing::TempDir() + "/store_stream.bin";
  write_binlog_file(binlog, dataset, /*batch_size=*/700);

  const StoreOptions options{.partition_rows = 1024, .block_rows = 128, .compress = true};
  const auto dir_stream = fresh_dir("store_stream_a");
  // Sorted ASL2: takes the frame-streaming path.
  EXPECT_EQ(build_store_from_binlog(binlog, dir_stream.string(), options), dataset.size());
  const auto dir_full = fresh_dir("store_stream_b");
  build_store(dataset, dir_full.string(), options);

  const StoredDataset a = StoredDataset::open(dir_stream.string());
  const StoredDataset b = StoredDataset::open(dir_full.string());
  ASSERT_EQ(a.partitions().size(), b.partitions().size());
  expect_equal(a.load_all(), b.load_all());
}

TEST(StoreTest, ConverterFallsBackForLegacyV1Binlogs) {
  const Dataset dataset = random_dataset(2'000, 19);
  const std::string binlog = ::testing::TempDir() + "/store_v1.bin";
  std::ofstream out(binlog, std::ios::binary | std::ios::trunc);
  write_binlog_v1(out, dataset);
  out.close();

  const auto dir = fresh_dir("store_v1");
  EXPECT_EQ(build_store_from_binlog(binlog, dir.string(), {}), dataset.size());
  const Dataset back = StoredDataset::open(dir.string()).load_all();
  // ASL1 quantizes latency to 10 µs; times/ids/enums round-trip exactly.
  ASSERT_EQ(back.size(), dataset.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].time_ms, dataset[i].time_ms);
    EXPECT_EQ(back[i].user_id, dataset[i].user_id);
    EXPECT_NEAR(back[i].latency_ms, dataset[i].latency_ms, 0.01);
  }
}

TEST(StoreTest, ReadRowsTouchesOnlyCoveringBlocks) {
  const Dataset dataset = random_dataset(4'096, 20);
  const auto dir = fresh_dir("store_read_rows");
  build_store(dataset, dir.string(), {.partition_rows = 1u << 20, .block_rows = 256});
  const StoredDataset store = StoredDataset::open(dir.string());
  ASSERT_EQ(store.partitions().size(), 1u);

  const PartitionData all = store.read_partition(0);
  const PartitionData slice = store.read_rows(0, 300, 900);
  ASSERT_EQ(slice.rows(), 600u);
  for (std::size_t i = 0; i < slice.rows(); ++i) {
    EXPECT_EQ(slice.times()[i], all.times()[300 + i]);
    EXPECT_EQ(slice.latencies()[i], all.latencies()[300 + i]);
    EXPECT_EQ(slice.user_ids()[i], all.user_ids()[300 + i]);
  }
  // Rows 300..900 cover blocks 1..3 of 16 -> a fraction of the bytes.
  EXPECT_LT(slice.bytes_read(), all.bytes_read());
}

}  // namespace
}  // namespace autosens::telemetry::store
