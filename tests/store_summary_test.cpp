// Partition summaries under hostile bytes: every truncated, bit-flipped or
// garbage summary blob, summary file or footer index, and every summary
// whose record total disagrees with its footer, must end in a clean
// std::runtime_error — never a crash, an out-of-bounds read or an
// allocation the geometry does not bound (tools/run_sanitizers.sh runs this
// under ASan+UBSan). A version-1 store is rejected the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/partition_summary.h"
#include "core/pipeline.h"
#include "core/store_analyze.h"
#include "stats/rng.h"
#include "telemetry/binlog.h"
#include "telemetry/clock.h"
#include "telemetry/store/footer.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"

namespace autosens {
namespace {

using telemetry::ActionStatus;
using telemetry::ActionType;
using telemetry::Dataset;
using telemetry::kMillisPerDay;
using telemetry::UserClass;
using telemetry::store::StoredDataset;

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Three days of rows with duplicate times and planted scrub drops.
Dataset summary_dataset() {
  Dataset d;
  for (std::int64_t k = 0; k < 9000; ++k) {
    const auto i = static_cast<std::uint64_t>(k);
    // Every seventh row shares its predecessor's time.
    d.add({.time_ms = (k - (k % 7 == 1 ? 1 : 0)) * 28'000,
           .user_id = 40 + i % 17,
           .latency_ms = i % 61 == 3 ? -1.0 : 70.0 + static_cast<double>((i * 173) % 2500),
           .action = static_cast<ActionType>(i % telemetry::kActionTypeCount),
           .user_class = static_cast<UserClass>(i % telemetry::kUserClassCount),
           .status = i % 43 == 0 ? ActionStatus::kError : ActionStatus::kSuccess});
  }
  d.sort_by_time();
  return d;
}

class StoreSummaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("store_summary-") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    telemetry::store::build_store(summary_dataset(), dir_.string(),
                                  {.partition_rows = 1500, .block_rows = 256, .compress = true});
  }

  /// The partition every one-window analysis over the store merges first.
  std::filesystem::path partition(const char* file) const {
    return dir_ / StoredDataset::open(dir_.string()).partitions().front().dir_name / file;
  }

  /// The one window over the whole store, action-sliced so summaries merge.
  std::vector<core::StoreWindowResult> analyze_all() const {
    const auto store = StoredDataset::open(dir_.string());
    core::AutoSensOptions options;
    options.threads = 1;
    core::StoreStreamOptions stream;
    stream.window_ms = std::numeric_limits<std::int64_t>::max();
    stream.action = ActionType::kSelectMail;
    return core::analyze_store_windows(store, options, stream);
  }

  std::filesystem::path dir_;
};

TEST_F(StoreSummaryTest, IntactStoreMergesEverySummary) {
  const auto results = analyze_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].partitions_summarized,
            StoredDataset::open(dir_.string()).partitions().size());
  EXPECT_EQ(results[0].rows_decoded, 0u);
  EXPECT_TRUE(results[0].preference.has_value());
}

TEST_F(StoreSummaryTest, OpenDoesNotReadSummaryFiles) {
  // open() decodes only the footer index: a missing summary file surfaces
  // when a window merges it, as a runtime_error.
  std::filesystem::remove(partition("summary.asu"));
  const auto store = StoredDataset::open(dir_.string());
  EXPECT_GT(store.summary_bytes(), 0u);
  EXPECT_THROW(analyze_all(), std::runtime_error);
}

TEST_F(StoreSummaryTest, CorruptSummaryFilesThrow) {
  const auto path = partition("summary.asu");
  const auto intact = read_file(path);
  // The SelectMail blob, the one the window merges; the others are not
  // CRC-checked until a window merges them.
  const auto store = StoredDataset::open(dir_.string());
  const auto& summaries = store.footer(0).summaries;
  const std::size_t begin = summaries.offset(ActionType::kSelectMail);
  const std::size_t bytes = summaries.slice(ActionType::kSelectMail).bytes;
  ASSERT_GT(bytes, 8u);
  std::vector<std::vector<std::uint8_t>> cases;
  for (const std::size_t at : {std::size_t{0}, begin, begin + bytes / 2, begin + bytes - 1}) {
    auto flipped = intact;
    flipped[at] ^= 0x10;
    cases.push_back(flipped);
  }
  cases.emplace_back(intact.begin(), intact.end() - 1);  // Truncated.
  cases.emplace_back(intact.begin(), intact.begin() + 4);
  auto longer = intact;
  longer.push_back(0);
  cases.push_back(longer);
  stats::Random random(11);
  std::vector<std::uint8_t> garbage(intact.size());
  for (auto& byte : garbage) byte = static_cast<std::uint8_t>(random.uniform_index(256));
  cases.push_back(garbage);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    write_file(path, cases[c]);
    EXPECT_THROW(analyze_all(), std::runtime_error) << "case " << c;
  }
  write_file(path, intact);
  EXPECT_NO_THROW(analyze_all());
}

TEST_F(StoreSummaryTest, FooterIndexMustAccountForTheRows) {
  const auto path = partition("footer.asf");
  const auto intact = read_file(path);
  const auto footer = telemetry::store::decode_footer(intact);
  const auto rejects = [&](auto&& mutate) {
    auto changed = footer;
    mutate(changed.summaries);
    return [&] {
      try {
        telemetry::store::decode_footer(telemetry::store::encode_footer(changed));
      } catch (const std::runtime_error&) {
        return true;
      }
      return false;
    }();
  };
  using Summaries = telemetry::store::PartitionSummaries;
  EXPECT_TRUE(rejects([](Summaries& s) { ++s.report.total; }));
  EXPECT_TRUE(rejects([](Summaries& s) { ++s.report.kept; }));
  EXPECT_TRUE(rejects([](Summaries& s) { ++s.all.kept_rows; }));
  EXPECT_TRUE(rejects([](Summaries& s) { --s.by_action[1].kept_rows; }));
  EXPECT_TRUE(rejects([](Summaries& s) { s.by_action[2].bytes = 0; }));
  EXPECT_TRUE(rejects([](Summaries& s) {
    s.by_action[0].bytes = std::numeric_limits<std::uint64_t>::max() - 1;
    s.by_action[1].bytes = 7;
  }));
  EXPECT_TRUE(rejects([](Summaries& s) {
    // More kept rows than the slice holds (the totals still agree).
    s.by_action[0].kept_rows += s.by_action[1].kept_rows;
    s.by_action[1].kept_rows = 0;
    s.by_action[1].bytes = 0;
  }));
  EXPECT_FALSE(rejects([](Summaries&) {}));

  // A CRC-valid footer whose counts swap two slices' kept rows passes the
  // index checks but not the blob's own record total.
  auto swapped = footer;
  auto& by_action = swapped.summaries.by_action;
  ASSERT_NE(by_action[0].kept_rows, by_action[1].kept_rows);
  std::swap(by_action[0].kept_rows, by_action[1].kept_rows);
  ASSERT_NO_THROW(telemetry::store::decode_footer(telemetry::store::encode_footer(swapped)));
  write_file(path, telemetry::store::encode_footer(swapped));
  EXPECT_THROW(analyze_all(), std::runtime_error);
  write_file(path, intact);
  EXPECT_NO_THROW(analyze_all());
}

TEST_F(StoreSummaryTest, BlobWhoseRecordsDisagreeWithTheFooterThrows) {
  // A well-formed blob with one sample more in its last run: the footer's
  // kept count no longer matches the blob's records.
  const auto store = StoredDataset::open(dir_.string());
  const auto blob = store.read_summary(0, ActionType::kSelectMail);
  const auto& footer = store.footer(0);
  const auto& ref = footer.summaries.slice(ActionType::kSelectMail);
  auto summary = core::decode_summary(blob, ref.kept_rows, footer.min_time_ms,
                                      footer.max_time_ms, core::summary_options());
  ASSERT_TRUE(summary.last.has_value());
  summary.last->latencies.push_back(summary.last->latencies.front());
  std::vector<std::uint8_t> forged;
  core::encode_summary(summary, forged);
  EXPECT_THROW(core::decode_summary(forged, ref.kept_rows, footer.min_time_ms,
                                    footer.max_time_ms, core::summary_options()),
               std::runtime_error);
  EXPECT_NO_THROW(core::decode_summary(forged, ref.kept_rows + 1, footer.min_time_ms,
                                       footer.max_time_ms, core::summary_options()));
  // Runs outside the partition's time range.
  EXPECT_THROW(core::decode_summary(blob, ref.kept_rows, summary.first.time_ms + 1,
                                    footer.max_time_ms, core::summary_options()),
               std::runtime_error);
  EXPECT_THROW(core::decode_summary(blob, ref.kept_rows, footer.min_time_ms,
                                    summary.last->time_ms - 1, core::summary_options()),
               std::runtime_error);
  // Another analysis geometry.
  core::AutoSensOptions coarse = core::summary_options();
  coarse.bin_width_ms = 20.0;
  EXPECT_THROW(core::decode_summary(blob, ref.kept_rows, footer.min_time_ms,
                                    footer.max_time_ms, coarse),
               std::runtime_error);
}

TEST_F(StoreSummaryTest, MutatedBlobsDecodeOrThrowCleanly) {
  // Straight at the decoder, below the CRC: every truncation, and seeded
  // bit flips and byte overwrites, either decode to statistics that merge
  // and finish, or throw runtime_error (overflow_error is one).
  const auto store = StoredDataset::open(dir_.string());
  const auto& footer = store.footer(0);
  const auto blob = store.read_summary(0, std::nullopt);
  const std::uint64_t records = footer.summaries.all.kept_rows;
  const auto attempt = [&](std::span<const std::uint8_t> bytes) {
    try {
      const auto summary = core::decode_summary(bytes, records, footer.min_time_ms,
                                                footer.max_time_ms, core::summary_options());
      core::Accumulator total(core::ClassGrid::kSlot, core::summary_options());
      total.merge(summary.interior);
      total.merge(summary.interior);
      return 0;
    } catch (const std::runtime_error&) {
      return 1;
    }
  };
  for (std::size_t n = 0; n < blob.size(); ++n) {
    EXPECT_EQ(attempt(std::span(blob).first(n)), 1) << "truncated to " << n;
  }
  stats::Random random(29);
  std::size_t thrown = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = blob;
    const std::uint64_t flips = 1 + random.uniform_index(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(random.uniform_index(mutated.size()));
      if (trial % 2 == 0) {
        mutated[at] ^= static_cast<std::uint8_t>(1u << random.uniform_index(8));
      } else {
        mutated[at] = static_cast<std::uint8_t>(random.uniform_index(256));
      }
    }
    thrown += static_cast<std::size_t>(attempt(mutated));
  }
  EXPECT_GT(thrown, 1000u);
  // Counts the bytes cannot hold are refused before anything is sized by
  // them.
  std::vector<std::uint8_t> huge;
  core::Accumulator(core::ClassGrid::kSlot, core::summary_options()).encode(huge);
  telemetry::codec::put_varint(huge, telemetry::codec::zigzag_encode(footer.min_time_ms));
  telemetry::codec::put_varint(huge, std::numeric_limits<std::uint64_t>::max() / 2);
  EXPECT_EQ(attempt(huge), 1);
}

TEST_F(StoreSummaryTest, VersionOneStoreIsRejected) {
  // The same MANIFEST with its version byte set back to 1 (CRC redone).
  const auto path = dir_ / "MANIFEST";
  auto bytes = read_file(path);
  ASSERT_EQ(bytes[4], telemetry::store::kFormatVersion);
  bytes[4] = 1;
  const std::uint32_t crc = telemetry::codec::crc32(
      std::span<const std::uint8_t>(bytes.data() + 4, bytes.size() - 8));
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[bytes.size() - 4 + b] = static_cast<std::uint8_t>(crc >> (8 * b));
  }
  write_file(path, bytes);
  try {
    StoredDataset::open(dir_.string());
    FAIL() << "a version-1 store opened";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported format version 1"), std::string::npos)
        << error.what();
  }
}

TEST(PartitionSummaryTest, StitchedSummariesEqualOneFill) {
  // The summary algebra on its own: a series cut anywhere into summarized
  // pieces, stitched with true neighbours, gives one fill's curve bits.
  std::vector<std::int64_t> times;
  std::vector<double> latencies;
  stats::Random random(5);
  std::int64_t t = 3 * kMillisPerDay;
  for (int k = 0; k < 20'000; ++k) {
    t += static_cast<std::int64_t>(random.uniform_index(3)) * 9'000;  // Many duplicates.
    times.push_back(t);
    latencies.push_back(50.0 + static_cast<double>(random.uniform_index(2600)));
  }
  const core::AutoSensOptions options = core::summary_options();
  const auto whole = core::analyze_detailed(telemetry::SampleColumns{times, latencies}, options);
  const auto summary = core::summarize({times, latencies});
  std::vector<std::uint8_t> bytes;
  core::encode_summary(summary, bytes);
  const auto back = core::decode_summary(bytes, times.size(), times.front(), times.back(),
                                         options);
  core::Accumulator stitched = back.interior;
  const core::TimeWindow observed{times.front(), times.back() + 1};
  stitched.add_run(std::nullopt, back.first.time_ms, back.after_first(), back.first.latencies,
                   observed);
  stitched.add_run(back.before_last(), back.last->time_ms, std::nullopt, back.last->latencies,
                   observed);
  const auto result = core::analyze_accumulated(stitched, {}, options);
  EXPECT_EQ(result.preference.normalized, whole.preference.normalized);
  EXPECT_EQ(result.preference.valid, whole.preference.valid);
  const auto values = [](const stats::Histogram& h) {
    return std::vector<double>(h.counts().begin(), h.counts().end());
  };
  EXPECT_EQ(values(result.unbiased), values(whole.unbiased));
  EXPECT_EQ(values(result.biased), values(whole.biased));
}

}  // namespace
}  // namespace autosens
