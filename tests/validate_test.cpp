#include "telemetry/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace autosens::telemetry {
namespace {

ActionRecord make_record(double latency, ActionStatus status = ActionStatus::kSuccess) {
  static std::int64_t t = 0;
  return {.time_ms = ++t,
          .user_id = 1,
          .latency_ms = latency,
          .action = ActionType::kSelectMail,
          .user_class = UserClass::kBusiness,
          .status = status};
}

TEST(ValidateTest, KeepsCleanRecords) {
  Dataset d;
  d.add(make_record(100.0));
  d.add(make_record(250.0));
  const auto result = validate(d);
  EXPECT_EQ(result.dataset.size(), 2u);
  EXPECT_EQ(result.report.dropped(), 0u);
}

TEST(ValidateTest, DropsErrorStatusByDefault) {
  Dataset d;
  d.add(make_record(100.0));
  d.add(make_record(100.0, ActionStatus::kError));
  const auto result = validate(d);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.report.dropped_error_status, 1u);
}

TEST(ValidateTest, KeepsErrorsWhenConfigured) {
  Dataset d;
  d.add(make_record(100.0, ActionStatus::kError));
  const auto result = validate(d, {.successful_only = false});
  EXPECT_EQ(result.dataset.size(), 1u);
}

TEST(ValidateTest, DropsNonPositiveLatency) {
  Dataset d;
  d.add(make_record(0.0));
  d.add(make_record(-5.0));
  d.add(make_record(1.0));
  const auto result = validate(d);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.report.dropped_nonpositive_latency, 2u);
}

TEST(ValidateTest, DropsExcessiveLatency) {
  Dataset d;
  d.add(make_record(59'999.0));
  d.add(make_record(60'001.0));
  const auto result = validate(d);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.report.dropped_excessive_latency, 1u);
}

TEST(ValidateTest, DropsNonFiniteLatency) {
  Dataset d;
  d.add(make_record(std::numeric_limits<double>::quiet_NaN()));
  d.add(make_record(std::numeric_limits<double>::infinity()));
  d.add(make_record(100.0));
  const auto result = validate(d);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.report.dropped_nonfinite_latency, 2u);
}

TEST(ValidateTest, CustomThresholds) {
  Dataset d;
  d.add(make_record(50.0));
  d.add(make_record(150.0));
  d.add(make_record(250.0));
  const auto result = validate(d, {.min_latency_ms = 100.0, .max_latency_ms = 200.0});
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_DOUBLE_EQ(result.dataset[0].latency_ms, 150.0);
}

TEST(ValidateTest, ReportAccounting) {
  Dataset d;
  d.add(make_record(100.0));
  d.add(make_record(-1.0));
  d.add(make_record(100.0, ActionStatus::kError));
  const auto result = validate(d);
  EXPECT_EQ(result.report.total, 3u);
  EXPECT_EQ(result.report.kept, 1u);
  EXPECT_EQ(result.report.dropped(), 2u);
  const auto summary = result.report.summary();
  EXPECT_NE(summary.find("kept 1"), std::string::npos);
  EXPECT_NE(summary.find("dropped 2"), std::string::npos);
}

TEST(ValidateTest, DropsBadTimestamps) {
  Dataset d;
  d.add({.time_ms = -5, .user_id = 1, .latency_ms = 100.0});
  d.add({.time_ms = 10, .user_id = 1, .latency_ms = 100.0});
  const auto result = validate(d);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.report.dropped_bad_timestamp, 1u);
}

TEST(ValidateTest, DropsOutOfWindowRecords) {
  Dataset d;
  d.add({.time_ms = 50, .user_id = 1, .latency_ms = 100.0});
  d.add({.time_ms = 100, .user_id = 1, .latency_ms = 100.0});  // Begin is inclusive.
  d.add({.time_ms = 150, .user_id = 1, .latency_ms = 100.0});
  d.add({.time_ms = 200, .user_id = 1, .latency_ms = 100.0});  // End is exclusive.
  const auto result = validate(d, {.window_begin_ms = 100, .window_end_ms = 200});
  EXPECT_EQ(result.dataset.size(), 2u);
  EXPECT_EQ(result.report.dropped_out_of_window, 2u);
  EXPECT_EQ(result.dataset[0].time_ms, 100);
  EXPECT_EQ(result.dataset[1].time_ms, 150);
}

TEST(ValidateTest, OneLineSummaryOmitsZeroReasons) {
  Dataset d;
  d.add(make_record(100.0));
  d.add(make_record(-1.0));
  d.add(make_record(100.0, ActionStatus::kError));
  const auto result = validate(d);
  EXPECT_EQ(result.report.one_line(),
            "kept 1/3 (dropped: error-status 1, nonpositive-latency 1)");

  Dataset clean;
  clean.add(make_record(100.0));
  EXPECT_EQ(validate(clean).report.one_line(), "kept 1/1");
}

TEST(ValidateTest, OutputIsSorted) {
  Dataset d;
  d.add({.time_ms = 100, .user_id = 1, .latency_ms = 5.0});
  d.add({.time_ms = 50, .user_id = 1, .latency_ms = 5.0});
  const auto result = validate(d);
  EXPECT_TRUE(result.dataset.is_sorted());
  EXPECT_EQ(result.dataset[0].time_ms, 50);
}

/// FNV-1a over all six columns of a dataset, column by column.
std::uint64_t dataset_digest(const Dataset& d) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(d.size());
  for (const auto t : d.times()) mix(static_cast<std::uint64_t>(t));
  for (const auto l : d.latencies()) mix(std::bit_cast<std::uint64_t>(l));
  for (const auto u : d.user_ids()) mix(u);
  for (const auto a : d.actions()) mix(static_cast<std::uint64_t>(a));
  for (const auto c : d.user_classes()) mix(static_cast<std::uint64_t>(c));
  for (const auto s : d.statuses()) mix(static_cast<std::uint64_t>(s));
  return hash;
}

/// 40 rows with distinct values in every column; the rows listed in `drop`
/// get a latency validate() rejects (cycling through four drop reasons).
Dataset planted_drops(const std::vector<std::size_t>& drop) {
  Dataset d;
  for (std::size_t i = 0; i < 40; ++i) {
    double latency = 50.0 + 7.0 * static_cast<double>(i);
    ActionStatus status = ActionStatus::kSuccess;
    if (std::find(drop.begin(), drop.end(), i) != drop.end()) {
      switch (i % 4) {
        case 0: latency = -1.0; break;
        case 1: latency = 90'000.0; break;
        case 2: latency = std::numeric_limits<double>::quiet_NaN(); break;
        default: status = ActionStatus::kError; break;
      }
    }
    d.add({.time_ms = 1000 + 13 * static_cast<std::int64_t>(i),
           .user_id = 7 + 3 * i,
           .latency_ms = latency,
           .action = static_cast<ActionType>(i % kActionTypeCount),
           .user_class = static_cast<UserClass>((i / 2) % kUserClassCount),
           .status = status});
  }
  return d;
}

// Dropped rows at the start, at the end, next to each other, none and all:
// every kept row must come out with all six columns intact and in order.
// The digests were frozen from the index-gather validate(); the kept rows
// are also checked against a row-by-row reference.
TEST(ValidateTest, DropRunsKeepAllSixColumnsByteEqual) {
  std::vector<std::size_t> all(40);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<std::pair<std::vector<std::size_t>, std::uint64_t>> cases = {
      {{}, 0x2102c4acb0d2248aULL},
      {{0, 1, 2}, 0x319d03430c99edbULL},
      {{37, 38, 39}, 0x475d303ce95344daULL},
      {{10, 11, 12, 13, 20, 22, 23}, 0x41e449a4da56c14dULL},
      {{0, 5, 6, 7, 39}, 0x883101c8f7876379ULL},
      {all, 0xa8c7f832281a39c5ULL},
  };
  for (const auto& [drop, frozen] : cases) {
    const Dataset input = planted_drops(drop);
    const auto result = validate(input);
    Dataset reference;
    for (std::size_t i = 0; i < input.size(); ++i) {
      if (std::find(drop.begin(), drop.end(), i) == drop.end()) reference.add(input[i]);
    }
    ASSERT_EQ(result.dataset.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(result.dataset[i], reference[i]) << "row " << i;
    }
    EXPECT_EQ(result.report.kept, reference.size());
    EXPECT_EQ(result.report.dropped(), drop.size());
    EXPECT_EQ(dataset_digest(result.dataset), frozen)
        << drop.size() << " dropped" << std::hex << ", digest 0x"
        << dataset_digest(result.dataset);
  }
}

TEST(ValidateTest, EmptyInput) {
  const auto result = validate(Dataset{});
  EXPECT_TRUE(result.dataset.empty());
  EXPECT_EQ(result.report.total, 0u);
}

}  // namespace
}  // namespace autosens::telemetry
