#include "telemetry/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "telemetry/filter.h"

namespace autosens::telemetry {
namespace {

ActionRecord make_record(std::int64_t time_ms, double latency = 100.0,
                         std::uint64_t user = 1) {
  return ActionRecord{.time_ms = time_ms,
                      .user_id = user,
                      .latency_ms = latency,
                      .action = ActionType::kSelectMail,
                      .user_class = UserClass::kBusiness,
                      .status = ActionStatus::kSuccess};
}

TEST(DatasetTest, EmptyDatasetBasics) {
  const Dataset d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
  EXPECT_TRUE(d.is_sorted());
  EXPECT_THROW(d.begin_time(), std::runtime_error);
  EXPECT_THROW(d.end_time(), std::runtime_error);
}

TEST(DatasetTest, AddKeepsTrackOfSortedness) {
  Dataset d;
  d.add(make_record(10));
  d.add(make_record(20));
  EXPECT_TRUE(d.is_sorted());
  d.add(make_record(15));
  EXPECT_FALSE(d.is_sorted());
  d.sort_by_time();
  EXPECT_TRUE(d.is_sorted());
  EXPECT_EQ(d[1].time_ms, 15);
}

TEST(DatasetTest, ConstructorDetectsSortedness) {
  const Dataset sorted({make_record(1), make_record(2)});
  EXPECT_TRUE(sorted.is_sorted());
  const Dataset unsorted({make_record(2), make_record(1)});
  EXPECT_FALSE(unsorted.is_sorted());
}

TEST(DatasetTest, SortIsStableForEqualTimes) {
  Dataset d;
  d.add(make_record(10, 1.0));
  d.add(make_record(5, 2.0));
  d.add(make_record(10, 3.0));
  d.sort_by_time();
  EXPECT_DOUBLE_EQ(d[0].latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(d[1].latency_ms, 1.0);
  EXPECT_DOUBLE_EQ(d[2].latency_ms, 3.0);
}

TEST(DatasetTest, TimeRangeIsHalfOpen) {
  Dataset d({make_record(10), make_record(50)});
  EXPECT_EQ(d.begin_time(), 10);
  EXPECT_EQ(d.end_time(), 51);  // one past the last record
}

TEST(DatasetTest, TimeRangeRequiresSorted) {
  Dataset d({make_record(50), make_record(10)});
  EXPECT_THROW(d.begin_time(), std::runtime_error);
}

TEST(DatasetTest, ColumnExtraction) {
  const Dataset d({make_record(1, 10.0), make_record(2, 20.0)});
  const auto times = d.times();
  const auto latencies = d.latencies();
  EXPECT_TRUE(std::equal(times.begin(), times.end(),
                         std::vector<std::int64_t>{1, 2}.begin()));
  EXPECT_TRUE(std::equal(latencies.begin(), latencies.end(),
                         std::vector<double>{10.0, 20.0}.begin()));
  ASSERT_EQ(times.size(), 2u);
  ASSERT_EQ(latencies.size(), 2u);
}

TEST(DatasetTest, ColumnSpansAreZeroCopyAndStable) {
  Dataset d;
  for (int i = 0; i < 64; ++i) d.add(make_record(i, 10.0 * i));
  // times()/latencies() are views into the dataset's own storage: repeated
  // calls return the same pointers, no per-call allocation or copy.
  const auto t1 = d.times();
  const auto t2 = d.times();
  EXPECT_EQ(t1.data(), t2.data());
  EXPECT_EQ(d.latencies().data(), d.latencies().data());
  EXPECT_EQ(t1.size(), d.size());
  // Reads through old and new spans agree while the dataset is unmodified.
  const auto l1 = d.latencies();
  EXPECT_DOUBLE_EQ(l1[63], 630.0);
  EXPECT_EQ(t1[63], 63);
}

TEST(DatasetTest, ColumnsBundleMatchesAccessors) {
  const Dataset d({make_record(1, 10.0), make_record(2, 20.0)});
  const auto columns = d.columns();
  EXPECT_EQ(columns.times.data(), d.times().data());
  EXPECT_EQ(columns.latencies.data(), d.latencies().data());
  EXPECT_EQ(columns.size(), d.size());
  EXPECT_EQ(columns.begin_time(), d.begin_time());
  EXPECT_EQ(columns.end_time(), d.end_time());
}

TEST(DatasetTest, RecordsRoundTripsAllColumns) {
  Dataset d;
  d.add(make_record(7, 70.0, 42));
  ASSERT_EQ(d.size(), 1u);
  const ActionRecord record = d[0];
  EXPECT_EQ(record.time_ms, 7);
  EXPECT_EQ(record.user_id, 42u);
  EXPECT_DOUBLE_EQ(record.latency_ms, 70.0);
  EXPECT_EQ(record.action, ActionType::kSelectMail);
  EXPECT_EQ(record.user_class, UserClass::kBusiness);
  EXPECT_EQ(record.status, ActionStatus::kSuccess);
}

TEST(DatasetTest, GatherCopiesWholeRows) {
  const Dataset source({make_record(1, 10.0, 5), make_record(2, 20.0, 6)});
  const std::vector<std::size_t> rows = {1, 0};
  const Dataset out = source.gather(rows);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], source[1]);
  EXPECT_EQ(out[1], source[0]);
  EXPECT_FALSE(out.is_sorted());
}

TEST(DatasetTest, GatherRepeatsAndReordersRows) {
  // The bootstrap case: indices drawn with replacement, in any order.
  Dataset source;
  for (std::int64_t t = 0; t < 6; ++t) {
    source.add({.time_ms = 10 * t,
                .user_id = static_cast<std::uint64_t>(100 + t),
                .latency_ms = 1.5 * static_cast<double>(t),
                .action = static_cast<ActionType>(t % kActionTypeCount),
                .user_class = static_cast<UserClass>(t % kUserClassCount),
                .status = static_cast<ActionStatus>(t % 2)});
  }
  const std::vector<std::size_t> rows = {4, 4, 0, 5, 2, 2, 2};
  const Dataset out = source.gather(rows);
  ASSERT_EQ(out.size(), rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) EXPECT_EQ(out[k], source[rows[k]]) << k;
  EXPECT_FALSE(out.is_sorted());

  const std::vector<std::size_t> ascending = {0, 2, 2, 5};
  EXPECT_TRUE(source.gather(ascending).is_sorted());  // Equal times stay sorted.
  EXPECT_TRUE(source.gather({}).empty());
}

TEST(DatasetTest, GatherRejectsOutOfRangeRows) {
  const Dataset source({make_record(1), make_record(2)});
  const std::vector<std::size_t> rows = {0, 2};
  EXPECT_THROW(source.gather(rows), std::out_of_range);
}

TEST(DatasetTest, FilteredKeepsMatchingRecords) {
  const Dataset d({make_record(1, 10.0), make_record(2, 200.0), make_record(3, 30.0)});
  const auto filtered = d.filtered(by_time_range(1, 3));
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].time_ms, 1);
  EXPECT_EQ(filtered[1].time_ms, 2);
  EXPECT_TRUE(filtered.is_sorted());
}

TEST(DatasetTest, FilteredCanBeEmpty) {
  const Dataset d({make_record(1)});
  const auto filtered = d.filtered(by_action(ActionType::kSearch));
  EXPECT_TRUE(filtered.empty());
}

TEST(DatasetTest, PerUserMedianLatency) {
  Dataset d;
  d.add(make_record(1, 10.0, 100));
  d.add(make_record(2, 20.0, 100));
  d.add(make_record(3, 30.0, 100));
  d.add(make_record(4, 500.0, 200));
  const auto medians = d.per_user_median_latency();
  ASSERT_EQ(medians.size(), 2u);
  EXPECT_DOUBLE_EQ(medians.at(100), 20.0);
  EXPECT_DOUBLE_EQ(medians.at(200), 500.0);
}

TEST(DatasetTest, PerUserMedianOfEmptyIsEmpty) {
  const Dataset d;
  EXPECT_TRUE(d.per_user_median_latency().empty());
}

}  // namespace
}  // namespace autosens::telemetry
