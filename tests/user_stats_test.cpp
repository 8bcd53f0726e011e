#include "telemetry/user_stats.h"

#include <gtest/gtest.h>

#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/filter.h"

namespace autosens::telemetry {
namespace {

ActionRecord make_record(std::uint64_t user, double latency,
                         UserClass user_class = UserClass::kBusiness) {
  static std::int64_t t = 0;
  return {.time_ms = ++t,
          .user_id = user,
          .latency_ms = latency,
          .action = ActionType::kSelectMail,
          .user_class = user_class,
          .status = ActionStatus::kSuccess};
}

TEST(UserAccumulatorTest, EmptyAccumulator) {
  const UserAccumulator acc;
  EXPECT_EQ(acc.user_count(), 0u);
  EXPECT_TRUE(acc.summaries().empty());
  EXPECT_TRUE(acc.median_latency().empty());
}

TEST(UserAccumulatorTest, ExactStatsForSmallUsers) {
  UserAccumulator acc;
  acc.add(make_record(1, 10.0));
  acc.add(make_record(1, 30.0));
  acc.add(make_record(1, 20.0));
  acc.add(make_record(2, 100.0, UserClass::kConsumer));
  ASSERT_EQ(acc.user_count(), 2u);
  const auto medians = acc.median_latency();
  EXPECT_DOUBLE_EQ(medians.at(1), 20.0);
  EXPECT_DOUBLE_EQ(medians.at(2), 100.0);
  for (const auto& summary : acc.summaries()) {
    if (summary.user_id == 1) {
      EXPECT_EQ(summary.actions, 3u);
      EXPECT_DOUBLE_EQ(summary.mean_latency_ms, 20.0);
      EXPECT_EQ(summary.user_class, UserClass::kBusiness);
    } else {
      EXPECT_EQ(summary.actions, 1u);
      EXPECT_EQ(summary.user_class, UserClass::kConsumer);
    }
  }
}

TEST(UserAccumulatorTest, StreamingMedianTracksExactMedianOnWorkload) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kTiny, 31))
          .generate();
  UserAccumulator acc;
  for (std::size_t i = 0; i < generated.dataset.size(); ++i) acc.add(generated.dataset[i]);
  const auto exact = generated.dataset.per_user_median_latency();
  const auto streaming = acc.median_latency();
  ASSERT_EQ(streaming.size(), exact.size());
  std::size_t close = 0;
  for (const auto& [user, median] : exact) {
    ASSERT_TRUE(streaming.contains(user));
    if (std::abs(streaming.at(user) / median - 1.0) < 0.10) ++close;
  }
  // P² is an approximation: the overwhelming majority must be within 10 %.
  EXPECT_GT(close, exact.size() * 9 / 10);
}

TEST(UserAccumulatorTest, StreamingQuartilesMatchExactQuartilesMostly) {
  // The end use: quartile assignment from streaming medians should agree
  // with exact assignment for nearly all users.
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kTiny, 32))
          .generate();
  UserAccumulator acc;
  for (std::size_t i = 0; i < generated.dataset.size(); ++i) acc.add(generated.dataset[i]);
  const UserQuartiles exact(generated.dataset);
  const UserQuartiles streaming(acc.median_latency());
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const auto& summary : acc.summaries()) {
    ++total;
    if (exact.quartile_of(summary.user_id) == streaming.quartile_of(summary.user_id)) {
      ++agree;
    }
  }
  EXPECT_GT(agree, total * 8 / 10);
}

TEST(UserQuartilesTest, FromPrecomputedMedians) {
  std::unordered_map<std::uint64_t, double> medians;
  for (std::uint64_t u = 1; u <= 8; ++u) medians[u] = static_cast<double>(u * 10);
  const UserQuartiles quartiles(medians);
  EXPECT_EQ(quartiles.quartile_of(1), 0);
  EXPECT_EQ(quartiles.quartile_of(8), 3);
  EXPECT_THROW(UserQuartiles(std::unordered_map<std::uint64_t, double>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace autosens::telemetry
