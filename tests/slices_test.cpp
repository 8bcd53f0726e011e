#include "core/slices.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

using simulate::paper_config;
using simulate::Scale;
using telemetry::ActionType;
using telemetry::UserClass;

/// One shared small workload for all slice tests (generation dominates test
/// time, so build it once).
class SlicesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new simulate::WorkloadConfig(paper_config(Scale::kSmall, 41));
    auto generated = simulate::WorkloadGenerator(*config_).generate();
    dataset_ = new telemetry::Dataset(telemetry::validate(generated.dataset).dataset);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete config_;
    dataset_ = nullptr;
    config_ = nullptr;
  }
  static simulate::WorkloadConfig* config_;
  static telemetry::Dataset* dataset_;
};

simulate::WorkloadConfig* SlicesTest::config_ = nullptr;
telemetry::Dataset* SlicesTest::dataset_ = nullptr;

TEST_F(SlicesTest, ByActionReturnsFourNamedCurves) {
  const auto curves = preference_by_action(*dataset_, AutoSensOptions{},
                                           UserClass::kBusiness);
  ASSERT_EQ(curves.size(), 4u);
  EXPECT_EQ(curves[0].name, "SelectMail");
  EXPECT_EQ(curves[1].name, "SwitchFolder");
  EXPECT_EQ(curves[2].name, "Search");
  EXPECT_EQ(curves[3].name, "ComposeSend");
  for (const auto& c : curves) {
    EXPECT_GT(c.records, 0u);
    EXPECT_NEAR(c.result.at(300.0), 1.0, 1e-9);
  }
}

TEST_F(SlicesTest, ActionOrderingMatchesFig4) {
  // At 1000 ms: SelectMail < SwitchFolder < Search < ComposeSend.
  const auto curves = preference_by_action(*dataset_, AutoSensOptions{},
                                           UserClass::kBusiness);
  ASSERT_EQ(curves.size(), 4u);
  const double latency = 1000.0;
  ASSERT_TRUE(curves[0].result.covers(latency));
  ASSERT_TRUE(curves[3].result.covers(latency));
  EXPECT_LT(curves[0].result.at(latency), curves[2].result.at(latency));
  EXPECT_LT(curves[1].result.at(latency), curves[3].result.at(latency));
  EXPECT_GT(curves[3].result.at(latency), 0.9);  // ComposeSend ~flat
}

TEST_F(SlicesTest, ByUserClassShowsBusinessSteeper) {
  const auto curves =
      preference_by_user_class(*dataset_, AutoSensOptions{}, ActionType::kSelectMail);
  ASSERT_EQ(curves.size(), 2u);
  EXPECT_EQ(curves[0].name, "Business");
  EXPECT_EQ(curves[1].name, "Consumer");
  const double latency = 1000.0;
  EXPECT_LT(curves[0].result.at(latency), curves[1].result.at(latency));  // Fig 5
}

TEST_F(SlicesTest, ByQuartileShowsConditioningTrend) {
  const auto curves = preference_by_quartile(*dataset_, *dataset_, AutoSensOptions{},
                                             ActionType::kSelectMail);
  ASSERT_EQ(curves.size(), 4u);
  EXPECT_EQ(curves[0].name, "Q1");
  // Q1 (fastest, most sensitive) drops below Q4 (slowest, least sensitive)
  // at the same latency — Fig 6's headline trend.
  const double latency = 900.0;
  ASSERT_TRUE(curves[0].result.covers(latency));
  ASSERT_TRUE(curves[3].result.covers(latency));
  EXPECT_LT(curves[0].result.at(latency), curves[3].result.at(latency));
}

TEST_F(SlicesTest, ByPeriodReturnsCurvesForAllPeriods) {
  const auto curves = preference_by_period(*dataset_, AutoSensOptions{},
                                           ActionType::kSelectMail, UserClass::kBusiness);
  ASSERT_EQ(curves.size(), 4u);
  EXPECT_EQ(curves[0].name, "8am-2pm");
  EXPECT_EQ(curves[3].name, "2am-8am");
  // Fig 7: daytime steeper than deep night at the same latency.
  const double latency = 1000.0;
  if (curves[0].result.covers(latency) && curves[3].result.covers(latency)) {
    EXPECT_LT(curves[0].result.at(latency), curves[3].result.at(latency));
  }
}

TEST_F(SlicesTest, ByMonthSplitsOnThirtyDayBoundaries) {
  // kSmall is 14 days → single month.
  const auto curves = preference_by_month(*dataset_, AutoSensOptions{},
                                          ActionType::kSelectMail);
  ASSERT_EQ(curves.size(), 1u);
  EXPECT_EQ(curves[0].name, "Month1");
}

/// FNV-1a over every slice curve's name, record count and result bits.
class CurveDigest {
 public:
  void add(const std::vector<NamedPreference>& curves) {
    mix(curves.size());
    for (const auto& curve : curves) {
      for (const char c : curve.name) mix(static_cast<unsigned char>(c));
      mix(curve.records);
      const auto& r = curve.result;
      for (const auto* column : {&r.latency_ms, &r.raw_ratio, &r.smoothed, &r.normalized}) {
        mix(column->size());
        for (const double v : *column) mix(std::bit_cast<std::uint64_t>(v));
      }
      for (const char v : r.valid) mix(static_cast<unsigned char>(v));
      mix(std::bit_cast<std::uint64_t>(r.reference_latency_ms));
      mix(r.biased_samples);
      mix(r.support_begin);
      mix(r.support_end);
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Every slice entry point over a seeded tiny dataset, digested. The digest
// was frozen from the row-copying slice code (filtered Dataset per slice);
// the two-column gather must reproduce it bit for bit at any thread count.
TEST(SlicesDigestTest, AllSliceCurvesMatchFrozenDigest) {
  const auto generated =
      simulate::WorkloadGenerator(paper_config(Scale::kTiny, 23)).generate();
  const auto dataset = telemetry::validate(generated.dataset).dataset;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    AutoSensOptions options;
    options.threads = threads;
    CurveDigest digest;
    std::size_t curves = 0;
    const auto add = [&](const std::vector<NamedPreference>& c) {
      curves += c.size();
      digest.add(c);
    };
    add(preference_by_action(dataset, options));
    add(preference_by_action(dataset, options, UserClass::kConsumer));
    add(preference_by_user_class(dataset, options, ActionType::kSelectMail));
    add(preference_by_quartile(dataset, dataset, options, ActionType::kSelectMail));
    add(preference_by_quartile(dataset, dataset, options, ActionType::kSearch,
                               UserClass::kBusiness));
    add(preference_by_period(dataset, options, ActionType::kSelectMail, UserClass::kConsumer));
    add(preference_by_month(dataset, options, ActionType::kSwitchFolder));
    EXPECT_EQ(curves, 23u) << "threads " << threads;
    EXPECT_EQ(digest.value(), 0xb259caa1ad4a8b83ULL) << "threads " << threads << std::hex << " digest 0x"
                                      << digest.value();
  }
}

TEST_F(SlicesTest, EmptyDatasetYieldsNoCurves) {
  const telemetry::Dataset empty;
  EXPECT_TRUE(preference_by_action(empty, AutoSensOptions{}).empty());
  EXPECT_TRUE(preference_by_month(empty, AutoSensOptions{}, ActionType::kSearch).empty());
}

}  // namespace
}  // namespace autosens::core
