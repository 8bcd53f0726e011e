#include "core/slices.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/confounder_time.h"
#include "core/parallel.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/rng.h"
#include "telemetry/clock.h"
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
// the keyed pass must reproduce it bit for bit at any thread count.
TEST(SlicesDigestTest, AllSliceCurvesMatchFrozenDigest) {
  const auto generated =
      simulate::WorkloadGenerator(paper_config(Scale::kTiny, 23)).generate();
  const auto dataset = telemetry::validate(generated.dataset).dataset;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
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

// The Monte-Carlo U draws from each slice's own columns, which the keyed
// pass gathers; the digest was frozen from the per-slice select code.
TEST(SlicesDigestTest, MonteCarloCurvesMatchFrozenDigest) {
  const auto generated =
      simulate::WorkloadGenerator(paper_config(Scale::kTiny, 23)).generate();
  const auto dataset = telemetry::validate(generated.dataset).dataset;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    AutoSensOptions options;
    options.unbiased_method = UnbiasedMethod::kMonteCarlo;
    options.unbiased_draws = 50'000;
    options.threads = threads;
    CurveDigest digest;
    std::size_t curves = 0;
    const auto add = [&](const std::vector<NamedPreference>& c) {
      curves += c.size();
      digest.add(c);
    };
    add(preference_by_action(dataset, options));
    add(preference_by_user_class(dataset, options, ActionType::kSelectMail));
    add(preference_by_quartile(dataset, dataset, options, ActionType::kSelectMail));
    add(preference_by_month(dataset, options, ActionType::kSwitchFolder));
    EXPECT_EQ(curves, 11u) << "threads " << threads;
    EXPECT_EQ(digest.value(), 0xce3f01d6f6b2f19cULL)
        << "threads " << threads << std::hex << " digest 0x" << digest.value();
  }
}

TEST_F(SlicesTest, EmptyDatasetYieldsNoCurves) {
  const telemetry::Dataset empty;
  EXPECT_TRUE(preference_by_action(empty, AutoSensOptions{}).empty());
  EXPECT_TRUE(preference_by_month(empty, AutoSensOptions{}, ActionType::kSearch).empty());
}

TEST_F(SlicesTest, UnsortedDatasetThrows) {
  const auto tiny = telemetry::validate(
      simulate::WorkloadGenerator(paper_config(Scale::kTiny, 5)).generate().dataset).dataset;
  telemetry::Dataset reversed;
  for (std::size_t i = tiny.size(); i-- > 0;) reversed.add(tiny[i]);
  const AutoSensOptions options;
  EXPECT_THROW(preference_by_action(reversed, options), std::invalid_argument);
  EXPECT_THROW(preference_by_user_class(reversed, options, ActionType::kSelectMail),
               std::invalid_argument);
  EXPECT_THROW(preference_by_quartile(reversed, tiny, options, ActionType::kSelectMail),
               std::invalid_argument);
  EXPECT_THROW(preference_by_period(reversed, options, ActionType::kSelectMail,
                                    UserClass::kBusiness),
               std::invalid_argument);
  EXPECT_THROW(preference_by_month(reversed, options, ActionType::kSelectMail),
               std::invalid_argument);
}

/// A sorted dataset built to hit every edge of the keyed pass's chunk grid:
/// more rows than one chunk, duplicate-time runs that straddle each chunk
/// bound, ComposeSend absent from the middle chunks, a second month holding
/// one Search row (a one-sample slice, too thin for a curve), kOther rows no
/// action slice keeps, and users outside the quartile basis.
telemetry::Dataset chunk_edge_dataset() {
  const std::size_t n = 3 * kSliceChunkRows + 5000;
  const ChunkGrid grid = make_chunk_grid(n, kSliceChunkRows);
  std::vector<std::size_t> bounds;
  for (std::size_t c = 1; c < grid.chunks; ++c) bounds.push_back(grid.begin(c));
  stats::Random random(77);
  // Day 420 starts month 14; the rows fill 28 days of it.
  const std::int64_t begin = 420 * telemetry::kMillisPerDay;
  const auto step = static_cast<std::int64_t>(28 * telemetry::kMillisPerDay / n);
  telemetry::Dataset dataset;
  std::int64_t time = begin;
  for (std::size_t i = 0; i < n; ++i) {
    bool straddles = false;
    for (const std::size_t bound : bounds) straddles |= i + 40 > bound && i < bound + 40;
    // A run of 80 equal times around each chunk bound; elsewhere one row in
    // five repeats the previous time.
    if (i > 0 && !straddles && random.uniform(0.0, 1.0) >= 0.2) {
      time += 1 + static_cast<std::int64_t>(random.uniform(0.0, 2.0 * static_cast<double>(step)));
    }
    telemetry::ActionRecord record;
    record.time_ms = time;
    record.user_id = i % 499;
    const double hour = static_cast<double>(time % telemetry::kMillisPerDay) /
                        static_cast<double>(telemetry::kMillisPerHour);
    const double user_speed = 0.6 + 0.8 * static_cast<double>(record.user_id % 7) / 6.0;
    record.latency_ms = std::min(
        2900.0, user_speed * (180.0 + 120.0 * std::sin(hour / 24.0 * 2.0 * 3.141592653589793) +
                              250.0 * -std::log(1.0 - random.uniform(0.0, 1.0))));
    const double u = random.uniform(0.0, 1.0);
    const bool compose_allowed = i < n / 5 || i > 9 * n / 10;
    record.action = u < 0.45   ? ActionType::kSelectMail
                    : u < 0.65 ? ActionType::kSwitchFolder
                    : u < 0.8  ? ActionType::kSearch
                    : u < 0.95 ? (compose_allowed ? ActionType::kComposeSend
                                                  : ActionType::kSelectMail)
                               : ActionType::kOther;
    record.user_class = (record.user_id % 3 == 0) ? UserClass::kBusiness : UserClass::kConsumer;
    dataset.add(record);
  }
  telemetry::ActionRecord lone;
  lone.time_ms = 455 * telemetry::kMillisPerDay;  // Month 15.
  lone.user_id = 1;
  lone.latency_ms = 300.0;
  lone.action = ActionType::kSearch;
  dataset.add(lone);
  dataset.sort_by_time();
  return dataset;
}

/// The old definition of a slice family: one filtered copy per slice,
/// analyzed on its own; empty or unsupported slices are absent.
std::vector<NamedPreference> reference_curves(
    const telemetry::Dataset& dataset,
    const std::vector<std::pair<std::string, telemetry::RecordFilter>>& slices,
    const AutoSensOptions& options, bool by_period = false) {
  std::vector<NamedPreference> out;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    const auto rows = dataset.filtered(slices[s].second);
    if (rows.empty()) continue;
    try {
      auto curve = by_period
                       ? analyze_over_windows(
                             rows, period_windows(rows, static_cast<telemetry::DayPeriod>(s)),
                             options)
                             .preference
                       : analyze(rows, options);
      out.push_back({slices[s].first, std::move(curve), rows.size()});
    } catch (const std::invalid_argument&) {
    }
  }
  return out;
}

void expect_same_curves(const std::vector<NamedPreference>& actual,
                        const std::vector<NamedPreference>& expected, const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  const auto bits = [](const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
  };
  for (std::size_t s = 0; s < actual.size(); ++s) {
    const auto& a = actual[s].result;
    const auto& e = expected[s].result;
    std::string where(what);
    where += " slice ";
    where += expected[s].name;
    EXPECT_EQ(actual[s].name, expected[s].name) << where;
    EXPECT_EQ(actual[s].records, expected[s].records) << where;
    EXPECT_EQ(bits(a.latency_ms), bits(e.latency_ms)) << where;
    EXPECT_EQ(bits(a.raw_ratio), bits(e.raw_ratio)) << where;
    EXPECT_EQ(bits(a.smoothed), bits(e.smoothed)) << where;
    EXPECT_EQ(bits(a.normalized), bits(e.normalized)) << where;
    EXPECT_EQ(a.valid, e.valid) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.reference_latency_ms),
              std::bit_cast<std::uint64_t>(e.reference_latency_ms))
        << where;
    EXPECT_EQ(a.biased_samples, e.biased_samples) << where;
    EXPECT_EQ(a.support_begin, e.support_begin) << where;
    EXPECT_EQ(a.support_end, e.support_end) << where;
  }
}

// Every family's keyed curves against analyze() of each slice's filtered
// rows, bit for bit, at several thread counts.
TEST(SlicesReferenceTest, EveryFamilyMatchesAnalyzeOfItsRows) {
  using telemetry::all_of;
  using telemetry::by_action;
  using telemetry::by_user_class;
  const auto dataset = chunk_edge_dataset();
  ASSERT_GT(dataset.size(), 3 * kSliceChunkRows);
  ASSERT_TRUE(dataset.is_sorted());
  // The quartile basis leaves users 450..498 out of the table.
  telemetry::Dataset quartile_basis;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (dataset[i].user_id < 450) quartile_basis.add(dataset[i]);
  }
  quartile_basis.sort_by_time();
  const telemetry::UserQuartiles quartiles(quartile_basis);

  constexpr ActionType kActions[] = {ActionType::kSelectMail, ActionType::kSwitchFolder,
                                     ActionType::kSearch, ActionType::kComposeSend};
  const auto action_slices = [&](std::optional<UserClass> user_class) {
    std::vector<std::pair<std::string, telemetry::RecordFilter>> slices;
    for (const auto type : kActions) {
      auto filter = by_action(type);
      if (user_class) filter = all_of({filter, by_user_class(*user_class)});
      slices.emplace_back(std::string(telemetry::to_string(type)), std::move(filter));
    }
    return slices;
  };
  std::vector<std::pair<std::string, telemetry::RecordFilter>> class_slices;
  for (const auto c : {UserClass::kBusiness, UserClass::kConsumer}) {
    class_slices.emplace_back(std::string(telemetry::to_string(c)),
                              all_of({by_action(ActionType::kSearch), by_user_class(c)}));
  }
  std::vector<std::pair<std::string, telemetry::RecordFilter>> quartile_slices;
  for (int q = 0; q < telemetry::UserQuartiles::kQuartileCount; ++q) {
    std::string name("Q");
    name += std::to_string(q + 1);
    quartile_slices.emplace_back(
        std::move(name),
        all_of({by_action(ActionType::kSelectMail), quartiles.in_quartile(q),
                by_user_class(UserClass::kConsumer)}));
  }
  std::vector<std::pair<std::string, telemetry::RecordFilter>> period_slices;
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    const auto period = static_cast<telemetry::DayPeriod>(p);
    period_slices.emplace_back(
        std::string(telemetry::to_string(period)),
        all_of({by_action(ActionType::kSelectMail), by_user_class(UserClass::kBusiness),
                telemetry::by_period(period)}));
  }
  std::vector<std::pair<std::string, telemetry::RecordFilter>> month_slices;
  for (const std::int64_t m : {14, 15}) {
    std::string name("Month");
    name += std::to_string(m + 1);
    month_slices.emplace_back(std::move(name),
                              all_of({by_action(ActionType::kSearch), telemetry::by_month(m)}));
  }

  AutoSensOptions options;
  options.threads = 1;
  const auto expected_action = reference_curves(dataset, action_slices(std::nullopt), options);
  const auto expected_consumer =
      reference_curves(dataset, action_slices(UserClass::kConsumer), options);
  const auto expected_class = reference_curves(dataset, class_slices, options);
  const auto expected_quartile = reference_curves(dataset, quartile_slices, options);
  const auto expected_period = reference_curves(dataset, period_slices, options, true);
  const auto expected_month = reference_curves(dataset, month_slices, options);
  // The dataset reaches the edges it is built for: every action slice has a
  // curve, and the one-sample month is skipped.
  ASSERT_EQ(expected_action.size(), 4u);
  ASSERT_EQ(dataset.filtered(month_slices[1].second).size(), 1u);
  ASSERT_EQ(expected_month.size(), 1u);
  ASSERT_EQ(expected_period.size(), 4u);
  ASSERT_EQ(expected_quartile.size(), 4u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    options.threads = threads;
    SCOPED_TRACE(threads);
    expect_same_curves(preference_by_action(dataset, options), expected_action, "action");
    expect_same_curves(preference_by_action(dataset, options, UserClass::kConsumer),
                       expected_consumer, "action/Consumer");
    expect_same_curves(preference_by_user_class(dataset, options, ActionType::kSearch),
                       expected_class, "class");
    expect_same_curves(preference_by_quartile(dataset, quartile_basis, options,
                                              ActionType::kSelectMail, UserClass::kConsumer),
                       expected_quartile, "quartile");
    expect_same_curves(preference_by_period(dataset, options, ActionType::kSelectMail,
                                            UserClass::kBusiness),
                       expected_period, "period");
    expect_same_curves(preference_by_month(dataset, options, ActionType::kSearch),
                       expected_month, "month");
  }

  // Under Monte-Carlo U the draws read each slice's gathered columns.
  options.unbiased_method = UnbiasedMethod::kMonteCarlo;
  options.unbiased_draws = 20'000;
  options.threads = 1;
  const auto expected_mc = reference_curves(dataset, action_slices(std::nullopt), options);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    SCOPED_TRACE(threads);
    expect_same_curves(preference_by_action(dataset, options), expected_mc, "action/mc");
  }
}

}  // namespace
}  // namespace autosens::core
