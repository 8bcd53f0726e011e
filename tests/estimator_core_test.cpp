// The estimator core's contract: exact, mergeable statistics, so every path
// to a curve is byte-identical to analyze_detailed on the same rows.
#include "core/accumulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/confounder_time.h"
#include "core/pipeline.h"
#include "core/slices.h"
#include "core/unbiased.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/rng.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

template <typename T>
void put(std::string& out, const std::vector<T>& values) {
  out.append(reinterpret_cast<const char*>(values.data()), values.size() * sizeof(T));
  out += '|';
}

std::string bytes_of(const PreferenceResult& p) {
  std::string out;
  put(out, p.latency_ms);
  put(out, p.raw_ratio);
  put(out, p.smoothed);
  put(out, p.normalized);
  put(out, p.valid);
  put(out, std::vector<std::size_t>{p.biased_samples, p.support_begin, p.support_end});
  return out;
}

std::string bytes_of(const stats::Histogram& h) {
  std::string out;
  put(out, std::vector<double>(h.counts().begin(), h.counts().end()));
  put(out, std::vector<double>{h.total_weight()});
  return out;
}

std::string bytes_of(const AnalysisResult& r) {
  std::string out = bytes_of(r.preference) + bytes_of(r.biased) + bytes_of(r.unbiased);
  for (const auto& s : r.slots) {
    put(out, std::vector<double>{static_cast<double>(s.slot), static_cast<double>(s.records),
                                 s.total_time_ms, s.alpha, s.alpha_from_fallback ? 1.0 : 0.0});
  }
  return out;
}

telemetry::Dataset validated(std::uint64_t seed) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, seed))
          .generate();
  return telemetry::validate(generated.dataset).dataset;
}

telemetry::Dataset select_mail(std::uint64_t seed) {
  return validated(seed).filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
}

/// `d` with every time rounded down to a multiple of 10 s: most records sit
/// in duplicate-time runs, so runs also straddle the fill's chunk grid.
telemetry::Dataset with_duplicates(const telemetry::Dataset& d) {
  telemetry::Dataset out;
  for (std::size_t i = 0; i < d.size(); ++i) {
    auto record = d[i];
    record.time_ms -= record.time_ms % (10 * telemetry::kMillisPerSecond);
    out.add(record);
  }
  return out;
}

TEST(EstimatorCoreTest, OverWindowsOfTheWholeRangeEqualsAnalyze) {
  const auto slice = select_mail(301);
  const std::vector<TimeWindow> whole = {
      {.begin_ms = slice.begin_time(), .end_ms = slice.end_time()}};
  for (const bool alpha : {true, false}) {
    AutoSensOptions options;
    options.normalize_time_confounder = alpha;
    EXPECT_EQ(bytes_of(analyze_over_windows(slice, whole, options)),
              bytes_of(analyze_detailed(slice, options)));
  }
}

TEST(EstimatorCoreTest, FacadeCompositionEqualsAnalyzeDetailed) {
  // TimeNormalizer -> unbiased_histogram -> compute_preference, the traced
  // composition of the benchmark, reduces the same statistics.
  const auto slice = select_mail(302);
  const AutoSensOptions options;
  const TimeNormalizer normalizer(slice, options);
  auto preference = compute_preference(normalizer.normalized_biased(slice),
                                       unbiased_histogram(slice, options), options);
  preference.biased_samples = slice.size();
  const auto detailed = analyze_detailed(slice, options);
  EXPECT_EQ(bytes_of(preference), bytes_of(detailed.preference));
  EXPECT_EQ(bytes_of(normalizer.normalized_biased(slice)), bytes_of(detailed.biased));
  EXPECT_EQ(bytes_of(unbiased_histogram(slice, options)), bytes_of(detailed.unbiased));
  ASSERT_EQ(normalizer.slots().size(), detailed.slots.size());
  for (std::size_t k = 0; k < detailed.slots.size(); ++k) {
    EXPECT_EQ(normalizer.slots()[k].alpha, detailed.slots[k].alpha);
  }
}

TEST(EstimatorCoreTest, SlicesEqualAnalyzeOfTheirRows) {
  const auto data = validated(303);
  const auto curves = preference_by_action(data, AutoSensOptions{});
  ASSERT_FALSE(curves.empty());
  for (const auto& curve : curves) {
    const auto type = curve.name == "SelectMail"     ? telemetry::ActionType::kSelectMail
                      : curve.name == "SwitchFolder" ? telemetry::ActionType::kSwitchFolder
                      : curve.name == "Search"       ? telemetry::ActionType::kSearch
                                                     : telemetry::ActionType::kComposeSend;
    EXPECT_EQ(bytes_of(curve.result),
              bytes_of(analyze(data.filtered(telemetry::by_action(type)), AutoSensOptions{})))
        << curve.name;
  }
}

TEST(EstimatorCoreTest, MergeIsExactForAnySplitAndOrder) {
  // Runs added one by one, split into uneven pieces and merged back in
  // reverse order, give the fill's statistics bit for bit; so does the
  // chunked fill on any thread count (its grid follows the thread count, and
  // at this size it cuts at least two chunks).
  const auto slice = with_duplicates(validated(304));
  const AutoSensOptions options;
  const auto times = slice.times();
  const auto latencies = slice.latencies();
  const TimeWindow data{.begin_ms = slice.begin_time(), .end_ms = slice.end_time()};
  std::vector<Accumulator> pieces;
  stats::Random random(9);
  for (std::size_t i = 0; i < times.size();) {
    std::size_t j = i + 1;
    while (j < times.size() && times[j] == times[i]) ++j;
    if (pieces.empty() || random.uniform() < 0.001) {
      pieces.emplace_back(ClassGrid::kSlot, options);
    }
    pieces.back().add_run(i > 0 ? std::optional(times[i - 1]) : std::nullopt, times[i],
                          j < times.size() ? std::optional(times[j]) : std::nullopt,
                          latencies.subspan(i, j - i), data);
    i = j;
  }
  ASSERT_GT(pieces.size(), 2u);
  ASSERT_GT(slice.size(), 4 * 8192u);
  Accumulator merged(ClassGrid::kSlot, options);
  for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) merged.merge(*it);
  const auto expected = bytes_of(analyze_detailed(slice, options));
  EXPECT_EQ(bytes_of(merged.finish()), expected);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto threaded = options;
    threaded.threads = threads;
    EXPECT_EQ(bytes_of(Accumulator::fill(slice.columns(), ClassGrid::kSlot, threaded).finish()),
              expected)
        << threads << " threads";
  }
}

TEST(EstimatorCoreTest, DuplicateRunsShareTheirVoronoiCell) {
  // The global U equals the exact Voronoi weights of the nearest-sample
  // procedure, where a run of k duplicates splits its cell k ways.
  const auto slice = with_duplicates(select_mail(305));
  AutoSensOptions options;
  options.threads = 1;
  const auto core_u = unbiased_histogram(slice, options);
  const auto reference = unbiased_histogram_voronoi(
      slice.times(), slice.latencies(),
      {.begin_ms = slice.begin_time(), .end_ms = slice.end_time()}, options);
  ASSERT_EQ(core_u.size(), reference.size());
  for (std::size_t i = 0; i < core_u.size(); ++i) {
    EXPECT_NEAR(core_u.count(i), reference.count(i), 1e-14) << i;
  }
}

TEST(EstimatorCoreTest, RunByRunWithDuplicateTimesEqualsBatch) {
  // One accumulator fed one duplicate-time run at a time, each with its true
  // neighbours and the data range as U window, reduces the batch statistics.
  const auto slice = with_duplicates(select_mail(306));
  const auto times = slice.times();
  const auto latencies = slice.latencies();
  const TimeWindow data{.begin_ms = slice.begin_time(), .end_ms = slice.end_time()};
  Accumulator accumulator(ClassGrid::kSlot, AutoSensOptions{});
  for (std::size_t i = 0; i < times.size();) {
    std::size_t j = i + 1;
    while (j < times.size() && times[j] == times[i]) ++j;
    accumulator.add_run(i > 0 ? std::optional(times[i - 1]) : std::nullopt, times[i],
                        j < times.size() ? std::optional(times[j]) : std::nullopt,
                        latencies.subspan(i, j - i), data);
    i = j;
  }
  EXPECT_EQ(bytes_of(accumulator.finish().preference),
            bytes_of(analyze(slice, AutoSensOptions{})));
}

TEST(EstimatorCoreTest, ClassGridsCoverEveryRecord) {
  const auto data = validated(307);
  for (const auto grid : {ClassGrid::kSlot, ClassGrid::kPeriod, ClassGrid::kDay}) {
    const auto accumulator = Accumulator::fill(data.columns(), grid, AutoSensOptions{});
    EXPECT_EQ(accumulator.records(), data.size());
    std::size_t total = 0;
    for (std::size_t k = 0; k < accumulator.class_count(); ++k) total += accumulator.records(k);
    EXPECT_EQ(total, data.size());
  }
}

TEST(EstimatorCoreTest, RejectsBadSlotsAndMismatchedMerges) {
  AutoSensOptions bad;
  bad.alpha_slot_ms = 7 * telemetry::kMillisPerHour;
  EXPECT_THROW(Accumulator(ClassGrid::kSlot, bad), std::invalid_argument);
  EXPECT_NO_THROW(Accumulator(ClassGrid::kPeriod, bad));
  Accumulator slots(ClassGrid::kSlot, AutoSensOptions{});
  EXPECT_THROW(slots.merge(Accumulator(ClassGrid::kDay, AutoSensOptions{})),
               std::invalid_argument);
}

}  // namespace
}  // namespace autosens::core
