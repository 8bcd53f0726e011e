// Microbenchmarks (google-benchmark) of the one vector kernel, bin_indices,
// scalar against the detected dispatch level in one process. perfbench
// (perfbench/run.py) is the benchmark; it can only switch the SIMD level for
// a whole process (AUTOSENS_FORCE_SCALAR=1), so these rows are an ungated
// diagnostic of the per-row binning behind its binlog-slices cpu_s_per_mrow.
// Arg(0) pins the scalar path, Arg(1) runs the detected level.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/options.h"
#include "core/simd.h"
#include "stats/histogram.h"
#include "stats/rng.h"
#include "telemetry/clock.h"
#include "telemetry/dataset.h"

namespace {

using namespace autosens;

/// A shared 1M-record, 14-day dataset with diurnal structure (built once).
const telemetry::Dataset& million_record_dataset() {
  static const telemetry::Dataset dataset = [] {
    constexpr std::size_t kRecords = 1'000'000;
    constexpr int kDays = 14;
    stats::Random random(97);
    telemetry::Dataset built;
    built.reserve(kRecords);
    const std::int64_t begin = 400 * telemetry::kMillisPerDay;
    constexpr auto kSpan = static_cast<double>(kDays) * telemetry::kMillisPerDay;
    constexpr telemetry::ActionType kActions[] = {
        telemetry::ActionType::kSelectMail, telemetry::ActionType::kSwitchFolder,
        telemetry::ActionType::kSelectMail, telemetry::ActionType::kSearch,
        telemetry::ActionType::kComposeSend};
    for (std::size_t i = 0; i < kRecords; ++i) {
      telemetry::ActionRecord record;
      record.time_ms = begin + static_cast<std::int64_t>(
                                   kSpan * static_cast<double>(i) / kRecords);
      const double hour =
          static_cast<double>(record.time_ms % telemetry::kMillisPerDay) /
          static_cast<double>(telemetry::kMillisPerHour);
      const double diurnal = 120.0 * std::sin(hour / 24.0 * 2.0 * 3.141592653589793);
      record.latency_ms = std::min(
          2900.0, 180.0 + diurnal + 250.0 * -std::log(1.0 - random.uniform(0.0, 1.0)));
      record.user_id = i % 499;
      record.action = kActions[i % 5];
      record.user_class = (i % 3 == 0) ? telemetry::UserClass::kBusiness
                                       : telemetry::UserClass::kConsumer;
      built.add(record);
    }
    built.sort_by_time();
    return built;
  }();
  return dataset;
}

/// Pin the SIMD dispatch level for one benchmark run.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(bool dispatch) {
    core::simd::set_level_override(dispatch ? core::simd::detected_level()
                                            : core::simd::Level::kScalar);
  }
  ~ScopedSimdLevel() { core::simd::set_level_override(std::nullopt); }
};

const char* simd_label(benchmark::State& state) {
  return state.range(0) != 0 ? "dispatch" : "scalar";
}

/// Biased histogram fill: 1M unit-weight adds into the fig3 latency geometry.
void BM_KernelBiasedFill(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const auto latencies = dataset.latencies();
  ScopedSimdLevel level(state.range(0) != 0);
  for (auto _ : state) {
    stats::Histogram histogram(0.0, 10.0, 300);
    histogram.add_all(latencies);
    benchmark::DoNotOptimize(histogram.total_weight());
  }
  state.SetLabel(simd_label(state));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(latencies.size()));
}
BENCHMARK(BM_KernelBiasedFill)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The fused classify+fill pass of the α estimator: per-block latency bin
/// indices through the dispatch layer, element-order adds into one of the
/// per-hour class histograms.
void BM_KernelClassifyFill(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const auto times = dataset.times();
  const auto latencies = dataset.latencies();
  const core::AutoSensOptions options;
  const auto classes =
      static_cast<std::size_t>(telemetry::kMillisPerDay / options.alpha_slot_ms);
  ScopedSimdLevel level(state.range(0) != 0);
  for (auto _ : state) {
    std::vector<stats::Histogram> counts;
    counts.reserve(classes);
    for (std::size_t k = 0; k < classes; ++k) {
      counts.push_back(stats::Histogram::covering(0.0, options.max_latency_ms,
                                                  options.alpha_bin_width_ms));
    }
    const double lo = counts.front().lo();
    const double width = counts.front().bin_width();
    const std::size_t bins = counts.front().size();
    constexpr std::size_t kBlock = 1024;
    std::array<std::uint32_t, kBlock> bin;
    for (std::size_t offset = 0; offset < times.size(); offset += kBlock) {
      const std::size_t m = std::min(kBlock, times.size() - offset);
      core::simd::bin_indices(latencies.subspan(offset, m), lo, width, bins,
                              std::span<std::uint32_t>(bin.data(), m));
      for (std::size_t i = 0; i < m; ++i) {
        const auto slot = static_cast<std::size_t>(
            ((times[offset + i] % telemetry::kMillisPerDay) + telemetry::kMillisPerDay) %
            telemetry::kMillisPerDay / options.alpha_slot_ms);
        counts[slot].add_at(bin[i]);
      }
    }
    benchmark::DoNotOptimize(counts.front().total_weight());
  }
  state.SetLabel(simd_label(state));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(times.size()));
}
BENCHMARK(BM_KernelClassifyFill)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
