#include "core/confidence.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "stats/descriptive.h"
#include "telemetry/clock.h"

namespace autosens::core {
namespace {

/// One non-empty day of the dataset: its calendar day index and the record
/// range [first, last) covering it.
struct DayRange {
  std::int64_t day = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Non-empty day ranges via binary search over the sorted times column —
/// O(days · log records) rather than a full record scan.
std::vector<DayRange> day_ranges(const telemetry::Dataset& dataset) {
  const auto times = dataset.times();
  const std::int64_t first_day = telemetry::day_index(times.front());
  const std::int64_t last_day = telemetry::day_index(times.back());
  std::vector<DayRange> days;
  days.reserve(static_cast<std::size_t>(last_day - first_day) + 1);
  std::size_t cursor = 0;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    const auto it = std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(cursor),
                                     times.end(), (day + 1) * telemetry::kMillisPerDay);
    const auto next = static_cast<std::size_t>(it - times.begin());
    if (next > cursor) days.push_back({day, cursor, next});
    cursor = next;
  }
  return days;
}

/// Draw the day-slot assignment. Slot s is filled with a uniformly drawn source day, shifted onto day s
/// (keeping time-of-day); slot-major order is globally time-sorted.
std::vector<telemetry::DatasetView::Block> draw_blocks(std::span<const DayRange> days,
                                                       stats::Random& random) {
  std::vector<telemetry::DatasetView::Block> blocks;
  blocks.reserve(days.size());
  for (std::size_t slot = 0; slot < days.size(); ++slot) {
    const auto& source = days[random.uniform_index(days.size())];
    const std::int64_t day_shift =
        (static_cast<std::int64_t>(slot) - source.day) * telemetry::kMillisPerDay;
    blocks.push_back({source.first, source.last, day_shift});
  }
  return blocks;
}

}  // namespace

telemetry::DatasetView day_block_resample(const telemetry::Dataset& dataset,
                                          stats::Random& random) {
  if (dataset.empty()) throw std::invalid_argument("day_block_resample: empty dataset");
  const auto days = day_ranges(dataset);
  return telemetry::DatasetView(dataset, draw_blocks(days, random));
}

PreferenceWithConfidence analyze_with_confidence(const telemetry::Dataset& dataset,
                                                 const AutoSensOptions& options,
                                                 std::vector<double> probe_latencies,
                                                 const ConfidenceOptions& confidence,
                                                 stats::Random& random) {
  if (confidence.replicates == 0) {
    throw std::invalid_argument("analyze_with_confidence: replicates must be nonzero");
  }
  if (!(confidence.confidence > 0.0 && confidence.confidence < 1.0)) {
    throw std::invalid_argument("analyze_with_confidence: confidence must be in (0,1)");
  }

  PreferenceWithConfidence result;
  result.point = analyze(dataset, options);
  result.probe_latency_ms = std::move(probe_latencies);

  // Each replicate resamples from its own counter-seeded substream and
  // records its per-probe values into a private slot; the slots merge in
  // replicate order, so the intervals are byte-identical for any
  // options.threads. The inner analyze() calls serialize automatically
  // inside the replicate-level parallel region.
  struct Replicate {
    bool usable = false;
    std::vector<std::optional<double>> at_probe;
  };
  const std::uint64_t stream_base = random.engine()();
  std::vector<Replicate> replicate_draws(confidence.replicates);
  parallel_for_items(
      confidence.replicates, options.threads, [&](std::size_t r) {
        stats::Random substream(stats::substream_seed(stream_base, r));
        auto& slot = replicate_draws[r];
        slot.at_probe.assign(result.probe_latency_ms.size(), std::nullopt);
        try {
          // The replicate is an index view over `dataset`: O(days) setup,
          // no record copy or re-sort.
          const auto curve = analyze(day_block_resample(dataset, substream), options);
          slot.usable = true;
          for (std::size_t p = 0; p < result.probe_latency_ms.size(); ++p) {
            if (curve.covers(result.probe_latency_ms[p])) {
              slot.at_probe[p] = curve.at(result.probe_latency_ms[p]);
            }
          }
        } catch (const std::invalid_argument&) {
          // Degenerate resample (e.g. reference latency unsupported): skip.
        }
      });

  std::vector<std::vector<double>> draws(result.probe_latency_ms.size());
  for (const auto& slot : replicate_draws) {
    if (!slot.usable) continue;
    ++result.usable_replicates;
    for (std::size_t p = 0; p < draws.size(); ++p) {
      if (slot.at_probe[p]) draws[p].push_back(*slot.at_probe[p]);
    }
  }

  result.intervals.resize(result.probe_latency_ms.size());
  const double alpha = 1.0 - confidence.confidence;
  for (std::size_t p = 0; p < draws.size(); ++p) {
    if (draws[p].size() < 2) {
      // No usable replicates at this probe: degenerate interval around the
      // point estimate (callers can detect lo == hi).
      const double point = result.point.covers(result.probe_latency_ms[p])
                               ? result.point.at(result.probe_latency_ms[p])
                               : 0.0;
      result.intervals[p] = {point, point};
      continue;
    }
    result.intervals[p] = {stats::quantile(draws[p], alpha / 2.0),
                           stats::quantile(draws[p], 1.0 - alpha / 2.0)};
  }
  return result;
}

}  // namespace autosens::core
