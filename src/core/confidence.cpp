#include "core/confidence.h"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "telemetry/clock.h"

namespace autosens::core {
namespace {

/// One non-empty day of the input: its calendar day index and the sample
/// range [first, last) covering it.
struct DayRange {
  std::int64_t day = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Throws std::invalid_argument unless `columns` is non-empty, aligned and
/// sorted by time — the day ranges below binary-search the times.
void check_sorted(telemetry::SampleColumns columns, const std::string& caller) {
  if (columns.empty()) throw std::invalid_argument(caller + ": empty columns");
  if (columns.latencies.size() != columns.size()) {
    throw std::invalid_argument(caller + ": time and latency columns differ in size");
  }
  if (!std::is_sorted(columns.times.begin(), columns.times.end())) {
    throw std::invalid_argument(caller + ": times not sorted");
  }
}

/// Non-empty day ranges via binary search over the sorted times —
/// O(days · log samples) rather than a full scan.
std::vector<DayRange> day_ranges(std::span<const std::int64_t> times) {
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

/// Draw a source day for every slot, then write the drawn days' samples
/// slot by slot, each shifted onto its slot's day.
Resample resample_days(telemetry::SampleColumns columns, std::span<const DayRange> days,
                       stats::Random& random) {
  std::vector<const DayRange*> drawn;
  drawn.reserve(days.size());
  std::size_t size = 0;
  for (std::size_t slot = 0; slot < days.size(); ++slot) {
    drawn.push_back(&days[random.uniform_index(days.size())]);
    size += drawn.back()->last - drawn.back()->first;
  }
  Resample out;
  out.times.resize(size);
  out.latencies.resize(size);
  std::size_t at = 0;
  for (std::size_t slot = 0; slot < drawn.size(); ++slot) {
    const DayRange& source = *drawn[slot];
    const std::int64_t shift =
        (static_cast<std::int64_t>(slot) - source.day) * telemetry::kMillisPerDay;
    for (std::size_t i = source.first; i < source.last; ++i, ++at) {
      out.times[at] = columns.times[i] + shift;
      out.latencies[at] = columns.latencies[i];
    }
  }
  return out;
}

}  // namespace

Resample day_block_resample(telemetry::SampleColumns columns, stats::Random& random) {
  check_sorted(columns, "day_block_resample");
  return resample_days(columns, day_ranges(columns.times), random);
}

PreferenceWithConfidence analyze_with_confidence(telemetry::SampleColumns columns,
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

  check_sorted(columns, "analyze_with_confidence");

  PreferenceWithConfidence result;
  result.point = analyze(columns, options);
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
  const auto days = day_ranges(columns.times);
  std::vector<Replicate> replicate_draws(confidence.replicates);
  // A pool worker has no open span, so each replicate's span links onto the
  // caller's: the replicate's own spans then nest under it, not as roots.
  const std::uint64_t parent_span = obs::current_span_id();
  parallel_for_items(
      confidence.replicates, options.threads, [&](std::size_t r) {
        obs::Span span("bootstrap_replicate");
        span.link_parent(parent_span);
        span.attr("replicate", static_cast<std::int64_t>(r));
        stats::Random substream(stats::substream_seed(stream_base, r));
        auto& slot = replicate_draws[r];
        slot.at_probe.assign(result.probe_latency_ms.size(), std::nullopt);
        try {
          // The replicate owns its two columns and frees them here.
          const auto curve =
              analyze(resample_days(columns, days, substream).columns(), options);
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
