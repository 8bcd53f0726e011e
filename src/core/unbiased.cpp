#include "core/unbiased.h"

#include <stdexcept>

#include "core/biased.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/sampling.h"

namespace autosens::core {
namespace {

obs::Counter& mc_draw_counter() {
  static obs::Counter& counter = obs::registry().counter(
      "autosens_unbiased_mc_draws_total", "Monte-Carlo nearest-sample draws performed");
  return counter;
}

}  // namespace

stats::Histogram unbiased_histogram_mc(std::span<const std::int64_t> times,
                                       std::span<const double> latencies,
                                       TimeWindow window, const AutoSensOptions& options,
                                       stats::Random& random) {
  if (times.size() != latencies.size()) {
    throw std::invalid_argument("unbiased_histogram_mc: size mismatch");
  }
  obs::Span span("unbiased_mc_draws");
  span.attr("draws", static_cast<std::int64_t>(options.unbiased_draws));
  mc_draw_counter().inc(options.unbiased_draws);
  // One draw from the caller's stream anchors the whole estimate; each chunk
  // of draws then runs its own counter-seeded substream, so the draw
  // sequences (and the merged histogram) are independent of thread count.
  const std::uint64_t stream_base = random.engine()();
  return parallel_map_reduce<stats::Histogram>(
      options.unbiased_draws, options.threads, kDrawChunk,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto histogram = make_latency_histogram(options);
        if (end > begin) {
          stats::Random substream(stats::substream_seed(stream_base, chunk));
          const auto draws = stats::nearest_sample_draws(times, window.begin_ms,
                                                         window.end_ms, end - begin,
                                                         substream);
          for (const std::size_t idx : draws) histogram.add(latencies[idx]);
        }
        return histogram;
      },
      [](stats::Histogram& into, stats::Histogram&& partial) { into.merge(partial); });
}

stats::Histogram unbiased_histogram_voronoi(std::span<const std::int64_t> times,
                                            std::span<const double> latencies,
                                            TimeWindow window,
                                            const AutoSensOptions& options) {
  if (times.size() != latencies.size()) {
    throw std::invalid_argument("unbiased_histogram_voronoi: size mismatch");
  }
  const auto weights =
      stats::voronoi_weights(times, window.begin_ms, window.end_ms, options.threads);
  return parallel_map_reduce<stats::Histogram>(
      latencies.size(), options.threads, kRecordChunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto histogram = make_latency_histogram(options);
        histogram.add_all(latencies.subspan(begin, end - begin),
                          std::span<const double>(weights).subspan(begin, end - begin));
        return histogram;
      },
      [](stats::Histogram& into, stats::Histogram&& partial) { into.merge(partial); });
}

stats::Histogram unbiased_histogram(telemetry::SampleColumns columns,
                                    const AutoSensOptions& options) {
  if (columns.empty()) throw std::invalid_argument("unbiased_histogram: empty dataset");
  if (options.unbiased_method == UnbiasedMethod::kMonteCarlo) {
    const TimeWindow window{.begin_ms = columns.begin_time(), .end_ms = columns.end_time()};
    stats::Random random(options.seed);
    return unbiased_histogram_mc(columns.times, columns.latencies, window, options, random);
  }
  obs::Span span("unbiased_voronoi");
  span.attr("samples", static_cast<std::int64_t>(columns.size()));
  return Accumulator::fill(columns, ClassGrid::kSlot, options).unbiased();
}

stats::Histogram unbiased_histogram(const telemetry::Dataset& dataset,
                                    const AutoSensOptions& options) {
  return unbiased_histogram(dataset.columns(), options);
}

}  // namespace autosens::core
