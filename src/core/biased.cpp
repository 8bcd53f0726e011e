#include "core/biased.h"

#include "core/parallel.h"

namespace autosens::core {

stats::Histogram make_latency_histogram(const AutoSensOptions& options) {
  return stats::Histogram::covering(0.0, options.max_latency_ms, options.bin_width_ms);
}

stats::Histogram biased_histogram(std::span<const double> latencies,
                                  const AutoSensOptions& options) {
  // Unit weights sum exactly, so the chunked fill is bit-identical to a
  // serial pass for any thread count.
  return parallel_map_reduce<stats::Histogram>(
      latencies.size(), options.threads, kRecordChunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto histogram = make_latency_histogram(options);
        histogram.add_all(latencies.subspan(begin, end - begin));
        return histogram;
      },
      [](stats::Histogram& into, stats::Histogram&& partial) { into.merge(partial); });
}

stats::Histogram biased_histogram(const telemetry::Dataset& dataset,
                                  const AutoSensOptions& options) {
  return biased_histogram(dataset.latencies(), options);
}

}  // namespace autosens::core
