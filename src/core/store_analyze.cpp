#include "core/store_analyze.h"

#include <stdexcept>
#include <utility>

#include "core/biased.h"
#include "core/pipeline.h"
#include "stats/rng.h"
#include "telemetry/filter.h"

namespace autosens::core {

void analyze_store_windows(const telemetry::store::StoredDataset& store,
                           const AutoSensOptions& options, const StoreStreamOptions& stream,
                           const std::function<void(const StoreWindowResult&)>& sink) {
  if (stream.window_ms <= 0) {
    throw std::invalid_argument("analyze_store_windows: window_ms must be positive");
  }
  if (store.partitions().empty()) return;
  std::vector<telemetry::RecordFilter> terms;
  if (stream.action) terms.push_back(telemetry::by_action(*stream.action));
  if (stream.user_class) terms.push_back(telemetry::by_user_class(*stream.user_class));
  const auto slice = telemetry::all_of(terms);
  const std::int64_t min_time = store.min_time_ms();
  const std::int64_t max_time = store.max_time_ms();
  for (std::int64_t begin = min_time; begin <= max_time; begin += stream.window_ms) {
    const std::int64_t end = begin + stream.window_ms;
    auto load = store.load_window(begin, end);
    StoreWindowResult result;
    result.begin_ms = begin;
    result.end_ms = end;
    result.partitions_scanned = load.partitions_scanned;
    result.partitions_pruned = load.partitions_pruned;
    result.bytes_read = load.bytes_read;

    telemetry::Dataset dataset = std::move(load.dataset);
    if (stream.scrub) {
      dataset = telemetry::validate(dataset, stream.validation).dataset;
    }
    if (!terms.empty()) dataset = dataset.filtered(slice);
    result.records = dataset.size();
    if (!dataset.empty()) {
      try {
        if (stream.with_confidence) {
          stats::Random random(stream.confidence_seed);
          result.confidence = analyze_with_confidence(dataset, options, stream.probe_latencies,
                                                      stream.confidence, random);
          result.preference = result.confidence->point;
        } else {
          result.preference = analyze(dataset, options);
        }
      } catch (const std::invalid_argument&) {
        // Too thin to support a curve (e.g. no sample at the reference
        // latency): report the counts, leave the estimates empty.
      }
    }
    sink(result);
  }
}

std::vector<StoreWindowResult> analyze_store_windows(
    const telemetry::store::StoredDataset& store, const AutoSensOptions& options,
    const StoreStreamOptions& stream) {
  std::vector<StoreWindowResult> results;
  analyze_store_windows(store, options, stream,
                        [&](const StoreWindowResult& r) { results.push_back(r); });
  return results;
}

stats::Histogram scan_biased_histogram(const telemetry::store::StoredDataset& store,
                                       const AutoSensOptions& options) {
  stats::Histogram total = make_latency_histogram(options);
  for (std::size_t i = 0; i < store.partitions().size(); ++i) {
    const telemetry::store::PartitionData part = store.read_partition(i);
    total.merge(biased_histogram(part.latencies(), options));
  }
  return total;
}

}  // namespace autosens::core
