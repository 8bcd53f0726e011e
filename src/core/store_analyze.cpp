#include "core/store_analyze.h"

#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/biased.h"
#include "core/pipeline.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "telemetry/filter.h"
#include "telemetry/select.h"

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
  telemetry::RowSelector selector(
      telemetry::all_of(terms),
      stream.scrub ? std::optional(stream.validation) : std::nullopt);
  // Only a confidence window gathers whole rows (the bootstrap resamples a
  // Dataset); every other window keeps just time and latency, in one buffer
  // all windows reuse.
  using UserIds = telemetry::store::StoredDataset::UserIds;
  const UserIds user_ids = stream.with_confidence ? UserIds::kMaterialize : UserIds::kCheckOnly;
  telemetry::SampleBuffer samples;
  constexpr std::int64_t kMaxTime = std::numeric_limits<std::int64_t>::max();
  const std::int64_t max_time = store.max_time_ms();
  for (std::int64_t begin = store.min_time_ms();;) {
    // Clamped, so a huge window_ms cannot wrap: the window that reaches
    // max_time (or the end of the time axis) is the last.
    const std::int64_t end =
        begin > kMaxTime - stream.window_ms ? kMaxTime : begin + stream.window_ms;
    StoreWindowResult result;
    result.begin_ms = begin;
    result.end_ms = end;
    {
      obs::Span window_span("store.window");
      samples.clear();
      selector.reset_report();
      telemetry::Dataset gathered;  // Confidence windows only.
      const auto scan = [&] {
        obs::Span select_span("store.select");
        return store.scan_window(
            begin, end, stream.action, stream.user_class, user_ids,
            [&](const telemetry::RowColumns& part) {
              if (!stream.with_confidence) {
                samples.append(part, selector);
                return;
              }
              selector.for_each_kept_run(part, [&](const telemetry::RowColumns& run) {
                gathered.append_columns(run.times, run.latencies, run.user_ids, run.actions,
                                        run.user_classes, run.statuses);
              });
            });
      }();
      if (stream.scrub) telemetry::publish_validation_metrics(selector.report());
      result.partitions_scanned = scan.partitions_scanned;
      result.partitions_pruned = scan.partitions_pruned;
      result.bytes_read = scan.bytes_read;
      result.records = stream.with_confidence ? gathered.size() : samples.size();
      window_span.attr("partitions_scanned", static_cast<std::int64_t>(scan.partitions_scanned));
      window_span.attr("partitions_pruned", static_cast<std::int64_t>(scan.partitions_pruned));
      window_span.attr("bytes_read", static_cast<std::int64_t>(scan.bytes_read));
      window_span.attr("rows_selected", static_cast<std::int64_t>(result.records));
      if (result.records > 0) {
        try {
          if (stream.with_confidence) {
            stats::Random random(stream.confidence_seed);
            result.confidence = analyze_with_confidence(
                gathered, options, stream.probe_latencies, stream.confidence, random);
            result.preference = result.confidence->point;
          } else {
            result.preference = analyze(samples.columns(), options);
          }
        } catch (const std::invalid_argument&) {
          // Too thin to support a curve (e.g. no sample at the reference
          // latency): report the counts, leave the estimates empty.
        }
      }
    }
    sink(result);
    if (end > max_time || end == kMaxTime) break;
    begin = end;
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
