#include "core/streaming.h"

#include <stdexcept>
#include <utility>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/savitzky_golay.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

struct StreamingMetrics {
  obs::Counter& seen = obs::registry().counter(
      "autosens_streaming_records_seen_total", "Records fed into StreamingAutoSens");
  obs::Counter& used = obs::registry().counter(
      "autosens_streaming_records_used_total",
      "Records kept by the streaming scrub policy");
  obs::Counter& snapshots = obs::registry().counter(
      "autosens_streaming_snapshots_total", "StreamingAutoSens snapshots computed");
  obs::Histogram& snapshot_ms = obs::registry().histogram(
      "autosens_streaming_snapshot_latency_ms",
      "Latency of StreamingAutoSens::snapshot (milliseconds)");
  obs::Gauge& cadence = obs::registry().gauge(
      "autosens_streaming_records_per_snapshot",
      "Records accepted between the two most recent snapshots");
};

StreamingMetrics& streaming_metrics() {
  static StreamingMetrics handles;
  return handles;
}

/// Per-time-of-day-class α gauges, registered lazily the first time a
/// snapshot publishes them (class count is an option, not a constant).
obs::Gauge& alpha_gauge(std::size_t class_index) {
  return obs::registry().gauge(
      "autosens_streaming_alpha{class=\"" + std::to_string(class_index) + "\"}",
      "Streaming per-time-of-day-class activity factor at last snapshot");
}

}  // namespace

StreamingAutoSens::StreamingAutoSens(AutoSensOptions options)
    : accumulator_(ClassGrid::kSlot, options) {
  // Fail fast on a bad smoothing configuration instead of at snapshot time.
  (void)stats::SavitzkyGolay(options.smoothing);
}

void StreamingAutoSens::feed_sample(std::int64_t time_ms, double latency_ms,
                                    telemetry::ActionStatus status) {
  const bool kept =
      telemetry::drop_reason(time_ms, latency_ms, status) == telemetry::DropReason::kKept;
  if (kept && !run_latencies_.empty() && time_ms < run_ms_) {
    throw std::invalid_argument("StreamingAutoSens::feed: records must be time-ordered");
  }
  ++seen_;
  streaming_metrics().seen.inc();
  if (!kept) return;
  ++used_;
  streaming_metrics().used.inc();
  if (!run_latencies_.empty() && time_ms > run_ms_) {
    // The next distinct time closes the pending run's Voronoi cells.
    accumulator_.add_run(previous_ms_, run_ms_, time_ms, run_latencies_,
                         TimeWindow{.begin_ms = *first_ms_, .end_ms = time_ms + 1});
    previous_ms_ = run_ms_;
    run_latencies_.clear();
  }
  if (run_latencies_.empty()) {
    run_ms_ = time_ms;
    if (!first_ms_) first_ms_ = time_ms;
  }
  run_latencies_.push_back(latency_ms);
}

void StreamingAutoSens::feed(const telemetry::ActionRecord& record) {
  feed_sample(record.time_ms, record.latency_ms, record.status);
}

void StreamingAutoSens::feed_all(const telemetry::Dataset& dataset) {
  const auto times = dataset.times();
  const auto latencies = dataset.latencies();
  const auto statuses = dataset.statuses();
  for (std::size_t i = 0; i < times.size(); ++i) {
    feed_sample(times[i], latencies[i], statuses[i]);
  }
}

Accumulator StreamingAutoSens::closed() const {
  if (used_ == 0) throw std::logic_error("StreamingAutoSens: no records fed");
  Accumulator accumulator = accumulator_;
  accumulator.add_run(previous_ms_, run_ms_, std::nullopt, run_latencies_,
                      TimeWindow{.begin_ms = *first_ms_, .end_ms = run_ms_ + 1});
  return accumulator;
}

std::vector<double> StreamingAutoSens::alpha_by_class() const {
  std::vector<double> alpha;
  for (const auto& slot : closed().solve_alpha()) alpha.push_back(slot.alpha);
  return alpha;
}

PreferenceResult StreamingAutoSens::snapshot() const {
  const Accumulator accumulator = closed();
  obs::Span span("streaming_snapshot", &streaming_metrics().snapshot_ms);
  span.attr("records_used", static_cast<std::int64_t>(used_));
  auto result = accumulator.finish();
  if (obs::enabled()) {
    for (const auto& slot : result.slots) {
      alpha_gauge(static_cast<std::size_t>(slot.slot)).set(slot.alpha);
    }
  }
  streaming_metrics().snapshots.inc();
  streaming_metrics().cadence.set(static_cast<double>(used_ - used_at_last_snapshot_));
  used_at_last_snapshot_ = used_;
  if (obs::enabled()) {
    // Readiness for /healthz: a streaming session that can produce
    // snapshots is serving fresh sensitivity estimates.
    obs::Health::global().set_component(
        "streaming", true,
        "records_used=" + std::to_string(used_) +
            ", snapshots=" + std::to_string(streaming_metrics().snapshots.value()));
  }
  return std::move(result.preference);
}

}  // namespace autosens::core
