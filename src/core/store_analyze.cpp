#include "core/store_analyze.h"

#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/partition_summary.h"
#include "core/pipeline.h"
#include "obs/trace.h"
#include "stats/rng.h"
#include "telemetry/filter.h"
#include "telemetry/select.h"

namespace autosens::core {
namespace {

/// Why a window cannot merge partition summaries, or "none". Summaries hold
/// the (action, *) and (*, *) slices of the rows the default scrub keeps, as
/// statistics in the default geometry — enough for a point curve with the
/// Voronoi U.
std::string_view summary_fallback(const AutoSensOptions& options,
                                  const StoreStreamOptions& stream) {
  const AutoSensOptions built = summary_options();
  if (stream.user_class) return "user_class";
  if (!stream.scrub) return "no_scrub";
  if (!(stream.validation == telemetry::ValidationOptions{})) return "validation";
  if (stream.with_confidence) return "confidence";
  if (options.bin_width_ms != built.bin_width_ms ||
      options.max_latency_ms != built.max_latency_ms ||
      options.alpha_bin_width_ms != built.alpha_bin_width_ms ||
      options.alpha_slot_ms != built.alpha_slot_ms) {
    return "geometry";
  }
  if (options.unbiased_method == UnbiasedMethod::kMonteCarlo) return "mc";
  return "none";
}

/// A summary's two edge runs and their inner neighbours.
struct SummaryEdges {
  std::int64_t after_first = 0;  ///< Set when `last` is.
  std::int64_t before_last = 0;
  SampleRun first;
  std::optional<SampleRun> last;
};

/// One partition's share of a window, in time order: kept rows in the
/// window's sample buffer, or a summary (edges filled in by the merge).
struct Segment {
  std::size_t partition = 0;
  bool summarized = false;
  std::size_t begin = 0;  ///< Row segments: [begin, end) of the buffer.
  std::size_t end = 0;
  std::optional<SummaryEdges> edges;  ///< Summaries that kept rows.
};

/// Adds a window's runs to its statistics in time order, each exactly once,
/// with its true neighbours and the window's U range [first sample, last
/// sample + 1). A row stretch fills in bulk, except its last run: that stays
/// pending, since the next segment may continue it (a shard cut can split
/// a duplicate-time run). A summary hands in its first and last runs the
/// same way; its interior is merged already.
class Stitcher {
 public:
  Stitcher(Accumulator& into, const AutoSensOptions& options)
      : into_(into), options_(options) {}

  void add_rows(telemetry::SampleColumns rows) {
    const auto times = rows.times;
    const std::size_t n = times.size();
    std::size_t i = 0;
    while (i < n && pending_ && times[i] == pending_time_) {
      pending_latencies_.push_back(rows.latencies[i++]);
    }
    if (i == n) return;
    std::size_t last = n - 1;
    while (last > i && times[last - 1] == times[n - 1]) --last;
    if (i < last) {
      emit(times[i]);
      if (!started_) first_time_ = times[i];
      started_ = true;
      const TimeWindow observed{first_time_, times[last] + 1};
      into_.merge(Accumulator::fill(
          {times.subspan(i, last - i), rows.latencies.subspan(i, last - i)}, ClassGrid::kSlot,
          options_, {&observed, 1}, {prev_, times[last]}));
      prev_ = times[last - 1];
    }
    push(times[last], rows.latencies.subspan(last));
  }

  void add_summary(const SummaryEdges& edges) {
    push(edges.first.time_ms, edges.first.latencies);
    if (!edges.last) return;
    emit(edges.after_first);
    prev_ = edges.before_last;
    push(edges.last->time_ms, edges.last->latencies);
  }

  /// Adds the window's last run.
  void finish() { emit(std::nullopt); }

 private:
  void push(std::int64_t time, std::span<const double> latencies) {
    if (!pending_ || time != pending_time_) {
      emit(time);
      if (!started_) first_time_ = time;
      started_ = true;
      pending_ = true;
      pending_time_ = time;
    }
    pending_latencies_.insert(pending_latencies_.end(), latencies.begin(), latencies.end());
  }

  void emit(std::optional<std::int64_t> next) {
    if (!pending_) return;
    into_.add_run(prev_, pending_time_, next, pending_latencies_,
                  TimeWindow{first_time_, (next ? *next : pending_time_) + 1});
    prev_ = pending_time_;
    pending_ = false;
    pending_latencies_.clear();
  }

  Accumulator& into_;
  const AutoSensOptions& options_;
  bool started_ = false;
  std::int64_t first_time_ = 0;       ///< The window's first sample, once started.
  std::optional<std::int64_t> prev_;  ///< The run before the pending one.
  bool pending_ = false;
  std::int64_t pending_time_ = 0;
  std::vector<double> pending_latencies_;
};

/// Merges the interiors of a window's summarized segments into `into` (a
/// `store.merge` span) and hands their edge runs to the segments. Returns
/// the summary bytes read.
std::uint64_t merge_summaries(const telemetry::store::StoredDataset& store,
                              std::optional<telemetry::ActionType> action,
                              const AutoSensOptions& options, std::vector<Segment>& segments,
                              Accumulator& into) {
  obs::Span span("store.merge");
  std::uint64_t bytes = 0;
  std::int64_t merged = 0;
  for (Segment& segment : segments) {
    if (!segment.summarized) continue;
    const auto blob = store.read_summary(segment.partition, action);
    if (blob.empty()) continue;  // The slice kept no rows here.
    bytes += blob.size();
    ++merged;
    const auto& footer = store.footer(segment.partition);
    PartitionSummary summary =
        decode_summary(blob, footer.summaries.slice(action).kept_rows, footer.min_time_ms,
                       footer.max_time_ms, options);
    into.merge(summary.interior);
    segment.edges = SummaryEdges{.after_first = summary.last ? summary.after_first() : 0,
                                 .before_last = summary.last ? summary.before_last() : 0,
                                 .first = std::move(summary.first),
                                 .last = std::move(summary.last)};
  }
  span.attr("summaries", merged);
  return bytes;
}

/// Adds every segment's runs but the summaries' interiors to `into`, in
/// time order (an `accumulate` span).
void stitch(const std::vector<Segment>& segments, telemetry::SampleColumns samples,
            const AutoSensOptions& options, Accumulator& into, std::size_t records) {
  obs::Span span("accumulate");
  span.attr("records", static_cast<std::int64_t>(records));
  Stitcher stitcher(into, options);
  for (const Segment& segment : segments) {
    if (!segment.summarized) {
      const std::size_t count = segment.end - segment.begin;
      stitcher.add_rows({samples.times.subspan(segment.begin, count),
                         samples.latencies.subspan(segment.begin, count)});
    } else if (segment.edges) {
      stitcher.add_summary(*segment.edges);
    }
  }
  stitcher.finish();
}

}  // namespace

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
  const std::string_view fallback = summary_fallback(options, stream);
  // Every window keeps just time and latency, in one buffer all windows
  // reuse; confidence windows resample those columns too.
  telemetry::SampleBuffer samples;
  std::vector<Segment> segments;
  constexpr std::int64_t kMaxTime = std::numeric_limits<std::int64_t>::max();
  const std::int64_t max_time = store.max_time_ms();
  for (std::int64_t begin = store.min_time_ms();;) {
    // Clamped, so a huge window_ms cannot wrap: the window that reaches
    // max_time (or the end of the time axis) is the last.
    const std::int64_t end =
        begin > kMaxTime - stream.window_ms ? kMaxTime : begin + stream.window_ms;
    {
      obs::Span window_span("store.window");
      StoreWindowResult result;
      result.begin_ms = begin;
      result.end_ms = end;
      result.summary_fallback = fallback;
      samples.clear();
      segments.clear();
      selector.reset_report();
      const auto visit = [&](std::size_t partition, const telemetry::RowColumns& part) {
        const std::size_t at = samples.size();
        samples.append(part, selector);
        if (samples.size() == at) return;
        // Consecutive row segments are one stretch of the buffer.
        if (!segments.empty() && !segments.back().summarized) {
          segments.back().end = samples.size();
        } else {
          segments.push_back({.partition = partition,
                              .summarized = false,
                              .begin = at,
                              .end = samples.size(),
                              .edges = std::nullopt});
        }
      };
      const auto use_summary = [&](std::size_t partition) {
        segments.push_back({.partition = partition,
                            .summarized = true,
                            .begin = 0,
                            .end = 0,
                            .edges = std::nullopt});
        return true;
      };
      const auto scan = [&] {
        obs::Span select_span("store.select");
        return store.scan_window(begin, end, stream.action, stream.user_class,
                                 telemetry::store::StoredDataset::UserIds::kCheckOnly, visit,
                                 fallback == "none" ? use_summary
                                                    : std::function<bool(std::size_t)>{});
      }();
      telemetry::ValidationReport report = selector.report();
      result.records = samples.size();
      for (const Segment& segment : segments) {
        if (!segment.summarized) continue;
        const auto& summaries = store.footer(segment.partition).summaries;
        report.merge(summaries.report);
        result.records += summaries.slice(stream.action).kept_rows;
      }
      if (stream.scrub) telemetry::publish_validation_metrics(report);
      result.partitions_scanned = scan.partitions_scanned;
      result.partitions_pruned = scan.partitions_pruned;
      result.partitions_summarized = scan.partitions_summarized;
      result.bytes_read = scan.bytes_read;
      result.rows_decoded = scan.rows_decoded;
      if (result.records > 0) {
        try {
          if (stream.with_confidence) {
            stats::Random random(stream.confidence_seed);
            result.confidence = analyze_with_confidence(
                samples.columns(), options, stream.probe_latencies, stream.confidence, random);
            result.preference = result.confidence->point;
          } else {
            Accumulator accumulator(ClassGrid::kSlot, options);
            result.bytes_read +=
                merge_summaries(store, stream.action, options, segments, accumulator);
            stitch(segments, samples.columns(), options, accumulator, result.records);
            result.preference =
                analyze_accumulated(accumulator, samples.columns(), options).preference;
          }
        } catch (const std::invalid_argument&) {
          // Too thin to support a curve (e.g. no sample at the reference
          // latency): report the counts, leave the estimates empty.
        }
      }
      window_span.attr("partitions_scanned", static_cast<std::int64_t>(scan.partitions_scanned));
      window_span.attr("partitions_pruned", static_cast<std::int64_t>(scan.partitions_pruned));
      window_span.attr("partitions_summarized",
                       static_cast<std::int64_t>(scan.partitions_summarized));
      window_span.attr("bytes_read", static_cast<std::int64_t>(result.bytes_read));
      window_span.attr("rows_decoded", static_cast<std::int64_t>(scan.rows_decoded));
      window_span.attr("rows_selected", static_cast<std::int64_t>(result.records));
      window_span.attr("summary_fallback", std::string(fallback));
      // Inside the window's span, so whatever the caller does with a result
      // is timed with the window that produced it.
      sink(result);
    }
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

}  // namespace autosens::core
