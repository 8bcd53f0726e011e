#include "telemetry/validate.h"

#include <sstream>

#include "obs/metrics.h"
#include "telemetry/filter.h"
#include "telemetry/select.h"

namespace autosens::telemetry {
namespace {

/// Pre-registered per-reason drop counters (one per rejection cause, labeled
/// Prometheus-style) plus totals for the validation stage.
struct ValidateMetrics {
  obs::Counter& total = obs::registry().counter(
      "autosens_validate_records_total", "Records entering validation");
  obs::Counter& kept = obs::registry().counter(
      "autosens_validate_records_kept_total", "Records surviving validation");
  obs::Counter& error_status = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"error_status\"}",
      "Records dropped by validation, by reason");
  obs::Counter& nonpositive = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"nonpositive_latency\"}",
      "Records dropped by validation, by reason");
  obs::Counter& excessive = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"excessive_latency\"}",
      "Records dropped by validation, by reason");
  obs::Counter& nonfinite = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"nonfinite_latency\"}",
      "Records dropped by validation, by reason");
  obs::Counter& bad_timestamp = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"bad_timestamp\"}",
      "Records dropped by validation, by reason");
  obs::Counter& out_of_window = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"out_of_window\"}",
      "Records dropped by validation, by reason");
};

ValidateMetrics& metrics() {
  static ValidateMetrics handles;
  return handles;
}

void append_reason(std::ostream& out, bool& first, const char* name, std::size_t count) {
  if (count == 0) return;
  out << (first ? "" : ", ") << name << " " << count;
  first = false;
}

}  // namespace

std::string ValidationReport::summary() const {
  std::ostringstream out;
  out << "validated " << total << " records: kept " << kept << ", dropped " << dropped()
      << " (error-status " << dropped_error_status << ", nonpositive-latency "
      << dropped_nonpositive_latency << ", excessive-latency " << dropped_excessive_latency
      << ", nonfinite-latency " << dropped_nonfinite_latency << ", bad-timestamp "
      << dropped_bad_timestamp << ", out-of-window " << dropped_out_of_window << ")";
  return out.str();
}

std::string ValidationReport::one_line() const {
  std::ostringstream out;
  out << "kept " << kept << "/" << total;
  if (dropped() == 0) return out.str();
  out << " (dropped: ";
  bool first = true;
  append_reason(out, first, "error-status", dropped_error_status);
  append_reason(out, first, "nonpositive-latency", dropped_nonpositive_latency);
  append_reason(out, first, "excessive-latency", dropped_excessive_latency);
  append_reason(out, first, "nonfinite-latency", dropped_nonfinite_latency);
  append_reason(out, first, "bad-timestamp", dropped_bad_timestamp);
  append_reason(out, first, "out-of-window", dropped_out_of_window);
  out << ")";
  return out.str();
}

ValidatedDataset validate(const Dataset& input, const ValidationOptions& options,
                          std::size_t threads) {
  // Every check reads only time, latency and status; the kernel copies all
  // six columns of the kept rows, in input order.
  ValidatedDataset result = select_rows(input, RowSelector(RecordFilter{}, options), threads);
  result.dataset.sort_by_time();
  publish_validation_metrics(result.report);
  return result;
}

void publish_validation_metrics(const ValidationReport& report) {
  auto& m = metrics();
  m.total.inc(report.total);
  m.kept.inc(report.kept);
  m.error_status.inc(report.dropped_error_status);
  m.nonpositive.inc(report.dropped_nonpositive_latency);
  m.excessive.inc(report.dropped_excessive_latency);
  m.nonfinite.inc(report.dropped_nonfinite_latency);
  m.bad_timestamp.inc(report.dropped_bad_timestamp);
  m.out_of_window.inc(report.dropped_out_of_window);
}

}  // namespace autosens::telemetry
