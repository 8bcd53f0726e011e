// autosens_cli — command-line frontend to the AutoSens library.
//
//   autosens_cli generate  --out telemetry.csv [--scale small] [--seed 42]
//                          [--days N] [--users N] [--format csv|bin]
//   autosens_cli analyze   --in telemetry.csv [--action SelectMail]
//                          [--class Business|Consumer] [--ref 300]
//                          [--no-normalize] [--mc] [--confidence]
//                          [--threads N] [--out curve.csv]
//
// --threads N runs the analysis — and the parallel file ingest — on N worker
// threads (0 = all hardware threads, 1 = serial); results are byte-identical
// for every value. Also accepted by slices, summary, screen, locality,
// alpha, and replay.
//   autosens_cli slices    --in telemetry.csv --by action|class|quartile|
//                          period|month|dayclass [--action A] [--class C]
//   autosens_cli summary   --in telemetry.csv [--action A] [--class C]
//   autosens_cli screen    --in telemetry.csv [--action A]
//   autosens_cli locality  --in telemetry.csv [--action A]
//   autosens_cli alpha     --in telemetry.csv [--action A] [--class C]
//   autosens_cli collect   --out log.bin [--port 0] [--expect 1]
//                          [--timeout-ms 30000] [--read-deadline-ms -1]
//                          [--max-resync-bytes 1048576] [--checkpoint FILE]
//                          [--shards 1] [--transport tcp|udp] [--rcvbuf BYTES]
//   autosens_cli replay    --in log.bin --port PORT [--batch 1024]
//                          [--retries 5] [--backoff-ms 1] [--backoff-max-ms 1000]
//                          [--drop-on-exhausted] [--transport tcp|udp]
//   autosens_cli loadgen   --port PORT [--sessions 64] [--records 1024]
//                          [--concurrency 16] [--batch 256] [--transport tcp|udp]
//                          [--seed 42]
//   autosens_cli metrics   --in metrics.txt [--filter substr]
//   autosens_cli watch     URL [--interval-ms 1000] [--count 0] [--filter s]
//                          [--all]
//   autosens_cli store build   --in log.{csv,jsonl,bin} --out STORE_DIR
//                              [--partition-rows N] [--block-rows N]
//                              [--no-compress] [--threads N]
//   autosens_cli store info    --in STORE_DIR
//   autosens_cli store export  --in STORE_DIR --out log.bin [--batch 4096]
//   autosens_cli store analyze --in STORE_DIR [--window-days 7] [--action A]
//                              [--class C] [--ref 300] [--no-normalize] [--mc]
//                              [--confidence] [--replicates N] [--threads N]
//
// `store` converts telemetry into an ASL3 partitioned columnar directory and
// analyzes it window-by-window with O(window) memory — the out-of-core path
// for datasets larger than RAM (DESIGN.md §6e).
//
// Every command additionally accepts the observability flags (all off by
// default):
//   --metrics-out FILE   write a Prometheus text metrics snapshot on exit
//   --trace-out FILE     write a Chrome trace_event JSON file on exit
//   --stats              print a per-stage flame summary + metrics to stderr
//   --log-level LEVEL    quiet | info (default) | debug
//   --obs-listen SPEC    serve the live introspection plane (/metrics,
//                        /metrics.json, /healthz, /statusz, /tracez) on
//                        loopback while the command runs; SPEC is
//                        [127.0.0.1:]PORT (0 = ephemeral, port printed to
//                        stderr). Also starts the /proc runtime sampler.
//
// `watch` polls a live /metrics endpoint (typically another autosens process
// started with --obs-listen) and renders a top-style table of levels and
// per-second counter rates.
//
// Input files ending in .bin are read as AutoSens binary logs, anything else
// as CSV. Every analysis subcommand scrubs the input (successful actions,
// sane latencies) before running.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/confidence.h"
#include "core/confounder_dow.h"
#include "core/confounder_time.h"
#include "core/locality.h"
#include "core/pipeline.h"
#include "core/sensitivity.h"
#include "core/slices.h"
#include "core/store_analyze.h"
#include "net/collector.h"
#include "net/emitter.h"
#include "net/udp.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/server.h"
#include "obs/trace.h"
#include "report/ascii_chart.h"
#include "report/csvout.h"
#include "report/table.h"
#include "report/watch.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/binlog.h"
#include "telemetry/csv.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"
#include "telemetry/jsonl.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"
#include "tools/cli_args.h"

namespace {

using namespace autosens;

int usage() {
  std::cerr <<
      R"(usage: autosens_cli <command> [flags]

commands:
  generate   synthesize an OWA-like telemetry log with planted ground truth
  analyze    estimate the normalized latency preference of one slice
  slices     estimate curves for a family of slices (paper Figs 4-9)
  summary    one-number sensitivity summary of a slice
  screen     quick B-vs-U divergence check (is analysis worthwhile?)
  locality   MSD/MAD + density/latency locality report (paper Figs 1-2)
  alpha      time-of-day and weekday/weekend activity factors (paper Fig 8)
  collect    run a telemetry collector server, write a binary log
  replay     stream an existing log to a collector
  loadgen    drive synthetic emitter sessions at a collector (tcp or udp)
  metrics    pretty-print a Prometheus metrics snapshot written by --metrics-out
  watch      poll a live /metrics URL, render a top-style level + rate table
  store      out-of-core partitioned columnar store (build|info|export|analyze)

every command also accepts --metrics-out FILE, --trace-out FILE, --stats,
--log-level {quiet,info,debug}, and --obs-listen [127.0.0.1:]PORT, which
serves /metrics, /metrics.json, /healthz, /statusz, and /tracez on loopback
while the command runs (all observability is off by default).
run a command with wrong flags to see its flag list.
)";
  return 2;
}

/// Adds the observability flags accepted by every subcommand to a command's
/// allow-list.
std::set<std::string> with_obs(std::set<std::string> allowed) {
  allowed.insert({"metrics-out", "trace-out", "stats", "log-level", "obs-listen"});
  return allowed;
}

/// Parses a loopback endpoint spec — [http://][127.0.0.1|localhost:]PORT
/// with an optional path suffix — into the port. The introspection plane
/// binds loopback only, so any other host is rejected up front.
std::uint16_t parse_loopback_port(std::string spec, const std::string& what) {
  const std::string original = spec;
  if (spec.starts_with("http://")) spec = spec.substr(7);
  if (const auto slash = spec.find('/'); slash != std::string::npos) {
    spec = spec.substr(0, slash);
  }
  if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
    const std::string host = spec.substr(0, colon);
    if (!host.empty() && host != "127.0.0.1" && host != "localhost") {
      throw std::invalid_argument(what + ": the introspection plane is loopback-only, got host '" +
                                  host + "'");
    }
    spec = spec.substr(colon + 1);
  }
  if (spec.empty() || spec.size() > 5 ||
      spec.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(what + ": expected [127.0.0.1:]PORT, got '" + original + "'");
  }
  const long port = std::stol(spec);
  if (port > 65535) {
    throw std::invalid_argument(what + ": port out of range: " + original);
  }
  return static_cast<std::uint16_t>(port);
}

/// The live introspection plane of one CLI run: the /metrics+/statusz HTTP
/// server plus the /proc runtime sampler, both torn down when the command
/// body returns (members stop their threads in reverse order).
struct ObsPlane {
  std::optional<obs::ObsServer> server;
  std::optional<obs::RuntimeSampler> sampler;
};

/// Starts the plane when --obs-listen was given; implies full metrics +
/// trace instrumentation (an exporter over a disabled registry is useless).
void start_obs_plane(const cli::Args& args, ObsPlane& plane) {
  const auto listen = args.get("obs-listen");
  if (!listen) return;
  const auto port = parse_loopback_port(*listen, "--obs-listen");
  obs::set_enabled(true);
  obs::Tracer::global().set_enabled(true);
  plane.server.emplace(obs::ObsServerOptions{.port = port});
  plane.sampler.emplace();
  // Stderr, like the logs: stdout stays machine-readable.
  std::cerr << "obs: serving http://127.0.0.1:" << plane.server->port() << "/statusz\n";
}

/// Turns the instrumentation on before the command runs, driven by flags.
void setup_observability(const cli::Args& args) {
  if (const auto level = args.get("log-level")) {
    const auto parsed = obs::parse_log_level(*level);
    if (!parsed) {
      throw std::invalid_argument("unknown --log-level: " + *level +
                                  " (expected quiet, info, or debug)");
    }
    obs::set_log_level(*parsed);
  }
  if (args.has("metrics-out") || args.has("stats")) obs::set_enabled(true);
  if (args.has("trace-out") || args.has("stats")) obs::Tracer::global().set_enabled(true);
}

/// Counters and histogram counts are integral; print them without decimals.
std::string metric_value(double value) {
  if (std::abs(value) < 1e15 &&
      value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  return report::Table::num(value);
}

/// The --stats flame summary: per-stage span rollup (indented by nesting
/// depth) plus every nonzero metric, both on stderr so stdout stays
/// machine-readable.
void print_stats(std::ostream& out) {
  const auto aggregates = obs::Tracer::global().aggregate();
  if (!aggregates.empty()) {
    double root_total_ms = 0.0;
    for (const auto& agg : aggregates) {
      if (agg.depth == 0) root_total_ms += agg.total_ms;
    }
    out << "stage timing:\n";
    report::Table table({"stage", "count", "total (ms)", "mean (ms)", "max (ms)", "% run"});
    for (const auto& agg : aggregates) {
      const double share = root_total_ms > 0.0 ? 100.0 * agg.total_ms / root_total_ms : 0.0;
      table.add_row({std::string(2 * agg.depth, ' ') + agg.name, std::to_string(agg.count),
                     report::Table::num(agg.total_ms, 2),
                     report::Table::num(agg.total_ms / static_cast<double>(agg.count)),
                     report::Table::num(agg.max_ms), report::Table::num(share, 1)});
    }
    table.print(out);
  }

  report::Table metric_table({"metric", "value"});
  std::size_t rows = 0;
  for (const auto& sample : obs::registry().samples()) {
    if (sample.value == 0.0) continue;
    // Bucket series are noise at a glance; _sum/_count still show up.
    if (sample.name.find("_bucket{") != std::string::npos) continue;
    metric_table.add_row({sample.name, metric_value(sample.value)});
    ++rows;
  }
  if (rows > 0) {
    out << "metrics:\n";
    metric_table.print(out);
  }
}

/// Writes the --metrics-out / --trace-out files and prints --stats after the
/// command body finished.
void finish_observability(const cli::Args& args) {
  if (const auto path = args.get("metrics-out")) {
    std::ofstream out(*path);
    if (!out) throw std::runtime_error("cannot write --metrics-out file: " + *path);
    obs::registry().write_prometheus(out);
    obs::log_debug("metrics.written", {{"path", *path}});
  }
  if (const auto path = args.get("trace-out")) {
    std::ofstream out(*path);
    if (!out) throw std::runtime_error("cannot write --trace-out file: " + *path);
    obs::Tracer::global().write_chrome_trace(out);
    obs::log_debug("trace.written",
                   {{"path", *path}, {"spans", obs::Tracer::global().snapshot().size()}});
  }
  if (args.has("stats")) print_stats(std::cerr);
}

/// --threads also drives the parallel ingest engine, so one flag controls
/// both the parse and the analysis thread counts.
telemetry::IngestOptions ingest_options_from_flags(const cli::Args& args) {
  telemetry::IngestOptions options;
  options.threads = args.get_int<std::size_t>("threads", 0);
  return options;
}

telemetry::Dataset load(const std::string& path, const telemetry::IngestOptions& ingest = {}) {
  obs::Span span("load");
  span.attr("path", path);
  telemetry::Dataset dataset;
  if (path.ends_with(".bin")) {
    dataset = telemetry::read_binlog_file(path, ingest);
  } else if (path.ends_with(".jsonl")) {
    auto read = telemetry::read_jsonl_file(path, ingest);
    for (const auto& error : read.errors) {
      obs::log_info("load.parse_error", {{"line", error.line}, {"message", error.message}});
    }
    dataset = std::move(read.dataset);
  } else {
    auto read = telemetry::read_csv_file(path, ingest);
    for (const auto& error : read.errors) {
      obs::log_info("load.parse_error", {{"line", error.line}, {"message", error.message}});
    }
    dataset = std::move(read.dataset);
  }
  span.attr("records", static_cast<std::int64_t>(dataset.size()));
  return dataset;
}

telemetry::ValidatedDataset load_scrubbed(const std::string& path,
                                          const telemetry::IngestOptions& ingest = {}) {
  auto loaded = load(path, ingest);
  obs::Span span("validate");
  auto validated = telemetry::validate(loaded, {}, ingest.threads);
  span.attr("kept", static_cast<std::int64_t>(validated.report.kept));
  span.attr("dropped", static_cast<std::int64_t>(validated.report.dropped()));
  obs::log_debug("validate", {{"summary", validated.report.summary()}});
  return validated;
}

/// The --action flag, parsed; throws on an unknown name.
std::optional<telemetry::ActionType> action_flag(const cli::Args& args) {
  const auto name = args.get("action");
  if (!name) return std::nullopt;
  const auto type = telemetry::parse_action_type(*name);
  if (!type) throw std::invalid_argument("unknown action type: " + *name);
  return type;
}

/// The --class flag, parsed; throws on an unknown name.
std::optional<telemetry::UserClass> class_flag(const cli::Args& args) {
  const auto name = args.get("class");
  if (!name) return std::nullopt;
  const auto user_class = telemetry::parse_user_class(*name);
  if (!user_class) throw std::invalid_argument("unknown user class: " + *name);
  return user_class;
}

telemetry::Dataset apply_slice_flags(const telemetry::Dataset& dataset,
                                     const cli::Args& args) {
  obs::Span span("slice");
  std::vector<telemetry::RecordFilter> terms;
  if (const auto action = action_flag(args)) terms.push_back(telemetry::by_action(*action));
  if (const auto cls = class_flag(args)) terms.push_back(telemetry::by_user_class(*cls));
  if (terms.empty()) return dataset;
  return dataset.filtered(telemetry::all_of(std::move(terms)),
                          args.get_int<std::size_t>("threads", 0));
}

core::AutoSensOptions options_from_flags(const cli::Args& args) {
  core::AutoSensOptions options;
  options.reference_latency_ms = args.get_double("ref", options.reference_latency_ms);
  options.bin_width_ms = args.get_double("bin", options.bin_width_ms);
  options.max_latency_ms = args.get_double("max-latency", options.max_latency_ms);
  if (args.has("no-normalize")) options.normalize_time_confounder = false;
  if (args.has("mc")) options.unbiased_method = core::UnbiasedMethod::kMonteCarlo;
  options.threads = args.get_int<std::size_t>("threads", 0);
  return options;
}

void print_curve(const core::PreferenceResult& result) {
  report::Table table({"latency (ms)", "normalized preference"});
  for (double latency = 100.0; latency <= 2500.0; latency += 100.0) {
    if (!result.covers(latency)) continue;
    table.add_row({report::Table::num(latency, 0), report::Table::num(result.at(latency))});
  }
  table.print(std::cout);
}

int cmd_generate(const cli::Args& args) {
  args.allow_only(with_obs({"out", "scale", "seed", "days", "users", "format"}));
  const std::string out = args.require("out");
  const std::string scale_name = args.get_or("scale", "small");
  simulate::Scale scale = simulate::Scale::kSmall;
  if (scale_name == "tiny") scale = simulate::Scale::kTiny;
  else if (scale_name == "small") scale = simulate::Scale::kSmall;
  else if (scale_name == "medium") scale = simulate::Scale::kMedium;
  else if (scale_name == "full") scale = simulate::Scale::kFull;
  else throw std::invalid_argument("unknown scale: " + scale_name);

  auto config = simulate::paper_config(scale, args.get_int<std::uint64_t>("seed", 42));
  if (const auto days = args.get_int("days", 0); days > 0) {
    config.end_ms = config.begin_ms + days * telemetry::kMillisPerDay;
  }
  if (const auto users = args.get_int<std::size_t>("users", 0); users > 0) {
    config.population.user_count = users;
  }

  obs::log_info("generate.start",
                {{"users", config.population.user_count},
                 {"days", (config.end_ms - config.begin_ms) / telemetry::kMillisPerDay}});
  simulate::GeneratorResult generated;
  {
    obs::Span span("generate");
    generated = simulate::WorkloadGenerator(config).generate();
    span.attr("actions", static_cast<std::int64_t>(generated.accepted));
  }
  obs::log_info("generate.done", {{"actions", generated.accepted}});

  const std::string format = args.get_or(
      "format",
      out.ends_with(".bin") ? "bin" : (out.ends_with(".jsonl") ? "jsonl" : "csv"));
  if (format == "bin") {
    telemetry::write_binlog_file(out, generated.dataset);
  } else if (format == "csv") {
    telemetry::write_csv_file(out, generated.dataset);
  } else if (format == "jsonl") {
    telemetry::write_jsonl_file(out, generated.dataset);
  } else {
    throw std::invalid_argument("unknown format: " + format);
  }
  std::cout << "wrote " << generated.dataset.size() << " records to " << out << "\n";
  return 0;
}

int cmd_analyze(const cli::Args& args) {
  args.allow_only(with_obs({"in", "action", "class", "ref", "bin", "max-latency",
                            "no-normalize", "mc", "confidence", "replicates", "threads",
                            "out"}));
  // The span is the analysis, from the load to the curve; it ends before the
  // printing.
  std::optional<obs::Span> span(std::in_place, "analyze");
  const auto validated = load_scrubbed(args.require("in"), ingest_options_from_flags(args));
  const auto& dataset = validated.dataset;
  const auto slice = apply_slice_flags(dataset, args);
  obs::log_debug("analyze.slice", {{"records", slice.size()}});
  const auto options = options_from_flags(args);
  // Satellite: always report what the validation scrub dropped, one line on
  // stderr, however the analysis itself ends.
  struct ValidationSummary {
    const telemetry::ValidationReport& report;
    ~ValidationSummary() { std::cerr << "validation: " << report.one_line() << "\n"; }
  } summary_on_exit{validated.report};

  if (args.has("confidence")) {
    stats::Random random(17);
    core::ConfidenceOptions confidence;
    confidence.replicates = args.get_int<std::size_t>("replicates", 50);
    const auto result = core::analyze_with_confidence(
        slice.columns(), options, {500.0, 750.0, 1000.0, 1500.0, 2000.0}, confidence, random);
    span.reset();
    report::Table table({"latency (ms)", "NLP", "90% CI"});
    for (std::size_t p = 0; p < result.probe_latency_ms.size(); ++p) {
      const double latency = result.probe_latency_ms[p];
      if (!result.point.covers(latency)) continue;
      // Built by append (not operator+) to dodge a GCC 12 -Wrestrict false
      // positive at -O3 that breaks Release -Werror builds.
      std::string interval("[");
      interval += report::Table::num(result.intervals[p].lo);
      interval += ", ";
      interval += report::Table::num(result.intervals[p].hi);
      interval += "]";
      table.add_row({report::Table::num(latency, 0),
                     report::Table::num(result.point.at(latency)),
                     std::move(interval)});
    }
    table.print(std::cout);
    std::cout << "(" << result.usable_replicates << " usable bootstrap replicates)\n";
    return 0;
  }

  const auto result = core::analyze(slice, options);
  span.reset();
  print_curve(result);
  if (const auto out = args.get("out")) {
    const std::vector<core::NamedPreference> curves = {{"preference", result, slice.size()}};
    report::write_preference_csv_file(*out, curves);
    std::cout << "curve written to " << *out << "\n";
  }
  return 0;
}

int cmd_slices(const cli::Args& args) {
  args.allow_only(with_obs({"in", "by", "action", "class", "ref", "bin", "max-latency",
                            "no-normalize", "mc", "threads", "out"}));
  const std::string by = args.require("by");
  const auto options = options_from_flags(args);

  // --action (default SelectMail) is parsed only by the slicings that use it.
  const auto action = [&args] {
    return action_flag(args).value_or(telemetry::ActionType::kSelectMail);
  };
  const auto user_class = class_flag(args);

  std::vector<core::NamedPreference> curves;
  {
    // The printing below stays outside the span: the span is the analysis,
    // from the load to the last curve.
    obs::Span span("slices");
    span.attr("by", by);
    const auto dataset =
        load_scrubbed(args.require("in"), ingest_options_from_flags(args)).dataset;
    if (by == "action") {
      curves = core::preference_by_action(dataset, options, user_class);
    } else if (by == "class") {
      curves = core::preference_by_user_class(dataset, options, action());
    } else if (by == "quartile") {
      curves = core::preference_by_quartile(dataset, dataset, options, action(), user_class);
    } else if (by == "period") {
      curves = core::preference_by_period(dataset, options, action(),
                                          user_class.value_or(telemetry::UserClass::kBusiness));
    } else if (by == "month") {
      curves = core::preference_by_month(dataset, options, action());
    } else if (by == "dayclass") {
      auto slice = dataset;
      if (const auto name = args.get("action")) {
        slice = apply_slice_flags(dataset, args);
      }
      for (auto& entry : core::preference_by_day_class(slice, options)) {
        curves.push_back({std::string(core::to_string(entry.day_class)),
                          std::move(entry.preference), entry.records});
      }
    } else {
      throw std::invalid_argument("unknown --by: " + by);
    }
  }

  report::Table table({"slice", "records", "NLP@500", "NLP@1000", "NLP@1500"});
  for (const auto& curve : curves) {
    const auto value = [&curve](double latency) {
      return curve.result.covers(latency) ? report::Table::num(curve.result.at(latency))
                                          : std::string("-");
    };
    table.add_row({curve.name, std::to_string(curve.records), value(500.0), value(1000.0),
                   value(1500.0)});
  }
  table.print(std::cout);

  std::vector<report::Series> chart;
  for (const auto& curve : curves) chart.push_back(report::to_series(curve));
  report::ChartOptions chart_options;
  chart_options.x_label = "latency (ms)";
  chart_options.y_label = "preference";
  render_chart(std::cout, chart, chart_options);

  if (const auto out = args.get("out")) {
    report::write_preference_csv_file(*out, curves);
    std::cout << "series written to " << *out << "\n";
  }
  return 0;
}

int cmd_summary(const cli::Args& args) {
  args.allow_only(with_obs({"in", "action", "class", "ref", "bin", "max-latency",
                            "no-normalize", "mc", "threads"}));
  const auto dataset = load_scrubbed(args.require("in"), ingest_options_from_flags(args)).dataset;
  const auto slice = apply_slice_flags(dataset, args);
  const auto options = options_from_flags(args);
  const auto result = core::analyze(slice, options);
  const auto summary = core::summarize(result);

  report::Table table({"metric", "value"});
  table.add_row({"records", std::to_string(slice.size())});
  table.add_row({"drop at 500 ms", report::Table::num(summary.drop_at_500ms)});
  table.add_row({"drop at 1000 ms", report::Table::num(summary.drop_at_1000ms)});
  table.add_row({"drop at 2000 ms", report::Table::num(summary.drop_at_2000ms)});
  table.add_row({"slope per 100 ms", report::Table::num(summary.slope_per_100ms, 4)});
  table.add_row({"latency at NLP 0.8",
                 summary.latency_at_nlp_08 > 0.0
                     ? report::Table::num(summary.latency_at_nlp_08, 0) + " ms"
                     : "never (within support)"});
  table.add_row({"classification", std::string(core::to_string(summary.classification))});
  table.print(std::cout);
  return 0;
}

int cmd_screen(const cli::Args& args) {
  args.allow_only(
      with_obs({"in", "action", "class", "ref", "bin", "max-latency", "mc", "threads"}));
  const auto dataset = load_scrubbed(args.require("in"), ingest_options_from_flags(args)).dataset;
  const auto slice = apply_slice_flags(dataset, args);
  const auto report = core::screen(slice, options_from_flags(args));
  report::Table table({"metric", "value"});
  table.add_row({"total variation (B vs U)", report::Table::num(report.total_variation, 4)});
  table.add_row({"KS statistic", report::Table::num(report.kolmogorov_smirnov, 4)});
  table.add_row({"mean shift (ms)", report::Table::num(report.mean_shift_ms, 1)});
  table.add_row({"worth full analysis", report.worth_analyzing ? "yes" : "no"});
  table.print(std::cout);
  return 0;
}

int cmd_locality(const cli::Args& args) {
  args.allow_only(with_obs({"in", "action", "class", "window-min", "threads"}));
  const auto dataset = load_scrubbed(args.require("in"), ingest_options_from_flags(args)).dataset;
  const auto slice = apply_slice_flags(dataset, args);
  stats::Random random(7);
  core::LocalityOptions options;
  options.window_ms = args.get_int("window-min", 1) * telemetry::kMillisPerMinute;
  const auto report = core::analyze_locality(slice, options, random);
  report::Table table({"metric", "value"});
  table.add_row({"samples", std::to_string(report.samples)});
  table.add_row({"MSD/MAD actual", report::Table::num(report.msd_mad_actual)});
  table.add_row({"MSD/MAD shuffled", report::Table::num(report.msd_mad_shuffled)});
  table.add_row({"MSD/MAD sorted", report::Table::num(report.msd_mad_sorted)});
  table.add_row({"density-latency corr (raw)",
                 report::Table::num(report.density_latency_correlation)});
  table.add_row({"density-latency corr (detrended)",
                 report::Table::num(report.detrended_density_latency_correlation)});
  table.print(std::cout);
  return 0;
}

int cmd_alpha(const cli::Args& args) {
  args.allow_only(with_obs({"in", "action", "class", "threads"}));
  const auto dataset = load_scrubbed(args.require("in"), ingest_options_from_flags(args)).dataset;
  const auto slice = apply_slice_flags(dataset, args);
  core::AutoSensOptions options;
  options.threads = args.get_int<std::size_t>("threads", 0);

  const auto periods = core::alpha_by_period(slice, options);
  report::Table period_table({"period", "records", "mean alpha"});
  for (const auto& pa : periods) {
    period_table.add_row({std::string(telemetry::to_string(pa.period)),
                          std::to_string(pa.records), report::Table::num(pa.mean_alpha)});
  }
  std::cout << "time-of-day activity factor (ref 8am-2pm):\n";
  period_table.print(std::cout);

  const auto dow = core::day_class_activity(slice, options);
  std::cout << "\nweekday/weekend activity factor (ref weekday):\n";
  report::Table dow_table({"class", "records", "beta"});
  dow_table.add_row({"weekday", std::to_string(dow.weekday_records), "1.000"});
  dow_table.add_row({"weekend", std::to_string(dow.weekend_records),
                     report::Table::num(dow.beta_weekend)});
  dow_table.print(std::cout);
  return 0;
}

/// --transport tcp|udp (shared by collect, replay, loadgen).
net::Transport parse_transport(const cli::Args& args) {
  const std::string transport = args.get_or("transport", "tcp");
  if (transport == "tcp") return net::Transport::kTcp;
  if (transport == "udp") return net::Transport::kUdp;
  throw std::invalid_argument("--transport must be tcp or udp, got: " + transport);
}

int cmd_collect(const cli::Args& args) {
  args.allow_only(with_obs({"out", "port", "expect", "timeout-ms", "read-deadline-ms",
                            "max-resync-bytes", "checkpoint", "shards", "transport",
                            "rcvbuf"}));
  const std::string out = args.require("out");
  net::CollectorOptions options;
  options.port = args.get_int<std::uint16_t>("port", 0);
  options.read_deadline_ms = args.get_int<int>("read-deadline-ms", -1, -1);
  options.max_resync_bytes = args.get_int<std::size_t>("max-resync-bytes", 1 << 20);
  options.shards = args.get_int<std::size_t>("shards", 1);
  options.transport = parse_transport(args);
  // UDP defaults to a large receive buffer (capped by net.core.rmem_max):
  // emitters send unpaced bursts, and the system default (~200 KB) drops
  // most of a burst before the collector ever sees it.
  options.rcvbuf_bytes =
      args.get_int<int>("rcvbuf", options.transport == net::Transport::kUdp ? (1 << 22) : 0);
  // Every flag is checked before the listener binds.
  const auto expect = args.get_int<std::size_t>("expect", 1);
  const auto timeout_ms = args.get_int<int>("timeout-ms", 30'000, -1);
  net::Collector collector(options);
  std::cout << "listening on 127.0.0.1:" << collector.port() << "\n" << std::flush;
  const bool complete = collector.serve_until_goodbye(expect, timeout_ms);
  // Graceful degradation: on timeout, optionally checkpoint whatever arrived
  // to a separate path before (also) writing the main log, so a partial
  // collection is preserved and labelled as such.
  if (!complete && args.has("checkpoint")) {
    const std::string checkpoint = args.require("checkpoint");
    const auto written = collector.checkpoint(checkpoint);
    std::cout << "checkpointed " << written << " records to " << checkpoint << "\n";
  }
  const auto dataset = collector.take_dataset();
  const auto& stats = collector.stats();
  std::cout << "collected " << dataset.size() << " records over " << stats.connections
            << " connections (" << (complete ? "all goodbyes received" : "timed out")
            << ")\n";
  if (stats.resyncs > 0 || stats.duplicate_frames > 0 || stats.deadline_drops > 0) {
    std::cout << "recovery: " << stats.resyncs << " resyncs (" << stats.resync_bytes
              << " bytes skipped), " << stats.duplicate_frames << " duplicates dropped, "
              << stats.session_reconnects << " reconnects, " << stats.deadline_drops
              << " deadline drops\n";
  }
  if (options.transport == net::Transport::kUdp) {
    std::cout << "udp: " << stats.udp_datagrams << " datagrams, " << stats.udp_lost
              << " lost, " << stats.udp_duplicate_datagrams << " duplicates, "
              << stats.udp_rejected << " rejected\n";
  }
  telemetry::write_binlog_file(out, dataset);
  std::cout << "wrote " << out << "\n";
  return complete ? 0 : 1;
}

int cmd_replay(const cli::Args& args) {
  args.allow_only(with_obs({"in", "port", "batch", "threads", "retries", "backoff-ms",
                            "backoff-max-ms", "drop-on-exhausted", "transport"}));
  // One root span over the whole command — load, connect, emit loop — so
  // every local span and, via the wire trace context, the collector's spans
  // in the peer process hang off a single trace tree.
  obs::Span replay_span("replay");
  const auto dataset = load(args.require("in"), ingest_options_from_flags(args));
  replay_span.attr("records", static_cast<std::int64_t>(dataset.size()));
  if (parse_transport(args) == net::Transport::kUdp) {
    net::UdpEmitterOptions options;
    options.batch_size = args.get_int<std::size_t>("batch", 1024);
    net::UdpEmitter emitter(args.get_int<std::uint16_t>("port", 0), options);
    for (std::size_t i = 0; i < dataset.size(); ++i) emitter.record(dataset[i]);
    emitter.close();
    std::cout << "replayed " << emitter.sent_records() << " records in "
              << emitter.sent_frames() << " frames\n";
    std::cout << "udp: " << emitter.sent_datagrams() << " datagrams sent\n";
    return 0;
  }
  net::EmitterOptions options;
  options.batch_size = args.get_int<std::size_t>("batch", 1024);
  options.retry.max_attempts = args.get_int<std::size_t>("retries", 5);
  options.retry.backoff_initial_ms = args.get_int<std::uint32_t>("backoff-ms", 1);
  options.retry.backoff_max_ms = args.get_int<std::uint32_t>("backoff-max-ms", 1000);
  options.on_give_up = args.has("drop-on-exhausted")
                           ? net::EmitterOptions::GiveUp::kDropFrame
                           : net::EmitterOptions::GiveUp::kThrow;
  net::Emitter emitter(args.get_int<std::uint16_t>("port", 0), options);
  for (std::size_t i = 0; i < dataset.size(); ++i) emitter.record(dataset[i]);
  emitter.close();
  std::cout << "replayed " << emitter.sent_records() << " records in "
            << emitter.sent_frames() << " frames\n";
  const auto& stats = emitter.stats();
  if (stats.retries > 0 || stats.dropped_records > 0) {
    std::cout << "resilience: " << stats.retries << " retries, " << stats.reconnects
              << " reconnects, " << stats.backoff_ms << " ms backoff, "
              << stats.dropped_records << " records dropped after exhaustion\n";
  }
  return stats.dropped_records == 0 ? 0 : 1;
}

int cmd_loadgen(const cli::Args& args) {
  // Synthetic fan-in driver for the sharded collector: --sessions emitter
  // sessions, each shipping --records synthetic records, at most
  // --concurrency in flight at once (a bounded client pool working through a
  // larger session population, like the saturation bench). Pairs with
  // `collect --expect SESSIONS [--shards N] [--transport udp]`.
  args.allow_only(with_obs(
      {"port", "sessions", "records", "concurrency", "batch", "transport", "seed"}));
  const auto port = args.get_int<std::uint16_t>("port", 0);
  const auto sessions = args.get_int<std::size_t>("sessions", 64);
  const auto per_session = args.get_int<std::size_t>("records", 1024);
  const auto concurrency = std::min(sessions, args.get_int<std::size_t>("concurrency", 16));
  const auto batch = args.get_int<std::size_t>("batch", 256);
  const auto seed = args.get_int<std::uint64_t>("seed", 42);
  const bool udp = parse_transport(args) == net::Transport::kUdp;
  if (port == 0) throw std::invalid_argument("loadgen requires --port");

  // One shared record batch: loadgen measures the collector's fan-in, not
  // record variety; time_ms stays unique so the merged dataset sorts stably.
  std::vector<telemetry::ActionRecord> records;
  records.reserve(per_session);
  for (std::size_t i = 0; i < per_session; ++i) {
    records.push_back({.time_ms = static_cast<std::int64_t>(i + 1),
                       .user_id = 1 + (seed + i) % 997,
                       .latency_ms = 1.0 + 0.01 * static_cast<double>((seed + i) % 1000),
                       .action = telemetry::ActionType::kSearch,
                       .user_class = telemetry::UserClass::kConsumer,
                       .status = telemetry::ActionStatus::kSuccess});
  }

  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> sent{0};
  std::vector<std::thread> pool;
  pool.reserve(concurrency);
  for (std::size_t t = 0; t < concurrency; ++t) {
    pool.emplace_back([&] {
      for (std::size_t s = next.fetch_add(1); s < sessions; s = next.fetch_add(1)) {
        if (udp) {
          net::UdpEmitterOptions options;
          options.batch_size = batch;
          options.session_id = seed * 1'000'003 + s + 1;
          net::UdpEmitter emitter(port, options);
          for (const auto& r : records) emitter.record(r);
          emitter.close();
          sent.fetch_add(emitter.sent_records());
        } else {
          net::EmitterOptions options;
          options.batch_size = batch;
          options.session_id = seed * 1'000'003 + s + 1;
          net::Emitter emitter(port, options);
          for (const auto& r : records) emitter.record(r);
          emitter.close();
          sent.fetch_add(emitter.sent_records());
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  const auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  const double rate = elapsed.count() > 0.0
                          ? static_cast<double>(sent.load()) / elapsed.count()
                          : 0.0;
  std::cout << "loadgen: " << sent.load() << " records over " << sessions << " "
            << (udp ? "udp" : "tcp") << " sessions in "
            << static_cast<std::int64_t>(elapsed.count() * 1000.0) << " ms ("
            << static_cast<std::int64_t>(rate) << " records/s)\n";
  return 0;
}

int cmd_metrics(const cli::Args& args) {
  args.allow_only(with_obs({"in", "filter"}));
  const std::string path = args.require("in");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open metrics file: " + path);
  const auto samples = obs::parse_prometheus(in);
  const std::string filter = args.get_or("filter", "");

  report::Table table({"metric", "value"});
  std::size_t shown = 0;
  for (const auto& sample : samples) {
    if (!filter.empty() && sample.name.find(filter) == std::string::npos) continue;
    table.add_row({sample.name, metric_value(sample.value)});
    ++shown;
  }
  table.print(std::cout);
  std::cout << shown << "/" << samples.size() << " samples\n";
  return 0;
}

int cmd_watch(const std::string& url, const cli::Args& args) {
  args.allow_only(with_obs({"interval-ms", "count", "filter", "all"}));
  const std::uint16_t port = parse_loopback_port(url, "watch URL");
  const auto interval_ms = args.get_int("interval-ms", 1000);
  if (interval_ms <= 0) throw std::invalid_argument("--interval-ms must be > 0");
  const auto count = args.get_int("count", 0);  // 0 = until interrupted
  const std::string filter = args.get_or("filter", "");
  // Only a real terminal gets the clear-screen top-style refresh; piped
  // output gets one table per scrape.
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  std::vector<obs::Sample> previous;
  auto last_scrape = std::chrono::steady_clock::now();
  for (std::int64_t scrape = 0; count == 0 || scrape < count; ++scrape) {
    if (scrape > 0) std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const auto response = obs::http_get(port, "/metrics");
    if (response.status != 200) {
      throw std::runtime_error("scrape failed: HTTP " + std::to_string(response.status));
    }
    std::istringstream body(response.body);
    auto samples = obs::parse_prometheus(body);
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - last_scrape).count();
    last_scrape = now;

    auto rows = report::watch_rows(previous, samples, scrape == 0 ? 0.0 : dt);
    if (!filter.empty()) {
      std::erase_if(rows, [&filter](const report::WatchRow& row) {
        return row.name.find(filter) == std::string::npos;
      });
    }
    if (tty && count != 1) std::cout << "\x1b[2J\x1b[H";
    std::cout << "autosens watch 127.0.0.1:" << port << "  scrape " << (scrape + 1) << "  ("
              << samples.size() << " samples, " << rows.size() << " matched)\n";
    report::watch_table(rows, !args.has("all")).print(std::cout);
    std::cout << std::flush;
    previous = std::move(samples);
  }
  return 0;
}

int store_usage() {
  std::cerr << "usage: autosens_cli store <build|info|export|analyze> [flags]\n"
               "  build   --in log.{csv,jsonl,bin} --out STORE_DIR [--partition-rows N]\n"
               "          [--block-rows N] [--no-compress] [--threads N]\n"
               "  info    --in STORE_DIR\n"
               "  export  --in STORE_DIR --out log.bin [--batch 4096]\n"
               "  analyze --in STORE_DIR [--window-days 7] [--action A] [--class C]\n"
               "          [--ref 300] [--no-normalize] [--mc] [--confidence]\n"
               "          [--replicates N] [--threads N]\n";
  return 2;
}

std::string mib(std::uint64_t bytes) {
  return report::Table::num(static_cast<double>(bytes) / (1024.0 * 1024.0), 2);
}

int cmd_store_build(const cli::Args& args) {
  args.allow_only(with_obs(
      {"in", "out", "partition-rows", "block-rows", "no-compress", "threads"}));
  const std::string in = args.require("in");
  const std::string out = args.require("out");
  telemetry::store::StoreOptions options;
  options.partition_rows = args.get_int<std::uint64_t>("partition-rows", options.partition_rows);
  options.block_rows = args.get_int<std::uint32_t>("block-rows", options.block_rows);
  options.compress = !args.has("no-compress");

  obs::Span span("store_build");
  span.attr("in", in);
  std::uint64_t rows = 0;
  if (in.ends_with(".bin")) {
    // Sorted binlogs stream through O(partition) memory.
    rows = telemetry::store::build_store_from_binlog(in, out, options,
                                                     ingest_options_from_flags(args));
  } else {
    const telemetry::IngestOptions ingest = ingest_options_from_flags(args);
    auto dataset = load(in, ingest);
    dataset.sort_by_time(ingest.threads);
    telemetry::store::build_store(dataset, out, options);
    rows = dataset.size();
  }
  span.attr("rows", static_cast<std::int64_t>(rows));
  const auto store = telemetry::store::StoredDataset::open(out);
  std::cout << "wrote " << rows << " rows in " << store.partitions().size()
            << " partitions to " << out << " (" << mib(store.raw_bytes()) << " MiB raw, "
            << mib(store.stored_bytes()) << " MiB stored)\n";
  return 0;
}

int cmd_store_info(const cli::Args& args) {
  args.allow_only(with_obs({"in"}));
  const auto store = telemetry::store::StoredDataset::open(args.require("in"));
  report::Table table(
      {"partition", "day", "rows", "time range (ms)", "raw MiB", "stored MiB", "ratio"});
  for (const auto& p : store.partitions()) {
    const double ratio = p.raw_bytes > 0
                             ? static_cast<double>(p.stored_bytes) /
                                   static_cast<double>(p.raw_bytes)
                             : 0.0;
    std::string range = std::to_string(p.min_time_ms);
    range += "..";
    range += std::to_string(p.max_time_ms);
    table.add_row({p.dir_name, std::to_string(p.day), std::to_string(p.rows),
                   std::move(range), mib(p.raw_bytes), mib(p.stored_bytes),
                   report::Table::num(ratio, 3)});
  }
  table.print(std::cout);
  const double ratio = store.raw_bytes() > 0
                           ? static_cast<double>(store.stored_bytes()) /
                                 static_cast<double>(store.raw_bytes())
                           : 0.0;
  const double summary_share = store.stored_bytes() > 0
                                   ? 100.0 * static_cast<double>(store.summary_bytes()) /
                                         static_cast<double>(store.stored_bytes())
                                   : 0.0;
  std::cout << store.partitions().size() << " partitions, " << store.rows() << " rows, "
            << mib(store.raw_bytes()) << " MiB raw, " << mib(store.stored_bytes())
            << " MiB stored (ratio " << report::Table::num(ratio, 3) << ")\n"
            << "summaries: " << mib(store.summary_bytes()) << " MiB ("
            << report::Table::num(summary_share, 1) << "% of stored)\n";
  return 0;
}

int cmd_store_export(const cli::Args& args) {
  args.allow_only(with_obs({"in", "out", "batch"}));
  const auto store = telemetry::store::StoredDataset::open(args.require("in"));
  const std::string out = args.require("out");
  obs::Span span("store_export");
  telemetry::store::export_binlog(store, out, args.get_int<std::size_t>("batch", 4096));
  std::cout << "exported " << store.rows() << " rows to " << out << "\n";
  return 0;
}

int cmd_store_analyze(const cli::Args& args) {
  args.allow_only(with_obs({"in", "window-days", "action", "class", "ref", "bin",
                            "max-latency", "no-normalize", "mc", "confidence", "replicates",
                            "threads"}));
  const auto store = telemetry::store::StoredDataset::open(args.require("in"));
  const auto options = options_from_flags(args);

  core::StoreStreamOptions stream;
  stream.window_ms =
      args.get_int<std::int64_t>("window-days", 7, 1,
                                 std::numeric_limits<std::int64_t>::max() /
                                     telemetry::kMillisPerDay) *
      telemetry::kMillisPerDay;
  stream.action = action_flag(args);
  stream.user_class = class_flag(args);
  stream.with_confidence = args.has("confidence");
  stream.confidence.replicates = args.get_int<std::size_t>("replicates", 50);
  stream.probe_latencies = {500.0, 750.0, 1000.0, 1500.0, 2000.0};

  report::Table table({"window (day)", "records", "scanned", "pruned", "summarized",
                       "NLP@500", "NLP@1000", "NLP@2000"});
  std::size_t windows = 0;
  std::uint64_t bytes_read = 0;
  const auto nlp_at = [](const std::optional<core::PreferenceResult>& preference,
                         double latency) -> std::string {
    if (!preference.has_value() || !preference->covers(latency)) return "-";
    return report::Table::num(preference->at(latency));
  };
  {
    // The printing below stays outside the span: the span is the analysis,
    // whose windows (and the rows they add to the table) are all spanned.
    obs::Span span("store_analyze");
    core::analyze_store_windows(store, options, stream, [&](const core::StoreWindowResult& w) {
      ++windows;
      bytes_read += w.bytes_read;
      std::string window = std::to_string(telemetry::day_index(w.begin_ms));
      window += "..";
      window += std::to_string(telemetry::day_index(w.end_ms - 1));
      table.add_row({std::move(window), std::to_string(w.records),
                     std::to_string(w.partitions_scanned), std::to_string(w.partitions_pruned),
                     std::to_string(w.partitions_summarized), nlp_at(w.preference, 500.0),
                     nlp_at(w.preference, 1000.0), nlp_at(w.preference, 2000.0)});
    });
  }
  table.print(std::cout);
  std::cout << windows << " windows, " << mib(bytes_read) << " MiB read of "
            << mib(store.stored_bytes()) << " MiB stored\n";
  return 0;
}

int cmd_store(const std::string& verb, const cli::Args& args) {
  if (verb == "build") return cmd_store_build(args);
  if (verb == "info") return cmd_store_info(args);
  if (verb == "export") return cmd_store_export(args);
  if (verb == "analyze") return cmd_store_analyze(args);
  std::cerr << "unknown store verb: " << verb << "\n";
  return store_usage();
}

int dispatch(const std::string& command, const cli::Args& args) {
  if (command == "generate") return cmd_generate(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "slices") return cmd_slices(args);
  if (command == "summary") return cmd_summary(args);
  if (command == "screen") return cmd_screen(args);
  if (command == "locality") return cmd_locality(args);
  if (command == "alpha") return cmd_alpha(args);
  if (command == "collect") return cmd_collect(args);
  if (command == "replay") return cmd_replay(args);
  if (command == "loadgen") return cmd_loadgen(args);
  if (command == "metrics") return cmd_metrics(args);
  std::cerr << "unknown command: " << command << "\n";
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    // `watch <url>` takes a positional URL, unlike every other subcommand.
    if (command == "watch") {
      if (argc < 3 || std::string(argv[2]).starts_with("--")) {
        std::cerr << "usage: autosens_cli watch URL [--interval-ms N] [--count N] "
                     "[--filter substr] [--all]\n";
        return 2;
      }
      const cli::Args args(argc, argv, 3, {"all", "stats"});
      setup_observability(args);
      const int code = cmd_watch(argv[2], args);
      finish_observability(args);
      return code;
    }
    // `store <verb>` takes a positional verb, like watch's URL.
    if (command == "store") {
      if (argc < 3 || std::string(argv[2]).starts_with("--")) return store_usage();
      const cli::Args args(argc, argv, 3,
                           {"no-normalize", "no-compress", "mc", "confidence", "stats"});
      setup_observability(args);
      ObsPlane plane;
      start_obs_plane(args, plane);
      const int code = cmd_store(argv[2], args);
      finish_observability(args);
      return code;
    }
    const cli::Args args(argc, argv, 2,
                         {"no-normalize", "mc", "confidence", "stats", "drop-on-exhausted"});
    setup_observability(args);
    // Cross-process traces: the collector side salts its span ids with a
    // distinct process tag so emitter and collector spans from a replay |
    // collect pair never collide under the shared trace id.
    if (command == "collect") obs::Tracer::global().set_process(2);
    ObsPlane plane;
    start_obs_plane(args, plane);
    const int code = dispatch(command, args);
    finish_observability(args);
    return code;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
