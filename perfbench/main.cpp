// perfbench: the end-to-end AutoSens benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--scale medium|tiny] [--inject KIND]
//
// Sets the workload up three times (inputs + oracle, median reported as
// setup_s), runs one warm-up iteration, then iterates the flow for S
// seconds. Every iteration is checked against the oracle; one that throws,
// differs by a byte or breaks a collector invariant counts as failed and its
// time is dropped. --trace 0 prints the end-to-end metrics; --trace 1
// alternates untraced and traced iterations and prints the per-layer
// metrics. The last stdout line is the result JSON; the full record
// (environment, every metric, failures) goes to DIR/results/.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.h"
#include "harness.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace obs = autosens::obs;

constexpr int kSetupRepeats = 3;
constexpr double kMinCoverage = 0.9;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  bool tiny = false;
  Inject inject = Inject::kNone;
};

Inject parse_inject(const std::string& kind) {
  static const std::map<std::string, Inject> kinds = {
      {"none", Inject::kNone},         {"throw", Inject::kThrow},
      {"mismatch", Inject::kMismatch}, {"lost", Inject::kLost},
      {"timeout", Inject::kTimeout},   {"overflow", Inject::kOverflow},
      {"uncovered", Inject::kUncovered}};
  const auto found = kinds.find(kind);
  if (found == kinds.end()) throw std::invalid_argument("unknown --inject " + kind);
  return found->second;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--scale") {
      if (value != "medium" && value != "tiny") throw std::invalid_argument("bad --scale");
      args.tiny = value == "tiny";
    } else if (flag == "--inject") {
      args.inject = parse_inject(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      args.work_dir.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR "
        "[--scale medium|tiny] [--inject KIND]");
  }
  return args;
}

/// Everything the measured iterations produced.
struct Samples {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> wall_s;  ///< Untraced iterations.
  std::vector<double> traced_wall_s;
  double rows = 0.0;  ///< Untraced iterations, with cpu_s.
  double cpu_s = 0.0;
  std::vector<double> peak_rss_mib;
  std::vector<double> session_ms;  ///< Untraced iterations.
  std::vector<IterationTrace> traces;
  std::vector<std::map<std::string, double>> counts;  ///< One per trace.
  std::vector<obs::SpanRecord> spans;  ///< Start times since start_ns.
  std::int64_t start_ns = now_ns();
};

/// One checked iteration; `timed` = false for the warm-up.
void attempt(Workload& workload, const RunFlags& flags, bool timed, Samples& samples) {
  ++samples.attempted;
  auto& tracer = obs::Tracer::global();
  // Enabling restarts the tracer's epoch; shift spans back onto the run's.
  const auto epoch_us = static_cast<std::uint64_t>((now_ns() - samples.start_ns) / 1000);
  if (flags.traced) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  std::string failure;
  Iteration it;
  try {
    if (flags.inject == Inject::kThrow) throw std::runtime_error("injected failure");
    it = workload.run(flags);
    if (flags.inject == Inject::kMismatch) it.output.push_back('\x01');
    if (!it.failure.empty()) {
      failure = it.failure;
    } else if (it.output != workload.oracle()) {
      failure = "output differs from the oracle";
    }
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  std::vector<obs::SpanRecord> spans;
  if (flags.traced) {
    tracer.set_enabled(false);
    for (auto& span : tracer.snapshot()) {
      span.start_us += epoch_us;
      if (is_benchmark_span(span.name)) spans.push_back(std::move(span));
    }
    tracer.clear();
  }
  if (!failure.empty()) {
    ++samples.failed;
    samples.failures.push_back(failure);
    std::cerr << "perfbench: iteration " << samples.attempted << " failed: " << failure << "\n";
    return;
  }
  if (!timed) return;
  if (flags.traced) {
    samples.traced_wall_s.push_back(it.timing.wall_s);
    samples.traces.push_back(reduce_iteration(spans));
    samples.counts.push_back(std::move(it.counts));
    samples.spans.insert(samples.spans.end(), spans.begin(), spans.end());
  } else {
    samples.wall_s.push_back(it.timing.wall_s);
    samples.rows += static_cast<double>(it.rows);
    samples.cpu_s += it.timing.cpu_s;
    samples.peak_rss_mib.push_back(it.timing.peak_rss_mib);
    samples.session_ms.insert(samples.session_ms.end(), it.session_ms.begin(),
                              it.session_ms.end());
  }
}

double count_or_zero(const std::map<std::string, double>& counts, const std::string& name) {
  const auto found = counts.find(name);
  return found == counts.end() ? 0.0 : found->second;
}

/// Median over traced iterations of a per-iteration value.
template <typename Fn>
double per_iteration_median(const Samples& samples, const Fn& value) {
  std::vector<double> values;
  for (std::size_t i = 0; i < samples.traces.size(); ++i) {
    values.push_back(value(samples.traces[i], samples.counts[i]));
  }
  return median(std::move(values));
}

std::vector<Metric> layer_metrics(const Samples& samples, double coverage,
                                  const std::vector<Metric>& environment) {
  std::vector<Metric> metrics;
  const auto self_ms = [&](const std::string& span) {
    return per_iteration_median(samples, [&](const IterationTrace& t, const auto&) {
      return count_or_zero(t.self_ms, span);
    });
  };
  const auto count = [&](const std::string& name) {
    return per_iteration_median(
        samples, [&](const IterationTrace&, const auto& c) { return count_or_zero(c, name); });
  };
  const auto ratio = [&](const std::string& num, const std::string& den) {
    return per_iteration_median(samples, [&](const IterationTrace&, const auto& c) {
      const double d = count_or_zero(c, den);
      return d > 0.0 ? count_or_zero(c, num) / d : 0.0;
    });
  };
  metrics.push_back({"telemetry.ingest.ms", "ms", self_ms("telemetry.ingest")});
  metrics.push_back(
      {"telemetry.ingest.mib_per_s", "MiB/s",
       per_iteration_median(samples, [&](const IterationTrace& t, const auto& c) {
         const double ms = count_or_zero(t.self_ms, "telemetry.ingest");
         return ms > 0.0 ? count_or_zero(c, "telemetry.ingest.mib") / (ms / 1000.0) : 0.0;
       })});
  metrics.push_back({"telemetry.validate.ms", "ms", self_ms("telemetry.validate")});
  metrics.push_back({"telemetry.validate.kept_ratio", "ratio",
                     ratio("telemetry.validate.rows_kept", "telemetry.validate.rows_in")});
  metrics.push_back({"telemetry.filter.ms", "ms", self_ms("telemetry.filter")});
  metrics.push_back({"telemetry.filter.selectivity", "ratio",
                     ratio("telemetry.filter.rows_out", "telemetry.filter.rows_in")});
  metrics.push_back({"core.confounder_time.ms", "ms", self_ms("core.confounder_time")});
  metrics.push_back({"core.confounder_time.fallback_slots", "count",
                     count("core.confounder_time.fallback_slots")});
  metrics.push_back({"core.unbiased.ms", "ms", self_ms("core.unbiased")});
  metrics.push_back({"core.preference.ms", "ms", self_ms("core.preference")});
  metrics.push_back({"core.slices.ms", "ms", self_ms("core.slices")});
  metrics.push_back({"store.build.ms", "ms", count("store.build.ms")});
  metrics.push_back({"store.build.mib_written", "MiB", count("store.build.mib_written")});
  metrics.push_back({"store.open.ms", "ms", self_ms("store.open")});
  metrics.push_back({"store.load_window.ms", "ms", self_ms("store.load_window")});
  metrics.push_back({"store.load_window.mib_read", "MiB", count("store.load_window.mib_read")});
  metrics.push_back({"store.load_window.partitions_pruned", "count",
                     count("store.load_window.partitions_pruned")});
  metrics.push_back({"core.store_analyze.ms", "ms", self_ms("core.store_analyze")});
  metrics.push_back(
      {"net.emitter.session_ms.p50", "ms", quantile(samples.session_ms, 0.5)});
  metrics.push_back(
      {"net.emitter.session_ms.p95", "ms", quantile(samples.session_ms, 0.95)});
  metrics.push_back({"net.emitter.retries", "count", count("net.emitter.retries")});
  metrics.push_back({"net.emitter.reconnects", "count", count("net.emitter.reconnects")});
  metrics.push_back({"net.collector.serve_ms", "ms", self_ms("net.collector.serve")});
  metrics.push_back(
      {"net.collector.take_dataset_ms", "ms", self_ms("net.collector.take_dataset")});
  metrics.push_back(
      {"net.collector.duplicate_frames", "count", count("net.collector.duplicate_frames")});
  metrics.push_back({"net.collector.resyncs", "count", count("net.collector.resyncs")});
  metrics.push_back(
      {"net.collector.deadline_drops", "count", count("net.collector.deadline_drops")});
  metrics.push_back({"net.listen_overflows", "count", count("net.listen_overflows")});
  metrics.push_back({"trace.coverage", "ratio", coverage});
  const double untraced = median(samples.wall_s);
  metrics.push_back({"trace.overhead", "ratio",
                     untraced > 0.0 ? median(samples.traced_wall_s) / untraced : 0.0});
  metrics.push_back({"fail_ratio", "ratio",
                     static_cast<double>(samples.failed) /
                         static_cast<double>(samples.attempted)});
  metrics.insert(metrics.end(), environment.begin(), environment.end());
  return metrics;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

int run(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "perfbench: refusing to report from a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const std::filesystem::path work_dir(args.work_dir);
  const std::filesystem::path workload_dir = work_dir / args.workload;
  auto workload =
      make_workload(args.workload, {.dir = workload_dir, .seed = args.seed, .tiny = args.tiny});
  if (!workload) throw std::invalid_argument("unknown workload " + args.workload);
  const std::string simd(autosens::core::simd::to_string(autosens::core::simd::active_level()));

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Metric> environment = {
      {"env.effective_cpus", "cpus", effective_cpus(nproc, 0.25)},
      {"env.nproc", "count", static_cast<double>(nproc)},
      {"env.simd_level", "level",
       static_cast<double>(static_cast<int>(autosens::core::simd::active_level()))},
  };

  // Inputs and stores of an earlier run go before set-up is timed, and this
  // run's go once it has reported.
  std::filesystem::remove_all(workload_dir);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t begin = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - begin) * 1e-9);
  }

  Samples samples;
  attempt(*workload, {}, /*timed=*/false, samples);
  const auto [steal_before, ticks_before] = steal_ticks();
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    // Traced runs alternate untraced and traced iterations, so both medians
    // (and the overhead ratio) see the same machine state.
    const bool traced = args.trace && i % 2 == 1;
    const std::size_t enough = args.trace ? 4 : 2;
    if (now_ns() >= deadline && i >= enough) break;
    const bool first_of_kind = i == (traced ? 1 : 0);
    const Inject inject = first_of_kind || args.inject == Inject::kUncovered ? args.inject
                                                                             : Inject::kNone;
    attempt(*workload, {.traced = traced, .inject = inject}, /*timed=*/true, samples);
  }

  const auto [steal_after, ticks_after] = steal_ticks();
  environment.push_back({"env.steal_ratio", "ratio",
                         ticks_after > ticks_before
                             ? (steal_after - steal_before) / (ticks_after - ticks_before)
                             : 0.0});

  // Median over traced iterations: one iteration descheduled between two
  // spans by the hypervisor should not fail the run.
  std::vector<double> coverages;
  for (const auto& trace : samples.traces) {
    coverages.push_back(trace.has_root ? trace.coverage : 0.0);
  }
  const double coverage = median(coverages);
  const bool coverage_ok = !args.trace || coverage >= kMinCoverage;
  const bool correct = samples.failed == 0 && coverage_ok && !samples.wall_s.empty();
  if (!coverage_ok) {
    std::cerr << "perfbench: trace.coverage " << coverage << " < " << kMinCoverage << "\n";
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Throughput and CPU cost over all timed iterations: the host switches
    // between fast and slow phases lasting seconds, and a total follows the
    // share of time spent in each more smoothly than a per-iteration median.
    double wall_s = 0.0;
    for (const double w : samples.wall_s) wall_s += w;
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"rows_per_s", "rows/s", wall_s > 0.0 ? samples.rows / wall_s : 0.0},
        {"iter_s.p50", "s", median(samples.wall_s)},
        {"cpu_s_per_mrow", "s/Mrow", samples.rows > 0.0 ? samples.cpu_s / samples.rows * 1e6 : 0.0},
        {"peak_rss_mib", "MiB", median(samples.peak_rss_mib)},
    };
  } else {
    metrics = layer_metrics(samples, coverage, environment);
  }

  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(samples.attempted) +
                             ", \"failed\": " + std::to_string(samples.failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";

  // The full record: environment and failures next to the metrics.
  const auto results_dir = work_dir / "results";
  std::filesystem::create_directories(results_dir);
  const std::string stem = args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  {
    const auto json_array = [](const auto& items, const auto& to_json) {
      std::string out;
      for (const auto& item : items) out += (out.empty() ? "" : ", ") + to_json(item);
      return "[" + out + "]";
    };
    std::ofstream record(results_dir / (stem + ".json"));
    record << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
           << ", \"seconds\": " << json_number(args.seconds)
           << ", \"build_type\": " << json_string(build_type)
           << ", \"simd\": " << json_string(simd)
           << ", \"environment\": " << metrics_json(environment)
           << ", \"failures\": " << json_array(samples.failures, json_string)
           << ", \"iteration_wall_s\": " << json_array(samples.wall_s, json_number)
           << ", \"result\": " << result << "}\n";
  }
  if (args.trace) {
    std::ofstream chrome(results_dir / (stem + ".chrome.json"));
    obs::Tracer::global().write_chrome_trace(chrome, samples.spans);
  }
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << ", nproc " << nproc
            << ", effective cpus " << environment[0].value << ", simd " << simd << ", build "
            << build_type << "\n";
  std::cout << result << std::endl;
  workload.reset();
  std::filesystem::remove_all(workload_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
