#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr const char* kBenchmarkSpans[] = {
    "iteration",
    "telemetry.ingest",
    "telemetry.validate",
    "telemetry.filter",
    "core.confounder_time",
    "core.unbiased",
    "core.preference",
    "core.slices",
    "store.open",
    "store.load_window",
    "core.store_analyze",
    "net.collector.serve",
    "net.collector.take_dataset",
    "net.emitter.session",
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void Stopwatch::start() {
  // Return what earlier iterations freed to the kernel, so each iteration's
  // peak (and page-fault work) starts from the same heap, as a fresh CLI
  // process would, instead of from whatever the allocator kept.
  malloc_trim(0);
  reset_peak_rss();
  if (flags_.traced) root_.emplace("iteration");
  start_cpu_s_ = process_cpu_seconds();
  start_ns_ = now_ns();
}

Timing Stopwatch::stop() {
  if (flags_.traced && flags_.inject == Inject::kUncovered) {
    // Time inside the root span that no layer span covers.
    std::this_thread::sleep_for(std::chrono::nanoseconds(now_ns() - start_ns_));
  }
  Timing timing;
  timing.wall_s = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  timing.cpu_s = process_cpu_seconds() - start_cpu_s_;
  root_.reset();
  timing.peak_rss_mib = peak_rss_mib();
  return timing;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::optional<std::int64_t> listen_overflows() {
  std::ifstream netstat("/proc/net/netstat");
  std::string header;
  std::string values;
  while (std::getline(netstat, header) && std::getline(netstat, values)) {
    if (header.rfind("TcpExt:", 0) != 0) continue;
    std::istringstream names(header);
    std::istringstream numbers(values);
    std::string name;
    std::string number;
    while (names >> name && numbers >> number) {
      if (name == "ListenOverflows") return std::stoll(number);
    }
  }
  return std::nullopt;
}

std::pair<double, double> steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  double total = 0.0;
  double steal = 0.0;
  double ticks = 0.0;
  for (int field = 0; field < 8 && stat >> ticks; ++field) {
    total += ticks;
    if (field == 7) steal = ticks;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

double effective_cpus(unsigned threads, double seconds) {
  std::vector<double> cpu(threads, 0.0);
  std::vector<std::thread> pool;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&cpu, t, deadline] {
      const double begin = thread_cpu_seconds();
      while (now_ns() < deadline) {
      }
      cpu[t] = thread_cpu_seconds() - begin;
    });
  }
  for (auto& thread : pool) thread.join();
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;
  double total = 0.0;
  for (const double c : cpu) total += c;
  return wall > 0.0 ? total / wall : 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

bool is_benchmark_span(const std::string& name) {
  return std::find(std::begin(kBenchmarkSpans), std::end(kBenchmarkSpans), name) !=
         std::end(kBenchmarkSpans);
}

IterationTrace reduce_iteration(const std::vector<autosens::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_us;
  for (const auto& span : spans) {
    if (span.parent != 0) child_us[span.parent] += static_cast<double>(span.duration_us);
  }
  IterationTrace trace;
  for (const auto& span : spans) {
    const double children = child_us.count(span.id) ? child_us[span.id] : 0.0;
    if (span.name == "iteration") {
      trace.has_root = true;
      trace.coverage =
          span.duration_us > 0 ? children / static_cast<double>(span.duration_us) : 1.0;
      continue;
    }
    trace.self_ms[span.name] += (static_cast<double>(span.duration_us) - children) / 1000.0;
  }
  return trace;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  }
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
