// Measurement plumbing for the end-to-end benchmark: a stopwatch that times
// wall and process-CPU seconds of one flow iteration (and, in a traced run,
// opens the iteration's root span), /proc readers for peak RSS and TCP
// ListenOverflows, the effective-CPU probe, order statistics, and the
// per-layer self-time breakdown of one traced iteration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Deliberate faults the smoke test uses to prove that each invariant check
/// fires. kNone in every measured run.
enum class Inject {
  kNone,
  kThrow,     ///< The first measured iteration throws.
  kMismatch,  ///< Its output differs from the oracle by one byte.
  kLost,      ///< tcp-fanin: one delivered record goes missing from the count.
  kTimeout,   ///< tcp-fanin: the collector waits for a goodbye nobody sends.
  kOverflow,  ///< tcp-fanin: ListenOverflows reads as moved.
  kUncovered, ///< Traced iterations spend half their time outside any span.
};

/// How one iteration runs: traced (spans on, flow composed from its public
/// parts) or not, and which fault, if any, to plant in it.
struct RunFlags {
  bool traced = false;
  Inject inject = Inject::kNone;
};

/// Wall time, process CPU (user + sys, all threads) and peak RSS of one
/// timed interval.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
};

/// Times one iteration's flow. In a traced iteration the interval is also
/// the root span "iteration".
class Stopwatch {
 public:
  explicit Stopwatch(const RunFlags& flags) : flags_(flags) {}
  void start();
  Timing stop();

 private:
  RunFlags flags_;
  std::int64_t start_ns_ = 0;
  double start_cpu_s_ = 0.0;
  std::optional<autosens::obs::Span> root_;
};

std::int64_t now_ns();
double process_cpu_seconds();

/// VmHWM of this process in MiB, and a reset of it to the current RSS
/// (/proc/self/clear_refs), so a peak covers only the interval after it.
double peak_rss_mib();
void reset_peak_rss();

/// TcpExt ListenOverflows from /proc/net/netstat; nullopt when unreadable.
std::optional<std::int64_t> listen_overflows();

/// Cumulative (steal, total) CPU ticks of the machine from /proc/stat; the
/// ratio of two readings' differences is the share the hypervisor stole.
std::pair<double, double> steal_ticks();

/// CPU-seconds over wall seconds of `threads` threads spinning for
/// `seconds`: how many CPUs this process really gets, which on a shared
/// host can be far below nproc.
double effective_cpus(unsigned threads, double seconds);

/// Order statistics over a copy; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Layer spans of one traced iteration, reduced to self time per layer.
struct IterationTrace {
  std::map<std::string, double> self_ms;  ///< Keyed by span name.
  double coverage = 0.0;  ///< Root-children time over root time.
  bool has_root = false;
};

/// The span names the benchmark records, in report order; anything else the
/// tracer collected (the library's own internal spans) is dropped.
bool is_benchmark_span(const std::string& name);

/// Self time = span duration minus the durations of its direct children
/// among the benchmark's spans (children on one thread never overlap).
IterationTrace reduce_iteration(const std::vector<autosens::obs::SpanRecord>& spans);

/// A JSON number: integral values without a fraction, others with 17
/// significant digits; non-finite values (which JSON cannot hold) as 0.
std::string json_number(double value);
std::string json_string(const std::string& value);

}  // namespace perfbench
