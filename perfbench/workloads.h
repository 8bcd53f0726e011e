// The four benchmark workloads. Each one generates its inputs from the seed,
// computes an oracle with threads = 1 on an independent in-memory path, and
// runs its flow through the same public library calls the CLI makes, with
// the CLI default threads = 0.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct WorkloadConfig {
  std::filesystem::path dir;  ///< Private scratch directory for inputs and stores.
  std::uint64_t seed = 1;
  /// Smoke-test scale: 3 days x 120 users, and 16 tcp sessions of 512 records,
  /// instead of 60 days x 800 users and 256 sessions of 8192 records.
  bool tiny = false;
};

/// One flow iteration. Times cover the flow only, never the checks after it.
struct Iteration {
  Timing timing;
  std::size_t rows = 0;  ///< Input rows through the flow (records delivered, for tcp).
  std::string output;    ///< Byte image of the result, compared with the oracle.
  std::string failure;   ///< A broken invariant other than the oracle compare.
  /// Additive per-layer counts of a traced iteration (rows kept, MiB read, ...).
  std::map<std::string, double> counts;
  std::vector<double> session_ms;  ///< tcp-fanin: one emitter session each.
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs from the seed and compute the oracle. Repeatable:
  /// each call replaces the previous inputs.
  virtual void setup() = 0;
  virtual const std::string& oracle() const = 0;
  /// One iteration of the flow; throws when a library call throws.
  virtual Iteration run(const RunFlags& flags) = 0;
};

/// csv-analyze, binlog-slices, store-windows, tcp-fanin; nullptr otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadConfig& config);

}  // namespace perfbench
