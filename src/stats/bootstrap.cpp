#include "stats/bootstrap.h"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.h"
#include "stats/descriptive.h"

namespace autosens::stats {
namespace {

void check_params(std::size_t replicates, double confidence) {
  if (replicates == 0) throw std::invalid_argument("bootstrap: replicates must be nonzero");
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("bootstrap: confidence must be in (0,1)");
  }
}

Interval percentile_interval(std::vector<double>& draws, double confidence) {
  const double alpha = 1.0 - confidence;
  return Interval{.lo = quantile(draws, alpha / 2.0), .hi = quantile(draws, 1.0 - alpha / 2.0)};
}

}  // namespace

std::vector<Interval> bootstrap_curve_interval(
    std::size_t sample_size,
    const std::function<std::vector<double>(std::span<const std::size_t>)>& statistic,
    std::size_t replicates, double confidence, Random& random, std::size_t threads) {
  if (sample_size == 0) throw std::invalid_argument("bootstrap_curve_interval: empty sample");
  check_params(replicates, confidence);
  const std::uint64_t stream_base = random.engine()();
  std::vector<std::vector<double>> curves(replicates);
  core::parallel_for(replicates, threads, 1,
                     [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
                       std::vector<std::size_t> indices(sample_size);
                       for (std::size_t r = begin; r < end; ++r) {
                         Random substream(substream_seed(stream_base, r));
                         for (auto& idx : indices) {
                           idx = substream.uniform_index(sample_size);
                         }
                         curves[r] = statistic(indices);
                       }
                     });
  // Length check runs after the fan-out, in replicate order, so the first
  // offending replicate reported is the same for any thread count.
  for (std::size_t r = 1; r < replicates; ++r) {
    if (curves[r].size() != curves.front().size()) {
      throw std::runtime_error("bootstrap_curve_interval: statistic returned varying lengths");
    }
  }
  const std::size_t points = curves.front().size();
  std::vector<Interval> out(points);
  std::vector<double> column(replicates);
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t r = 0; r < replicates; ++r) column[r] = curves[r][p];
    out[p] = percentile_interval(column, confidence);
  }
  return out;
}

}  // namespace autosens::stats
