// Ablations of AutoSens design choices (DESIGN.md §5):
//
//   A. Unbiased-distribution estimator: the paper's Monte-Carlo
//      nearest-sample procedure vs the exact Voronoi expectation — MC
//      converges to Voronoi as the draw count grows, at linear cost.
//   B. Time-confounder normalization: preference recovery error with and
//      without α-normalization on a confounded workload.
//   C. Number of α reference slots: stability of the recovered curve as the
//      "multiple references averaged" count varies.
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench/common.h"
#include "core/pipeline.h"
#include "report/compare.h"
#include "report/table.h"
#include "simulate/presets.h"
#include "telemetry/filter.h"

namespace {

double l1_pdf_distance(const autosens::stats::Histogram& a,
                       const autosens::stats::Histogram& b) {
  const auto pa = a.pdf();
  const auto pb = b.pdf();
  double l1 = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    l1 += std::abs(pa[i] - pb[i]) * a.bin_width();
  }
  return l1;
}

}  // namespace

int main() {
  using namespace autosens;
  const auto workload = bench::make_paper_workload();
  const auto slice = workload.dataset.filtered(telemetry::all_of(
      {telemetry::by_action(telemetry::ActionType::kSelectMail),
       telemetry::by_user_class(telemetry::UserClass::kBusiness)}));

  // --- Ablation A: Monte Carlo vs exact Voronoi -------------------------
  std::cout << "Ablation A — Monte-Carlo vs exact (Voronoi) unbiased estimator\n\n";
  core::AutoSensOptions options;
  const auto times = slice.times();
  const auto latencies = slice.latencies();
  const core::TimeWindow window{.begin_ms = slice.begin_time(), .end_ms = slice.end_time()};

  const auto t0 = std::chrono::steady_clock::now();
  const auto exact = core::unbiased_histogram_voronoi(times, latencies, window, options);
  const auto t1 = std::chrono::steady_clock::now();
  const double exact_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

  report::Table table({"draws", "L1 distance to exact", "time (ms)"});
  double last_l1 = 1.0;
  for (const std::size_t draws : {1'000ul, 10'000ul, 100'000ul, 1'000'000ul}) {
    auto mc_options = options;
    mc_options.unbiased_draws = draws;
    stats::Random random(11);
    const auto begin = std::chrono::steady_clock::now();
    const auto mc = core::unbiased_histogram_mc(times, latencies, window, mc_options, random);
    const auto end = std::chrono::steady_clock::now();
    last_l1 = l1_pdf_distance(mc, exact);
    table.add_row({std::to_string(draws), report::Table::num(last_l1, 4),
                   report::Table::num(
                       std::chrono::duration<double, std::milli>(end - begin).count(), 1)});
  }
  table.add_row({"exact (Voronoi)", "0.0000", report::Table::num(exact_ms, 1)});
  table.print(std::cout);
  std::cout << '\n';

  report::Comparison ablation_a("Ablation A: MC converges to the exact estimator");
  ablation_a.check_value("L1(mc 1M draws, exact) ~ 0", 0.0, last_l1, 0.02);
  ablation_a.print(std::cout);

  // --- Ablation B: with vs without alpha-normalization ------------------
  std::cout << "Ablation B — naive pooling vs alpha-normalization\n\n";
  const auto planted = simulate::expected_class_curve(
      workload.config, telemetry::ActionType::kSelectMail, telemetry::UserClass::kBusiness,
      options.reference_latency_ms);
  auto naive_options = options;
  naive_options.normalize_time_confounder = false;
  const auto normalized = core::analyze(slice, options);
  const auto naive = core::analyze(slice, naive_options);

  report::Table recovery({"latency (ms)", "planted", "normalized", "naive"});
  double err_normalized = 0.0;
  double err_naive = 0.0;
  std::size_t probes = 0;
  for (const double latency : {500.0, 750.0, 1000.0, 1250.0, 1500.0}) {
    if (!normalized.covers(latency) || !naive.covers(latency)) continue;
    recovery.add_row({report::Table::num(latency, 0), report::Table::num(planted(latency)),
                      report::Table::num(normalized.at(latency)),
                      report::Table::num(naive.at(latency))});
    err_normalized += std::abs(normalized.at(latency) - planted(latency));
    err_naive += std::abs(naive.at(latency) - planted(latency));
    ++probes;
  }
  recovery.print(std::cout);
  err_normalized /= static_cast<double>(probes);
  err_naive /= static_cast<double>(probes);
  std::cout << "\nmean |error| vs planted: normalized "
            << report::Table::num(err_normalized) << ", naive "
            << report::Table::num(err_naive) << "\n\n";

  report::Comparison ablation_b("Ablation B: normalization reduces recovery error");
  ablation_b.check_value("normalized error < naive error", 1.0,
                         err_normalized < err_naive ? 1.0 : 0.0, 0.0);
  ablation_b.print(std::cout);

  // --- Ablation C: number of alpha reference slots ----------------------
  std::cout << "Ablation C — sensitivity to the number of alpha reference slots\n\n";
  report::Table refs_table({"reference slots", "pref @ 1000 ms", "|delta| vs 8 refs"});
  auto eight = options;
  eight.alpha_reference_slots = 8;
  const double baseline = core::analyze(slice, eight).at(1000.0);
  double max_delta = 0.0;
  for (const std::size_t refs : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    auto ref_options = options;
    ref_options.alpha_reference_slots = refs;
    const double value = core::analyze(slice, ref_options).at(1000.0);
    const double delta = std::abs(value - baseline);
    max_delta = std::max(max_delta, delta);
    refs_table.add_row({std::to_string(refs), report::Table::num(value),
                        report::Table::num(delta, 4)});
  }
  refs_table.print(std::cout);
  std::cout << '\n';

  report::Comparison ablation_c("Ablation C: result stable across reference choices");
  ablation_c.check_value("max delta over reference counts", 0.0, max_delta, 0.03);
  ablation_c.print(std::cout);
  return 0;
}
