// Figure 5 (paper §3.3): normalized latency preference for the SelectMail
// action, business vs consumer users. The paper's finding: the drop-off is
// sharper for business (paying) users; consumers are more latency-tolerant.
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "core/slices.h"
#include "report/ascii_chart.h"
#include "report/compare.h"
#include "report/csvout.h"
#include "report/table.h"
#include "simulate/presets.h"

int main() {
  using namespace autosens;
  const auto workload = bench::make_paper_workload();

  core::AutoSensOptions options;
  const auto curves = core::preference_by_user_class(workload.dataset, options,
                                                     telemetry::ActionType::kSelectMail);
  if (curves.size() != 2) {
    std::cout << "fig5: missing slice (business/consumer)\n";
    return 0;
  }
  const auto& business = curves[0].result;
  const auto& consumer = curves[1].result;

  std::cout << "Figure 5 — SelectMail preference: business vs consumer (ref 300 ms)\n\n";
  report::Table table({"latency (ms)", "business", "consumer"});
  for (const double latency : {300.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0}) {
    table.add_row({report::Table::num(latency, 0),
                   business.covers(latency) ? report::Table::num(business.at(latency)) : "-",
                   consumer.covers(latency) ? report::Table::num(consumer.at(latency)) : "-"});
  }
  table.print(std::cout);
  std::cout << '\n';

  std::vector<report::Series> chart;
  for (const auto& curve : curves) chart.push_back(report::to_series(curve));
  report::ChartOptions chart_options;
  chart_options.x_label = "latency (ms)";
  chart_options.y_label = "normalized latency preference";
  render_chart(std::cout, chart, chart_options);
  std::cout << '\n';

  // Planted ground truth: consumer drop is 0.65x the business drop.
  const auto planted_business = simulate::expected_class_curve(
      workload.config, telemetry::ActionType::kSelectMail,
      telemetry::UserClass::kBusiness, options.reference_latency_ms);
  const auto planted_consumer = simulate::expected_class_curve(
      workload.config, telemetry::ActionType::kSelectMail,
      telemetry::UserClass::kConsumer, options.reference_latency_ms);

  report::Comparison comparison("Fig 5: business steeper than consumer");
  comparison.check(business, 1000.0, planted_business(1000.0), 0.09);
  comparison.check(consumer, 1000.0, planted_consumer(1000.0), 0.09);
  comparison.check_value("consumer - business at 1000 ms (planted gap)",
                         planted_consumer(1000.0) - planted_business(1000.0),
                         consumer.at(1000.0) - business.at(1000.0), 0.08);
  comparison.check_value("ordering holds (consumer > business)", 1.0,
                         consumer.at(1000.0) > business.at(1000.0) ? 1.0 : 0.0, 0.0);
  comparison.print(std::cout);

  report::write_preference_csv_file("fig5_business_consumer.csv", curves);
  std::cout << "series written to fig5_business_consumer.csv\n";
  return 0;
}
