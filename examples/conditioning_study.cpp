// Conditioning-to-speed study (paper §3.4): do users who are used to a fast
// service react more strongly to latency? Groups users into quartiles by
// their per-user median latency and compares the quartiles' normalized
// latency preference at a probe latency, including bootstrap confidence
// intervals on the per-quartile drop.
#include <iostream>
#include <vector>

#include "core/pipeline.h"
#include "core/slices.h"
#include "report/ascii_chart.h"
#include "report/csvout.h"
#include "report/table.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/bootstrap.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

int main() {
  using namespace autosens;

  std::cout << "generating synthetic workload...\n";
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, 13))
          .generate();
  const auto validated = telemetry::validate(generated.dataset);
  const auto consumers = validated.dataset.filtered(
      telemetry::by_user_class(telemetry::UserClass::kConsumer));

  const telemetry::UserQuartiles quartiles(consumers);
  std::cout << "users: " << quartiles.user_count()
            << ", median-latency quartile boundaries: " << quartiles.boundaries()[0] << " / "
            << quartiles.boundaries()[1] << " / " << quartiles.boundaries()[2] << " ms\n\n";

  core::AutoSensOptions options;
  const auto curves = core::preference_by_quartile(consumers, consumers, options,
                                                   telemetry::ActionType::kSelectMail);

  constexpr double kProbeMs = 1000.0;
  report::Table table({"quartile", "records", "NLP@1000ms", "drop", "drop 90% CI"});
  stats::Random random(17);
  for (std::size_t q = 0; q < curves.size(); ++q) {
    const auto& curve = curves[q];
    if (!curve.result.covers(kProbeMs)) {
      table.add_row({curve.name, std::to_string(curve.records), "-", "-", "-"});
      continue;
    }
    const double nlp = curve.result.at(kProbeMs);

    // Bootstrap the drop by resampling users' records within the quartile.
    const auto slice = consumers.filtered(telemetry::all_of(
        {telemetry::by_action(telemetry::ActionType::kSelectMail),
         quartiles.in_quartile(static_cast<int>(q))}));
    const auto statistic = [&](std::span<const std::size_t> indices) {
      auto resampled = slice.gather(indices);
      resampled.sort_by_time();
      try {
        const auto result = core::analyze(resampled, options);
        return std::vector<double>{result.covers(kProbeMs) ? 1.0 - result.at(kProbeMs) : 0.0};
      } catch (const std::exception&) {
        return std::vector<double>{0.0};
      }
    };
    const auto intervals =
        stats::bootstrap_curve_interval(slice.size(), statistic, 20, 0.9, random);
    // Built by append (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive at -O3 that breaks Release -Werror builds.
    std::string interval("[");
    interval += report::Table::num(intervals[0].lo);
    interval += ", ";
    interval += report::Table::num(intervals[0].hi);
    interval += "]";
    table.add_row({curve.name, std::to_string(curve.records), report::Table::num(nlp),
                   report::Table::num(1.0 - nlp), std::move(interval)});
  }
  table.print(std::cout);
  std::cout << "\nExpected (planted): the drop decreases monotonically from Q1 (fastest\n"
               "users, most sensitive) to Q4 (slowest users, least sensitive).\n\n";

  std::vector<report::Series> chart;
  for (const auto& curve : curves) chart.push_back(report::to_series(curve));
  report::ChartOptions chart_options;
  chart_options.title = "conditioning to speed: preference by quartile";
  chart_options.x_label = "latency (ms)";
  chart_options.y_label = "preference";
  render_chart(std::cout, chart, chart_options);
  return 0;
}
