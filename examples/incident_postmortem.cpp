// Incident post-mortem study: a service had outage episodes during the
// measurement window — can we still trust the latency-sensitivity estimate,
// and what did the incidents cost in user activity?
//
// Demonstrates: failure injection in the simulator, the screening test,
// robustness of the preference estimate, and bootstrap confidence intervals.
#include <cmath>
#include <iostream>

#include "core/confidence.h"
#include "core/pipeline.h"
#include "core/sensitivity.h"
#include "report/table.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

int main() {
  using namespace autosens;
  constexpr std::int64_t kDay = telemetry::kMillisPerDay;
  constexpr std::int64_t kHour = telemetry::kMillisPerHour;

  // A two-week trace with two severe business-hour incidents (~2.7x latency).
  auto config = simulate::paper_config(simulate::Scale::kSmall, 47);
  config.latency.incidents = {
      {.begin_ms = 3 * kDay + 9 * kHour, .end_ms = 3 * kDay + 15 * kHour, .log_shift = 1.0},
      {.begin_ms = 10 * kDay + 13 * kHour, .end_ms = 10 * kDay + 17 * kHour,
       .log_shift = 1.0}};

  std::cout << "simulating a 14-day trace with 2 injected incidents...\n";
  simulate::WorkloadGenerator generator(config);
  auto generated = generator.generate();
  const auto validated = telemetry::validate(generated.dataset);
  const auto slice = validated.dataset.filtered(
      telemetry::by_action(telemetry::ActionType::kSelectMail));
  std::cout << "SelectMail slice: " << slice.size() << " records\n\n";

  // 1. What did each incident cost? Compare in-incident action rate to the
  //    same hours on other days.
  report::Table cost({"incident", "actions during", "typical for those hours", "activity lost"});
  for (std::size_t i = 0; i < config.latency.incidents.size(); ++i) {
    const auto& incident = config.latency.incidents[i];
    std::size_t during = 0;
    std::size_t typical_total = 0;
    std::size_t typical_days = 0;
    const int from_hour = telemetry::hour_of_day(incident.begin_ms);
    const int hours = static_cast<int>((incident.end_ms - incident.begin_ms) / kHour);
    const std::int64_t incident_day = telemetry::day_index(incident.begin_ms);
    for (const std::int64_t time_ms : slice.times()) {
      const int hour = telemetry::hour_of_day(time_ms);
      if (hour < from_hour || hour >= from_hour + hours) continue;
      if (telemetry::day_index(time_ms) == incident_day) {
        ++during;
      } else if (telemetry::day_of_week(time_ms) ==
                 telemetry::day_of_week(incident.begin_ms)) {
        ++typical_total;
        // count this day once per record; day count tracked separately
      }
    }
    // Same weekday occurs twice in 14 days → one comparable day.
    typical_days = 1;
    const double typical = static_cast<double>(typical_total) /
                           static_cast<double>(typical_days);
    // Built by append (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive at -O3 that breaks Release -Werror builds.
    std::string label("#");
    label += std::to_string(i + 1);
    label += " (day ";
    label += std::to_string(incident_day);
    label += ", ";
    label += std::to_string(hours);
    label += "h)";
    cost.add_row({std::move(label),
                  std::to_string(during), report::Table::num(typical, 0),
                  report::Table::num(100.0 * (1.0 - static_cast<double>(during) /
                                                        std::max(typical, 1.0)),
                                     0) +
                      "%"});
  }
  cost.print(std::cout);
  std::cout << '\n';

  // 2. Is the sensitivity estimate still trustworthy? Screen + estimate with
  //    confidence intervals.
  core::AutoSensOptions options;
  const auto screening = core::screen(slice, options);
  std::cout << "screening: TV distance " << report::Table::num(screening.total_variation, 3)
            << ", mean shift " << report::Table::num(screening.mean_shift_ms, 1)
            << " ms -> " << (screening.worth_analyzing ? "analyze" : "skip") << "\n\n";

  stats::Random random(7);
  const auto result = core::analyze_with_confidence(slice.columns(), options,
                                                    {500.0, 1000.0, 1500.0},
                                                    {.replicates = 30}, random);
  report::Table curve({"latency (ms)", "NLP", "90% CI"});
  for (std::size_t p = 0; p < result.probe_latency_ms.size(); ++p) {
    if (!result.point.covers(result.probe_latency_ms[p])) continue;
    std::string interval("[");
    interval += report::Table::num(result.intervals[p].lo);
    interval += ", ";
    interval += report::Table::num(result.intervals[p].hi);
    interval += "]";
    curve.add_row({report::Table::num(result.probe_latency_ms[p], 0),
                   report::Table::num(result.point.at(result.probe_latency_ms[p])),
                   std::move(interval)});
  }
  curve.print(std::cout);

  const auto summary = core::summarize(result.point);
  std::cout << "\nverdict: SelectMail is " << core::to_string(summary.classification)
            << " (drop at 1 s: " << report::Table::num(summary.drop_at_1000ms) << ")\n";
  std::cout << "(incidents contribute genuine high-latency evidence; the preference\n"
               " estimate remains stable because AutoSens compares distributions, not\n"
               " absolute volumes)\n";
  return 0;
}
