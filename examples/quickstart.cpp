// Quickstart: generate a synthetic OWA-like workload with a planted latency
// preference, run the AutoSens pipeline on it, and print the recovered
// normalized latency preference next to the planted ground truth.
//
// This is the smallest end-to-end use of the library:
//   WorkloadGenerator -> validate -> analyze -> PreferenceResult
#include <cstdio>
#include <iostream>

#include "core/pipeline.h"
#include "report/table.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

int main() {
  using namespace autosens;

  // 1. A two-week synthetic workload (use Scale::kFull for the paper runs).
  const auto config = simulate::paper_config(simulate::Scale::kSmall, /*seed=*/1);
  simulate::WorkloadGenerator generator(config);
  std::cout << "generating workload..." << std::flush;
  auto generated = generator.generate();
  std::cout << " " << generated.accepted << " actions from " << generated.candidates
            << " candidates\n";

  // 2. Scrub the telemetry (drop errors and absurd latencies), as the paper
  //    does by analyzing successful actions only.
  const auto validated = telemetry::validate(generated.dataset);
  std::cout << validated.report.summary() << "\n";

  // 3. Slice: SelectMail by business users (the paper's headline slice).
  const auto slice = validated.dataset.filtered(telemetry::all_of(
      {telemetry::by_action(telemetry::ActionType::kSelectMail),
       telemetry::by_user_class(telemetry::UserClass::kBusiness)}));
  std::cout << "SelectMail/business slice: " << slice.size() << " records\n\n";

  // 4. Run AutoSens.
  core::AutoSensOptions options;
  const auto result = core::analyze(slice, options);

  // 5. Compare with the planted ground truth at a few anchor latencies.
  const auto planted = simulate::expected_class_curve(
      config, telemetry::ActionType::kSelectMail, telemetry::UserClass::kBusiness,
      options.reference_latency_ms);
  report::Table table({"latency (ms)", "planted", "recovered"});
  for (const double latency : {300.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0}) {
    table.add_row({report::Table::num(latency, 0), report::Table::num(planted(latency)),
                   result.covers(latency) ? report::Table::num(result.at(latency))
                                          : "(no support)"});
  }
  table.print(std::cout);
  std::cout << "\nnormalized latency preference at reference ("
            << options.reference_latency_ms << " ms) = 1 by construction\n";
  return 0;
}
