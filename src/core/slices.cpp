#include "core/slices.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "telemetry/select.h"

namespace autosens::core {
namespace {

using telemetry::ActionType;
using telemetry::Dataset;
using telemetry::UserClass;

/// One evaluation slice: the curve's name and the rows it keeps.
struct Slice {
  std::string name;
  telemetry::RecordFilter filter;
};

/// Select and analyze every slice (possibly in parallel — each slice selects
/// and analyzes independently) and keep the curves in slice order. A slice
/// copies only the time and latency of its rows: `analyze_slice(i, columns)`
/// returns slice i's curve; empty slices, and those it rejects with
/// std::invalid_argument (too little support), are skipped.
template <typename AnalyzeSlice>
std::vector<NamedPreference> analyze_slices(const Dataset& dataset,
                                            const std::vector<Slice>& slices, std::size_t threads,
                                            const AnalyzeSlice& analyze_slice) {
  std::vector<std::optional<NamedPreference>> results(slices.size());
  parallel_for_items(slices.size(), threads, [&](std::size_t i) {
    telemetry::SampleBuffer sliced;
    telemetry::RowSelector selector(slices[i].filter);
    sliced.append(dataset.row_columns(), selector);
    if (sliced.empty()) return;
    try {
      results[i] =
          NamedPreference{slices[i].name, analyze_slice(i, sliced.columns()), sliced.size()};
    } catch (const std::invalid_argument&) {
      // Not enough support for this slice; callers see it as absent.
    }
  });
  std::vector<NamedPreference> out;
  out.reserve(slices.size());
  for (auto& result : results) {
    if (result) out.push_back(std::move(*result));
  }
  return out;
}

std::vector<NamedPreference> analyze_slices(const Dataset& dataset,
                                            const std::vector<Slice>& slices,
                                            const AutoSensOptions& options) {
  return analyze_slices(dataset, slices, options.threads,
                        [&](std::size_t, telemetry::SampleColumns sliced) {
                          return analyze(sliced, options);
                        });
}

}  // namespace

std::vector<NamedPreference> preference_by_action(const Dataset& dataset,
                                                  const AutoSensOptions& options,
                                                  std::optional<UserClass> user_class) {
  std::vector<Slice> slices;
  for (const auto type : {ActionType::kSelectMail, ActionType::kSwitchFolder,
                          ActionType::kSearch, ActionType::kComposeSend}) {
    auto filter = telemetry::by_action(type);
    if (user_class) filter = telemetry::all_of({filter, telemetry::by_user_class(*user_class)});
    slices.push_back({std::string(telemetry::to_string(type)), std::move(filter)});
  }
  return analyze_slices(dataset, slices, options);
}

std::vector<NamedPreference> preference_by_user_class(const Dataset& dataset,
                                                      const AutoSensOptions& options,
                                                      ActionType action) {
  std::vector<Slice> slices;
  for (const auto user_class : {UserClass::kBusiness, UserClass::kConsumer}) {
    slices.push_back({std::string(telemetry::to_string(user_class)),
                      telemetry::all_of({telemetry::by_action(action),
                                         telemetry::by_user_class(user_class)})});
  }
  return analyze_slices(dataset, slices, options);
}

std::vector<NamedPreference> preference_by_quartile(const Dataset& dataset,
                                                    const Dataset& quartile_basis,
                                                    const AutoSensOptions& options,
                                                    ActionType action,
                                                    std::optional<UserClass> user_class) {
  // The four quartile filters share one read-only table.
  const telemetry::UserQuartiles quartiles(quartile_basis);
  std::vector<Slice> slices;
  for (int q = 0; q < telemetry::UserQuartiles::kQuartileCount; ++q) {
    auto filter = telemetry::all_of({telemetry::by_action(action), quartiles.in_quartile(q)});
    if (user_class) filter = telemetry::all_of({filter, telemetry::by_user_class(*user_class)});
    // Built by append (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive at -O3 that breaks Release -Werror builds.
    std::string name("Q");
    name += std::to_string(q + 1);
    slices.push_back({std::move(name), std::move(filter)});
  }
  return analyze_slices(dataset, slices, options);
}

std::vector<NamedPreference> preference_by_period(const Dataset& dataset,
                                                  const AutoSensOptions& options,
                                                  ActionType action,
                                                  UserClass user_class) {
  std::vector<Slice> slices;
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    const auto period = static_cast<telemetry::DayPeriod>(p);
    slices.push_back({std::string(telemetry::to_string(period)),
                      telemetry::all_of({telemetry::by_action(action),
                                         telemetry::by_user_class(user_class),
                                         telemetry::by_period(period)})});
  }
  // Each period is analyzed over its own daily windows.
  return analyze_slices(dataset, slices, options.threads,
                        [&](std::size_t p, telemetry::SampleColumns sliced) {
                          const auto period = static_cast<telemetry::DayPeriod>(p);
                          const auto windows = period_windows(sliced, period);
                          return analyze_over_windows(sliced, windows, options).preference;
                        });
}

std::vector<NamedPreference> preference_by_month(const Dataset& dataset,
                                                 const AutoSensOptions& options,
                                                 ActionType action) {
  if (dataset.empty()) return {};
  const std::int64_t first_month = telemetry::month_index(dataset.begin_time());
  const std::int64_t last_month = telemetry::month_index(dataset.end_time() - 1);
  std::vector<Slice> slices;
  for (std::int64_t m = first_month; m <= last_month; ++m) {
    std::string name("Month");
    name += std::to_string(m + 1);
    slices.push_back({std::move(name), telemetry::all_of({telemetry::by_action(action),
                                                          telemetry::by_month(m)})});
  }
  return analyze_slices(dataset, slices, options);
}

}  // namespace autosens::core
