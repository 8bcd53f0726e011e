// The evaluation slices of the paper, packaged: per action type (§3.2),
// business vs consumer (§3.3), conditioning-to-speed quartiles (§3.4),
// time-of-day periods (§3.6), and months (§3.7). Each returns named
// preference curves ready for reporting.
//
// A family of K slices is one keyed pass over the dataset (DESIGN.md §6b),
// not K selects: every row gets the key of the slice it joins, each chunk
// of kSliceChunkRows rows fills one accumulator per slice it holds, and the
// partials merge exactly. Every curve is byte-identical to analyze() (or
// analyze_over_windows() for periods) on the slice's rows, for any thread
// count. Each family throws std::invalid_argument on an unsorted dataset;
// slices that are empty or too thin to support a curve are skipped.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/pipeline.h"
#include "telemetry/dataset.h"
#include "telemetry/filter.h"

namespace autosens::core {

/// Rows per chunk of the keyed pass, before each chunk bound moves to the
/// next duplicate-time run start. Each chunk pays for one zeroed
/// accumulator per slice it holds (about 70 KiB at the default geometry),
/// so chunks stay large; its scatter buffers stay chunk-sized.
inline constexpr std::size_t kSliceChunkRows = std::size_t{1} << 16;

struct NamedPreference {
  std::string name;
  PreferenceResult result;
  std::size_t records = 0;
};

/// One curve per action type (SelectMail, SwitchFolder, Search, ComposeSend),
/// optionally restricted to one user class.
std::vector<NamedPreference> preference_by_action(
    const telemetry::Dataset& dataset, const AutoSensOptions& options,
    std::optional<telemetry::UserClass> user_class = std::nullopt);

/// Business vs consumer for one action type (paper: SelectMail).
std::vector<NamedPreference> preference_by_user_class(const telemetry::Dataset& dataset,
                                                      const AutoSensOptions& options,
                                                      telemetry::ActionType action);

/// Q1..Q4 by per-user median latency. Quartiles are computed over
/// `quartile_basis` (typically the full scrubbed dataset, so a user's
/// cohort does not depend on the action slice), then the analysis runs on
/// `dataset` filtered per quartile + action (+ optional class).
std::vector<NamedPreference> preference_by_quartile(
    const telemetry::Dataset& dataset, const telemetry::Dataset& quartile_basis,
    const AutoSensOptions& options, telemetry::ActionType action,
    std::optional<telemetry::UserClass> user_class = std::nullopt);

/// The four 6-hour day periods for one action type and class. Uses
/// window-restricted unbiased estimation (analyze_over_windows).
std::vector<NamedPreference> preference_by_period(const telemetry::Dataset& dataset,
                                                  const AutoSensOptions& options,
                                                  telemetry::ActionType action,
                                                  telemetry::UserClass user_class);

/// One curve per 30-day month from the first row's to the last row's, for
/// one action type. Throws std::invalid_argument past 255 months.
std::vector<NamedPreference> preference_by_month(const telemetry::Dataset& dataset,
                                                 const AutoSensOptions& options,
                                                 telemetry::ActionType action);

}  // namespace autosens::core
