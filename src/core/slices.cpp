#include "core/slices.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/confounder_time.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace autosens::core {
namespace {

using telemetry::ActionType;
using telemetry::Dataset;
using telemetry::RowColumns;
using telemetry::UserClass;

obs::Histogram& accumulate_ms() {
  static obs::Histogram& handle = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"accumulate\"}",
      "Per-stage pipeline latency (milliseconds)");
  return handle;
}

/// Key values a row can take: a slice index, or the slice count for a row
/// no slice keeps, stored in one byte.
constexpr std::size_t kMaxKeys = std::size_t{1} << 8;

/// One slice's rows within one chunk of the keyed pass: how many, and the
/// first and last of their times.
struct Edge {
  std::size_t count = 0;
  std::int64_t first = 0;
  std::int64_t last = 0;
};

/// Analyze one slice family in one keyed pass (DESIGN.md §6b). Slice k of
/// the K = names.size() slices holds the rows `common` keeps whose
/// key(rows, i) is k; a key of K keeps a row out of every slice. The
/// family's curves come out in slice order; empty slices, and those whose
/// finish rejects them with std::invalid_argument (too little support),
/// are skipped. With `by_period`, slice k is analyzed over the daily
/// windows of DayPeriod k (analyze_over_windows); otherwise over its own
/// [first, last] range (analyze). Throws std::invalid_argument on an
/// unsorted dataset or more than 255 slices.
template <typename Key>
std::vector<NamedPreference> analyze_family(const Dataset& dataset,
                                            const std::vector<std::string>& names,
                                            const telemetry::RecordFilter& common,
                                            const Key& key, const AutoSensOptions& options,
                                            bool by_period = false) {
  const std::size_t slices = names.size();
  if (slices >= kMaxKeys) {
    throw std::invalid_argument("slices: more than 255 slices in one family");
  }
  const RowColumns rows = dataset.row_columns();
  const std::size_t n = rows.size();
  if (n == 0) return {};
  const auto times = rows.times;
  // Monte-Carlo U draws need each slice's whole columns; a window-restricted
  // U is always the Voronoi one, as in analyze_over_windows.
  const bool gather = options.unbiased_method == UnbiasedMethod::kMonteCarlo && !by_period;

  std::vector<std::optional<Accumulator>> merged(slices);
  std::vector<Edge> totals(slices);
  std::vector<telemetry::Column<std::int64_t>> slice_times(gather ? slices : 0);
  std::vector<telemetry::Column<double>> slice_latencies(gather ? slices : 0);
  {
    obs::Span span("accumulate", &accumulate_ms());
    // The fixed chunk grid, each bound moved to the next duplicate-time run
    // start so every run is one chunk's.
    const ChunkGrid grid = make_chunk_grid(n, kSliceChunkRows);
    const std::size_t chunks = grid.chunks;
    span.attr("slices", static_cast<std::int64_t>(slices));
    span.attr("rows", static_cast<std::int64_t>(n));
    span.attr("chunks", static_cast<std::int64_t>(chunks));
    std::vector<std::size_t> bounds(chunks + 1, n);
    for (std::size_t c = 0; c < chunks; ++c) {
      std::size_t i = grid.begin(c);
      while (i > 0 && i < n && times[i] == times[i - 1]) ++i;
      bounds[c] = i;
    }

    // Pass 1: each row's key byte, and per chunk and key the row count and
    // the first and last time (key K tallies the rows no slice keeps).
    const std::size_t stride = slices + 1;
    telemetry::Column<std::uint8_t> keys(n);
    std::vector<Edge> edges(chunks * stride);
    std::vector<char> backwards(chunks, 0);
    const telemetry::RowMatcher match(common);
    parallel_for_items(chunks, options.threads, [&](std::size_t c) {
      // Tallied in locals: neighbouring chunks' edges share cache lines.
      std::array<Edge, kMaxKeys> edge{};
      std::uint8_t* key_of = keys.data();
      const std::size_t begin = bounds[c];
      std::int64_t prev =
          begin > 0 ? times[begin - 1] : std::numeric_limits<std::int64_t>::min();
      bool unsorted = false;
      for (std::size_t i = begin; i < bounds[c + 1]; ++i) {
        const std::int64_t t = times[i];
        unsorted |= t < prev;
        prev = t;
        const std::size_t k = match(rows, i) ? key(rows, i) : slices;
        key_of[i] = static_cast<std::uint8_t>(k);
        Edge& e = edge[k];
        if (e.count++ == 0) e.first = t;
        e.last = t;
      }
      std::copy_n(edge.begin(), stride, edges.begin() + c * stride);
      backwards[c] = unsorted;
    });
    for (const char unsorted : backwards) {
      if (unsorted) throw std::invalid_argument("slices: dataset not sorted");
    }

    // Each slice's range, and the samples just outside each of its chunk
    // stretches: its last time in the nearest earlier chunk that holds it,
    // its first time in the nearest later one.
    std::vector<Accumulator::Neighbours> outside(chunks * slices);
    std::vector<std::size_t> held_last(slices);  // The last chunk seen holding slice k.
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t k = 0; k < slices; ++k) {
        const Edge& e = edges[c * stride + k];
        if (e.count == 0) continue;
        if (totals[k].count == 0) {
          totals[k].first = e.first;
        } else {
          outside[c * slices + k].before = totals[k].last;
          outside[held_last[k] * slices + k].after = e.first;
        }
        held_last[k] = c;
        totals[k].last = e.last;
        totals[k].count += e.count;
      }
    }
    // The windows each slice's U observes.
    std::vector<std::vector<TimeWindow>> windows(slices);
    for (std::size_t k = 0; k < slices; ++k) {
      if (totals[k].count == 0) continue;
      const TimeWindow range{.begin_ms = totals[k].first, .end_ms = totals[k].last + 1};
      windows[k] = by_period ? period_windows(range, static_cast<telemetry::DayPeriod>(k))
                             : std::vector<TimeWindow>{range};
    }
    // Where each chunk's rows of slice k start in the slice's whole columns.
    std::vector<std::size_t> offsets(gather ? chunks * slices : 0);
    for (std::size_t k = 0; gather && k < slices; ++k) {
      slice_times[k].resize(totals[k].count);
      slice_latencies[k].resize(totals[k].count);
      for (std::size_t c = 0, at = 0; c < chunks; ++c) {
        offsets[c * slices + k] = at;
        at += edges[c * stride + k].count;
      }
    }

    // Pass 2: each chunk scatters its rows' time and latency by key into one
    // chunk-sized buffer (slice 0's stretch first, the rows no slice keeps
    // last) and fills one partial per slice from its stretch; under gather
    // the stretch is also copied into the slice's whole columns.
    AutoSensOptions fill_options = options;
    fill_options.threads = 1;
    std::vector<std::optional<Accumulator>> partials(chunks * slices);
    parallel_for_items(chunks, options.threads, [&](std::size_t c) {
      const Edge* edge = &edges[c * stride];
      std::vector<std::size_t> start(stride + 1, 0);
      for (std::size_t k = 0; k < stride; ++k) start[k + 1] = start[k] + edge[k].count;
      telemetry::Column<std::int64_t> chunk_times(start[stride]);
      telemetry::Column<double> chunk_latencies(start[stride]);
      std::vector<std::size_t> slot(start.begin(), start.end() - 1);
      for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
        const std::size_t at = slot[keys[i]]++;
        chunk_times[at] = times[i];
        chunk_latencies[at] = rows.latencies[i];
      }
      for (std::size_t k = 0; k < slices; ++k) {
        const std::size_t count = edge[k].count;
        if (count == 0) continue;
        const telemetry::SampleColumns stretch{{chunk_times.data() + start[k], count},
                                               {chunk_latencies.data() + start[k], count}};
        partials[c * slices + k].emplace(Accumulator::fill(
            stretch, ClassGrid::kSlot, fill_options, windows[k], outside[c * slices + k]));
        if (gather) {
          const std::size_t at = offsets[c * slices + k];
          std::copy_n(stretch.times.begin(), count, slice_times[k].begin() + at);
          std::copy_n(stretch.latencies.begin(), count, slice_latencies[k].begin() + at);
        }
      }
    });
    // Partials merge in chunk order, one slice per item.
    parallel_for_items(slices, options.threads, [&](std::size_t k) {
      for (std::size_t c = 0; c < chunks; ++c) {
        auto& partial = partials[c * slices + k];
        if (!partial) continue;
        if (merged[k]) {
          merged[k]->merge(*partial);
        } else {
          merged[k] = std::move(partial);
        }
        partial.reset();
      }
    });
  }

  // The curves are finished on this thread, so their spans nest under the
  // caller's.
  AutoSensOptions finish_options = options;
  if (by_period) finish_options.unbiased_method = UnbiasedMethod::kVoronoi;
  std::vector<NamedPreference> out;
  for (std::size_t k = 0; k < slices; ++k) {
    if (!merged[k]) continue;
    const telemetry::SampleColumns columns =
        gather ? telemetry::SampleColumns{slice_times[k], slice_latencies[k]}
               : telemetry::SampleColumns{};
    try {
      out.push_back({names[k], analyze_accumulated(*merged[k], columns, finish_options).preference,
                     totals[k].count});
    } catch (const std::invalid_argument&) {
      // Not enough support for this slice; callers see it as absent.
    }
  }
  return out;
}

/// Rows of `action`, and of `user_class` when given.
telemetry::RecordFilter action_and_class(ActionType action, std::optional<UserClass> user_class) {
  auto filter = telemetry::by_action(action);
  if (user_class) filter = telemetry::all_of({filter, telemetry::by_user_class(*user_class)});
  return filter;
}

}  // namespace

std::vector<NamedPreference> preference_by_action(const Dataset& dataset,
                                                  const AutoSensOptions& options,
                                                  std::optional<UserClass> user_class) {
  static constexpr ActionType kActions[] = {ActionType::kSelectMail, ActionType::kSwitchFolder,
                                     ActionType::kSearch, ActionType::kComposeSend};
  std::vector<std::string> names;
  for (const auto type : kActions) names.emplace_back(telemetry::to_string(type));
  telemetry::RecordFilter common;
  if (user_class) common = telemetry::by_user_class(*user_class);
  // The slices are the first four action codes, in code order.
  const auto key = [](const RowColumns& rows, std::size_t i) {
    const auto action = static_cast<std::size_t>(rows.actions[i]);
    return action < std::size(kActions) ? action : std::size(kActions);
  };
  return analyze_family(dataset, names, common, key, options);
}

std::vector<NamedPreference> preference_by_user_class(const Dataset& dataset,
                                                      const AutoSensOptions& options,
                                                      ActionType action) {
  const std::vector<std::string> names = {std::string(telemetry::to_string(UserClass::kBusiness)),
                                          std::string(telemetry::to_string(UserClass::kConsumer))};
  const auto key = [](const RowColumns& rows, std::size_t i) {
    const auto user_class = static_cast<std::size_t>(rows.user_classes[i]);
    return user_class < 2 ? user_class : std::size_t{2};
  };
  return analyze_family(dataset, names, telemetry::by_action(action), key, options);
}

std::vector<NamedPreference> preference_by_quartile(const Dataset& dataset,
                                                    const Dataset& quartile_basis,
                                                    const AutoSensOptions& options,
                                                    ActionType action,
                                                    std::optional<UserClass> user_class) {
  const telemetry::UserQuartiles quartiles = [&] {
    obs::Span span("quartiles");
    telemetry::UserQuartiles table(quartile_basis);
    span.attr("users", static_cast<std::int64_t>(table.user_count()));
    return table;
  }();
  std::vector<std::string> names;
  for (int q = 0; q < telemetry::UserQuartiles::kQuartileCount; ++q) {
    // Built by append (not operator+) to dodge a GCC 12 -Wrestrict false
    // positive at -O3 that breaks Release -Werror builds.
    std::string name("Q");
    name += std::to_string(q + 1);
    names.push_back(std::move(name));
  }
  // One table lookup per row; users outside the table join no slice.
  const auto key = [&quartiles](const RowColumns& rows, std::size_t i) {
    return static_cast<std::size_t>(
        quartiles.quartile_or(rows.user_ids[i], telemetry::UserQuartiles::kQuartileCount));
  };
  return analyze_family(dataset, names, action_and_class(action, user_class), key, options);
}

std::vector<NamedPreference> preference_by_period(const Dataset& dataset,
                                                  const AutoSensOptions& options,
                                                  ActionType action,
                                                  UserClass user_class) {
  std::vector<std::string> names;
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    names.emplace_back(telemetry::to_string(static_cast<telemetry::DayPeriod>(p)));
  }
  const auto key = [](const RowColumns& rows, std::size_t i) {
    return static_cast<std::size_t>(telemetry::day_period(rows.times[i]));
  };
  return analyze_family(dataset, names, action_and_class(action, user_class), key, options,
                        /*by_period=*/true);
}

std::vector<NamedPreference> preference_by_month(const Dataset& dataset,
                                                 const AutoSensOptions& options,
                                                 ActionType action) {
  if (dataset.empty()) return {};
  // The months from the first row's to the last row's (an unsorted dataset
  // fails the keyed pass's check).
  const auto times = dataset.row_columns().times;
  const std::int64_t first = telemetry::month_index(times.front());
  const std::int64_t last = std::max(first, telemetry::month_index(times.back()));
  if (last - first >= std::numeric_limits<std::uint8_t>::max()) {
    throw std::invalid_argument("preference_by_month: more than 255 months");
  }
  const auto months = static_cast<std::size_t>(last - first + 1);
  std::vector<std::string> names;
  for (std::int64_t m = first; m <= last; ++m) {
    std::string name("Month");
    name += std::to_string(m + 1);
    names.push_back(std::move(name));
  }
  const auto key = [first, months](const RowColumns& rows, std::size_t i) {
    const auto month = static_cast<std::size_t>(telemetry::month_index(rows.times[i]) - first);
    return month < months ? month : months;
  };
  return analyze_family(dataset, names, telemetry::by_action(action), key, options);
}

}  // namespace autosens::core
