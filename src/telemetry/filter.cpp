#include "telemetry/filter.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>

#include "stats/descriptive.h"

namespace autosens::telemetry {
namespace {

// Each term reads one column (column_of) and tests one value of it (keeps).
std::span<const ActionType> column_of(const Dataset& d, ActionType) { return d.actions(); }
std::span<const UserClass> column_of(const Dataset& d, UserClass) { return d.user_classes(); }
std::span<const std::uint64_t> column_of(const Dataset& d, const RecordFilter::Quartile&) {
  return d.user_ids();
}
std::span<const std::int64_t> column_of(const Dataset& d, const auto&) { return d.times(); }

bool keeps(ActionType term, ActionType action) { return action == term; }
bool keeps(UserClass term, UserClass user_class) { return user_class == term; }
bool keeps(DayPeriod term, std::int64_t t) { return day_period(t) == term; }
bool keeps(RecordFilter::Month term, std::int64_t t) { return month_index(t) == term.index; }
bool keeps(RecordFilter::TimeRange term, std::int64_t t) {
  return t >= term.begin_ms && t < term.end_ms;
}
bool keeps(const RecordFilter::Quartile& term, std::uint64_t user) {
  const auto it = term.table->find(user);
  return it != term.table->end() && it->second == term.q;
}

}  // namespace

std::vector<std::size_t> RecordFilter::rows(const Dataset& dataset) const {
  std::vector<std::size_t> rows;
  if (terms.empty()) {
    rows.resize(dataset.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    return rows;
  }
  // The first term scans its column into `rows`; each later term drops the
  // rows it rejects, keeping the survivors' order.
  for (std::size_t k = 0; k < terms.size(); ++k) {
    std::visit(
        [&](const auto& term) {
          const auto column = column_of(dataset, term);
          if (k == 0) {
            rows.reserve(column.size());  // Untouched capacity costs no memory.
            for (std::size_t i = 0; i < column.size(); ++i) {
              if (keeps(term, column[i])) rows.push_back(i);
            }
          } else {
            std::erase_if(rows, [&](std::size_t i) { return !keeps(term, column[i]); });
          }
        },
        terms[k]);
  }
  return rows;
}

Dataset Dataset::filtered(const RecordFilter& filter) const { return gather(filter.rows(*this)); }

RecordFilter all_of(std::vector<RecordFilter> filters) {
  RecordFilter combined;
  for (auto& filter : filters) std::ranges::move(filter.terms, std::back_inserter(combined.terms));
  return combined;
}

UserQuartiles::UserQuartiles(const Dataset& dataset)
    : UserQuartiles(dataset.per_user_median_latency()) {}

UserQuartiles::UserQuartiles(const std::unordered_map<std::uint64_t, double>& medians) {
  if (medians.empty()) throw std::invalid_argument("UserQuartiles: dataset has no users");
  std::vector<double> values;
  values.reserve(medians.size());
  for (const auto& [user, median] : medians) values.push_back(median);
  boundaries_ = {stats::quantile(values, 0.25), stats::quantile(values, 0.50),
                 stats::quantile(values, 0.75)};
  auto assignment = std::make_shared<RecordFilter::QuartileTable>();
  assignment->reserve(medians.size());
  for (const auto& [user, median] : medians) {
    int q = 0;
    while (q < 3 && median > boundaries_[static_cast<std::size_t>(q)]) ++q;
    assignment->emplace(user, q);
  }
  assignment_ = std::move(assignment);
}

int UserQuartiles::quartile_of(std::uint64_t user_id) const {
  const auto it = assignment_->find(user_id);
  if (it == assignment_->end()) {
    throw std::invalid_argument("UserQuartiles: unknown user id");
  }
  return it->second;
}

RecordFilter UserQuartiles::in_quartile(int q) const {
  if (q < 0 || q >= kQuartileCount) {
    throw std::invalid_argument("UserQuartiles::in_quartile: q outside [0,4)");
  }
  return RecordFilter(RecordFilter::Quartile{assignment_, q});
}

}  // namespace autosens::telemetry
