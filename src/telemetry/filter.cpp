#include "telemetry/filter.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <type_traits>

#include "stats/descriptive.h"

namespace autosens::telemetry {
namespace {

std::uint64_t bit(unsigned value) { return value < 64 ? std::uint64_t{1} << value : 0; }

}  // namespace

RowMatcher::RowMatcher(const RecordFilter& filter) {
  for (const auto& term : filter.terms) {
    std::visit(
        [&]<typename T>(const T& t) {
          if constexpr (std::is_same_v<T, ActionType>) {
            actions_ &= bit(static_cast<unsigned>(t));
          } else if constexpr (std::is_same_v<T, UserClass>) {
            classes_ &= bit(static_cast<unsigned>(t));
          } else if constexpr (std::is_same_v<T, DayPeriod>) {
            periods_ &= bit(static_cast<unsigned>(t));
          } else if constexpr (std::is_same_v<T, RecordFilter::Month>) {
            months_.push_back(t.index);
          } else if constexpr (std::is_same_v<T, RecordFilter::TimeRange>) {
            range_ = range_ ? RecordFilter::TimeRange{std::max(range_->begin_ms, t.begin_ms),
                                                      std::min(range_->end_ms, t.end_ms)}
                            : t;
          } else {
            quartiles_.push_back(t);
          }
        },
        term);
  }
  has_row_terms_ = range_ || periods_ != kAll || !months_.empty() || !quartiles_.empty();
}

bool RowMatcher::row_terms(const RowColumns& rows, std::size_t i) const {
  const std::int64_t t = rows.times[i];
  if (range_ && (t < range_->begin_ms || t >= range_->end_ms)) return false;
  if (periods_ != kAll && !in_mask(periods_, static_cast<unsigned>(day_period(t)))) {
    return false;
  }
  for (const std::int64_t m : months_) {
    if (month_index(t) != m) return false;
  }
  for (const auto& q : quartiles_) {
    const auto it = q.table->find(rows.user_ids[i]);
    if (it == q.table->end() || it->second != q.q) return false;
  }
  return true;
}

std::vector<std::size_t> RecordFilter::rows(const Dataset& dataset) const {
  std::vector<std::size_t> rows;
  if (terms.empty()) {
    rows.resize(dataset.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    return rows;
  }
  const RowMatcher match(*this);
  const RowColumns columns = dataset.row_columns();
  rows.reserve(columns.size());  // Untouched capacity costs no memory.
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (match(columns, i)) rows.push_back(i);
  }
  return rows;
}

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
