// Row selection for the evaluation's slices: action type (§3.2), user class
// (§3.3), per-user median-latency quartile (§3.4), 6-hour period (§3.6),
// month (§3.7) and time range. A RecordFilter is a plain value, a
// conjunction of column terms; each term reads one column span of a Dataset,
// so selection never assembles an ActionRecord or calls a type-erased
// predicate. A RowMatcher compiles the terms for row-at-a-time tests, which
// both rows() and the fused select pass (telemetry/select.h) run.
// Dataset::filtered(filter) copies the same rows as gather(filter.rows(dataset)),
// through the parallel select kernel.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "telemetry/clock.h"
#include "telemetry/dataset.h"
#include "telemetry/record.h"

namespace autosens::telemetry {

struct RecordFilter {
  using QuartileTable = std::unordered_map<std::uint64_t, int>;  ///< user → quartile
  struct Month { std::int64_t index = 0; };
  struct TimeRange { std::int64_t begin_ms = 0, end_ms = 0; };
  struct Quartile { std::shared_ptr<const QuartileTable> table; int q = 0; };
  using Term = std::variant<ActionType, UserClass, DayPeriod, Month, TimeRange, Quartile>;

  RecordFilter() = default;
  /// One term, built in place (moving a Term temporary trips GCC 12 -Wmaybe-uninitialized).
  template <typename T>
  explicit RecordFilter(T term) { terms.emplace_back(std::in_place_type<T>, std::move(term)); }

  /// Ascending indices of the rows of `dataset` that pass every term.
  std::vector<std::size_t> rows(const Dataset& dataset) const;

  std::vector<Term> terms;  ///< Conjunction; empty keeps every row.
};

/// Logical AND of filters; all_of({}) keeps every row.
RecordFilter all_of(std::vector<RecordFilter> filters);

/// A RecordFilter compiled for row-at-a-time tests. Action, class and period
/// terms fold into bit masks and time-range terms into one interval, so a
/// conjunction of same-kind terms intersects (two different actions match
/// nothing), exactly as testing every term in turn would.
class RowMatcher {
 public:
  explicit RowMatcher(const RecordFilter& filter);

  /// Whether a term reads the user column (a quartile term does).
  bool reads_user_ids() const noexcept { return !quartiles_.empty(); }

  /// Row i of `rows` passes every term.
  bool operator()(const RowColumns& rows, std::size_t i) const {
    // `&`, not `&&`: a slice keeps rows at random, so branching on the
    // enum tests would mispredict about as often as it predicts.
    const bool enums = in_mask(actions_, static_cast<unsigned>(rows.actions[i])) &
                       in_mask(classes_, static_cast<unsigned>(rows.user_classes[i]));
    return has_row_terms_ ? enums && row_terms(rows, i) : enums;
  }

 private:
  static constexpr std::uint64_t kAll = ~std::uint64_t{0};
  static bool in_mask(std::uint64_t mask, unsigned value) noexcept {
    return value < 64 ? ((mask >> value) & 1u) != 0 : mask == kAll;
  }
  /// The terms beyond the enum masks: time range, period, month, quartile.
  bool row_terms(const RowColumns& rows, std::size_t i) const;

  std::uint64_t actions_ = kAll;
  std::uint64_t classes_ = kAll;
  std::uint64_t periods_ = kAll;
  std::optional<RecordFilter::TimeRange> range_;
  std::vector<std::int64_t> months_;
  std::vector<RecordFilter::Quartile> quartiles_;
  bool has_row_terms_ = false;
};

inline RecordFilter by_action(ActionType type) { return RecordFilter(type); }
inline RecordFilter by_user_class(UserClass user_class) { return RecordFilter(user_class); }
inline RecordFilter by_period(DayPeriod period) { return RecordFilter(period); }
/// Rows whose month_index(time) is `m`.
inline RecordFilter by_month(std::int64_t m) { return RecordFilter(RecordFilter::Month{m}); }
/// Rows with begin_ms <= time < end_ms.
inline RecordFilter by_time_range(std::int64_t begin_ms, std::int64_t end_ms) {
  return RecordFilter(RecordFilter::TimeRange{begin_ms, end_ms});
}

/// Per-user median-latency quartile assignment. Users are ranked by their
/// median latency over `dataset`; quartile 0 (Q1) holds the quarter with the
/// lowest medians. Boundaries use the type-7 quantiles of the per-user
/// medians, so quartiles are balanced in user count (up to ties).
class UserQuartiles {
 public:
  static constexpr int kQuartileCount = 4;

  /// Throws std::invalid_argument if the dataset has no users.
  explicit UserQuartiles(const Dataset& dataset);

  /// Build from precomputed per-user medians. Throws std::invalid_argument
  /// if `medians` is empty.
  explicit UserQuartiles(const std::unordered_map<std::uint64_t, double>& medians);

  /// Quartile in [0, 4) for a user; unknown users go to the nearest quartile
  /// by their absence being impossible in our pipelines — throws instead.
  int quartile_of(std::uint64_t user_id) const;
  /// Quartile in [0, 4) for a user, or `absent` for a user outside the table.
  int quartile_or(std::uint64_t user_id, int absent) const noexcept {
    const auto it = assignment_->find(user_id);
    return it == assignment_->end() ? absent : it->second;
  }
  bool contains(std::uint64_t user_id) const noexcept { return assignment_->contains(user_id); }

  /// Filter keeping the rows of users in quartile q (users outside the table
  /// match none). It shares this object's table, so it may outlive it.
  RecordFilter in_quartile(int q) const;

  /// Median-latency boundaries between quartiles (3 values: q25, q50, q75).
  const std::array<double, 3>& boundaries() const noexcept { return boundaries_; }
  std::size_t user_count() const noexcept { return assignment_->size(); }

 private:
  std::shared_ptr<const RecordFilter::QuartileTable> assignment_;
  std::array<double, 3> boundaries_{};
};

}  // namespace autosens::telemetry
