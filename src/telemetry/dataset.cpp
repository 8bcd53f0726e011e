#include "telemetry/dataset.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "stats/descriptive.h"

namespace autosens::telemetry {

Dataset::Dataset(std::vector<ActionRecord> records) {
  reserve(records.size());
  for (const auto& r : records) add(r);
}

void Dataset::reserve(std::size_t capacity) {
  time_ms_.reserve(capacity);
  latency_ms_.reserve(capacity);
  user_id_.reserve(capacity);
  action_.reserve(capacity);
  user_class_.reserve(capacity);
  status_.reserve(capacity);
}

void Dataset::add(ActionRecord record) {
  if (sorted_ && !time_ms_.empty() && record.time_ms < time_ms_.back()) {
    sorted_ = false;
  }
  time_ms_.push_back(record.time_ms);
  latency_ms_.push_back(record.latency_ms);
  user_id_.push_back(record.user_id);
  action_.push_back(record.action);
  user_class_.push_back(record.user_class);
  status_.push_back(record.status);
}

void Dataset::append_columns(std::span<const std::int64_t> times,
                             std::span<const double> latencies,
                             std::span<const std::uint64_t> user_ids,
                             std::span<const ActionType> actions,
                             std::span<const UserClass> user_classes,
                             std::span<const ActionStatus> statuses) {
  const std::size_t n = times.size();
  if (latencies.size() != n || user_ids.size() != n || actions.size() != n ||
      user_classes.size() != n || statuses.size() != n) {
    throw std::invalid_argument("Dataset::append_columns: column length mismatch");
  }
  if (n == 0) return;
  if (sorted_) {
    if (!time_ms_.empty() && times.front() < time_ms_.back()) {
      sorted_ = false;
    } else if (!std::is_sorted(times.begin(), times.end())) {
      sorted_ = false;
    }
  }
  time_ms_.insert(time_ms_.end(), times.begin(), times.end());
  latency_ms_.insert(latency_ms_.end(), latencies.begin(), latencies.end());
  user_id_.insert(user_id_.end(), user_ids.begin(), user_ids.end());
  action_.insert(action_.end(), actions.begin(), actions.end());
  user_class_.insert(user_class_.end(), user_classes.begin(), user_classes.end());
  status_.insert(status_.end(), statuses.begin(), statuses.end());
}

MutableRowColumns Dataset::resize_for_overwrite(std::size_t n, bool ascending) {
  // Fresh columns: resizing a non-empty one would copy its old rows.
  time_ms_ = Column<std::int64_t>(n);
  latency_ms_ = Column<double>(n);
  user_id_ = Column<std::uint64_t>(n);
  action_ = Column<ActionType>(n);
  user_class_ = Column<UserClass>(n);
  status_ = Column<ActionStatus>(n);
  sorted_ = ascending || n < 2;
  return {time_ms_, latency_ms_, user_id_, action_, user_class_, status_};
}

namespace {

/// out[i] = column[rows[i]], in a fresh unzeroed column.
template <typename T, typename Index>
Column<T> gathered(const Column<T>& column, std::span<const Index> rows) {
  Column<T> out(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = column[static_cast<std::size_t>(rows[i])];
  return out;
}

}  // namespace

Dataset Dataset::gather(std::span<const std::size_t> rows) const {
  if (!rows.empty() && *std::max_element(rows.begin(), rows.end()) >= size()) {
    throw std::out_of_range("Dataset::gather: row index out of range");
  }
  Dataset out;
  out.time_ms_ = gathered(time_ms_, rows);
  out.latency_ms_ = gathered(latency_ms_, rows);
  out.user_id_ = gathered(user_id_, rows);
  out.action_ = gathered(action_, rows);
  out.user_class_ = gathered(user_class_, rows);
  out.status_ = gathered(status_, rows);
  out.sorted_ = std::is_sorted(out.time_ms_.begin(), out.time_ms_.end());
  return out;
}

void Dataset::sort_by_time() {
  if (sorted_) return;
  if (std::is_sorted(time_ms_.begin(), time_ms_.end())) {
    sorted_ = true;
    return;
  }
  // Permutation sort: order indices by time, then gather every column once.
  // Moves 8-byte indices through the comparator instead of 48-byte records.
  Column<std::uint64_t> perm(size());
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  std::stable_sort(perm.begin(), perm.end(), [this](std::uint64_t a, std::uint64_t b) {
    return time_ms_[static_cast<std::size_t>(a)] < time_ms_[static_cast<std::size_t>(b)];
  });
  // Each column is gathered into a fresh one and the old one freed: no
  // column-sized scratch outlives the sort.
  const std::span<const std::uint64_t> rows = perm;
  time_ms_ = gathered(time_ms_, rows);
  latency_ms_ = gathered(latency_ms_, rows);
  user_id_ = gathered(user_id_, rows);
  action_ = gathered(action_, rows);
  user_class_ = gathered(user_class_, rows);
  status_ = gathered(status_, rows);
  sorted_ = true;
}

std::int64_t Dataset::begin_time() const {
  if (time_ms_.empty()) throw std::runtime_error("Dataset::begin_time: empty dataset");
  if (!sorted_) throw std::runtime_error("Dataset::begin_time: dataset not sorted");
  return time_ms_.front();
}

std::int64_t Dataset::end_time() const {
  if (time_ms_.empty()) throw std::runtime_error("Dataset::end_time: empty dataset");
  if (!sorted_) throw std::runtime_error("Dataset::end_time: dataset not sorted");
  return time_ms_.back() + 1;
}

std::unordered_map<std::uint64_t, double> Dataset::per_user_median_latency() const {
  std::unordered_map<std::uint64_t, std::vector<double>> per_user;
  for (std::size_t i = 0; i < size(); ++i) {
    per_user[user_id_[i]].push_back(latency_ms_[i]);
  }
  std::unordered_map<std::uint64_t, double> medians;
  medians.reserve(per_user.size());
  for (auto& [user, latencies] : per_user) {
    medians.emplace(user, stats::median(latencies));
  }
  return medians;
}

}  // namespace autosens::telemetry
