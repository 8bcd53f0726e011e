#include "telemetry/dataset.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "stats/descriptive.h"
#include "stats/scratch.h"

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

void Dataset::adopt_columns(std::vector<std::int64_t> times, std::vector<double> latencies,
                            std::vector<std::uint64_t> user_ids,
                            std::vector<ActionType> actions,
                            std::vector<UserClass> user_classes,
                            std::vector<ActionStatus> statuses) {
  const std::size_t n = times.size();
  if (latencies.size() != n || user_ids.size() != n || actions.size() != n ||
      user_classes.size() != n || statuses.size() != n) {
    throw std::invalid_argument("Dataset::adopt_columns: column length mismatch");
  }
  time_ms_ = std::move(times);
  latency_ms_ = std::move(latencies);
  user_id_ = std::move(user_ids);
  action_ = std::move(actions);
  user_class_ = std::move(user_classes);
  status_ = std::move(statuses);
  sorted_ = std::is_sorted(time_ms_.begin(), time_ms_.end());
}

namespace {

/// out[i] = column[perm[i]], through a pooled scratch buffer.
template <typename T>
void apply_permutation(std::vector<T>& column, std::span<const std::uint64_t> perm) {
  std::vector<T> scratch = stats::ScratchPool<T>::take();
  scratch.resize(column.size());
  for (std::size_t i = 0; i < column.size(); ++i) {
    scratch[i] = column[static_cast<std::size_t>(perm[i])];
  }
  column.swap(scratch);
  stats::ScratchPool<T>::give(std::move(scratch));
}

}  // namespace

Dataset Dataset::gather(std::span<const std::size_t> rows) const {
  if (!rows.empty() && *std::max_element(rows.begin(), rows.end()) >= size()) {
    throw std::out_of_range("Dataset::gather: row index out of range");
  }
  const auto pick = [rows](const auto& column) {
    std::remove_cvref_t<decltype(column)> out;
    out.reserve(rows.size());
    for (const std::size_t i : rows) out.push_back(column[i]);
    return out;
  };
  Dataset out;
  out.adopt_columns(pick(time_ms_), pick(latency_ms_), pick(user_id_), pick(action_),
                    pick(user_class_), pick(status_));
  return out;
}

void Dataset::sort_by_time() {
  if (sorted_) return;
  // Permutation sort: order indices by time, then gather every column once.
  // Moves 8-byte indices through the comparator instead of 48-byte records.
  std::vector<std::uint64_t> perm = stats::ScratchPool<std::uint64_t>::take();
  perm.resize(size());
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  std::stable_sort(perm.begin(), perm.end(), [this](std::uint64_t a, std::uint64_t b) {
    return time_ms_[static_cast<std::size_t>(a)] < time_ms_[static_cast<std::size_t>(b)];
  });
  apply_permutation(time_ms_, perm);
  apply_permutation(latency_ms_, perm);
  apply_permutation(user_id_, perm);
  apply_permutation(action_, perm);
  apply_permutation(user_class_, perm);
  apply_permutation(status_, perm);
  stats::ScratchPool<std::uint64_t>::give(std::move(perm));
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
