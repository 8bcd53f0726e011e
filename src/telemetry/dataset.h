// Dataset: an in-memory, time-sorted store of ActionRecords with the access
// paths AutoSens needs — time range, parallel time/latency views, per-user
// grouping (for the conditioning-to-speed quartiles, §3.4), and column-wise
// row gathers (filtered slices, bootstrap resamples).
//
// Storage is structure-of-arrays: every record field lives in its own
// contiguous column, so the estimator hot loops (which only touch time and
// latency) stream exactly the bytes they need and times()/latencies() are
// zero-copy spans rather than per-call vector copies. See DESIGN.md
// "Data layout & memory model" for the view-lifetime rules.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/record.h"

namespace autosens::telemetry {

struct RecordFilter;

/// std::allocator, except that a value-less construct default-initializes:
/// resizing a vector of trivial elements reserves the memory and writes
/// nothing, so the first write to a page is the producer's own — on the
/// thread that writes it — not a zero-fill on the thread that sized it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A Dataset column: resize() leaves new elements uninitialized.
template <typename T>
using Column = std::vector<T, DefaultInitAllocator<T>>;

/// Non-owning view of the two analysis-plane columns. The whole estimator
/// pipeline (biased/unbiased fills, α-normalization) consumes this instead of
/// a concrete Dataset, so bootstrap views and datasets share one hot path.
/// `times` must be sorted ascending and aligned with `latencies`.
struct SampleColumns {
  std::span<const std::int64_t> times;
  std::span<const double> latencies;

  std::size_t size() const noexcept { return times.size(); }
  bool empty() const noexcept { return times.empty(); }
  /// First sample time; [begin_time, end_time) is the observation window.
  /// Throws std::runtime_error when the view is empty.
  std::int64_t begin_time() const {
    if (times.empty()) throw std::runtime_error("SampleColumns::begin_time: empty view");
    return times.front();
  }
  std::int64_t end_time() const {
    if (times.empty()) throw std::runtime_error("SampleColumns::end_time: empty view");
    return times.back() + 1;
  }
};

/// Non-owning view of all six columns of a row range — a Dataset's rows or a
/// store partition's rows — for the row-selection passes (RecordFilter,
/// telemetry/select.h). Every span has size() elements, except that a
/// column no selection term reads may be left empty (the store leaves its
/// compressed user column empty when no term reads it).
struct RowColumns {
  std::span<const std::int64_t> times;
  std::span<const double> latencies;
  std::span<const std::uint64_t> user_ids;
  std::span<const ActionType> actions;
  std::span<const UserClass> user_classes;
  std::span<const ActionStatus> statuses;

  std::size_t size() const noexcept { return times.size(); }
  /// Rows [offset, offset + count); an empty user column stays empty.
  RowColumns slice(std::size_t offset, std::size_t count) const {
    return {times.subspan(offset, count),
            latencies.subspan(offset, count),
            user_ids.empty() ? user_ids : user_ids.subspan(offset, count),
            actions.subspan(offset, count),
            user_classes.subspan(offset, count),
            statuses.subspan(offset, count)};
  }
};

/// Writable spans over all six columns of a Dataset's rows
/// (Dataset::resize_for_overwrite).
struct MutableRowColumns {
  std::span<std::int64_t> times;
  std::span<double> latencies;
  std::span<std::uint64_t> user_ids;
  std::span<ActionType> actions;
  std::span<UserClass> user_classes;
  std::span<ActionStatus> statuses;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<ActionRecord> records);

  /// Append one record. Invalidates sortedness; sort happens lazily via
  /// ensure_sorted() or eagerly through sort_by_time().
  void add(ActionRecord record);
  /// Bulk append: splice whole column slices onto the dataset (the ingest
  /// engine's shard-concatenation path). All spans must have equal length;
  /// throws std::invalid_argument otherwise. The sorted flag survives only
  /// when the incoming times are ascending and start at or after the
  /// current last time.
  void append_columns(std::span<const std::int64_t> times, std::span<const double> latencies,
                      std::span<const std::uint64_t> user_ids,
                      std::span<const ActionType> actions,
                      std::span<const UserClass> user_classes,
                      std::span<const ActionStatus> statuses);
  /// Replace the contents with `n` rows whose values are NOT initialized,
  /// and return spans to write them through. Only a producer that writes
  /// every row before the dataset escapes may call this (the binlog reader,
  /// the select kernel, gather): an unwritten row is indeterminate memory.
  /// `ascending` is what the producer knows of the times it will write:
  /// true only when they cannot go backwards (rows kept in order from a
  /// sorted dataset); with false the dataset is flagged unsorted, and
  /// sort_by_time() settles it (a scan when the rows ascend after all).
  MutableRowColumns resize_for_overwrite(std::size_t n, bool ascending);
  void reserve(std::size_t capacity);

  std::size_t size() const noexcept { return time_ms_.size(); }
  bool empty() const noexcept { return time_ms_.empty(); }
  /// Gather record i from the columns (a cheap by-value assembly).
  ActionRecord operator[](std::size_t i) const noexcept {
    return ActionRecord{.time_ms = time_ms_[i],
                        .user_id = user_id_[i],
                        .latency_ms = latency_ms_[i],
                        .action = action_[i],
                        .user_class = user_class_[i],
                        .status = status_[i]};
  }
  /// Sort records ascending by time (stable, so equal-time order is
  /// insertion order), on `threads` pool workers (0 = all hardware
  /// threads; the result is the same for every value). Idempotent; rows
  /// already in order are only scanned. Each row becomes one unique key,
  /// (time - min time) << bit_width(n - 1) | row, and the keys are sorted
  /// in parallel: one scatter by their top bits into a capped number of
  /// buckets, then a std::sort of each bucket that is not in order
  /// already. Times are read back from the keys and the other columns
  /// gathered by row, column by column. Scratch is one n-row key buffer.
  /// Only when span and row bits exceed 64 (a span of about 139 years at
  /// 2 M rows) does it stable-sort a row permutation instead.
  void sort_by_time(std::size_t threads = 0);
  bool is_sorted() const noexcept { return sorted_; }

  /// First record time. Throws std::runtime_error when empty or unsorted.
  std::int64_t begin_time() const;
  /// One past the last record time (so [begin_time, end_time) is non-empty).
  std::int64_t end_time() const;

  /// Zero-copy column views (records must be sorted for `times` to be
  /// monotone). The spans alias this dataset's storage: they are valid until
  /// the next add()/sort_by_time()/destruction, and the data pointer is
  /// stable across calls.
  std::span<const std::int64_t> times() const noexcept { return time_ms_; }
  std::span<const double> latencies() const noexcept { return latency_ms_; }
  std::span<const std::uint64_t> user_ids() const noexcept { return user_id_; }
  std::span<const ActionType> actions() const noexcept { return action_; }
  std::span<const UserClass> user_classes() const noexcept { return user_class_; }
  std::span<const ActionStatus> statuses() const noexcept { return status_; }
  /// The analysis-plane view (same lifetime rules as the column spans).
  SampleColumns columns() const noexcept { return {time_ms_, latency_ms_}; }
  /// All six columns (same lifetime rules as the column spans).
  RowColumns row_columns() const noexcept {
    return {time_ms_, latency_ms_, user_id_, action_, user_class_, status_};
  }

  /// Rows rows[0], rows[1], ... of this dataset (repeats and any order
  /// allowed) copied column by column; the sorted flag reflects the gathered
  /// times. Throws std::out_of_range on an index >= size().
  Dataset gather(std::span<const std::size_t> rows) const;

  /// The rows `filter` keeps, in their original order, as
  /// gather(filter.rows()) would copy them (sorted flag included), through
  /// the parallel select kernel of telemetry/select.h on `threads` workers
  /// (0 = all hardware threads; the result is the same for every value).
  /// Defined in telemetry/select.cpp.
  Dataset filtered(const RecordFilter& filter, std::size_t threads = 0) const;

  /// Per-user median latency over this dataset (for quartile conditioning).
  std::unordered_map<std::uint64_t, double> per_user_median_latency() const;

 private:
  Column<std::int64_t> time_ms_;
  Column<double> latency_ms_;
  Column<std::uint64_t> user_id_;
  Column<ActionType> action_;
  Column<UserClass> user_class_;
  Column<ActionStatus> status_;
  bool sorted_ = true;  // vacuously sorted when empty
};

}  // namespace autosens::telemetry
