// The fused select pass (DESIGN.md §6e): one loop over a row range that
// applies the scrub rule (drop_reason, each verdict tallied into a
// ValidationReport) and a RecordFilter's column terms, then hands on only
// the rows both keep. The estimators read nothing but time and latency, so
// a SampleBuffer copies just those two columns of the kept rows; the store
// window loop and the slice fan-out analyze its SampleColumns instead of
// copying all six columns once per stage (load, validate, filter).
//
// select_rows is the same selector run as a two-pass parallel kernel that
// copies all six columns of the kept rows: validate() and
// Dataset::filtered() are this kernel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "telemetry/dataset.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::telemetry {

/// A scrub rule and a row filter, applied together row by row.
class RowSelector {
 public:
  /// With `scrub` unset, every row the filter keeps is kept and nothing is
  /// tallied; with it set, a row must first pass drop_reason.
  explicit RowSelector(const RecordFilter& filter,
                       std::optional<ValidationOptions> scrub = std::nullopt)
      : match_(filter), scrub_(std::move(scrub)) {}

  /// Scrub verdicts of every row seen so far (empty without a scrub rule).
  const ValidationReport& report() const noexcept { return report_; }
  void reset_report() noexcept { report_ = {}; }

  /// Call visit(i, kept) for every row i of `rows`, ascending, where `kept`
  /// says whether the row passes — a consumer can then write every row and
  /// advance only past kept ones, with no branch on the verdict. Throws
  /// std::invalid_argument when a term reads the user column and `rows`
  /// carries none.
  template <typename Visit>
  void for_each_row(const RowColumns& rows, Visit&& visit) {
    if (match_.reads_user_ids() && rows.user_ids.size() != rows.size()) {
      throw std::invalid_argument("RowSelector: filter reads user ids the rows do not carry");
    }
    const std::size_t n = rows.size();
    if (!scrub_) {
      for (std::size_t i = 0; i < n; ++i) visit(i, match_(rows, i));
      return;
    }
    // Tally into locals: the hot loop then keeps them in registers.
    const ValidationOptions scrub = *scrub_;
    ValidationReport report = report_;
    for (std::size_t i = 0; i < n; ++i) {
      const bool clean =
          report.tally(drop_reason(rows.times[i], rows.latencies[i], rows.statuses[i], scrub));
      visit(i, clean & match_(rows, i));
    }
    report_ = report;
  }

 private:
  RowMatcher match_;
  std::optional<ValidationOptions> scrub_;
  ValidationReport report_;
};

/// Rows per chunk of select_rows: a multiple of 64, so every chunk owns
/// whole words of the verdict mask.
inline constexpr std::size_t kSelectChunkRows = std::size_t{1} << 16;

/// All six columns of the rows of `input` that `selector` keeps, in input
/// order, with the scrub verdicts of a fresh tally (`selector`'s own
/// report is not read). Two passes over a fixed grid of chunks of about
/// kSelectChunkRows rows on `threads` pool workers (0 = all hardware
/// threads):
///  1. each chunk runs its own copy of the selector, recording a 1-bit
///     verdict per row, its kept count and its report;
///  2. after an exclusive prefix sum of the counts, each chunk writes its
///     kept rows into its own slice of the unzeroed output columns.
/// The grid depends on the row count alone and the reports merge in chunk
/// order, so the result is the same for every thread count. The output is
/// flagged sorted when `input` is (its kept rows then ascend); otherwise
/// unsorted, even when the kept rows happen to ascend — validate() sorts
/// them and Dataset::filtered() rescans them.
ValidatedDataset select_rows(const Dataset& input, const RowSelector& selector,
                             std::size_t threads);

/// Owned time/latency columns of the rows a RowSelector kept, in input
/// order. clear() keeps the capacity, so a buffer reused across windows
/// pays for its memory once; capacity is reserved a row range ahead but
/// never initialized, so only the rows written are ever touched.
class SampleBuffer {
 public:
  /// Append the time and latency of every row of `rows` that `selector`
  /// keeps.
  void append(const RowColumns& rows, RowSelector& selector) {
    reserve(size_ + rows.size());
    std::int64_t* times = times_.get() + size_;
    double* latencies = latencies_.get() + size_;
    std::size_t kept = 0;
    selector.for_each_row(rows, [&](std::size_t i, bool keep) {
      // Row i always lands in the next free slot; only a kept row stays.
      times[kept] = rows.times[i];
      latencies[kept] = rows.latencies[i];
      kept += keep ? 1 : 0;
    });
    size_ += kept;
  }

  void clear() noexcept { size_ = 0; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Valid until the next append() or clear().
  SampleColumns columns() const noexcept {
    return {{times_.get(), size_}, {latencies_.get(), size_}};
  }

 private:
  void reserve(std::size_t capacity) {
    if (capacity <= capacity_) return;
    capacity = std::max(capacity, 2 * capacity_);
    auto times = std::make_unique_for_overwrite<std::int64_t[]>(capacity);
    auto latencies = std::make_unique_for_overwrite<double[]>(capacity);
    std::copy_n(times_.get(), size_, times.get());
    std::copy_n(latencies_.get(), size_, latencies.get());
    times_ = std::move(times);
    latencies_ = std::move(latencies);
    capacity_ = capacity;
  }

  std::unique_ptr<std::int64_t[]> times_;
  std::unique_ptr<double[]> latencies_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace autosens::telemetry
