// The estimator core: every path to a curve reduces the same per-class
// sufficient statistics and finishes them through one α solve.
//
// For a class grid (time-of-day slots, 6-hour periods or weekday/weekend
// days), one pass over time-sorted samples collects
//   * integer action counts per class, in analysis bins and in α bins (B);
//   * Voronoi time per class in α bins, each sample's cell clipped to its
//     grid cell and built from the samples inside that cell only (the
//     per-class unbiased distribution of §2.4.1);
//   * the record count per class, and the data range (for covered time);
//   * global Voronoi time in analysis bins over the analysis window or
//     window list (U, §2.2).
// Cell edges are midpoints between integer-millisecond sample times, so every
// cell is a whole number of half milliseconds: the statistics are integers
// (a duplicate-time run of k samples splits its cell k ways, kept exact as
// per-bin integer sums keyed by k and divided once when finished). merge()
// is therefore exact and the result does not depend on the chunk grid, the
// thread count or the feed order. finish() runs the α solve, the
// α-normalized B (Σ_k counts_k / α_k) and compute_preference.
//
// Because the statistics are exact, they can also be stored: encode() and
// decode() round-trip them bit for bit, and a fill over a stretch of whole
// runs takes the samples just outside it as explicit neighbours, so a
// stretch's statistics merge with its neighbours' into exactly the
// statistics of one pass (the store's partition summaries, DESIGN.md §6e).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/preference.h"
#include "stats/histogram.h"
#include "telemetry/dataset.h"

namespace autosens::core {

/// A half-open time window [begin_ms, end_ms).
struct TimeWindow {
  std::int64_t begin_ms = 0;
  std::int64_t end_ms = 0;
  std::int64_t length() const noexcept { return end_ms - begin_ms; }
};

/// Per-slot (time-of-day class) diagnostics.
struct SlotStat {
  int slot = 0;                ///< Class index; start = slot * alpha_slot_ms.
  std::size_t records = 0;
  double total_time_ms = 0.0;  ///< Time the data covers in this class.
  double alpha = 1.0;          ///< Estimated activity factor.
  bool alpha_from_fallback = false;  ///< True if the per-bin estimate failed.
};

/// Everything one analysis produces; `preference` is the headline result.
struct AnalysisResult {
  PreferenceResult preference;
  stats::Histogram biased;    ///< α-normalized when enabled in options.
  stats::Histogram unbiased;  ///< Probability per bin.
  std::vector<SlotStat> slots;  ///< Empty when normalization is disabled.
};

/// The class grids α conditions on. Each tiles time into equal cells and
/// gives every cell one class.
enum class ClassGrid {
  kSlot,    ///< options.alpha_slot_ms time-of-day slots (§2.4.1).
  kPeriod,  ///< The four 6-hour periods of telemetry::DayPeriod (§3.6).
  kDay,     ///< Whole days, weekday or weekend (core::DayClass).
};

/// The temporal action rate of one class over a reference class per α bin:
/// c(L) / (f(L) · T) for each, with c the action count, f the class's
/// fraction of Voronoi time at L and T its covered time.
struct RateRatios {
  std::vector<double> ratio;  ///< 0 where the bin fails the guards.
  std::vector<char> valid;
  std::size_t used = 0;       ///< Valid bins.
  double mean = 0.0;          ///< Mean over valid bins; NaN when none is.
};

class Accumulator {
 public:
  /// Empty statistics over `grid`, binned as `options` says. Throws
  /// std::invalid_argument when options.alpha_slot_ms does not divide a day.
  Accumulator(ClassGrid grid, const AutoSensOptions& options);

  /// The sample times just outside a stretch of columns; nullopt where the
  /// data ends.
  struct Neighbours {
    std::optional<std::int64_t> before;
    std::optional<std::int64_t> after;
  };

  /// The statistics of sorted columns, in one pass. The global U observes
  /// the samples inside `windows` (sorted, disjoint, non-empty), or the
  /// columns' own [begin, end) range when `windows` is empty. When the
  /// columns are a stretch of a longer series, `outside` names the samples
  /// around it, which become the first and last runs' neighbours; the
  /// stretch must hold whole duplicate-time runs (before < first time, after
  /// > last time). Chunks run on options.threads workers; the result is the
  /// same for any value. Throws std::invalid_argument on unsorted times, a
  /// bad window list or neighbours that do not lie outside the stretch.
  static Accumulator fill(telemetry::SampleColumns columns, ClassGrid grid,
                          const AutoSensOptions& options,
                          std::span<const TimeWindow> windows = {}, Neighbours outside = {});

  /// Adds one run of samples that share `time_ms` (one sample, or exact
  /// duplicates). `prev` / `next` are the neighbouring sample times, nullopt
  /// at the ends of the data; `u_window` is the window the global U observes
  /// the run in (the data range for a whole-range analysis).
  void add_run(std::optional<std::int64_t> prev, std::int64_t time_ms,
               std::optional<std::int64_t> next, std::span<const double> latencies,
               TimeWindow u_window);

  /// Adds `other` (same grid and options); exact. Throws
  /// std::invalid_argument on a geometry mismatch and std::overflow_error
  /// when a sum leaves the int64 range (only decoded hostile bytes get
  /// there).
  void merge(const Accumulator& other);

  /// Appends the statistics to `out`: the geometry, then every value as a
  /// zigzag varint with runs of zeros collapsed to (0, run length).
  void encode(std::vector<std::uint8_t>& out) const;
  /// Reads statistics encode() wrote, starting at `offset` (advanced past
  /// them), into empty statistics of `grid` and `options`. Allocates only
  /// what that geometry sizes (plus one map entry per duplicate-run key
  /// present in the bytes). Throws std::runtime_error on truncated or
  /// malformed bytes, a geometry other than options', and values no fill
  /// produces: negative sums, bin counts that disagree with the record
  /// totals, or a data range that disagrees with them.
  static Accumulator decode(std::span<const std::uint8_t> in, std::size_t& offset,
                            ClassGrid grid, const AutoSensOptions& options);

  /// [first sample, last sample + 1) of the statistics; nullopt when empty.
  std::optional<TimeWindow> data_range() const noexcept { return data_; }

  std::size_t class_count() const noexcept { return classes_; }
  std::size_t records() const noexcept;
  std::size_t records(std::size_t cls) const noexcept { return records_[cls]; }
  /// Centers of the α bins.
  std::vector<double> alpha_bin_centers() const;

  /// Rate ratio of class `cls` over class `reference`. The guards: both
  /// classes have Voronoi time and covered time; per bin, both time
  /// fractions are at least 1e-3 and the reference has at least 10 actions.
  RateRatios rate_ratios(std::size_t cls, std::size_t reference) const;

  /// α per time-of-day class (a kSlot grid): the busiest classes are the
  /// references, each class's α is the mean of its rate ratios against
  /// them, floored at 0.02; a class without one falls back to its overall
  /// temporal rate over the references'.
  std::vector<SlotStat> solve_alpha() const;

  /// B in analysis bins: Σ_k counts_k / α_k, or the plain counts when
  /// `slots` is empty.
  stats::Histogram biased(std::span<const SlotStat> slots) const;

  /// U in analysis bins: global Voronoi time over the observed time.
  stats::Histogram unbiased() const;

  /// The analysis: α (when options enable it), B, U (or `unbiased` when
  /// given, e.g. a Monte-Carlo estimate) and the preference curve.
  AnalysisResult finish(std::optional<stats::Histogram> unbiased = std::nullopt) const;

 private:
  struct Cell {
    std::int64_t begin_ms = 0;
    std::int64_t end_ms = 0;
    std::size_t cls = 0;
  };

  Cell cell_at(std::int64_t time_ms) const noexcept;
  /// Accumulates one run whose bins are known. `u_window` is nullptr when
  /// the run lies outside every window the global U observes.
  void add_cells(std::optional<std::int64_t> prev, std::int64_t time_ms,
                 std::optional<std::int64_t> next, const Cell& cell,
                 const TimeWindow* u_window, std::span<const std::uint32_t> fine,
                 std::span<const std::uint32_t> alpha);
  void fill_range(telemetry::SampleColumns columns, std::size_t begin, std::size_t end,
                  std::span<const TimeWindow> u_windows, Neighbours outside);
  /// Twice the Voronoi time of `slot` (global fine bins first, then class
  /// α bins), with duplicate-run shares divided by their run length.
  double doubled_time(std::size_t slot, std::int64_t single) const;
  /// Time the data range covers in each class, in ms.
  std::vector<double> covered_ms() const;
  RateRatios rate_ratios(std::size_t cls, std::size_t reference,
                         const std::vector<double>& covered) const;

  ClassGrid grid_;
  AutoSensOptions options_;
  std::int64_t cell_ms_ = 0;
  std::int64_t offset_ms_ = 0;
  std::size_t classes_ = 0;
  stats::Histogram fine_;   ///< Analysis-bin geometry (no counts).
  stats::Histogram alpha_;  ///< α-bin geometry (no counts).

  std::vector<std::int64_t> counts_fine_;   ///< [class][fine bin]
  std::vector<std::int64_t> counts_alpha_;  ///< [class][α bin]
  std::vector<std::int64_t> time_alpha2_;   ///< [class][α bin], 2× ms, single samples.
  std::vector<std::int64_t> class_time2_;   ///< [class], 2× ms of Voronoi time.
  std::vector<std::size_t> records_;        ///< [class]
  std::vector<std::int64_t> time_fine2_;    ///< [fine bin], 2× ms, single samples.
  std::int64_t u_time2_ = 0;                ///< 2× ms the global U observes.
  /// Duplicate runs: (slot, run length k) -> 2× ms summed over members.
  std::map<std::pair<std::size_t, std::int64_t>, std::int64_t> shared_;
  std::optional<TimeWindow> data_;  ///< [first sample, last sample + 1).
};

}  // namespace autosens::core
