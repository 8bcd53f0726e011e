#include "core/accumulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/biased.h"
#include "core/confounder_dow.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "obs/trace.h"
#include "telemetry/binlog.h"
#include "telemetry/clock.h"

namespace autosens::core {
namespace {

/// Guards of the rate ratio: a bin's time fraction must reach
/// kMinTimeFraction in both classes, the reference needs kMinReferenceCount
/// actions there, and α is floored at kAlphaFloor so 1/α cannot explode.
constexpr double kMinTimeFraction = 1e-3;
constexpr double kMinReferenceCount = 10.0;
constexpr double kAlphaFloor = 0.02;

/// Latencies binned per block of the fill (a cache-sized stretch).
constexpr std::size_t kBinBlock = 1024;

constexpr std::int64_t kPeriodMs = 6 * telemetry::kMillisPerHour;
constexpr std::int64_t kPeriodOffsetMs = 2 * telemetry::kMillisPerHour;

/// Twice the length of a run's Voronoi cell clipped to [lo, hi): its edges
/// are the midpoints to the neighbouring samples inside [lo, hi), or the
/// bounds where there is none.
std::int64_t doubled_cell(std::optional<std::int64_t> prev, std::int64_t time_ms,
                          std::optional<std::int64_t> next, std::int64_t lo,
                          std::int64_t hi) noexcept {
  const std::int64_t left = prev && *prev >= lo ? *prev + time_ms : 2 * lo;
  const std::int64_t right = next && *next < hi ? time_ms + *next : 2 * hi;
  return right - left;
}

using telemetry::codec::put_varint;
using telemetry::codec::zigzag_decode;
using telemetry::codec::zigzag_encode;

/// Values as zigzag varints, a run of zeros as (0, run length).
template <typename T>
void put_values(std::vector<std::uint8_t>& out, const std::vector<T>& values) {
  for (std::size_t i = 0; i < values.size();) {
    if (values[i] != 0) {
      put_varint(out, zigzag_encode(static_cast<std::int64_t>(values[i++])));
      continue;
    }
    std::size_t run = 0;
    while (i < values.size() && values[i] == 0) ++i, ++run;
    put_varint(out, 0);
    put_varint(out, run);
  }
}

/// Cursor over untrusted encoded statistics; every read throws
/// std::runtime_error on truncation or a value no fill produces.
struct Decoder {
  std::span<const std::uint8_t> in;
  std::size_t& offset;

  [[noreturn]] static void fail(const std::string& what) {
    throw std::runtime_error("Accumulator::decode: " + what);
  }
  std::uint64_t varint() {
    std::uint64_t value = 0;
    if (!telemetry::codec::get_varint(in, offset, value)) fail("truncated");
    return value;
  }
  /// A zigzag value that must be >= 0 (every count and doubled time is).
  std::int64_t nonnegative() {
    const std::int64_t value = zigzag_decode(varint());
    if (value < 0) fail("negative value");
    return value;
  }
  template <typename T>
  void values(std::vector<T>& into) {
    for (std::size_t i = 0; i < into.size();) {
      const std::uint64_t token = varint();
      if (token != 0) {
        const std::int64_t value = zigzag_decode(token);
        if (value < 0) fail("negative value");
        into[i++] = static_cast<T>(value);
        continue;
      }
      const std::uint64_t run = varint();
      if (run == 0 || run > into.size() - i) fail("bad zero run");
      i += static_cast<std::size_t>(run);  // Already zero.
    }
  }
};

}  // namespace

Accumulator::Accumulator(ClassGrid grid, const AutoSensOptions& options)
    : grid_(grid),
      options_(options),
      fine_(make_latency_histogram(options)),
      alpha_(stats::Histogram::covering(0.0, options.max_latency_ms,
                                        options.alpha_bin_width_ms)) {
  switch (grid) {
    case ClassGrid::kSlot:
      if (options.alpha_slot_ms <= 0 || telemetry::kMillisPerDay % options.alpha_slot_ms != 0) {
        throw std::invalid_argument("alpha_slot_ms must evenly divide a day");
      }
      cell_ms_ = options.alpha_slot_ms;
      classes_ = static_cast<std::size_t>(telemetry::kMillisPerDay / cell_ms_);
      break;
    case ClassGrid::kPeriod:
      cell_ms_ = kPeriodMs;
      offset_ms_ = kPeriodOffsetMs;
      classes_ = telemetry::kDayPeriodCount;
      break;
    case ClassGrid::kDay:
      cell_ms_ = telemetry::kMillisPerDay;
      classes_ = kDayClassCount;
      break;
  }
  counts_fine_.assign(classes_ * fine_.size(), 0);
  counts_alpha_.assign(classes_ * alpha_.size(), 0);
  time_alpha2_.assign(classes_ * alpha_.size(), 0);
  class_time2_.assign(classes_, 0);
  records_.assign(classes_, 0);
  time_fine2_.assign(fine_.size(), 0);
}

Accumulator::Cell Accumulator::cell_at(std::int64_t time_ms) const noexcept {
  const std::int64_t begin =
      telemetry::floor_div(time_ms - offset_ms_, cell_ms_) * cell_ms_ + offset_ms_;
  std::size_t cls = 0;
  switch (grid_) {
    case ClassGrid::kSlot:
      cls = static_cast<std::size_t>(telemetry::floor_mod(begin, telemetry::kMillisPerDay) /
                                     cell_ms_);
      break;
    case ClassGrid::kPeriod:
      cls = static_cast<std::size_t>(telemetry::day_period(begin));
      break;
    case ClassGrid::kDay:
      cls = static_cast<std::size_t>(day_class(begin));
      break;
  }
  return {begin, begin + cell_ms_, cls};
}

// Forced inline: as a call from the fill loop it cost about a third of the
// fill's time (GCC 12, -O3).
__attribute__((always_inline)) inline void Accumulator::add_cells(
    std::optional<std::int64_t> prev, std::int64_t time_ms,
    std::optional<std::int64_t> next, const Cell& cell, const TimeWindow* u_window,
    std::span<const std::uint32_t> fine, std::span<const std::uint32_t> alpha) {
  // The class cell is clipped to the grid cell and to the data range; the
  // data range only bites at its own ends, where prev or next is missing.
  const std::int64_t class_cell =
      doubled_cell(prev, time_ms, next, prev ? cell.begin_ms : time_ms,
                   next ? cell.end_ms : time_ms + 1);
  const std::int64_t u_cell =
      u_window != nullptr
          ? doubled_cell(prev, time_ms, next, u_window->begin_ms, u_window->end_ms)
          : 0;
  data_ = data_ ? TimeWindow{std::min(data_->begin_ms, time_ms),
                             std::max(data_->end_ms, time_ms + 1)}
                : TimeWindow{time_ms, time_ms + 1};
  const std::size_t k = fine.size();
  records_[cell.cls] += k;
  class_time2_[cell.cls] += class_cell;
  u_time2_ += u_cell;
  std::int64_t* counts_fine = &counts_fine_[cell.cls * fine_.size()];
  std::int64_t* counts_alpha = &counts_alpha_[cell.cls * alpha_.size()];
  if (k == 1) {
    ++counts_fine[fine[0]];
    ++counts_alpha[alpha[0]];
    time_alpha2_[cell.cls * alpha_.size() + alpha[0]] += class_cell;
    time_fine2_[fine[0]] += u_cell;
    return;
  }
  const auto run = static_cast<std::int64_t>(k);
  for (std::size_t m = 0; m < k; ++m) {
    ++counts_fine[fine[m]];
    ++counts_alpha[alpha[m]];
    shared_[{fine_.size() + cell.cls * alpha_.size() + alpha[m], run}] += class_cell;
    if (u_window != nullptr) shared_[{fine[m], run}] += u_cell;
  }
}

void Accumulator::add_run(std::optional<std::int64_t> prev, std::int64_t time_ms,
                          std::optional<std::int64_t> next, std::span<const double> latencies,
                          TimeWindow u_window) {
  std::vector<std::uint32_t> fine(latencies.size());
  std::vector<std::uint32_t> alpha(latencies.size());
  simd::bin_indices(latencies, fine_.lo(), fine_.bin_width(), fine_.size(), fine);
  simd::bin_indices(latencies, alpha_.lo(), alpha_.bin_width(), alpha_.size(), alpha);
  add_cells(prev, time_ms, next, cell_at(time_ms), &u_window, fine, alpha);
}

void Accumulator::fill_range(telemetry::SampleColumns columns, std::size_t begin,
                             std::size_t end, std::span<const TimeWindow> u_windows,
                             Neighbours outside) {
  if (begin >= end) return;
  const auto times = columns.times;
  const std::size_t n = times.size();
  // Bin indices come a block at a time. A block starts at a run and holds
  // all of it, so a run's bins are one contiguous slice.
  std::vector<std::uint32_t> fine;
  std::vector<std::uint32_t> alpha;
  std::size_t block_begin = begin;
  std::size_t block_end = begin;

  Cell cell = cell_at(times[begin]);
  auto window = std::lower_bound(
      u_windows.begin(), u_windows.end(), times[begin],
      [](const TimeWindow& w, std::int64_t t) { return w.end_ms <= t; });
  for (std::size_t i = begin; i < end;) {
    const std::int64_t t = times[i];
    if (i > 0 && t < times[i - 1]) {
      throw std::invalid_argument("Accumulator::fill: times not sorted");
    }
    std::size_t j = i + 1;
    while (j < n && times[j] == t) ++j;
    if (j > block_end) {
      block_begin = i;
      block_end = std::min(end, std::max(j, i + kBinBlock));
      const auto latencies = columns.latencies.subspan(block_begin, block_end - block_begin);
      fine.resize(latencies.size());
      alpha.resize(latencies.size());
      simd::bin_indices(latencies, fine_.lo(), fine_.bin_width(), fine_.size(), fine);
      simd::bin_indices(latencies, alpha_.lo(), alpha_.bin_width(), alpha_.size(), alpha);
    }
    if (t >= cell.end_ms) cell = cell_at(t);
    while (window != u_windows.end() && window->end_ms <= t) ++window;
    const bool observed = window != u_windows.end() && window->begin_ms <= t;
    add_cells(i > 0 ? std::optional(times[i - 1]) : outside.before, t,
              j < n ? std::optional(times[j]) : outside.after, cell,
              observed ? &*window : nullptr,
              std::span<const std::uint32_t>(fine).subspan(i - block_begin, j - i),
              std::span<const std::uint32_t>(alpha).subspan(i - block_begin, j - i));
    i = j;
  }
}

Accumulator Accumulator::fill(telemetry::SampleColumns columns, ClassGrid grid,
                              const AutoSensOptions& options,
                              std::span<const TimeWindow> windows, Neighbours outside) {
  Accumulator empty(grid, options);
  if (columns.times.size() != columns.latencies.size()) {
    throw std::invalid_argument("Accumulator::fill: size mismatch");
  }
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (!(windows[w].end_ms > windows[w].begin_ms)) {
      throw std::invalid_argument("Accumulator::fill: empty window");
    }
    if (w > 0 && windows[w].begin_ms < windows[w - 1].end_ms) {
      throw std::invalid_argument("Accumulator::fill: windows not sorted and disjoint");
    }
  }
  const auto times = columns.times;
  const std::size_t n = times.size();
  if (n == 0) return empty;
  if ((outside.before && *outside.before >= times.front()) ||
      (outside.after && *outside.after <= times.back())) {
    throw std::invalid_argument("Accumulator::fill: neighbours inside the stretch");
  }
  const TimeWindow data{.begin_ms = times.front(), .end_ms = times.back() + 1};
  const auto u_windows = windows.empty() ? std::span<const TimeWindow>(&data, 1) : windows;
  // Chunks start on run starts, so each duplicate-time run is one chunk's.
  const auto run_start = [&](std::size_t i) {
    while (i > 0 && i < n && times[i] == times[i - 1]) ++i;
    return i;
  };
  // Merges are exact, so the chunk grid may follow the thread count: two
  // chunks per worker keep every worker busy, and the partials (tens of KiB
  // each) stay few. One worker fills one chunk.
  const std::size_t workers = resolve_threads(options.threads);
  const std::size_t per_chunk = workers == 1 ? n : std::max(kRecordChunk, n / (2 * workers));
  return parallel_map_reduce<Accumulator>(
      n, options.threads, per_chunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        Accumulator partial = empty;
        partial.fill_range(columns, run_start(begin), run_start(end), u_windows, outside);
        return partial;
      },
      [](Accumulator& accumulator, Accumulator&& partial) { accumulator.merge(partial); });
}

void Accumulator::merge(const Accumulator& other) {
  if (other.grid_ != grid_ || other.classes_ != classes_ ||
      other.fine_.size() != fine_.size() || other.alpha_.size() != alpha_.size()) {
    throw std::invalid_argument("Accumulator::merge: geometry mismatch");
  }
  // Checked: a fill cannot overflow, but decoded bytes are untrusted.
  bool overflow = false;
  const auto add = [&](auto& into, const auto& from) {
    for (std::size_t i = 0; i < into.size(); ++i) {
      overflow |= __builtin_add_overflow(into[i], from[i], &into[i]);
    }
  };
  add(counts_fine_, other.counts_fine_);
  add(counts_alpha_, other.counts_alpha_);
  add(time_alpha2_, other.time_alpha2_);
  add(class_time2_, other.class_time2_);
  add(records_, other.records_);
  add(time_fine2_, other.time_fine2_);
  overflow |= __builtin_add_overflow(u_time2_, other.u_time2_, &u_time2_);
  for (const auto& [key, value] : other.shared_) {
    overflow |= __builtin_add_overflow(shared_[key], value, &shared_[key]);
  }
  if (overflow) throw std::overflow_error("Accumulator::merge: statistics overflow");
  if (other.data_) {
    data_ = data_ ? TimeWindow{std::min(data_->begin_ms, other.data_->begin_ms),
                               std::max(data_->end_ms, other.data_->end_ms)}
                  : other.data_;
  }
}

void Accumulator::encode(std::vector<std::uint8_t>& out) const {
  put_varint(out, static_cast<std::uint64_t>(grid_));
  put_varint(out, std::bit_cast<std::uint64_t>(options_.bin_width_ms));
  put_varint(out, std::bit_cast<std::uint64_t>(options_.max_latency_ms));
  put_varint(out, std::bit_cast<std::uint64_t>(options_.alpha_bin_width_ms));
  put_varint(out, zigzag_encode(options_.alpha_slot_ms));
  put_varint(out, classes_);
  put_varint(out, fine_.size());
  put_varint(out, alpha_.size());
  put_values(out, counts_fine_);
  put_values(out, counts_alpha_);
  put_values(out, time_alpha2_);
  put_values(out, class_time2_);
  put_values(out, records_);
  put_values(out, time_fine2_);
  put_varint(out, zigzag_encode(u_time2_));
  put_varint(out, shared_.size());
  for (const auto& [key, value] : shared_) {
    put_varint(out, key.first);
    put_varint(out, static_cast<std::uint64_t>(key.second));
    put_varint(out, zigzag_encode(value));
  }
  out.push_back(data_ ? 1 : 0);
  if (data_) {
    put_varint(out, zigzag_encode(data_->begin_ms));
    put_varint(out, static_cast<std::uint64_t>(data_->length()));
  }
}

Accumulator Accumulator::decode(std::span<const std::uint8_t> in, std::size_t& offset,
                                ClassGrid grid, const AutoSensOptions& options) {
  Accumulator out(grid, options);
  Decoder d{in, offset};
  if (d.varint() != static_cast<std::uint64_t>(grid) ||
      d.varint() != std::bit_cast<std::uint64_t>(options.bin_width_ms) ||
      d.varint() != std::bit_cast<std::uint64_t>(options.max_latency_ms) ||
      d.varint() != std::bit_cast<std::uint64_t>(options.alpha_bin_width_ms) ||
      d.varint() != zigzag_encode(options.alpha_slot_ms) || d.varint() != out.classes_ ||
      d.varint() != out.fine_.size() || d.varint() != out.alpha_.size()) {
    Decoder::fail("geometry differs from the analysis options");
  }
  d.values(out.counts_fine_);
  d.values(out.counts_alpha_);
  d.values(out.time_alpha2_);
  d.values(out.class_time2_);
  d.values(out.records_);
  d.values(out.time_fine2_);
  out.u_time2_ = d.nonnegative();
  // Each record is binned once in each grid, so both bin rows of a class sum
  // to its record count.
  std::size_t total = 0;
  for (std::size_t c = 0; c < out.classes_; ++c) {
    const auto sum = [&](const std::vector<std::int64_t>& counts, std::size_t bins) {
      std::int64_t s = 0;
      for (std::size_t i = 0; i < bins; ++i) {
        if (__builtin_add_overflow(s, counts[c * bins + i], &s)) Decoder::fail("count overflow");
      }
      return static_cast<std::size_t>(s);
    };
    if (sum(out.counts_fine_, out.fine_.size()) != out.records_[c] ||
        sum(out.counts_alpha_, out.alpha_.size()) != out.records_[c]) {
      Decoder::fail("bin counts disagree with record counts");
    }
    if (__builtin_add_overflow(total, out.records_[c], &total)) Decoder::fail("count overflow");
  }
  const std::size_t slots = out.fine_.size() + out.classes_ * out.alpha_.size();
  const std::uint64_t shared = d.varint();
  if (shared > (in.size() - offset) / 3) Decoder::fail("duplicate-run count exceeds payload");
  for (std::uint64_t e = 0; e < shared; ++e) {
    const std::uint64_t slot = d.varint();
    const std::uint64_t run = d.varint();
    if (slot >= slots || run < 2 || run > total) Decoder::fail("bad duplicate-run key");
    const std::pair<std::size_t, std::int64_t> key{static_cast<std::size_t>(slot),
                                                   static_cast<std::int64_t>(run)};
    if (!out.shared_.empty() && !(out.shared_.rbegin()->first < key)) {
      Decoder::fail("duplicate-run keys out of order");
    }
    out.shared_.emplace_hint(out.shared_.end(), key, d.nonnegative());
  }
  if (offset >= in.size()) Decoder::fail("truncated");
  const std::uint8_t has_data = in[offset++];
  if (has_data > 1 || (has_data == 1) != (total > 0)) {
    Decoder::fail("data range disagrees with the record count");
  }
  if (has_data == 1) {
    const std::int64_t begin = zigzag_decode(d.varint());
    const std::uint64_t length = d.varint();
    std::int64_t end = 0;
    if (length == 0 ||
        length > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) ||
        __builtin_add_overflow(begin, static_cast<std::int64_t>(length), &end)) {
      Decoder::fail("bad data range");
    }
    out.data_ = TimeWindow{begin, end};
  }
  return out;
}

std::size_t Accumulator::records() const noexcept {
  std::size_t total = 0;
  for (const std::size_t r : records_) total += r;
  return total;
}

std::vector<double> Accumulator::alpha_bin_centers() const {
  std::vector<double> centers(alpha_.size());
  for (std::size_t i = 0; i < centers.size(); ++i) centers[i] = alpha_.bin_center(i);
  return centers;
}

double Accumulator::doubled_time(std::size_t slot, std::int64_t single) const {
  auto value = static_cast<double>(single);
  for (auto it = shared_.lower_bound({slot, 0}); it != shared_.end() && it->first.first == slot;
       ++it) {
    value += static_cast<double>(it->second) / static_cast<double>(it->first.second);
  }
  return value;
}

std::vector<double> Accumulator::covered_ms() const {
  std::vector<std::int64_t> covered(classes_, 0);
  if (data_) {
    for (Cell cell = cell_at(data_->begin_ms); cell.begin_ms < data_->end_ms;
         cell = cell_at(cell.end_ms)) {
      covered[cell.cls] += std::min(cell.end_ms, data_->end_ms) -
                           std::max(cell.begin_ms, data_->begin_ms);
    }
  }
  return std::vector<double>(covered.begin(), covered.end());
}

RateRatios Accumulator::rate_ratios(std::size_t cls, std::size_t reference) const {
  return rate_ratios(cls, reference, covered_ms());
}

RateRatios Accumulator::rate_ratios(std::size_t cls, std::size_t reference,
                                    const std::vector<double>& covered) const {
  const std::size_t bins = alpha_.size();
  RateRatios out;
  out.ratio.assign(bins, 0.0);
  out.valid.assign(bins, 0);
  out.mean = std::numeric_limits<double>::quiet_NaN();
  const double cls_mass = 0.5 * static_cast<double>(class_time2_[cls]);
  const double ref_mass = 0.5 * static_cast<double>(class_time2_[reference]);
  if (cls_mass <= 0.0 || ref_mass <= 0.0 || covered[cls] <= 0.0 || covered[reference] <= 0.0) {
    return out;
  }
  const auto time_ms = [&](std::size_t c, std::size_t i) {
    const std::size_t slot = c * bins + i;
    return 0.5 * doubled_time(fine_.size() + slot, time_alpha2_[slot]);
  };
  double sum = 0.0;
  for (std::size_t i = 0; i < bins; ++i) {
    const double f_c = time_ms(cls, i) / cls_mass;
    const double f_r = time_ms(reference, i) / ref_mass;
    const auto c_r = static_cast<double>(counts_alpha_[reference * bins + i]);
    if (f_c < kMinTimeFraction || f_r < kMinTimeFraction || c_r < kMinReferenceCount) continue;
    const double rate_c =
        static_cast<double>(counts_alpha_[cls * bins + i]) / (f_c * covered[cls]);
    const double rate_r = c_r / (f_r * covered[reference]);
    out.ratio[i] = rate_c / rate_r;
    out.valid[i] = 1;
    sum += out.ratio[i];
    ++out.used;
  }
  if (out.used > 0) out.mean = sum / static_cast<double>(out.used);
  return out;
}

std::vector<SlotStat> Accumulator::solve_alpha() const {
  const auto covered = covered_ms();
  // References: the busiest classes with enough data (the paper picks
  // multiple references in turn and averages).
  std::vector<std::size_t> order(classes_);
  for (std::size_t k = 0; k < classes_; ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return records_[a] > records_[b]; });
  std::vector<std::size_t> references;
  for (const std::size_t idx : order) {
    if (references.size() >= options_.alpha_reference_slots) break;
    if (records_[idx] >= options_.alpha_min_slot_records) references.push_back(idx);
  }
  if (references.empty()) references.push_back(order.front());

  // Mean reference temporal rate, for the fallback α of sparse classes.
  const auto rate = [&](std::size_t k) {
    return covered[k] > 0.0 ? static_cast<double>(records_[k]) / covered[k] : 0.0;
  };
  double reference_rate = 0.0;
  for (const std::size_t r : references) reference_rate += rate(r);
  reference_rate /= static_cast<double>(references.size());

  std::vector<SlotStat> slots;
  slots.reserve(classes_);
  for (std::size_t k = 0; k < classes_; ++k) {
    SlotStat stat{.slot = static_cast<int>(k),
                  .records = records_[k],
                  .total_time_ms = covered[k],
                  .alpha = 1.0,
                  .alpha_from_fallback = false};
    double sum = 0.0;
    std::size_t used = 0;
    for (const std::size_t r : references) {
      const double a = rate_ratios(k, r, covered).mean;
      if (std::isfinite(a) && a > 0.0) {
        sum += a;
        ++used;
      }
    }
    if (used > 0) {
      stat.alpha = std::max(sum / static_cast<double>(used), kAlphaFloor);
    } else {
      stat.alpha = std::max(rate(k) / reference_rate, kAlphaFloor);
      stat.alpha_from_fallback = true;
    }
    slots.push_back(stat);
  }
  return slots;
}

stats::Histogram Accumulator::biased(std::span<const SlotStat> slots) const {
  stats::Histogram out = make_latency_histogram(options_);
  const std::size_t bins = fine_.size();
  for (std::size_t i = 0; i < bins; ++i) {
    if (slots.empty()) {
      std::int64_t count = 0;
      for (std::size_t k = 0; k < classes_; ++k) count += counts_fine_[k * bins + i];
      out.add_at(i, static_cast<double>(count));
      continue;
    }
    double weight = 0.0;
    for (std::size_t k = 0; k < classes_; ++k) {
      weight += static_cast<double>(counts_fine_[k * bins + i]) / slots[k].alpha;
    }
    out.add_at(i, weight);
  }
  return out;
}

stats::Histogram Accumulator::unbiased() const {
  stats::Histogram out = make_latency_histogram(options_);
  if (u_time2_ <= 0) return out;
  const auto observed = static_cast<double>(u_time2_);
  for (std::size_t i = 0; i < fine_.size(); ++i) {
    out.add_at(i, doubled_time(i, time_fine2_[i]) / observed);
  }
  return out;
}

AnalysisResult Accumulator::finish(std::optional<stats::Histogram> unbiased) const {
  std::vector<SlotStat> slots;
  if (options_.normalize_time_confounder) {
    obs::Span span("alpha_solve");
    slots = solve_alpha();
  }
  AnalysisResult result{.preference = {},
                        .biased = biased(slots),
                        .unbiased = unbiased ? std::move(*unbiased) : this->unbiased(),
                        .slots = std::move(slots)};
  result.preference = compute_preference(result.biased, result.unbiased, options_);
  // The α-normalization rescales weights; report the actual record count.
  result.preference.biased_samples = records();
  return result;
}

}  // namespace autosens::core
