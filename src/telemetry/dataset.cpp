#include "telemetry/dataset.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
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

/// Rows per chunk of the sort's passes, and the most chunks one sort uses.
constexpr std::size_t kSortChunkRows = std::size_t{1} << 16;
constexpr std::size_t kSortMaxChunks = 64;
/// Rows a scatter bucket aims at, so its std::sort runs in cache, and the
/// cap on bucket bits: the chunks x buckets count table then never exceeds
/// 64 x 4096 counters (2 MiB), however many rows there are.
constexpr std::size_t kBucketRows = std::size_t{1} << 12;
constexpr unsigned kMaxBucketBits = 12;

/// out[i] = column[rows[i] & mask], in a fresh unzeroed column whose chunks
/// the pool fills on `threads` workers, so each output page is first
/// touched by the worker that writes it.
template <typename T, typename Index>
Column<T> gathered(const Column<T>& column, std::span<const Index> rows, std::size_t threads,
                   Index mask = ~Index{0}) {
  Column<T> out(rows.size());
  core::parallel_for(rows.size(), threads, kSortChunkRows,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t i = begin; i < end; ++i) {
                         out[i] = column[static_cast<std::size_t>(rows[i] & mask)];
                       }
                     });
  return out;
}

}  // namespace

Dataset Dataset::gather(std::span<const std::size_t> rows) const {
  if (!rows.empty() && *std::max_element(rows.begin(), rows.end()) >= size()) {
    throw std::out_of_range("Dataset::gather: row index out of range");
  }
  Dataset out;
  out.time_ms_ = gathered(time_ms_, rows, 1);
  out.latency_ms_ = gathered(latency_ms_, rows, 1);
  out.user_id_ = gathered(user_id_, rows, 1);
  out.action_ = gathered(action_, rows, 1);
  out.user_class_ = gathered(user_class_, rows, 1);
  out.status_ = gathered(status_, rows, 1);
  out.sorted_ = std::is_sorted(out.time_ms_.begin(), out.time_ms_.end());
  return out;
}

void Dataset::sort_by_time(std::size_t threads) {
  if (sorted_) return;
  const std::size_t n = size();
  if (n < 2) {
    sorted_ = true;
    return;
  }
  const std::int64_t* times = time_ms_.data();
  const core::ChunkGrid grid = core::make_chunk_grid(n, kSortChunkRows, kSortMaxChunks);

  // Pass 1: the time range, and whether the rows ascend already.
  struct Range {
    std::int64_t min;
    std::int64_t max;
    bool ascending;
  };
  std::vector<Range> ranges(grid.chunks);
  core::parallel_for_items(grid.chunks, threads, [&](std::size_t c) {
    const std::size_t begin = grid.begin(c);
    const std::size_t end = grid.end(c);
    Range range{times[begin], times[begin], true};
    for (std::size_t i = begin + 1; i < end; ++i) {
      range.min = std::min(range.min, times[i]);
      range.max = std::max(range.max, times[i]);
      range.ascending &= times[i - 1] <= times[i];
    }
    ranges[c] = range;
  });
  Range all = ranges[0];
  for (std::size_t c = 1; c < grid.chunks; ++c) {
    all.min = std::min(all.min, ranges[c].min);
    all.max = std::max(all.max, ranges[c].max);
    all.ascending &= ranges[c].ascending && times[grid.end(c - 1) - 1] <= times[grid.begin(c)];
  }
  if (all.ascending) {
    sorted_ = true;
    return;
  }

  // Packed unique keys: key = (time - min) << row_bits | row. Keys order
  // by time, then by row, which is exactly the stable order, so any sort of
  // the keys gives it. Rows here are not ascending, so n >= 2 and the span
  // is at least 1: key_bits >= 2 and row_bits <= 63.
  const std::uint64_t base = static_cast<std::uint64_t>(all.min);
  const std::uint64_t span = static_cast<std::uint64_t>(all.max) - base;
  const unsigned row_bits = static_cast<unsigned>(std::bit_width(n - 1));
  const unsigned key_bits = static_cast<unsigned>(std::bit_width(span)) + row_bits;
  // Latency and the byte columns, gathered by row `rows[i] & mask` into
  // fresh columns, each old one freed as its sorted one replaces it.
  const auto gather_columns = [&](std::span<const std::uint64_t> rows, std::uint64_t mask) {
    latency_ms_ = gathered(latency_ms_, rows, threads, mask);
    action_ = gathered(action_, rows, threads, mask);
    user_class_ = gathered(user_class_, rows, threads, mask);
    status_ = gathered(status_, rows, threads, mask);
  };
  if (key_bits > 64) {
    // Span and row bits do not fit one word (about 139 years of span at
    // 2 M rows): stable-sort a row permutation by time instead.
    Column<std::uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::uint64_t{0});
    std::stable_sort(perm.begin(), perm.end(), [times](std::uint64_t a, std::uint64_t b) {
      return times[a] < times[b];
    });
    const std::span<const std::uint64_t> rows = perm;
    time_ms_ = gathered(time_ms_, rows, threads);
    user_id_ = gathered(user_id_, rows, threads);
    gather_columns(rows, ~std::uint64_t{0});
    sorted_ = true;
    return;
  }
  const auto key = [times, base, row_bits](std::size_t i) {
    return (static_cast<std::uint64_t>(times[i]) - base) << row_bits | i;
  };

  // Pass 2: per-chunk counts of each bucket, a bucket being the keys that
  // share their top `bits` bits.
  const unsigned bits = std::min(
      key_bits,
      std::clamp(static_cast<unsigned>(std::bit_width(n / kBucketRows)), 1U, kMaxBucketBits));
  const unsigned shift = key_bits - bits;
  const std::size_t buckets = std::size_t{1} << bits;
  std::vector<std::size_t> counts(grid.chunks * buckets, 0);
  core::parallel_for_items(grid.chunks, threads, [&](std::size_t c) {
    std::size_t* count = counts.data() + c * buckets;
    for (std::size_t i = grid.begin(c); i < grid.end(c); ++i) ++count[key(i) >> shift];
  });
  // Chunk-major exclusive prefix sum: chunk c's keys of bucket b start
  // after every smaller bucket and after chunks 0..c-1's keys of bucket b.
  std::vector<std::size_t> bucket_begin(buckets + 1);
  std::size_t offset = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_begin[b] = offset;
    for (std::size_t c = 0; c < grid.chunks; ++c) {
      offset += std::exchange(counts[c * buckets + b], offset);
    }
  }
  bucket_begin[buckets] = n;

  // Pass 3: scatter every key into its bucket; within a bucket, keys keep
  // row order, so a bucket whose times ascend lands sorted.
  Column<std::uint64_t> keys(n);
  core::parallel_for_items(grid.chunks, threads, [&](std::size_t c) {
    std::size_t* next = counts.data() + c * buckets;
    for (std::size_t i = grid.begin(c); i < grid.end(c); ++i) {
      const std::uint64_t k = key(i);
      keys[next[k >> shift]++] = k;
    }
  });

  // Pass 4: sort each bucket in cache; one already in order is only scanned.
  // The buckets split into about as many chunks as the rows did, so a
  // one-chunk sort stays on the calling thread.
  core::parallel_for(buckets, threads, buckets / grid.chunks,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t b = begin; b < end; ++b) {
                         std::uint64_t* first = keys.data() + bucket_begin[b];
                         std::uint64_t* last = keys.data() + bucket_begin[b + 1];
                         if (!std::is_sorted(first, last)) std::sort(first, last);
                       }
                     });

  // Pass 5: column by column, each output chunk on the worker that fills
  // it. After the four gathers, one pass writes the times back out of the
  // keys, in place (pass 3 read the old times for the last time), and
  // gathers the user ids over the keys they came from, which then become
  // the user column.
  const std::uint64_t row_mask = (std::uint64_t{1} << row_bits) - 1;
  gather_columns(keys, row_mask);
  core::parallel_for(n, threads, kSortChunkRows,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t i = begin; i < end; ++i) {
                         const std::uint64_t k = keys[i];
                         time_ms_[i] = static_cast<std::int64_t>(base + (k >> row_bits));
                         keys[i] = user_id_[static_cast<std::size_t>(k & row_mask)];
                       }
                     });
  user_id_ = std::move(keys);
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
