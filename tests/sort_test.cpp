// Dataset::sort_by_time, the parallel sort over packed (time, row) keys,
// against the sort it replaced, kept here as the reference: a stable_sort of
// a row permutation by time, then one gather. Every case must match byte for
// byte in all six columns and the sorted flag at several thread counts.
#include "telemetry/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace autosens::telemetry {
namespace {

/// Rows per chunk of the sort's passes (kSortChunkRows in dataset.cpp).
constexpr std::size_t kChunk = std::size_t{1} << 16;
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

Dataset reference_sort(const Dataset& input) {
  std::vector<std::size_t> perm(input.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const auto times = input.times();
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  return input.gather(perm);
}

/// Rows with the given times, flagged unsorted (so even ascending times
/// reach the sort's scan); every other column is a function of the input
/// position, so a row that lands in the wrong place shows.
Dataset with_times(const std::vector<std::int64_t>& times) {
  Dataset d;
  const MutableRowColumns rows = d.resize_for_overwrite(times.size(), /*ascending=*/false);
  for (std::size_t i = 0; i < times.size(); ++i) {
    rows.times[i] = times[i];
    rows.user_ids[i] = i * 7919 + 3;
    rows.latencies[i] = 1.0 + static_cast<double>(i) * 0.25;
    rows.actions[i] = static_cast<ActionType>(i % kActionTypeCount);
    rows.user_classes[i] = static_cast<UserClass>((i / 3) % kUserClassCount);
    rows.statuses[i] = i % 5 == 0 ? ActionStatus::kError : ActionStatus::kSuccess;
  }
  return d;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Sort copies of `input` at every thread count and compare each with the
/// reference.
void expect_sorts_like_reference(const Dataset& input, const std::string& where) {
  const Dataset want = reference_sort(input);
  ASSERT_TRUE(want.is_sorted()) << where;
  for (const std::size_t threads : kThreadCounts) {
    Dataset got = input;
    got.sort_by_time(threads);
    const std::string at = where + " threads=" + std::to_string(threads);
    ASSERT_EQ(got.size(), want.size()) << at;
    EXPECT_TRUE(got.is_sorted()) << at;
    EXPECT_TRUE(same_bytes(got.times(), want.times())) << at;
    EXPECT_TRUE(same_bytes(got.latencies(), want.latencies())) << at;
    EXPECT_TRUE(same_bytes(got.user_ids(), want.user_ids())) << at;
    EXPECT_TRUE(same_bytes(got.actions(), want.actions())) << at;
    EXPECT_TRUE(same_bytes(got.user_classes(), want.user_classes())) << at;
    EXPECT_TRUE(same_bytes(got.statuses(), want.statuses())) << at;
  }
}

/// n uniform times in [lo, hi].
std::vector<std::int64_t> random_times(std::size_t n, std::int64_t lo, std::int64_t hi,
                                       std::uint64_t seed) {
  stats::Random random(seed);
  std::vector<std::int64_t> times(n);
  const std::uint64_t values = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  for (auto& t : times) t = lo + static_cast<std::int64_t>(random.uniform_index(values));
  return times;
}

TEST(SortTest, TinyInputs) {
  expect_sorts_like_reference(with_times({}), "n=0");
  expect_sorts_like_reference(with_times({5}), "n=1");
  expect_sorts_like_reference(with_times({5, 4}), "n=2 reversed");
  expect_sorts_like_reference(with_times({4, 4}), "n=2 equal");
  expect_sorts_like_reference(with_times({4, 5}), "n=2 sorted");
  expect_sorts_like_reference(with_times({3, 1, 2, 1, 3, 1}), "n=6 duplicates");
}

TEST(SortTest, RandomAroundChunkEdges) {
  for (const std::size_t n : {kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 7}) {
    expect_sorts_like_reference(with_times(random_times(n, 0, 1'000'000'000, n)),
                                "random n=" + std::to_string(n));
  }
}

TEST(SortTest, AllEqualTimesStayInInsertionOrder) {
  Dataset d = with_times(std::vector<std::int64_t>(kChunk + 1, 42));
  expect_sorts_like_reference(d, "all equal");
  // Equal times ascend, so the sort is a scan that moves nothing.
  const std::uint64_t* users = d.user_ids().data();
  d.sort_by_time(2);
  EXPECT_TRUE(d.is_sorted());
  EXPECT_EQ(d.user_ids().data(), users);
}

TEST(SortTest, DuplicateRunsStraddleChunkAndBucketEdges) {
  // Four distinct times over 3 chunks + 7 rows: with few time bits, the
  // top key bits that pick a bucket include row bits, so runs of one time
  // are split across buckets as well as across chunks.
  const std::size_t n = 3 * kChunk + 7;
  expect_sorts_like_reference(with_times(random_times(n, 0, 3, 11)), "four times");
  // Runs of 1000 equal times in descending order: runs cross every chunk
  // edge, and each run is in order inside its bucket.
  std::vector<std::int64_t> runs(n);
  for (std::size_t i = 0; i < n; ++i) runs[i] = static_cast<std::int64_t>((n - i) / 1000);
  expect_sorts_like_reference(with_times(runs), "descending runs");
  // Shuffled times drawn from few values with a wide span.
  expect_sorts_like_reference(with_times(random_times(n, 0, 64, 12)), "65 times");
}

TEST(SortTest, NegativeReversedAndSortedInputs) {
  const std::size_t n = 2 * kChunk + 13;
  expect_sorts_like_reference(with_times(random_times(n, -5'000'000, 5'000'000, 21)),
                              "negative");
  std::vector<std::int64_t> reversed(n);
  for (std::size_t i = 0; i < n; ++i) reversed[i] = static_cast<std::int64_t>(n - i) - 1000;
  expect_sorts_like_reference(with_times(reversed), "reversed");
  std::vector<std::int64_t> sorted = random_times(n, -1000, 1000, 22);
  std::sort(sorted.begin(), sorted.end());
  expect_sorts_like_reference(with_times(sorted), "sorted");
  // Sorted but for one row at the very end: the scan must see the last chunk.
  sorted.back() = sorted.front() - 1;
  expect_sorts_like_reference(with_times(sorted), "sorted but last");
  // Exactly two chunks, each in order, out of order across their edge.
  std::vector<std::int64_t> two_runs(2 * kChunk);
  for (std::size_t i = 0; i < two_runs.size(); ++i) {
    two_runs[i] = static_cast<std::int64_t>(i < kChunk ? i + 2 * kChunk : i);
  }
  expect_sorts_like_reference(with_times(two_runs), "sorted chunks out of order");
}

TEST(SortTest, InterleavedSessionStreams) {
  // The collector's shape: 256 sessions x 8192 rows of a time-ordered log,
  // sent by two emitters that each take every other session, so the rows
  // arrive as two time-ordered streams interleaved in 256-row frames.
  constexpr std::size_t kSessions = 256;
  constexpr std::size_t kPerSession = 8192;
  constexpr std::size_t kFrame = 256;
  std::vector<std::int64_t> log = random_times(kSessions * kPerSession, 0, 30LL * 86'400'000, 31);
  std::sort(log.begin(), log.end());
  std::vector<std::int64_t> streams[2];
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams[s % 2].insert(streams[s % 2].end(), log.begin() + s * kPerSession,
                          log.begin() + (s + 1) * kPerSession);
  }
  std::vector<std::int64_t> arrived;
  arrived.reserve(log.size());
  for (std::size_t at = 0; at < streams[0].size(); at += kFrame) {
    for (const auto& stream : streams) {
      arrived.insert(arrived.end(), stream.begin() + at, stream.begin() + at + kFrame);
    }
  }
  expect_sorts_like_reference(with_times(arrived), "interleaved sessions");
}

TEST(SortTest, SkewedIntoOneBucket) {
  // One far outlier stretches the span, so all other rows share the
  // lowest bucket and one std::sort handles nearly the whole input.
  std::vector<std::int64_t> times = random_times(2 * kChunk, 0, 1000, 41);
  times[kChunk / 2] = std::int64_t{1} << 40;
  expect_sorts_like_reference(with_times(times), "skewed");
}

TEST(SortTest, WidestSpanThatStillPacks) {
  // 17 row bits plus a 47-bit span fill the 64-bit key exactly.
  const std::size_t n = kChunk + 5;
  std::vector<std::int64_t> times = random_times(n, -(std::int64_t{1} << 46),
                                                 (std::int64_t{1} << 46) - 1, 51);
  times[0] = -(std::int64_t{1} << 46);
  times[1] = (std::int64_t{1} << 46) - 1;
  expect_sorts_like_reference(with_times(times), "64-bit keys");
}

TEST(SortTest, FullInt64SpanTakesTheFallback) {
  // A span of 2^64 - 1 cannot pack with any row bits: the permutation
  // stable_sort runs instead, with the same result.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> times = random_times(kChunk + 3, -100, 100, 61);
  times[10] = kMax;
  times[20] = kMin;
  times[30] = kMax;
  times[40] = kMin;
  expect_sorts_like_reference(with_times(times), "full span");
  expect_sorts_like_reference(with_times({kMax, kMin, 0, kMin, kMax}), "full span n=5");
}

TEST(SortTest, SortedFlagSettles) {
  Dataset d = with_times({3, 1, 2});
  EXPECT_FALSE(d.is_sorted());
  d.sort_by_time(8);
  EXPECT_TRUE(d.is_sorted());
  const std::vector<std::int64_t> want = {1, 2, 3};
  EXPECT_TRUE(std::equal(d.times().begin(), d.times().end(), want.begin(), want.end()));
  // A second sort is a no-op.
  const std::int64_t* data = d.times().data();
  d.sort_by_time(8);
  EXPECT_EQ(d.times().data(), data);
}

}  // namespace
}  // namespace autosens::telemetry
