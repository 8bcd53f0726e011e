// The parallel select kernel (telemetry/select.h) behind validate() and
// Dataset::filtered(), against serial references kept here: the run-copy
// loop validate() used before the kernel, and gather(filter.rows()). Every
// case must match byte for byte in all six columns, the sorted flag and
// every ValidationReport field, at several thread counts.
#include "telemetry/select.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "stats/rng.h"

namespace autosens::telemetry {
namespace {

constexpr std::size_t kChunk = kSelectChunkRows;
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// validate() as it was before the kernel: copy kept rows as contiguous
/// runs, one append per run and column, then a stable sort.
ValidatedDataset reference_validate(const Dataset& input, const ValidationOptions& options) {
  ValidatedDataset result;
  RowSelector selector(RecordFilter{}, options);
  selector.for_each_kept_run(input.row_columns(), [&](const RowColumns& run) {
    result.dataset.append_columns(run.times, run.latencies, run.user_ids, run.actions,
                                  run.user_classes, run.statuses);
  });
  result.dataset.sort_by_time();
  result.report = selector.report();
  return result;
}

Dataset reference_filtered(const Dataset& input, const RecordFilter& filter) {
  return input.gather(filter.rows(input));
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void expect_same_dataset(const Dataset& got, const Dataset& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_TRUE(same_bytes(got.times(), want.times())) << where;
  EXPECT_TRUE(same_bytes(got.latencies(), want.latencies())) << where;
  EXPECT_TRUE(same_bytes(got.user_ids(), want.user_ids())) << where;
  EXPECT_TRUE(same_bytes(got.actions(), want.actions())) << where;
  EXPECT_TRUE(same_bytes(got.user_classes(), want.user_classes())) << where;
  EXPECT_TRUE(same_bytes(got.statuses(), want.statuses())) << where;
  EXPECT_EQ(got.is_sorted(), want.is_sorted()) << where;
}

void expect_same_report(const ValidationReport& got, const ValidationReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.total, want.total) << where;
  EXPECT_EQ(got.kept, want.kept) << where;
  EXPECT_EQ(got.dropped_error_status, want.dropped_error_status) << where;
  EXPECT_EQ(got.dropped_nonpositive_latency, want.dropped_nonpositive_latency) << where;
  EXPECT_EQ(got.dropped_excessive_latency, want.dropped_excessive_latency) << where;
  EXPECT_EQ(got.dropped_nonfinite_latency, want.dropped_nonfinite_latency) << where;
  EXPECT_EQ(got.dropped_bad_timestamp, want.dropped_bad_timestamp) << where;
  EXPECT_EQ(got.dropped_out_of_window, want.dropped_out_of_window) << where;
}

/// A latency, status or time that validate() rejects, cycling through the
/// drop reasons by `k`; a pre-epoch time only where the rows may go
/// backwards anyway.
void plant_drop(ActionRecord& r, std::size_t k, bool unsorted) {
  switch (k % 5) {
    case 0: r.latency_ms = -1.0; break;
    case 1: r.latency_ms = 90'000.0; break;
    case 2: r.latency_ms = std::numeric_limits<double>::quiet_NaN(); break;
    case 3: r.status = ActionStatus::kError; break;
    default:
      if (unsorted) {
        r.time_ms = -5;
      } else {
        r.status = ActionStatus::kError;
      }
      break;
  }
}

enum class Drops { kRandom, kNone, kAll, kChunkEdges };

/// `n` rows with distinct-ish values in every column and drops planted by
/// `drops`; times ascend unless `unsorted`.
Dataset make_rows(std::size_t n, Drops drops, bool unsorted, std::uint64_t seed) {
  stats::Random random(seed);
  // The rows around every boundary of the kernel's chunk grid.
  std::vector<std::size_t> edges;
  const std::size_t words = (n + 63) / 64;
  const core::ChunkGrid grid = core::make_chunk_grid(words, kChunk / 64);
  for (std::size_t c = 1; c < grid.chunks; ++c) edges.push_back(grid.begin(c) * 64);
  Dataset d;
  d.reserve(n);
  std::int64_t t = 1'600'000'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(random.uniform_index(2000));
    ActionRecord r{.time_ms = unsorted && random.bernoulli(0.3)
                                  ? t - static_cast<std::int64_t>(random.uniform_index(50'000))
                                  : t,
                   .user_id = 1 + random.uniform_index(400),
                   .latency_ms = 1.0 + random.uniform() * 2000.0,
                   .action = static_cast<ActionType>(random.uniform_index(kActionTypeCount)),
                   .user_class = static_cast<UserClass>(random.uniform_index(kUserClassCount)),
                   .status = ActionStatus::kSuccess};
    bool drop = false;
    switch (drops) {
      case Drops::kRandom: drop = random.bernoulli(0.1); break;
      case Drops::kNone: break;
      case Drops::kAll: drop = true; break;
      case Drops::kChunkEdges:
        for (const std::size_t e : edges) drop |= i + 1 == e || i == e || i == e + 1;
        drop |= i == 0 || i + 1 == n;
        break;
    }
    if (drop) plant_drop(r, i, unsorted);
    d.add(r);
  }
  return d;
}

std::string describe(std::size_t n, int drops, bool unsorted, std::size_t threads) {
  return "n=" + std::to_string(n) + " drops=" + std::to_string(drops) +
         (unsorted ? " unsorted" : " sorted") + " threads=" + std::to_string(threads);
}

const std::vector<std::size_t>& sizes() {
  // Around one chunk, three chunks and a tail, and a size whose chunk
  // edges fall off the 64 K-row marks.
  static const std::vector<std::size_t> values = {
      0, 1, kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 7, 4 * kChunk + 37'000};
  return values;
}

TEST(SelectTest, ValidateMatchesRunCopyReference) {
  for (const std::size_t n : sizes()) {
    for (const Drops drops : {Drops::kRandom, Drops::kNone, Drops::kAll, Drops::kChunkEdges}) {
      for (const bool unsorted : {false, true}) {
        const Dataset input = make_rows(n, drops, unsorted, 17 + n);
        const ValidatedDataset want = reference_validate(input, {});
        for (const std::size_t threads : kThreadCounts) {
          const std::string where = describe(n, static_cast<int>(drops), unsorted, threads);
          const ValidatedDataset got = validate(input, {}, threads);
          expect_same_dataset(got.dataset, want.dataset, where);
          expect_same_report(got.report, want.report, where);
        }
      }
    }
  }
}

TEST(SelectTest, ValidateOptionsMatchReference) {
  const std::size_t n = 3 * kChunk + 7;
  const Dataset input = make_rows(n, Drops::kRandom, /*unsorted=*/false, 5);
  const std::int64_t mid = input.times()[n / 2];
  const std::vector<ValidationOptions> policies = {
      {.successful_only = false},
      {.min_latency_ms = 100.0, .max_latency_ms = 1500.0},
      {.window_begin_ms = input.times()[n / 4], .window_end_ms = mid},
      {.min_time_ms = input.times()[n / 3]},
  };
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const ValidatedDataset want = reference_validate(input, policies[p]);
    for (const std::size_t threads : kThreadCounts) {
      const std::string where = "policy " + std::to_string(p) + " threads " +
                                std::to_string(threads);
      const ValidatedDataset got = validate(input, policies[p], threads);
      expect_same_dataset(got.dataset, want.dataset, where);
      expect_same_report(got.report, want.report, where);
    }
  }
}

TEST(SelectTest, FilteredMatchesGatherReference) {
  for (const std::size_t n : sizes()) {
    for (const bool unsorted : {false, true}) {
      // Unscrubbed rows: filtered() copies NaN latencies and error rows too.
      const Dataset input = make_rows(n, Drops::kRandom, unsorted, 29 + n);
      std::vector<RecordFilter> filters = {
          RecordFilter{},
          by_action(ActionType::kSelectMail),
          all_of({by_action(ActionType::kSearch), by_user_class(UserClass::kConsumer)}),
          all_of({by_action(ActionType::kSearch), by_action(ActionType::kSelectMail)}),
      };
      if (!input.empty()) {
        const Dataset scrubbed = validate(input, {}, 1).dataset;
        if (!scrubbed.empty()) filters.push_back(UserQuartiles(scrubbed).in_quartile(1));
      }
      for (std::size_t f = 0; f < filters.size(); ++f) {
        const Dataset want = reference_filtered(input, filters[f]);
        for (const std::size_t threads : kThreadCounts) {
          const std::string where = describe(n, 0, unsorted, threads) + " filter " +
                                    std::to_string(f);
          expect_same_dataset(input.filtered(filters[f], threads), want, where);
        }
      }
    }
  }
}

TEST(SelectTest, FilteredKeepsInputOrderOfUnsortedRows) {
  // Kept rows that go backwards stay backwards and the flag says so; kept
  // rows of an unsorted input that happen to ascend are flagged sorted.
  Dataset d;
  d.add({.time_ms = 30, .user_id = 1, .latency_ms = 1.0, .action = ActionType::kSearch});
  d.add({.time_ms = 10, .user_id = 1, .latency_ms = 2.0, .action = ActionType::kSelectMail});
  d.add({.time_ms = 20, .user_id = 1, .latency_ms = 3.0, .action = ActionType::kSearch});
  ASSERT_FALSE(d.is_sorted());
  const Dataset all = d.filtered(RecordFilter{});
  EXPECT_EQ((std::vector<std::int64_t>(all.times().begin(), all.times().end())),
            (std::vector<std::int64_t>{30, 10, 20}));
  EXPECT_FALSE(all.is_sorted());
  const Dataset later = d.filtered(by_time_range(15, 100));
  EXPECT_EQ((std::vector<std::int64_t>(later.times().begin(), later.times().end())),
            (std::vector<std::int64_t>{30, 20}));
  EXPECT_FALSE(later.is_sorted());
  const Dataset before_25 = d.filtered(by_time_range(0, 25));
  EXPECT_TRUE(before_25.is_sorted());
}

TEST(SelectTest, SelectRowsTalliesAFreshReport) {
  // The given selector's own tally is not read or carried over.
  const Dataset input = make_rows(1000, Drops::kRandom, false, 3);
  RowSelector selector(RecordFilter{}, ValidationOptions{});
  selector.for_each_row(input.row_columns(), [](std::size_t, bool) {});
  ASSERT_EQ(selector.report().total, 1000u);
  const ValidatedDataset got = select_rows(input, selector, 2);
  expect_same_report(got.report, reference_validate(input, {}).report, "fresh tally");
}

}  // namespace
}  // namespace autosens::telemetry
