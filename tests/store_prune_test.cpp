// Partition-pruning correctness: every windowed read of an ASL3 store must
// be indistinguishable — record for record, and bit for bit through the
// whole analysis pipeline — from filtering the fully loaded dataset. The
// crafted dataset stresses the pruning edges: calendar days with gaps,
// records planted exactly on day boundaries, and a record at a partition's
// max time (max_time is inclusive; a window starting there must include it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/biased.h"
#include "core/confidence.h"
#include "core/pipeline.h"
#include "core/store_analyze.h"
#include "stats/rng.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"
#include "telemetry/validate.h"

namespace autosens {
namespace {

using telemetry::ActionStatus;
using telemetry::ActionType;
using telemetry::Dataset;
using telemetry::kMillisPerDay;
using telemetry::UserClass;
using telemetry::store::build_store;
using telemetry::store::StoredDataset;
using telemetry::store::StoreOptions;

/// A directory private to the running test case: ctest runs each case as
/// its own process, possibly concurrently, so cases must not share one.
std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (name + "-" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic multi-day dataset over days {0, 1, 3, 6} (day gaps!) with
/// records planted at the exact day boundaries k*day-1 and k*day.
Dataset crafted_dataset() {
  Dataset d;
  std::uint64_t i = 0;
  const auto add = [&](std::int64_t t) {
    d.add({.time_ms = t,
           .user_id = 100 + (i % 37),
           .latency_ms = 100.0 + static_cast<double>((i * 97) % 2400),
           .action = static_cast<ActionType>(i % telemetry::kActionTypeCount),
           .user_class = static_cast<UserClass>(i % telemetry::kUserClassCount),
           .status = ActionStatus::kSuccess});
    ++i;
  };
  for (const std::int64_t day : {0, 1, 3, 6}) {
    const std::int64_t base = day * kMillisPerDay;
    add(base);  // Exactly at the day boundary.
    for (int k = 1; k < 2000; ++k) add(base + static_cast<std::int64_t>(k) * 43'000);
    add(base + kMillisPerDay - 1);  // Last representable instant of the day.
  }
  d.sort_by_time();
  return d;
}

Dataset window_of(const Dataset& dataset, std::int64_t begin, std::int64_t end) {
  return dataset.filtered(telemetry::by_time_range(begin, end));
}

void expect_equal(const Dataset& a, const Dataset& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " record " << i;
  }
}

void expect_bitwise_equal(const core::PreferenceResult& a, const core::PreferenceResult& b) {
  ASSERT_EQ(a.latency_ms, b.latency_ms);
  ASSERT_EQ(a.raw_ratio, b.raw_ratio);
  ASSERT_EQ(a.smoothed, b.smoothed);
  ASSERT_EQ(a.normalized, b.normalized);
  ASSERT_EQ(a.valid, b.valid);
  ASSERT_EQ(a.support_begin, b.support_begin);
  ASSERT_EQ(a.support_end, b.support_end);
  ASSERT_EQ(a.biased_samples, b.biased_samples);
}

class StorePruneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = crafted_dataset();
    const auto dir = fresh_dir("store_prune");
    // Small shards/blocks so windows straddle many partition AND block edges.
    build_store(dataset_, dir.string(),
                StoreOptions{.partition_rows = 700, .block_rows = 64, .compress = true});
    opened_ = StoredDataset::open(dir.string());
  }

  const StoredDataset& store() const { return *opened_; }

  Dataset dataset_;
  std::optional<StoredDataset> opened_;
};

TEST_F(StorePruneTest, PruneMatchesBruteForce) {
  const std::int64_t lo = store().min_time_ms() - kMillisPerDay;
  const std::int64_t hi = store().max_time_ms() + kMillisPerDay;
  for (std::int64_t begin = lo; begin < hi; begin += kMillisPerDay / 3) {
    for (const std::int64_t width :
         {std::int64_t{1'000'000}, kMillisPerDay, 3 * kMillisPerDay}) {
      const auto kept = store().prune(begin, begin + width);
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < store().partitions().size(); ++i) {
        const auto& p = store().partitions()[i];
        bool overlaps = false;
        for (std::size_t r = 0; r < dataset_.size(); ++r) {
          const std::int64_t t = dataset_.times()[r];
          if (t >= begin && t < begin + width && t >= p.min_time_ms && t <= p.max_time_ms) {
            overlaps = true;
            break;
          }
        }
        // Brute force by records: a partition with matching records must be
        // kept. (prune may keep a boundary partition whose records all miss
        // the window — load_window trims those to zero rows.)
        if (overlaps) expected.push_back(i);
      }
      for (const std::size_t i : expected) {
        EXPECT_NE(std::find(kept.begin(), kept.end(), i), kept.end())
            << "partition " << i << " missing for window [" << begin << ", "
            << begin + width << ")";
      }
    }
  }
}

TEST_F(StorePruneTest, WindowsStraddlingPartitionBoundaries) {
  // Windows anchored around every partition edge (so each boundary gets
  // straddled by every width), plus a coarse sweep across the whole range —
  // which includes the day gaps: days 2, 4, 5 hold no records, so mid-range
  // windows can land on empty stretches entirely.
  std::vector<std::int64_t> anchors;
  for (const auto& p : store().partitions()) {
    anchors.push_back(p.min_time_ms);
    anchors.push_back(p.max_time_ms);
  }
  for (std::int64_t t = store().min_time_ms() - 1000; t < store().max_time_ms() + 1000;
       t += kMillisPerDay / 2) {
    anchors.push_back(t);
  }
  for (const std::int64_t width : {std::int64_t{1'000}, std::int64_t{500'000},
                                   kMillisPerDay / 2, kMillisPerDay + 1, 2 * kMillisPerDay}) {
    for (const std::int64_t anchor : anchors) {
      for (const std::int64_t begin : {anchor - width, anchor - width / 2, anchor - 1, anchor,
                                       anchor + 1}) {
        const auto load = store().load_window(begin, begin + width);
        expect_equal(window_of(dataset_, begin, begin + width), load.dataset,
                     "window [" + std::to_string(begin) + ", +" + std::to_string(width) + ")");
        EXPECT_TRUE(load.dataset.is_sorted());
        EXPECT_EQ(load.partitions_scanned + load.partitions_pruned,
                  store().partitions().size());
      }
    }
  }
}

TEST_F(StorePruneTest, RecordAtPartitionMaxTimeIsIncluded) {
  for (const auto& p : store().partitions()) {
    // max_time is inclusive: a window starting exactly there still overlaps.
    const auto load = store().load_window(p.max_time_ms, p.max_time_ms + 1);
    const Dataset expected = window_of(dataset_, p.max_time_ms, p.max_time_ms + 1);
    ASSERT_GE(expected.size(), 1u);
    expect_equal(expected, load.dataset, p.dir_name);
  }
}

TEST_F(StorePruneTest, EmptyMidRangeWindowsLoadNothing) {
  // Day 2 exists in the time range but holds no partitions.
  const auto load = store().load_window(2 * kMillisPerDay, 3 * kMillisPerDay);
  EXPECT_EQ(load.dataset.size(), 0u);
  EXPECT_EQ(load.partitions_scanned, 0u);
  EXPECT_EQ(load.partitions_pruned, store().partitions().size());
  EXPECT_EQ(load.bytes_read, 0u);
}

TEST_F(StorePruneTest, PrunedAnalysisBitIdenticalToFullScan) {
  core::AutoSensOptions options;
  options.threads = 1;
  for (const std::int64_t begin : {std::int64_t{0}, kMillisPerDay / 2, 3 * kMillisPerDay}) {
    const std::int64_t end = begin + 2 * kMillisPerDay;
    const Dataset in_memory = window_of(dataset_, begin, end);
    const auto load = store().load_window(begin, end);
    expect_equal(in_memory, load.dataset, "analysis window");
    const auto expect = core::analyze_detailed(in_memory, options);
    const auto got = core::analyze_detailed(load.dataset, options);
    expect_bitwise_equal(expect.preference, got.preference);
    ASSERT_EQ(expect.biased.size(), got.biased.size());
    for (std::size_t i = 0; i < expect.biased.size(); ++i) {
      EXPECT_EQ(expect.biased.count(i), got.biased.count(i));
      EXPECT_EQ(expect.unbiased.count(i), got.unbiased.count(i));
    }
  }
}

TEST_F(StorePruneTest, ConfidenceIntervalsBitIdenticalWithSameSeed) {
  core::AutoSensOptions options;
  options.threads = 1;
  const std::int64_t begin = 0;
  const std::int64_t end = 2 * kMillisPerDay;
  const std::vector<double> probes = {500.0, 1000.0, 2000.0};
  core::ConfidenceOptions confidence;
  confidence.replicates = 10;

  stats::Random random_a(17);
  const auto expect = core::analyze_with_confidence(window_of(dataset_, begin, end), options,
                                                    probes, confidence, random_a);
  stats::Random random_b(17);
  const auto got = core::analyze_with_confidence(store().load_window(begin, end).dataset,
                                                 options, probes, confidence, random_b);
  expect_bitwise_equal(expect.point, got.point);
  ASSERT_EQ(expect.intervals.size(), got.intervals.size());
  for (std::size_t p = 0; p < expect.intervals.size(); ++p) {
    EXPECT_EQ(expect.intervals[p].lo, got.intervals[p].lo);
    EXPECT_EQ(expect.intervals[p].hi, got.intervals[p].hi);
  }
  EXPECT_EQ(expect.usable_replicates, got.usable_replicates);
}

TEST_F(StorePruneTest, AnalyzeStoreWindowsMatchesInMemoryLoop) {
  core::AutoSensOptions options;
  options.threads = 1;
  core::StoreStreamOptions stream;
  stream.window_ms = 2 * kMillisPerDay;

  const auto results = core::analyze_store_windows(store(), options, stream);
  ASSERT_EQ(results.size(), 4u);  // ceil(7 days / 2-day windows).
  for (const auto& w : results) {
    Dataset in_memory = telemetry::validate(window_of(dataset_, w.begin_ms, w.end_ms)).dataset;
    EXPECT_EQ(w.records, in_memory.size());
    if (in_memory.empty()) {
      EXPECT_FALSE(w.preference.has_value());
      continue;
    }
    ASSERT_TRUE(w.preference.has_value());
    expect_bitwise_equal(core::analyze(in_memory, options), *w.preference);
  }
}

TEST_F(StorePruneTest, StreamedBiasedHistogramBitIdentical) {
  core::AutoSensOptions options;
  const auto streamed = core::scan_biased_histogram(store(), options);
  const auto whole = core::biased_histogram(dataset_.latencies(), options);
  ASSERT_EQ(streamed.size(), whole.size());
  EXPECT_EQ(streamed.total_weight(), whole.total_weight());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(streamed.count(i), whole.count(i)) << "bin " << i;
  }
}

}  // namespace
}  // namespace autosens
