// Partition-pruning correctness: every windowed read of an ASL3 store must
// be indistinguishable — record for record, and bit for bit through the
// whole analysis pipeline — from filtering the fully loaded dataset. The
// crafted dataset stresses the pruning edges: calendar days with gaps,
// records planted exactly on day boundaries, and a record at a partition's
// max time (max_time is inclusive; a window starting there must include it).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/confidence.h"
#include "core/pipeline.h"
#include "core/store_analyze.h"
#include "obs/metrics.h"
#include "stats/rng.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/store/format.h"
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

/// Bit patterns of a value (NaN-safe equality for doubles).
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

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

TEST_F(StorePruneTest, HugeWindowIsOneWindowOverTheWholeStore) {
  // A store starting after time 0, so begin + window_ms overflows for the
  // largest widths: the end clamps at INT64_MAX, the one window holds every
  // row, and the loop stops after it.
  const Dataset later = window_of(dataset_, kMillisPerDay, store().max_time_ms() + 1);
  const auto dir = fresh_dir("store_huge_window");
  build_store(later, dir.string(),
              StoreOptions{.partition_rows = 700, .block_rows = 64, .compress = true});
  const auto shifted = StoredDataset::open(dir.string());
  ASSERT_GT(shifted.min_time_ms(), 0);
  core::AutoSensOptions options;
  options.threads = 1;
  const Dataset scrubbed = telemetry::validate(later).dataset;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t window_ms : {kMax, kMax - shifted.min_time_ms() + 1}) {
    core::StoreStreamOptions stream;
    stream.window_ms = window_ms;
    const auto results = core::analyze_store_windows(shifted, options, stream);
    ASSERT_EQ(results.size(), 1u) << window_ms;
    EXPECT_EQ(results[0].begin_ms, shifted.min_time_ms());
    EXPECT_EQ(results[0].end_ms, kMax);
    EXPECT_EQ(results[0].records, scrubbed.size());
    // Every partition lies wholly inside the one window: all are summarized.
    EXPECT_EQ(results[0].partitions_summarized, shifted.partitions().size());
    EXPECT_EQ(results[0].partitions_scanned, 0u);
    ASSERT_TRUE(results[0].preference.has_value());
    expect_bitwise_equal(core::analyze(scrubbed, options), *results[0].preference);
  }
}

/// Six days of rows with planted scrub drops — error status, latency <= 0,
/// latency > 60 s and NaN — where day 2 holds only Search rows of Consumer
/// users, so a SelectMail or a Business slice prunes day 2's partitions.
Dataset planted_dataset() {
  Dataset d;
  std::uint64_t i = 0;
  for (std::int64_t day = 0; day < 6; ++day) {
    for (std::int64_t k = 0; k < 3000; ++k, ++i) {
      double latency = 80.0 + static_cast<double>((i * 131) % 2600);
      ActionStatus status = ActionStatus::kSuccess;
      if (i % 53 == 0) status = ActionStatus::kError;
      if (i % 59 == 1) latency = (i % 2 == 0) ? 0.0 : -5.0;
      if (i % 61 == 2) latency = 75'000.0;
      if (i % 67 == 3) latency = std::numeric_limits<double>::quiet_NaN();
      d.add({.time_ms = day * kMillisPerDay + k * 28'000 + static_cast<std::int64_t>(i % 7),
             .user_id = 500 + (i * 7) % 41,
             .latency_ms = latency,
             .action = day == 2 ? ActionType::kSearch
                                : static_cast<ActionType>(i % telemetry::kActionTypeCount),
             .user_class = day == 2 ? UserClass::kConsumer
                                    : static_cast<UserClass>((i / 3) % telemetry::kUserClassCount),
             .status = status});
    }
  }
  d.sort_by_time();
  return d;
}

class StoreSelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = planted_dataset();
    dir_ = fresh_dir("store_select");
    build_store(dataset_, dir_.string(),
                StoreOptions{.partition_rows = 1000, .block_rows = 128, .compress = true});
    opened_ = StoredDataset::open(dir_.string());
  }

  const StoredDataset& store() const { return *opened_; }

  Dataset dataset_;
  std::filesystem::path dir_;
  std::optional<StoredDataset> opened_;
};

// The select pushdown and the summary merge against the row-copying
// oracle: every window of every filter × scrub × confidence × threads
// combination must report the same records and the same preference and
// interval bits as cutting the window out of the in-memory dataset, then
// validate → filtered → analyze. Unfiltered and action-only scrubbed point
// windows must really merge summaries; every other combination reads rows
// and names why.
TEST_F(StoreSelectTest, WindowsMatchValidateFilterAnalyzeOracle) {
  struct Filter {
    std::optional<ActionType> action;
    std::optional<UserClass> user_class;
  };
  const std::vector<Filter> filters = {{std::nullopt, std::nullopt},
                                       {ActionType::kSelectMail, std::nullopt},
                                       {std::nullopt, UserClass::kBusiness},
                                       {ActionType::kSelectMail, UserClass::kConsumer}};
  std::size_t slice_pruned = 0;
  std::size_t summarized = 0;
  std::size_t curves = 0;
  std::size_t intervals = 0;
  for (const auto& filter : filters) {
    for (const bool scrub : {true, false}) {
      for (const bool with_confidence : {false, true}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          core::AutoSensOptions options;
          options.threads = threads;
          core::StoreStreamOptions stream;
          stream.window_ms = 3 * kMillisPerDay / 2;
          stream.scrub = scrub;
          stream.action = filter.action;
          stream.user_class = filter.user_class;
          stream.with_confidence = with_confidence;
          stream.confidence.replicates = 5;
          stream.probe_latencies = {500.0, 1000.0, 2000.0};
          const std::string what = "action " + std::to_string(filter.action.has_value()) +
                                   " class " + std::to_string(filter.user_class.has_value()) +
                                   " scrub " + std::to_string(scrub) + " confidence " +
                                   std::to_string(with_confidence) + " threads " +
                                   std::to_string(threads);
          const auto results = core::analyze_store_windows(store(), options, stream);
          ASSERT_EQ(results.size(), 4u) << what;
          const bool summaries = !filter.user_class && scrub && !with_confidence;
          const std::string_view fallback = filter.user_class ? "user_class"
                                            : !scrub          ? "no_scrub"
                                            : with_confidence ? "confidence"
                                                              : "none";
          for (const auto& w : results) {
            const std::string at = what + " window " + std::to_string(w.begin_ms);
            EXPECT_EQ(w.partitions_scanned + w.partitions_pruned + w.partitions_summarized,
                      store().partitions().size())
                << at;
            EXPECT_EQ(w.summary_fallback, fallback) << at;
            // Every 1.5-day window holds at least one whole 8-hour shard.
            if (summaries) {
              EXPECT_GT(w.partitions_summarized, 0u) << at;
            } else {
              EXPECT_EQ(w.partitions_summarized, 0u) << at;
            }
            summarized += w.partitions_summarized;
            const auto load = store().load_window(w.begin_ms, w.end_ms);
            if (!filter.action && !filter.user_class) {
              EXPECT_EQ(w.partitions_pruned, load.partitions_pruned) << at;
            }
            if (w.partitions_pruned != load.partitions_pruned) {
              slice_pruned += w.partitions_pruned - load.partitions_pruned;
            }
            // Byte counts compare only when both read the same partitions.
            if (w.partitions_summarized == 0 && w.partitions_pruned == load.partitions_pruned) {
              EXPECT_EQ(w.bytes_read, load.bytes_read) << at;
            } else if (w.partitions_summarized == 0) {
              EXPECT_LT(w.bytes_read, load.bytes_read) << at;
            }

            Dataset expect = window_of(dataset_, w.begin_ms, w.end_ms);
            if (scrub) expect = telemetry::validate(expect).dataset;
            std::vector<telemetry::RecordFilter> terms;
            if (filter.action) terms.push_back(telemetry::by_action(*filter.action));
            if (filter.user_class) terms.push_back(telemetry::by_user_class(*filter.user_class));
            if (!terms.empty()) expect = expect.filtered(telemetry::all_of(terms));
            ASSERT_EQ(w.records, expect.size()) << at;

            std::optional<core::PreferenceResult> point;
            std::optional<core::PreferenceWithConfidence> confidence;
            if (!expect.empty()) {
              try {
                if (with_confidence) {
                  stats::Random random(stream.confidence_seed);
                  confidence = core::analyze_with_confidence(
                      expect, options, stream.probe_latencies, stream.confidence, random);
                  point = confidence->point;
                } else {
                  point = core::analyze(expect, options);
                }
              } catch (const std::invalid_argument&) {
              }
            }
            ASSERT_EQ(w.preference.has_value(), point.has_value()) << at;
            ASSERT_EQ(w.confidence.has_value(), confidence.has_value()) << at;
            if (!point) continue;
            ++curves;
            expect_bitwise_equal(*point, *w.preference);
            if (!confidence) continue;
            ASSERT_EQ(w.confidence->intervals.size(), confidence->intervals.size()) << at;
            intervals += confidence->intervals.size();
            for (std::size_t p = 0; p < confidence->intervals.size(); ++p) {
              EXPECT_EQ(bits(w.confidence->intervals[p].lo), bits(confidence->intervals[p].lo))
                  << at;
              EXPECT_EQ(bits(w.confidence->intervals[p].hi), bits(confidence->intervals[p].hi))
                  << at;
            }
            EXPECT_EQ(w.confidence->usable_replicates, confidence->usable_replicates) << at;
          }
        }
      }
    }
  }
  EXPECT_GT(slice_pruned, 0u) << "no partition was pruned by its footer slice counts";
  EXPECT_GT(summarized, 0u) << "no window merged a partition summary";
  EXPECT_GT(curves, 0u) << "no window produced a curve to compare";
  EXPECT_GT(intervals, 0u) << "no window produced intervals to compare";
}

TEST_F(StoreSelectTest, PartitionWithoutTheSliceIsPrunedUnopened) {
  // Day 2 holds no SelectMail row: its partitions are pruned, so a window
  // over day 2 alone opens nothing and reads no bytes.
  std::size_t day2 = 0;
  for (const auto& p : store().partitions()) day2 += p.day == 2 ? 1 : 0;
  ASSERT_GT(day2, 0u);
  const auto window = store().scan_window(2 * kMillisPerDay, 3 * kMillisPerDay,
                                          ActionType::kSelectMail, std::nullopt,
                                          StoredDataset::UserIds::kCheckOnly,
                                          [](std::size_t, const telemetry::RowColumns&) { FAIL(); });
  EXPECT_EQ(window.partitions_scanned, 0u);
  EXPECT_EQ(window.partitions_pruned, store().partitions().size());
  EXPECT_EQ(window.bytes_read, 0u);
  // The Search slice is there, so the same window scans day 2.
  std::size_t rows = 0;
  const auto search = store().scan_window(
      2 * kMillisPerDay, 3 * kMillisPerDay, ActionType::kSearch, UserClass::kConsumer,
      StoredDataset::UserIds::kCheckOnly, [&](std::size_t, const telemetry::RowColumns& part) {
        EXPECT_TRUE(part.user_ids.empty());
        rows += part.size();
      });
  EXPECT_EQ(search.partitions_scanned, day2);
  EXPECT_EQ(rows, 3000u);
}

TEST_F(StoreSelectTest, CorruptUserColumnStillThrows) {
  // No window selection reads the user column, but every block of it that a
  // window reads is still CRC-checked: one flipped byte fails the analysis.
  // A partition wholly inside a window is merged from its summary, not
  // read, so the byte is flipped in the partition that straddles the first
  // window's end, whose rows that window reads.
  constexpr std::int64_t kWindowMs = 3 * kMillisPerDay / 2;
  const std::int64_t cut = store().min_time_ms() + kWindowMs;
  const auto& partitions = store().partitions();
  const auto straddling = std::find_if(partitions.begin(), partitions.end(), [&](const auto& p) {
    return p.min_time_ms < cut && p.max_time_ms >= cut;
  });
  ASSERT_NE(straddling, partitions.end());
  const auto path = dir_ / straddling->dir_name / "user.col";
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(telemetry::store::kColumnHeaderBytes + 3));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(telemetry::store::kColumnHeaderBytes + 3));
    file.write(&byte, 1);
  }
  const auto corrupted = StoredDataset::open(dir_.string());
  core::AutoSensOptions options;
  options.threads = 1;
  for (const bool with_confidence : {false, true}) {
    core::StoreStreamOptions stream;
    stream.window_ms = kWindowMs;
    stream.action = ActionType::kSelectMail;
    stream.with_confidence = with_confidence;
    stream.confidence.replicates = 2;
    EXPECT_THROW(core::analyze_store_windows(corrupted, options, stream), std::runtime_error)
        << "confidence " << with_confidence;
  }
}

/// Four days of 2400 rows, 36 s apart, cut into 400-row (4-hour) shards,
/// shaped so that stitching windows from summaries meets every awkward
/// joint: a duplicate-time run split by a shard cut (rows 395..404 of each
/// day), a run that fills a whole shard and spills into both neighbours
/// (rows 790..1210: shard 2 is one run), and on day 1 a shard with no
/// SelectMail row (pruned for that slice) next to one whose SelectMail rows
/// the scrub all drops (kept nothing). Error, NaN and out-of-range rows are
/// planted throughout.
Dataset stitch_dataset() {
  Dataset d;
  for (std::int64_t day = 0; day < 4; ++day) {
    for (std::int64_t k = 0; k < 2400; ++k) {
      const auto i = static_cast<std::uint64_t>(day * 2400 + k);
      std::int64_t step = k;
      if (k >= 395 && k < 405) step = 395;
      if (k >= 790 && k < 1211) step = 790;
      auto action = static_cast<ActionType>(i % telemetry::kActionTypeCount);
      ActionStatus status = i % 41 == 0 ? ActionStatus::kError : ActionStatus::kSuccess;
      double latency = 60.0 + static_cast<double>((i * 131) % 2700);
      if (i % 47 == 5) latency = std::numeric_limits<double>::quiet_NaN();
      if (i % 53 == 7) latency = 90'000.0;
      if (day == 1 && k >= 1600 && k < 2000 && action == ActionType::kSelectMail) {
        action = ActionType::kOther;
      }
      if (day == 1 && k >= 2000 && action == ActionType::kSelectMail) {
        status = ActionStatus::kError;
      }
      d.add({.time_ms = day * kMillisPerDay + step * 36'000,
             .user_id = 900 + i % 53,
             .latency_ms = latency,
             .action = action,
             .user_class = static_cast<UserClass>(i % telemetry::kUserClassCount),
             .status = status});
    }
  }
  d.sort_by_time();
  return d;
}

class StoreStitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = stitch_dataset();
    const auto dir = fresh_dir("store_stitch");
    build_store(dataset_, dir.string(),
                StoreOptions{.partition_rows = 400, .block_rows = 64, .compress = true});
    opened_ = StoredDataset::open(dir.string());
  }

  const StoredDataset& store() const { return *opened_; }

  Dataset dataset_;
  std::optional<StoredDataset> opened_;
};

TEST_F(StoreStitchTest, StitchedWindowsMatchTheInMemoryOracle) {
  ASSERT_EQ(store().min_time_ms(), 0);
  // The fixture's joints are really in the store.
  std::size_t split_runs = 0;
  std::size_t one_run = 0;
  for (std::size_t i = 0; i + 1 < store().partitions().size(); ++i) {
    const auto& p = store().partitions()[i];
    split_runs += p.max_time_ms == store().partitions()[i + 1].min_time_ms ? 1 : 0;
    one_run += p.min_time_ms == p.max_time_ms ? 1 : 0;
  }
  EXPECT_GE(split_runs, 8u);
  EXPECT_EQ(one_run, 4u);

  constexpr std::int64_t kHour = telemetry::kMillisPerHour;
  const std::vector<std::int64_t> widths = {
      kMillisPerDay,       // Edges on day (and partition) boundaries.
      4 * kHour,           // Edges on 4-hour shard boundaries.
      kHour,               // No window holds a whole partition.
      29 * kHour,          // Edges anywhere.
      std::numeric_limits<std::int64_t>::max()};
  std::size_t summarized = 0;
  std::size_t no_full_partition = 0;
  std::size_t aligned = 0;
  std::size_t curves = 0;
  for (const std::optional<ActionType> action :
       {std::optional<ActionType>(), std::optional(ActionType::kSelectMail)}) {
    for (const std::int64_t width : widths) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::AutoSensOptions options;
        options.threads = threads;
        core::StoreStreamOptions stream;
        stream.window_ms = width;
        stream.action = action;
        const std::string what = "action " + std::to_string(action.has_value()) + " width " +
                                 std::to_string(width) + " threads " + std::to_string(threads);
        for (const auto& w : core::analyze_store_windows(store(), options, stream)) {
          const std::string at = what + " window " + std::to_string(w.begin_ms);
          EXPECT_EQ(w.summary_fallback, "none") << at;
          EXPECT_EQ(w.partitions_scanned + w.partitions_pruned + w.partitions_summarized,
                    store().partitions().size())
              << at;
          summarized += w.partitions_summarized;
          if (w.partitions_summarized == 0 && w.partitions_scanned > 0) ++no_full_partition;
          if (w.partitions_summarized > 0 && w.partitions_scanned == 0) ++aligned;

          Dataset expect = telemetry::validate(window_of(dataset_, w.begin_ms, w.end_ms)).dataset;
          if (action) expect = expect.filtered(telemetry::by_action(*action));
          ASSERT_EQ(w.records, expect.size()) << at;
          std::optional<core::PreferenceResult> point;
          if (!expect.empty()) {
            try {
              point = core::analyze(expect, options);
            } catch (const std::invalid_argument&) {
            }
          }
          ASSERT_EQ(w.preference.has_value(), point.has_value()) << at;
          if (!point) continue;
          ++curves;
          expect_bitwise_equal(*point, *w.preference);
        }
      }
    }
  }
  EXPECT_GT(summarized, 0u);
  EXPECT_GT(no_full_partition, 0u) << "no window without a whole partition";
  EXPECT_GT(aligned, 0u) << "no window whose edges are partition boundaries";
  EXPECT_GT(curves, 0u);
}

TEST_F(StoreStitchTest, SummarizedWindowsCountTheRowPathsScrubVerdicts) {
  // The autosens_validate_* counters see the same verdicts whether a window
  // merges summaries or reads rows (here forced by a non-default geometry).
  const auto counters = [] {
    std::vector<std::uint64_t> values;
    for (const char* name :
         {"autosens_validate_records_total", "autosens_validate_records_kept_total",
          "autosens_validate_dropped_total{reason=\"error_status\"}",
          "autosens_validate_dropped_total{reason=\"excessive_latency\"}",
          "autosens_validate_dropped_total{reason=\"nonfinite_latency\"}"}) {
      values.push_back(obs::registry().counter(name, "").value());
    }
    return values;
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto deltas = [&](const core::AutoSensOptions& options) {
    core::StoreStreamOptions stream;
    stream.window_ms = 29 * telemetry::kMillisPerHour;
    stream.action = ActionType::kSelectMail;
    const auto before = counters();
    const auto results = core::analyze_store_windows(store(), options, stream);
    auto after = counters();
    for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return std::pair(after, results.front().summary_fallback);
  };
  core::AutoSensOptions options;
  options.threads = 1;
  const auto [merged, merged_fallback] = deltas(options);
  options.alpha_bin_width_ms = 50.0;
  const auto [rows, rows_fallback] = deltas(options);
  obs::set_enabled(was_enabled);
  EXPECT_EQ(merged_fallback, "none");
  EXPECT_EQ(rows_fallback, "geometry");
  EXPECT_GT(merged[0], 0u);
  EXPECT_EQ(merged, rows);
}

}  // namespace
}  // namespace autosens
