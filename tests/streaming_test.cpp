#include "core/streaming.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

telemetry::Dataset small_slice(std::uint64_t seed) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, seed))
          .generate();
  return telemetry::validate(generated.dataset)
      .dataset.filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
}

/// Every byte of a curve, for byte-identity checks.
std::string bytes_of(const PreferenceResult& p) {
  std::string out;
  const auto put = [&out](const auto& values) {
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(values[0]));
    out += '|';
  };
  put(p.latency_ms);
  put(p.raw_ratio);
  put(p.smoothed);
  put(p.normalized);
  put(p.valid);
  put(std::vector<double>{p.reference_latency_ms});
  put(std::vector<std::size_t>{p.biased_samples, p.support_begin, p.support_end});
  return out;
}

/// The first `n` rows of `d`.
telemetry::Dataset head(const telemetry::Dataset& d, std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return d.gather(rows);
}

TEST(StreamingAutoSensTest, ValidatesOptionsEagerly) {
  AutoSensOptions bad_slot;
  bad_slot.alpha_slot_ms = 7 * telemetry::kMillisPerHour;
  EXPECT_THROW(StreamingAutoSens{bad_slot}, std::invalid_argument);
  AutoSensOptions bad_window;
  bad_window.smoothing.window = 10;
  EXPECT_THROW(StreamingAutoSens{bad_window}, std::invalid_argument);
}

TEST(StreamingAutoSensTest, EmptySnapshotThrows) {
  StreamingAutoSens stream{AutoSensOptions{}};
  EXPECT_THROW(stream.snapshot(), std::logic_error);
  EXPECT_THROW(stream.alpha_by_class(), std::logic_error);
}

TEST(StreamingAutoSensTest, RejectsOutOfOrderRecords) {
  StreamingAutoSens stream{AutoSensOptions{}};
  stream.feed({.time_ms = 1000, .user_id = 1, .latency_ms = 100.0});
  EXPECT_THROW(stream.feed({.time_ms = 999, .user_id = 1, .latency_ms = 100.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(stream.feed({.time_ms = 1000, .user_id = 2, .latency_ms = 100.0}));
}

TEST(StreamingAutoSensTest, ScrubsErrorsAndBadLatencies) {
  StreamingAutoSens stream{AutoSensOptions{}};
  stream.feed({.time_ms = 1, .user_id = 1, .latency_ms = 100.0});
  stream.feed({.time_ms = 2, .user_id = 1, .latency_ms = 100.0,
               .status = telemetry::ActionStatus::kError});
  stream.feed({.time_ms = 3, .user_id = 1, .latency_ms = -5.0});
  EXPECT_EQ(stream.records_seen(), 3u);
  EXPECT_EQ(stream.records_used(), 1u);
}

TEST(StreamingAutoSensTest, SnapshotMatchesBatchAnalysis) {
  // The headline property: streaming over a sorted log reduces the same
  // statistics as the batch pipeline, so the curves are byte-identical.
  const auto slice = small_slice(121);
  StreamingAutoSens stream{AutoSensOptions{}};
  for (std::size_t i = 0; i < slice.size(); ++i) stream.feed(slice[i]);
  EXPECT_EQ(bytes_of(stream.snapshot()), bytes_of(analyze(slice, AutoSensOptions{})));
  EXPECT_EQ(stream.records_used(), slice.size());
}

TEST(StreamingAutoSensTest, ScrubbedRowsGetNoTime) {
  // Rows telemetry::validate drops (error status, latency <= 0, non-finite
  // or above 60 s) interleaved into a stream leave the snapshot unchanged:
  // they add no count and no Voronoi time, not even after a slow sample.
  const auto slice = small_slice(125);
  std::vector<telemetry::ActionRecord> raw;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    const auto record = slice[i];
    raw.push_back(record);
    if (i % 7 == 3) {
      auto junk = record;
      switch (i % 4) {
        case 0: junk.status = telemetry::ActionStatus::kError; break;
        case 1: junk.latency_ms = (i / 4) % 2 == 0 ? 0.0 : -5.0; break;
        case 2: junk.latency_ms = std::numeric_limits<double>::quiet_NaN(); break;
        default: junk.latency_ms = 90'000.0; break;
      }
      junk.time_ms += (slice.size() > i + 1 ? slice[i + 1].time_ms - record.time_ms : 1) / 2;
      raw.push_back(junk);
    }
  }
  StreamingAutoSens clean{AutoSensOptions{}};
  clean.feed_all(slice);
  StreamingAutoSens dirty{AutoSensOptions{}};
  for (const auto& record : raw) dirty.feed(record);
  EXPECT_EQ(dirty.records_seen(), raw.size());
  EXPECT_EQ(dirty.records_used(), slice.size());
  const auto batch = analyze_detailed(
      telemetry::validate(telemetry::Dataset(raw)).dataset, AutoSensOptions{});
  EXPECT_EQ(bytes_of(dirty.snapshot()), bytes_of(clean.snapshot()));
  EXPECT_EQ(bytes_of(dirty.snapshot()), bytes_of(batch.preference));
}

TEST(StreamingAutoSensTest, AlphaMatchesDiurnalPattern) {
  const auto slice = small_slice(122);
  StreamingAutoSens stream{AutoSensOptions{}};
  stream.feed_all(slice);
  const auto alpha = stream.alpha_by_class();
  ASSERT_EQ(alpha.size(), 24u);
  // Deep night classes are far quieter than late-morning ones.
  EXPECT_LT(alpha[3], 0.5 * alpha[10]);
}

TEST(StreamingAutoSensTest, SnapshotsAreRepeatableAndResumable) {
  const auto slice = small_slice(123);
  StreamingAutoSens stream{AutoSensOptions{}};
  const std::size_t half = slice.size() / 2;
  for (std::size_t i = 0; i < half; ++i) stream.feed(slice[i]);
  const auto mid1 = stream.snapshot();
  const auto mid2 = stream.snapshot();  // snapshot is const: identical
  EXPECT_EQ(bytes_of(mid1), bytes_of(mid2));
  EXPECT_EQ(bytes_of(mid1), bytes_of(analyze(head(slice, half), AutoSensOptions{})));
  // Continue feeding after the snapshot; the estimate is the full batch one.
  for (std::size_t i = half; i < slice.size(); ++i) stream.feed(slice[i]);
  EXPECT_EQ(stream.records_used(), slice.size());
  EXPECT_EQ(bytes_of(stream.snapshot()), bytes_of(analyze(slice, AutoSensOptions{})));
}

TEST(StreamingAutoSensTest, NormalizationToggleHonored) {
  const auto slice = small_slice(124);
  AutoSensOptions naive_options;
  naive_options.normalize_time_confounder = false;
  StreamingAutoSens normalized{AutoSensOptions{}};
  StreamingAutoSens naive{naive_options};
  normalized.feed_all(slice);
  naive.feed_all(slice);
  const auto n = normalized.snapshot();
  const auto u = naive.snapshot();
  // With the confounder uncorrected the measured drop shrinks (cf. the
  // batch Ablation B).
  EXPECT_GT(1.0 - n.at(1000.0), 1.0 - u.at(1000.0));
}

}  // namespace
}  // namespace autosens::core
