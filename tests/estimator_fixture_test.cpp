// Golden estimates frozen from the estimators before they were rebuilt on
// core::Accumulator (commit 5208179). tests/data/estimator_fixture.txt holds,
// for two simulated seeds, analyze_detailed and analyze_over_windows (α on and
// off; the whole range and the morning/evening period windows) plus
// alpha_by_period and day_class_activity, every double as a hex float.
//
// Support flags, record counts, α fallback flags and (with α off) the biased
// histogram must match bit for bit; every other double within 1e-9, except
// the α-normalized B's total. That total was a running sum over every record
// and carried up to 2.1e-9 of rounding (against the exact Σ n_k / α_k of its
// own α); it is now summed per bin and class, and is compared within a
// relative 1e-13. The windowed U used to be reported in milliseconds and is
// now a probability like every other U, so it is compared after dividing the
// frozen values by their total.
//
// To rewrite the file from the estimators being tested (only ever at a commit
// whose outputs are the reference):
//   estimator_fixture_test --gtest_also_run_disabled_tests
//       --gtest_filter='*WriteFixture' | grep '^s[0-9]' > tests/data/estimator_fixture.txt
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/confounder_dow.h"
#include "core/confounder_time.h"
#include "core/pipeline.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

/// How an entry is compared: 'x' bit for bit, 'd' within kTolerance, 'w'
/// within kTolerance after normalizing the frozen values to sum to 1.
struct Entry {
  char kind = 'x';
  std::vector<double> values;
};

using Entries = std::map<std::string, Entry>;

constexpr double kTolerance = 1e-9;
constexpr double kTotalRelativeTolerance = 1e-13;

template <typename T>
std::vector<double> as_doubles(const std::vector<T>& values) {
  return std::vector<double>(values.begin(), values.end());
}

std::vector<double> counts(const stats::Histogram& h) {
  return std::vector<double>(h.counts().begin(), h.counts().end());
}

void add_analysis(Entries& out, const std::string& name, const telemetry::Dataset& data,
                  const std::vector<TimeWindow>* windows, const AutoSensOptions& options) {
  std::optional<AnalysisResult> result;
  try {
    result = windows != nullptr ? analyze_over_windows(data, *windows, options)
                                : analyze_detailed(data, options);
  } catch (const std::invalid_argument&) {
    out[name + "/throws"] = {'x', {1.0}};
    return;
  }
  const auto& r = *result;
  const auto& p = r.preference;
  out[name + "/valid"] = {'x', as_doubles(p.valid)};
  out[name + "/support"] = {'x', {static_cast<double>(p.support_begin),
                                  static_cast<double>(p.support_end)}};
  out[name + "/records"] = {'x', {static_cast<double>(p.biased_samples)}};
  out[name + "/raw_ratio"] = {'d', p.raw_ratio};
  out[name + "/smoothed"] = {'d', p.smoothed};
  out[name + "/normalized"] = {'d', p.normalized};
  const char b_kind = options.normalize_time_confounder ? 'd' : 'x';
  out[name + "/B"] = {b_kind, counts(r.biased)};
  out[name + "/B_total"] = {b_kind, {r.biased.total_weight()}};
  out[name + "/U"] = {windows != nullptr ? 'w' : 'd', counts(r.unbiased)};
  std::vector<double> slot_records;
  std::vector<double> fallback;
  std::vector<double> time;
  std::vector<double> alpha;
  for (const auto& s : r.slots) {
    slot_records.push_back(static_cast<double>(s.records));
    fallback.push_back(s.alpha_from_fallback ? 1.0 : 0.0);
    time.push_back(s.total_time_ms);
    alpha.push_back(s.alpha);
  }
  out[name + "/slot_records"] = {'x', slot_records};
  out[name + "/slot_fallback"] = {'x', fallback};
  out[name + "/slot_time"] = {'d', time};
  out[name + "/slot_alpha"] = {'d', alpha};
}

Entries compute_entries() {
  Entries out;
  for (const std::uint64_t seed : {101u, 202u}) {
    auto generated =
        simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, seed))
            .generate();
    const auto validated = telemetry::validate(generated.dataset).dataset;
    const auto slice =
        validated.filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
    // Built by append: operator+ on a literal trips a GCC 12 -Wrestrict
    // false positive in -Werror builds.
    std::string s("s");
    s += std::to_string(seed);
    for (const bool alpha_on : {true, false}) {
      AutoSensOptions options;
      options.normalize_time_confounder = alpha_on;
      const std::string a = s + (alpha_on ? "/alpha" : "/plain");
      add_analysis(out, a + "/whole", slice, nullptr, options);
      for (const auto period : {telemetry::DayPeriod::kMorning, telemetry::DayPeriod::kEvening}) {
        const auto period_slice = slice.filtered(telemetry::by_period(period));
        const auto windows = period_windows(period_slice, period);
        add_analysis(out, a + "/" + std::string(telemetry::to_string(period)), period_slice,
                     &windows, options);
      }
    }
    const auto periods = alpha_by_period(validated, AutoSensOptions{});
    for (const auto& pa : periods) {
      const std::string p = s + "/period/" + std::string(telemetry::to_string(pa.period));
      out[p + "/records"] = {'x', {static_cast<double>(pa.records)}};
      out[p + "/valid"] = {'x', as_doubles(pa.valid)};
      out[p + "/latency"] = {'d', pa.latency_ms};
      out[p + "/alpha"] = {'d', pa.alpha};
      out[p + "/mean_alpha"] = {'d', {pa.mean_alpha}};
    }
    const auto dow = day_class_activity(validated, AutoSensOptions{});
    const std::string d = s + "/dow";
    out[d + "/records"] = {'x', {static_cast<double>(dow.weekday_records),
                                 static_cast<double>(dow.weekend_records)}};
    out[d + "/valid"] = {'x', as_doubles(dow.valid)};
    out[d + "/latency"] = {'d', dow.latency_ms};
    out[d + "/beta_by_bin"] = {'d', dow.beta_by_bin};
    out[d + "/beta_weekend"] = {'d', {dow.beta_weekend}};
  }
  return out;
}

/// One line per entry: `name kind count v0 v1 ...`, values as hex floats.
void write_entries(std::ostream& out, const Entries& entries) {
  char buffer[64];
  for (const auto& [name, entry] : entries) {
    out << name << ' ' << entry.kind << ' ' << entry.values.size();
    for (const double v : entry.values) {
      std::snprintf(buffer, sizeof(buffer), "%a", v);
      out << ' ' << (v == 0.0 ? "0" : buffer);
    }
    out << '\n';
  }
}

Entries read_entries(std::istream& in) {
  Entries entries;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    Entry entry;
    std::size_t n = 0;
    fields >> name >> entry.kind >> n;
    std::string token;
    for (std::size_t i = 0; i < n && fields >> token; ++i) {
      entry.values.push_back(std::strtod(token.c_str(), nullptr));
    }
    entries[name] = std::move(entry);
  }
  return entries;
}

TEST(EstimatorFixtureTest, DISABLED_WriteFixture) { write_entries(std::cout, compute_entries()); }

TEST(EstimatorFixtureTest, MatchesFrozenEstimates) {
  std::ifstream file(AUTOSENS_FIXTURE_FILE);
  ASSERT_TRUE(file) << "missing " << AUTOSENS_FIXTURE_FILE;
  const auto frozen = read_entries(file);
  const auto current = compute_entries();
  ASSERT_EQ(frozen.size(), current.size());
  double max_diff = 0.0;
  std::string max_at;
  double max_total_relative = 0.0;
  for (const auto& [name, want] : frozen) {
    const auto it = current.find(name);
    ASSERT_NE(it, current.end()) << name;
    const auto& got = it->second;
    ASSERT_EQ(got.values.size(), want.values.size()) << name;
    double scale = 1.0;
    if (want.kind == 'w') {
      double total = 0.0;
      for (const double v : want.values) total += v;
      scale = total > 0.0 ? 1.0 / total : 1.0;
    }
    for (std::size_t i = 0; i < want.values.size(); ++i) {
      if (want.kind == 'x') {
        EXPECT_EQ(got.values[i], want.values[i]) << name << "[" << i << "]";
        continue;
      }
      const double diff = std::abs(got.values[i] - want.values[i] * scale);
      if (name.ends_with("/B_total")) {
        const double relative = diff / std::abs(want.values[i]);
        max_total_relative = std::max(max_total_relative, relative);
        EXPECT_LE(relative, kTotalRelativeTolerance) << name;
        continue;
      }
      if (diff > max_diff) {
        max_diff = diff;
        max_at = name + "[" + std::to_string(i) + "]";
      }
      EXPECT_LE(diff, kTolerance) << name << "[" << i << "]";
    }
  }
  std::cout << "max |current - frozen| = " << max_diff << " at " << max_at
            << "; B totals: max relative difference " << max_total_relative << "\n";
  RecordProperty("max_abs_diff", std::to_string(max_diff));
  RecordProperty("max_total_relative_diff", std::to_string(max_total_relative));
}

}  // namespace
}  // namespace autosens::core
