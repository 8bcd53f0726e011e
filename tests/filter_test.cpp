#include "telemetry/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/rng.h"

namespace autosens::telemetry {
namespace {

using Rows = std::vector<std::size_t>;

ActionRecord make_record(std::int64_t time_ms, std::uint64_t user, double latency,
                         ActionType action = ActionType::kSelectMail,
                         UserClass user_class = UserClass::kBusiness,
                         ActionStatus status = ActionStatus::kSuccess) {
  return {time_ms, user, latency, action, user_class, status};
}

/// The rows `filter` keeps from `records`; also checks that filtered()
/// copies exactly those rows.
Rows kept(const RecordFilter& filter, std::vector<ActionRecord> records) {
  const Dataset d(std::move(records));
  const Rows rows = filter.rows(d);
  const Dataset out = d.filtered(filter);
  EXPECT_EQ(out.size(), rows.size());
  for (std::size_t k = 0; k < std::min(out.size(), rows.size()); ++k) {
    EXPECT_EQ(out[k], d[rows[k]]) << k;
  }
  return rows;
}

TEST(FilterTest, ByAction) {
  EXPECT_EQ(kept(by_action(ActionType::kSearch),
                 {make_record(0, 1, 1.0, ActionType::kSearch),
                  make_record(0, 1, 1.0, ActionType::kSelectMail)}),
            (Rows{0}));
}

TEST(FilterTest, ByUserClass) {
  EXPECT_EQ(kept(by_user_class(UserClass::kConsumer),
                 {make_record(0, 1, 1.0, ActionType::kSearch, UserClass::kConsumer),
                  make_record(0, 1, 1.0, ActionType::kSearch, UserClass::kBusiness)}),
            (Rows{0}));
}

TEST(FilterTest, ByPeriod) {
  EXPECT_EQ(kept(by_period(DayPeriod::kMorning),
                 {make_record(9 * kMillisPerHour, 1, 1.0),
                  make_record(15 * kMillisPerHour, 1, 1.0)}),
            (Rows{0}));
}

TEST(FilterTest, ByMonth) {
  EXPECT_EQ(kept(by_month(1), {make_record(29 * kMillisPerDay, 1, 1.0),
                               make_record(30 * kMillisPerDay, 1, 1.0),
                               make_record(59 * kMillisPerDay, 1, 1.0),
                               make_record(60 * kMillisPerDay, 1, 1.0)}),
            (Rows{1, 2}));
}

TEST(FilterTest, ByTimeRangeIsHalfOpen) {
  EXPECT_EQ(kept(by_time_range(100, 200),
                 {make_record(99, 1, 1.0), make_record(100, 1, 1.0), make_record(199, 1, 1.0),
                  make_record(200, 1, 1.0)}),
            (Rows{1, 2}));
}

TEST(FilterTest, AllOfCombines) {
  EXPECT_EQ(kept(all_of({by_action(ActionType::kSearch), by_user_class(UserClass::kConsumer)}),
                 {make_record(0, 1, 1.0, ActionType::kSearch, UserClass::kConsumer),
                  make_record(0, 1, 1.0, ActionType::kSearch, UserClass::kBusiness),
                  make_record(0, 1, 1.0, ActionType::kSelectMail, UserClass::kConsumer)}),
            (Rows{0}));
}

TEST(FilterTest, AllOfEmptyMatchesEverything) {
  EXPECT_EQ(kept(all_of({}), {make_record(0, 1, 1.0), make_record(5, 2, 2.0)}), (Rows{0, 1}));
  EXPECT_EQ(kept(RecordFilter{}, {make_record(0, 1, 1.0)}), (Rows{0}));
}

TEST(FilterTest, ContradictoryTermsMatchNothing) {
  EXPECT_TRUE(kept(all_of({by_action(ActionType::kSearch), by_action(ActionType::kSelectMail)}),
                   {make_record(0, 1, 1.0, ActionType::kSearch),
                    make_record(0, 1, 1.0, ActionType::kSelectMail)})
                  .empty());
}

// ---- Parity with a brute-force row loop ------------------------------------

/// One slice spelled out field by field, checked row by row on ActionRecords.
struct Expected {
  std::optional<ActionType> action = {};
  std::optional<UserClass> user_class = {};
  std::optional<DayPeriod> period = {};
  std::optional<std::int64_t> month = {};
  std::optional<std::pair<std::int64_t, std::int64_t>> range = {};
  std::optional<int> quartile = {};

  bool keeps(const ActionRecord& r, const UserQuartiles& quartiles) const {
    if (action && r.action != *action) return false;
    if (user_class && r.user_class != *user_class) return false;
    if (period && day_period(r.time_ms) != *period) return false;
    if (month && month_index(r.time_ms) != *month) return false;
    if (range && (r.time_ms < range->first || r.time_ms >= range->second)) return false;
    if (quartile && (!quartiles.contains(r.user_id) ||
                     quartiles.quartile_of(r.user_id) != *quartile)) {
      return false;
    }
    return true;
  }
};

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

void expect_identical(const Dataset& got, const Dataset& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_TRUE(same_bytes(got.times(), want.times())) << what;
  EXPECT_TRUE(same_bytes(got.latencies(), want.latencies())) << what;
  EXPECT_TRUE(same_bytes(got.user_ids(), want.user_ids())) << what;
  EXPECT_TRUE(same_bytes(got.actions(), want.actions())) << what;
  EXPECT_TRUE(same_bytes(got.user_classes(), want.user_classes())) << what;
  EXPECT_TRUE(same_bytes(got.statuses(), want.statuses())) << what;
  EXPECT_EQ(got.is_sorted(), want.is_sorted()) << what;
}

/// Two simulated months plus a few days, so every month and period occurs.
Dataset simulated_dataset() {
  auto config = simulate::paper_config(simulate::Scale::kTiny, 11);
  config.end_ms = 62 * kMillisPerDay;
  config.population.user_count = 16;
  return simulate::WorkloadGenerator(config).generate().dataset;
}

/// The same rows in a seeded random order (sorted flag off).
Dataset shuffled(const Dataset& d) {
  Rows order(d.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  stats::Random random(5);
  random.shuffle(std::span<std::size_t>(order));
  return d.gather(order);
}

TEST(FilterTest, MatchesBruteForceRowLoop) {
  const Dataset sorted = simulated_dataset();
  ASSERT_GT(sorted.size(), 1000u);
  ASSERT_TRUE(sorted.is_sorted());
  const Dataset unsorted = shuffled(sorted);
  ASSERT_FALSE(unsorted.is_sorted());
  const UserQuartiles quartiles(sorted);

  struct Case {
    std::string name;
    RecordFilter filter;
    Expected expected;
  };
  std::vector<Case> cases;
  cases.push_back({"all_of({})", all_of({}), {}});
  const std::int64_t mid = 20 * kMillisPerDay + 7;
  cases.push_back({"time_range", by_time_range(kMillisPerDay, mid),
                   {.range = std::pair{kMillisPerDay, mid}}});
  for (int a = 0; a < kActionTypeCount; ++a) {
    const auto action = static_cast<ActionType>(a);
    const std::string name(to_string(action));
    cases.push_back({name, by_action(action), {.action = action}});
    cases.push_back({name + "+range", all_of({by_action(action), by_time_range(0, mid)}),
                     {.action = action, .range = std::pair{std::int64_t{0}, mid}}});
    for (int c = 0; c < kUserClassCount; ++c) {
      const auto user_class = static_cast<UserClass>(c);
      const std::string sliced = name + "+" + std::string(to_string(user_class));
      // preference_by_action / preference_by_user_class, the CLI and
      // analyze_store_windows.
      cases.push_back({sliced, all_of({by_action(action), by_user_class(user_class)}),
                       {.action = action, .user_class = user_class}});
      // preference_by_period.
      for (int p = 0; p < kDayPeriodCount; ++p) {
        const auto period = static_cast<DayPeriod>(p);
        cases.push_back(
            {sliced + "+" + std::string(to_string(period)),
             all_of({by_action(action), by_user_class(user_class), by_period(period)}),
             {.action = action, .user_class = user_class, .period = period}});
      }
    }
    // preference_by_month.
    for (std::int64_t m = 0; m <= 2; ++m) {
      cases.push_back({name + "+month" + std::to_string(m),
                       all_of({by_action(action), by_month(m)}),
                       {.action = action, .month = m}});
    }
    // preference_by_quartile, with and without the nested user-class term.
    for (int q = 0; q < UserQuartiles::kQuartileCount; ++q) {
      const auto base = all_of({by_action(action), quartiles.in_quartile(q)});
      cases.push_back({name + "+Q" + std::to_string(q), base, {.action = action, .quartile = q}});
      cases.push_back({name + "+Q" + std::to_string(q) + "+Consumer",
                       all_of({base, by_user_class(UserClass::kConsumer)}),
                       {.action = action, .user_class = UserClass::kConsumer, .quartile = q}});
    }
  }
  for (int c = 0; c < kUserClassCount; ++c) {
    const auto user_class = static_cast<UserClass>(c);
    cases.push_back({std::string(to_string(user_class)), by_user_class(user_class),
                     {.user_class = user_class}});
  }

  std::size_t nonempty = 0;
  for (const auto* input : {&sorted, &unsorted}) {
    const std::string order = input == &sorted ? " (sorted)" : " (unsorted)";
    for (const auto& c : cases) {
      Dataset want;
      for (std::size_t i = 0; i < input->size(); ++i) {
        if (c.expected.keeps((*input)[i], quartiles)) want.add((*input)[i]);
      }
      expect_identical(input->filtered(c.filter), want, c.name + order);
      if (!want.empty()) ++nonempty;
    }
  }
  // Most slices must be non-trivial for the comparison to mean anything.
  EXPECT_GT(nonempty, cases.size());
}

// ---- Quartiles ------------------------------------------------------------

Dataset quartile_dataset() {
  // 8 users whose median latencies are 10, 20, ..., 80.
  Dataset d;
  for (std::uint64_t u = 1; u <= 8; ++u) {
    for (int k = 0; k < 3; ++k) {
      d.add(make_record(static_cast<std::int64_t>(u * 10 + k), u,
                        static_cast<double>(u) * 10.0));
    }
  }
  d.sort_by_time();
  return d;
}

/// The distinct users among the rows `filter` keeps, in row order.
std::vector<std::uint64_t> users_kept(const RecordFilter& filter, const Dataset& d) {
  std::vector<std::uint64_t> users;
  for (const auto i : filter.rows(d)) {
    if (users.empty() || users.back() != d[i].user_id) users.push_back(d[i].user_id);
  }
  return users;
}

TEST(UserQuartilesTest, ThrowsOnEmptyDataset) {
  EXPECT_THROW(UserQuartiles(Dataset{}), std::invalid_argument);
}

TEST(UserQuartilesTest, AssignsBalancedQuartiles) {
  const UserQuartiles quartiles(quartile_dataset());
  EXPECT_EQ(quartiles.user_count(), 8u);
  // Users 1,2 → Q1; 3,4 → Q2; 5,6 → Q3; 7,8 → Q4.
  EXPECT_EQ(quartiles.quartile_of(1), 0);
  EXPECT_EQ(quartiles.quartile_of(2), 0);
  EXPECT_EQ(quartiles.quartile_of(3), 1);
  EXPECT_EQ(quartiles.quartile_of(4), 1);
  EXPECT_EQ(quartiles.quartile_of(5), 2);
  EXPECT_EQ(quartiles.quartile_of(6), 2);
  EXPECT_EQ(quartiles.quartile_of(7), 3);
  EXPECT_EQ(quartiles.quartile_of(8), 3);
}

TEST(UserQuartilesTest, BoundariesAreMonotone) {
  const UserQuartiles quartiles(quartile_dataset());
  const auto& b = quartiles.boundaries();
  EXPECT_LT(b[0], b[1]);
  EXPECT_LT(b[1], b[2]);
}

TEST(UserQuartilesTest, UnknownUserThrows) {
  const UserQuartiles quartiles(quartile_dataset());
  EXPECT_FALSE(quartiles.contains(999));
  EXPECT_THROW(quartiles.quartile_of(999), std::invalid_argument);
}

TEST(UserQuartilesTest, InQuartilePredicate) {
  const UserQuartiles quartiles(quartile_dataset());
  // Users outside the table (999) match no quartile.
  const std::vector<ActionRecord> records = {make_record(0, 1, 1.0), make_record(0, 8, 1.0),
                                             make_record(0, 999, 1.0)};
  EXPECT_EQ(kept(quartiles.in_quartile(0), records), (Rows{0}));
  EXPECT_EQ(kept(quartiles.in_quartile(3), records), (Rows{1}));
}

TEST(UserQuartilesTest, InQuartileOutlivesItsTable) {
  const Dataset data = quartile_dataset();
  const RecordFilter q1 = UserQuartiles(data).in_quartile(0);
  const RecordFilter q4 = all_of({UserQuartiles(data).in_quartile(3)});
  // Both UserQuartiles temporaries are gone; the filters still hold the table.
  EXPECT_EQ(users_kept(q1, data), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(users_kept(q4, data), (std::vector<std::uint64_t>{7, 8}));
}

TEST(UserQuartilesTest, InQuartileValidatesRange) {
  const UserQuartiles quartiles(quartile_dataset());
  EXPECT_THROW(quartiles.in_quartile(-1), std::invalid_argument);
  EXPECT_THROW(quartiles.in_quartile(4), std::invalid_argument);
}

TEST(UserQuartilesTest, QuartilePartitionCoversAllUsers) {
  const auto data = quartile_dataset();
  const UserQuartiles quartiles(data);
  std::size_t total = 0;
  for (int q = 0; q < UserQuartiles::kQuartileCount; ++q) {
    total += data.filtered(quartiles.in_quartile(q)).size();
  }
  EXPECT_EQ(total, data.size());
}

}  // namespace
}  // namespace autosens::telemetry
