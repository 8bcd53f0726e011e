// Civil-time helpers over epoch-millisecond timestamps. AutoSens slices data
// by hour-of-day (1-h α slots, §2.4.1), by 6-hour periods (§3.6), and by
// month (§3.7). All arithmetic here is pure integer math on UTC-like civil
// time — the simulator generates "local time of the user" directly, matching
// the paper's use of local time for time-of-day analyses.
#pragma once

#include <cstdint>
#include <string_view>

namespace autosens::telemetry {

inline constexpr std::int64_t kMillisPerSecond = 1000;
inline constexpr std::int64_t kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr std::int64_t kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr std::int64_t kMillisPerDay = 24 * kMillisPerHour;

/// Division rounding toward negative infinity, and its remainder in [0, b)
/// for b > 0 (correct for negative times).
std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept;
std::int64_t floor_mod(std::int64_t a, std::int64_t b) noexcept;

/// Hour of day in [0, 24).
int hour_of_day(std::int64_t time_ms) noexcept;

/// Day index since the epoch (floor division; correct for negative times).
std::int64_t day_index(std::int64_t time_ms) noexcept;

/// Day of week in [0, 7), 0 = Thursday (1970-01-01 was a Thursday).
int day_of_week(std::int64_t time_ms) noexcept;

/// Index of the 1-hour slot since epoch (α-normalization slot id).
std::int64_t hour_slot(std::int64_t time_ms) noexcept;

/// The paper's four 6-hour local periods (§3.6).
enum class DayPeriod : std::uint8_t {
  kMorning = 0,    ///< 8am–2pm (the reference period in Fig 8).
  kAfternoon = 1,  ///< 2pm–8pm.
  kEvening = 2,    ///< 8pm–2am.
  kNight = 3,      ///< 2am–8am.
};

inline constexpr int kDayPeriodCount = 4;

DayPeriod day_period(std::int64_t time_ms) noexcept;
std::string_view to_string(DayPeriod period) noexcept;

/// Month index since epoch assuming 30-day months starting at time 0. The
/// simulator emits "January" as days 0–29 and "February" as days 30–59; this
/// keeps the month split exact without a full civil calendar.
std::int64_t month_index(std::int64_t time_ms) noexcept;

}  // namespace autosens::telemetry
