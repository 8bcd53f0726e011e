#include "telemetry/clock.h"

namespace autosens::telemetry {

std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t floor_mod(std::int64_t a, std::int64_t b) noexcept {
  return a - floor_div(a, b) * b;
}

int hour_of_day(std::int64_t time_ms) noexcept {
  return static_cast<int>(floor_mod(time_ms, kMillisPerDay) / kMillisPerHour);
}

std::int64_t day_index(std::int64_t time_ms) noexcept {
  return floor_div(time_ms, kMillisPerDay);
}

int day_of_week(std::int64_t time_ms) noexcept {
  return static_cast<int>(floor_mod(day_index(time_ms), 7));
}

std::int64_t hour_slot(std::int64_t time_ms) noexcept {
  return floor_div(time_ms, kMillisPerHour);
}

DayPeriod day_period(std::int64_t time_ms) noexcept {
  const int hour = hour_of_day(time_ms);
  if (hour >= 8 && hour < 14) return DayPeriod::kMorning;
  if (hour >= 14 && hour < 20) return DayPeriod::kAfternoon;
  if (hour >= 20 || hour < 2) return DayPeriod::kEvening;
  return DayPeriod::kNight;
}

std::string_view to_string(DayPeriod period) noexcept {
  switch (period) {
    case DayPeriod::kMorning: return "8am-2pm";
    case DayPeriod::kAfternoon: return "2pm-8pm";
    case DayPeriod::kEvening: return "8pm-2am";
    case DayPeriod::kNight: return "2am-8am";
  }
  return "8am-2pm";
}

std::int64_t month_index(std::int64_t time_ms) noexcept {
  return floor_div(day_index(time_ms), 30);
}

}  // namespace autosens::telemetry
