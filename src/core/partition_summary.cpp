#include "core/partition_summary.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "telemetry/binlog.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

using telemetry::codec::put_varint;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("store summary: " + what);
}

/// A run as its time, sample count and the samples' latency bits.
void put_run(std::vector<std::uint8_t>& out, const SampleRun& run) {
  put_varint(out, telemetry::codec::zigzag_encode(run.time_ms));
  put_varint(out, run.latencies.size());
  for (const double latency : run.latencies) {
    const auto bits = std::bit_cast<std::uint64_t>(latency);
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
  }
}

SampleRun get_run(std::span<const std::uint8_t> in, std::size_t& offset,
                  std::int64_t min_time_ms, std::int64_t max_time_ms) {
  std::uint64_t time = 0;
  std::uint64_t count = 0;
  if (!telemetry::codec::get_varint(in, offset, time) ||
      !telemetry::codec::get_varint(in, offset, count)) {
    fail("truncated run");
  }
  SampleRun run{.time_ms = telemetry::codec::zigzag_decode(time), .latencies = {}};
  if (run.time_ms < min_time_ms || run.time_ms > max_time_ms) fail("run outside its partition");
  if (count == 0 || count > (in.size() - offset) / 8) fail("bad run length");
  run.latencies.resize(static_cast<std::size_t>(count));
  for (double& latency : run.latencies) {
    std::uint64_t bits = 0;
    for (int b = 0; b < 8; ++b) bits |= static_cast<std::uint64_t>(in[offset++]) << (8 * b);
    latency = std::bit_cast<double>(bits);
    if (telemetry::drop_reason(run.time_ms, latency, telemetry::ActionStatus::kSuccess) !=
        telemetry::DropReason::kKept) {
      fail("run holds a sample the scrub drops");
    }
  }
  return run;
}

SampleRun run_of(telemetry::SampleColumns samples, std::size_t begin, std::size_t end) {
  return {.time_ms = samples.times[begin],
          .latencies = {samples.latencies.begin() + static_cast<std::ptrdiff_t>(begin),
                        samples.latencies.begin() + static_cast<std::ptrdiff_t>(end)}};
}

}  // namespace

std::size_t PartitionSummary::records() const noexcept {
  return interior.records() + first.latencies.size() + (last ? last->latencies.size() : 0);
}

std::int64_t PartitionSummary::after_first() const {
  const auto range = interior.data_range();
  return range ? range->begin_ms : last.value().time_ms;
}

std::int64_t PartitionSummary::before_last() const {
  const auto range = interior.data_range();
  return range ? range->end_ms - 1 : first.time_ms;
}

AutoSensOptions summary_options() {
  AutoSensOptions options;
  options.threads = 1;
  return options;
}

PartitionSummary summarize(telemetry::SampleColumns samples) {
  const auto times = samples.times;
  const std::size_t n = times.size();
  if (n == 0 || samples.latencies.size() != n) {
    throw std::invalid_argument("summarize: empty or mismatched samples");
  }
  std::size_t first_end = 1;
  while (first_end < n && times[first_end] == times[0]) ++first_end;
  std::size_t last_begin = first_end == n ? n : n - 1;
  while (last_begin > first_end && times[last_begin - 1] == times[n - 1]) --last_begin;
  // An empty interior fills to empty statistics; its neighbours are then
  // the runs on either side of it.
  const TimeWindow observed{times[0], times[n - 1] + 1};
  return {.interior = Accumulator::fill(
              {times.subspan(first_end, last_begin - first_end),
               samples.latencies.subspan(first_end, last_begin - first_end)},
              ClassGrid::kSlot, summary_options(), {&observed, 1},
              {times[0], first_end == n ? std::nullopt : std::optional(times[n - 1])}),
          .first = run_of(samples, 0, first_end),
          .last = first_end == n ? std::nullopt : std::optional(run_of(samples, last_begin, n))};
}

void encode_summary(const PartitionSummary& summary, std::vector<std::uint8_t>& out) {
  summary.interior.encode(out);
  put_run(out, summary.first);
  out.push_back(summary.last ? 1 : 0);
  if (summary.last) put_run(out, *summary.last);
}

PartitionSummary decode_summary(std::span<const std::uint8_t> bytes, std::uint64_t records,
                                std::int64_t min_time_ms, std::int64_t max_time_ms,
                                const AutoSensOptions& options) {
  std::size_t offset = 0;
  PartitionSummary summary{
      .interior = Accumulator::decode(bytes, offset, ClassGrid::kSlot, options),
      .first = get_run(bytes, offset, min_time_ms, max_time_ms),
      .last = std::nullopt};
  if (offset >= bytes.size()) fail("truncated");
  const std::uint8_t has_last = bytes[offset++];
  if (has_last > 1) fail("bad last-run flag");
  if (has_last == 1) summary.last = get_run(bytes, offset, min_time_ms, max_time_ms);
  if (offset != bytes.size()) fail("trailing bytes");
  // The runs must lie in order: first < interior < last.
  const auto range = summary.interior.data_range();
  if ((summary.last && summary.last->time_ms <= summary.first.time_ms) ||
      (range && (!summary.last || range->begin_ms <= summary.first.time_ms ||
                 range->end_ms > summary.last->time_ms))) {
    fail("runs out of order");
  }
  if (summary.records() != records) fail("record count disagrees with the footer");
  return summary;
}

SummaryFile summarize_partition(const telemetry::RowColumns& rows) {
  struct Slice {
    std::vector<std::int64_t> times;
    std::vector<double> latencies;
  };
  std::array<Slice, telemetry::kActionTypeCount + 1> slices;  // Actions, then (*, *).
  std::array<std::size_t, telemetry::kActionTypeCount + 1> sizes{};
  for (const telemetry::ActionType action : rows.actions) ++sizes[static_cast<std::size_t>(action)];
  sizes.back() = rows.size();
  for (std::size_t s = 0; s < slices.size(); ++s) {
    slices[s].times.reserve(sizes[s]);
    slices[s].latencies.reserve(sizes[s]);
  }
  SummaryFile file;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!file.index.report.tally(
            telemetry::drop_reason(rows.times[i], rows.latencies[i], rows.statuses[i]))) {
      continue;
    }
    for (Slice* slice : {&slices[static_cast<std::size_t>(rows.actions[i])], &slices.back()}) {
      slice->times.push_back(rows.times[i]);
      slice->latencies.push_back(rows.latencies[i]);
    }
  }
  file.bytes.assign(telemetry::store::kSummaryMagic.begin(),
                    telemetry::store::kSummaryMagic.end());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    telemetry::store::SummaryRef& ref =
        s < telemetry::kActionTypeCount ? file.index.by_action[s] : file.index.all;
    if (slices[s].times.empty()) continue;
    const std::size_t begin = file.bytes.size();
    encode_summary(summarize({slices[s].times, slices[s].latencies}), file.bytes);
    ref.kept_rows = slices[s].times.size();
    ref.bytes = file.bytes.size() - begin;
    ref.crc = telemetry::codec::crc32(
        std::span<const std::uint8_t>(file.bytes.data() + begin, ref.bytes));
  }
  return file;
}

}  // namespace autosens::core
