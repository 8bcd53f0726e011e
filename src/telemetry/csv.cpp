#include "telemetry/csv.h"

#include <charconv>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "obs/trace.h"

namespace autosens::telemetry {
namespace {

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parse six already-split fields into `record`. Fields arrive untrimmed;
/// each is trimmed here, which makes the whole-line trim in the callers
/// redundant for values while keeping their field-count semantics aligned
/// (whitespace holds no commas, so counts agree either way).
LineParse parse_csv_fields(const std::string_view fields[6], ActionRecord& record,
                           std::string& error) {
  if (!parse_number(trim(fields[0]), record.time_ms)) {
    error = "bad time_ms";
    return LineParse::kError;
  }
  if (!parse_number(trim(fields[1]), record.user_id)) {
    error = "bad user_id";
    return LineParse::kError;
  }
  const auto action = parse_action_type(trim(fields[2]));
  if (!action) {
    error = "unknown action type";
    return LineParse::kError;
  }
  record.action = *action;
  if (!detail::parse_double(trim(fields[3]), record.latency_ms)) {
    error = "bad latency_ms";
    return LineParse::kError;
  }
  const auto user_class = parse_user_class(trim(fields[4]));
  if (!user_class) {
    error = "unknown user class";
    return LineParse::kError;
  }
  record.user_class = *user_class;
  const auto status = parse_action_status(trim(fields[5]));
  if (!status) {
    error = "unknown status";
    return LineParse::kError;
  }
  record.status = *status;
  return LineParse::kRecord;
}

/// Writer-order fast path: the overwhelmingly common line is exactly what
/// write_csv emits — six fields, no padding whitespace, no CR. from_chars
/// doubles as the digit scan for the numeric fields (it stops on the comma
/// we then require), so only the enum fields need a manual scan. On success
/// `p` is advanced past the line's '\n'; ANY deviation — spaces, CRLF,
/// wrong field count, malformed value — returns false with `p` untouched
/// and the caller re-parses the line with the general splitter, so accepted
/// records and error messages are identical to the reference parser by
/// construction (a property the parity tests check against the scalar
/// oracle).
bool parse_csv_fast(const char*& p, const char* const end, ActionRecord& record) {
  const char* q = p;
  // Inline digit loop instead of from_chars: ≤18 digits cannot overflow a
  // 64-bit value, so the result matches from_chars exactly; anything longer
  // (or otherwise unusual) bails to the general path where from_chars rules
  // on overflow.
  const auto integer = [&q, end](auto& out) {
    using T = std::remove_reference_t<decltype(out)>;
    const char* s = q;
    bool negative = false;
    if constexpr (std::is_signed_v<T>) {
      if (s != end && *s == '-') {
        negative = true;
        ++s;
      }
    }
    std::uint64_t value = 0;
    const char* digits = s;
    while (s != end && *s >= '0' && *s <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(*s - '0');
      ++s;
    }
    if (s == digits || s - digits > 18 || s == end || *s != ',') return false;
    out = negative ? static_cast<T>(-static_cast<std::int64_t>(value)) : static_cast<T>(value);
    q = s + 1;
    return true;
  };
  // Scan a field up to the next comma; '\n' or end-of-chunk means the line
  // has too few fields for this position, so bail to the general splitter.
  const auto field_comma = [&q, end]() -> std::string_view {
    const char* start = q;
    while (q != end && *q != ',' && *q != '\n') ++q;
    if (q == end || *q != ',') return {};
    return {start, static_cast<std::size_t>(q++ - start)};
  };

  if (!integer(record.time_ms)) return false;
  if (!integer(record.user_id)) return false;
  const auto action = parse_action_type(field_comma());
  if (!action) return false;
  record.action = *action;
  const char* latency_start = q;
  while (q != end && *q != ',' && *q != '\n') ++q;
  if (q == end || *q != ',') return false;
  if (!detail::parse_double({latency_start, static_cast<std::size_t>(q - latency_start)},
                            record.latency_ms)) {
    return false;
  }
  ++q;
  const auto user_class = parse_user_class(field_comma());
  if (!user_class) return false;
  record.user_class = *user_class;
  // Final field runs to '\n' or end of chunk; a comma here means >6 fields.
  const char* status_start = q;
  while (q != end && *q != ',' && *q != '\n') ++q;
  if (q != end && *q == ',') return false;
  const auto status =
      parse_action_status({status_start, static_cast<std::size_t>(q - status_start)});
  if (!status) return false;
  record.status = *status;
  if (q != end) ++q;  // consume the '\n'
  p = q;
  return true;
}

/// Fused chunk parser: one pass over the bytes classifies ',' and '\n'
/// together, so there is no separate memchr('\n') sweep per line. A line is
/// blank exactly when it holds a single all-whitespace field (whitespace
/// never contains a comma), matching parse_csv_line's trim-then-skip rule.
void parse_csv_chunk(std::string_view chunk, detail::ColumnShard& shard) {
  shard.reserve(chunk.size() / 40 + 1);
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  ActionRecord record;
  std::string error;
  while (p != end) {
    ++shard.lines;
    if (parse_csv_fast(p, end, record)) {
      shard.push(record);
      continue;
    }
    std::string_view fields[6];
    std::size_t field_count = 0;
    const char* field_start = p;
    for (; p != end; ++p) {
      const char c = *p;
      if (c == ',') {
        if (field_count < 6) {
          fields[field_count] = {field_start, static_cast<std::size_t>(p - field_start)};
        }
        ++field_count;
        field_start = p + 1;
      } else if (c == '\n') {
        break;
      }
    }
    if (field_count < 6) {
      fields[field_count] = {field_start, static_cast<std::size_t>(p - field_start)};
    }
    ++field_count;
    if (p != end) ++p;  // consume the '\n'
    if (field_count == 1 && trim(fields[0]).empty()) continue;  // blank line
    if (field_count != 6) {
      shard.errors.push_back(
          {shard.lines, "expected 6 fields, got " + std::to_string(field_count)});
      continue;
    }
    switch (parse_csv_fields(fields, record, error)) {
      case LineParse::kRecord:
        shard.push(record);
        break;
      case LineParse::kSkip:
        break;
      case LineParse::kError:
        shard.errors.push_back({shard.lines, std::move(error)});
        error.clear();
        break;
    }
  }
}

}  // namespace

namespace detail {

LineParse parse_csv_line(std::string_view line, ActionRecord& record, std::string& error) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty()) return LineParse::kSkip;

  std::string_view fields[6];
  std::size_t field_count = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = trimmed.find(',', start);
    const std::string_view field = comma == std::string_view::npos
                                       ? trimmed.substr(start)
                                       : trimmed.substr(start, comma - start);
    if (field_count < 6) fields[field_count] = field;
    ++field_count;
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (field_count != 6) {
    error = "expected 6 fields, got " + std::to_string(field_count);
    return LineParse::kError;
  }
  return parse_csv_fields(fields, record, error);
}

}  // namespace detail

void write_csv(std::ostream& out, const Dataset& dataset) {
  out << kCsvHeader << '\n';
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const ActionRecord r = dataset[i];
    out << r.time_ms << ',' << r.user_id << ',' << to_string(r.action) << ','
        << r.latency_ms << ',' << to_string(r.user_class) << ',' << to_string(r.status)
        << '\n';
  }
}

void write_csv_file(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv_file: cannot open " + path);
  write_csv(out, dataset);
  if (!out) throw std::runtime_error("write_csv_file: write failed for " + path);
}

CsvReadResult read_csv_buffer(std::string_view text, const IngestOptions& options) {
  text = strip_utf8_bom(text);
  const std::size_t newline = text.find('\n');
  const std::string_view header =
      newline == std::string_view::npos ? text : text.substr(0, newline);
  if (text.empty()) throw std::runtime_error("read_csv: empty input (missing header)");
  if (trim(header) != kCsvHeader) {
    throw std::runtime_error("read_csv: unexpected header: " + std::string(header));
  }
  const std::string_view body =
      newline == std::string_view::npos ? std::string_view{} : text.substr(newline + 1);

  auto ingested = ingest_chunks(body, /*first_line=*/2, options, parse_csv_chunk);
  return CsvReadResult{std::move(ingested.dataset), std::move(ingested.errors)};
}

CsvReadResult read_csv(std::istream& in, const IngestOptions& options) {
  const MappedFile input = MappedFile::read_stream(in);
  return read_csv_buffer(input.text(), options);
}

CsvReadResult read_csv_file(const std::string& path, const IngestOptions& options) {
  obs::Span span("ingest_csv");
  span.attr("path", path);
  const MappedFile input = MappedFile::map(path);
  const auto start = std::chrono::steady_clock::now();
  auto result = read_csv_buffer(input.text(), options);
  IngestStats stats{.bytes = input.size(),
                    .records = result.dataset.size(),
                    .errors = result.errors.size(),
                    .seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count(),
                    .mapped = input.is_mapped()};
  note_ingest("csv", stats);
  span.attr("records", static_cast<std::int64_t>(stats.records));
  span.attr("bytes", static_cast<std::int64_t>(stats.bytes));
  return result;
}

}  // namespace autosens::telemetry
