#include "telemetry/csv.h"

#include <bit>
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

/// The shortest line parse_csv_fields accepts: one-digit numbers and the
/// shortest name of each enum. It bounds how many records a chunk can hold.
constexpr std::size_t kMinRecordBytes = std::string_view("0,0,Other,0,Business,Error").size();

/// Yields the ',' and '\n' bytes of a chunk in order, found a 64-bit word at
/// a time: each word's delimiter bytes become one bit mask, and next() pops
/// its lowest bit. The last word of the chunk is short-copied, so no read
/// goes past the chunk's end.
class DelimiterCursor {
 public:
  DelimiterCursor(const char* begin, const char* end) noexcept : end_(end) { seek(begin); }

  /// Restart the scan at `p` (a line start after the general splitter).
  void seek(const char* p) noexcept {
    word_ = p;
    mask_ = p == end_ ? 0 : delimiters(p);
  }

  /// The next ',' or '\n' at or after the scan position, or the chunk end.
  const char* next() noexcept {
    while (mask_ == 0) {
      if (end_ - word_ <= 8) return end_;
      word_ += 8;
      mask_ = delimiters(word_);
    }
    const char* hit = word_ + (std::countr_zero(mask_) >> 3);
    mask_ &= mask_ - 1;
    return hit;
  }

 private:
  std::uint64_t delimiters(const char* p) const noexcept {
    const std::uint64_t word = detail::load_word(p, end_);
    return detail::byte_mask(word, ',') | detail::byte_mask(word, '\n');
  }

  const char* word_;
  const char* const end_;
  std::uint64_t mask_ = 0;
};

/// Digits of [s, e), with a leading '-' when T is signed: at most 18 of
/// them, which cannot overflow 64 bits, so the value matches from_chars.
/// Anything else (empty, a sign it may not have, 19+ digits, any other
/// byte) returns false and leaves the line to the general splitter, where
/// from_chars rules on it.
template <typename T>
bool parse_digits(const char* s, const char* const e, T& out) noexcept {
  bool negative = false;
  if constexpr (std::is_signed_v<T>) {
    if (s != e && *s == '-') {
      negative = true;
      ++s;
    }
  }
  if (s == e || e - s > 18) return false;
  std::uint64_t value = 0;
  for (; s != e; ++s) {
    const auto digit = static_cast<unsigned>(*s - '0');
    if (digit > 9) return false;
    value = value * 10 + digit;
  }
  out = negative ? static_cast<T>(-static_cast<std::int64_t>(value)) : static_cast<T>(value);
  return true;
}

/// The general splitter: split the line at `p` on its commas, then parse
/// and trim its six fields. Leaves `p` past the line's '\n' (or at `end`).
LineParse parse_csv_general(const char*& p, const char* const end, ActionRecord& record,
                            std::string& error) {
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
  // A line is blank exactly when it holds a single all-whitespace field
  // (whitespace never contains a comma), matching parse_csv_line.
  if (field_count == 1 && trim(fields[0]).empty()) return LineParse::kSkip;
  if (field_count != 6) {
    error = "expected 6 fields, got " + std::to_string(field_count);
    return LineParse::kError;
  }
  return parse_csv_fields(fields, record, error);
}

/// Chunk parser. The fast path takes the line write_csv emits — six
/// unpadded fields, no CR: the cursor finds its five commas and its '\n'
/// (or the chunk end), and each field is parsed on those bounds with the
/// same parsers as the general path. ANY deviation — padding, CRLF, a
/// wrong field count, a value the fast parsers decline — re-parses the line
/// with parse_csv_general from its start, so accepted records and error
/// messages are identical to the reference parser by construction (a
/// property the parity tests check against the scalar oracle). The row
/// cursor and column pointers live in locals: the stores of a row then
/// never make the compiler reload them.
std::size_t parse_csv_chunk(std::string_view chunk, const detail::RowRange& rows,
                            std::vector<IngestError>& errors) {
  std::int64_t* const times = rows.times;
  double* const latencies = rows.latencies;
  std::uint64_t* const user_ids = rows.user_ids;
  ActionType* const actions = rows.actions;
  UserClass* const user_classes = rows.user_classes;
  ActionStatus* const statuses = rows.statuses;
  const std::size_t capacity = rows.capacity;
  std::size_t n = 0;

  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  DelimiterCursor cursor(p, end);
  ActionRecord record;
  std::string error;
  std::size_t line = 0;
  while (p != end) {
    ++line;
    const char* const c0 = cursor.next();
    const char* const c1 = cursor.next();
    const char* const c2 = cursor.next();
    const char* const c3 = cursor.next();
    const char* const c4 = cursor.next();
    const char* const eol = cursor.next();
    if (n < capacity && c4 != end && *c0 == ',' && *c1 == ',' && *c2 == ',' && *c3 == ',' &&
        *c4 == ',' && (eol == end || *eol == '\n') && parse_digits(p, c0, times[n]) &&
        parse_digits(c0 + 1, c1, user_ids[n])) {
      const auto action = parse_action_type({c1 + 1, static_cast<std::size_t>(c2 - c1 - 1)});
      const auto user_class =
          parse_user_class({c3 + 1, static_cast<std::size_t>(c4 - c3 - 1)});
      const auto status =
          parse_action_status({c4 + 1, static_cast<std::size_t>(eol - c4 - 1)});
      if (action && user_class && status &&
          detail::parse_double({c2 + 1, static_cast<std::size_t>(c3 - c2 - 1)},
                               latencies[n])) {
        actions[n] = *action;
        user_classes[n] = *user_class;
        statuses[n] = *status;
        ++n;
        p = eol == end ? end : eol + 1;
        continue;
      }
    }
    switch (parse_csv_general(p, end, record, error)) {
      case LineParse::kRecord:
        if (n == capacity) detail::throw_range_full();
        times[n] = record.time_ms;
        latencies[n] = record.latency_ms;
        user_ids[n] = record.user_id;
        actions[n] = record.action;
        user_classes[n] = record.user_class;
        statuses[n] = record.status;
        ++n;
        break;
      case LineParse::kSkip:
        break;
      case LineParse::kError:
        errors.push_back({line, std::move(error)});
        error.clear();
        break;
    }
    cursor.seek(p);
  }
  return n;
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
  detail::write_text_rows(out, dataset.size(), [&dataset](char* p, std::size_t i) {
    const ActionRecord r = dataset[i];
    p = detail::put_integer(p, r.time_ms);
    *p++ = ',';
    p = detail::put_integer(p, r.user_id);
    *p++ = ',';
    p = detail::put_text(p, to_string(r.action));
    *p++ = ',';
    p = detail::put_latency(p, r.latency_ms);
    *p++ = ',';
    p = detail::put_text(p, to_string(r.user_class));
    *p++ = ',';
    p = detail::put_text(p, to_string(r.status));
    *p++ = '\n';
    return p;
  });
}

void write_csv_file(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv_file: cannot open " + path);
  write_csv(out, dataset);
  if (!out) throw std::runtime_error("write_csv_file: write failed for " + path);
}

CsvReadResult read_csv_buffer(std::string_view input, const IngestOptions& options) {
  const std::string_view text = strip_utf8_bom(input);
  const std::size_t newline = text.find('\n');
  const std::string_view header =
      newline == std::string_view::npos ? text : text.substr(0, newline);
  if (text.empty()) throw std::runtime_error("read_csv: empty input (missing header)");
  if (trim(header) != kCsvHeader) {
    throw std::runtime_error("read_csv: unexpected header: " + std::string(header));
  }
  const std::string_view body =
      newline == std::string_view::npos ? std::string_view{} : text.substr(newline + 1);

  auto result = ingest_chunks(body, /*first_line=*/2, kMinRecordBytes, options,
                              parse_csv_chunk);
  result.stats.bytes = input.size();
  result.stats.lines += 1;  // the header
  return result;
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
  IngestStats& stats = result.stats;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stats.mapped = input.is_mapped();
  note_ingest("csv", stats);
  span.attr("records", static_cast<std::int64_t>(stats.records));
  span.attr("bytes", static_cast<std::int64_t>(stats.bytes));
  span.attr("lines", static_cast<std::int64_t>(stats.lines));
  span.attr("chunks", static_cast<std::int64_t>(stats.chunks));
  return result;
}

}  // namespace autosens::telemetry
