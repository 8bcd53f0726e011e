#include "telemetry/jsonl.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

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

/// Whitespace sets matching what std::isspace accepts in the "C" locale,
/// without the per-character libc call the previous tokenizer paid.
/// line_space excludes '\n' — it is the line terminator and must never be
/// skipped inside a line when parsing straight out of a multi-line chunk.
constexpr bool json_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}
constexpr bool line_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

/// Single-pass parser for one flat JSON object {"key":value,...} where
/// values are numbers or double-quoted strings without escapes (the schema
/// never needs them). `p` must sit at a line start; on return it sits just
/// past the line's '\n' (or at `end` for a final unterminated line)
/// regardless of outcome, so the caller never rescans for the terminator.
LineParse parse_jsonl_record(const char*& p, const char* const end, ActionRecord& record,
                             std::string& error) {
  // On error, skip the rest of the offending line so the next call starts
  // at a line boundary.
  const auto resync = [&p, end] {
    while (p != end && *p != '\n') ++p;
    if (p != end) ++p;
  };
  const auto fail = [&error, &resync](const char* message) {
    error = message;
    resync();
    return LineParse::kError;
  };
  const auto skip_space = [&p, end] {
    while (p != end && line_space(*p)) ++p;
  };
  // Scans the body of a double-quoted string; the opening quote is already
  // consumed. Leaves p past the closing quote on success.
  const auto scan_string = [&p, end](std::string_view& out) {
    const char* start = p;
    while (p != end && *p != '"' && *p != '\\' && *p != '\n') ++p;
    if (p == end || *p != '"') return false;  // unterminated or escaped
    out = std::string_view(start, static_cast<std::size_t>(p - start));
    ++p;  // closing quote
    return true;
  };

  record = ActionRecord{};
  bool saw_time = false;
  bool saw_user = false;
  bool saw_action = false;
  bool saw_latency = false;
  bool saw_class = false;
  bool saw_status = false;

  skip_space();
  if (p == end || *p == '\n') {  // blank line
    if (p != end) ++p;
    return LineParse::kSkip;
  }
  if (*p != '{') return fail("expected '{'");
  ++p;
  skip_space();
  bool closed = p != end && *p == '}';
  if (closed) ++p;
  while (!closed) {
    std::string_view key;
    if (p == end || *p != '"') return fail("expected string key");
    ++p;
    if (!scan_string(key)) return fail("expected string key");
    skip_space();
    if (p == end || *p != ':') return fail("expected ':'");
    ++p;
    skip_space();
    std::string_view value;
    bool is_string = false;
    if (p != end && *p == '"') {
      ++p;
      if (!scan_string(value)) return fail("bad string value");
      is_string = true;
    } else {
      const char* start = p;
      while (p != end && *p != ',' && *p != '}' && !json_space(*p)) ++p;
      value = std::string_view(start, static_cast<std::size_t>(p - start));
      if (value.empty()) return fail("expected value");
    }
    // Key dispatch on (length, content): every schema key has a unique
    // (length, first letter) pair, so the switch reaches at most two
    // full compares. A known key with the wrong value type falls through
    // to "unknown key", same as the reference parser.
    bool handled = false;
    switch (key.size()) {
      case 7:
        if (!is_string && key == "time_ms") {
          if (!parse_number(value, record.time_ms)) return fail("bad time_ms");
          saw_time = true;
          handled = true;
        } else if (!is_string && key == "user_id") {
          if (!parse_number(value, record.user_id)) return fail("bad user_id");
          saw_user = true;
          handled = true;
        }
        break;
      case 10:
        if (!is_string && key == "latency_ms") {
          if (!detail::parse_double(value, record.latency_ms)) {
            return fail("bad latency_ms");
          }
          saw_latency = true;
          handled = true;
        } else if (is_string && key == "user_class") {
          const auto parsed = parse_user_class(value);
          if (!parsed) return fail("unknown user class");
          record.user_class = *parsed;
          saw_class = true;
          handled = true;
        }
        break;
      case 6:
        if (is_string && key == "action") {
          const auto parsed = parse_action_type(value);
          if (!parsed) return fail("unknown action type");
          record.action = *parsed;
          saw_action = true;
          handled = true;
        } else if (is_string && key == "status") {
          const auto parsed = parse_action_status(value);
          if (!parsed) return fail("unknown status");
          record.status = *parsed;
          saw_status = true;
          handled = true;
        }
        break;
      default:
        break;
    }
    if (!handled) {
      error = "unknown key: ";
      error += key;
      resync();
      return LineParse::kError;
    }
    skip_space();
    if (p != end && *p == ',') {
      ++p;
      skip_space();
      continue;
    }
    if (p != end && *p == '}') {
      ++p;
      closed = true;
      break;
    }
    return fail("expected ',' or '}'");
  }
  skip_space();
  if (p != end && *p != '\n') return fail("trailing characters after object");
  if (!(saw_time && saw_user && saw_action && saw_latency && saw_class && saw_status)) {
    return fail("missing required field");  // p at '\n'/end; resync consumes it
  }
  if (p != end) ++p;
  return LineParse::kRecord;
}

/// Writer-order fast path: the overwhelmingly common line is exactly what
/// write_jsonl emits — fixed key order, no whitespace, no escapes. Matching
/// the key literals directly (each memcmp compiles to a couple of word
/// compares) skips the generic tokenizer. On success `p` is advanced past
/// the line's '\n' and every record field is written. ANY deviation —
/// reordered keys, whitespace, malformed value, trailing bytes — returns
/// false with `p` untouched and the caller re-parses the line with
/// parse_jsonl_record, so accepted records and error messages are identical
/// to the reference parser by construction (a property the parity tests
/// check against the scalar oracle).
bool parse_jsonl_fast(const char*& p, const char* const end, ActionRecord& record) {
  const char* q = p;
  const auto literal = [&q, end](std::string_view text) {
    if (static_cast<std::size_t>(end - q) < text.size() ||
        std::memcmp(q, text.data(), text.size()) != 0) {
      return false;
    }
    q += text.size();
    return true;
  };
  // Same stop set as the general parser's unquoted-value scan.
  const auto number = [&q, end]() -> std::string_view {
    const char* start = q;
    while (q != end && *q != ',' && *q != '}' && !json_space(*q)) ++q;
    return {start, static_cast<std::size_t>(q - start)};
  };
  // Same stop set as scan_string; '\\' and '\n' bail to the general parser.
  const auto quoted = [&q, end](std::string_view& out) {
    const char* start = q;
    while (q != end && *q != '"' && *q != '\\' && *q != '\n') ++q;
    if (q == end || *q != '"') return false;
    out = {start, static_cast<std::size_t>(q - start)};
    ++q;
    return true;
  };

  if (!literal("{\"time_ms\":")) return false;
  if (!parse_number(number(), record.time_ms)) return false;
  if (!literal(",\"user_id\":")) return false;
  if (!parse_number(number(), record.user_id)) return false;
  if (!literal(",\"action\":\"")) return false;
  std::string_view text;
  if (!quoted(text)) return false;
  const auto action = parse_action_type(text);
  if (!action) return false;
  record.action = *action;
  if (!literal(",\"latency_ms\":")) return false;
  if (!detail::parse_double(number(), record.latency_ms)) return false;
  if (!literal(",\"user_class\":\"")) return false;
  if (!quoted(text)) return false;
  const auto user_class = parse_user_class(text);
  if (!user_class) return false;
  record.user_class = *user_class;
  if (!literal(",\"status\":\"")) return false;
  if (!quoted(text)) return false;
  const auto status = parse_action_status(text);
  if (!status) return false;
  record.status = *status;
  if (q == end || *q != '}') return false;
  ++q;
  if (q != end) {
    if (*q != '\n') return false;  // trailing bytes: let the reference decide
    ++q;
  }
  p = q;
  return true;
}

/// Fused chunk parser: parse_jsonl_record leaves the cursor past each
/// line's terminator, so there is no separate memchr('\n') sweep per line.
void parse_jsonl_chunk(std::string_view chunk, detail::ColumnShard& shard) {
  shard.reserve(chunk.size() / 110 + 1);
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  ActionRecord record;
  std::string error;
  while (p != end) {
    ++shard.lines;
    if (parse_jsonl_fast(p, end, record)) {
      shard.push(record);
      continue;
    }
    switch (parse_jsonl_record(p, end, record, error)) {
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

LineParse parse_jsonl_line(std::string_view line, ActionRecord& record, std::string& error) {
  const char* p = line.data();
  return parse_jsonl_record(p, line.data() + line.size(), record, error);
}

}  // namespace detail

void write_jsonl(std::ostream& out, const Dataset& dataset) {
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const ActionRecord r = dataset[i];
    out << "{\"time_ms\":" << r.time_ms << ",\"user_id\":" << r.user_id << ",\"action\":\""
        << to_string(r.action) << "\",\"latency_ms\":" << r.latency_ms
        << ",\"user_class\":\"" << to_string(r.user_class) << "\",\"status\":\""
        << to_string(r.status) << "\"}\n";
  }
}

void write_jsonl_file(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_jsonl_file: cannot open " + path);
  write_jsonl(out, dataset);
  if (!out) throw std::runtime_error("write_jsonl_file: write failed for " + path);
}

JsonlReadResult read_jsonl_buffer(std::string_view text, const IngestOptions& options) {
  auto ingested = ingest_chunks(strip_utf8_bom(text), /*first_line=*/1, options,
                                parse_jsonl_chunk);
  return JsonlReadResult{std::move(ingested.dataset), std::move(ingested.errors)};
}

JsonlReadResult read_jsonl(std::istream& in, const IngestOptions& options) {
  const MappedFile input = MappedFile::read_stream(in);
  return read_jsonl_buffer(input.text(), options);
}

JsonlReadResult read_jsonl_file(const std::string& path, const IngestOptions& options) {
  obs::Span span("ingest_jsonl");
  span.attr("path", path);
  const MappedFile input = MappedFile::map(path);
  const auto start = std::chrono::steady_clock::now();
  auto result = read_jsonl_buffer(input.text(), options);
  IngestStats stats{.bytes = input.size(),
                    .records = result.dataset.size(),
                    .errors = result.errors.size(),
                    .seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count(),
                    .mapped = input.is_mapped()};
  note_ingest("jsonl", stats);
  span.attr("records", static_cast<std::int64_t>(stats.records));
  span.attr("bytes", static_cast<std::int64_t>(stats.bytes));
  return result;
}

}  // namespace autosens::telemetry
