// CSV import/export of ActionRecords. The on-disk schema is the minimal
// telemetry of the paper (§2.1): time_ms,user_id,action,latency_ms,
// user_class,status — with a header row. Parsing is strict: malformed rows
// are reported with line numbers rather than silently dropped.
//
// Reads go through the parallel zero-copy ingest engine (ingest.h): files
// are memory-mapped and parsed in newline-aligned chunks straight into the
// dataset's columns, no per-line heap allocations.
// The result is byte-identical for every thread count. A UTF-8 BOM before
// the header, CRLF line endings, and a missing trailing newline are all
// tolerated, identically in the chunked and scalar paths.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/dataset.h"
#include "telemetry/ingest.h"

namespace autosens::telemetry {

/// The canonical header row.
inline constexpr const char* kCsvHeader = "time_ms,user_id,action,latency_ms,user_class,status";

/// One rejected input row (shared shape with the other text readers).
using CsvError = IngestError;

/// Result of a CSV read: accepted records, per-row errors and the ingest's
/// stats.
using CsvReadResult = IngestResult;

/// Write `dataset` as CSV (header + one row per record).
void write_csv(std::ostream& out, const Dataset& dataset);
void write_csv_file(const std::string& path, const Dataset& dataset);

/// Read records from CSV. The header row is validated; a wrong header is a
/// fatal std::runtime_error (it means the file is not this schema at all),
/// while individually malformed data rows are collected into `errors`.
///
/// The buffer entry point parses in place (zero copies); the stream entry
/// point slurps the stream first (pipes and string streams welcome); the
/// file entry point memory-maps. All three produce identical results for
/// every `options.threads` value.
CsvReadResult read_csv_buffer(std::string_view text, const IngestOptions& options = {});
CsvReadResult read_csv(std::istream& in, const IngestOptions& options = {});
CsvReadResult read_csv_file(const std::string& path, const IngestOptions& options = {});

namespace detail {

/// Bytes one formatted row of the CSV or JSON-lines writers may take: two
/// 20-character integers, a latency and the names and punctuation around
/// them.
inline constexpr std::size_t kMaxTextRowBytes = 256;

/// Write `rows` rows of text to `out`: format_row(p, i) writes row i at `p`
/// (at most kMaxTextRowBytes) and returns its end. Rows are formatted into
/// one 1 MiB buffer that goes to the stream in a single write when full.
template <typename FormatRow>
void write_text_rows(std::ostream& out, std::size_t rows, const FormatRow& format_row) {
  std::vector<char> buffer(std::size_t{1} << 20);
  char* const begin = buffer.data();
  char* const limit = begin + buffer.size() - kMaxTextRowBytes;
  char* p = begin;
  for (std::size_t i = 0; i < rows; ++i) {
    p = format_row(p, i);
    if (p > limit) {
      out.write(begin, p - begin);
      p = begin;
    }
  }
  out.write(begin, p - begin);
}

/// Formatters for write_text_rows, each returning the end of what it wrote.
/// Integers print in full and latencies as std::ostream << prints a double
/// at its default precision, printf's "%g": six significant digits.
inline char* put_text(char* p, std::string_view text) noexcept {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}
template <typename Integer>
char* put_integer(char* p, Integer value) noexcept {
  return std::to_chars(p, p + 20, value).ptr;
}
inline char* put_latency(char* p, double value) noexcept {
  return std::to_chars(p, p + 32, value, std::chars_format::general, 6).ptr;
}

/// Parse one CSV data line (no '\n'). A blank or all-whitespace line is
/// kSkip. The per-line reference the parity tests hold the fused chunk
/// parser to.
LineParse parse_csv_line(std::string_view line, ActionRecord& record, std::string& error);

}  // namespace detail

}  // namespace autosens::telemetry
