// CSV import/export of ActionRecords. The on-disk schema is the minimal
// telemetry of the paper (§2.1): time_ms,user_id,action,latency_ms,
// user_class,status — with a header row. Parsing is strict: malformed rows
// are reported with line numbers rather than silently dropped.
//
// Reads go through the parallel zero-copy ingest engine (ingest.h): files
// are memory-mapped and parsed in newline-aligned chunks with
// std::from_chars over string_view slices, no per-line heap allocations.
// The result is byte-identical for every thread count. A UTF-8 BOM before
// the header, CRLF line endings, and a missing trailing newline are all
// tolerated, identically in the chunked and scalar paths.
#pragma once

#include <cstddef>
#include <iosfwd>
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

/// Result of a CSV read: accepted records plus per-row errors.
struct CsvReadResult {
  Dataset dataset;
  std::vector<CsvError> errors;
};

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

/// Parse one CSV data line (no '\n'). A blank or all-whitespace line is
/// kSkip. The per-line reference the parity tests hold the fused chunk
/// parser to.
LineParse parse_csv_line(std::string_view line, ActionRecord& record, std::string& error);

}  // namespace detail

}  // namespace autosens::telemetry
