// JSON-lines telemetry interchange: one JSON object per line, the format
// most log pipelines (jq, BigQuery exports, vector.dev, etc.) speak.
//
//   {"time_ms":1000,"user_id":42,"action":"SelectMail","latency_ms":123.4,
//    "user_class":"Business","status":"Success"}
//
// The reader is a small, strict JSON-object parser specialized to this flat
// schema: unknown keys are errors (they signal a schema mismatch, not data
// to silently drop), and malformed lines are reported with line numbers.
//
// Like the CSV reader, reads run on the parallel zero-copy ingest engine
// (ingest.h): mmap + newline-aligned chunks + string_view slices, with
// results byte-identical for every thread count. UTF-8 BOM, CRLF, and a
// missing trailing newline are normalized identically in the chunked and
// scalar paths.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/csv.h"  // reuse CsvError for per-line error reporting
#include "telemetry/dataset.h"
#include "telemetry/ingest.h"

namespace autosens::telemetry {

/// Result of a JSON-lines read: accepted records, per-line errors and the
/// ingest's stats.
using JsonlReadResult = IngestResult;

void write_jsonl(std::ostream& out, const Dataset& dataset);
void write_jsonl_file(const std::string& path, const Dataset& dataset);

/// Read JSON-lines. Same entry-point semantics as the CSV reader: the
/// buffer form parses in place, the stream form slurps first, the file
/// form memory-maps; identical output for every `options.threads` value.
JsonlReadResult read_jsonl_buffer(std::string_view text, const IngestOptions& options = {});
JsonlReadResult read_jsonl(std::istream& in, const IngestOptions& options = {});
JsonlReadResult read_jsonl_file(const std::string& path, const IngestOptions& options = {});

namespace detail {

/// Parse one JSON-lines record (no '\n'). The per-line reference the
/// parity tests hold the fused chunk parser to.
LineParse parse_jsonl_line(std::string_view line, ActionRecord& record, std::string& error);

}  // namespace detail

}  // namespace autosens::telemetry
