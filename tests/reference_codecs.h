// Reference codecs kept as test oracles: the getline CSV and JSON-lines
// readers the chunked ingest parsers are held to, and the legacy ASL1 binlog
// writer that feeds the reader's backward-compatibility tests.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "telemetry/csv.h"
#include "telemetry/dataset.h"
#include "telemetry/jsonl.h"

namespace autosens::telemetry {

/// Scalar reference CSV reader (std::getline, row-by-row appends).
CsvReadResult read_csv_scalar(std::istream& in);

/// Scalar reference JSON-lines reader (std::getline loop).
JsonlReadResult read_jsonl_scalar(std::istream& in);

/// Write the legacy ASL1 row format (delta/varint batches).
void write_binlog_v1(std::ostream& out, const Dataset& dataset, std::size_t batch_size = 4096);

}  // namespace autosens::telemetry
