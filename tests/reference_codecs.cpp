#include "reference_codecs.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/binlog.h"
#include "telemetry/ingest.h"
#include "telemetry/record.h"

namespace autosens::telemetry {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

void put_u32(std::ostream& out, std::uint32_t value) {
  std::array<std::uint8_t, 4> bytes = {
      static_cast<std::uint8_t>(value), static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value >> 16), static_cast<std::uint8_t>(value >> 24)};
  out.write(reinterpret_cast<const char*>(bytes.data()), 4);
}

}  // namespace

CsvReadResult read_csv_scalar(std::istream& in) {
  CsvReadResult result;
  std::string line;
  std::size_t line_number = 0;

  if (!std::getline(in, line)) {
    throw std::runtime_error("read_csv: empty input (missing header)");
  }
  ++line_number;
  // The scalar path must agree with the chunked path on a UTF-8 BOM before
  // the header.
  if (trim(strip_utf8_bom(line)) != kCsvHeader) {
    throw std::runtime_error("read_csv: unexpected header: " + line);
  }

  while (std::getline(in, line)) {
    ++line_number;
    ActionRecord record;
    std::string error;
    switch (detail::parse_csv_line(line, record, error)) {
      case LineParse::kRecord:
        result.dataset.add(record);
        break;
      case LineParse::kSkip:
        break;
      case LineParse::kError:
        result.errors.push_back({line_number, std::move(error)});
        break;
    }
  }
  result.dataset.sort_by_time();
  return result;
}

JsonlReadResult read_jsonl_scalar(std::istream& in) {
  JsonlReadResult result;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = line;
    if (line_number == 1) view = strip_utf8_bom(view);
    ActionRecord record;
    std::string error;
    switch (detail::parse_jsonl_line(view, record, error)) {
      case LineParse::kRecord:
        result.dataset.add(record);
        break;
      case LineParse::kSkip:
        break;
      case LineParse::kError:
        result.errors.push_back({line_number, std::move(error)});
        break;
    }
  }
  result.dataset.sort_by_time();
  return result;
}

void write_binlog_v1(std::ostream& out, const Dataset& dataset, std::size_t batch_size) {
  if (batch_size == 0) throw std::invalid_argument("write_binlog: batch_size must be nonzero");
  constexpr std::array<char, 4> kMagicV1 = {'A', 'S', 'L', '1'};
  out.write(kMagicV1.data(), kMagicV1.size());
  // Gather one batch at a time from the columns instead of materializing the
  // whole dataset as records up front.
  std::vector<ActionRecord> batch;
  batch.reserve(std::min(batch_size, dataset.size()));
  for (std::size_t start = 0; start < dataset.size(); start += batch_size) {
    const std::size_t count = std::min(batch_size, dataset.size() - start);
    batch.clear();
    for (std::size_t k = start; k < start + count; ++k) batch.push_back(dataset[k]);
    const auto payload = codec::encode_batch(batch);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    put_u32(out, codec::crc32(payload));
  }
  if (!out) throw std::runtime_error("write_binlog: stream write failed");
}

}  // namespace autosens::telemetry
