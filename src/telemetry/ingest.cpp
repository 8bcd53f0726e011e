#include "telemetry/ingest.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <istream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace autosens::telemetry {

// ---------------------------------------------------------------------------
// MappedFile

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      map_base_(other.map_base_),
      map_length_(other.map_length_),
      buffer_(std::move(other.buffer_)) {
  // The buffer move can relocate nothing (vector storage is stable), but the
  // moved-from object must not unmap what we now own.
  other.data_ = "";
  other.size_ = 0;
  other.map_base_ = nullptr;
  other.map_length_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    map_base_ = other.map_base_;
    map_length_ = other.map_length_;
    buffer_ = std::move(other.buffer_);
    other.data_ = "";
    other.size_ = 0;
    other.map_base_ = nullptr;
    other.map_length_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() noexcept {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_length_);
    map_base_ = nullptr;
    map_length_ = 0;
  }
  buffer_.clear();
  data_ = "";
  size_ = 0;
}

namespace {

/// RAII fd so every throw path closes the descriptor.
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

/// Read everything `fd` has to offer into `out` (the non-mmap fallback).
bool read_all(int fd, std::vector<char>& out) {
  char block[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, block, sizeof block);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out.insert(out.end(), block, block + n);
  }
}

}  // namespace

MappedFile MappedFile::map(const std::string& path) {
  FdGuard guard{::open(path.c_str(), O_RDONLY)};
  if (guard.fd < 0) {
    throw std::runtime_error("MappedFile::map: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat info {};
  if (::fstat(guard.fd, &info) != 0) {
    throw std::runtime_error("MappedFile::map: fstat failed for " + path + ": " +
                             std::strerror(errno));
  }

  MappedFile file;
  if (S_ISREG(info.st_mode) && info.st_size > 0) {
    const auto length = static_cast<std::size_t>(info.st_size);
    void* base = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, guard.fd, 0);
    if (base != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
      ::madvise(base, length, MADV_SEQUENTIAL);
#endif
      file.map_base_ = base;
      file.map_length_ = length;
      file.data_ = base;
      file.size_ = length;
      return file;
    }
    // mmap can fail for exotic filesystems; fall through to the read path.
  }

  if (!read_all(guard.fd, file.buffer_)) {
    throw std::runtime_error("MappedFile::map: read failed for " + path + ": " +
                             std::strerror(errno));
  }
  if (!file.buffer_.empty()) {
    file.data_ = file.buffer_.data();
    file.size_ = file.buffer_.size();
  }
  return file;
}

MappedFile MappedFile::read_stream(std::istream& in) {
  MappedFile file;
  char block[1 << 16];
  while (in.read(block, sizeof block) || in.gcount() > 0) {
    file.buffer_.insert(file.buffer_.end(), block, block + in.gcount());
  }
  if (!file.buffer_.empty()) {
    file.data_ = file.buffer_.data();
    file.size_ = file.buffer_.size();
  }
  return file;
}

// ---------------------------------------------------------------------------
// Chunking

std::vector<std::size_t> newline_chunk_bounds(std::string_view text,
                                              std::size_t chunk_bytes,
                                              std::size_t max_chunks) {
  const core::ChunkGrid grid =
      core::make_chunk_grid(text.size(), chunk_bytes == 0 ? 1 : chunk_bytes, max_chunks);
  std::vector<std::size_t> bounds;
  bounds.reserve(grid.chunks + 1);
  bounds.push_back(0);
  for (std::size_t c = 1; c < grid.chunks; ++c) {
    // Snap the grid boundary forward to just past the next newline so no
    // line straddles two chunks. A long line can swallow whole grid cells,
    // leaving empty chunks — harmless, and still thread-count independent.
    const std::size_t raw = grid.begin(c);
    const std::size_t newline = text.find('\n', std::max(raw, bounds.back()));
    bounds.push_back(newline == std::string_view::npos ? text.size() : newline + 1);
  }
  bounds.push_back(text.size());
  return bounds;
}

std::string_view strip_utf8_bom(std::string_view text) noexcept {
  if (text.size() >= 3 && text[0] == '\xef' && text[1] == '\xbb' && text[2] == '\xbf') {
    text.remove_prefix(3);
  }
  return text;
}

// ---------------------------------------------------------------------------
// Row ranges

namespace detail {

void throw_range_full() {
  throw std::logic_error("ingest: a chunk holds more records than its row range");
}

RowRange row_range(const MutableRowColumns& columns, std::size_t first,
                   std::size_t capacity) noexcept {
  return {columns.times.data() + first,        columns.latencies.data() + first,
          columns.user_ids.data() + first,     columns.actions.data() + first,
          columns.user_classes.data() + first, columns.statuses.data() + first,
          capacity};
}

std::size_t count_lines(std::string_view chunk) noexcept {
  // byte_mask(word) >> 7 is 1 in every byte lane that holds a '\n'. Lanes
  // add up over at most 255 words, so none can carry into the next, then
  // fold into the count. The loop has no popcount and no branch per word,
  // so it compiles to plain vector adds.
  const auto lane_sum = [](std::uint64_t lanes) {
    lanes = (lanes & 0x00ff00ff00ff00ffull) + ((lanes >> 8) & 0x00ff00ff00ff00ffull);
    return static_cast<std::size_t>((lanes * 0x0001000100010001ull) >> 48);
  };
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  std::size_t newlines = 0;
  while (end - p >= 8) {
    const std::size_t words = std::min<std::size_t>(static_cast<std::size_t>(end - p) / 8, 255);
    std::uint64_t lanes = 0;
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t word;
      std::memcpy(&word, p + 8 * i, 8);
      lanes += byte_mask(word, '\n') >> 7;
    }
    newlines += lane_sum(lanes);
    p += 8 * words;
  }
  if (p != end) newlines += lane_sum(byte_mask(load_word(p, end), '\n') >> 7);
  const bool unterminated = !chunk.empty() && chunk.back() != '\n';
  return newlines + (unterminated ? 1 : 0);
}

ChunkPlan plan_chunk_rows(std::string_view text, std::span<const std::size_t> bounds,
                          std::size_t min_record_bytes, std::size_t threads,
                          Dataset& dataset) {
  ChunkPlan plan;
  plan.chunks.resize(bounds.size() - 1);
  core::parallel_for_items(plan.chunks.size(), threads, [&](std::size_t c) {
    plan.chunks[c].lines = count_lines(text.substr(bounds[c], bounds[c + 1] - bounds[c]));
  });
  std::size_t total = 0;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    ChunkRows& chunk = plan.chunks[c];
    // r record lines of at least min_record_bytes each, all but the last
    // followed by '\n', need r * (min_record_bytes + 1) - 1 bytes.
    const std::size_t bytes = bounds[c + 1] - bounds[c];
    chunk.first_row = total;
    chunk.capacity = std::min(chunk.lines, (bytes + 1) / (min_record_bytes + 1));
    total += chunk.capacity;
  }
  plan.columns = dataset.resize_for_overwrite(total, /*ascending=*/false);
  return plan;
}

void finish_chunk_rows(ChunkPlan& plan, std::size_t first_line, std::size_t threads,
                       IngestResult& result) {
  const MutableRowColumns& columns = plan.columns;
  // Rows of chunk c sit at [first_row, first_row + rows); a range that
  // ended short leaves a hole after it. Moving each range down in chunk
  // order only ever overwrites holes and rows already moved.
  std::size_t rows = 0;
  std::size_t lines = 0;
  std::size_t error_count = 0;
  for (const ChunkRows& chunk : plan.chunks) {
    if (rows != chunk.first_row && chunk.rows > 0) {
      const auto move_down = [&](auto column) {
        std::memmove(column.data() + rows, column.data() + chunk.first_row,
                     chunk.rows * sizeof(column[0]));
      };
      move_down(columns.times);
      move_down(columns.latencies);
      move_down(columns.user_ids);
      move_down(columns.actions);
      move_down(columns.user_classes);
      move_down(columns.statuses);
    }
    rows += chunk.rows;
    error_count += chunk.errors.size();
  }
  result.stats.rows_reserved = result.dataset.size();
  result.dataset.truncate(rows);

  result.errors.reserve(error_count);
  for (ChunkRows& chunk : plan.chunks) {
    for (IngestError& error : chunk.errors) {
      // Chunk-local (1-based) -> global line number.
      result.errors.push_back({first_line + lines + error.line - 1, std::move(error.message)});
    }
    lines += chunk.lines;
  }
  result.dataset.sort_by_time(threads);
  result.stats.records = result.dataset.size();
  result.stats.errors = result.errors.size();
  result.stats.lines = lines;
  result.stats.chunks = plan.chunks.size();
}

namespace {

bool from_chars_fallback(std::string_view text, double& out) noexcept {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc{} && result.ptr == text.data() + text.size();
}

}  // namespace

bool parse_double(std::string_view text, double& out) noexcept {
  // Fast path: [-]digits[.digits] with at most 15 significant digits. The
  // mantissa then fits a double exactly and 10^-frac_digits is one of the
  // exactly-representable powers below, so a single divide/multiply is
  // correctly rounded — the same bits std::from_chars produces.
  static constexpr double kPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                      1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
  const char* p = text.data();
  const char* const end = p + text.size();
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  std::uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  const char* int_start = p;
  while (p != end && *p >= '0' && *p <= '9') {
    mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
    ++digits;
    ++p;
  }
  if (p == int_start) return from_chars_fallback(text, out);
  if (p != end && *p == '.') {
    ++p;
    const char* frac_start = p;
    while (p != end && *p >= '0' && *p <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
      ++digits;
      ++frac_digits;
      ++p;
    }
    if (p == frac_start) return from_chars_fallback(text, out);
  }
  if (p != end || digits > 15) return from_chars_fallback(text, out);
  double value = static_cast<double>(mantissa);
  if (frac_digits > 0) value /= kPow10[frac_digits];
  out = negative ? -value : value;
  return true;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Observability

namespace {

/// Per-format ingest instrumentation handles (registered once, then one
/// relaxed atomic op per use — see DESIGN.md "Observability").
struct IngestMetrics {
  obs::Counter& bytes;
  obs::Counter& records;
  obs::Counter& parse_errors;
  obs::Counter& loads;
  obs::Gauge& bytes_per_second;
  obs::Gauge& records_per_second;

  explicit IngestMetrics(const std::string& format)
      : bytes(obs::registry().counter("autosens_ingest_bytes_total{format=\"" + format + "\"}",
                                      "Input bytes consumed by the ingest engine")),
        records(obs::registry().counter(
            "autosens_ingest_records_total{format=\"" + format + "\"}",
            "Records accepted by the ingest engine")),
        parse_errors(obs::registry().counter(
            "autosens_ingest_parse_errors_total{format=\"" + format + "\"}",
            "Lines or frames rejected by the ingest engine")),
        loads(obs::registry().counter("autosens_ingest_loads_total{format=\"" + format + "\"}",
                                      "Completed ingest calls")),
        bytes_per_second(obs::registry().gauge(
            "autosens_ingest_bytes_per_second{format=\"" + format + "\"}",
            "Parse throughput of the most recent ingest")),
        records_per_second(obs::registry().gauge(
            "autosens_ingest_records_per_second{format=\"" + format + "\"}",
            "Record throughput of the most recent ingest")) {}
};

IngestMetrics& metrics_for(std::string_view format) {
  static IngestMetrics csv("csv");
  static IngestMetrics jsonl("jsonl");
  static IngestMetrics binlog("binlog");
  static IngestMetrics logdir("logdir");
  if (format == "csv") return csv;
  if (format == "jsonl") return jsonl;
  if (format == "binlog") return binlog;
  return logdir;
}

}  // namespace

void note_ingest(std::string_view format, const IngestStats& stats) {
  if (!obs::enabled()) return;
  IngestMetrics& handles = metrics_for(format);
  handles.bytes.inc(stats.bytes);
  handles.records.inc(stats.records);
  handles.parse_errors.inc(stats.errors);
  handles.loads.inc();
  if (stats.seconds > 0.0) {
    handles.bytes_per_second.set(static_cast<double>(stats.bytes) / stats.seconds);
    handles.records_per_second.set(static_cast<double>(stats.records) / stats.seconds);
  }
}

}  // namespace autosens::telemetry
