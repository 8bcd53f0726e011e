// Parallel zero-copy ingest engine for the telemetry readers.
//
// The pieces, bottom to top:
//
//  * MappedFile — read-only byte source for a whole input. Regular files are
//    memory-mapped (mmap, PROT_READ/MAP_PRIVATE, MADV_SEQUENTIAL); pipes,
//    FIFOs, and other non-mappable inputs fall back to a read-whole-stream
//    buffer with the same interface. The view stays valid for the lifetime
//    of the MappedFile object and parsers slice std::string_views straight
//    out of it — no per-line copies anywhere on the hot path.
//
//  * newline_chunk_bounds — splits a text buffer into newline-aligned chunks
//    on the same fixed-grid policy as core::make_chunk_grid: the boundaries
//    are a function of the byte count alone, never of the thread count, so
//    parallel parses are deterministic under any scheduling.
//
//  * ingest_chunks — the parallel text-parse driver, three passes over that
//    chunk grid on the pool. (1) Count each chunk's lines, a 64-bit word of
//    bytes at a time. (2) Size the dataset's columns once, unzeroed, and give
//    every chunk its own row range: one row per line, capped by how many
//    records of the format's shortest line the chunk's bytes could hold.
//    Each chunk parses straight into its range. (3) Only when blank or
//    rejected lines left holes at the ends of ranges, move the ranges down
//    in chunk order and trim the columns. Rows land in file order, error
//    line numbers are offset by a prefix sum of per-chunk line counts, and
//    Dataset::sort_by_time settles the order, so the Dataset and error list
//    are byte-identical for every thread count (and every chunking policy).
//
// csv.cpp and jsonl.cpp supply the chunk parsers; binlog.cpp has its own
// frame-parallel path onto the same kind of row ranges (see binlog.h). See
// DESIGN.md "Ingest & file I/O" for the determinism argument and mmap
// lifetime rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/parallel.h"
#include "telemetry/dataset.h"

namespace autosens::telemetry {

/// Tuning knobs for a parallel ingest. The defaults are right for files;
/// tests shrink chunk_bytes to exercise many chunks on small inputs.
struct IngestOptions {
  /// Worker threads for the chunk parse: 0 = all hardware threads, 1 =
  /// serial. The parsed output is identical for every value.
  std::size_t threads = 0;
  /// Minimum bytes per parse chunk before newline alignment. Part of the
  /// fixed chunk-grid policy; the parsed output does not depend on it.
  std::size_t chunk_bytes = 1u << 20;
};

/// One rejected input line (1-based line number in the whole input).
struct IngestError {
  std::size_t line = 0;
  std::string message;

  friend bool operator==(const IngestError&, const IngestError&) = default;
};

/// Throughput accounting for one ingest, also mirrored into the obs
/// registry by note_ingest().
struct IngestStats {
  std::size_t bytes = 0;    ///< Input bytes consumed.
  std::size_t records = 0;  ///< Records accepted.
  std::size_t errors = 0;   ///< Lines / frames rejected.
  double seconds = 0.0;     ///< Wall-clock parse time.
  bool mapped = false;      ///< True when the input was mmap-backed.
  std::size_t lines = 0;    ///< Text lines counted (text formats only).
  std::size_t chunks = 0;   ///< Parse chunks of the fixed grid (text formats only).
  /// Rows the columns were sized for before compaction (text formats only):
  /// at most one per line, and never more than the bytes could hold as
  /// records of the format's shortest line.
  std::size_t rows_reserved = 0;
};

/// Read-only view over a whole input: mmap for regular files, an owned
/// buffer for everything else. Movable, not copyable; the text()/bytes()
/// views are valid until destruction/move.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Map `path`. Regular non-empty files are mmap'd; anything else readable
  /// (FIFOs, /proc files, ...) is slurped into a fallback buffer. Throws
  /// std::runtime_error when the path cannot be opened or read.
  static MappedFile map(const std::string& path);
  /// Slurp an already-open stream (the std::istream reader entry points).
  static MappedFile read_stream(std::istream& in);

  std::string_view text() const noexcept {
    return {static_cast<const char*>(data_), size_};
  }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }
  std::size_t size() const noexcept { return size_; }
  /// True when backed by an actual memory mapping (vs the stream fallback).
  bool is_mapped() const noexcept { return map_base_ != nullptr; }

 private:
  const void* data_ = "";       ///< Never null, so text() is always valid.
  std::size_t size_ = 0;
  void* map_base_ = nullptr;    ///< mmap base when mapped, else nullptr.
  std::size_t map_length_ = 0;
  std::vector<char> buffer_;    ///< Fallback storage when not mapped.

  void reset() noexcept;
};

/// Newline-aligned chunk boundaries over `text`: bounds[c]..bounds[c+1] is
/// chunk c, bounds.front() == 0, bounds.back() == text.size(), and every
/// interior boundary sits just after a '\n'. The underlying grid is a
/// function of text.size() and the policy knobs only (fixed-grid
/// determinism); chunks can be empty when a single line spans several grid
/// cells. Always returns at least one chunk.
std::vector<std::size_t> newline_chunk_bounds(
    std::string_view text, std::size_t chunk_bytes,
    std::size_t max_chunks = core::kDefaultMaxChunks);

/// Strip a UTF-8 byte-order mark, if present, from the front of `text`.
std::string_view strip_utf8_bom(std::string_view text) noexcept;

/// Mirror one finished ingest into the obs registry: per-format
/// bytes/records/parse-error counters plus bytes-per-second and
/// records-per-second gauges. `format` must be a string literal
/// ("csv", "jsonl", "binlog").
void note_ingest(std::string_view format, const IngestStats& stats);

/// What a per-line parser did with one line.
enum class LineParse {
  kRecord,  ///< Parsed a record (out-param filled).
  kSkip,    ///< Blank/ignorable line.
  kError,   ///< Malformed; error message filled.
};

/// Result of a chunked line ingest (before any format-specific wrapping).
struct IngestResult {
  Dataset dataset;
  std::vector<IngestError> errors;
  IngestStats stats;
};

namespace detail {

/// Where one chunk parser writes: the first row of its range in each of
/// the six columns, and how many rows the range holds. Parsers copy the
/// pointers into locals for their hot loop, so the stores of a row never
/// make the compiler reload them.
struct RowRange {
  std::int64_t* times = nullptr;
  double* latencies = nullptr;
  std::uint64_t* user_ids = nullptr;
  ActionType* actions = nullptr;
  UserClass* user_classes = nullptr;
  ActionStatus* statuses = nullptr;
  std::size_t capacity = 0;
};

/// Throws std::logic_error: a chunk parser met more records than its
/// range holds, which the sizing rules out unless a record line can be
/// shorter than the format's declared minimum. Parsers check before every
/// write, so such a bug throws instead of writing past the range.
[[noreturn]] void throw_range_full();

/// Rows [first, first + capacity) of `columns`.
RowRange row_range(const MutableRowColumns& columns, std::size_t first,
                   std::size_t capacity) noexcept;

/// The (up to) eight bytes at `p`, byte 0 in the low bits (the project
/// builds for little-endian hosts only; binlog.cpp asserts it). A tail
/// shorter than eight bytes before `end` is copied into a zeroed word, so no
/// read goes past `end`; the zero padding matches no delimiter this engine
/// scans for.
inline std::uint64_t load_word(const char* p, const char* end) noexcept {
  std::uint64_t word = 0;
  if (end - p >= 8) {
    std::memcpy(&word, p, 8);
  } else {
    std::memcpy(&word, p, static_cast<std::size_t>(end - p));
  }
  return word;
}

/// 0x80 in every byte of `word` that equals `byte`, 0 in every other one —
/// exact, no false positives from borrows (SWAR: a 64-bit word used as a
/// vector of eight bytes).
inline std::uint64_t byte_mask(std::uint64_t word, char byte) noexcept {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
  const std::uint64_t x = word ^ (0x0101010101010101ull * static_cast<std::uint8_t>(byte));
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Lines in a newline-aligned chunk: its '\n' bytes, plus one for a final
/// line without a terminator. Counts a word at a time.
std::size_t count_lines(std::string_view chunk) noexcept;

/// Clinger fast-path double parse: when the value has few enough significant
/// digits that both the mantissa and the power of ten are exactly
/// representable, one multiply/divide gives the correctly-rounded result —
/// bit-identical to std::from_chars, which remains the fallback for
/// everything else (long mantissas, large exponents, inf/nan, hex).
bool parse_double(std::string_view text, double& out) noexcept;

/// What the three passes of ingest_chunks know about one chunk.
struct ChunkRows {
  std::size_t lines = 0;             ///< Lines the chunk holds (pass 1).
  std::size_t first_row = 0;         ///< First row of its range (pass 2).
  std::size_t capacity = 0;          ///< Rows its range holds (pass 2).
  std::size_t rows = 0;              ///< Rows its parser wrote (pass 2).
  std::vector<IngestError> errors;   ///< Chunk-local line numbers (1-based).
};

/// The row ranges of one ingest: one entry per chunk, and the columns the
/// ranges index.
struct ChunkPlan {
  std::vector<ChunkRows> chunks;
  MutableRowColumns columns;
};

/// Pass 1 and the sizing of pass 2: count every chunk's lines on the pool,
/// give each chunk min(lines, (bytes + 1) / (min_record_bytes + 1)) rows,
/// and size `dataset` for all of them, unzeroed and flagged unsorted.
ChunkPlan plan_chunk_rows(std::string_view text, std::span<const std::size_t> bounds,
                          std::size_t min_record_bytes, std::size_t threads,
                          Dataset& dataset);

/// Pass 3 and the rest: close the holes that blank and rejected lines left
/// (moving the ranges down in chunk order, then trimming the columns),
/// gather the errors with global line numbers from `first_line`, sort the
/// dataset by time and fill the stats.
void finish_chunk_rows(ChunkPlan& plan, std::size_t first_line, std::size_t threads,
                       IngestResult& result);

}  // namespace detail

/// The chunked parallel parse driver. `parse_chunk` is invoked as
///   std::size_t parse_chunk(std::string_view chunk, const detail::RowRange& rows,
///                           std::vector<IngestError>& errors)
/// for every newline-aligned chunk of `text`. It writes the chunk's records
/// to rows 0, 1, ... of `rows` in line order and returns how many it wrote;
/// it appends each rejected line to `errors` with its 1-based line number
/// within the chunk, and calls detail::throw_range_full() rather than write
/// past rows.capacity. Every record line of the format must be at least
/// `min_record_bytes` long (terminator excluded): with one record per line,
/// that is what bounds a chunk's range. Records land in file
/// order, then the dataset is time-sorted (stable, so the order is
/// reproducible); errors carry global line numbers starting at
/// `first_line`. The stats count records, errors, lines, chunks and
/// reserved rows; the caller fills in bytes and timing. Output is
/// identical for every threads value.
template <typename ChunkParser>
IngestResult ingest_chunks(std::string_view text, std::size_t first_line,
                           std::size_t min_record_bytes, const IngestOptions& options,
                           const ChunkParser& parse_chunk) {
  IngestResult result;
  const auto bounds = newline_chunk_bounds(text, options.chunk_bytes);
  detail::ChunkPlan plan = detail::plan_chunk_rows(text, bounds, min_record_bytes,
                                                   options.threads, result.dataset);
  core::parallel_for_items(plan.chunks.size(), options.threads, [&](std::size_t c) {
    detail::ChunkRows& chunk = plan.chunks[c];
    chunk.rows = parse_chunk(text.substr(bounds[c], bounds[c + 1] - bounds[c]),
                             detail::row_range(plan.columns, chunk.first_row, chunk.capacity),
                             chunk.errors);
  });
  detail::finish_chunk_rows(plan, first_line, options.threads, result);
  return result;
}

}  // namespace autosens::telemetry
