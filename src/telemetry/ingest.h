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
//  * ingest_lines — the chunked parallel line-parse driver. Each chunk
//    parses its lines with std::from_chars over string_view slices into a
//    private ColumnShard (SampleColumns-shaped: one vector per Dataset
//    column) plus a local error list; shards are concatenated IN CHUNK ORDER
//    through Dataset::append_columns, and error line numbers are
//    offset-corrected by a prefix sum of per-chunk line counts. Because
//    lines are atomic and concatenation preserves file order, the resulting
//    Dataset and error list are byte-identical for every thread count (and
//    in fact for every chunking policy).
//
// csv.cpp and jsonl.cpp supply the per-line parsers; binlog.cpp has its own
// frame-parallel zero-copy path (see binlog.h). See DESIGN.md
// "Ingest & file I/O" for the determinism argument and mmap lifetime rules.
#pragma once

#include <cstddef>
#include <cstdint>
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
/// ("csv", "jsonl", "binlog", "logdir").
void note_ingest(std::string_view format, const IngestStats& stats);

/// What a per-line parser did with one line.
enum class LineParse {
  kRecord,  ///< Parsed a record (out-param filled).
  kSkip,    ///< Blank/ignorable line.
  kError,   ///< Malformed; error message filled.
};

namespace detail {

/// Per-chunk parse output: the six Dataset columns plus chunk-local errors.
struct ColumnShard {
  std::vector<std::int64_t> time_ms;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> user_id;
  std::vector<ActionType> action;
  std::vector<UserClass> user_class;
  std::vector<ActionStatus> status;
  std::vector<IngestError> errors;  ///< Line numbers local to the chunk (1-based).
  std::size_t lines = 0;            ///< Total lines the chunk contained.

  void push(const ActionRecord& r) {
    time_ms.push_back(r.time_ms);
    latency_ms.push_back(r.latency_ms);
    user_id.push_back(r.user_id);
    action.push_back(r.action);
    user_class.push_back(r.user_class);
    status.push_back(r.status);
  }
  void reserve(std::size_t n) {
    time_ms.reserve(n);
    latency_ms.reserve(n);
    user_id.reserve(n);
    action.reserve(n);
    user_class.reserve(n);
    status.reserve(n);
  }
  std::size_t size() const noexcept { return time_ms.size(); }
};

/// Concatenate shards in chunk order into `dataset` (bulk column appends)
/// and offset-correct each shard's error line numbers into `errors`.
/// `first_line` is the global 1-based line number of the first chunked line.
void concat_shards(std::vector<ColumnShard>& shards, std::size_t first_line,
                   Dataset& dataset, std::vector<IngestError>& errors);

/// Clinger fast-path double parse: when the value has few enough significant
/// digits that both the mantissa and the power of ten are exactly
/// representable, one multiply/divide gives the correctly-rounded result —
/// bit-identical to std::from_chars, which remains the fallback for
/// everything else (long mantissas, large exponents, inf/nan, hex).
bool parse_double(std::string_view text, double& out) noexcept;

}  // namespace detail

/// Result of a chunked line ingest (before any format-specific wrapping).
struct IngestResult {
  Dataset dataset;
  std::vector<IngestError> errors;
  IngestStats stats;
};

/// The chunked parallel parse driver. `parse_chunk` is invoked as
///   void parse_chunk(std::string_view chunk, detail::ColumnShard& shard)
/// for every newline-aligned chunk of `text` and must append records/errors
/// to the shard (error line numbers 1-based within the chunk) and count
/// every line the chunk contained in shard.lines. Chunk parsers fuse the
/// newline scan into their field scan — one pass over the bytes instead of
/// a memchr('\n') pass followed by a field pass. Records land in file
/// order, then the dataset is time-sorted (stable, so the order is
/// reproducible); errors carry global line numbers starting at
/// `first_line`. Output is identical for every threads value.
template <typename ChunkParser>
IngestResult ingest_chunks(std::string_view text, std::size_t first_line,
                           const IngestOptions& options, const ChunkParser& parse_chunk) {
  IngestResult result;
  const auto bounds = newline_chunk_bounds(text, options.chunk_bytes);
  const std::size_t chunks = bounds.size() - 1;
  std::vector<detail::ColumnShard> shards(chunks);
  core::parallel_for_items(chunks, options.threads, [&](std::size_t c) {
    parse_chunk(text.substr(bounds[c], bounds[c + 1] - bounds[c]), shards[c]);
  });
  detail::concat_shards(shards, first_line, result.dataset, result.errors);
  result.dataset.sort_by_time(options.threads);
  result.stats.bytes = text.size();
  result.stats.records = result.dataset.size();
  result.stats.errors = result.errors.size();
  return result;
}

/// Line-at-a-time wrapper over ingest_chunks. `parse_line` is invoked as
///   LineParse parse_line(std::string_view line, ActionRecord& record,
///                        std::string& error)
/// for every '\n'-delimited line of `text` (terminator excluded; a missing
/// trailing newline still yields the final line). csv.cpp and jsonl.cpp use
/// fused chunk parsers instead; this wrapper remains for formats without
/// one and as the reference the parity tests compare them against.
template <typename LineParser>
IngestResult ingest_lines(std::string_view text, std::size_t first_line,
                          const IngestOptions& options, const LineParser& parse_line) {
  return ingest_chunks(
      text, first_line, options,
      [&parse_line](std::string_view chunk, detail::ColumnShard& shard) {
        // Rough reservation: the schema averages well above 16 bytes per line.
        shard.time_ms.reserve(chunk.size() / 24 + 1);
        std::string_view rest = chunk;
        ActionRecord record;
        std::string error;
        while (!rest.empty()) {
          const std::size_t newline = rest.find('\n');
          const std::string_view line =
              newline == std::string_view::npos ? rest : rest.substr(0, newline);
          rest = newline == std::string_view::npos ? std::string_view{}
                                                   : rest.substr(newline + 1);
          ++shard.lines;
          switch (parse_line(line, record, error)) {
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
      });
}

}  // namespace autosens::telemetry
