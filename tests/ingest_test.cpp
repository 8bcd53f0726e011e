// Tests for the parallel zero-copy ingest engine: parser parity between the
// chunked and scalar paths, determinism across thread counts, text
// normalization (BOM / CRLF / missing trailing newline), the mmap fallback
// for non-regular files, and the bulk column APIs the engine feeds.
#include "telemetry/ingest.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats/rng.h"
#include "telemetry/binlog.h"
#include "telemetry/csv.h"
#include "telemetry/jsonl.h"
#include "telemetry/logdir.h"
#include "reference_codecs.h"

namespace autosens::telemetry {
namespace {

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "record " << i << " differs";
  }
}

/// expect_same_dataset with latencies compared by their bits, so rows with
/// a NaN latency compare too.
void expect_same_bits(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ActionRecord x = a[i];
    ActionRecord y = b[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(x.latency_ms),
              std::bit_cast<std::uint64_t>(y.latency_ms))
        << "record " << i << " latency differs";
    x.latency_ms = y.latency_ms = 0.0;
    ASSERT_EQ(x, y) << "record " << i << " differs";
  }
}

void expect_same_errors(const std::vector<IngestError>& a, const std::vector<IngestError>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].line, b[i].line) << "error " << i;
    EXPECT_EQ(a[i].message, b[i].message) << "error " << i;
  }
}

/// A random mix of valid rows, malformed rows of several shapes, blank
/// lines, and CRLF terminators — the property-test corpus.
std::string random_csv(std::size_t lines, std::uint64_t seed, bool trailing_newline) {
  stats::Random random(seed);
  std::string text = std::string(kCsvHeader) + "\n";
  std::int64_t t = 1'000'000;
  for (std::size_t i = 0; i < lines; ++i) {
    t += static_cast<std::int64_t>(random.uniform_index(5000));
    const std::size_t kind = random.uniform_index(10);
    if (kind == 0) {
      // blank / whitespace-only
      text += random.bernoulli(0.5) ? "" : "   ";
    } else if (kind == 1) {
      text += "not,enough,fields";
    } else if (kind == 2) {
      text += std::to_string(t) + ",abc,SelectMail,10.5,Business,Success";
    } else if (kind == 3) {
      text += std::to_string(t) + ",7,NoSuchAction,10.5,Business,Success";
    } else {
      text += std::to_string(t) + "," + std::to_string(random.uniform_index(100)) +
              ",SelectMail," + std::to_string(50 + random.uniform_index(900)) +
              (random.bernoulli(0.5) ? ".25" : ".5") +
              (random.bernoulli(0.5) ? ",Business," : ",Consumer,") +
              (random.bernoulli(0.9) ? "Success" : "Error");
    }
    if (i + 1 < lines || trailing_newline) {
      text += random.bernoulli(0.3) ? "\r\n" : "\n";
    }
  }
  return text;
}

/// Lines that must leave the CSV fast path, each with a `#` where a time
/// goes: padding, signs, long integers, empty fields, wrong field counts,
/// exotic latencies, a lone CR and CRLF. Drawn at random between
/// writer-shaped lines, so the fast path resumes after every detour.
std::string deviant_csv(std::size_t lines, std::uint64_t seed, bool trailing_newline) {
  static const std::string kShapes[] = {
      " # ,\t7\t, SelectMail ,10.5 ,\tBusiness, Success ",  // spaces and tabs around fields
      "+#,7,SelectMail,10.5,Business,Success",
      "#,+7,SelectMail,10.5,Business,Success",
      "1234567890123456789,7,Search,10.5,Business,Success",  // 19 digits, fits int64
      "9234567890123456789,7,Search,10.5,Business,Success",  // 19 digits, overflows
      "#,12345678901234567890,Search,10.5,Consumer,Error",   // 20 digits, fits uint64
      "#,1234567890123456789,Search,10.5,Consumer,Error",
      "-#,7,SelectMail,10.5,Business,Success",  // a negative time
      "-,7,SelectMail,10.5,Business,Success",
      ",7,SelectMail,10.5,Business,Success",
      "#,,SelectMail,10.5,Business,Success",
      "#,7,,10.5,Business,Success",
      "#,7,SelectMail,,Business,Success",
      "#,7,SelectMail,10.5,,Success",
      "#,7,SelectMail,10.5,Business,",
      "#,7,SelectMail,10.5,Business",                // 5 fields
      "#,7,SelectMail,10.5,Business,Success,extra",  // 7 fields
      "#,7,SelectMail,10.5,Business,Success,",       // 7 fields, the last empty
      "#,7,Search,1e2,Business,Success",
      "#,7,Search,1.5E+02,Consumer,Success",
      "#,7,Search,.5,Consumer,Success",
      "#,7,Search,123.4567890123456789,Consumer,Success",  // 19 significant digits
      "#,7,Search,1234567890123456.5,Consumer,Success",
      "#,7,Search,inf,Consumer,Success",
      "#,7,Search,nan,Consumer,Error",
      "#,7,Search,-inf,Consumer,Error",
      "\r",                                  // a lone CR: a blank line
      "#,7,Search,5,Consumer,Success\r",      // CRLF
      "#,7,Search,5,Consumer,Success \t",
  };
  stats::Random random(seed);
  std::string text = std::string(kCsvHeader) + "\n";
  std::int64_t t = 1'000'000;
  for (std::size_t i = 0; i < lines; ++i) {
    t += static_cast<std::int64_t>(random.uniform_index(5000));
    if (random.bernoulli(0.5)) {
      text += std::to_string(t) + "," + std::to_string(random.uniform_index(100)) +
              ",SwitchFolder," + std::to_string(random.uniform_index(900)) + ".75,Business,Error";
    } else {
      std::string line = kShapes[random.uniform_index(std::size(kShapes))];
      if (const auto at = line.find('#'); at != std::string::npos) {
        line.replace(at, 1, std::to_string(t));
      }
      text += line;
    }
    if (i + 1 < lines || trailing_newline) text += '\n';
  }
  return text;
}

std::string random_jsonl(std::size_t lines, std::uint64_t seed, bool trailing_newline) {
  stats::Random random(seed);
  std::string text;
  std::int64_t t = 1'000'000;
  for (std::size_t i = 0; i < lines; ++i) {
    t += static_cast<std::int64_t>(random.uniform_index(5000));
    const std::size_t kind = random.uniform_index(10);
    if (kind == 0) {
      text += "";
    } else if (kind == 1) {
      text += "{\"time_ms\":" + std::to_string(t) + "}";  // missing fields
    } else if (kind == 2) {
      text += "{\"time_ms\":oops}";
    } else {
      text += "{\"time_ms\":" + std::to_string(t) +
              ",\"user_id\":" + std::to_string(random.uniform_index(100)) +
              ",\"action\":\"Search\",\"latency_ms\":" +
              std::to_string(50 + random.uniform_index(900)) +
              ",\"user_class\":\"Consumer\",\"status\":\"Success\"}";
    }
    if (i + 1 < lines || trailing_newline) {
      text += random.bernoulli(0.3) ? "\r\n" : "\n";
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// Parser parity: the chunked parallel path must agree exactly — records AND
// error lists — with the scalar getline reference, for every thread count,
// even when tiny chunk_bytes forces many chunks.

TEST(IngestParityTest, CsvChunkedMatchesScalarAcrossThreads) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    for (const bool trailing : {true, false}) {
      const std::string text = random_csv(200, seed, trailing);
      std::istringstream in(text);
      const auto reference = read_csv_scalar(in);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        const auto chunked =
            read_csv_buffer(text, {.threads = threads, .chunk_bytes = 64});
        expect_same_dataset(reference.dataset, chunked.dataset);
        expect_same_errors(reference.errors, chunked.errors);
      }
    }
  }
}

TEST(IngestParityTest, JsonlChunkedMatchesScalarAcrossThreads) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    for (const bool trailing : {true, false}) {
      const std::string text = random_jsonl(200, seed, trailing);
      std::istringstream in(text);
      const auto reference = read_jsonl_scalar(in);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        const auto chunked =
            read_jsonl_buffer(text, {.threads = threads, .chunk_bytes = 64});
        expect_same_dataset(reference.dataset, chunked.dataset);
        expect_same_errors(reference.errors, chunked.errors);
      }
    }
  }
}

TEST(IngestParityTest, CsvFastPathDeviationsMatchScalar) {
  for (const std::uint64_t seed : {31u, 32u}) {
    for (const bool trailing : {true, false}) {
      const std::string text = deviant_csv(400, seed, trailing);
      std::istringstream in(text);
      const auto reference = read_csv_scalar(in);
      ASSERT_FALSE(reference.errors.empty());
      for (const std::size_t threads : {1u, 2u, 8u}) {
        for (const std::size_t chunk_bytes : {1u, 7u, 64u, 1u << 20}) {
          SCOPED_TRACE(testing::Message() << "seed " << seed << " trailing " << trailing
                                          << " threads " << threads << " chunk_bytes "
                                          << chunk_bytes);
          const auto chunked =
              read_csv_buffer(text, {.threads = threads, .chunk_bytes = chunk_bytes});
          expect_same_bits(reference.dataset, chunked.dataset);
          expect_same_errors(reference.errors, chunked.errors);
        }
      }
    }
  }
}

TEST(IngestParityTest, ErrorLinesMatchAcrossChunkBoundaries) {
  // A malformed row pinned mid-file: the chunked path must report the same
  // global line number no matter how many chunks precede it.
  std::string text = std::string(kCsvHeader) + "\n";
  for (int i = 0; i < 50; ++i) text += std::to_string(1000 + i) + ",1,Search,5.0,Consumer,Success\n";
  text += "garbage line\n";  // line 52
  for (int i = 0; i < 50; ++i) text += std::to_string(2000 + i) + ",1,Search,5.0,Consumer,Success\n";
  for (const std::size_t chunk_bytes : {16u, 64u, 1u << 20}) {
    const auto result = read_csv_buffer(text, {.threads = 4, .chunk_bytes = chunk_bytes});
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].line, 52u);
    EXPECT_EQ(result.errors[0].message, "expected 6 fields, got 1");
    EXPECT_EQ(result.dataset.size(), 100u);
  }
}

// ---------------------------------------------------------------------------
// Row ranges: one per chunk, sized by its line count and byte count, closed
// up when blank or rejected lines leave holes.

TEST(IngestRowRangeTest, HolesInMiddleChunksCloseUp) {
  // 600 rows in time order; lines 200-399 alternate records with blank and
  // rejected lines, so the middle chunks end short of their ranges.
  std::string text = std::string(kCsvHeader) + "\n";
  std::vector<std::int64_t> times;
  std::vector<std::size_t> error_lines;
  for (std::size_t i = 0; i < 600; ++i) {
    const std::size_t line = i + 2;
    if (i >= 200 && i < 400 && i % 3 == 1) {
      text += "\n";
    } else if (i >= 200 && i < 400 && i % 3 == 2) {
      text += "garbage\n";
      error_lines.push_back(line);
    } else {
      times.push_back(static_cast<std::int64_t>(1000 + i));
      text += std::to_string(times.back()) + ",3,Search," + std::to_string(i) +
              ".5,Consumer,Success\n";
    }
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t chunk_bytes : {64u, 512u, 4096u}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " chunk_bytes "
                                      << chunk_bytes);
      const auto result = read_csv_buffer(text, {.threads = threads, .chunk_bytes = chunk_bytes});
      ASSERT_EQ(result.dataset.size(), times.size());
      EXPECT_GT(result.stats.chunks, 2u);
      EXPECT_GT(result.stats.rows_reserved, result.dataset.size());  // there were holes
      EXPECT_EQ(result.stats.lines, 601u);
      EXPECT_TRUE(result.dataset.is_sorted());
      for (std::size_t r = 0; r < times.size(); ++r) {
        ASSERT_EQ(result.dataset[r].time_ms, times[r]) << "row " << r;
        ASSERT_EQ(result.dataset[r].latency_ms, static_cast<double>(times[r] - 1000) + 0.5);
      }
      ASSERT_EQ(result.errors.size(), error_lines.size());
      for (std::size_t e = 0; e < error_lines.size(); ++e) {
        EXPECT_EQ(result.errors[e].line, error_lines[e]);
        EXPECT_EQ(result.errors[e].message, "expected 6 fields, got 1");
      }
    }
  }
}

TEST(IngestRowRangeTest, BlankLinesReserveNoMoreRowsThanTheBytesHold) {
  // A million newlines are a million lines, but no record fits one byte:
  // a chunk's range is capped by its bytes over the shortest record line.
  const std::size_t newlines = 1'000'000;
  const std::size_t shortest_csv = std::string_view("0,0,Other,0,Business,Error").size();
  const auto csv = read_csv_buffer(std::string(kCsvHeader) + "\n" + std::string(newlines, '\n'),
                                   {.threads = 2});
  EXPECT_TRUE(csv.dataset.empty());
  EXPECT_TRUE(csv.errors.empty());
  EXPECT_EQ(csv.stats.lines, newlines + 1);
  EXPECT_LE(csv.stats.rows_reserved, (newlines + csv.stats.chunks) / (shortest_csv + 1));

  const std::size_t shortest_jsonl =
      std::string_view(R"({"time_ms":0,"user_id":0,"action":"Other","latency_ms":0,)"
                       R"("user_class":"Business","status":"Error"})")
          .size();
  const auto jsonl = read_jsonl_buffer(std::string(newlines, '\n'), {.threads = 2});
  EXPECT_TRUE(jsonl.dataset.empty());
  EXPECT_EQ(jsonl.stats.lines, newlines);
  EXPECT_LE(jsonl.stats.rows_reserved, (newlines + jsonl.stats.chunks) / (shortest_jsonl + 1));
}

TEST(IngestRowRangeTest, ShortestRecordLinesFillTheirRangesExactly) {
  // Every line as short as a record can be: each range is full to the last
  // row, with and without a final newline, at every chunk size.
  const std::string csv_line = "0,0,Other,0,Business,Error";
  const std::string jsonl_line =
      R"({"time_ms":0,"user_id":0,"action":"Other","latency_ms":0,)"
      R"("user_class":"Business","status":"Error"})";
  for (const bool trailing : {true, false}) {
    std::string csv = std::string(kCsvHeader) + "\n";
    std::string jsonl;
    for (std::size_t i = 0; i < 500; ++i) {
      const bool last = i + 1 == 500;
      csv += csv_line + (last && !trailing ? "" : "\n");
      jsonl += jsonl_line + (last && !trailing ? "" : "\n");
    }
    for (const std::size_t chunk_bytes : {1u, 7u, 64u, 1u << 20}) {
      SCOPED_TRACE(testing::Message() << "trailing " << trailing << " chunk_bytes "
                                      << chunk_bytes);
      const auto from_csv = read_csv_buffer(csv, {.threads = 4, .chunk_bytes = chunk_bytes});
      EXPECT_TRUE(from_csv.errors.empty());
      EXPECT_EQ(from_csv.dataset.size(), 500u);
      EXPECT_EQ(from_csv.stats.rows_reserved, 500u);
      const auto from_jsonl =
          read_jsonl_buffer(jsonl, {.threads = 4, .chunk_bytes = chunk_bytes});
      EXPECT_TRUE(from_jsonl.errors.empty());
      EXPECT_EQ(from_jsonl.dataset.size(), 500u);
      EXPECT_EQ(from_jsonl.stats.rows_reserved, 500u);
    }
  }
}

TEST(IngestRowRangeTest, CountLinesCountsEveryNewlineAndAnUnterminatedTail) {
  stats::Random random(51);
  std::string text;
  for (std::size_t i = 0; i < 3000; ++i) {
    text += random.bernoulli(0.3) ? '\n' : static_cast<char>('\x01' + random.uniform_index(250));
  }
  for (std::size_t begin = 0; begin < 40; ++begin) {
    for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 2000u}) {
      const std::string_view chunk = std::string_view(text).substr(begin, size);
      std::size_t want = 0;
      for (const char c : chunk) want += c == '\n';
      if (!chunk.empty() && chunk.back() != '\n') ++want;
      EXPECT_EQ(detail::count_lines(chunk), want) << "begin " << begin << " size " << size;
    }
  }
}

// ---------------------------------------------------------------------------
// Normalization: UTF-8 BOM, CRLF, and a missing trailing newline parse
// identically in the chunked and scalar paths.

TEST(IngestNormalizationTest, CsvUtf8BomBeforeHeader) {
  const std::string text =
      "\xef\xbb\xbf" + std::string(kCsvHeader) + "\n1000,1,Search,5.0,Consumer,Success\n";
  const auto chunked = read_csv_buffer(text);
  ASSERT_TRUE(chunked.errors.empty());
  ASSERT_EQ(chunked.dataset.size(), 1u);
  std::istringstream in(text);
  const auto scalar = read_csv_scalar(in);
  expect_same_dataset(chunked.dataset, scalar.dataset);
}

TEST(IngestNormalizationTest, JsonlUtf8Bom) {
  const std::string text =
      "\xef\xbb\xbf{\"time_ms\":1,\"user_id\":2,\"action\":\"Search\",\"latency_ms\":3.5,"
      "\"user_class\":\"Consumer\",\"status\":\"Success\"}\n";
  const auto chunked = read_jsonl_buffer(text);
  ASSERT_TRUE(chunked.errors.empty());
  ASSERT_EQ(chunked.dataset.size(), 1u);
  std::istringstream in(text);
  const auto scalar = read_jsonl_scalar(in);
  expect_same_dataset(chunked.dataset, scalar.dataset);
}

TEST(IngestNormalizationTest, CrlfLineEndings) {
  const std::string text = std::string(kCsvHeader) +
                           "\r\n1000,1,Search,5.0,Consumer,Success\r\n"
                           "2000,2,SelectMail,6.0,Business,Error\r\n";
  const auto result = read_csv_buffer(text, {.threads = 2, .chunk_bytes = 16});
  ASSERT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), 2u);
  EXPECT_EQ(result.dataset[0].time_ms, 1000);
  EXPECT_EQ(result.dataset[1].status, ActionStatus::kError);
}

TEST(IngestNormalizationTest, MissingTrailingNewline) {
  const std::string csv =
      std::string(kCsvHeader) + "\n1000,1,Search,5.0,Consumer,Success";  // no final \n
  const auto result = read_csv_buffer(csv);
  ASSERT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), 1u);

  const std::string jsonl =
      "{\"time_ms\":1,\"user_id\":2,\"action\":\"Search\",\"latency_ms\":3.5,"
      "\"user_class\":\"Consumer\",\"status\":\"Success\"}";
  const auto jres = read_jsonl_buffer(jsonl);
  ASSERT_TRUE(jres.errors.empty());
  ASSERT_EQ(jres.dataset.size(), 1u);
}

// ---------------------------------------------------------------------------
// Chunk geometry.

TEST(NewlineChunkBoundsTest, BoundsAreNewlineAlignedAndCoverText) {
  std::string text;
  stats::Random random(31);
  for (int i = 0; i < 200; ++i) {
    text += std::string(random.uniform_index(40), 'x');
    text += '\n';
  }
  const auto bounds = newline_chunk_bounds(text, /*chunk_bytes=*/64);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), text.size());
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    ASSERT_LE(bounds[i - 1], bounds[i]);
    if (bounds[i] > 0 && bounds[i] < text.size()) {
      EXPECT_EQ(text[bounds[i] - 1], '\n') << "interior boundary " << i;
    }
  }
}

TEST(NewlineChunkBoundsTest, SingleGiantLineYieldsOneEffectiveChunk) {
  const std::string text(10'000, 'x');  // no newline at all
  const auto bounds = newline_chunk_bounds(text, /*chunk_bytes=*/64);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), text.size());
  // All interior boundaries collapse to text.size(): one chunk does the work.
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_EQ(bounds[i], text.size());
}

// ---------------------------------------------------------------------------
// MappedFile: real mapping for regular files, read() fallback for FIFOs and
// other non-seekable inputs.

TEST(MappedFileTest, RegularFileIsMapped) {
  const std::string path = ::testing::TempDir() + "/autosens_ingest_mapped.csv";
  {
    std::ofstream out(path);
    out << "hello mapped world\n";
  }
  const MappedFile mapped = MappedFile::map(path);
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_EQ(mapped.text(), "hello mapped world\n");
  std::remove(path.c_str());
}

TEST(MappedFileTest, MissingFileThrows) {
  EXPECT_THROW(MappedFile::map("/nonexistent/autosens/nope.csv"), std::runtime_error);
}

TEST(MappedFileTest, FifoFallsBackToRead) {
  const std::string path = ::testing::TempDir() + "/autosens_ingest_fifo";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  const std::string payload =
      std::string(kCsvHeader) + "\n1000,1,Search,5.0,Consumer,Success\n";
  std::thread writer([&] {
    std::ofstream out(path);  // blocks until the reader opens
    out << payload;
  });
  const auto result = read_csv_file(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.dataset[0].time_ms, 1000);
}

TEST(MappedFileTest, FifoIsNotMapped) {
  const std::string path = ::testing::TempDir() + "/autosens_ingest_fifo2";
  std::remove(path.c_str());
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path);
    out << "pipe bytes";
  });
  const MappedFile mapped = MappedFile::map(path);
  writer.join();
  std::remove(path.c_str());
  EXPECT_FALSE(mapped.is_mapped());
  EXPECT_EQ(mapped.text(), "pipe bytes");
}

// ---------------------------------------------------------------------------
// Binlog and logdir determinism across thread counts.

Dataset random_dataset(std::size_t n, std::uint64_t seed) {
  stats::Random random(seed);
  Dataset d;
  std::int64_t t = 1'600'000'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(random.exponential(0.001));
    d.add({.time_ms = t,
           .user_id = 1000 + random.uniform_index(50),
           .latency_ms = random.lognormal(5.5, 0.5),
           .action = static_cast<ActionType>(random.uniform_index(kActionTypeCount)),
           .user_class = static_cast<UserClass>(random.uniform_index(kUserClassCount)),
           .status = random.bernoulli(0.05) ? ActionStatus::kError : ActionStatus::kSuccess});
  }
  return d;
}

TEST(BinlogIngestTest, V2RoundtripIdenticalAcrossThreads) {
  const auto dataset = random_dataset(5000, 41);
  std::stringstream stream;
  write_binlog(stream, dataset, /*batch_size=*/128);  // many frames
  const std::string bytes = stream.str();
  const std::span<const std::uint8_t> view(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto decoded = read_binlog_buffer(view, {.threads = threads});
    expect_same_dataset(dataset, decoded);
  }
}

TEST(BinlogIngestTest, V2LatencyRoundtripsExactly) {
  // ASL2 stores raw double bits; no 10 µs quantization like ASL1.
  Dataset d;
  d.add({.time_ms = 1, .user_id = 1, .latency_ms = 123.456789e-3});
  std::stringstream stream;
  write_binlog(stream, d);
  const auto decoded = read_binlog(stream);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].latency_ms, 123.456789e-3);
}

TEST(BinlogIngestTest, V2RejectsCountMismatch) {
  Dataset d;
  d.add({.time_ms = 1, .user_id = 1, .latency_ms = 2.0});
  std::stringstream stream;
  write_binlog(stream, d);
  std::string bytes = stream.str();
  bytes[4] += 1;  // bump the frame length so blocks no longer fit the count
  std::istringstream in(bytes);
  EXPECT_THROW(read_binlog(in), std::runtime_error);
}

TEST(LogdirIngestTest, ShardedReadIdenticalAcrossThreads) {
  const auto dataset = random_dataset(3000, 42);
  const std::string dir = ::testing::TempDir() + "/autosens_ingest_logdir";
  std::filesystem::remove_all(dir);
  const auto paths = write_sharded(dir, dataset, /*records_per_shard=*/500);
  ASSERT_EQ(paths.size(), 6u);
  const auto reference = read_sharded(dir, {.threads = 1});
  expect_same_dataset(dataset, reference);
  for (const std::size_t threads : {2u, 8u}) {
    const auto merged = read_sharded(dir, {.threads = threads});
    expect_same_dataset(reference, merged);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The bulk column APIs the engine feeds.

TEST(BulkColumnsTest, AppendColumnsValidatesLengths) {
  Dataset d;
  const std::vector<std::int64_t> times = {1, 2};
  const std::vector<double> lat = {1.0};  // wrong length
  const std::vector<std::uint64_t> users = {1, 2};
  const std::vector<ActionType> actions(2, ActionType::kSearch);
  const std::vector<UserClass> classes(2, UserClass::kConsumer);
  const std::vector<ActionStatus> statuses(2, ActionStatus::kSuccess);
  EXPECT_THROW(d.append_columns(times, lat, users, actions, classes, statuses),
               std::invalid_argument);
}

TEST(BulkColumnsTest, AppendColumnsPreservesSortednessWhenAscending) {
  Dataset d;
  const std::vector<std::int64_t> times = {1, 2, 3};
  const std::vector<double> lat = {1.0, 2.0, 3.0};
  const std::vector<std::uint64_t> users = {1, 2, 3};
  const std::vector<ActionType> actions(3, ActionType::kSearch);
  const std::vector<UserClass> classes(3, UserClass::kConsumer);
  const std::vector<ActionStatus> statuses(3, ActionStatus::kSuccess);
  d.append_columns(times, lat, users, actions, classes, statuses);
  EXPECT_TRUE(d.is_sorted());
  ASSERT_EQ(d.size(), 3u);
  // Appending an out-of-order slice drops the flag.
  const std::vector<std::int64_t> earlier = {0};
  const std::vector<double> lat1 = {9.0};
  const std::vector<std::uint64_t> users1 = {9};
  const std::vector<ActionType> actions1(1, ActionType::kSearch);
  const std::vector<UserClass> classes1(1, UserClass::kConsumer);
  const std::vector<ActionStatus> statuses1(1, ActionStatus::kSuccess);
  d.append_columns(earlier, lat1, users1, actions1, classes1, statuses1);
  EXPECT_FALSE(d.is_sorted());
}

TEST(BulkColumnsTest, ResizeForOverwriteFlagsAndSorts) {
  // Rows written out of order: flagged unsorted, then stably sorted.
  Dataset d;
  MutableRowColumns rows = d.resize_for_overwrite(3, /*ascending=*/false);
  const std::int64_t times[] = {3, 1, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    rows.times[i] = times[i];
    rows.latencies[i] = static_cast<double>(i);
    rows.user_ids[i] = i;
    rows.actions[i] = ActionType::kSearch;
    rows.user_classes[i] = UserClass::kConsumer;
    rows.statuses[i] = ActionStatus::kSuccess;
  }
  EXPECT_EQ(d.size(), 3u);
  EXPECT_FALSE(d.is_sorted());
  d.sort_by_time();
  EXPECT_TRUE(d.is_sorted());
  EXPECT_EQ(d[0].time_ms, 1);
  EXPECT_EQ(d[1].latency_ms, 0.0);  // equal times keep their order
  EXPECT_EQ(d[2].latency_ms, 2.0);
  // Ascending rows under the `false` flag: sort_by_time only confirms it.
  rows = d.resize_for_overwrite(2, /*ascending=*/false);
  rows.times[0] = 5;
  rows.times[1] = 6;
  EXPECT_FALSE(d.is_sorted());
  d.sort_by_time();
  EXPECT_TRUE(d.is_sorted());
  EXPECT_EQ(d.times()[1], 6);
  // Replacing the contents drops the old rows; one row is always sorted.
  EXPECT_TRUE(d.resize_for_overwrite(1, /*ascending=*/false).times.size() == 1 && d.is_sorted());
  EXPECT_TRUE(d.resize_for_overwrite(0, /*ascending=*/false).times.empty() && d.empty());
}

}  // namespace
}  // namespace autosens::telemetry
