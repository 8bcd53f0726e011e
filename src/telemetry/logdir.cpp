#include "telemetry/logdir.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/parallel.h"
#include "obs/trace.h"
#include "telemetry/binlog.h"

namespace autosens::telemetry {

std::string shard_name(std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof name, "autosens-%05zu.bin", index);
  return name;
}

std::vector<std::string> write_sharded(const std::string& directory, const Dataset& dataset,
                                       std::size_t records_per_shard) {
  if (records_per_shard == 0) {
    throw std::invalid_argument("write_sharded: records_per_shard must be nonzero");
  }
  std::filesystem::create_directories(directory);
  std::vector<std::string> paths;
  std::size_t shard = 0;
  for (std::size_t start = 0; start < dataset.size() || shard == 0;
       start += records_per_shard, ++shard) {
    const std::size_t count = std::min(records_per_shard, dataset.size() - start);
    Dataset chunk;
    chunk.append_columns(dataset.times().subspan(start, count),
                         dataset.latencies().subspan(start, count),
                         dataset.user_ids().subspan(start, count),
                         dataset.actions().subspan(start, count),
                         dataset.user_classes().subspan(start, count),
                         dataset.statuses().subspan(start, count));
    const auto path = (std::filesystem::path(directory) / shard_name(shard)).string();
    write_binlog_file(path, chunk);
    paths.push_back(path);
    if (dataset.empty()) break;  // wrote one empty shard as a marker
  }
  return paths;
}

Dataset read_sharded(const std::string& directory, const IngestOptions& options) {
  if (!std::filesystem::is_directory(directory)) {
    throw std::runtime_error("read_sharded: not a directory: " + directory);
  }
  obs::Span span("ingest_logdir");
  span.attr("path", directory);
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  const auto start = std::chrono::steady_clock::now();
  // One worker per shard; each shard decodes through the binlog zero-copy
  // path (its nested parallel region runs inline inside the worker). Shard
  // results and the merge order depend only on the sorted path list.
  std::vector<Dataset> shards(paths.size());
  std::vector<std::size_t> shard_bytes(paths.size(), 0);
  core::parallel_for_items(paths.size(), options.threads, [&](std::size_t i) {
    const MappedFile input = MappedFile::map(paths[i]);
    shard_bytes[i] = input.size();
    shards[i] = read_binlog_buffer(input.bytes(), options);
  });

  Dataset merged;
  for (const auto& shard : shards) {
    merged.append_columns(shard.times(), shard.latencies(), shard.user_ids(), shard.actions(),
                          shard.user_classes(), shard.statuses());
  }
  merged.sort_by_time(options.threads);

  std::size_t total_bytes = 0;
  for (const std::size_t b : shard_bytes) total_bytes += b;
  const IngestStats stats{
      .bytes = total_bytes,
      .records = merged.size(),
      .errors = 0,
      .seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
      .mapped = true};
  note_ingest("logdir", stats);
  span.attr("shards", static_cast<std::int64_t>(paths.size()));
  span.attr("records", static_cast<std::int64_t>(stats.records));
  span.attr("bytes", static_cast<std::int64_t>(stats.bytes));
  return merged;
}

}  // namespace autosens::telemetry
