#include "telemetry/select.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "core/parallel.h"

namespace autosens::telemetry {
namespace {

constexpr std::size_t kWordBits = 64;
constexpr std::size_t kChunkWords = kSelectChunkRows / kWordBits;
static_assert(kSelectChunkRows % kWordBits == 0);

}  // namespace

ValidatedDataset select_rows(const Dataset& input, const RowSelector& selector,
                             std::size_t threads) {
  const RowColumns rows = input.row_columns();
  const std::size_t n = rows.size();
  // The grid runs over mask words, so a chunk boundary never splits a word.
  const std::size_t words = (n + kWordBits - 1) / kWordBits;
  const core::ChunkGrid grid = core::make_chunk_grid(words, kChunkWords);
  std::vector<std::uint64_t> mask(words);
  std::vector<std::size_t> offsets(grid.chunks + 1, 0);
  std::vector<ValidationReport> reports(grid.chunks);

  // Pass 1: verdicts, kept counts and reports per chunk.
  core::parallel_for(words, threads, kChunkWords,
                     [&](std::size_t word_begin, std::size_t word_end, std::size_t chunk) {
                       const std::size_t begin = word_begin * kWordBits;
                       const std::size_t end = std::min(n, word_end * kWordBits);
                       RowSelector local = selector;
                       local.reset_report();
                       std::uint64_t* out = mask.data() + word_begin;
                       std::uint64_t word = 0;
                       std::size_t kept = 0;
                       local.for_each_row(rows.slice(begin, end - begin),
                                          [&](std::size_t i, bool keep) {
                                            word |= std::uint64_t{keep} << (i % kWordBits);
                                            kept += keep ? 1 : 0;
                                            if (i % kWordBits == kWordBits - 1) {
                                              out[i / kWordBits] = word;
                                              word = 0;
                                            }
                                          });
                       // Only the last chunk can end inside a word.
                       if ((end - begin) % kWordBits != 0) out[(end - begin) / kWordBits] = word;
                       offsets[chunk + 1] = kept;
                       reports[chunk] = local.report();
                     });

  ValidatedDataset result;
  for (std::size_t c = 0; c < grid.chunks; ++c) {
    offsets[c + 1] += offsets[c];
    result.report.merge(reports[c]);
  }

  // Pass 2: each chunk copies its kept rows into [offsets[c], offsets[c+1]),
  // so every output page is first touched by the worker that fills it.
  const MutableRowColumns out =
      result.dataset.resize_for_overwrite(offsets[grid.chunks], input.is_sorted());
  core::parallel_for(words, threads, kChunkWords,
                     [&](std::size_t word_begin, std::size_t word_end, std::size_t chunk) {
                       std::size_t o = offsets[chunk];
                       for (std::size_t w = word_begin; w < word_end; ++w) {
                         const std::size_t base = w * kWordBits;
                         for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
                           const std::size_t i =
                               base + static_cast<std::size_t>(std::countr_zero(bits));
                           out.times[o] = rows.times[i];
                           out.latencies[o] = rows.latencies[i];
                           out.user_ids[o] = rows.user_ids[i];
                           out.actions[o] = rows.actions[i];
                           out.user_classes[o] = rows.user_classes[i];
                           out.statuses[o] = rows.statuses[i];
                           ++o;
                         }
                       }
                     });
  return result;
}

Dataset Dataset::filtered(const RecordFilter& filter, std::size_t threads) const {
  Dataset out = select_rows(*this, RowSelector(filter), threads).dataset;
  // Kept rows of a sorted dataset ascend; of an unsorted one, they may.
  if (!out.sorted_) out.sorted_ = std::is_sorted(out.time_ms_.begin(), out.time_ms_.end());
  return out;
}

}  // namespace autosens::telemetry
