// Configuration of the AutoSens analysis. Defaults follow the paper: 10 ms
// latency bins (§2.3), Savitzky–Golay smoothing with window 101 and degree 3
// (§2.3), a 300 ms reference latency (§3.2), and 1-hour α-normalization slots
// (§2.4.1) with multiple reference slots averaged.
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/savitzky_golay.h"
#include "telemetry/clock.h"

namespace autosens::core {

/// How the unbiased distribution U is estimated (§2.2).
enum class UnbiasedMethod {
  /// The paper's procedure: repeatedly draw a uniformly random time and take
  /// the nearest latency sample (ties at random).
  kMonteCarlo,
  /// The exact expectation of the same procedure: each sample weighted by
  /// its Voronoi cell (fraction of time it is the nearest sample).
  /// Deterministic and cheaper; the default.
  kVoronoi,
};

struct AutoSensOptions {
  /// Latency histogram geometry. Bins cover [0, max_latency_ms); the first
  /// and last (overflow) bins are excluded from preference estimation.
  double bin_width_ms = 10.0;
  double max_latency_ms = 3000.0;

  /// Latency whose preference is the normalization reference (§2.3, §3.2).
  double reference_latency_ms = 300.0;

  stats::SavitzkyGolayOptions smoothing{.window = 101, .degree = 3};

  UnbiasedMethod unbiased_method = UnbiasedMethod::kVoronoi;
  /// Draw count for kMonteCarlo.
  std::size_t unbiased_draws = 200'000;
  std::uint64_t seed = 7;  ///< Seed for the Monte-Carlo draws.

  /// Support guards: a bin contributes to the ratio only if the biased count
  /// and the unbiased probability mass clear these thresholds; a bin with no
  /// unbiased mass never does. Guarded-out interior bins are linearly
  /// interpolated before smoothing. Negative or NaN guards are rejected.
  double min_biased_count = 5.0;
  double min_unbiased_mass = 1e-5;

  /// Time-confounder normalization (§2.4.1).
  bool normalize_time_confounder = true;
  std::int64_t alpha_slot_ms = telemetry::kMillisPerHour;
  /// Coarser latency bins for α estimation: per-slot data is ~1/1000th of
  /// the pooled data, so 10 ms bins would be empty almost everywhere.
  double alpha_bin_width_ms = 100.0;
  /// Number of (busiest) reference slots averaged, per the paper's "pick
  /// multiple references in turn and average".
  std::size_t alpha_reference_slots = 8;
  /// Slots need at least this many records to act as an α reference.
  std::size_t alpha_min_slot_records = 50;

  /// Worker threads for the parallel execution layer: 0 = all hardware
  /// threads, 1 = serial. Every analysis output is byte-identical for any
  /// value — work is split over a fixed chunk grid with partials merged in
  /// chunk order and per-chunk counter-seeded RNG substreams (see DESIGN.md
  /// "Threading model & determinism").
  std::size_t threads = 0;
};

}  // namespace autosens::core
