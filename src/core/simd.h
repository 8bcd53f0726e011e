// Runtime-dispatched latency binning: the one per-row vector kernel.
//
// Dispatch mirrors the PCLMULQDQ CRC pattern in telemetry/binlog.cpp:
// `__builtin_cpu_supports` picks an `__attribute__((target("avx2")))` variant
// at runtime, the scalar fallback is always compiled (and always tested), and
// nothing here requires -mavx2 on the base build. Only `bin_indices` has a
// vector twin: it is the per-row kernel of the estimator core's fill, and a
// Release perfbench A/B showed it is the only one whose AVX2 path beats
// scalar end to end (DESIGN.md §6d). Everything else runs on bin-sized arrays.
//
// The determinism contract (DESIGN.md §6d): every function here produces
// BIT-IDENTICAL results on the scalar and AVX2 paths. Three rules make that
// hold:
//
//  1. Bin selection uses the exact same arithmetic in both paths — one
//     correctly-rounded division per element (`vdivpd` == `divsd`), never a
//     reciprocal multiply, so boundary values land in the same bin.
//  2. Fills add into bins in element order: the vector path only computes
//     the indices, a block at a time.
//  3. Weight totals use the fixed 4-lane interleaved reduction
//     (sum_interleaved), not a serial left fold.
//
// Level selection: AVX2 when the CPU supports it, unless the
// AUTOSENS_FORCE_SCALAR environment variable (1/true/yes/on) or a test
// override pins the scalar path.  The selected level is published once as
// the `autosens_simd_level` gauge and a debug log line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace autosens::core::simd {

/// Dispatch level of the kernel implementations. Values are stable (they are
/// exported through the `autosens_simd_level` gauge): 0 = scalar, 2 = AVX2.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 2,
};

std::string_view to_string(Level level) noexcept;

/// The level every kernel below dispatches on. Detection (CPU features +
/// AUTOSENS_FORCE_SCALAR) runs once; a test override takes precedence.
Level active_level() noexcept;

/// CPU-detected level, ignoring the environment knob and test overrides.
Level detected_level() noexcept;

/// Test hook: pin the dispatch level (std::nullopt restores detection and
/// the environment knob). Takes effect on the next kernel call.
void set_level_override(std::optional<Level> level) noexcept;

/// (Re-)publish the active level through obs: sets the `autosens_simd_level`
/// gauge and emits one `simd.dispatch` debug log line. Called automatically
/// on first detection; call again after obs::set_enabled(true) to make the
/// gauge visible in a later snapshot.
void publish_level();

// ---------------------------------------------------------------------------
// Histogram binning. All fills share Histogram::bin_index semantics:
// offset = (v - lo) / width; NaN and offsets <= 0 clamp to bin 0, offsets at
// or beyond the upper edge clamp to the last bin. Bin counts must be >= 1
// and < 2^31.

/// Scalar reference bin index — the single definition of the binning
/// semantics, shared by bin_indices and by stats::Histogram::bin_index.
/// NaN and non-positive offsets return 0 (the cast of a NaN or huge offset
/// would otherwise be UB); offsets at or beyond the upper edge return
/// counts_size - 1. Requires counts_size >= 1.
inline std::size_t bin_index_scalar(double value, double lo, double width,
                                    std::size_t counts_size) noexcept {
  const double offset = (value - lo) / width;
  if (!(offset > 0.0)) return 0;  // negatives and NaN
  if (offset >= static_cast<double>(counts_size)) return counts_size - 1;
  return static_cast<std::size_t>(offset);
}

/// Clamped bin index of each value (identical to Histogram::bin_index);
/// `out.size() >= values.size()`. The one dispatched kernel.
void bin_indices(std::span<const double> values, double lo, double width,
                 std::size_t counts_size, std::span<std::uint32_t> out) noexcept;

/// counts[bin(v)] += 1.0 for every value.
void histogram_fill(std::span<const double> values, double lo, double width,
                    std::span<double> counts) noexcept;

/// counts[bin(v)] += weight for every value (constant weight).
void histogram_fill_const(std::span<const double> values, double weight, double lo,
                          double width, std::span<double> counts) noexcept;

/// counts[bin(values[i])] += weights[i]. Returns sum_interleaved(weights),
/// which can differ from an elementwise left fold in the last ulp. Spans
/// must be the same length.
double histogram_fill_weighted(std::span<const double> values,
                               std::span<const double> weights, double lo,
                               double width, std::span<double> counts) noexcept;

/// Sum with a fixed 4-lane interleaved accumulation: lane k sums elements
/// k, k+4, k+8, ...; lanes fold ((l0+l1)+l2)+l3, then the tail (< 4
/// elements) adds serially. Differs from a plain serial sum.
double sum_interleaved(std::span<const double> values) noexcept;

}  // namespace autosens::core::simd
