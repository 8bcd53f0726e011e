#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define AUTOSENS_SIMD_X86 1
#endif

#include "obs/log.h"
#include "obs/metrics.h"

namespace autosens::core::simd {
namespace {

// bin_index_scalar (simd.h) is the reference the vector binning below must
// match bit-for-bit.

void scalar_bin_indices(const double* values, std::size_t n, double lo, double width,
                        std::size_t bins, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(bin_index_scalar(values[i], lo, width, bins));
  }
}

#ifdef AUTOSENS_SIMD_X86

/// Clamped bin indices of 4 values; mirrors bin_index_scalar exactly: one
/// correctly-rounded division, NaN/negative offsets -> 0, >= bins -> bins-1.
__attribute__((target("avx2"), always_inline)) inline __m128i bin_index4(
    __m256d v, __m256d lo, __m256d width, __m256d bins_d, __m256d bins_m1_d) noexcept {
  __m256d off = _mm256_div_pd(_mm256_sub_pd(v, lo), width);
  // offset > 0 is false for NaN and non-positive offsets; AND with the mask
  // zeroes those lanes (bin 0).
  const __m256d gt0 = _mm256_cmp_pd(off, _mm256_setzero_pd(), _CMP_GT_OQ);
  off = _mm256_and_pd(off, gt0);
  const __m256d overflow = _mm256_cmp_pd(off, bins_d, _CMP_GE_OQ);
  off = _mm256_blendv_pd(off, bins_m1_d, overflow);
  return _mm256_cvttpd_epi32(off);  // truncate == floor for non-negative
}

__attribute__((target("avx2"))) void avx2_bin_indices(
    const double* values, std::size_t n, double lo, double width, std::size_t bins,
    std::uint32_t* out) noexcept {
  const __m256d lo_v = _mm256_set1_pd(lo);
  const __m256d w_v = _mm256_set1_pd(width);
  const __m256d bins_v = _mm256_set1_pd(static_cast<double>(bins));
  const __m256d bins_m1_v = _mm256_set1_pd(static_cast<double>(bins - 1));
  const std::size_t m = n & ~std::size_t{3};
  for (std::size_t i = 0; i < m; i += 4) {
    const __m128i idx =
        bin_index4(_mm256_loadu_pd(values + i), lo_v, w_v, bins_v, bins_m1_v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), idx);
  }
  scalar_bin_indices(values + m, n - m, lo, width, bins, out + m);
}

#endif  // AUTOSENS_SIMD_X86

/// Bin-index buffer size of the fills: big enough to amortize the vector
/// pass, small enough to stay in L1.
constexpr std::size_t kIndexBlock = 1024;

/// The one fill shape: bin indices a block at a time through the dispatched
/// kernel, then `add(i, bin)` for every element in element order.
template <typename Add>
void fill_blocked(std::span<const double> values, double lo, double width,
                  std::size_t bins, Add add) noexcept {
  std::uint32_t idx[kIndexBlock];
  for (std::size_t offset = 0; offset < values.size(); offset += kIndexBlock) {
    const std::size_t m = std::min(kIndexBlock, values.size() - offset);
    bin_indices(values.subspan(offset, m), lo, width, bins, std::span(idx, m));
    for (std::size_t i = 0; i < m; ++i) add(offset + i, idx[i]);
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing.

bool env_force_scalar() noexcept {
  const char* value = std::getenv("AUTOSENS_FORCE_SCALAR");
  if (value == nullptr) return false;
  const std::string_view v(value);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

/// Test override: -1 = none, otherwise a Level value.
std::atomic<int> g_level_override{-1};

void publish(Level level) {
  obs::registry()
      .gauge("autosens_simd_level",
             "Active SIMD dispatch level (0 = scalar, 2 = AVX2)")
      .set(static_cast<double>(static_cast<int>(level)));
  obs::log(obs::LogLevel::kDebug, "simd.dispatch",
           {{"level", to_string(level)}, {"forced_scalar", env_force_scalar()}});
}

/// Bin counts must fit an int32 lane for the vector conversion.
constexpr std::size_t kMaxVectorBins = (std::size_t{1} << 31) - 1;

}  // namespace

std::string_view to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "scalar";
}

Level detected_level() noexcept {
#ifdef AUTOSENS_SIMD_X86
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2 ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

Level active_level() noexcept {
  const int forced = g_level_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level chosen = [] {
    const Level level = env_force_scalar() ? Level::kScalar : detected_level();
    publish(level);
    return level;
  }();
  return chosen;
}

void set_level_override(std::optional<Level> level) noexcept {
  g_level_override.store(level ? static_cast<int>(*level) : -1,
                         std::memory_order_relaxed);
}

void publish_level() { publish(active_level()); }

void bin_indices(std::span<const double> values, double lo, double width,
                 std::size_t counts_size, std::span<std::uint32_t> out) noexcept {
#ifdef AUTOSENS_SIMD_X86
  if (active_level() == Level::kAvx2 && counts_size - 1 < kMaxVectorBins) {
    avx2_bin_indices(values.data(), values.size(), lo, width, counts_size, out.data());
    return;
  }
#endif
  scalar_bin_indices(values.data(), values.size(), lo, width, counts_size, out.data());
}

void histogram_fill(std::span<const double> values, double lo, double width,
                    std::span<double> counts) noexcept {
  fill_blocked(values, lo, width, counts.size(),
               [&](std::size_t, std::uint32_t bin) { counts[bin] += 1.0; });
}

void histogram_fill_const(std::span<const double> values, double weight, double lo,
                          double width, std::span<double> counts) noexcept {
  fill_blocked(values, lo, width, counts.size(),
               [&](std::size_t, std::uint32_t bin) { counts[bin] += weight; });
}

double histogram_fill_weighted(std::span<const double> values,
                               std::span<const double> weights, double lo, double width,
                               std::span<double> counts) noexcept {
  fill_blocked(values, lo, width, counts.size(),
               [&](std::size_t i, std::uint32_t bin) { counts[bin] += weights[i]; });
  return sum_interleaved(weights);
}

double sum_interleaved(std::span<const double> values) noexcept {
  const std::size_t n = values.size();
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t m = n & ~std::size_t{3};
  for (std::size_t i = 0; i < m; i += 4) {
    a0 += values[i];
    a1 += values[i + 1];
    a2 += values[i + 2];
    a3 += values[i + 3];
  }
  double sum = ((a0 + a1) + a2) + a3;
  for (std::size_t i = m; i < n; ++i) sum += values[i];
  return sum;
}

}  // namespace autosens::core::simd
