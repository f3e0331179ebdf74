#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "data/dataset.hpp"
#include "util/log.hpp"
#include "util/matrix.hpp"

namespace swhkm::core::detail {

/// Squared Euclidean distance in double precision — the one distance kernel
/// shared by the serial baseline and every engine level, so trajectories
/// can only diverge through summation *order*, never through arithmetic.
inline double squared_distance(std::span<const float> x,
                               std::span<const float> c) {
  double sum = 0;
  for (std::size_t u = 0; u < x.size(); ++u) {
    const double diff = static_cast<double>(x[u]) - static_cast<double>(c[u]);
    sum += diff * diff;
  }
  return sum;
}

/// Partial distance over a dimension slice [u_begin, u_end): the Level 3
/// per-CPE kernel.
inline double partial_squared_distance(std::span<const float> x,
                                       std::span<const float> c,
                                       std::size_t u_begin,
                                       std::size_t u_end) {
  double sum = 0;
  for (std::size_t u = u_begin; u < u_end; ++u) {
    const double diff = static_cast<double>(x[u]) - static_cast<double>(c[u]);
    sum += diff * diff;
  }
  return sum;
}

/// Scan centroids [j_begin, j_end) for the nearest one; ties break toward
/// the smaller index, matching a serial left-to-right scan.
inline std::pair<double, std::uint32_t> nearest_in_slice(
    std::span<const float> x, const util::Matrix& centroids,
    std::size_t j_begin, std::size_t j_end) {
  double best = std::numeric_limits<double>::max();
  std::uint32_t best_j = 0;
  for (std::size_t j = j_begin; j < j_end; ++j) {
    const double dist = squared_distance(x, centroids.row(j));
    if (dist < best) {
      best = dist;
      best_j = static_cast<std::uint32_t>(j);
    }
  }
  return {best, best_j};
}

/// Contiguous block [begin, end) of `total` items for worker `index` of
/// `workers` — the dataflow partition rule all levels share. Remainder
/// items go to the lowest-index workers.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t total,
                                                       std::size_t workers,
                                                       std::size_t index) {
  const std::size_t base = total / workers;
  const std::size_t extra = total % workers;
  const std::size_t begin =
      index * base + (index < extra ? index : extra);
  const std::size_t length = base + (index < extra ? 1 : 0);
  return {begin, begin + length};
}

/// Samples per assign-phase tile. A tile is the unit the engines batch
/// their argmin state over: one collective (Level 3) or one accumulation
/// sweep per tile instead of per sample. Any value gives bit-identical
/// results (the tile argmin preserves the left-to-right tie-break); 256
/// keeps a tile's MinLoc buffer at 4 KiB while amortising the per-batch
/// synchronisation far past the point of diminishing returns.
inline constexpr std::size_t kAssignTileSamples = 256;

/// Centroid rows scored per cache block inside a tile sweep: the block
/// stays hot in L1 while the tile's samples stream past it, and each row
/// gets an independent accumulation chain (see score_tile) — 16 chains
/// saturate the FP pipes without spilling vector registers.
inline constexpr std::size_t kCentroidRowBlock = 16;

/// Local (distance, centroid-index) argmin record: the serial baselines'
/// tile record (the engines score TileScore2 / swmpi::MinLoc2). The tile
/// kernels are templated over both widths so serial callers do not need
/// the swmpi headers.
struct TileScore {
  double value = 0;
  std::uint64_t index = 0;
};

/// Argmin record that also tracks the runner-up distance — the local half
/// of swmpi::MinLoc2. The bound-gated engines need the exact second-closest
/// distance to seed the Hamerly lower bound after a full sweep.
struct TileScore2 {
  double value = 0;
  std::uint64_t index = 0;
  double second = 0;
};

/// Detects records carrying a runner-up slot (TileScore2 / swmpi::MinLoc2);
/// the tile kernels stay a single template over both record widths.
template <typename MinLocT>
concept HasSecond = requires(MinLocT r) { r.second; };

/// Reset a tile's argmin records to "no centroid seen": +inf distance and
/// a sentinel index that loses every tie (ranks with an empty centroid
/// slice contribute exactly this to the Level 3 combine).
template <typename MinLocT>
inline void clear_scores(std::span<MinLocT> scores) {
  for (MinLocT& s : scores) {
    s.value = std::numeric_limits<double>::max();
    s.index = std::numeric_limits<std::uint64_t>::max();
    if constexpr (HasSecond<MinLocT>) {
      s.second = std::numeric_limits<double>::max();
    }
  }
}

/// Offer one (distance, centroid) candidate to an argmin record. Strict
/// `<` everywhere: ties resolve toward the smaller index (candidates
/// arrive in ascending j), and an equal-to-best distance lands in the
/// runner-up slot — the same top-two semantics as a serial left-to-right
/// scan.
template <typename MinLocT>
inline void offer_score(MinLocT& rec, double value, std::uint64_t index) {
  if constexpr (HasSecond<MinLocT>) {
    if (value < rec.value) {
      rec.second = rec.value;
      rec.value = value;
      rec.index = index;
    } else if (value < rec.second) {
      rec.second = value;
    }
  } else {
    if (value < rec.value) {
      rec.value = value;
      rec.index = index;
    }
  }
}

/// One sample against one full u-major centroid panel: runs
/// kCentroidRowBlock independent accumulation chains, each summing
/// (x[u]-c[u])^2 in ascending u with separate sub/mul/add — the exact
/// operation sequence of squared_distance, so every distance is
/// bit-identical to the serial kernel.
inline void sample_block_chains_generic(const float* __restrict__ x,
                                        const double* __restrict__ panel,
                                        std::size_t d,
                                        double* __restrict__ acc) {
  // __restrict__ matters: without it the compiler must assume acc aliases
  // panel, which forces a store per chain step and blocks vectorisation.
  for (std::size_t u = 0; u < d; ++u) {
    const double xu = static_cast<double>(x[u]);
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
      const double diff = xu - row[jj];
      acc[jj] += diff * diff;
    }
  }
}

/// A panel-chain kernel build (generic or dispatched; same bits).
using SampleBlockFn = void (*)(const float*, const double*, std::size_t,
                               double*);

#if defined(__x86_64__) && defined(__GNUC__)
#define SWHKM_KERNEL_DISPATCH 1
/// AVX2 build of the same source. 4-wide doubles are the same IEEE
/// operations as scalar, and the avx2 target has no FMA instructions, so
/// the compiler cannot contract diff*diff into acc (which would change
/// rounding) — results stay bit-identical to the generic build. Targets
/// with FMA (avx512f etc.) are deliberately NOT used for this reason.
__attribute__((target("avx2"))) inline void sample_block_chains_avx2(
    const float* __restrict__ x, const double* __restrict__ panel,
    std::size_t d, double* __restrict__ acc) {
  for (std::size_t u = 0; u < d; ++u) {
    const double xu = static_cast<double>(x[u]);
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
      const double diff = xu - row[jj];
      acc[jj] += diff * diff;
    }
  }
}

inline SampleBlockFn resolve_sample_block_chains() {
  if (__builtin_cpu_supports("avx2")) {
    return &sample_block_chains_avx2;
  }
  return &sample_block_chains_generic;
}
/// Resolved once per process; both candidates are bit-identical.
inline const SampleBlockFn sample_block_chains = resolve_sample_block_chains();
#else
inline constexpr auto sample_block_chains = &sample_block_chains_generic;
#endif

// ---------------------------------------------------------------------------
// k-means++ distance sweep

/// Samples a k-means++ sweep scores at once: one independent accumulation
/// chain each, enough to cover FP add latency.
inline constexpr std::size_t kSweepChains = 8;

/// The rows of kSweepChains consecutive row-major samples, addressed like
/// an array of row pointers (the chain kernels take either).
struct BlockRows {
  const float* base;
  std::size_t d;
  const float* operator[](std::size_t s) const { return base + s * d; }
};

/// The sweep's chain kernel: out[s] = squared_distance(rows[s], c) for the
/// kSweepChains rows, each with its own ascending-u chain of separate sub,
/// mul and add — the exact operation sequence of squared_distance, so
/// every distance is bit-identical to it whichever rows share a call.
struct SweepChainsGeneric {
  template <typename Rows>
  void operator()(const Rows& rows, std::size_t d, const float* c,
                  double* out) const {
    double acc[kSweepChains] = {};
    for (std::size_t u = 0; u < d; ++u) {
      const double cu = static_cast<double>(c[u]);
      for (std::size_t s = 0; s < kSweepChains; ++s) {
        const double diff = static_cast<double>(rows[s][u]) - cu;
        acc[s] += diff * diff;
      }
    }
    std::copy(acc, acc + kSweepChains, out);
  }
};

#if defined(SWHKM_KERNEL_DISPATCH)
/// AVX2 build of the chain kernel: lane s of the two 4-wide accumulators
/// is row s's chain. Each step loads four consecutive floats of each of the
/// 8 rows, widens them to double (exact) and transposes each 4 x 4 block so
/// that one vector holds one u of four rows. Per lane that is the scalar
/// chain's sub, mul and add in ascending u (the avx2 target has no FMA to
/// contract them); the last d % 4 columns finish in scalar code.
struct SweepChainsAvx2 {
  template <typename Rows>
  __attribute__((target("avx2"))) void operator()(const Rows& rows,
                                                  std::size_t d,
                                                  const float* c,
                                                  double* out) const {
    static_assert(kSweepChains == 8, "two 4-wide halves");
    const std::size_t d4 = d - d % 4;
    __m256d acc[2] = {_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (std::size_t u = 0; u < d4; u += 4) {
      const __m256d cu = _mm256_cvtps_pd(_mm_loadu_ps(c + u));
      const __m256d cb[4] = {
          _mm256_permute4x64_pd(cu, 0x00), _mm256_permute4x64_pd(cu, 0x55),
          _mm256_permute4x64_pd(cu, 0xAA), _mm256_permute4x64_pd(cu, 0xFF)};
      for (std::size_t h = 0; h < 2; ++h) {
        const __m256d r0 = _mm256_cvtps_pd(_mm_loadu_ps(rows[4 * h] + u));
        const __m256d r1 = _mm256_cvtps_pd(_mm_loadu_ps(rows[4 * h + 1] + u));
        const __m256d r2 = _mm256_cvtps_pd(_mm_loadu_ps(rows[4 * h + 2] + u));
        const __m256d r3 = _mm256_cvtps_pd(_mm_loadu_ps(rows[4 * h + 3] + u));
        // t0 = {r0[0], r1[0], r0[2], r1[2]}, t1 = {r0[1], r1[1], r0[3],
        // r1[3]}; likewise t2, t3 for rows 2 and 3.
        const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
        const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
        const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
        const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
        const __m256d col[4] = {_mm256_permute2f128_pd(t0, t2, 0x20),
                                _mm256_permute2f128_pd(t1, t3, 0x20),
                                _mm256_permute2f128_pd(t0, t2, 0x31),
                                _mm256_permute2f128_pd(t1, t3, 0x31)};
        for (std::size_t v = 0; v < 4; ++v) {
          const __m256d diff = _mm256_sub_pd(col[v], cb[v]);
          acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(diff, diff));
        }
      }
    }
    _mm256_storeu_pd(out, acc[0]);
    _mm256_storeu_pd(out + 4, acc[1]);
    for (std::size_t u = d4; u < d; ++u) {
      const double cu = static_cast<double>(c[u]);
      for (std::size_t s = 0; s < kSweepChains; ++s) {
        const double diff = static_cast<double>(rows[s][u]) - cu;
        out[s] += diff * diff;
      }
    }
  }
};
#endif

/// The sweep's fp32 distance bound: out[s] = the squared distance from
/// rows[s] to c summed in fp32, one fp32 difference per element, squared
/// and added (fused where the build has FMA) in any order the build likes.
/// Every term is non-negative, so where fp32_bound_certified holds the
/// bound is within a factor 1 -+ seeding_bound_slack(d) of squared_distance
/// (DESIGN.md §15). It only decides which exact distances can be left out;
/// it is never used as a distance.
struct SweepBoundsGeneric {
  template <typename Rows>
  void operator()(const Rows& rows, std::size_t d, const float* c,
                  float* out) const {
    float acc[kSweepChains] = {};
    for (std::size_t u = 0; u < d; ++u) {
      for (std::size_t s = 0; s < kSweepChains; ++s) {
        const float diff = rows[s][u] - c[u];
        acc[s] += diff * diff;
      }
    }
    std::copy(acc, acc + kSweepChains, out);
  }
};

#if defined(SWHKM_KERNEL_DISPATCH)
/// AVX2 + FMA build of the bound: row s accumulates eight u-lanes with
/// fused multiply-adds (the last d % 8 columns through masked loads, whose
/// spare lanes add 0), and the lanes are added pairwise. FMA is allowed
/// here because only the bound's error is certified, never its bits. It
/// lives in its own avx2,fma function, called out of line from the
/// avx2-only sweep: the exact chains must stay where there is no FMA to
/// contract them into.
template <typename Rows>
__attribute__((target("avx2,fma"))) void sweep_bounds_avx2_fma(
    const Rows& rows, std::size_t d, const float* c, float* out) {
  static_assert(kSweepChains == 8, "one 8-wide lane sum per row");
  const std::size_t d8 = d - d % 8;
  __m256 acc[kSweepChains];
  for (std::size_t s = 0; s < kSweepChains; ++s) {
    acc[s] = _mm256_setzero_ps();
  }
  for (std::size_t u = 0; u < d8; u += 8) {
    const __m256 cu = _mm256_loadu_ps(c + u);
    for (std::size_t s = 0; s < kSweepChains; ++s) {
      const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(rows[s] + u), cu);
      acc[s] = _mm256_fmadd_ps(diff, diff, acc[s]);
    }
  }
  if (d8 < d) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(d - d8)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 cu = _mm256_maskload_ps(c + d8, mask);
    for (std::size_t s = 0; s < kSweepChains; ++s) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_maskload_ps(rows[s] + d8, mask), cu);
      acc[s] = _mm256_fmadd_ps(diff, diff, acc[s]);
    }
  }
  // q0 = {lanes 0-3 of rows 0..3 | lanes 4-7 of rows 0..3}, q1 likewise
  // for rows 4..7; the two 128-bit halves then add to one sum per row.
  const __m256 q0 = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]),
                                   _mm256_hadd_ps(acc[2], acc[3]));
  const __m256 q1 = _mm256_hadd_ps(_mm256_hadd_ps(acc[4], acc[5]),
                                   _mm256_hadd_ps(acc[6], acc[7]));
  _mm256_storeu_ps(out, _mm256_add_ps(_mm256_permute2f128_ps(q0, q1, 0x20),
                                      _mm256_permute2f128_ps(q0, q1, 0x31)));
}

struct SweepBoundsAvx2Fma {
  template <typename Rows>
  void operator()(const Rows& rows, std::size_t d, const float* c,
                  float* out) const {
    sweep_bounds_avx2_fma(rows, d, c, out);
  }
};
#endif

/// Slack tau of the fp32 bound b of a squared distance at dimension d:
/// where fp32_bound_certified(v, d) holds, b >= (1 + tau) * v proves that
/// squared_distance >= v, and where fp32_bound_certified(b, d) holds,
/// b * (1 - tau) <= squared_distance (DESIGN.md §15).
inline double seeding_bound_slack(std::size_t d) {
  return 0x1p-23 * static_cast<double>(d + 8);
}

/// The range the fp32 bound is certified on: far from fp32's subnormals
/// and overflow, at d small enough that tau < 1/8. Values outside it take
/// the exact path.
inline bool fp32_bound_certified(double v, std::size_t d) {
  return v >= 0x1p-100 && v <= 0x1p100 && d <= (std::size_t{1} << 20);
}

/// The k-means++ distance sweep: for `count` contiguous row-major samples
/// `x` (d floats each), nearest[i] = min(nearest[i], squared_distance(x_i,
/// c)). Samples go kSweepChains at a time through `chains`; the ragged
/// tail calls squared_distance itself.
template <typename Chains>
inline void nearest_sweep_with(Chains chains, const float* __restrict__ x,
                               std::size_t count, std::size_t d,
                               std::span<const float> c,
                               double* __restrict__ nearest) {
  std::size_t i = 0;
  for (; i + kSweepChains <= count; i += kSweepChains) {
    double dist[kSweepChains];
    chains(BlockRows{x + i * d, d}, d, c.data(), dist);
    for (std::size_t s = 0; s < kSweepChains; ++s) {
      nearest[i + s] = std::min(nearest[i + s], dist[s]);
    }
  }
  for (; i < count; ++i) {
    nearest[i] = std::min(nearest[i], squared_distance({x + i * d, d}, c));
  }
}

/// Multiplier of the k-means++ skip test: a sample whose nearest seed b
/// lies at computed squared distance cc from the new seed c, with cc >=
/// seeding_skip_scale(d) * nearest, cannot get a smaller computed distance
/// to c. 4 is the triangle inequality's |b - c| >= 2 |x - b|; the margin
/// absorbs every rounding of the three computed values (DESIGN.md §15).
inline double seeding_skip_scale(std::size_t d) {
  return 4.0 * (1.0 + 8.0 * static_cast<double>(d + 2) *
                          std::numeric_limits<double>::epsilon());
}

/// One k-means++ pick as pruned_sweep sees it.
struct SweepPick {
  std::span<const float> c;  ///< the new seed
  std::uint32_t id = 0;      ///< its index among the seeds
  /// cc[j] <= squared_distance(seed j, c) for every j < id (a lower bound
  /// is enough, see distance_lower_bounds); null runs the skip test on no
  /// sample.
  const double* cc = nullptr;
};

/// The samples one pruned sweep did not compute exactly.
struct SweepCounts {
  std::size_t skipped = 0;   ///< ruled out by the triangle inequality
  std::size_t filtered = 0;  ///< ruled out by the fp32 bound
};

/// nearest_sweep that also keeps owner[i], the index of the first seed
/// whose computed distance equals nearest[i], and leaves out every exact
/// distance that provably cannot lower nearest[i] (DESIGN.md §15):
/// - the triangle test: cc[owner[i]] >= seeding_skip_scale(d) * nearest[i]
///   skips the sample;
/// - the fp32 bound, for the samples that pass it: a bound b >= (1 +
///   seeding_bound_slack(d)) * nearest[i], with nearest[i] in the bound's
///   certified range, filters it.
///
/// nearest[] and owner[] move only on a strict `<`, through a branchless
/// epilogue. A block of kSweepChains samples that the triangle test keeps
/// whole runs the bound and then, for whatever the bound keeps, the chain
/// kernel on its contiguous rows (gathering the survivors when the bound
/// filters some). The survivors of partly skipped blocks are gathered
/// kSweepChains row pointers at a time into the bound and then into the
/// chain kernel; a short last call repeats its first row in the spare
/// chains. Every computed distance is therefore squared_distance's bits,
/// as in nearest_sweep.
template <typename Chains, typename Bounds>
inline SweepCounts pruned_sweep_with(Chains chains, Bounds bounds,
                                     const float* __restrict__ x,
                                     std::size_t count, std::size_t d,
                                     const SweepPick& pick,
                                     double* __restrict__ nearest,
                                     std::uint32_t* __restrict__ owner) {
  constexpr unsigned kAll = (1u << kSweepChains) - 1;
  const double scale = seeding_skip_scale(d);
  const double loose = 1.0 + seeding_bound_slack(d);
  const auto skip = [&](std::size_t i) {
    return pick.cc != nullptr && pick.cc[owner[i]] >= scale * nearest[i];
  };
  const auto in_range = [&](std::size_t i) {
    return fp32_bound_certified(nearest[i], d);
  };
  const auto rules_out = [&](std::size_t i, float bound) {
    return bound >= loose * nearest[i];
  };
  const auto settle = [&](std::size_t i, double dist) {
    const bool closer = dist < nearest[i];
    nearest[i] = closer ? dist : nearest[i];
    owner[i] = closer ? pick.id : owner[i];
  };
  SweepCounts counts;
  double dist[kSweepChains];
  float bound[kSweepChains];

  // The exact stage: rows the bound could not rule out.
  const float* exact_rows[kSweepChains];
  std::size_t exact_at[kSweepChains];
  std::size_t exact_held = 0;
  const auto run_exact = [&] {
    std::fill(exact_rows + exact_held, exact_rows + kSweepChains,
              exact_rows[0]);
    chains(exact_rows, d, pick.c.data(), dist);
    for (std::size_t q = 0; q < exact_held; ++q) {
      settle(exact_at[q], dist[q]);
    }
    exact_held = 0;
  };
  const auto exact = [&](std::size_t i) {
    exact_rows[exact_held] = x + i * d;
    exact_at[exact_held] = i;
    if (++exact_held == kSweepChains) {
      run_exact();
    }
  };
  // The bound stage: gathered survivors of the triangle test.
  const float* bound_rows[kSweepChains];
  std::size_t bound_at[kSweepChains];
  std::size_t bound_held = 0;
  const auto run_bounds = [&] {
    std::fill(bound_rows + bound_held, bound_rows + kSweepChains,
              bound_rows[0]);
    bounds(bound_rows, d, pick.c.data(), bound);
    for (std::size_t q = 0; q < bound_held; ++q) {
      if (rules_out(bound_at[q], bound[q])) {
        ++counts.filtered;
      } else {
        exact(bound_at[q]);
      }
    }
    bound_held = 0;
  };
  const auto screen = [&](std::size_t i) {
    if (!in_range(i)) {
      exact(i);
      return;
    }
    bound_rows[bound_held] = x + i * d;
    bound_at[bound_held] = i;
    if (++bound_held == kSweepChains) {
      run_bounds();
    }
  };

  std::size_t i = 0;
  for (; i + kSweepChains <= count; i += kSweepChains) {
    unsigned keep = 0;
    for (std::size_t s = 0; s < kSweepChains; ++s) {
      keep |= static_cast<unsigned>(!skip(i + s)) << s;
    }
    counts.skipped += kSweepChains - std::popcount(keep);
    if (keep != kAll) {
      for (std::size_t s = 0; s < kSweepChains; ++s) {
        if ((keep >> s) & 1u) {
          screen(i + s);
        }
      }
      continue;
    }
    const BlockRows rows{x + i * d, d};
    unsigned screened = 0;
    for (std::size_t s = 0; s < kSweepChains; ++s) {
      screened |= static_cast<unsigned>(in_range(i + s)) << s;
    }
    if (screened != 0) {
      bounds(rows, d, pick.c.data(), bound);
      for (std::size_t s = 0; s < kSweepChains; ++s) {
        if (((screened >> s) & 1u) && rules_out(i + s, bound[s])) {
          keep &= ~(1u << s);
        }
      }
      counts.filtered += kSweepChains - std::popcount(keep);
    }
    if (keep == kAll) {
      chains(rows, d, pick.c.data(), dist);
      for (std::size_t s = 0; s < kSweepChains; ++s) {
        settle(i + s, dist[s]);
      }
      continue;
    }
    for (std::size_t s = 0; s < kSweepChains; ++s) {
      if ((keep >> s) & 1u) {
        exact(i + s);
      }
    }
  }
  for (; i < count; ++i) {
    if (skip(i)) {
      ++counts.skipped;
    } else {
      screen(i);
    }
  }
  if (bound_held > 0) {
    run_bounds();
  }
  if (exact_held > 0) {
    run_exact();
  }
  return counts;
}

/// cc for the k-means++ skip test: out[j] <= squared_distance(rows[j], c)
/// for `count` gathered rows, through `bounds` kSweepChains rows at a time
/// (a short last call repeats its last row). A bound b in the certified
/// range gives b * (1 - seeding_bound_slack(d)); any other row takes
/// squared_distance itself.
template <typename Bounds>
inline void distance_lower_bounds_with(Bounds bounds,
                                       const float* const* rows,
                                       std::size_t count, std::size_t d,
                                       std::span<const float> c,
                                       double* out) {
  const double tight = 1.0 - seeding_bound_slack(d);
  for (std::size_t j = 0; j < count; j += kSweepChains) {
    const std::size_t held = std::min(kSweepChains, count - j);
    const float* chunk[kSweepChains];
    for (std::size_t q = 0; q < kSweepChains; ++q) {
      chunk[q] = rows[j + std::min(q, held - 1)];
    }
    float bound[kSweepChains];
    bounds(chunk, d, c.data(), bound);
    for (std::size_t q = 0; q < held; ++q) {
      out[j + q] = fp32_bound_certified(bound[q], d)
                       ? bound[q] * tight
                       : squared_distance({chunk[q], d}, c);
    }
  }
}

inline void nearest_sweep_generic(const float* x, std::size_t count,
                                  std::size_t d, std::span<const float> c,
                                  double* nearest) {
  nearest_sweep_with(SweepChainsGeneric{}, x, count, d, c, nearest);
}

inline SweepCounts pruned_sweep_generic(const float* x, std::size_t count,
                                        std::size_t d, const SweepPick& pick,
                                        double* nearest,
                                        std::uint32_t* owner) {
  return pruned_sweep_with(SweepChainsGeneric{}, SweepBoundsGeneric{}, x,
                           count, d, pick, nearest, owner);
}

inline void distance_lower_bounds_generic(const float* const* rows,
                                          std::size_t count, std::size_t d,
                                          std::span<const float> c,
                                          double* out) {
  distance_lower_bounds_with(SweepBoundsGeneric{}, rows, count, d, c, out);
}

#if defined(SWHKM_KERNEL_DISPATCH)
// `flatten` inlines the shared sweep loops and the AVX2 chain kernel into
// these avx2-target entry points (a default-target loop could not inline
// an avx2 kernel), so each compiles to one loop as if hand-written. The
// avx2,fma bound kernel cannot be inlined into an avx2-only function, so
// it stays an out-of-line call and no FMA reaches the exact chains.
__attribute__((target("avx2"), flatten)) inline void nearest_sweep_avx2(
    const float* x, std::size_t count, std::size_t d,
    std::span<const float> c, double* nearest) {
  nearest_sweep_with(SweepChainsAvx2{}, x, count, d, c, nearest);
}

__attribute__((target("avx2"), flatten)) inline SweepCounts
pruned_sweep_avx2(const float* x, std::size_t count, std::size_t d,
                  const SweepPick& pick, double* nearest,
                  std::uint32_t* owner) {
  return pruned_sweep_with(SweepChainsAvx2{}, SweepBoundsAvx2Fma{}, x, count,
                           d, pick, nearest, owner);
}

inline void distance_lower_bounds_avx2(const float* const* rows,
                                       std::size_t count, std::size_t d,
                                       std::span<const float> c,
                                       double* out) {
  distance_lower_bounds_with(SweepBoundsAvx2Fma{}, rows, count, d, c, out);
}

using SweepFn = void (*)(const float*, std::size_t, std::size_t,
                         std::span<const float>, double*);
using PrunedSweepFn = SweepCounts (*)(const float*, std::size_t, std::size_t,
                                      const SweepPick&, double*,
                                      std::uint32_t*);
using LowerBoundsFn = void (*)(const float* const*, std::size_t, std::size_t,
                               std::span<const float>, double*);
/// The fp32 bound's build needs FMA as well as AVX2.
inline bool has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
inline SweepFn resolve_nearest_sweep() {
  if (__builtin_cpu_supports("avx2")) {
    return &nearest_sweep_avx2;
  }
  return &nearest_sweep_generic;
}
inline PrunedSweepFn resolve_pruned_sweep() {
  if (has_avx2_fma()) {
    return &pruned_sweep_avx2;
  }
  return &pruned_sweep_generic;
}
inline LowerBoundsFn resolve_distance_lower_bounds() {
  if (has_avx2_fma()) {
    return &distance_lower_bounds_avx2;
  }
  return &distance_lower_bounds_generic;
}
/// Resolved once per process. The sweeps of each pair leave bit-identical
/// nearest[] and owner[]; the builds' bounds and filter counts may differ.
inline const SweepFn nearest_sweep = resolve_nearest_sweep();
inline const PrunedSweepFn pruned_sweep = resolve_pruned_sweep();
inline const LowerBoundsFn distance_lower_bounds =
    resolve_distance_lower_bounds();
#else
inline constexpr auto nearest_sweep = &nearest_sweep_generic;
inline constexpr auto pruned_sweep = &pruned_sweep_generic;
inline constexpr auto distance_lower_bounds = &distance_lower_bounds_generic;
#endif

/// Exact squared distances of one sample to kSweepChains gathered rows:
/// out[s] = squared_distance(x, rows[s]) bit for bit, through the sweep's
/// chain kernel with the roles swapped (each chain subtracts x from the
/// row; the negated difference squares to the same bits).
using GatherChainsFn = void (*)(const float* const*, std::size_t,
                                const float*, double*);

inline void gather_chains_generic(const float* const* rows, std::size_t d,
                                  const float* x, double* out) {
  SweepChainsGeneric{}(rows, d, x, out);
}

#if defined(SWHKM_KERNEL_DISPATCH)
__attribute__((target("avx2"), flatten)) inline void gather_chains_avx2(
    const float* const* rows, std::size_t d, const float* x, double* out) {
  SweepChainsAvx2{}(rows, d, x, out);
}
inline GatherChainsFn resolve_gather_chains() {
  if (__builtin_cpu_supports("avx2")) {
    return &gather_chains_avx2;
  }
  return &gather_chains_generic;
}
/// Resolved once per process; both candidates are bit-identical.
inline const GatherChainsFn gather_chains = resolve_gather_chains();
#else
inline constexpr auto gather_chains = &gather_chains_generic;
#endif

/// The column groups a tile sweep scores: [j_begin, j_end) split into
/// `groups` blocks (block_range), each with its own record per sample at
/// scores[g * count + t], and per sample a mask of the groups it scores
/// (bit g of scan[t]; an empty `scan` scores every group). The default is
/// one group: one record per sample over the whole range. With `k` set,
/// group g is instead the bound gate's group g of all k centroids
/// (GroupSplit{k, groups}) clipped to the range, possibly empty: a slice
/// of the centroids scores the part of every group it holds.
struct TileGroups {
  std::size_t groups = 1;
  std::span<const std::uint8_t> scan = {};
  std::size_t k = 0;

  bool scores(std::size_t t, std::size_t g) const {
    return scan.empty() || (scan[t] >> g & 1u) != 0;
  }
  std::pair<std::size_t, std::size_t> range(std::size_t j_begin,
                                            std::size_t j_end,
                                            std::size_t g) const {
    if (k != 0) {
      const auto [b, e] = block_range(k, groups, g);
      const std::size_t lo = std::clamp(b, j_begin, j_end);
      return {lo, std::clamp(e, lo, j_end)};
    }
    const auto [b, e] = block_range(j_end - j_begin, groups, g);
    return {j_begin + b, j_begin + e};
  }
};

/// Score centroids [j_begin, j_end) against `count` samples named by
/// `sample_index(0..count-1)` and combine into `scores` (one record per
/// sample and group, caller-initialised — see clear_scores). Shared by the
/// serial baseline and all three engines, through the score_tile /
/// score_tile_ids entry points below.
///
/// Structure: centroid rows are processed in blocks of kCentroidRowBlock,
/// each block transposed into a u-major double panel that stays hot in L1
/// while the tile's samples stream past it. Per sample the block runs one
/// independent accumulation chain per centroid (sample_block_chains),
/// which hides FP add latency — the seed's one-distance-at-a-time loop
/// was serial-dependency bound, not flop bound. Blocks never straddle a
/// group.
///
/// Bit-exactness: each chain is the exact operation sequence of
/// squared_distance (see sample_block_chains; float->double conversion is
/// value-preserving, and no FMA contraction on any dispatched target) —
/// and blocks visit centroid indices in ascending order with a strict
/// `<`, resolving ties toward the smaller index like the serial
/// left-to-right scan in nearest_in_slice. Trajectories therefore cannot
/// diverge.
template <typename MinLocT, typename SampleIndexFn>
inline void score_tile_gen(const data::Dataset& dataset,
                           SampleIndexFn sample_index, std::size_t count,
                           const util::Matrix& centroids, std::size_t j_begin,
                           std::size_t j_end, std::span<MinLocT> scores,
                           const TileGroups& groups = {}) {
  const std::size_t d = centroids.cols();
  std::vector<double> panel(kCentroidRowBlock * d);
  for (std::size_t g = 0; g < groups.groups; ++g) {
    const auto [gb, ge] = groups.range(j_begin, j_end, g);
    for (std::size_t jb = gb; jb < ge; jb += kCentroidRowBlock) {
      const std::size_t bw = std::min(ge - jb, kCentroidRowBlock);
      for (std::size_t u = 0; u < d; ++u) {
        for (std::size_t jj = 0; jj < bw; ++jj) {
          panel[u * bw + jj] = static_cast<double>(centroids.at(jb + jj, u));
        }
      }
      for (std::size_t t = 0; t < count; ++t) {
        if (!groups.scores(t, g)) {
          continue;
        }
        const auto x = dataset.sample(sample_index(t));
        double acc[kCentroidRowBlock] = {};
        if (bw == kCentroidRowBlock) {
          sample_block_chains(x.data(), panel.data(), d, acc);
        } else {
          for (std::size_t u = 0; u < d; ++u) {
            const double xu = static_cast<double>(x[u]);
            const double* row = panel.data() + u * bw;
            for (std::size_t jj = 0; jj < bw; ++jj) {
              const double diff = xu - row[jj];
              acc[jj] += diff * diff;
            }
          }
        }
        MinLocT& best = scores[g * count + t];
        for (std::size_t jj = 0; jj < bw; ++jj) {
          offer_score(best, acc[jj], jb + jj);
        }
      }
    }
  }
}

/// Contiguous-range entry point (the seed's signature).
template <typename MinLocT>
inline void score_tile(const data::Dataset& dataset, std::size_t i_begin,
                       std::size_t i_end, const util::Matrix& centroids,
                       std::size_t j_begin, std::size_t j_end,
                       std::span<MinLocT> scores,
                       const TileGroups& groups = {}) {
  score_tile_gen(
      dataset, [i_begin](std::size_t t) { return i_begin + t; },
      i_end - i_begin, centroids, j_begin, j_end, scores, groups);
}

/// Compacted entry point: score only the samples listed in `ids` (the
/// unresolved survivors of the bound gate), scores[t] belonging to
/// ids[t]. The gather indirection costs one extra load per sample; the
/// panel-blocked sweep and its bit-exactness argument are unchanged.
template <typename MinLocT>
inline void score_tile_ids(const data::Dataset& dataset,
                           std::span<const std::uint32_t> ids,
                           const util::Matrix& centroids, std::size_t j_begin,
                           std::size_t j_end, std::span<MinLocT> scores,
                           const TileGroups& groups = {}) {
  score_tile_gen(
      dataset, [ids](std::size_t t) { return static_cast<std::size_t>(ids[t]); },
      ids.size(), centroids, j_begin, j_end, scores, groups);
}

// ---------------------------------------------------------------------------
// GEMM-formulated distance sweep
//
// ||x - c||^2 = ||x||^2 + ||c||^2 - 2 x.c recast over the same u-major
// centroid panel as the multi-chain kernel, but accumulating dot products
// (one mul+add per element instead of sub+mul+add) with the centroid norms
// cached across tiles. The GEMM value g_j is *only a candidate selector*:
// each row's exact top-two record is formed by rescoring a tau-bounded
// candidate set with squared_distance, so the records — including every
// tie-break — are byte-identical to the serial left-to-right scan.
// ---------------------------------------------------------------------------

/// Per-row candidate capacity of the GEMM selector. Overflow (more than
/// this many centroids within tau of the running top-two) falls back to an
/// exact full-slice sweep for that row — the adversarial coincident-
/// centroid case, where the GEMM path would rescore everything anyway.
inline constexpr std::size_t kGemmCandidates = 8;
static_assert(kGemmCandidates == kSweepChains,
              "a row's candidates rescore in one gathered chain call");

/// ||c||^2 of one row in double: ascending-u sum of exact float squares
/// (a float's square is exact in double), the canonical norm the cache and
/// the selector share.
inline double row_squared_norm(std::span<const float> c) {
  double sum = 0;
  for (std::size_t u = 0; u < c.size(); ++u) {
    const double cu = static_cast<double>(c[u]);
    sum += cu * cu;
  }
  return sum;
}

/// Per-iteration cache of centroid squared norms for the GEMM selector.
///
/// Invalidation contract: a cached norm is stale exactly when the stored
/// float row changed. The sharded update publishes per-centroid drift
/// computed from the *stored float positions* (see apply_update_rows), so
/// drift[j] == 0 implies every coordinate's double diff was exactly 0.0 —
/// i.e. the stored bits are unchanged up to -0.0 vs +0.0, whose squares
/// are the same +0.0 — and the cached norm is still bit-exact. Gated
/// iterations therefore refresh only the drifted rows; iteration 0 and
/// bounds-off runs recompute every norm.
///
/// Holders: both refreshes take the row range [j_begin, j_end) a holder
/// keeps (a Level 3 CG's slice, a Level 2 member's k_local rows; all k by
/// default) and touch no other row. The cache is indexed by centroid and
/// sized k either way. A cold cache refreshes only the range it is given,
/// so a caller that covers [0, k) in several ranges warms each of them
/// with refresh_full first.
struct CentroidNormCache {
  std::vector<double> norms;
  bool valid = false;

  /// Full recompute of rows [j_begin, j_end) (clamped to the matrix);
  /// returns the number of rows refreshed.
  std::size_t refresh_full(const util::Matrix& centroids,
                           std::size_t j_begin = 0,
                           std::size_t j_end = static_cast<std::size_t>(-1)) {
    j_end = std::min(j_end, centroids.rows());
    norms.resize(centroids.rows());
    for (std::size_t j = j_begin; j < j_end; ++j) {
      norms[j] = row_squared_norm(centroids.row(j));
    }
    valid = true;
    return j_end > j_begin ? j_end - j_begin : 0;
  }

  /// Refresh only the rows of [j_begin, j_end) whose published drift is
  /// nonzero (plus a full recompute of the range when the cache is cold
  /// or the shape moved). Returns the number of rows refreshed — what the
  /// engines charge to the cost model.
  std::size_t refresh_from_drift(
      const util::Matrix& centroids, std::span<const double> drift,
      std::size_t j_begin = 0,
      std::size_t j_end = static_cast<std::size_t>(-1)) {
    if (!valid || norms.size() != centroids.rows() ||
        drift.size() != centroids.rows()) {
      return refresh_full(centroids, j_begin, j_end);
    }
    j_end = std::min(j_end, centroids.rows());
    std::size_t refreshed = 0;
    for (std::size_t j = j_begin; j < j_end; ++j) {
      if (drift[j] > 0) {
        norms[j] = row_squared_norm(centroids.row(j));
        ++refreshed;
      }
    }
    return refreshed;
  }

  void invalidate() { valid = false; }
};

/// One sample against one u-major centroid panel, dot-product form:
/// kCentroidRowBlock independent chains of acc[jj] += x[u] * c[u]. Float
/// products are exact in double; only the summation rounds.
inline void dot_block_chains_generic(const float* __restrict__ x,
                                     const double* __restrict__ panel,
                                     std::size_t d,
                                     double* __restrict__ acc) {
  for (std::size_t u = 0; u < d; ++u) {
    const double xu = static_cast<double>(x[u]);
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
      acc[jj] += xu * row[jj];
    }
  }
}

#if defined(SWHKM_KERNEL_DISPATCH)
/// AVX2 build of the dot chains. The GEMM value is only a candidate
/// selector (exactness comes from the rescore), but the avx2-without-FMA
/// convention of sample_block_chains is kept anyway so both dispatch
/// targets produce identical selector values — one fewer degree of
/// freedom when debugging a divergence.
__attribute__((target("avx2"))) inline void dot_block_chains_avx2(
    const float* __restrict__ x, const double* __restrict__ panel,
    std::size_t d, double* __restrict__ acc) {
  for (std::size_t u = 0; u < d; ++u) {
    const double xu = static_cast<double>(x[u]);
    const double* row = panel + u * kCentroidRowBlock;
    for (std::size_t jj = 0; jj < kCentroidRowBlock; ++jj) {
      acc[jj] += xu * row[jj];
    }
  }
}

inline SampleBlockFn resolve_dot_block_chains() {
  if (__builtin_cpu_supports("avx2")) {
    return &dot_block_chains_avx2;
  }
  return &dot_block_chains_generic;
}
inline const SampleBlockFn dot_block_chains = resolve_dot_block_chains();
#else
inline constexpr auto dot_block_chains = &dot_block_chains_generic;
#endif

/// ABFT instrumentation of the GEMM tile sweep (KmeansConfig::sdc_checks).
///
/// `flip` (optional) exposes each freshly-built scratch panel to the fault
/// plan's deterministic flip_memory events — the injection side. `check`
/// arms the checksum-column defense: per block the clean panel's column
/// sums chk[u] = sum_jj panel[u*bw+jj] (and an absolute-value twin for the
/// error bound) are captured *before* the flip hook runs, and per sample
/// sum_jj dots[jj] is compared against x . chk — two floating-point
/// evaluations of the same real bilinear form, whose spread is bounded by
/// the summation-error tolerance below. A mismatch means the panel no
/// longer holds the centroid bits it was built from: the panel is rebuilt
/// from the (authoritative, separately-scrubbed) centroid matrix and the
/// sample's dots recomputed through the *same* kernel — detector plus
/// bit-identical corrector, so a caught flip changes no result bytes, only
/// the `detected`/`recomputed` tallies.
struct GemmSdcHooks {
  std::function<void(std::span<std::byte>)> flip;
  bool check = false;
  std::uint64_t detected = 0;    ///< checksum mismatches observed
  std::uint64_t recomputed = 0;  ///< panels rebuilt + samples rescored
  /// Rows whose candidate list overflowed into an exact full-slice sweep
  /// (counted whether or not `check` is on).
  std::uint64_t overflowed = 0;
};

/// Forward-error radius of the GEMM value: |g_j - d_j| <= tau_j where d_j
/// is the exact-kernel (squared_distance) value. Both are floating-point
/// evaluations of the same real quantity; the summation bounds give
/// |g - d| <~ (4d + 11) eps (||x||^2 + ||c||^2), and 16 (d + 2) keeps a
/// >= 3x margin at every d >= 1.
inline double gemm_tau_scale(std::size_t d) {
  return 16.0 * static_cast<double>(d + 2) *
         std::numeric_limits<double>::epsilon();
}

/// GEMM-selected, exactly-rescored tile sweep: same contract as
/// score_tile_gen (centroids [j_begin, j_end) against `count` samples, per
/// group, records combined into caller-cleared `scores`), byte-identical
/// output.
///
/// Pass 1 (selector), one column group at a time: per sample, stream the
/// u-major dot panels and form g_j = ||x||^2 + ||c_j||^2 - 2 x.c_j with
/// error radius tau_j. A running top-two of the uppers (g + tau) gives U2;
/// any j with g_j - tau_j <= U2 is appended to the row's candidate list
/// (ascending j by construction). The running U2 only tightens, so the
/// list is a superset of every j whose exact distance can reach the
/// group's final top-two. A full list first evicts, in order, the entries
/// whose stored g - tau now exceeds the bar: the bar only falls, so an
/// evicted j could no more pass the final U2 than a j never appended.
///
/// Pass 2 (exact rescore): each row's candidates are offered to its
/// group's record in ascending j at their exact squared_distance bits —
/// the serial operation sequence and tie-break. Omitted centroids satisfy
/// d_j > U2_final >= (exact second smallest), so they cannot change value,
/// index or second; the record is therefore byte-identical to a full
/// serial scan, independently of which dot kernel the dispatcher picked.
/// Candidate overflow (more than kGemmCandidates) falls back to an exact
/// sweep of the whole group for that row; a list that stays full after
/// its eviction overflows for the rest of the group. Rescored distances
/// run kSweepChains at a time through the gathered chain kernel.
template <typename MinLocT, typename SampleIndexFn>
inline void score_tile_gemm_gen(const data::Dataset& dataset,
                                SampleIndexFn sample_index, std::size_t count,
                                const util::Matrix& centroids,
                                std::span<const double> norms,
                                std::size_t j_begin, std::size_t j_end,
                                std::span<MinLocT> scores,
                                GemmSdcHooks* sdc = nullptr,
                                const TileGroups& groups = {}) {
  const std::size_t d = centroids.cols();
  const double tau_scale = gemm_tau_scale(d);
  std::vector<double> panel(kCentroidRowBlock * d);
  std::vector<double> nx(count);
  std::vector<double> u1(count);
  std::vector<double> u2(count);
  std::vector<std::uint32_t> cand(count * kGemmCandidates);
  std::vector<double> cand_lo(count * kGemmCandidates);  ///< each g - tau
  std::vector<std::uint32_t> cand_n(count);
  // ABFT checksum column of the current panel and its absolute-value twin
  // (the error-bound magnitude). Captured from the clean panel before the
  // flip hook can damage it.
  std::vector<double> chk;
  std::vector<double> chkabs;
  for (std::size_t t = 0; t < count; ++t) {
    nx[t] = row_squared_norm(dataset.sample(sample_index(t)));
  }
  // Offer up to kSweepChains centroids `js` (ascending) to `rec` at their
  // exact distances: one squared_distance, or one gathered chain call
  // whose spare lanes repeat the last row and are ignored.
  const auto rescore = [&](std::span<const float> x, MinLocT& rec,
                           const std::uint32_t* js, std::size_t held) {
    if (held == 1) {
      offer_score(rec, squared_distance(x, centroids.row(js[0])), js[0]);
      return;
    }
    const float* rows[kSweepChains];
    for (std::size_t c = 0; c < kSweepChains; ++c) {
      rows[c] = centroids.row(js[std::min(c, held - 1)]).data();
    }
    double dist[kSweepChains];
    gather_chains(rows, d, x.data(), dist);
    for (std::size_t c = 0; c < held; ++c) {
      offer_score(rec, dist[c], js[c]);
    }
  };
  for (std::size_t g = 0; g < groups.groups; ++g) {
    const auto [gb, ge] = groups.range(j_begin, j_end, g);
    std::fill(u1.begin(), u1.end(), std::numeric_limits<double>::max());
    std::fill(u2.begin(), u2.end(), std::numeric_limits<double>::max());
    std::fill(cand_n.begin(), cand_n.end(), 0);
    for (std::size_t jb = gb; jb < ge; jb += kCentroidRowBlock) {
      const std::size_t bw = std::min(ge - jb, kCentroidRowBlock);
      const auto build_panel = [&] {
        for (std::size_t u = 0; u < d; ++u) {
          for (std::size_t jj = 0; jj < bw; ++jj) {
            panel[u * bw + jj] = static_cast<double>(centroids.at(jb + jj, u));
          }
        }
      };
      const auto capture_checksums = [&] {
        chk.assign(d, 0.0);
        chkabs.assign(d, 0.0);
        for (std::size_t u = 0; u < d; ++u) {
          for (std::size_t jj = 0; jj < bw; ++jj) {
            const double v = panel[u * bw + jj];
            chk[u] += v;
            chkabs[u] += std::abs(v);
          }
        }
      };
      build_panel();
      if (sdc != nullptr && sdc->check) {
        capture_checksums();
      }
      if (sdc != nullptr && sdc->flip) {
        sdc->flip(std::as_writable_bytes(
            std::span<double>(panel.data(), bw * d)));
      }
      for (std::size_t t = 0; t < count; ++t) {
        if (!groups.scores(t, g)) {
          continue;
        }
        const auto x = dataset.sample(sample_index(t));
        double dots[kCentroidRowBlock] = {};
        const auto sweep_dots = [&] {
          if (bw == kCentroidRowBlock) {
            dot_block_chains(x.data(), panel.data(), d, dots);
          } else {
            for (std::size_t u = 0; u < d; ++u) {
              const double xu = static_cast<double>(x[u]);
              const double* row = panel.data() + u * bw;
              for (std::size_t jj = 0; jj < bw; ++jj) {
                dots[jj] += xu * row[jj];
              }
            }
          }
        };
        sweep_dots();
        if (sdc != nullptr && sdc->check) {
          // sum_jj dots[jj] and x . chk are two summation orders of the
          // same real bilinear form sum_{u,jj} x[u] * panel[u*bw+jj]; their
          // spread is bounded by (d + bw) roundings against the
          // absolute-value magnitude, with a 64x margin. A violation means
          // the panel's bits are not the centroid bits the checksum saw —
          // rebuild and rescore this sample through the identical kernel
          // (bit-identical repair; samples after this one see the clean
          // panel too).
          double got = 0;
          for (std::size_t jj = 0; jj < bw; ++jj) {
            got += dots[jj];
          }
          double ref = 0;
          double mag = 0;
          for (std::size_t u = 0; u < d; ++u) {
            const double xu = static_cast<double>(x[u]);
            ref += xu * chk[u];
            mag += std::abs(xu) * chkabs[u];
          }
          const double tol = 64.0 * static_cast<double>(d + bw) *
                             std::numeric_limits<double>::epsilon() * mag;
          if (!(std::abs(got - ref) <= tol)) {
            ++sdc->detected;
            build_panel();
            capture_checksums();
            std::fill(dots, dots + kCentroidRowBlock, 0.0);
            sweep_dots();
            ++sdc->recomputed;
          }
        }
        for (std::size_t jj = 0; jj < bw; ++jj) {
          const std::size_t j = jb + jj;
          const double scale = nx[t] + norms[j];
          const double gv = scale - 2.0 * dots[jj];
          const double tau = tau_scale * scale;
          const double up = gv + tau;
          if (up < u1[t]) {
            u2[t] = u1[t];
            u1[t] = up;
          } else if (up < u2[t]) {
            u2[t] = up;
          }
          // A MinLoc record only needs the exact winner, so U1 suffices;
          // the top-two records screen against U2.
          const double bar = HasSecond<MinLocT> ? u2[t] : u1[t];
          const double lower = gv - tau;
          if (lower <= bar && cand_n[t] <= kGemmCandidates) {
            std::uint32_t* const ids = cand.data() + t * kGemmCandidates;
            double* const lows = cand_lo.data() + t * kGemmCandidates;
            if (cand_n[t] == kGemmCandidates) {
              // Full: evict, in order, every entry the bar has since
              // passed.
              std::uint32_t kept = 0;
              for (std::uint32_t c = 0; c < kGemmCandidates; ++c) {
                if (lows[c] <= bar) {
                  ids[kept] = ids[c];
                  lows[kept] = lows[c];
                  ++kept;
                }
              }
              cand_n[t] = kept;
            }
            if (cand_n[t] < kGemmCandidates) {
              ids[cand_n[t]] = static_cast<std::uint32_t>(j);
              lows[cand_n[t]] = lower;
              ++cand_n[t];
            } else {
              cand_n[t] = kGemmCandidates + 1;  // overflowed, for good
              if (sdc != nullptr) {
                ++sdc->overflowed;
              }
            }
          }
        }
      }
    }
    for (std::size_t t = 0; t < count; ++t) {
      if (!groups.scores(t, g) || cand_n[t] == 0) {
        continue;
      }
      const auto x = dataset.sample(sample_index(t));
      MinLocT& rec = scores[g * count + t];
      if (cand_n[t] <= kGemmCandidates) {
        rescore(x, rec, cand.data() + t * kGemmCandidates, cand_n[t]);
        continue;
      }
      for (std::size_t jb = gb; jb < ge; jb += kSweepChains) {
        std::uint32_t js[kSweepChains];
        const std::size_t held = std::min(ge - jb, kSweepChains);
        for (std::size_t c = 0; c < held; ++c) {
          js[c] = static_cast<std::uint32_t>(jb + c);
        }
        rescore(x, rec, js, held);
      }
    }
  }
}

/// Contiguous-range GEMM entry point (mirrors score_tile).
template <typename MinLocT>
inline void score_tile_gemm(const data::Dataset& dataset, std::size_t i_begin,
                            std::size_t i_end, const util::Matrix& centroids,
                            std::span<const double> norms, std::size_t j_begin,
                            std::size_t j_end, std::span<MinLocT> scores,
                            GemmSdcHooks* sdc = nullptr,
                            const TileGroups& groups = {}) {
  score_tile_gemm_gen(
      dataset, [i_begin](std::size_t t) { return i_begin + t; },
      i_end - i_begin, centroids, norms, j_begin, j_end, scores, sdc, groups);
}

/// Compacted GEMM entry point (mirrors score_tile_ids).
template <typename MinLocT>
inline void score_tile_ids_gemm(const data::Dataset& dataset,
                                std::span<const std::uint32_t> ids,
                                const util::Matrix& centroids,
                                std::span<const double> norms,
                                std::size_t j_begin, std::size_t j_end,
                                std::span<MinLocT> scores,
                                GemmSdcHooks* sdc = nullptr,
                                const TileGroups& groups = {}) {
  score_tile_gemm_gen(
      dataset,
      [ids](std::size_t t) { return static_cast<std::size_t>(ids[t]); },
      ids.size(), centroids, norms, j_begin, j_end, scores, sdc, groups);
}

/// Top-two centroid drifts of one update, with the argmax. What a Hamerly
/// lower-bound update needs: a sample assigned to the fastest-moving
/// centroid only has to defend against the *second* fastest mover, every
/// other sample against the fastest (Hamerly 2010, the "other centroids"
/// refinement).
struct DriftDigest {
  double max1 = 0;          ///< largest drift
  double max2 = 0;          ///< largest drift over the other centroids
  std::size_t argmax = 0;   ///< smallest index attaining max1
};

inline DriftDigest drift_digest(std::span<const double> drift) {
  DriftDigest digest;
  for (std::size_t j = 0; j < drift.size(); ++j) {
    if (drift[j] > digest.max1) {
      digest.max2 = digest.max1;
      digest.max1 = drift[j];
      digest.argmax = j;
    } else if (drift[j] > digest.max2) {
      digest.max2 = drift[j];
    }
  }
  return digest;
}

/// Max drift over centroids other than `j`. On a tie for the maximum the
/// strict `>` above leaves the duplicate in max2, so the exclusion stays
/// exact.
inline double drift_excluding(const DriftDigest& digest, std::size_t j) {
  return j == digest.argmax ? digest.max2 : digest.max1;
}

/// Most centroid groups a gate that skips groups can carry: a survivor's
/// group mask is one byte. Level 3 scores every group of a survivor and
/// keeps no mask (kLevel3BoundGroups).
inline constexpr std::size_t kMaxBoundGroups = 8;

/// The bound gate's split of the k centroids into G contiguous groups,
/// group g = block_range(k, G, g) (Yinyang groups, Ding et al. ICML'15).
/// Each sample keeps one lower bound per group and each group one
/// top-two drift digest. G = 1 is Hamerly's single bound.
struct GroupSplit {
  std::size_t k = 0;
  std::size_t groups = 1;

  std::pair<std::size_t, std::size_t> range(std::size_t g) const {
    return block_range(k, groups, g);
  }
  /// The group holding centroid j (block_range's inverse).
  std::size_t group_of(std::size_t j) const {
    const std::size_t base = k / groups;
    const std::size_t cut = (k % groups) * (base + 1);
    return j < cut ? j / (base + 1) : k % groups + (j - cut) / base;
  }
};

/// Each group's top-two drift digest, argmax in global indices. With one
/// group it is drift_digest(drift).
inline void group_drift_digests(std::span<const double> drift,
                                const GroupSplit& split,
                                std::span<DriftDigest> out) {
  for (std::size_t g = 0; g < split.groups; ++g) {
    const auto [begin, end] = split.range(g);
    out[g] = drift_digest(drift.subspan(begin, end - begin));
    out[g].argmax += begin;
  }
}

/// Columns a safe-radius chain advances per call: the panel's 8 KiB span
/// stays in L1 while the rows stream past it.
inline constexpr std::size_t kSafeRadiusSpan = 64;

/// The safe-radius pass's split of the k(k-1)/2 centroid pairs over one
/// CG's CPEs. Pair (a, b), a < b, is scored by row a's CPE. Unit u joins
/// row u (k-1-u pairs) with row k-1-u (u pairs), k-1 pairs in all, and the
/// middle row of an odd k is a unit of its own; CPE p takes the units
/// block_range(ceil(k/2), cpes, p). So every row has one owner, every pair
/// is scored once, and the slowest CPE scores within k-1 pairs of the
/// mean k(k-1)/(2 cpes). A CPE walks its rows in ascending order in
/// LDM blocks of `block_rows` rows.
struct SafeRadiusPartition {
  SafeRadiusPartition(std::size_t k, std::size_t cpes, std::size_t block_rows)
      : owner(k), opens_block(k) {
    const std::size_t units = (k + 1) / 2;
    for (std::size_t p = 0; p < cpes; ++p) {
      const auto [u0, u1] = block_range(units, cpes, p);
      std::size_t held = 0;
      const auto take = [&](std::size_t row) {
        owner[row] = static_cast<std::uint32_t>(p);
        opens_block[row] = held % block_rows == 0;
        ++held;
      };
      for (std::size_t u = u0; u < u1; ++u) {
        take(u);
      }
      for (std::size_t u = u1; u-- > u0;) {
        if (k - 1 - u != u) {
          take(k - 1 - u);
        }
      }
    }
  }
  std::vector<std::uint32_t> owner;  ///< the CPE of each row
  std::vector<bool> opens_block;     ///< row is the first of its LDM block
};

/// What one CG's safe-radius pass executes: the inputs of its modeled
/// charge (EngineRank::charge_radius_pass).
struct SafeRadiusWork {
  std::vector<std::uint64_t> cpe_pairs;  ///< pairs each CPE scores
  /// Centroid rows the CPEs read from DDR: each row once into its owner,
  /// plus, per LDM block, every row paired with the block's lowest row
  /// (the union of the rows the block needs).
  std::uint64_t streamed_rows = 0;

  std::uint64_t max_cpe_pairs() const {
    return cpe_pairs.empty()
               ? 0
               : *std::max_element(cpe_pairs.begin(), cpe_pairs.end());
  }
};

/// The pass's work under SafeRadiusPartition. It depends only on k, the
/// CPE count and the LDM block, not on the centroids, so an engine prices
/// the pass before running it. Row a scores its k-1-a pairs b > a; each
/// row with a partner lands once, and a row that opens a block streams
/// its partners too.
inline SafeRadiusWork safe_radius_work(std::size_t k, std::size_t cpes,
                                       std::size_t block_rows) {
  const SafeRadiusPartition partition(k, cpes, block_rows);
  SafeRadiusWork work;
  work.cpe_pairs.assign(cpes, 0);
  for (std::size_t a = 0; a + 1 < k; ++a) {
    const std::size_t pairs = k - 1 - a;
    work.cpe_pairs[partition.owner[a]] += pairs;
    work.streamed_rows += 1 + (partition.opens_block[a] ? pairs : 0);
  }
  return work;
}

/// Half the distance from each centroid to its nearest other centroid —
/// Hamerly's "safe radius": a sample strictly closer to its centroid than
/// this cannot have any other centroid nearer. Depends only on the shared
/// snapshot every rank already holds (the update phase publishes all
/// refreshed rows), so every rank computes identical bits with no
/// exchange. k == 1 leaves the single radius at +inf, like the serial
/// baseline.
///
/// The host scores the pairs panel by panel: rows b >= 1 go into
/// kCentroidRowBlock-wide u-major panels, each built once, and every row
/// a < b runs `chains` against the panel, its lanes b <= a ignored. Each
/// chain is exactly squared_distance's operation sequence, (a[u]-b[u])^2
/// == (b[u]-a[u])^2 in IEEE, and min is exact, so `safe` is bit-identical
/// to a scalar scan of every directed pair. A panel's distances fold into
/// `safe` as soon as its chains finish. The modeled machine splits the
/// same pairs over a CG's CPEs (safe_radius_work).
inline void compute_safe_radii(const util::Matrix& centroids,
                               std::vector<double>& safe,
                               SampleBlockFn chains = sample_block_chains) {
  const std::size_t k = centroids.rows();
  const std::size_t d = centroids.cols();
  safe.assign(k, std::numeric_limits<double>::max());
  std::vector<double> panel(kCentroidRowBlock * d);
  std::vector<double> acc(kCentroidRowBlock * k);
  for (std::size_t jb = 1; jb < k; jb += kCentroidRowBlock) {
    // A short last panel's spare lanes are zeroed and ignored.
    const std::size_t bw = std::min(k - jb, kCentroidRowBlock);
    if (bw < kCentroidRowBlock) {
      std::fill(panel.begin(), panel.end(), 0.0);
    }
    for (std::size_t u = 0; u < d; ++u) {
      for (std::size_t jj = 0; jj < bw; ++jj) {
        panel[u * kCentroidRowBlock + jj] =
            static_cast<double>(centroids.at(jb + jj, u));
      }
    }
    // Rows a < jb + bw - 1 have a partner in the panel. Their chains run
    // kSafeRadiusSpan columns per call, still in ascending u.
    const std::size_t rows = jb + bw - 1;
    std::fill(acc.begin(), acc.begin() + rows * kCentroidRowBlock, 0.0);
    for (std::size_t u0 = 0; u0 < d; u0 += kSafeRadiusSpan) {
      const std::size_t span = std::min(kSafeRadiusSpan, d - u0);
      for (std::size_t a = 0; a < rows; ++a) {
        chains(centroids.row(a).data() + u0,
               panel.data() + u0 * kCentroidRowBlock, span,
               acc.data() + a * kCentroidRowBlock);
      }
    }
    for (std::size_t a = 0; a < rows; ++a) {
      const std::size_t first = a < jb ? 0 : a + 1 - jb;  // first b > a
      for (std::size_t jj = first; jj < bw; ++jj) {
        const double half = std::sqrt(acc[a * kCentroidRowBlock + jj]) / 2;
        safe[a] = std::min(safe[a], half);
        safe[jb + jj] = std::min(safe[jb + jj], half);
      }
    }
  }
}

/// Where a gated tile's survivors go. `ids` takes the unresolved sample
/// ids in ascending order (caller-cleared). The optional outputs run in
/// step with it: `scan` takes each survivor's group mask (bit g: group g's
/// bound failed, so group g must be scored) and `assigned_sq` the exact
/// squared distance to its assigned centroid (NaN when not tightened);
/// `tightened_at` (k entries, or empty) counts tighten rows per centroid.
struct GateSurvivors {
  std::vector<std::uint32_t>& ids;
  std::vector<std::uint8_t>* scan = nullptr;
  std::vector<double>* assigned_sq = nullptr;
  std::span<std::uint64_t> tightened_at = {};
};

/// Gate one tile of samples [t0, t1) through G group bounds: advance each
/// sample's upper bound by its assigned centroid's drift (upper chases the
/// assigned centroid) and each group's lower bound by the worst *other*
/// mover in that group (its digest excluding the assigned centroid; with
/// G = 1 that is Hamerly's drift_excluding rule), then append the samples
/// that remain unresolved to `out`. Stored assignments and bounds are
/// indexed from `base`: sample i's assignment is assignments[i - base],
/// its upper upper[i - base], its group-g lower lower[(i - base) * G + g].
///
/// A sample is resolved — provably still assigned to its current centroid
/// — only under a strict upper < max(safe[a], min_g lower_g) (no radius
/// arm when `safe` is empty): strictness means a skip implies the argmin
/// is unique and unchanged (upper < safe[a] makes every rival strictly
/// farther by the triangle inequality; upper < lower_g beats every
/// centroid of group g but the assigned one), so the left-to-right
/// tie-break — and with it exact Lloyd bit-identity — survives coincident
/// centroids. When `tighten` is set, a sample failing the test gets one
/// exact distance to its assigned centroid (replacing the drift-inflated
/// upper) and a second chance — worth one row where a sweep costs k.
/// Levels 1/2 enable it (the assigned centroid's full row is local to the
/// slice owner); Level 3 does not (the row is split over the group, so the
/// test would cost the very exchange it tries to skip). A survivor must
/// score only the groups with lower_g <= upper: every other group's
/// centroids are strictly farther than the assigned one. Skipping groups
/// (a `scan` mask) needs `tighten`, since a survivor's skipped assigned
/// group offers its exact distance to the merge (merge_group_records).
/// Without a mask (Level 3) every survivor scores every group, and G > 1
/// needs no tightening.
///
/// All inputs are deterministic, globally-consistent quantities
/// (assignments from the replicated argmin, drift from the published
/// allgather, radii from the shared snapshot), so every rank gating the
/// same samples builds the identical compaction with no exchange. Returns
/// the number of tightening distances spent.
inline std::size_t gate_groups(const data::Dataset& dataset,
                               const util::Matrix& centroids, std::size_t t0,
                               std::size_t t1,
                               std::span<const std::uint32_t> assignments,
                               std::span<const double> drift,
                               const GroupSplit& split,
                               std::span<const DriftDigest> digests,
                               std::span<const double> safe, std::size_t base,
                               std::span<double> upper,
                               std::span<double> lower, bool tighten,
                               const GateSurvivors& out) {
  const std::size_t groups = split.groups;
  std::size_t tightened = 0;
  for (std::size_t i = t0; i < t1; ++i) {
    const std::uint32_t a = assignments[i - base];
    double& up = upper[i - base];
    double* const lo = lower.data() + (i - base) * groups;
    up += drift[a];
    double least = std::numeric_limits<double>::max();
    for (std::size_t g = 0; g < groups; ++g) {
      lo[g] -= drift_excluding(digests[g], a);
      least = std::min(least, lo[g]);
    }
    const double threshold = safe.empty() ? least : std::max(safe[a], least);
    if (up < threshold) {
      continue;
    }
    double sq = std::numeric_limits<double>::quiet_NaN();
    if (tighten) {
      sq = squared_distance(dataset.sample(i), centroids.row(a));
      up = std::sqrt(sq);
      ++tightened;
      if (!out.tightened_at.empty()) {
        ++out.tightened_at[a];
      }
      if (up < threshold) {
        continue;
      }
    }
    out.ids.push_back(static_cast<std::uint32_t>(i));
    if (out.scan != nullptr) {
      std::uint8_t mask = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        mask |= static_cast<std::uint8_t>(lo[g] <= up ? 1u << g : 0u);
      }
      out.scan->push_back(mask);
    }
    if (out.assigned_sq != nullptr) {
      out.assigned_sq->push_back(sq);
    }
  }
  return tightened;
}

/// The single-bound gate (G = 1, bounds indexed by sample id): Hamerly's
/// upper/lower pair under `digest` and the safe radii.
inline std::size_t gate_tile(const data::Dataset& dataset,
                             const util::Matrix& centroids, std::size_t t0,
                             std::size_t t1,
                             std::span<const std::uint32_t> assignments,
                             std::span<const double> drift,
                             const DriftDigest& digest,
                             std::span<const double> safe,
                             std::span<double> upper, std::span<double> lower,
                             bool tighten, std::vector<std::uint32_t>& ids) {
  return gate_groups(dataset, centroids, t0, t1, assignments, drift,
                     GroupSplit{centroids.rows(), 1},
                     std::span<const DriftDigest>(&digest, 1), safe, 0, upper,
                     lower, tighten, GateSurvivors{ids});
}

/// Merge one sample's group records into its assignment and refresh its
/// bounds. `records[g]` is group g's top-two record when bit g of `scan`
/// is set (the group was scored), ignored otherwise. Groups merge in
/// ascending order with a strict `<`, so ties go to the lowest index, as
/// in a serial left-to-right scan. A skipped group offers nothing, except
/// the group of the stored assignment `a`, which offers `a` at its exact
/// squared distance `assigned_sq`: every other centroid of a skipped group
/// is strictly farther than `a`, so the merge sees every centroid that can
/// reach the minimum and the winner is bit-identical to a full scan.
///
/// Bounds: upper becomes the winner's exact distance. A scored group's
/// lower becomes its runner-up's exact distance when it holds the winner,
/// else its best's. A skipped group keeps its (decayed) bound, except that
/// the group of `a` must now also cover `a` if the sample moved away:
/// min(lower, old exact distance). With one group this is refresh_bounds.
/// Returns the winner.
template <typename MinLocT>
  requires HasSecond<MinLocT>
inline std::uint32_t merge_group_records(std::span<const MinLocT* const> records,
                                         std::uint32_t scan,
                                         const GroupSplit& split,
                                         std::uint32_t a, double assigned_sq,
                                         double& upper, double* lower) {
  const std::size_t ga = split.group_of(a);
  double best = std::numeric_limits<double>::max();
  std::uint64_t winner = a;
  for (std::size_t g = 0; g < split.groups; ++g) {
    if ((scan >> g & 1u) != 0) {
      if (records[g]->value < best) {
        best = records[g]->value;
        winner = records[g]->index;
      }
    } else if (g == ga && assigned_sq < best) {
      best = assigned_sq;
      winner = a;
    }
  }
  const double old_upper = upper;
  upper = std::sqrt(best);
  for (std::size_t g = 0; g < split.groups; ++g) {
    if ((scan >> g & 1u) != 0) {
      const MinLocT& rec = *records[g];
      lower[g] = std::sqrt(rec.index == winner ? rec.second : rec.value);
    } else if (g == ga && winner != a) {
      lower[g] = std::min(lower[g], old_upper);
    }
  }
  return static_cast<std::uint32_t>(winner);
}

/// Refresh a sample's bounds from a freshly swept top-two record: both
/// become exact (sqrt of the squared best / second-best distances). The
/// one-group merge.
template <typename MinLocT>
  requires HasSecond<MinLocT>
inline void refresh_bounds(const MinLocT& rec, double& upper, double& lower) {
  const MinLocT* const records[1] = {&rec};
  merge_group_records<MinLocT>(records, 1, GroupSplit{1, 1}, 0,
                               std::numeric_limits<double>::quiet_NaN(),
                               upper, &lower);
}

/// Update accumulator in double: sums and counts for the centroid rows
/// [row_begin, row_end) of k, stored from row_begin (rows() x d sums,
/// rows() counts). All k rows by default; a Level 3 CG keeps only its
/// slice. A row it does not hold is one whose partials are +0.0 on this
/// rank, which is how reduce_and_update folds it.
struct UpdateAccumulator {
  explicit UpdateAccumulator(std::size_t k, std::size_t d)
      : UpdateAccumulator(k, d, 0, k) {}
  UpdateAccumulator(std::size_t k, std::size_t d, std::size_t row_begin,
                    std::size_t row_end)
      : k_(k),
        d_(d),
        row_begin_(row_begin),
        row_end_(row_end),
        sums((row_end - row_begin) * d, 0.0),
        counts(row_end - row_begin, 0.0) {}

  /// Add sample x to centroid j, which must lie in [row_begin, row_end).
  void add_sample(std::uint32_t j, std::span<const float> x) {
    const std::size_t r = j - row_begin_;
    double* row = sums.data() + r * d_;
    for (std::size_t u = 0; u < d_; ++u) {
      row[u] += static_cast<double>(x[u]);
    }
    counts[r] += 1.0;
  }

  void reset() {
    sums.assign(sums.size(), 0.0);
    counts.assign(counts.size(), 0.0);
  }

  std::size_t k() const { return k_; }
  std::size_t d() const { return d_; }
  std::size_t row_begin() const { return row_begin_; }
  std::size_t row_end() const { return row_end_; }
  std::size_t rows() const { return row_end_ - row_begin_; }

  std::size_t k_;
  std::size_t d_;
  std::size_t row_begin_;
  std::size_t row_end_;
  std::vector<double> sums;
  std::vector<double> counts;
};

/// What one update pass did: the largest Euclidean centroid shift, plus
/// how many clusters had no members and were frozen in place. Surfacing
/// the empty count (instead of silently freezing) is what makes a stalled
/// run diagnosable.
struct UpdateOutcome {
  double shift = 0;
  std::size_t empty_clusters = 0;
};

/// Move centroid rows [j_begin, j_end) to the mean of their assigned
/// samples, where `sums`/`counts` hold *just those rows* ((j_end-j_begin)
/// x d and (j_end-j_begin) entries) — the per-shard kernel of the sharded
/// update phase. A row with no samples keeps its position (the
/// empty-cluster rule every level shares) and is counted. Each row's
/// arithmetic is independent, and max/sqrt commute, so sharding the rows
/// over ranks and max-combining the shifts is bit-identical to one full
/// k-row pass.
/// When `row_drift` is non-null it receives, per row, the Euclidean
/// distance the stored centroid moved ((j_end - j_begin) entries; 0 for a
/// frozen empty row). The per-row sum is the ascending-u accumulation of
/// squared float-position diffs in double — the exact operation sequence
/// of sqrt(squared_distance(old_row, new_row)) — so published drifts are
/// bit-identical to a recomputation from a kept copy of the old snapshot.
inline UpdateOutcome apply_update_rows(util::Matrix& centroids,
                                       std::size_t j_begin, std::size_t j_end,
                                       std::span<const double> sums,
                                       std::span<const double> counts,
                                       double* row_drift = nullptr) {
  const std::size_t d = centroids.cols();
  double worst_shift_sq = 0;
  std::size_t empty = 0;
  for (std::size_t j = j_begin; j < j_end; ++j) {
    if (counts[j - j_begin] <= 0) {
      ++empty;
      if (row_drift != nullptr) {
        row_drift[j - j_begin] = 0.0;
      }
      continue;
    }
    double shift_sq = 0;
    const double inv = 1.0 / counts[j - j_begin];
    std::span<float> row = centroids.row(j);
    const double* sum_row = sums.data() + (j - j_begin) * d;
    for (std::size_t u = 0; u < d; ++u) {
      const float previous = row[u];
      row[u] = static_cast<float>(sum_row[u] * inv);
      // Shift is measured between *stored* (float) positions: a stable
      // centroid must report exactly zero movement, or float rounding
      // residue would keep the run from ever converging.
      const double diff =
          static_cast<double>(row[u]) - static_cast<double>(previous);
      shift_sq += diff * diff;
    }
    if (row_drift != nullptr) {
      row_drift[j - j_begin] = shift_sq > 0 ? std::sqrt(shift_sq) : 0.0;
    }
    worst_shift_sq = worst_shift_sq > shift_sq ? worst_shift_sq : shift_sq;
  }
  return {worst_shift_sq > 0 ? std::sqrt(worst_shift_sq) : 0.0, empty};
}

/// Full-range update over all k rows (serial baselines and single-shard
/// callers).
inline UpdateOutcome apply_update(util::Matrix& centroids,
                                  std::span<const double> sums,
                                  std::span<const double> counts) {
  return apply_update_rows(centroids, 0, centroids.rows(), sums, counts);
}

/// One warning per run (not per iteration) when the final update froze
/// empty clusters — the classic cause of a k-means run stalling below the
/// requested k. Callers pass the engine name so logs identify the run.
inline void warn_empty_clusters(std::size_t count, const char* engine) {
  if (count > 0) {
    SWHKM_WARN_AT(engine, -1, -1)
        << count
        << " empty cluster(s) kept their previous position in the "
           "final iteration; consider k-means++ seeding or smaller k";
  }
}

}  // namespace swhkm::core::detail
