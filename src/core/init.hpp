#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/kmeans.hpp"
#include "data/dataset.hpp"
#include "util/matrix.hpp"

namespace swhkm::core {

/// Produce the k x d initial centroid matrix for `config`. Deterministic in
/// (dataset, config) — every engine level and the serial baseline start
/// from bit-identical centroids, which is what lets the tests demand
/// identical trajectories. Throws InvalidArgument, naming the row and
/// column, if any sample holds a NaN or an infinity.
util::Matrix init_centroids(const data::Dataset& dataset,
                            const KmeansConfig& config);

namespace detail {

/// Threads of the seeding team for n samples of d elements: one per 2^16
/// sample elements, at least 1 and at most min(hardware threads, n). The
/// finite-sample checks at seeding and at engine entry split on it too.
std::size_t sweep_threads(std::size_t n, std::size_t d);

/// Throws InvalidArgument naming the row and column of the first NaN or
/// infinity among the samples. Seeding needs it (a non-finite sample's
/// D^2 weight is NaN or inf, and the weighted pick then lands on it almost
/// surely), and so do the engines, which take caller-supplied centroids
/// and never see init_centroids. With `threads` > 1 the rows are split
/// over that many threads; the lowest bad row is still the one named.
void require_finite(const data::Dataset& dataset, std::size_t threads = 1);

/// What the k-means++ sweeps of one init_plus_plus call did. Over the k - 1
/// sweeps, distances + skipped + filtered = n * (k - 1).
struct SeedingStats {
  std::uint64_t distances = 0;     ///< sample-to-seed distances computed
  std::uint64_t skipped = 0;       ///< ruled out by the triangle inequality
  std::uint64_t filtered = 0;      ///< ruled out by the fp32 bound
  std::uint64_t pruned_picks = 0;  ///< sweeps that ran the skip test
  std::uint64_t pick_fallbacks = 0;  ///< picks that ran the serial scan
};

/// Rows [previous block's end, end) of the k-means++ weights and their sum
/// (any summation order).
struct WeightBlock {
  std::size_t end = 0;
  double sum = 0;
};

/// The row a k-means++ pick chooses, and whether the blocked selection
/// could not certify it and the serial scan ran instead.
struct WeightedPick {
  std::size_t row = 0;
  bool fell_back = false;
};

/// The row the serial selection scan picks for uniform draw `u` in [0, 1):
/// target = u * (weights summed in index order), then the first untaken
/// row at which subtracting the untaken weights in index order leaves
/// target <= 0, or the last untaken row if rounding leaves it positive.
/// The blocked selection walks `blocks` (which tile the rows) to the block
/// the goal falls in and scans at most that block, accepting a row only
/// when both prefixes around it clear the rounding margin of DESIGN.md §15;
/// otherwise it runs the serial scan itself. Weights are finite and
/// non-negative, at least one row is untaken, and taken rows before the
/// goal's block weigh zero (a k-means++ seed is at distance 0 from itself).
WeightedPick weighted_pick(std::span<const double> weights,
                           std::span<const char> taken,
                           std::span<const WeightBlock> blocks, double u);

/// The k-means++ path of init_centroids with its distance sweep split over
/// `threads` host threads (init_centroids sizes the team from n * d and the
/// host) and pruned by the triangle inequality where that pays (DESIGN.md
/// §15). The result is byte-identical for every `threads` >= 1. `stats`,
/// when given, receives the sweep counts.
util::Matrix init_plus_plus(const data::Dataset& dataset, std::size_t k,
                            std::uint64_t seed, std::size_t threads,
                            SeedingStats* stats = nullptr);

}  // namespace detail

}  // namespace swhkm::core
