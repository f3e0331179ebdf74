#pragma once

#include <cstdint>

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

/// Throws InvalidArgument naming the row and column of the first NaN or
/// infinity among the samples. Seeding needs it (a non-finite sample's
/// D^2 weight is NaN or inf, and the weighted pick then lands on it almost
/// surely), and so do the engines, which take caller-supplied centroids
/// and never see init_centroids.
void require_finite(const data::Dataset& dataset);

/// What the k-means++ sweeps of one init_plus_plus call did. Over the k - 1
/// sweeps, distances + skipped = n * (k - 1).
struct SeedingStats {
  std::uint64_t distances = 0;     ///< sample-to-seed distances computed
  std::uint64_t skipped = 0;       ///< ruled out by the triangle inequality
  std::uint64_t pruned_picks = 0;  ///< sweeps that ran the skip test
};

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
