#include "core/hamerly.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/engine_util.hpp"
#include "core/init.hpp"
#include "core/metrics.hpp"
#include "util/error.hpp"

namespace swhkm::core {

namespace {

double euclidean(std::span<const float> a, std::span<const float> b) {
  return std::sqrt(detail::squared_distance(a, b));
}

}  // namespace

KmeansResult hamerly_serial_from(const data::Dataset& dataset,
                                 const KmeansConfig& config,
                                 util::Matrix centroids, AccelStats* stats) {
  SWHKM_REQUIRE(centroids.rows() == config.k, "centroid count must equal k");
  SWHKM_REQUIRE(centroids.cols() == dataset.d(),
                "centroid dimensionality must match the data");
  const std::size_t n = dataset.n();
  const std::size_t k = config.k;

  AccelStats local_stats;
  AccelStats& st = stats ? *stats : local_stats;

  KmeansResult result;
  result.assignments.assign(n, 0);
  std::vector<double> upper(n, 0.0);
  std::vector<double> lower(n, 0.0);  // bound on the second-closest centroid
  std::vector<double> drift(k, 0.0);
  std::vector<double> safe;  // half distance to nearest other centre
  detail::UpdateAccumulator acc(k, dataset.d());
  util::Matrix previous = centroids;

  auto scan_all = [&](std::size_t i) {
    const auto x = dataset.sample(i);
    double best = std::numeric_limits<double>::max();
    double second = std::numeric_limits<double>::max();
    std::uint32_t best_j = 0;
    for (std::uint32_t j = 0; j < k; ++j) {
      const double dist = euclidean(x, centroids.row(j));
      ++st.distance_computations;
      if (dist < best) {
        second = best;
        best = dist;
        best_j = j;
      } else if (dist < second) {
        second = dist;
      }
    }
    result.assignments[i] = best_j;
    upper[i] = best;
    lower[i] = second;
  };

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    acc.reset();
    st.lloyd_equivalent += static_cast<std::uint64_t>(n) * k;
    // Each unordered pair is scored once; its distance is symmetric bit
    // for bit, so both rows get the exact radius.
    detail::compute_safe_radii(centroids, safe);
    st.centroid_distance_computations += k * (k - 1) / 2;

    // The lower bound tracks the second-closest centroid, which is never
    // the assigned one — so it only needs to absorb the largest drift
    // among the *other* centroids. The top-two digest makes that
    // exclusion O(1) per sample.
    const detail::DriftDigest digest = detail::drift_digest(drift);

    for (std::size_t i = 0; i < n; ++i) {
      if (iter == 0) {
        scan_all(i);
      } else {
        const std::uint32_t a = result.assignments[i];
        upper[i] += drift[a];
        lower[i] -= detail::drift_excluding(digest, a);
        const double threshold = std::max(safe[a], lower[i]);
        if (upper[i] > threshold) {
          // Tighten the upper bound; rescan only if still unsafe.
          upper[i] = euclidean(dataset.sample(i), centroids.row(a));
          ++st.distance_computations;
          if (upper[i] > threshold) {
            scan_all(i);
          }
        }
      }
      acc.add_sample(result.assignments[i], dataset.sample(i));
    }

    previous = centroids;
    const detail::UpdateOutcome outcome =
        detail::apply_update(centroids, acc.sums, acc.counts);
    const double shift = outcome.shift;
    result.empty_clusters = outcome.empty_clusters;
    for (std::uint32_t j = 0; j < k; ++j) {
      drift[j] = euclidean(previous.row(j), centroids.row(j));
    }
    result.iterations = iter + 1;
    result.history.push_back({shift, 0.0});
    if (shift <= config.tolerance) {
      result.converged = true;
      break;
    }
  }

  detail::warn_empty_clusters(result.empty_clusters, "hamerly");
  result.inertia = inertia(dataset, centroids, result.assignments);
  result.centroids = std::move(centroids);
  return result;
}

KmeansResult hamerly_serial(const data::Dataset& dataset,
                            const KmeansConfig& config, AccelStats* stats) {
  return hamerly_serial_from(dataset, config, init_centroids(dataset, config),
                             stats);
}

}  // namespace swhkm::core
