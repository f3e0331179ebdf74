#include "core/out_of_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/engine_util.hpp"
#include "core/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swhkm::core {

namespace {

/// Streaming replicas of init.cpp's seeding strategies: same PRNG
/// consumption, same selections, so lloyd_out_of_core matches
/// lloyd_serial bit for bit on the same data and seed.
util::Matrix init_out_of_core(const data::BinaryDatasetReader& reader,
                              const KmeansConfig& config,
                              std::size_t chunk_rows) {
  const std::size_t n = reader.n();
  const std::size_t d = reader.d();
  const std::size_t k = config.k;
  SWHKM_REQUIRE(k > 0 && k <= n, "k must be in [1, n]");

  switch (config.init) {
    case InitMethod::kFirstK:
      return reader.read_rows(0, k);
    case InitMethod::kRandom: {
      // Same partial Fisher-Yates as init.cpp (depends only on n, seed).
      util::Xoshiro256 rng(config.seed);
      std::vector<std::size_t> indices(n);
      for (std::size_t i = 0; i < n; ++i) {
        indices[i] = i;
      }
      std::vector<std::size_t> rows(k);
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t pick = j + rng.below(indices.size() - j);
        std::swap(indices[j], indices[pick]);
        rows[j] = indices[j];
      }
      util::Matrix centroids(k, d);
      for (std::size_t j = 0; j < k; ++j) {
        const util::Matrix row = reader.read_rows(rows[j], 1);
        std::copy(row.row(0).begin(), row.row(0).end(),
                  centroids.row(j).begin());
      }
      return centroids;
    }
    case InitMethod::kPlusPlus: {
      util::Xoshiro256 rng(config.seed);
      std::vector<std::size_t> chosen;
      chosen.reserve(k);
      chosen.push_back(rng.below(n));
      // O(n) doubles of working state; samples themselves stay on disk.
      std::vector<double> nearest(n, std::numeric_limits<double>::max());
      util::Matrix centroids(k, d);
      {
        const util::Matrix row = reader.read_rows(chosen[0], 1);
        std::copy(row.row(0).begin(), row.row(0).end(),
                  centroids.row(0).begin());
      }
      while (chosen.size() < k) {
        const std::span<const float> latest =
            centroids.row(chosen.size() - 1);
        double total = 0;
        reader.for_each_chunk(
            chunk_rows, [&](const util::Matrix& chunk, std::size_t first) {
              detail::nearest_sweep(chunk.data(), chunk.rows(), d, latest,
                                    nearest.data() + first);
              for (std::size_t r = 0; r < chunk.rows(); ++r) {
                total += nearest[first + r];
              }
            });
        std::size_t pick = n - 1;
        if (total <= 0) {
          pick = rng.below(n);
        } else {
          double target = rng.uniform() * total;
          for (std::size_t i = 0; i < n; ++i) {
            target -= nearest[i];
            if (target <= 0) {
              pick = i;
              break;
            }
          }
        }
        const util::Matrix row = reader.read_rows(pick, 1);
        std::copy(row.row(0).begin(), row.row(0).end(),
                  centroids.row(chosen.size()).begin());
        chosen.push_back(pick);
      }
      return centroids;
    }
  }
  throw InvalidArgument("unknown init method");
}

}  // namespace

std::vector<std::uint32_t> assign_out_of_core(
    const data::BinaryDatasetReader& reader, const util::Matrix& centroids,
    std::size_t chunk_rows) {
  SWHKM_REQUIRE(centroids.cols() == reader.d(),
                "centroid dimensionality does not match the file");
  std::vector<std::uint32_t> labels(reader.n());
  reader.for_each_chunk(
      chunk_rows, [&](const util::Matrix& chunk, std::size_t first) {
        for (std::size_t r = 0; r < chunk.rows(); ++r) {
          labels[first + r] =
              detail::nearest_in_slice(chunk.row(r), centroids, 0,
                                       centroids.rows())
                  .second;
        }
      });
  return labels;
}

KmeansResult lloyd_out_of_core(const data::BinaryDatasetReader& reader,
                               const KmeansConfig& config,
                               std::size_t chunk_rows) {
  util::Matrix centroids = init_out_of_core(reader, config, chunk_rows);
  const std::size_t k = config.k;
  const std::size_t d = reader.d();

  KmeansResult result;
  result.assignments.assign(reader.n(), 0);
  detail::UpdateAccumulator acc(k, d);

  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    acc.reset();
    reader.for_each_chunk(
        chunk_rows, [&](const util::Matrix& chunk, std::size_t first) {
          for (std::size_t r = 0; r < chunk.rows(); ++r) {
            const auto x = chunk.row(r);
            const auto [dist, j] =
                detail::nearest_in_slice(x, centroids, 0, k);
            (void)dist;
            result.assignments[first + r] = j;
            acc.add_sample(j, x);
          }
        });
    const detail::UpdateOutcome outcome =
        detail::apply_update(centroids, acc.sums, acc.counts);
    const double shift = outcome.shift;
    result.empty_clusters = outcome.empty_clusters;
    result.iterations = iter + 1;
    result.history.push_back({shift, 0.0});
    if (shift <= config.tolerance) {
      result.converged = true;
      break;
    }
  }

  detail::warn_empty_clusters(result.empty_clusters, "out_of_core");

  // Final objective with one more streaming pass.
  double total = 0;
  reader.for_each_chunk(
      chunk_rows, [&](const util::Matrix& chunk, std::size_t first) {
        for (std::size_t r = 0; r < chunk.rows(); ++r) {
          total += detail::squared_distance(
              chunk.row(r), centroids.row(result.assignments[first + r]));
        }
      });
  result.inertia = reader.n() > 0
                       ? total / static_cast<double>(reader.n())
                       : 0.0;
  result.centroids = std::move(centroids);
  return result;
}

}  // namespace swhkm::core
