#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/engine_common.hpp"
#include "core/engine_util.hpp"
#include "core/hkmeans.hpp"
#include "data/synthetic.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "util/matrix.hpp"

namespace swhkm::core {
namespace {

/// Association-sensitive deterministic value: magnitudes spread over ~12
/// binary orders so any change in FP summation order shows up in the bits.
double spread_value(std::size_t rank, std::size_t i) {
  const int e = static_cast<int>((i * 13 + rank * 7) % 25) - 12;
  return std::ldexp(1.0 + 0.001 * static_cast<double>(i) +
                        0.01 * static_cast<double>(rank),
                    e);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// reduce()'s exact association: at step s, rank r (r % 2s == 0) absorbs
/// rank r+s with the lower subtree as the inout operand.
std::vector<double> binomial_fold(std::vector<std::vector<double>> parts) {
  const std::size_t size = parts.size();
  for (std::size_t s = 1; s < size; s <<= 1) {
    for (std::size_t r = 0; r + s < size; r += 2 * s) {
      for (std::size_t i = 0; i < parts[r].size(); ++i) {
        parts[r][i] += parts[r + s][i];
      }
    }
  }
  return parts[0];
}

class ShardedCollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedCollectiveTest, AllgathervConcatenatesInRankOrder) {
  const int size = GetParam();
  swmpi::run_spmd(size, [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    // Ragged contributions, rank 0's empty.
    std::vector<std::uint64_t> mine(rank % 4);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = rank * 1000 + i;
    }
    const std::vector<std::uint64_t> all = swmpi::allgatherv(
        comm, std::span<const std::uint64_t>(mine.data(), mine.size()));
    std::vector<std::uint64_t> expected;
    for (std::size_t r = 0; r < static_cast<std::size_t>(size); ++r) {
      for (std::size_t i = 0; i < r % 4; ++i) {
        expected.push_back(r * 1000 + i);
      }
    }
    EXPECT_EQ(all, expected) << "size=" << size << " rank=" << rank;
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, ShardedCollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

/// One (size, k, d) cell: run the sharded reduce_and_update against a
/// serial reference that reproduces the former root-serialized path —
/// binomial fold of the per-rank partials, one full-range apply — and
/// demand bit-identical centroids plus equal shift/empty stats on every
/// rank.
void expect_matches_root_serialized(int size, std::size_t k, std::size_t d) {
  util::Matrix initial(k, d);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t u = 0; u < d; ++u) {
      initial.at(j, u) = static_cast<float>((j * 31 + u * 7) % 11) - 5.0f;
    }
  }
  // Per-rank partials; cluster j stays empty on every rank when j%3==2.
  std::vector<std::vector<double>> sums_parts(size);
  std::vector<std::vector<double>> counts_parts(size);
  for (int r = 0; r < size; ++r) {
    sums_parts[r].resize(k * d);
    counts_parts[r].resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      if (j % 3 == 2) {
        continue;
      }
      counts_parts[r][j] = static_cast<double>((r + j) % 3 + 1);
      for (std::size_t u = 0; u < d; ++u) {
        sums_parts[r][j * d + u] =
            spread_value(static_cast<std::size_t>(r), j * d + u);
      }
    }
  }
  const std::vector<double> ref_sums = binomial_fold(sums_parts);
  const std::vector<double> ref_counts = binomial_fold(counts_parts);
  util::Matrix ref_centroids = initial;
  const detail::UpdateOutcome ref =
      detail::apply_update(ref_centroids, ref_sums, ref_counts);

  util::Matrix centroids = initial;
  swmpi::run_spmd(size, [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    detail::UpdateAccumulator acc(k, d);
    acc.sums = sums_parts[rank];
    acc.counts = counts_parts[rank];
    const detail::UpdateOutcome got =
        detail::reduce_and_update(comm, centroids, acc);
    EXPECT_EQ(bits(got.shift), bits(ref.shift))
        << "size=" << size << " k=" << k << " rank=" << rank;
    EXPECT_EQ(got.empty_clusters, ref.empty_clusters)
        << "size=" << size << " k=" << k << " rank=" << rank;
  });
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t u = 0; u < d; ++u) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(centroids.at(j, u)),
                std::bit_cast<std::uint32_t>(ref_centroids.at(j, u)))
          << "size=" << size << " k=" << k << " j=" << j << " u=" << u;
    }
  }
}

TEST(ShardedUpdate, RaggedShards) {
  // k not divisible by the rank count.
  expect_matches_root_serialized(3, 10, 4);
  expect_matches_root_serialized(4, 10, 3);
  expect_matches_root_serialized(5, 13, 2);
  expect_matches_root_serialized(8, 13, 3);
}

TEST(ShardedUpdate, FewerClustersThanRanks) {
  expect_matches_root_serialized(5, 3, 4);
  expect_matches_root_serialized(8, 2, 3);
  expect_matches_root_serialized(16, 5, 2);
}

TEST(ShardedUpdate, SingleRankFallThrough) {
  expect_matches_root_serialized(1, 7, 3);
}

/// Integer-valued samples make every accumulator sum exact in double
/// regardless of association, so the engines must match serial Lloyd
/// bit-for-bit — an honest cross-engine determinism check (with real-valued
/// data the bit match additionally leans on the reduce_scatter association
/// proof covered above).
TEST(ShardedUpdate, EnginesMatchSerialLloydBitForBit) {
  const std::size_t n = 97;
  const std::size_t d = 5;
  std::vector<float> values(n * d);
  std::uint64_t state = 12345;
  for (float& v : values) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<float>((state >> 33) % 17) - 8.0f;
  }
  const data::Dataset ds("int-grid",
                         util::Matrix::from_vector(n, d, std::move(values)));
  KmeansConfig config;
  config.k = 7;
  config.max_iterations = 10;
  const simarch::MachineConfig machine = simarch::MachineConfig::tiny(2, 4,
                                                                      8192);
  const KmeansResult ref = lloyd_serial(ds, config);
  for (const Level level :
       {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    const KmeansResult got = run_level(level, ds, config, machine);
    EXPECT_EQ(got.iterations, ref.iterations) << level_name(level);
    EXPECT_EQ(got.assignments, ref.assignments) << level_name(level);
    EXPECT_EQ(got.empty_clusters, ref.empty_clusters) << level_name(level);
    ASSERT_EQ(got.centroids.rows(), ref.centroids.rows());
    for (std::size_t j = 0; j < config.k; ++j) {
      for (std::size_t u = 0; u < d; ++u) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.centroids.at(j, u)),
                  std::bit_cast<std::uint32_t>(ref.centroids.at(j, u)))
            << level_name(level) << " j=" << j << " u=" << u;
      }
    }
  }
}

/// The hierarchical collective schedule across a supernode boundary must
/// not move a bit. tiny(8, 4, ...) spans two supernodes (16 CGs, eight per
/// supernode), so every engine collective runs the two-level path with a
/// live inter-supernode stage. Real-valued samples: unlike the integer
/// grid above, the accumulator sums here are association-sensitive, so
/// this match leans on the schedule's fold-order proof end to end.
TEST(ShardedUpdate, HierCollectivesBitIdenticalAcrossSupernodes) {
  const std::size_t n = 257;
  const std::size_t d = 6;
  std::vector<float> values(n * d);
  std::uint64_t state = 99991;
  for (float& v : values) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<float>((state >> 33) % 4096) / 256.0f - 8.0f;
  }
  const data::Dataset ds("real-blobs",
                         util::Matrix::from_vector(n, d, std::move(values)));
  KmeansConfig config;
  config.k = 9;
  config.max_iterations = 8;
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(8, 4, 8192);
  ASSERT_GT(machine.num_supernodes(), 1u);
  const KmeansResult ref = lloyd_serial(ds, config);
  for (const Level level :
       {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    KmeansConfig hier_cfg = config;
    hier_cfg.hier_collectives = true;
    KmeansConfig flat_cfg = config;
    flat_cfg.hier_collectives = false;
    const KmeansResult hier = run_level(level, ds, hier_cfg, machine);
    const KmeansResult flat = run_level(level, ds, flat_cfg, machine);
    // The inter-supernode stage ran, so it was priced.
    std::uint64_t crossing = 0;
    for (const IterationStats& it : hier.history) {
      crossing += it.net_crossing_bytes;
    }
    EXPECT_GT(crossing, 0u) << level_name(level);
    EXPECT_EQ(hier.iterations, ref.iterations) << level_name(level);
    EXPECT_EQ(hier.assignments, ref.assignments) << level_name(level);
    EXPECT_EQ(flat.iterations, hier.iterations) << level_name(level);
    EXPECT_EQ(flat.assignments, hier.assignments) << level_name(level);
    ASSERT_EQ(hier.centroids.rows(), ref.centroids.rows());
    for (std::size_t j = 0; j < config.k; ++j) {
      for (std::size_t u = 0; u < d; ++u) {
        const auto hier_bits =
            std::bit_cast<std::uint32_t>(hier.centroids.at(j, u));
        EXPECT_EQ(hier_bits,
                  std::bit_cast<std::uint32_t>(ref.centroids.at(j, u)))
            << level_name(level) << " vs serial, j=" << j << " u=" << u;
        EXPECT_EQ(hier_bits,
                  std::bit_cast<std::uint32_t>(flat.centroids.at(j, u)))
            << level_name(level) << " vs flat, j=" << j << " u=" << u;
      }
    }
  }

  // Level 3 with a multi-CG group (m' = 4, so every tile runs an assign
  // combine), gate and GEMM on, and s-step spans of two tiles draining
  // through the hierarchical SplitAllreduce, run to convergence.
  const data::Dataset blobs = data::make_blobs(2048, 16, 12, 717);
  KmeansConfig l3_cfg;
  l3_cfg.k = 24;
  l3_cfg.max_iterations = 30;
  l3_cfg.tolerance = 0;
  l3_cfg.sstep_tiles = 2;
  l3_cfg.tile_samples = 64;
  constexpr std::size_t kMprime = 4;
  const KmeansResult l3_ref = lloyd_serial(blobs, l3_cfg);
  l3_cfg.hier_collectives = true;
  const KmeansResult l3_hier =
      run_level(Level::kLevel3, blobs, l3_cfg, machine, 0, kMprime);
  l3_cfg.hier_collectives = false;
  const KmeansResult l3_flat =
      run_level(Level::kLevel3, blobs, l3_cfg, machine, 0, kMprime);
  EXPECT_EQ(l3_hier.assign_kernel, "gemm");
  EXPECT_GT(l3_hier.gated_iterations, 0u);
  EXPECT_EQ(l3_flat.assign_kernel, "gemm");
  EXPECT_GT(l3_flat.gated_iterations, 0u);
  std::uint64_t l3_crossing = 0;
  for (const IterationStats& it : l3_hier.history) {
    l3_crossing += it.net_crossing_bytes;
  }
  EXPECT_GT(l3_crossing, 0u);
  EXPECT_EQ(l3_hier.iterations, l3_ref.iterations);
  EXPECT_EQ(l3_flat.iterations, l3_ref.iterations);
  EXPECT_EQ(l3_hier.assignments, l3_ref.assignments);
  EXPECT_EQ(l3_flat.assignments, l3_ref.assignments);
  ASSERT_EQ(l3_hier.centroids.size(), l3_ref.centroids.size());
  ASSERT_EQ(l3_flat.centroids.size(), l3_ref.centroids.size());
  const std::size_t l3_bytes = l3_ref.centroids.size() * sizeof(float);
  EXPECT_EQ(std::memcmp(l3_hier.centroids.data(), l3_ref.centroids.data(),
                        l3_bytes),
            0);
  EXPECT_EQ(std::memcmp(l3_hier.centroids.data(), l3_flat.centroids.data(),
                        l3_bytes),
            0);
}

/// Duplicate first-k seeds leave the duplicate centroids with no members:
/// serial Lloyd and all three engines must report the same (nonzero)
/// empty-cluster count instead of silently freezing them.
TEST(ShardedUpdate, EmptyClustersReportedConsistently) {
  const std::size_t n = 40;
  const std::size_t d = 2;
  std::vector<float> values(n * d, 0.0f);
  for (std::size_t i = 4; i < n; ++i) {
    values[i * d] = 10.0f + static_cast<float>(i % 3);
    values[i * d + 1] = 10.0f;
  }
  const data::Dataset ds("dup-seeds",
                         util::Matrix::from_vector(n, d, std::move(values)));
  KmeansConfig config;
  config.k = 4;  // first-k init: all four seeds are the same point
  config.max_iterations = 10;
  const simarch::MachineConfig machine = simarch::MachineConfig::tiny(2, 4,
                                                                      8192);
  const KmeansResult ref = lloyd_serial(ds, config);
  EXPECT_GT(ref.empty_clusters, 0u);
  for (const Level level :
       {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    const KmeansResult got = run_level(level, ds, config, machine);
    EXPECT_EQ(got.empty_clusters, ref.empty_clusters) << level_name(level);
  }
}

}  // namespace
}  // namespace swhkm::core
