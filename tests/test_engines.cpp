#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "core/hkmeans.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

/// Run `level` and serial Lloyd from the same init and demand identical
/// trajectories (assignments exact, centroids to FP-accumulation slop).
void expect_matches_serial(Level level, const data::Dataset& ds,
                           const KmeansConfig& config,
                           const MachineConfig& machine) {
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(level, ds, config, machine);
  EXPECT_EQ(got.iterations, ref.iterations) << level_name(level);
  EXPECT_EQ(got.converged, ref.converged) << level_name(level);
  EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
      << level_name(level);
  EXPECT_LT(centroid_max_abs_diff(got.centroids, ref.centroids), 1e-4)
      << level_name(level);
  EXPECT_NEAR(got.inertia, ref.inertia, 1e-6 * (1.0 + ref.inertia))
      << level_name(level);
}

/// Run `level`'s engine directly on caller-supplied centroids.
KmeansResult run_with_centroids(Level level, const data::Dataset& ds,
                                const KmeansConfig& config,
                                const MachineConfig& machine,
                                const PartitionPlan& plan,
                                util::Matrix centroids) {
  switch (level) {
    case Level::kLevel1:
      return run_level1(ds, config, machine, plan, std::move(centroids));
    case Level::kLevel2:
      return run_level2(ds, config, machine, plan, std::move(centroids));
    case Level::kLevel3:
      return run_level3(ds, config, machine, plan, std::move(centroids));
  }
  return {};
}

class EngineLevelTest : public ::testing::TestWithParam<Level> {};

TEST_P(EngineLevelTest, MatchesSerialOnBlobs) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(400, 12, 5, 42);
  KmeansConfig config;
  config.k = 5;
  config.max_iterations = 15;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, MatchesSerialOnUniformNoise) {
  // Uniform noise exercises many near-tie argmin decisions.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(300, 6, 7);
  KmeansConfig config;
  config.k = 8;
  config.max_iterations = 8;
  config.init = InitMethod::kRandom;
  config.seed = 3;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, MatchesSerialWithKmeansPlusPlus) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_blobs(120, 4, 3, 5);
  KmeansConfig config;
  config.k = 3;
  config.init = InitMethod::kPlusPlus;
  config.max_iterations = 10;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, KEqualsOne) {
  const MachineConfig machine = MachineConfig::tiny(1, 2, 8192);
  const data::Dataset ds = data::make_uniform(50, 3, 2);
  KmeansConfig config;
  config.k = 1;
  config.max_iterations = 4;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, FewerSamplesThanWorkers) {
  // 2 nodes x 2 CGs x 4 CPEs = 16 CPEs but only 5 samples: some flow units
  // stay idle and the result must still be exact.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(5, 3, 8);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 6;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, SingleDimension) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(64, 1, 13);
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 10;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, NonDividingShapes) {
  // n, k, d all prime: block ranges and slices are ragged everywhere.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(97, 13, 3);
  KmeansConfig config;
  config.k = 7;
  config.max_iterations = 7;
  expect_matches_serial(GetParam(), ds, config, machine);
}

TEST_P(EngineLevelTest, ChargesSimulatedTime) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_blobs(100, 8, 2, 3);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 3;
  config.tolerance = -1;  // force all 3 iterations
  const KmeansResult result = run_level(GetParam(), ds, config, machine);
  EXPECT_GT(result.cost.total_s(), 0.0);
  EXPECT_GT(result.last_iteration_cost.total_s(), 0.0);
  EXPECT_GT(result.cost.compute_s, 0.0);
  EXPECT_GT(result.cost.dma_bytes, 0u);
  // Total across 3 identical-shape iterations ≈ 3x the last one.
  EXPECT_NEAR(result.cost.total_s(),
              3 * result.last_iteration_cost.total_s(),
              0.5 * result.cost.total_s());
  // Every engine moves at least the dataset once per iteration.
  EXPECT_GE(result.cost.dma_bytes,
            3 * ds.n() * ds.d() * machine.elem_bytes);
}

TEST_P(EngineLevelTest, PipelinedTilesMatchSerialAndHideTraffic) {
  // The double-buffered tile pipeline is the engines' only tile loop. It
  // reorders execution only: trajectories must match serial Lloyd byte for
  // byte, and the overlap ledger must record what the shortened critical
  // path saved.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(300, 10, 4, 11);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 10;
  config.tile_samples = 8;  // force several tiles per worker at every level
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  ASSERT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.assignments, ref.assignments);
  ASSERT_EQ(got.centroids.size(), ref.centroids.size());
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0);
  EXPECT_GT(got.cost.overlapped_dma_s + got.cost.overlapped_net_s, 0.0);
}

TEST_P(EngineLevelTest, FlopAccountingMatches2nkd) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(60, 4, 5);
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 1;
  config.tolerance = -1;
  const KmeansResult result = run_level(GetParam(), ds, config, machine);
  // Level 3 counts per-slice work; every level must land on 2nkd total.
  EXPECT_EQ(result.cost.flops, 2ull * 60 * 3 * 4);
}

TEST_P(EngineLevelTest, WrongPlanLevelRejected) {
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(32, 2, 4);
  KmeansConfig config;
  config.k = 2;
  const ProblemShape shape{32, 2, 2};
  const Level other = GetParam() == Level::kLevel1 ? Level::kLevel2
                                                   : Level::kLevel1;
  const PartitionPlan plan = make_plan(other, shape, machine);
  EXPECT_THROW(run_with_centroids(GetParam(), ds, config, machine, plan,
                                  util::Matrix(2, 2)),
               swhkm::InvalidArgument);
}

TEST_P(EngineLevelTest, InitialCentroidsValidatedAtEntry) {
  // Caller-supplied centroids skip init_centroids' checks, so the engine
  // entry validates them: a short matrix would overrun the kernels and a
  // non-finite value would converge to garbage.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const data::Dataset ds = data::make_uniform(64, 3, 4);
  KmeansConfig config;
  config.k = 4;
  const PartitionPlan plan =
      make_plan(GetParam(), ProblemShape{64, 4, 3}, machine);
  const auto expect_rejected = [&](util::Matrix centroids,
                                   const std::string& needle) {
    try {
      (void)run_with_centroids(GetParam(), ds, config, machine, plan,
                               std::move(centroids));
      ADD_FAILURE() << "accepted centroids that should fail: " << needle;
    } catch (const swhkm::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(util::Matrix(2, 3), "are 2 x 3");  // too few rows
  expect_rejected(util::Matrix(4, 2), "are 4 x 2");  // too few columns
  expect_rejected(util::Matrix(5, 3), "are 5 x 3");  // too many rows
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    util::Matrix centroids(4, 3);
    centroids.row(2)[1] = bad;
    expect_rejected(std::move(centroids), "row 2 column 1 is not finite");
  }
}

TEST_P(EngineLevelTest, NonFiniteSamplesRejectedAtEntry) {
  // Finite caller-supplied centroids skip init_centroids, and with it the
  // sample check: a NaN or +Inf sample's record keeps its sentinel index,
  // which would index past the update accumulator. The engine entry
  // rejects it by row and column instead.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  KmeansConfig config;
  config.k = 4;
  const PartitionPlan plan =
      make_plan(GetParam(), ProblemShape{64, 4, 3}, machine);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    util::Matrix samples = data::make_uniform(64, 3, 4).samples();
    samples.row(37)[2] = bad;
    const data::Dataset ds("non-finite", std::move(samples));
    util::Matrix centroids(4, 3);
    for (std::size_t j = 0; j < 4; ++j) {
      centroids.row(j)[0] = static_cast<float>(j);
    }
    try {
      (void)run_with_centroids(GetParam(), ds, config, machine, plan,
                               std::move(centroids));
      ADD_FAILURE() << "accepted a non-finite sample (" << bad << ")";
    } catch (const swhkm::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("row 37 column 2 is not finite"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_P(EngineLevelTest, NonFiniteLateRowsNamedLowestFirstAtEntry) {
  // 2^16 samples of 4 elements split the entry scan over several threads
  // (detail::sweep_threads); the bad rows sit late, in different slices,
  // and the lowest is the one named, as a one-thread scan names it.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 8192);
  const std::size_t n = std::size_t{1} << 16;
  KmeansConfig config;
  config.k = 4;
  const PartitionPlan plan =
      make_plan(GetParam(), ProblemShape{n, 4, 4}, machine);
  util::Matrix samples = data::make_uniform(n, 4, 5).samples();
  samples.row(40000)[1] = std::numeric_limits<float>::quiet_NaN();
  samples.row(50000)[0] = std::numeric_limits<float>::infinity();
  samples.row(n - 1)[3] = std::numeric_limits<float>::quiet_NaN();
  const data::Dataset ds("late non-finite", std::move(samples));
  util::Matrix centroids(4, 4);
  for (std::size_t j = 0; j < 4; ++j) {
    centroids.row(j)[0] = static_cast<float>(j);
  }
  try {
    (void)run_with_centroids(GetParam(), ds, config, machine, plan,
                             std::move(centroids));
    ADD_FAILURE() << "accepted non-finite samples";
  } catch (const swhkm::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("row 40000 column 1 is not finite"),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, EngineLevelTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

// ------------------------------------------------- level-specific shapes

TEST(Level2, ExplicitGroupSizesAllAgree) {
  const MachineConfig machine = MachineConfig::tiny(1, 8, 16384);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 9);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  const KmeansResult ref = lloyd_serial(ds, config);
  for (std::size_t g : {1ul, 2ul, 4ul, 8ul}) {
    const KmeansResult got = run_level(Level::kLevel2, ds, config, machine, g);
    EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
        << "m_group=" << g;
  }
}

TEST(Level3, ExplicitCgGroupSizesAllAgree) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 16384);  // 4 CGs
  const data::Dataset ds = data::make_blobs(160, 6, 4, 9);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  const KmeansResult ref = lloyd_serial(ds, config);
  for (std::size_t p : {1ul, 2ul, 4ul}) {
    const KmeansResult got =
        run_level(Level::kLevel3, ds, config, machine, 0, p);
    EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
        << "m'_group=" << p;
  }
}

TEST(Level3, KSmallerThanGroupLeavesIdleSliceHolders) {
  // k=2 over m'_group=4 CGs: two CGs hold empty slices and must not
  // disturb the argmin.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 16384);
  const data::Dataset ds = data::make_blobs(80, 4, 2, 21);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 6;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(Level::kLevel3, ds, config, machine, 0, 4);
  EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0);
}

TEST(Level3, TilePipelineCutsModeledNetShareAtLeastTwofold) {
  // High-d shape on purpose: the MinLoc2 combine carries 24 bytes per
  // sample regardless of d, while the sweep that hides it grows with d*k.
  // m'_group = 4 makes every tile's combine a real 4-way allreduce, and
  // iteration 0 sweeps every sample through eight 512-sample tiles. Tiles
  // that large overflow the GEMM scratch, so the engine downgrades to the
  // chain kernel, whose slower modeled sweep is the wider window that
  // hides the combine. The no-overlap baseline is a cost function of the
  // same run: adding the seconds the pipeline hid back into the net and
  // total ledgers gives the strictly sequential model's net share.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(4096, 256, 8, 515);
  KmeansConfig config;
  config.k = 96;
  config.max_iterations = 1;
  config.tolerance = -1;
  config.tile_samples = 512;
  const KmeansResult got =
      run_level(Level::kLevel3, ds, config, machine, 0, 4);
  ASSERT_EQ(got.assign_kernel, "chain");
  const KmeansResult ref = lloyd_serial(ds, config);
  ASSERT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.assignments, ref.assignments);
  ASSERT_EQ(got.centroids.size(), ref.centroids.size());
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        ref.centroids.size() * sizeof(float)),
            0);

  const simarch::CostTally& cost = got.last_iteration_cost;
  ASSERT_GT(cost.total_s(), 0.0);
  const double pipelined_share = cost.net_comm_s / cost.total_s();
  const double no_overlap_share =
      (cost.net_comm_s + cost.overlapped_net_s) /
      (cost.total_s() + cost.overlapped_net_s + cost.overlapped_dma_s);
  // Floor the denominator: a fully hidden combine models zero net stall.
  EXPECT_GE(no_overlap_share / std::max(pipelined_share, 1e-12), 2.0)
      << "no-overlap " << no_overlap_share << " pipelined "
      << pipelined_share;
}

TEST(Level1, LdmOverflowCaughtByEngine) {
  // A plan hand-built for a larger LDM must be rejected by the engine's
  // allocator when run against the real machine.
  MachineConfig machine = MachineConfig::tiny(1, 2, 64 * 1024);
  const ProblemShape shape{64, 50, 40};
  PartitionPlan plan = make_plan(Level::kLevel1, shape, machine);
  machine.ldm_bytes = 4096;  // shrink after planning
  const data::Dataset ds = data::make_uniform(64, 40, 3);
  KmeansConfig config;
  config.k = 50;
  util::Matrix centroids(50, 40);
  EXPECT_THROW(run_level1(ds, config, machine, plan, std::move(centroids)),
               swhkm::CapacityError);
}

TEST(Engines, Level2StreamsWhenSliceDoesNotFit) {
  // Tiny LDM forces the streamed layout; result must stay exact.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 2048);
  const data::Dataset ds = data::make_blobs(100, 16, 4, 13);
  KmeansConfig config;
  config.k = 24;
  config.max_iterations = 5;
  const ProblemShape shape{100, 24, 16};
  const PartitionPlan plan = make_plan(Level::kLevel2, shape, machine);
  EXPECT_FALSE(plan.ldm.resident);
  expect_matches_serial(Level::kLevel2, ds, config, machine);
}

TEST(Engines, CostTalliesScaleWithMachineShrink) {
  // Same problem on 1 vs 4 nodes: per-iteration simulated time must drop.
  const data::Dataset ds = data::make_blobs(800, 8, 4, 31);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 2;
  config.tolerance = -1;
  // Iteration 0: the bound gate prunes this workload to zero distance work
  // by the second iteration (compute_s == 0 on both machines), which is
  // covered by the gated-assign tests; this one pins the sweep scaling.
  const KmeansResult small =
      run_level(Level::kLevel1, ds, config, MachineConfig::tiny(1, 4, 8192));
  const KmeansResult large =
      run_level(Level::kLevel1, ds, config, MachineConfig::tiny(4, 4, 8192));
  EXPECT_GT(small.history[0].compute_s, large.history[0].compute_s);
}

}  // namespace
}  // namespace swhkm::core
