#include <gtest/gtest.h>

#include <tuple>

#include "core/hkmeans.hpp"
#include "util/rng.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

/// Property sweep: for every (machine shape, problem shape, seed) cell,
/// every feasible level must reproduce serial Lloyd exactly — assignments
/// bit-equal, centroids within accumulation-order slop — while respecting
/// its LDM budget (enforced by the engines' allocator, so a violation
/// throws and fails the test).
struct Cell {
  std::size_t nodes;
  std::size_t cpes_per_cg;
  std::size_t ldm_bytes;
  std::size_t n;
  std::size_t k;
  std::size_t d;
  std::uint64_t seed;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  const Cell& c = info.param;
  return "nodes" + std::to_string(c.nodes) + "cpe" +
         std::to_string(c.cpes_per_cg) + "ldm" + std::to_string(c.ldm_bytes) +
         "n" + std::to_string(c.n) + "k" + std::to_string(c.k) + "d" +
         std::to_string(c.d) + "s" + std::to_string(c.seed);
}

class ParitySweep : public ::testing::TestWithParam<Cell> {};

TEST_P(ParitySweep, EveryFeasibleLevelMatchesSerial) {
  const Cell& cell = GetParam();
  const MachineConfig machine =
      MachineConfig::tiny(cell.nodes, cell.cpes_per_cg, cell.ldm_bytes);
  const data::Dataset ds = data::make_uniform(cell.n, cell.d, cell.seed);
  KmeansConfig config;
  config.k = cell.k;
  config.max_iterations = 6;
  config.init = InitMethod::kRandom;
  config.seed = cell.seed * 7 + 1;

  const KmeansResult ref = lloyd_serial(ds, config);
  const ProblemShape shape{cell.n, cell.k, cell.d};
  int levels_run = 0;
  for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    if (!check_level(level, shape, machine).ok) {
      continue;
    }
    ++levels_run;
    const KmeansResult got = run_level(level, ds, config, machine);
    EXPECT_EQ(assignment_agreement(got.assignments, ref.assignments), 1.0)
        << level_name(level);
    EXPECT_EQ(got.iterations, ref.iterations) << level_name(level);
    EXPECT_LT(centroid_max_abs_diff(got.centroids, ref.centroids), 1e-3)
        << level_name(level);
  }
  EXPECT_GE(levels_run, 1) << "cell ran no level at all";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParitySweep,
    ::testing::Values(
        // machine variations
        Cell{1, 1, 8192, 120, 4, 6, 1},   // single-CPE CGs
        Cell{1, 4, 8192, 120, 4, 6, 2},
        Cell{3, 4, 8192, 120, 4, 6, 3},   // odd node count
        Cell{1, 8, 8192, 120, 4, 6, 4},
        Cell{2, 2, 4096, 120, 4, 6, 5},   // small LDM
        // problem shape variations
        Cell{2, 4, 8192, 17, 2, 3, 6},    // tiny n
        Cell{2, 4, 8192, 256, 16, 4, 7},  // k saturates small LDM
        Cell{2, 4, 8192, 200, 3, 33, 8},  // d not divisible by CPEs
        Cell{2, 4, 8192, 199, 7, 13, 9},  // all primes
        Cell{2, 4, 8192, 64, 64, 2, 10},  // k == n
        Cell{1, 4, 32768, 150, 5, 80, 11},  // large-ish d, roomy LDM
        Cell{2, 4, 2048, 100, 20, 10, 12},  // forces streamed layouts
        Cell{4, 2, 8192, 333, 9, 5, 13},
        Cell{2, 6, 8192, 150, 11, 9, 14},   // non-power-of-two mesh
        Cell{2, 4, 8192, 500, 2, 2, 15}),
    cell_name);

/// Determinism: running the same engine twice gives bit-identical output
/// even though rank scheduling differs run to run.
class DeterminismSweep : public ::testing::TestWithParam<Level> {};

TEST_P(DeterminismSweep, RepeatRunsIdentical) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(150, 8, 77);
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 5;
  const KmeansResult a = run_level(GetParam(), ds, config, machine);
  const KmeansResult b = run_level(GetParam(), ds, config, machine);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(centroid_max_abs_diff(a.centroids, b.centroids), 0.0);
  EXPECT_EQ(a.iterations, b.iterations);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, DeterminismSweep,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

/// Cross-slice tie-breaking: centroids at -1 and +1 (seeded from rows 0
/// and 1 via kFirstK) land in *different* slices for m_group=2 /
/// m'_group=2, and every sample at 0 is exactly equidistant to both — the
/// slice argmin combine (MinLoc ordering for Level 3's batched
/// allreduce) must resolve each tie to the smaller global index, like the
/// serial left-to-right scan.
TEST(SliceTieBreak, EqualDistanceAcrossSlicesResolvesToLowerIndex) {
  util::Matrix m(34, 1);
  m.at(0, 0) = -1.0f;
  m.at(1, 0) = 1.0f;  // rows 2..33 stay at exactly 0
  const data::Dataset ds("cross_slice_ties", std::move(m));
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 1;
  config.tolerance = -1;
  config.init = InitMethod::kFirstK;
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult ref = lloyd_serial(ds, config);

  // Level 2, two CPEs per slice group: centroid 0 in slice 0, 1 in slice 1.
  const KmeansResult l2 =
      run_level(Level::kLevel2, ds, config, machine, 2);
  EXPECT_EQ(l2.assignments, ref.assignments);
  // Level 3, two CGs per slice group: the tie crosses the group comm.
  const KmeansResult l3 =
      run_level(Level::kLevel3, ds, config, machine, 0, 2);
  EXPECT_EQ(l3.assignments, ref.assignments);
  for (std::size_t i = 2; i < ds.n(); ++i) {
    EXPECT_EQ(l3.assignments[i], 0u) << "tie at sample " << i
                                     << " broke toward the larger index";
  }
}

/// Ragged slices: k smaller than the slice-group size leaves some ranks
/// holding an empty centroid slice — they must contribute the neutral
/// MinLoc (and nothing to the accumulator) without perturbing results.
TEST(RaggedSlices, EmptySliceRanksAreHarmless) {
  const data::Dataset ds = data::make_uniform(120, 3, 21);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 6;
  config.init = InitMethod::kRandom;
  config.seed = 9;
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult ref = lloyd_serial(ds, config);
  const ProblemShape shape{ds.n(), config.k, ds.d()};

  // Level 3 with m'_group = 4 > k = 2: slices 2 and 3 own no centroids.
  ASSERT_TRUE(check_level(Level::kLevel3, shape, machine, 0, 4).ok);
  const KmeansResult l3 =
      run_level(Level::kLevel3, ds, config, machine, 0, 4);
  EXPECT_EQ(l3.assignments, ref.assignments);
  EXPECT_EQ(l3.iterations, ref.iterations);
  EXPECT_LT(centroid_max_abs_diff(l3.centroids, ref.centroids), 1e-4);

  // Level 2 with m_group = 4 > k = 2: CPE slices 2 and 3 are empty.
  ASSERT_TRUE(check_level(Level::kLevel2, shape, machine, 4).ok);
  const KmeansResult l2 =
      run_level(Level::kLevel2, ds, config, machine, 4);
  EXPECT_EQ(l2.assignments, ref.assignments);
  EXPECT_EQ(l2.iterations, ref.iterations);
}

/// Feasibility properties over random shapes: check_level's verdict and
/// make_plan must agree, and plans must respect their machine.
TEST(FeasibilityProperty, CheckAndMakeAgree) {
  util::Xoshiro256 rng(2024);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 4096);
  for (int trial = 0; trial < 200; ++trial) {
    const ProblemShape shape{1 + rng.below(500), 1 + rng.below(64),
                             1 + rng.below(600)};
    for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
      const Feasibility verdict = check_level(level, shape, machine);
      if (verdict.ok) {
        const PartitionPlan plan = make_plan(level, shape, machine);
        EXPECT_LE(plan.ldm.high_water_bytes, machine.ldm_bytes);
        EXPECT_GE(plan.num_flow_units, 1u);
        EXPECT_GE(plan.k_local, 1u);
        EXPECT_GE(plan.d_local, 1u);
      } else {
        EXPECT_THROW(make_plan(level, shape, machine), InfeasibleError);
        EXPECT_FALSE(verdict.reason.empty());
      }
    }
  }
}

/// Model property over random shapes: modelled iteration time is positive
/// and finite for every feasible plan.
TEST(ModelProperty, FiniteAndPositiveEverywhere) {
  util::Xoshiro256 rng(555);
  const MachineConfig machine = MachineConfig::sw26010(8);
  for (int trial = 0; trial < 100; ++trial) {
    const ProblemShape shape{1 + rng.below(3000000), 1 + rng.below(100000),
                             1 + rng.below(300000)};
    const auto choice = auto_plan(shape, machine);
    if (!choice) {
      continue;
    }
    EXPECT_GT(choice->predicted_s(), 0.0);
    EXPECT_TRUE(std::isfinite(choice->predicted_s()));
  }
}

}  // namespace
}  // namespace swhkm::core
