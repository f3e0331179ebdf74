#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_loop.hpp"
#include "core/engine_util.hpp"
#include "core/hkmeans.hpp"
#include "simarch/regcomm.hpp"
#include "swmpi/collectives.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

/// Bit-for-bit equality: assignments exact and every centroid float
/// identical. The gate only ever *skips* evaluations, so nothing weaker
/// than memcmp is acceptable here.
void expect_bit_identical(const KmeansResult& got, const KmeansResult& ref,
                          const char* label) {
  ASSERT_EQ(got.iterations, ref.iterations) << label;
  EXPECT_EQ(got.assignments, ref.assignments) << label;
  ASSERT_EQ(got.centroids.size(), ref.centroids.size()) << label;
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0)
      << label;
}

/// Replays the bounds ledger (DESIGN.md §7) over history rows
/// [begin, end), one engine run or RecoveryDriver leg. Row `begin` is the
/// leg's bounds-off price; each gated row adds (price - its simulated_s)
/// to a running sum, and the next row may gate only while the sum is > 0.
/// A bounds-off row prices exactly like row `begin` and prunes nothing.
/// Returns the rows the leg gated.
std::size_t replay_bounds_ledger(const std::vector<IterationStats>& history,
                                 std::size_t begin, std::size_t end,
                                 const std::string& where) {
  EXPECT_FALSE(history[begin].gated) << where << ": row " << begin;
  const double price = history[begin].simulated_s;
  // Whether row begin + 1 gates is the iteration-0 check, which this
  // replay takes as given; from then on the ledger alone decides.
  bool on = end > begin + 1 && history[begin + 1].gated;
  double savings = 0;
  std::size_t gated = 0;
  for (std::size_t i = begin + 1; i < end; ++i) {
    const IterationStats& row = history[i];
    EXPECT_EQ(row.gated, on) << where << ": row " << i;
    if (!row.gated) {
      EXPECT_EQ(row.simulated_s, price) << where << ": row " << i;
      EXPECT_EQ(row.prune_rate, 0.0) << where << ": row " << i;
      continue;
    }
    ++gated;
    savings += price - row.simulated_s;
    on = savings > 0;
  }
  return gated;
}

/// Centroid pairs one gated iteration's safe-radius pass scores: k(k-1)/2
/// at Level 1. Levels 2/3 run no pass.
std::size_t radius_pairs(Level level, std::size_t k) {
  return level == Level::kLevel1 ? k * (k - 1) / 2 : 0;
}

class GatedLevelTest : public ::testing::TestWithParam<Level> {};

TEST_P(GatedLevelTest, PruneRateZeroOnFirstIterationPositiveLater) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(400, 12, 5, 42);
  KmeansConfig config;
  config.k = 5;
  config.max_iterations = 15;
  const KmeansResult result = run_level(GetParam(), ds, config, machine);
  ASSERT_FALSE(result.history.empty());
  // Iteration 0 has no bounds yet: every sample sweeps, by construction.
  EXPECT_EQ(result.history[0].prune_rate, 0.0);
  double best_rate = 0;
  for (const IterationStats& it : result.history) {
    EXPECT_GE(it.prune_rate, 0.0);
    EXPECT_LE(it.prune_rate, 1.0);
    best_rate = std::max(best_rate, it.prune_rate);
  }
  // Well-separated blobs converge geometrically; the gate must bite.
  EXPECT_EQ(result.gated_iterations, result.iterations - 1);
  EXPECT_GT(best_rate, 0.5);
  // And the ledger must agree with the gate: savings only come from
  // skipped sweeps.
  EXPECT_GT(result.accel.savings(), 0.0);
  EXPECT_LE(result.accel.distance_computations, result.accel.lloyd_equivalent);
}

TEST_P(GatedLevelTest, BitIdenticalToSerialOnCoincidentTiedPoints) {
  // Adversarial workload: only 6 distinct points, each repeated 32 times,
  // with k = 9 > 6 distinct values. kFirstK seeding then produces
  // *coincident* centroids (exact distance ties on every duplicate), and
  // the run keeps empty clusters alive. The gate's strict upper < lower
  // test must leave every tie-break to the same left-to-right argmin the
  // serial scan uses.
  const std::size_t reps = 32;
  const std::size_t distinct = 6;
  const std::size_t d = 3;
  std::vector<float> values;
  values.reserve(reps * distinct * d);
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t q = 0; q < distinct; ++q) {
      for (std::size_t u = 0; u < d; ++u) {
        values.push_back(static_cast<float>((q * (u + 1)) % distinct));
      }
    }
  }
  const data::Dataset ds(
      "ties", util::Matrix::from_vector(reps * distinct, d, values));
  KmeansConfig config;
  config.k = 9;
  config.max_iterations = 12;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  expect_bit_identical(got, ref, level_name(GetParam()));
}

TEST_P(GatedLevelTest, BoundsOffWhenTheRadiusPassCostsMoreThanTheSweep) {
  // 160 samples against k = 64 on 4 CGs: at Level 1 one safe-radius pass
  // (k(k-1)/2 pairs per CG, its DMA and mesh fold) costs more than
  // iteration 0's whole sweep, so the engine runs every iteration without
  // bounds. Such a run is still serial Lloyd bit for bit, prunes nothing,
  // never runs the pass, and so prices every iteration exactly like
  // iteration 0. The sweep runs the GEMM kernel: a 64-sample tile's
  // scratch (368 elements a CPE) fits beside the Level 1 layout's 1612 of
  // 2048, where the default 256-sample tile's would fall back to the
  // dearer chain kernel and let the bounds pay.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 12, 5, 17);
  KmeansConfig config;
  config.k = 64;
  config.max_iterations = 6;
  config.tolerance = -1;
  config.tile_samples = 64;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  if (GetParam() != Level::kLevel1) {
    // Levels 2/3 run no safe-radius pass, so no pass can price their
    // bounds out: iteration 1 always gates, and from then on the savings
    // ledger alone decides. The run is still serial Lloyd bit for bit.
    const std::string where = level_name(GetParam());
    expect_bit_identical(got, ref, where.c_str());
    ASSERT_EQ(got.history.size(), 6u);
    EXPECT_TRUE(got.history[1].gated);
    EXPECT_EQ(replay_bounds_ledger(got.history, 0, got.history.size(), where),
              got.gated_iterations);
    EXPECT_EQ(got.accel.centroid_distance_computations, 0u);
    return;
  }
  EXPECT_EQ(got.assign_kernel, "gemm");
  EXPECT_EQ(got.gated_iterations, 0u);
  expect_bit_identical(got, ref, level_name(GetParam()));
  ASSERT_EQ(got.history.size(), 6u);
  for (const IterationStats& it : got.history) {
    EXPECT_EQ(it.prune_rate, 0.0);
    EXPECT_EQ(it.simulated_s, got.history[0].simulated_s);
  }
  EXPECT_EQ(got.accel.centroid_distance_computations, 0u);
  EXPECT_EQ(got.accel.distance_computations, got.accel.lloyd_equivalent);
}

TEST_P(GatedLevelTest, BoundsTurnOffOnceTheGatedIterationsStopPaying) {
  // Uniform noise: the gate resolves a few percent of the samples, so the
  // first gated iteration costs more than a bounds-off one and the ledger
  // turns the bounds off. The rest of the run is serial Lloyd bit for bit
  // and prices every iteration like iteration 0. Level 2's group bounds
  // keep paying at d = 8, so it runs the same noise at d = 16.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds =
      data::make_uniform(600, GetParam() == Level::kLevel2 ? 16 : 8, 11);
  KmeansConfig config;
  config.k = 12;
  config.max_iterations = 12;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  const std::string where = level_name(GetParam());
  expect_bit_identical(got, ref, where.c_str());
  ASSERT_EQ(got.history.size(), got.iterations);
  // The bounds ran, then switched off before the run ended.
  EXPECT_GT(got.gated_iterations, 0u);
  EXPECT_LT(got.gated_iterations, got.iterations - 1);
  EXPECT_TRUE(got.history[1].gated);
  EXPECT_FALSE(got.history.back().gated);
  EXPECT_EQ(replay_bounds_ledger(got.history, 0, got.history.size(), where),
            got.gated_iterations);
  EXPECT_EQ(got.accel.centroid_distance_computations,
            got.gated_iterations * radius_pairs(GetParam(), config.k));
}

TEST_P(GatedLevelTest, BlobsGateEveryIterationAfterTheFirst) {
  // Well-separated blobs from k-means++ seeds: the gate resolves most
  // samples on every iteration, so the savings never run out.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(600, 8, 4, 11, 3.0);
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 12;
  config.init = InitMethod::kPlusPlus;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  const std::string where = level_name(GetParam());
  expect_bit_identical(got, ref, where.c_str());
  ASSERT_GT(got.iterations, 2u);
  EXPECT_EQ(got.gated_iterations, got.iterations - 1);
  for (std::size_t i = 1; i < got.history.size(); ++i) {
    EXPECT_TRUE(got.history[i].gated) << where << ": row " << i;
  }
  EXPECT_EQ(replay_bounds_ledger(got.history, 0, got.history.size(), where),
            got.gated_iterations);
}

TEST_P(GatedLevelTest, RecoveryLegsDecideTheBoundsOnTheirOwn) {
  // The RecoveryDriver runs the uniform shape in legs of 4 and one rank
  // crashes in the second leg. Every leg restarts its bounds from a full
  // sweep and keeps its own ledger, the failed attempt's rows never reach
  // the result, and gated_iterations sums the finished legs.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(600, 8, 11);
  KmeansConfig config;
  config.k = 12;
  config.max_iterations = 12;
  config.tolerance = -1;
  config.checkpoint_every = 4;
  const KmeansResult ref = lloyd_serial(ds, config);
  swmpi::FaultPlan plan;
  plan.crash(1, /*iteration=*/6, swmpi::FaultSite::kUpdate);
  KmeansConfig faulty = config;
  faulty.fault_plan = &plan;
  RecoveryOptions options;
  options.checkpoint_path = ::testing::TempDir() + "/swhkm_gated_legs_" +
                            level_name(GetParam()) + ".ckpt";
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(GetParam(), ds, faulty);
  const std::string where = level_name(GetParam());
  EXPECT_EQ(plan.fired_crashes(), 1u);
  expect_bit_identical(got, ref, where.c_str());
  ASSERT_EQ(got.history.size(), 12u);
  std::size_t legs_gated = 0;
  for (std::size_t begin = 0; begin < got.history.size(); begin += 4) {
    const std::size_t leg = replay_bounds_ledger(
        got.history, begin, begin + 4,
        where + " leg " + std::to_string(begin / 4));
    EXPECT_GT(leg, 0u) << where << ": leg " << begin / 4;
    legs_gated += leg;
  }
  EXPECT_EQ(got.gated_iterations, legs_gated);
  EXPECT_EQ(got.accel.centroid_distance_computations,
            legs_gated * radius_pairs(GetParam(), config.k));
}

TEST_P(GatedLevelTest, ExactTieAtTheBoundIsSwept) {
  // Samples on one axis (the other dimensions are 0), k = 2, first-k
  // seeds c0 = -3 and c1 = 1. The sample at 0 (row 2) is assigned to c1
  // at distance 1 with its lower bound at 3. The update
  // moves c0 to -2 and c1 to 2, both by exactly 1, so the decayed bounds
  // meet (upper = lower = 2) at a true tie: serial Lloyd moves the sample
  // to c0, the lower index. Only a strict upper < lower (and, at Level 1,
  // upper < safe radius, also 2) leaves it to the sweep. Every value is an
  // exact small integer, so the tie is exact in floating point too.
  const std::size_t d = 4;
  const float pattern[] = {-3, 1, 0, -1, 5};
  util::Matrix samples(8 * std::size(pattern), d);
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    samples.at(i, 0) = pattern[i % std::size(pattern)];
  }
  const data::Dataset ds("tie", samples);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 2;
  config.tolerance = -1;
  const KmeansResult ref = lloyd_serial(ds, config);
  ASSERT_EQ(ref.assignments[2], 0u) << "the tie must go to c0";
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
  const std::string where = level_name(GetParam());
  expect_bit_identical(got, ref, where.c_str());
  if (GetParam() != Level::kLevel1) {
    // Level 1's radius pass outprices this 40-sample sweep, so its run
    // never gates; Levels 2/3 have no pass and gate iteration 1.
    ASSERT_TRUE(got.history[1].gated) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, GatedLevelTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(GatedAssign, SavingsLedgerRidesOutADearGatedIteration) {
  // k-means++ seeds, k = 16 over three blobs: gated iteration 2 models
  // dearer than iteration 0, but iteration 1 saved more than that, so the
  // running sum keeps the bounds on. A rule that looked only at the last
  // gated iteration would turn them off there. Level 1 only: Level 2's
  // group bounds make no gated iteration of this run dearer than
  // iteration 0 (the ledger rule is the same code at every level).
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(600, 2, 3, 2, 4.0);
  KmeansConfig config;
  config.k = 16;
  config.max_iterations = 20;
  config.init = InitMethod::kPlusPlus;
  config.seed = 2;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(Level::kLevel1, ds, config, machine);
  const std::string where = level_name(Level::kLevel1);
  expect_bit_identical(got, ref, where.c_str());
  ASSERT_GT(got.history.size(), 3u);
  EXPECT_TRUE(got.history[2].gated);
  EXPECT_GT(got.history[2].simulated_s, got.history[0].simulated_s);
  EXPECT_TRUE(got.history[3].gated);
  EXPECT_EQ(replay_bounds_ledger(got.history, 0, got.history.size(), where),
            got.gated_iterations);
}

TEST(GatedAssign, BoundsResetAcrossCheckpointRestore) {
  // Interrupt a gated engine run at iteration 3, checkpoint, restore, and
  // finish with a fresh engine. The restored leg must re-seed its bounds
  // from a full sweep (stale bounds would mis-gate against the restored
  // centroids) and land bit-identical to the uninterrupted run.
  const data::Dataset ds = data::make_blobs(360, 10, 4, 17);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 9;
  config.tolerance = -1;  // fixed-length legs
  const KmeansResult full = run_level(Level::kLevel1, ds, config, machine);

  KmeansConfig first_leg = config;
  first_leg.max_iterations = 3;
  const KmeansResult part = run_level(Level::kLevel1, ds, first_leg, machine);
  const std::string path = ::testing::TempDir() + "/swhkm_gated_ckpt.bin";
  save_checkpoint(part, path);
  const KmeansResult restored = load_checkpoint(path);

  // Engine restart from the restored centroids.
  KmeansConfig second_leg = config;
  second_leg.max_iterations = config.max_iterations - restored.iterations;
  const PartitionPlan plan = make_plan(
      Level::kLevel1, ProblemShape{ds.n(), config.k, ds.d()}, machine);
  const KmeansResult engine_resumed =
      run_level1(ds, second_leg, machine, plan, restored.centroids);
  ASSERT_EQ(engine_resumed.iterations, second_leg.max_iterations);
  EXPECT_EQ(engine_resumed.assignments, full.assignments);
  EXPECT_EQ(std::memcmp(engine_resumed.centroids.data(),
                        full.centroids.data(),
                        full.centroids.size() * sizeof(float)),
            0);

  // Serial resume_lloyd from the same checkpoint agrees too — the engines
  // and the serial baseline share one trajectory.
  const KmeansResult serial_resumed = resume_lloyd(ds, config, restored);
  ASSERT_EQ(serial_resumed.iterations, full.iterations);
  EXPECT_EQ(serial_resumed.assignments, full.assignments);
  EXPECT_EQ(std::memcmp(serial_resumed.centroids.data(),
                        full.centroids.data(),
                        full.centroids.size() * sizeof(float)),
            0);
}

TEST(GatedAssign, EngineDistancesAtMostSerialHamerly) {
  // The engine gate skips a sample at zero cost; serial Hamerly pays an
  // upper-bound tightening distance for every sample that fails its first
  // check. On a workload that keeps moving and keeps its bounds on every
  // iteration after the first, the engine's ledger must not exceed the
  // serial accelerated baseline's.
  const data::Dataset ds = data::make_blobs(2000, 8, 8, 11, 3.0);
  KmeansConfig config;
  config.k = 12;
  config.max_iterations = 12;
  config.init = InitMethod::kRandom;
  AccelStats hamerly_stats;
  const KmeansResult ref = hamerly_serial(ds, config, &hamerly_stats);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult got = run_level(Level::kLevel1, ds, config, machine);
  ASSERT_EQ(got.iterations, ref.iterations);
  ASSERT_EQ(got.gated_iterations, got.iterations - 1);
  EXPECT_EQ(got.accel.lloyd_equivalent, hamerly_stats.lloyd_equivalent);
  EXPECT_LE(got.accel.distance_computations,
            hamerly_stats.distance_computations);
}

TEST(GatedAssign, Level3ChargesCompactedCollectiveVolumes) {
  // Cost-model check: the Level 3 argmin collective is charged per
  // *unresolved* sample at 24 bytes per bound group across the slice
  // group. The per-iteration accumulator/publish charges are constant, so
  // the net-byte drop from iteration 0 must equal exactly
  // pruned * 24 * G * p: each group combine carries one record per CG of
  // the group and is booked once (on the group's slice-0 CG), however
  // large the group.
  struct Case {
    MachineConfig machine;
    std::size_t p;
  };
  const Case cases[] = {{MachineConfig::tiny(2, 4, 8192), 2},
                        {MachineConfig::tiny(2, 4, 8192), 4},
                        {MachineConfig::tiny(8, 4, 8192), 16}};
  const data::Dataset ds = data::make_blobs(300, 8, 4, 23);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  config.tolerance = -1;
  for (const Case& c : cases) {
    const std::size_t p = c.p;
    const std::string where = "m'_group " + std::to_string(p);
    const KmeansResult gated =
        run_level(Level::kLevel3, ds, config, c.machine, 0, p);
    ASSERT_EQ(gated.gated_iterations, gated.iterations - 1) << where;
    ASSERT_GT(gated.history.size(), 1u) << where;
    ASSERT_EQ(gated.bound_groups, config.k) << where;

    double total_rate = 0;
    for (std::size_t t = 1; t < gated.history.size(); ++t) {
      const IterationStats& it = gated.history[t];
      const auto pruned = static_cast<std::uint64_t>(
          std::llround(it.prune_rate * static_cast<double>(ds.n())));
      EXPECT_EQ(gated.history[0].net_bytes - it.net_bytes,
                pruned * sizeof(swmpi::MinLoc2) * gated.bound_groups * p)
          << where << ", iteration " << t;
      // The sample stream shrinks with the gate too (resolved samples
      // stream once, into their owner, instead of into every rank of the
      // group); on top of it every rank of the group reads and writes
      // each sample's bounds, 2 x G x 8 B.
      const std::uint64_t bound_bytes =
          ds.n() * p * 2 * gated.bound_groups * sizeof(double);
      if (pruned > 0) {
        EXPECT_LT(it.dma_bytes - bound_bytes, gated.history[0].dma_bytes)
            << where << ", iteration " << t;
      }
      total_rate += it.prune_rate;
    }
    ASSERT_GT(total_rate, 0.0)
        << where << ": workload never pruned; test is vacuous";
  }
}

TEST(GatedAssign, Level3GatesPixelsWithoutARadiusPass) {
  // ILSVRC-like pixels, the data Level 3 exists for. With no safe-radius
  // pass to price, iteration 1 gates, no centroid pair is ever scored and
  // the savings ledger keeps the bounds on (the gate resolves up to 2/3 of
  // the samples); every CG-group size, tiles of 8 and 32 samples and a
  // RecoveryDriver run with a crash stay serial Lloyd bit for bit.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_ilsvrc_like(384, 8, 1);
  KmeansConfig config;
  config.k = 32;
  config.max_iterations = 8;
  config.tolerance = -1;
  config.init = InitMethod::kPlusPlus;
  config.tile_samples = 8;
  const KmeansResult ref = lloyd_serial(ds, config);
  const auto check = [&](const KmeansResult& got, const std::string& where,
                         std::size_t leg) {
    expect_bit_identical(got, ref, where.c_str());
    EXPECT_FALSE(got.radius_pass) << where;
    EXPECT_EQ(got.bound_groups, kLevel3BoundGroups) << where;
    EXPECT_EQ(got.accel.centroid_distance_computations, 0u) << where;
    ASSERT_EQ(got.history.size(), config.max_iterations) << where;
    EXPECT_TRUE(got.history[1].gated) << where;
    double best_rate = 0;
    for (const IterationStats& it : got.history) {
      best_rate = std::max(best_rate, it.prune_rate);
    }
    EXPECT_GT(best_rate, 0.5) << where;
    std::size_t gated = 0;
    for (std::size_t begin = 0; begin < got.history.size(); begin += leg) {
      const std::size_t end = std::min(begin + leg, got.history.size());
      EXPECT_EQ(replay_bounds_ledger(got.history, begin, end, where),
                end - begin - 1)
          << where << ": leg from row " << begin;
      gated += end - begin - 1;
    }
    EXPECT_EQ(got.gated_iterations, gated) << where;
  };
  for (const std::size_t mprime : {1u, 2u, 4u}) {
    for (const std::size_t tile : {8u, 32u}) {
      KmeansConfig c = config;
      c.tile_samples = tile;
      const std::string where = "m'_group " + std::to_string(mprime) +
                                ", tile " + std::to_string(tile);
      check(run_level(Level::kLevel3, ds, c, machine, 0, mprime), where,
            c.max_iterations);
    }
  }
  swmpi::FaultPlan plan;
  plan.crash(1, /*iteration=*/5, swmpi::FaultSite::kUpdate);
  KmeansConfig faulty = config;
  faulty.fault_plan = &plan;
  faulty.checkpoint_every = 4;
  RecoveryOptions options;
  options.checkpoint_path =
      ::testing::TempDir() + "/swhkm_level3_pixels_legs.ckpt";
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(Level::kLevel3, ds, faulty);
  EXPECT_EQ(plan.fired_crashes(), 1u);
  check(got, "recovery", faulty.checkpoint_every);
}

TEST(GatedAssign, Level3GroupBoundsPruneMoreThanOneBound) {
  // The same pixels as above. Every survivor refreshes all of its group
  // bounds exactly, and each group decays only by its own fastest mover,
  // so the sixteen groups resolve far more samples than one Hamerly bound
  // would: on this data one bound sums its prune rates over the run to
  // 2.57 (iterations 1-7: 0.05, 0.34, 0.18, 0.57, 0.37, 0.67, 0.40), and
  // collapsing every group bound to their minimum after each refresh
  // sums to 2.70. The groups reach 3.87.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_ilsvrc_like(384, 8, 1);
  KmeansConfig config;
  config.k = 32;
  config.max_iterations = 8;
  config.tolerance = -1;
  config.init = InitMethod::kPlusPlus;
  config.tile_samples = 8;
  const KmeansResult got =
      run_level(Level::kLevel3, ds, config, machine, 0, 2);
  ASSERT_EQ(got.bound_groups, 16u);
  ASSERT_EQ(got.gated_iterations, config.max_iterations - 1);
  double total_rate = 0;
  for (const IterationStats& it : got.history) {
    total_rate += it.prune_rate;
  }
  EXPECT_GT(total_rate, 3.5);
}

TEST(GatedAssign, Level3GatedIterationWithoutPruningPricesTheSweepAndBounds) {
  // k clusters, each its centre (one of the first k rows, so first-k
  // seeding picks it) and copies at +8 along the second axis: every
  // centroid moves by 8 * copies / (copies + 1), more than the gaps left
  // by the bounds, so gated iteration 1 resolves no sample. Its assign
  // phase is then iteration 0's sweep (whose combine already carries one
  // record per bound group) plus each gated sample's bound traffic on the
  // CG's sample stream (2 x G x 8 B, G = k here), and nothing else: no
  // safe-radius pass, no other charge.
  const std::size_t k = 6;
  const std::size_t copies = 7;
  const std::size_t d = 8;
  util::Matrix samples(k * (1 + copies), d);
  for (std::size_t j = 0; j < k; ++j) {
    const float x = 10.0f * static_cast<float>(j);
    samples.at(j, 0) = x;
    for (std::size_t c = 0; c < copies; ++c) {
      samples.at(k + j * copies + c, 0) = x;
      samples.at(k + j * copies + c, 1) = 8;
    }
  }
  const data::Dataset ds("drifting", samples);
  KmeansConfig config;
  config.k = k;
  config.max_iterations = 2;
  config.tolerance = -1;
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  for (const std::size_t mprime : {1u, 2u}) {
    const std::string where = "m'_group " + std::to_string(mprime);
    const KmeansResult r =
        run_level(Level::kLevel3, ds, config, machine, 0, mprime);
    ASSERT_EQ(r.history.size(), 2u) << where;
    const IterationStats& off = r.history[0];
    const IterationStats& on = r.history[1];
    ASSERT_TRUE(on.gated) << where;
    ASSERT_EQ(on.prune_rate, 0.0) << where;
    // Every CG gates its group's whole block; the blocks split n evenly.
    const std::size_t groups = machine.num_cgs() / mprime;
    ASSERT_EQ(ds.n() % groups, 0u) << where;
    ASSERT_EQ(r.bound_groups, k) << where;
    const std::uint64_t bound_bytes = 2 * k * sizeof(double);
    const double bound_s =
        static_cast<double>(ds.n() / groups * bound_bytes) /
        machine.dma_bandwidth;
    EXPECT_EQ(on.compute_s, off.compute_s) << where;
    EXPECT_EQ(on.centroid_stream_s, off.centroid_stream_s) << where;
    EXPECT_EQ(on.mesh_comm_s, off.mesh_comm_s) << where;
    EXPECT_EQ(on.net_comm_s, off.net_comm_s) << where;
    EXPECT_EQ(on.update_s, off.update_s) << where;
    EXPECT_EQ(on.net_bytes, off.net_bytes) << where;
    EXPECT_EQ(on.flops, off.flops) << where;
    EXPECT_EQ(on.dma_bytes,
              off.dma_bytes + machine.num_cgs() * (ds.n() / groups) *
                                  bound_bytes)
        << where;
    EXPECT_DOUBLE_EQ(on.sample_read_s, off.sample_read_s + bound_s) << where;
    EXPECT_DOUBLE_EQ(on.simulated_s, off.simulated_s + bound_s) << where;
  }
}

TEST(GatedAssign, OneLegRecoveryRunGatesLikeTheEngine) {
  // checkpoint_every = 0: the RecoveryDriver runs the whole fit as one
  // leg, so its bounds ledger is the engine's. Structureless uniform data
  // at Level 2 and d = 64, the uniform_l2 workload's shape scaled down:
  // iteration 1 gates, then the ledger turns the bounds off. The
  // driver's history must gate exactly where the direct run does, with
  // and without a crash (which, before any checkpoint, re-seeds from
  // scratch), and both stay serial Lloyd bit for bit.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(2048, 64, 1);
  KmeansConfig config;
  config.k = 64;
  config.max_iterations = 8;
  config.tolerance = -1;
  config.init = InitMethod::kPlusPlus;
  config.checkpoint_every = 0;
  const KmeansResult ref = lloyd_serial(ds, config);
  const auto choice = best_plan_for_level(
      Level::kLevel2, ProblemShape{ds.n(), config.k, ds.d()}, machine);
  ASSERT_TRUE(choice.has_value());
  const KmeansResult direct = run_plan(choice->plan, ds, config, machine);
  expect_bit_identical(direct, ref, "direct");
  ASSERT_GT(direct.gated_iterations, 0u);
  for (const bool crash : {false, true}) {
    const std::string where = crash ? "crash" : "clean";
    swmpi::FaultPlan plan;
    if (crash) {
      plan.crash(1, /*iteration=*/5, swmpi::FaultSite::kUpdate);
    }
    KmeansConfig c = config;
    c.fault_plan = &plan;
    RecoveryOptions options;
    options.checkpoint_path =
        ::testing::TempDir() + "/swhkm_one_leg_" + where + ".ckpt";
    RecoveryDriver driver(machine, options);
    const KmeansResult got = driver.run(Level::kLevel2, ds, c);
    EXPECT_EQ(plan.fired_crashes(), crash ? 1u : 0u) << where;
    EXPECT_FALSE(driver.report().resumed_from_checkpoint) << where;
    expect_bit_identical(got, ref, where.c_str());
    EXPECT_EQ(got.gated_iterations, direct.gated_iterations) << where;
    ASSERT_EQ(got.history.size(), direct.history.size()) << where;
    for (std::size_t i = 0; i < got.history.size(); ++i) {
      EXPECT_EQ(got.history[i].gated, direct.history[i].gated)
          << where << ": row " << i;
      EXPECT_EQ(got.history[i].simulated_s, direct.history[i].simulated_s)
          << where << ": row " << i;
    }
  }
}

TEST(GatedAssign, LdmBudgetResolvesTheTile) {
  // tiny(1, 4, 2048): the Level 1 layout of (256, 2, 4) takes 22 of each
  // CPE's 512 elements, so the CG's four CPEs share 4 x 490 x 4 = 7840
  // bytes of tile scratch. A 24-byte record per sample caps the chain
  // kernel's tile at 326; the GEMM sweep's 60 bytes per sample and the
  // k_local-double norm cache cap the GEMM tile at (7840 - 16) / 84 = 93.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 2048);
  const PartitionPlan plan =
      make_plan(Level::kLevel1, ProblemShape{256, 2, 4}, machine);
  const auto resolved = [&](std::size_t tile) {
    const LdmBudget budget = allocate_ldm(plan, machine, tile);
    return std::pair{budget.tile_samples, budget.gemm};
  };
  EXPECT_EQ(resolved(93), std::pair(std::size_t{93}, true));
  // Past the GEMM scratch the kernel falls back to the chain first ...
  EXPECT_EQ(resolved(94), std::pair(std::size_t{94}, false));
  EXPECT_EQ(resolved(326), std::pair(std::size_t{326}, false));
  // ... then the tile shrinks to the largest that fits.
  EXPECT_EQ(resolved(327), std::pair(std::size_t{326}, false));
  EXPECT_EQ(resolved(100000), std::pair(std::size_t{326}, false));
  EXPECT_THROW(allocate_ldm(plan, machine, 0), InfeasibleError);

  // Level 3 budgets the same records against its own layout: 7 elements
  // leave 4 x 505 x 4 = 8080 bytes, 336 records.
  const MachineConfig l3_machine = MachineConfig::tiny(2, 4, 2048);
  const PartitionPlan l3_plan =
      make_plan(Level::kLevel3, ProblemShape{256, 4, 4}, l3_machine, 0, 2);
  EXPECT_EQ(allocate_ldm(l3_plan, l3_machine, 336).tile_samples, 336u);
  EXPECT_EQ(allocate_ldm(l3_plan, l3_machine, 337).tile_samples, 336u);

  // The engines run the budget's tile, bit-identical to any other, and
  // reject a tile of 0 through the same path.
  const data::Dataset ds = data::make_blobs(64, 4, 2, 9);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 2;
  config.tile_samples = 100000;
  const KmeansResult shrunk = run_level(Level::kLevel1, ds, config, machine);
  EXPECT_EQ(shrunk.tile_samples, 326u);
  EXPECT_EQ(shrunk.assign_kernel, "chain");
  config.tile_samples = 16;
  const KmeansResult small = run_level(Level::kLevel1, ds, config, machine);
  EXPECT_EQ(small.tile_samples, 16u);
  expect_bit_identical(shrunk, small, "tile 326 vs 16");
  config.tile_samples = 0;
  EXPECT_THROW(run_level(Level::kLevel1, ds, config, machine),
               InfeasibleError);
}

TEST(GatedAssign, MinLoc2CombineMatchesSerialTopTwo) {
  // The top-two combine is pure selection, so any fold shape must agree
  // with a serial left-to-right scan — including duplicate distances and
  // index tie-breaks.
  const std::vector<std::pair<double, std::uint64_t>> cases[] = {
      {{3.0, 0}, {1.0, 1}, {2.0, 2}, {1.0, 3}},
      {{5.0, 4}, {5.0, 1}, {5.0, 2}},
      {{2.5, 7}, {0.5, 3}, {0.5, 0}, {9.0, 1}, {0.25, 6}},
      {{1.0, 0}},
  };
  for (const auto& entries : cases) {
    // Reference: the combine is a pure function of the candidate multiset —
    // winner is the lexicographic (value, index) minimum (value ties
    // resolve toward the smaller centroid index, like an ascending-j
    // scan), second is the second-smallest value counting multiplicity.
    std::vector<std::pair<double, std::uint64_t>> sorted(entries);
    std::sort(sorted.begin(), sorted.end());
    swhkm::swmpi::MinLoc2 ref{sorted[0].first, sorted[0].second,
                              sorted.size() > 1
                                  ? sorted[1].first
                                  : std::numeric_limits<double>::max()};
    // Every left-to-right fold of singleton records, plus a two-half tree
    // fold, must match.
    swhkm::swmpi::CombineMinLoc2 combine;
    auto make = [](const std::pair<double, std::uint64_t>& e) {
      return swhkm::swmpi::MinLoc2{e.first, e.second,
                                   std::numeric_limits<double>::max()};
    };
    swhkm::swmpi::MinLoc2 left = make(entries[0]);
    for (std::size_t i = 1; i < entries.size(); ++i) {
      combine(left, make(entries[i]));
    }
    EXPECT_EQ(left.value, ref.value);
    EXPECT_EQ(left.index, ref.index);
    EXPECT_EQ(left.second, ref.second);

    const std::size_t mid = entries.size() / 2;
    if (mid > 0 && mid < entries.size()) {
      swhkm::swmpi::MinLoc2 a = make(entries[0]);
      for (std::size_t i = 1; i < mid; ++i) {
        combine(a, make(entries[i]));
      }
      swhkm::swmpi::MinLoc2 b = make(entries[mid]);
      for (std::size_t i = mid + 1; i < entries.size(); ++i) {
        combine(b, make(entries[i]));
      }
      combine(a, b);
      EXPECT_EQ(a.value, ref.value);
      EXPECT_EQ(a.index, ref.index);
      EXPECT_EQ(a.second, ref.second);
    }
  }
}

/// The scalar safe-radius loop the multi-chain kernel replaced, frozen:
/// one squared_distance per unordered pair, folded into both rows.
void frozen_safe_radii(const util::Matrix& centroids,
                       std::vector<double>& safe) {
  const std::size_t k = centroids.rows();
  safe.assign(k, std::numeric_limits<double>::max());
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      const double half = std::sqrt(detail::squared_distance(
                              centroids.row(a), centroids.row(b))) /
                          2;
      safe[a] = std::min(safe[a], half);
      safe[b] = std::min(safe[b], half);
    }
  }
}

TEST(SafeRadii, KernelMatchesFrozenScalarLoop) {
  // Values span 2^-20..2^20, so the squared terms round differently in any
  // other summation order; every seventh row repeats the one before it
  // (radius 0). Both kernel builds, several CPE splits and LDM blocks.
  util::Xoshiro256 rng(29);
  for (const std::size_t k : {1u, 2u, 3u, 15u, 16u, 17u, 33u, 256u}) {
    for (const std::size_t d : {1u, 3u, 4u, 5u, 64u, 3072u}) {
      util::Matrix c(k, d);
      for (float& v : c.flat()) {
        v = static_cast<float>(std::ldexp(
            rng.uniform(-1.0, 1.0), static_cast<int>(rng.below(41)) - 20));
      }
      for (std::size_t j = 7; j < k; j += 7) {
        std::copy(c.row(j - 1).begin(), c.row(j - 1).end(),
                  c.flat().begin() + static_cast<std::ptrdiff_t>(j * d));
      }
      std::vector<double> want;
      frozen_safe_radii(c, want);
      const auto same_bits = [&](const std::vector<double>& got) {
        return got.size() == want.size() &&
               std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(double)) == 0;
      };
      std::vector<double> got;
      for (const detail::SampleBlockFn chains :
           {detail::sample_block_chains, &detail::sample_block_chains_generic}) {
        detail::compute_safe_radii(c, got, chains);
        EXPECT_TRUE(same_bits(got)) << "k " << k << ", d " << d;
      }
    }
  }
}

/// Records every (a, b) lane a chain call scores with b > a, for a d = 1
/// matrix whose row r holds the value r (so a lane's value names its row;
/// a short panel's zero padding never counts, as row 0 is never a b).
std::vector<std::uint32_t> g_pair_seen;
std::size_t g_pair_k = 0;
void spy_chains(const float* x, const double* panel, std::size_t d,
                double* acc) {
  detail::sample_block_chains_generic(x, panel, d, acc);
  const auto a = static_cast<std::size_t>(x[0]);
  for (std::size_t jj = 0; jj < detail::kCentroidRowBlock; ++jj) {
    const auto b = static_cast<std::size_t>(panel[jj]);
    if (b > a) {
      ++g_pair_seen[a * g_pair_k + b];
    }
  }
}

TEST(SafeRadii, PartitionScoresEveryPairOnceAndBalancesCpes) {
  for (const std::size_t cpes :
       {MachineConfig::tiny(1, 1).cpes_per_cg,
        MachineConfig::tiny(1, 4).cpes_per_cg,
        MachineConfig::sw26010(1).cpes_per_cg}) {
    for (const std::size_t k : {1u, 2u, 3u, 64u, 65u, 256u}) {
      for (const std::size_t block_rows : {1u, 2u, 1000u}) {
        util::Matrix c(k, 1);
        for (std::size_t r = 0; r < k; ++r) {
          c.at(r, 0) = static_cast<float>(r);
        }
        g_pair_k = k;
        g_pair_seen.assign(k * k, 0);
        std::vector<double> safe;
        detail::compute_safe_radii(c, safe, &spy_chains);
        const detail::SafeRadiusWork work =
            detail::safe_radius_work(k, cpes, block_rows);
        const detail::SafeRadiusPartition partition(k, cpes, block_rows);
        const std::string where = "cpes " + std::to_string(cpes) + ", k " +
                                  std::to_string(k) + ", block " +
                                  std::to_string(block_rows);

        // Every pair a < b scored exactly once, by row a's CPE.
        std::vector<std::uint64_t> by_owner(cpes, 0);
        for (std::size_t a = 0; a < k; ++a) {
          for (std::size_t b = a + 1; b < k; ++b) {
            EXPECT_EQ(g_pair_seen[a * k + b], 1u)
                << where << ": pair " << a << ", " << b;
            by_owner[partition.owner[a]] += g_pair_seen[a * k + b];
          }
        }
        EXPECT_EQ(work.cpe_pairs, by_owner) << where;
        std::uint64_t sum = 0;
        for (const std::uint64_t pairs : work.cpe_pairs) {
          sum += pairs;
        }
        EXPECT_EQ(sum, k * (k - 1) / 2) << where;
        const double mean =
            static_cast<double>(sum) / static_cast<double>(cpes);
        EXPECT_LE(static_cast<double>(work.max_cpe_pairs()),
                  mean + static_cast<double>(k > 0 ? k - 1 : 0))
            << where;

        // Streamed rows: each row with a partner lands once in its owner,
        // and each LDM block streams every row above its lowest row.
        std::uint64_t streamed = k > 0 ? k - 1 : 0;
        for (std::size_t a = 0; a + 1 < k; ++a) {
          if (partition.opens_block[a]) {
            streamed += k - 1 - a;
          }
        }
        EXPECT_EQ(work.streamed_rows, streamed) << where;
      }
    }
  }
}

TEST(SafeRadii, GatedIterationChargesTheExecutedCounts) {
  // Each cluster is its centre (one of the first k rows, so first-k seeding
  // picks it) plus `copies` copies of the centre +-1 along both axes: the
  // means are exact, no centroid drifts, and iteration 1 resolves every
  // sample at the gate. Level 1 then charges no sweep, so the iteration's
  // compute and centroid stream are the radius pass alone, and its mesh
  // time is the radius min-fold followed by the accumulator fold. The
  // copies make iteration 0's sweep outweigh one radius pass on every
  // machine, so the engine keeps the bounds: at small k the pass's fixed
  // mesh min-fold dominates, so the copies grow as 1/k^2.
  for (const MachineConfig& machine :
       {MachineConfig::tiny(1, 1, 8192), MachineConfig::tiny(1, 4, 8192),
        MachineConfig::sw26010(1)}) {
    for (const std::size_t k : {2u, 3u, 64u, 65u, 256u}) {
      const std::size_t copies = std::max<std::size_t>(4, 4096 / (k * k));
      const std::size_t d = 2;
      util::Matrix samples((1 + 4 * copies) * k, d);
      for (std::size_t j = 0; j < k; ++j) {
        const float x = 16.0f * static_cast<float>(j);
        const float offsets[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        samples.at(j, 0) = x;
        samples.at(j, 1) = 0;
        for (std::size_t o = 0; o < 4 * copies; ++o) {
          samples.at(k + 4 * copies * j + o, 0) = x + offsets[o % 4][0];
          samples.at(k + 4 * copies * j + o, 1) = offsets[o % 4][1];
        }
      }
      const data::Dataset ds("centres", samples);
      KmeansConfig config;
      config.k = k;
      config.max_iterations = 2;
      config.tolerance = -1;
      config.tile_samples = 16;  // fits a single 8 KiB CPE
      const KmeansResult r = run_level(Level::kLevel1, ds, config, machine);
      const std::string where = "cpes " +
                                std::to_string(machine.cpes_per_cg) +
                                ", k " + std::to_string(k);
      ASSERT_EQ(r.history.size(), 2u) << where;
      ASSERT_TRUE(r.history[1].gated) << where;
      const IterationStats& it = r.history[1];
      ASSERT_EQ(it.prune_rate, 1.0) << where;

      const detail::SafeRadiusWork work = detail::safe_radius_work(
          k, machine.cpes_per_cg,
          allocate_ldm(make_plan(Level::kLevel1, {ds.n(), k, d}, machine),
                       machine, config.tile_samples)
              .radius_block_rows);
      EXPECT_EQ(it.compute_s, static_cast<double>(work.max_cpe_pairs()) *
                                  machine.assign_row_seconds(d))
          << where;
      EXPECT_EQ(it.centroid_stream_s,
                static_cast<double>(work.streamed_rows * d *
                                    machine.elem_bytes) /
                    machine.dma_bandwidth)
          << where;
      simarch::CostTally mesh;
      simarch::RegComm reg(machine, mesh);
      reg.account_allreduce(k * sizeof(double), machine.cpes_per_cg);
      reg.account_allreduce((k * d + k) * machine.elem_bytes,
                            machine.cpes_per_cg);
      EXPECT_EQ(it.mesh_comm_s, mesh.mesh_comm_s) << where;
      // The same pass on iteration 0's (unchanged) snapshot moved the
      // centroid reloads out of the DMA volume and the streamed rows in.
      const std::uint64_t reloads = machine.num_cgs() * machine.cpes_per_cg *
                                    k * d * machine.elem_bytes;
      EXPECT_EQ(it.dma_bytes + reloads,
                r.history[0].dma_bytes +
                    machine.num_cgs() * work.streamed_rows * d *
                        machine.elem_bytes)
          << where;
    }
  }
}

// ------------------------------------------------------------ group gate

/// Serial top-two of sample x over centroids [begin, end) minus `skip`:
/// (least squared distance, its index, runner-up squared distance).
detail::TileScore2 top_two(std::span<const float> x, const util::Matrix& c,
                           std::size_t begin, std::size_t end,
                           std::size_t skip) {
  detail::TileScore2 rec;
  detail::clear_scores(std::span<detail::TileScore2>(&rec, 1));
  for (std::size_t j = begin; j < end; ++j) {
    if (j != skip) {
      detail::offer_score(rec, detail::squared_distance(x, c.row(j)), j);
    }
  }
  return rec;
}

TEST(GroupGate, SkippedGroupsCannotHoldTheArgmin) {
  // A hand-built tile: exact bounds against centroids c0, then every
  // centroid moves a little (c1). For each k — a multiple of 8, not one,
  // and fewer than 8 — the gate must decay each group's bound by that
  // group's worst other mover, resolve only samples whose argmin under c1
  // is unique and unchanged, and let a survivor skip only groups whose
  // true minimum is at least its tightened upper. Merging the scored
  // groups must then give a full scan's winner and exact bounds.
  const std::size_t d = 5;
  const std::size_t n = 256;
  const data::Dataset ds = data::make_blobs(n, d, 24, 7, 3.0);
  std::size_t resolved_total = 0;
  std::size_t skipping_survivors = 0;
  std::size_t left_skipped_group = 0;
  for (const std::size_t k : {24u, 21u, 5u}) {
    const detail::GroupSplit split{k, std::min<std::size_t>(8, k)};
    const std::size_t groups = split.groups;
    util::Matrix c0(k, d);
    util::Matrix c1(k, d);
    util::Xoshiro256 rng(k);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t u = 0; u < d; ++u) {
        c0.at(j, u) = ds.sample(j * (n / k)).data()[u];
        c1.at(j, u) = c0.at(j, u) + static_cast<float>(rng.uniform(-0.3, 0.3));
      }
    }
    std::vector<std::uint32_t> assign(n);
    std::vector<double> upper(n);
    std::vector<double> lower(n * groups);
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = ds.sample(i);
      const detail::TileScore2 best = top_two(x, c0, 0, k, k);
      assign[i] = static_cast<std::uint32_t>(best.index);
      upper[i] = std::sqrt(best.value);
      for (std::size_t g = 0; g < groups; ++g) {
        const auto [b, e] = split.range(g);
        lower[i * groups + g] =
            std::sqrt(top_two(x, c0, b, e, best.index).value);
      }
    }
    std::vector<double> drift(k);
    for (std::size_t j = 0; j < k; ++j) {
      drift[j] = std::sqrt(detail::squared_distance(c0.row(j), c1.row(j)));
    }
    std::vector<detail::DriftDigest> digests(groups);
    detail::group_drift_digests(drift, split, digests);

    std::vector<double> up = upper;
    std::vector<double> lo = lower;
    std::vector<std::uint32_t> ids;
    std::vector<std::uint8_t> scan;
    std::vector<double> assigned_sq;
    std::vector<std::uint64_t> tightened_at(k, 0);
    const std::size_t tightened = detail::gate_groups(
        ds, c1, 0, n, assign, drift, split, digests, {}, 0, up, lo,
        /*tighten=*/true,
        detail::GateSurvivors{ids, &scan, &assigned_sq, tightened_at});
    EXPECT_EQ(std::accumulate(tightened_at.begin(), tightened_at.end(),
                              std::uint64_t{0}),
              tightened);

    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string where =
          "k " + std::to_string(k) + ", sample " + std::to_string(i);
      const auto x = ds.sample(i);
      const std::uint32_t a = assign[i];
      for (std::size_t g = 0; g < groups; ++g) {
        const auto [b, e] = split.range(g);
        double worst = 0;
        for (std::size_t j = b; j < e; ++j) {
          worst = j == a ? worst : std::max(worst, drift[j]);
        }
        EXPECT_EQ(lo[i * groups + g], lower[i * groups + g] - worst)
            << where << ", group " << g;
      }
      const detail::TileScore2 truth = top_two(x, c1, 0, k, k);
      if (pos == ids.size() || ids[pos] != i) {
        ++resolved_total;
        EXPECT_EQ(truth.index, a) << where;
        EXPECT_LT(truth.value, truth.second) << where;
        continue;
      }
      const double sq = detail::squared_distance(x, c1.row(a));
      EXPECT_EQ(assigned_sq[pos], sq) << where;
      EXPECT_EQ(up[i], std::sqrt(sq)) << where;
      const detail::TileScore2* recs[detail::kMaxBoundGroups] = {};
      std::vector<detail::TileScore2> scored(groups);
      bool skipped = false;
      for (std::size_t g = 0; g < groups; ++g) {
        const auto [b, e] = split.range(g);
        const bool bit = (scan[pos] >> g & 1u) != 0;
        EXPECT_EQ(bit, lo[i * groups + g] <= up[i]) << where << ", group " << g;
        if (bit) {
          scored[g] = top_two(x, c1, b, e, k);
          recs[g] = &scored[g];
        } else {
          skipped = true;
          EXPECT_GE(std::sqrt(top_two(x, c1, b, e, a).value), up[i])
              << where << ", group " << g;
        }
      }
      skipping_survivors += skipped ? 1 : 0;
      const std::uint32_t winner = detail::merge_group_records<
          detail::TileScore2>(
          std::span<const detail::TileScore2* const>(recs, groups), scan[pos],
          split, a, assigned_sq[pos], up[i], lo.data() + i * groups);
      EXPECT_EQ(winner, truth.index) << where;
      EXPECT_EQ(up[i], std::sqrt(truth.value)) << where;
      left_skipped_group +=
          winner != a && (scan[pos] >> split.group_of(a) & 1u) == 0 ? 1 : 0;
      for (std::size_t g = 0; g < groups; ++g) {
        const auto [b, e] = split.range(g);
        const double exact = std::sqrt(top_two(x, c1, b, e, winner).value);
        if ((scan[pos] >> g & 1u) != 0) {
          EXPECT_EQ(lo[i * groups + g], exact) << where << ", group " << g;
        } else {
          EXPECT_LE(lo[i * groups + g], exact) << where << ", group " << g;
        }
      }
      ++pos;
    }
    EXPECT_EQ(pos, ids.size());
  }
  // The tile exercises every branch.
  EXPECT_GT(resolved_total, 0u);
  EXPECT_GT(skipping_survivors, 0u);
  EXPECT_GT(left_skipped_group, 0u);
}

TEST(GroupGate, GroupedKernelsMatchSerialPerGroup) {
  // One grouped call, chain or GEMM, over samples with random group masks:
  // each scored (sample, group) record is the serial top-two over that
  // group's columns, and an unscored one stays cleared. The GEMM rescore
  // runs its candidates through the gathered chain kernel, so this also
  // pins those lanes to squared_distance.
  const std::size_t d = 7;
  const data::Dataset ds = data::make_blobs(96, d, 6, 3, 1.5);
  util::Xoshiro256 rng(5);
  for (const std::size_t k : {5u, 21u, 64u}) {
    util::Matrix c(k, d);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t u = 0; u < d; ++u) {
        c.at(j, u) = ds.sample((j * 11) % ds.n())[u] +
                     static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
    // A repeated row makes exact ties inside and across groups.
    for (std::size_t u = 0; u < d; ++u) {
      c.at(k / 2, u) = c.at(k / 2 - 1, u);
    }
    detail::CentroidNormCache norms;
    norms.refresh_full(c);
    const detail::TileGroups split{std::min<std::size_t>(8, k)};
    std::vector<std::uint32_t> ids;
    std::vector<std::uint8_t> scan;
    for (std::size_t i = 0; i < ds.n(); i += 2) {
      ids.push_back(static_cast<std::uint32_t>(i));
      scan.push_back(static_cast<std::uint8_t>(rng.uniform(0, 256)));
    }
    const detail::TileGroups groups{split.groups, scan};
    for (const bool gemm : {false, true}) {
      std::vector<detail::TileScore2> got(ids.size() * groups.groups);
      detail::clear_scores(std::span<detail::TileScore2>(got));
      if (gemm) {
        detail::score_tile_ids_gemm(ds, ids, c, norms.norms, 0, k,
                                    std::span<detail::TileScore2>(got),
                                    nullptr, groups);
      } else {
        detail::score_tile_ids(ds, ids, c, 0, k,
                               std::span<detail::TileScore2>(got), groups);
      }
      for (std::size_t t = 0; t < ids.size(); ++t) {
        for (std::size_t g = 0; g < groups.groups; ++g) {
          const std::string where = std::string(gemm ? "gemm" : "chain") +
                                    ", k " + std::to_string(k) + ", row " +
                                    std::to_string(t) + ", group " +
                                    std::to_string(g);
          const detail::TileScore2& rec = got[g * ids.size() + t];
          detail::TileScore2 want;
          detail::clear_scores(std::span<detail::TileScore2>(&want, 1));
          if (groups.scores(t, g)) {
            const auto [b, e] = groups.range(0, k, g);
            want = top_two(ds.sample(ids[t]), c, b, e, k);
          }
          EXPECT_EQ(rec.value, want.value) << where;
          EXPECT_EQ(rec.index, want.index) << where;
          EXPECT_EQ(rec.second, want.second) << where;
        }
      }
    }
  }
}

TEST(GroupGate, MergeBreaksTiesTowardTheLowerGroup) {
  // Equal distances in groups 0 and 1 (a coincident pair straddling the
  // boundary): the merge must keep group 0's index, as a serial scan
  // would, and both groups' bounds must then read the tied distance.
  const detail::GroupSplit split{4, 2};
  const detail::TileScore2 g0{4.0, 1, 9.0};
  const detail::TileScore2 g1{4.0, 2, 16.0};
  const detail::TileScore2* recs[2] = {&g0, &g1};
  double upper = 0;
  double lower[2] = {};
  const std::uint32_t winner = detail::merge_group_records<detail::TileScore2>(
      std::span<const detail::TileScore2* const>(recs, 2), 0b11, split, 3,
      std::numeric_limits<double>::quiet_NaN(), upper, lower);
  EXPECT_EQ(winner, 1u);
  EXPECT_EQ(upper, 2.0);
  EXPECT_EQ(lower[0], 3.0);
  EXPECT_EQ(lower[1], 2.0);
  // A skipped assigned group offers its centroid at the exact distance:
  // here it ties group 1's best and, being lower, wins.
  double upper2 = 2.0;
  double lower2[2] = {5.0, 1.0};
  const std::uint32_t kept = detail::merge_group_records<detail::TileScore2>(
      std::span<const detail::TileScore2* const>(recs, 2), 0b10, split, 0,
      4.0, upper2, lower2);
  EXPECT_EQ(kept, 0u);
  EXPECT_EQ(upper2, 2.0);
  EXPECT_EQ(lower2[0], 5.0);
  EXPECT_EQ(lower2[1], 2.0);
}

TEST(GroupGate, CoincidentCentroidsAcrossGroupBoundaries) {
  // First-k seeding on rows that repeat across group boundaries (k = 16,
  // groups of two: rows 1|2, 5|6 and 9|10 coincide) over a tiny set of
  // repeated points: every sample ties exactly between the two sides of a
  // boundary, so only a lowest-group-first merge reproduces serial Lloyd.
  const std::size_t d = 3;
  const std::size_t k = 16;
  const std::size_t distinct = 13;
  std::vector<float> points;
  for (std::size_t q = 0; q < distinct; ++q) {
    for (std::size_t u = 0; u < d; ++u) {
      points.push_back(static_cast<float>((q * (u + 2)) % 7) +
                       0.25f * static_cast<float>(q % 3));
    }
  }
  // Row r of the first k picks distinct point p[r]; coincident pairs share.
  const std::size_t first[k] = {0, 1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 9, 10, 11, 12};
  std::vector<float> values;
  for (std::size_t r = 0; r < k; ++r) {
    values.insert(values.end(), points.begin() + first[r] * d,
                  points.begin() + (first[r] + 1) * d);
  }
  for (std::size_t rep = 0; rep < 24; ++rep) {
    for (std::size_t q = 0; q < distinct; ++q) {
      values.insert(values.end(), points.begin() + q * d,
                    points.begin() + (q + 1) * d);
    }
  }
  const data::Dataset ds("boundary_ties", util::Matrix::from_vector(
                                              values.size() / d, d, values));
  KmeansConfig config;
  config.k = k;
  config.max_iterations = 10;
  config.tolerance = -1;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const KmeansResult got = run_level(Level::kLevel2, ds, config, machine);
  EXPECT_EQ(got.bound_groups, 8u);
  EXPECT_GT(got.gated_iterations, 0u);
  expect_bit_identical(got, ref, "level2");
}

TEST(GroupGate, GroupCountFollowsTheLevelAndK) {
  // group_of inverts block_range for every k and group count.
  for (std::size_t k = 1; k <= 40; ++k) {
    for (std::size_t groups = 1; groups <= std::min<std::size_t>(8, k);
         ++groups) {
      const detail::GroupSplit split{k, groups};
      for (std::size_t g = 0; g < groups; ++g) {
        const auto [b, e] = split.range(g);
        ASSERT_LT(b, e);
        for (std::size_t j = b; j < e; ++j) {
          ASSERT_EQ(split.group_of(j), g) << k << " / " << groups;
        }
      }
    }
  }
  // Level 2 keeps min(8, k) groups, Level 3 min(16, k), Level 1 one; k
  // not a multiple of the group count and k below it stay serial Lloyd
  // bit for bit.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(480, 6, 7, 5, 3.0);
  for (const std::size_t k : {3u, 5u, 7u, 8u, 13u, 21u}) {
    KmeansConfig config;
    config.k = k;
    config.max_iterations = 10;
    config.init = InitMethod::kPlusPlus;
    const KmeansResult ref = lloyd_serial(ds, config);
    for (const Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
      const std::string where =
          std::string(level_name(level)) + ", k " + std::to_string(k);
      const KmeansResult got = run_level(level, ds, config, machine);
      const std::size_t groups =
          level == Level::kLevel2   ? std::min<std::size_t>(8, k)
          : level == Level::kLevel3 ? std::min<std::size_t>(16, k)
                                    : 1u;
      EXPECT_EQ(got.bound_groups, groups) << where;
      expect_bit_identical(got, ref, where.c_str());
    }
  }
}

TEST(GroupGate, Level2MatchesSerialAtEveryMemberCount) {
  // m_group 1..16 on 16-CPE CGs: at 16 members k_local = 2, so each of the
  // eight 3-centroid groups spans two members. Then the same shape under
  // the RecoveryDriver with a crash in the second leg.
  const MachineConfig machine = MachineConfig::tiny(2, 16, 8192);
  const data::Dataset ds = data::make_blobs(960, 6, 9, 13, 2.5);
  KmeansConfig config;
  config.k = 24;
  config.max_iterations = 12;
  config.tolerance = -1;
  config.init = InitMethod::kPlusPlus;
  const KmeansResult ref = lloyd_serial(ds, config);
  for (const std::size_t m : {1u, 2u, 4u, 8u, 16u}) {
    const std::string where = "m_group " + std::to_string(m);
    const KmeansResult got =
        run_level(Level::kLevel2, ds, config, machine, m);
    EXPECT_GT(got.gated_iterations, 0u) << where;
    EXPECT_EQ(got.bound_groups, 8u) << where;
    expect_bit_identical(got, ref, where.c_str());
  }
  swmpi::FaultPlan plan;
  plan.crash(1, /*iteration=*/5, swmpi::FaultSite::kUpdate);
  KmeansConfig faulty = config;
  faulty.fault_plan = &plan;
  faulty.checkpoint_every = 4;
  RecoveryOptions options;
  options.checkpoint_path =
      ::testing::TempDir() + "/swhkm_group_gate_legs.ckpt";
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(Level::kLevel2, ds, faulty);
  EXPECT_EQ(plan.fired_crashes(), 1u);
  EXPECT_GT(got.gated_iterations, 0u);
  EXPECT_EQ(got.bound_groups, 8u);
  expect_bit_identical(got, ref, "recovery");
}

}  // namespace
}  // namespace swhkm::core
