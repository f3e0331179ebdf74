#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
  // 160 samples against k = 64 on 4 CGs: one safe-radius pass (k(k-1)/2
  // pairs per CG, its DMA and mesh fold) costs more than iteration 0's
  // whole sweep, so the engine runs every iteration without bounds. Such a
  // run is still serial Lloyd bit for bit, prunes nothing, never runs the
  // pass, and so prices every iteration exactly like iteration 0.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 12, 5, 17);
  KmeansConfig config;
  config.k = 64;
  config.max_iterations = 6;
  config.tolerance = -1;
  const KmeansResult ref = lloyd_serial(ds, config);
  const KmeansResult got = run_level(GetParam(), ds, config, machine);
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
  // and prices every iteration like iteration 0.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_uniform(600, 8, 11);
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
            got.gated_iterations * config.k * (config.k - 1) / 2);
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
            legs_gated * config.k * (config.k - 1) / 2);
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
  // gated iteration would turn them off there.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(600, 2, 3, 2, 4.0);
  KmeansConfig config;
  config.k = 16;
  config.max_iterations = 20;
  config.init = InitMethod::kPlusPlus;
  config.seed = 2;
  const KmeansResult ref = lloyd_serial(ds, config);
  for (const Level level : {Level::kLevel1, Level::kLevel2}) {
    const KmeansResult got = run_level(level, ds, config, machine);
    const std::string where = level_name(level);
    expect_bit_identical(got, ref, where.c_str());
    ASSERT_GT(got.history.size(), 3u) << where;
    EXPECT_TRUE(got.history[2].gated) << where;
    EXPECT_GT(got.history[2].simulated_s, got.history[0].simulated_s)
        << where;
    EXPECT_TRUE(got.history[3].gated) << where;
    EXPECT_EQ(replay_bounds_ledger(got.history, 0, got.history.size(), where),
              got.gated_iterations);
  }
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
  // *unresolved* sample at 24 bytes across the slice group. The
  // per-iteration accumulator/publish charges are constant, so the
  // net-byte drop from iteration 0 must equal exactly
  // pruned * 24 * (p - 1) * p (every one of the group's p ranks skips the
  // record exchange with its p-1 peers).
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const std::size_t p = 2;
  const data::Dataset ds = data::make_blobs(300, 8, 4, 23);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 8;
  config.tolerance = -1;
  const KmeansResult gated = run_level(Level::kLevel3, ds, config, machine,
                                       0, p);
  ASSERT_EQ(gated.gated_iterations, gated.iterations - 1);
  ASSERT_GT(gated.history.size(), 1u);

  double total_rate = 0;
  for (std::size_t t = 1; t < gated.history.size(); ++t) {
    const IterationStats& it = gated.history[t];
    const auto pruned = static_cast<std::uint64_t>(
        std::llround(it.prune_rate * static_cast<double>(ds.n())));
    EXPECT_EQ(gated.history[0].net_bytes - it.net_bytes,
              pruned * sizeof(swmpi::MinLoc2) * (p - 1) * p)
        << "iteration " << t;
    // DMA shrinks with the gate too (resolved samples stream once, into
    // their owner, instead of into every rank of the group).
    if (pruned > 0) {
      EXPECT_LT(it.dma_bytes, gated.history[0].dma_bytes)
          << "iteration " << t;
    }
    total_rate += it.prune_rate;
  }
  ASSERT_GT(total_rate, 0.0) << "workload never pruned; test is vacuous";
}

TEST(GatedAssign, ResolveTileSamplesValidatesAgainstLdm) {
  // tiny(1, 4, 2048): 4 CPEs x 2 KiB LDM = 8192 bytes of aggregate
  // scratchpad; with the GEMM sweep off, a 24-byte record caps the tile at
  // 341 samples.
  const MachineConfig machine = MachineConfig::tiny(1, 4, 2048);
  const PartitionPlan plan =
      make_plan(Level::kLevel1, ProblemShape{256, 2, 4}, machine);
  EXPECT_EQ(resolve_tile_samples(256, plan, machine, 1, false), 256u);
  EXPECT_EQ(resolve_tile_samples(341, plan, machine, 1, false), 341u);
  EXPECT_THROW(resolve_tile_samples(342, plan, machine, 1, false),
               InfeasibleError);
  EXPECT_THROW(resolve_tile_samples(0, plan, machine), InfeasibleError);

  // The GEMM sweep's per-sample candidate scratch (60 bytes) + the
  // k_local-double norm cache ride on top: 84 bytes/sample + 16 caps the
  // default-config tile at 97 samples on the same machine.
  EXPECT_EQ(resolve_tile_samples(97, plan, machine), 97u);
  EXPECT_THROW(resolve_tile_samples(98, plan, machine), InfeasibleError);

  // s-step folding multiplies the live record footprint on Level 3 only
  // (the other levels retire each tile's records on the register bus).
  const MachineConfig l3_machine = MachineConfig::tiny(2, 4, 2048);
  const PartitionPlan l3_plan =
      make_plan(Level::kLevel3, ProblemShape{256, 4, 4}, l3_machine, 0, 2);
  EXPECT_EQ(resolve_tile_samples(85, l3_plan, l3_machine, 4, false), 85u);
  EXPECT_THROW(resolve_tile_samples(86, l3_plan, l3_machine, 4, false),
               InfeasibleError);
  EXPECT_EQ(resolve_tile_samples(341, plan, machine, 4, false), 341u);
  EXPECT_THROW(resolve_tile_samples(64, plan, machine, 0, false),
               InfeasibleError);

  // The engines reject through the same path.
  const data::Dataset ds = data::make_blobs(64, 4, 2, 9);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 2;
  config.tile_samples = 100000;
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
          k, machine.cpes_per_cg, detail::safe_radius_block_rows(machine, d));
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

}  // namespace
}  // namespace swhkm::core
