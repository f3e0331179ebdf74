#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_common.hpp"
#include "core/engine_loop.hpp"
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

/// A Level 3 plan as far as held_centroid_rows reads it: k rows in slices
/// of ceil(k / m'_group).
PartitionPlan slice_plan(std::size_t k, std::size_t mprime) {
  PartitionPlan plan;
  plan.level = Level::kLevel3;
  plan.shape.k = k;
  plan.mprime_group = mprime;
  plan.k_local = (k + mprime - 1) / mprime;
  return plan;
}

/// One update over `size` ranks whose accumulators hold `plan`'s rows,
/// either as row-range accumulators or as full-size ones that hold +0.0
/// outside the range. Both add the same samples in the same order, some
/// of them -0.0 and some rows all -0.0.
struct FoldRun {
  util::Matrix centroids;
  std::vector<double> drift;
  detail::UpdateOutcome outcome;
  bool negative_zero_partial = false;
};

FoldRun fold_with(const PartitionPlan& plan, int size, std::size_t d,
                  bool row_range) {
  const std::size_t k = plan.shape.k;
  FoldRun run{util::Matrix(k, d), std::vector<double>(k, -1.0), {}, false};
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t u = 0; u < d; ++u) {
      run.centroids.at(j, u) = static_cast<float>((j * 5 + u) % 9) - 4.0f;
    }
  }
  // Samples rank r adds: (j + r) % 3 of them to each row it holds, so some
  // rows are empty on a holder, and some on every holder.
  const auto samples_of = [&](std::size_t r, std::size_t j) {
    return (j + r) % 3;
  };
  std::uint64_t total = 0;
  for (int r = 0; r < size; ++r) {
    const auto [b, e] = held_centroid_rows(plan, static_cast<std::size_t>(r));
    for (std::size_t j = b; j < e; ++j) {
      total += samples_of(static_cast<std::size_t>(r), j);
    }
  }
  std::vector<detail::UpdateOutcome> outcomes(static_cast<std::size_t>(size));
  std::vector<char> negative_zero(static_cast<std::size_t>(size), 0);
  swmpi::run_spmd(size, [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const auto [b, e] = held_centroid_rows(plan, rank);
    detail::UpdateAccumulator acc =
        row_range ? detail::UpdateAccumulator(k, d, b, e)
                  : detail::UpdateAccumulator(k, d);
    std::vector<float> x(d);
    for (std::size_t j = b; j < e; ++j) {
      for (std::size_t s = 0; s < samples_of(rank, j); ++s) {
        for (std::size_t u = 0; u < d; ++u) {
          const bool neg_zero = j % 7 == 0 || (j + u + rank + s) % 4 == 0;
          x[u] = neg_zero ? -0.0f
                          : static_cast<float>(spread_value(
                                rank, (j * d + u) * 3 + s));
        }
        acc.add_sample(static_cast<std::uint32_t>(j), x);
      }
    }
    for (const double v : acc.sums) {
      if (v == 0.0 && std::signbit(v)) {
        negative_zero[rank] = 1;
      }
    }
    std::vector<double> drift(k);
    outcomes[rank] =
        detail::reduce_and_update(comm, run.centroids, acc, drift, total);
    if (rank == 0) {
      run.drift = drift;
    }
  });
  for (int r = 1; r < size; ++r) {
    EXPECT_EQ(bits(outcomes[static_cast<std::size_t>(r)].shift),
              bits(outcomes[0].shift));
    EXPECT_EQ(outcomes[static_cast<std::size_t>(r)].empty_clusters,
              outcomes[0].empty_clusters);
  }
  run.outcome = outcomes[0];
  for (const char z : negative_zero) {
    run.negative_zero_partial = run.negative_zero_partial || z != 0;
  }
  return run;
}

/// The Level 3 accumulators hold only their slice's rows. Folding them
/// must give the bits of full-size accumulators, which hold +0.0 in every
/// row outside the slice: for 1-8 ranks, shards that straddle
/// slice edges (k = 100 on 8 ranks at m' = 4 cuts shards of 13 rows
/// across slices of 25), empty slices (k < m') and -0.0 samples.
TEST(ShardedUpdate, RowRangeAccumulatorsFoldLikeZeroPaddedOnes) {
  const std::size_t d = 3;
  for (int size = 1; size <= 8; ++size) {
    for (const std::size_t mprime : {1u, 2u, 4u, 8u}) {
      if (static_cast<std::size_t>(size) % mprime != 0) {
        continue;
      }
      for (const std::size_t k : {3u, 13u, 100u}) {
        SCOPED_TRACE("size=" + std::to_string(size) + " m'=" +
                     std::to_string(mprime) + " k=" + std::to_string(k));
        const PartitionPlan plan = slice_plan(k, mprime);
        const FoldRun sliced = fold_with(plan, size, d, true);
        const FoldRun padded = fold_with(plan, size, d, false);
        EXPECT_FALSE(sliced.negative_zero_partial);
        EXPECT_FALSE(padded.negative_zero_partial);
        EXPECT_EQ(bits(sliced.outcome.shift), bits(padded.outcome.shift));
        EXPECT_EQ(sliced.outcome.empty_clusters,
                  padded.outcome.empty_clusters);
        EXPECT_EQ(std::memcmp(sliced.centroids.data(),
                              padded.centroids.data(),
                              k * d * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(sliced.drift.data(), padded.drift.data(),
                              k * sizeof(double)),
                  0);
      }
    }
  }
}

/// held_centroid_rows is the one map from (plan, CG) to the rows a CG's
/// update accumulator holds, and every Level 3 rank's accumulator is
/// sized by it: k_local x d for a full slice, the remainder for the last
/// one, zero rows for an empty slice. Levels 1 and 2 hold all k.
TEST(ShardedUpdate, Level3AccumulatorsHoldOnlyTheirSlice) {
  const PartitionPlan straddle = slice_plan(100, 4);
  for (std::size_t cg = 0; cg < 8; ++cg) {
    const std::size_t w = cg % 4;
    EXPECT_EQ(held_centroid_rows(straddle, cg),
              (std::pair<std::size_t, std::size_t>{25 * w, 25 * w + 25}));
  }
  const PartitionPlan ragged = slice_plan(10, 4);  // slices 3, 3, 3, 1
  EXPECT_EQ(held_centroid_rows(ragged, 3),
            (std::pair<std::size_t, std::size_t>{9, 10}));
  const PartitionPlan sparse = slice_plan(3, 4);  // k < m'
  EXPECT_EQ(held_centroid_rows(sparse, 2),
            (std::pair<std::size_t, std::size_t>{2, 3}));
  EXPECT_EQ(held_centroid_rows(sparse, 3),
            (std::pair<std::size_t, std::size_t>{3, 3}));
  PartitionPlan level2 = slice_plan(100, 4);
  level2.level = Level::kLevel2;
  EXPECT_EQ(held_centroid_rows(level2, 3),
            (std::pair<std::size_t, std::size_t>{0, 100}));

  // The engine's accumulators, read through a policy that sweeps nothing:
  // k = 3 over m' = 4 leaves each group's last CG an empty slice.
  const data::Dataset ds = data::make_blobs(64, 5, 3, 29);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(4, 4, 8192);
  for (const std::size_t k : {3u, 10u}) {
    KmeansConfig config;
    config.k = k;
    config.max_iterations = 1;
    const PartitionPlan plan =
        make_plan(Level::kLevel3, {ds.n(), k, ds.d()}, machine, 0, 4);
    std::vector<std::pair<std::size_t, std::size_t>> rows(machine.num_cgs());
    std::vector<std::size_t> sums(machine.num_cgs());
    struct Idle final : detail::LevelPolicy {
      detail::AssignSweep sweep(detail::EngineRank&) override { return {}; }
      void charge(detail::EngineRank&) override {}
    };
    (void)detail::run_engine(
        Level::kLevel3, "level3", ds, config, machine, plan,
        init_centroids(ds, config), [&](detail::EngineRank& rank) {
          rows[rank.cg] = {rank.acc.row_begin(), rank.acc.row_end()};
          sums[rank.cg] = rank.acc.sums.size();
          return std::make_unique<Idle>();
        });
    for (std::size_t cg = 0; cg < machine.num_cgs(); ++cg) {
      const auto [b, e] = held_centroid_rows(plan, cg);
      EXPECT_EQ(rows[cg], held_centroid_rows(plan, cg)) << "k=" << k;
      EXPECT_EQ(sums[cg], (e - b) * ds.d()) << "k=" << k << " cg=" << cg;
      EXPECT_LE(e - b, plan.k_local);
    }
    // CG 3 holds the last slice: empty at k = 3, one row at k = 10.
    EXPECT_EQ(sums[3], k == 3 ? 0u : ds.d()) << "k=" << k;
  }
}

/// Level 3 across two CG groups of four (tiny(4, 4, 512): eight CGs,
/// k = 100, d = 96, so the planner itself picks m' = 4): every update
/// shard straddles a slice edge and each row folds over two holders. The
/// fit must be byte-equal to lloyd_serial with the SDC defense off and
/// on, and under RecoveryDriver with one crash. tiny(2, 4, 512) runs the
/// same shape as one group of four, where every row has one holder.
TEST(ShardedUpdate, Level3MultiGroupFitMatchesSerialLloyd) {
  const data::Dataset ds = data::make_blobs(600, 96, 40, 4711);
  KmeansConfig config;
  config.k = 100;
  config.max_iterations = 8;
  config.tolerance = -1;  // all eight iterations: the crash lands inside
  config.tile_samples = 16;
  config.checkpoint_every = 2;
  const KmeansResult ref = lloyd_serial(ds, config);
  const std::size_t bytes = ref.centroids.size() * sizeof(float);
  const auto expect_serial = [&](const KmeansResult& got) {
    EXPECT_EQ(got.iterations, ref.iterations);
    EXPECT_EQ(got.assignments, ref.assignments);
    EXPECT_EQ(got.empty_clusters, ref.empty_clusters);
    ASSERT_EQ(got.centroids.size(), ref.centroids.size());
    EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(), bytes),
              0);
  };
  for (const std::size_t nodes : {2u, 4u}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    const simarch::MachineConfig machine =
        simarch::MachineConfig::tiny(nodes, 4, 512);
    const auto choice = best_plan_for_level(
        Level::kLevel3, {ds.n(), config.k, ds.d()}, machine);
    ASSERT_TRUE(choice.has_value());
    ASSERT_EQ(choice->plan.mprime_group, 4u);
    ASSERT_EQ(choice->plan.num_flow_units, machine.num_cgs() / 4);
    for (const bool sdc : {false, true}) {
      SCOPED_TRACE(sdc ? "sdc on" : "sdc off");
      KmeansConfig cfg = config;
      cfg.sdc_checks = sdc;
      expect_serial(run_level(Level::kLevel3, ds, cfg, machine, 0, 4));
    }
    swmpi::FaultPlan plan;
    plan.crash(static_cast<int>(machine.num_cgs()) - 1, /*iteration=*/3,
               swmpi::FaultSite::kUpdate);
    KmeansConfig faulty = config;
    faulty.fault_plan = &plan;
    RecoveryOptions options;
    options.checkpoint_path = ::testing::TempDir() +
                              "/swhkm_sharded_l3_" + std::to_string(nodes) +
                              ".ckpt";
    RecoveryDriver driver(machine, options);
    expect_serial(driver.run(Level::kLevel3, ds, faulty));
    EXPECT_EQ(plan.fired_crashes(), 1u);
    EXPECT_EQ(driver.report().faults, 1u);
    EXPECT_FALSE(driver.report().degraded);
  }
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
  // combine), gate and GEMM on, and 128-sample tiles draining through
  // the hierarchical SplitAllreduce, run to convergence.
  const data::Dataset blobs = data::make_blobs(2048, 16, 12, 717);
  KmeansConfig l3_cfg;
  l3_cfg.k = 24;
  l3_cfg.max_iterations = 30;
  l3_cfg.tolerance = 0;
  l3_cfg.tile_samples = 128;
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

/// Each collective's supernode-crossing bytes are booked once, not once per
/// CG that enters it. tiny(8, 4, ...) spans two supernodes: one Level 1
/// iteration crosses exactly the update's reduce_scatter and allgather; one
/// Level 3 iteration with a machine-wide CG group crosses one group argmin
/// per sample (iteration 0 sweeps them all) plus the allgather; and with
/// one CG group per supernode only the same-slice update exchange and the
/// allgather cross.
TEST(ShardedUpdate, CrossingBytesCountEachCollectiveOnce) {
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(8, 4, 8192);
  const simarch::Topology topo(machine);
  const std::size_t num_cgs = machine.num_cgs();
  const std::size_t xover = machine.collective_crossover_bytes();
  const data::Dataset blobs = data::make_blobs(640, 12, 5, 17);
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 1;
  const ProblemShape shape{blobs.n(), config.k, blobs.d()};

  const PartitionPlan l1 = make_plan(Level::kLevel1, shape, machine);
  const KmeansResult r1 = run_level(Level::kLevel1, blobs, config, machine);
  ASSERT_EQ(r1.history.size(), 1u);
  const std::size_t accum_bytes =
      (config.k * blobs.d() + config.k) * machine.elem_bytes;
  const std::uint64_t rs =
      topo.hier_reduce_scatter_charge(accum_bytes, 0, num_cgs, xover)
          .crossing_bytes;
  const std::uint64_t l1_ag =
      topo.hier_allgather_charge(update_publish_bytes(l1, machine), 0,
                                 num_cgs)
          .crossing_bytes;
  ASSERT_GT(rs, 0u);
  ASSERT_GT(l1_ag, 0u);
  EXPECT_EQ(r1.history[0].net_crossing_bytes, rs + l1_ag);

  const PartitionPlan l3 =
      make_plan(Level::kLevel3, shape, machine, 0, num_cgs);
  const KmeansResult r3 =
      run_level(Level::kLevel3, blobs, config, machine, 0, num_cgs);
  ASSERT_EQ(r3.history.size(), 1u);
  const std::uint64_t argmin =
      topo.hier_allreduce_charge(r3.bound_groups * sizeof(swmpi::MinLoc2), 0,
                                 num_cgs, xover)
          .crossing_bytes;
  const std::uint64_t l3_ag =
      topo.hier_allgather_charge(update_publish_bytes(l3, machine), 0,
                                 num_cgs)
          .crossing_bytes;
  ASSERT_GT(argmin, 0u);
  EXPECT_EQ(r3.history[0].net_crossing_bytes, blobs.n() * argmin + l3_ag);

  const std::size_t half = num_cgs / 2;
  const PartitionPlan split =
      make_plan(Level::kLevel3, shape, machine, 0, half);
  ASSERT_EQ(split.num_flow_units, 2u);
  const KmeansResult r3s =
      run_level(Level::kLevel3, blobs, config, machine, 0, half);
  ASSERT_EQ(r3s.history.size(), 1u);
  const std::size_t slice_bytes =
      (split.k_local * blobs.d() + split.k_local) * machine.elem_bytes;
  const std::uint64_t slices =
      cross_group_allreduce(topo, slice_bytes, 2, half, Placement::kPacked,
                            /*hier=*/true, xover)
          .crossing_bytes;
  const std::uint64_t split_ag =
      topo.hier_allgather_charge(update_publish_bytes(split, machine), 0,
                                 num_cgs)
          .crossing_bytes;
  ASSERT_GT(slices, 0u);
  EXPECT_EQ(r3s.history[0].net_crossing_bytes, slices + split_ag);
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
