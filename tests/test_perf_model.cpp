#include <gtest/gtest.h>

#include "core/hkmeans.hpp"
#include "core/partition.hpp"
#include "core/perf_model.hpp"
#include "core/planner.hpp"

namespace swhkm::core {
namespace {

using simarch::CostTally;
using simarch::MachineConfig;

CostTally model_for(Level level, const ProblemShape& shape,
                    const MachineConfig& machine, std::size_t g = 0,
                    std::size_t p = 0) {
  return model_iteration(make_plan(level, shape, machine, g, p), machine);
}

TEST(PerfModel, AllComponentsNonNegative) {
  const MachineConfig machine = MachineConfig::sw26010(16);
  const CostTally t = model_for(Level::kLevel2, {100000, 1000, 64}, machine);
  EXPECT_GE(t.sample_read_s, 0.0);
  EXPECT_GE(t.centroid_stream_s, 0.0);
  EXPECT_GT(t.compute_s, 0.0);
  EXPECT_GE(t.mesh_comm_s, 0.0);
  EXPECT_GE(t.net_comm_s, 0.0);
  EXPECT_GT(t.total_s(), 0.0);
}

TEST(PerfModel, FlopCountIsExactly2nkd) {
  const MachineConfig machine = MachineConfig::sw26010(4);
  const ProblemShape shape{12345, 17, 29};
  for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    if (!check_level(level, shape, machine).ok) {
      continue;
    }
    const CostTally t = model_for(level, shape, machine);
    EXPECT_EQ(t.flops, 2ull * 12345 * 17 * 29) << level_name(level);
  }
}

TEST(PerfModel, MoreNodesNeverSlowerLevel3) {
  const ProblemShape shape{1265723, 2000, 196608};
  double prev = 1e300;
  for (std::size_t nodes : {256, 512, 1024, 2048, 4096}) {
    const MachineConfig machine = MachineConfig::sw26010(nodes);
    const auto choice = best_plan_for_level(Level::kLevel3, shape, machine);
    ASSERT_TRUE(choice.has_value()) << nodes;
    EXPECT_LT(choice->predicted_s(), prev) << nodes;
    prev = choice->predicted_s();
  }
}

TEST(PerfModel, HeadlineUnder18Seconds) {
  // The paper's flagship number: <18 s/iteration at d=196608, k=2000 on
  // 4096 nodes (1,064,496 cores).
  const MachineConfig machine = MachineConfig::sw26010(4096);
  const auto choice =
      best_plan_for_level(Level::kLevel3, {1265723, 2000, 196608}, machine);
  ASSERT_TRUE(choice.has_value());
  EXPECT_LT(choice->predicted_s(), 18.0);
  EXPECT_GT(choice->predicted_s(), 0.5);  // and not absurdly fast
}

TEST(PerfModel, Fig7CrossoverExists) {
  // Level 2 wins at small d, Level 3 wins at large d, crossing in the
  // paper's 1.5k-3k band (they report 2560).
  const MachineConfig machine = MachineConfig::sw26010(128);
  auto l2 = [&](std::uint64_t d) {
    return best_plan_for_level(Level::kLevel2, {1265723, 2000, d}, machine)
        ->predicted_s();
  };
  auto l3 = [&](std::uint64_t d) {
    return best_plan_for_level(Level::kLevel3, {1265723, 2000, d}, machine)
        ->predicted_s();
  };
  EXPECT_LT(l2(512), l3(512));
  EXPECT_GT(l2(3072), l3(3072));
}

TEST(PerfModel, Fig7HierScheduleCutsCrossingBytesAtLeastTwofold) {
  // sw26010(512) spans two supernodes, so the flat collectives push every
  // rank's payload through the central switch. The two-level schedule
  // must cut the modeled supernode-crossing bytes of the fig7 Level 3
  // iteration at least 2x.
  const MachineConfig machine = MachineConfig::sw26010(512);
  const PartitionPlan plan =
      make_plan(Level::kLevel3, {1265723, 2000, 196608}, machine, 0, 16);
  const CostTally hier =
      model_iteration(plan, machine, Placement::kPacked, true);
  const CostTally flat =
      model_iteration(plan, machine, Placement::kPacked, false);
  ASSERT_GT(hier.net_crossing_bytes, 0u);
  EXPECT_GE(static_cast<double>(flat.net_crossing_bytes) /
                static_cast<double>(hier.net_crossing_bytes),
            2.0);
}

TEST(PerfModel, Fig8Level3AlwaysWinsAt4096Dims) {
  // "Since the number of d is fixed at 4096, the Level 3 approach actually
  // always outperforms Level 2, with the gap increasing as k increases."
  const MachineConfig machine = MachineConfig::sw26010(128);
  double prev_gap = 0;
  for (std::uint64_t k : {1024ull, 4096ull, 16384ull, 65536ull}) {
    const ProblemShape shape{1265723, k, 4096};
    const double l2 =
        best_plan_for_level(Level::kLevel2, shape, machine)->predicted_s();
    const double l3 =
        best_plan_for_level(Level::kLevel3, shape, machine)->predicted_s();
    EXPECT_GT(l2, l3) << "k=" << k;
    EXPECT_GT(l2 - l3, prev_gap) << "k=" << k;
    prev_gap = l2 - l3;
  }
}

TEST(PerfModel, Fig9Level3WinsAtEveryNodeCount) {
  const ProblemShape shape{1265723, 2000, 4096};
  for (std::size_t nodes : {2, 8, 32, 128, 256}) {
    const MachineConfig machine = MachineConfig::sw26010(nodes);
    const auto l2 = best_plan_for_level(Level::kLevel2, shape, machine);
    const auto l3 = best_plan_for_level(Level::kLevel3, shape, machine);
    ASSERT_TRUE(l2 && l3) << nodes;
    EXPECT_GT(l2->predicted_s(), l3->predicted_s()) << nodes;
  }
}

TEST(PerfModel, Level1LinearInK) {
  // Fig. 3's visual: one-iteration time grows linearly with k. Check the
  // second difference is small relative to the slope.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const std::uint64_t n = 2458285;
  const std::uint64_t d = 68;
  const double t16 = model_for(Level::kLevel1, {n, 16, d}, machine).total_s();
  const double t32 = model_for(Level::kLevel1, {n, 32, d}, machine).total_s();
  const double t64 = model_for(Level::kLevel1, {n, 64, d}, machine).total_s();
  const double slope1 = t32 - t16;
  const double slope2 = (t64 - t32) / 2.0;
  EXPECT_NEAR(slope2, slope1, 0.2 * slope1);
}

TEST(PerfModel, Level2StreamingDominatedByKd) {
  // Level 2's streamed centroid traffic scales with k*d — doubling k at
  // fixed d should roughly double the centroid_stream component.
  const MachineConfig machine = MachineConfig::sw26010(128);
  const CostTally a = model_for(Level::kLevel2, {1265723, 8192, 4096}, machine);
  const CostTally b =
      model_for(Level::kLevel2, {1265723, 16384, 4096}, machine);
  EXPECT_GT(b.centroid_stream_s, 1.8 * a.centroid_stream_s);
  EXPECT_LT(b.centroid_stream_s, 2.2 * a.centroid_stream_s);
}

TEST(PerfModel, PackedPlacementBeatsScattered) {
  // The paper: "we should make a CG group located within a super-node if
  // possible". Scattering a group across supernodes must not be faster.
  const MachineConfig machine = MachineConfig::sw26010(512);
  const PartitionPlan plan =
      make_plan(Level::kLevel3, {1265723, 2000, 196608}, machine, 0, 16);
  const double packed =
      model_iteration(plan, machine, Placement::kPacked).total_s();
  const double scattered =
      model_iteration(plan, machine, Placement::kScattered).total_s();
  EXPECT_LE(packed, scattered);
}

TEST(PerfModel, MismatchedMachineRejected) {
  const MachineConfig m8 = MachineConfig::sw26010(8);
  const MachineConfig m16 = MachineConfig::sw26010(16);
  const PartitionPlan plan = make_plan(Level::kLevel1, {1000, 4, 8}, m8);
  EXPECT_THROW(model_iteration(plan, m16), swhkm::InvalidArgument);
}

TEST(PerfModel, EngineMatchesModelOnAFullChainSweep) {
  // The engines and model_iteration price the assign phase through the
  // same per-level function and the update phase through charge_update.
  // On one ungated iteration with 256-sample tiles the LDM downgrades
  // every level to the chain kernel and no block spans two tiles, so the
  // engine's work record is the model's full sweep: the shared terms must
  // agree bit for bit. Level 1 also shares its mesh term; Levels 2/3
  // differ there by record width (24-byte top-two records against the
  // model's 16) and group combine. Every level shares the update shard's
  // seconds; Levels 1/2, whose assign phase has no network term, also
  // share the update's network seconds and bytes. Level 3's network
  // ledger carries the per-tile group combine, which the engine prices
  // per tile and the model per full sweep.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 2048);
  const data::Dataset dataset = data::make_blobs(1024, 12, 5, 17);
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 1;
  config.tile_samples = 256;
  for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    const CostTally engine =
        run_level(level, dataset, config, machine).last_iteration_cost;
    const CostTally model = model_for(level, {1024, 6, 12}, machine);
    EXPECT_EQ(engine.sample_read_s, model.sample_read_s) << level_name(level);
    EXPECT_EQ(engine.centroid_stream_s, model.centroid_stream_s)
        << level_name(level);
    EXPECT_EQ(engine.compute_s, model.compute_s) << level_name(level);
    EXPECT_EQ(engine.update_s, model.update_s) << level_name(level);
    if (level == Level::kLevel1) {
      EXPECT_EQ(engine.mesh_comm_s, model.mesh_comm_s);
    }
    if (level != Level::kLevel3) {
      EXPECT_EQ(engine.net_comm_s, model.net_comm_s) << level_name(level);
      EXPECT_EQ(engine.net_bytes, model.net_bytes) << level_name(level);
      EXPECT_EQ(engine.net_crossing_bytes, model.net_crossing_bytes)
          << level_name(level);
    }
  }
}

TEST(PerfModel, Level1IsLevel2AtOneCpeGroup) {
  // Level 2 with one CPE per group is Level 1's partition: every CPE holds
  // all k centroids and owns its own samples. The two charges must then
  // price the same iteration, field for field.
  const ProblemShape shape{20000, 16, 8};
  for (const MachineConfig& machine :
       {MachineConfig::sw26010(1), MachineConfig::tiny(8, 4, 8192)}) {
    const CostTally l1 = model_for(Level::kLevel1, shape, machine);
    const CostTally l2 = model_for(Level::kLevel2, shape, machine, 1);
    EXPECT_GT(l1.update_s, 0.0);
    EXPECT_EQ(l1.sample_read_s, l2.sample_read_s);
    EXPECT_EQ(l1.centroid_stream_s, l2.centroid_stream_s);
    EXPECT_EQ(l1.compute_s, l2.compute_s);
    EXPECT_EQ(l1.mesh_comm_s, l2.mesh_comm_s);
    EXPECT_EQ(l1.net_comm_s, l2.net_comm_s);
    EXPECT_EQ(l1.update_s, l2.update_s);
    EXPECT_EQ(l1.overlapped_dma_s, l2.overlapped_dma_s);
    EXPECT_EQ(l1.overlapped_net_s, l2.overlapped_net_s);
    EXPECT_EQ(l1.dma_bytes, l2.dma_bytes);
    EXPECT_EQ(l1.reg_bytes, l2.reg_bytes);
    EXPECT_EQ(l1.net_bytes, l2.net_bytes);
    EXPECT_EQ(l1.flops, l2.flops);
    EXPECT_EQ(l1.pruned_samples, l2.pruned_samples);
    EXPECT_EQ(l1.net_rounds, l2.net_rounds);
    EXPECT_EQ(l1.net_crossing_bytes, l2.net_crossing_bytes);
    EXPECT_EQ(l1.sdc_recomputed, l2.sdc_recomputed);
  }
}

TEST(PaperFormulas, Level1MatchesClosedForm) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const ProblemShape shape{65554, 100, 28};
  const PartitionPlan plan = make_plan(Level::kLevel1, shape, machine);
  const PaperFormulaTimes t = paper_formula_times(plan, machine);
  const double m = 256.0;
  const double expected_read =
      (65554.0 * 28 / m + 100.0 * 28) * 4 / machine.dma_bandwidth;
  EXPECT_NEAR(t.t_read_s, expected_read, expected_read * 1e-9);
  EXPECT_GT(t.t_comm_s, 0.0);
}

TEST(PaperFormulas, AllLevelsProducePositiveTimes) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const ProblemShape s1{65554, 100, 28};
  const ProblemShape s2{434874, 10000, 4};
  const ProblemShape s3{1265723, 2000, 196608};
  EXPECT_GT(paper_formula_times(make_plan(Level::kLevel1, s1, machine), machine)
                .total_s(),
            0.0);
  EXPECT_GT(paper_formula_times(make_plan(Level::kLevel2, s2, machine), machine)
                .total_s(),
            0.0);
  EXPECT_GT(paper_formula_times(make_plan(Level::kLevel3, s3, machine), machine)
                .total_s(),
            0.0);
}

TEST(PerfModel, TableIIIWithinTwoXOfPaper) {
  // Cross-architecture rows the paper reports for Sunway (Table III).
  // The model should land within 2x of each published per-iteration time —
  // it was calibrated on the aggregate, not per-row.
  struct Row {
    std::uint64_t n, k, d;
    std::size_t nodes;
    double paper_s;
  };
  const Row rows[] = {
      {1000000000, 120, 40, 128, 0.468635}, {1400000, 240, 5, 4, 0.025336},
      {140000, 500, 90, 1, 0.110191},       {2100000, 4, 4, 1, 0.002839},
      {2458285, 10000, 68, 16, 2.424517},
  };
  for (const Row& row : rows) {
    const MachineConfig machine = MachineConfig::sw26010(row.nodes);
    const auto choice = auto_plan({row.n, row.k, row.d}, machine);
    ASSERT_TRUE(choice.has_value());
    EXPECT_LT(choice->predicted_s(), 2.0 * row.paper_s)
        << "n=" << row.n << " k=" << row.k;
    EXPECT_GT(choice->predicted_s(), row.paper_s / 6.0)
        << "n=" << row.n << " k=" << row.k;
  }
}

}  // namespace
}  // namespace swhkm::core
