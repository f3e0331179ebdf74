#include <gtest/gtest.h>

#include <string>

#include "core/partition.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

constexpr std::size_t kLdm = 16384;  // SW26010 LDM in float elements

// ----------------------------------------------------- paper constraints

TEST(PaperConstraints, C1MatchesFormula) {
  // d(1+2k)+k <= LDM: d=100, k=20 -> 100*41+20 = 4120
  EXPECT_TRUE(paper::c1({10, 20, 100}, 4120));
  EXPECT_FALSE(paper::c1({10, 20, 100}, 4119));
}

TEST(PaperConstraints, C2C3Boundaries) {
  EXPECT_TRUE(paper::c2({1, 1, 5461}, kLdm));   // 3*5461+1 = 16384
  EXPECT_FALSE(paper::c2({1, 1, 5462}, kLdm));
  EXPECT_TRUE(paper::c3({1, 5461, 1}, kLdm));
  EXPECT_FALSE(paper::c3({1, 5462, 1}, kLdm));
}

TEST(PaperConstraints, Level2ScalesByGroup) {
  const ProblemShape shape{1, 100000, 4};
  EXPECT_FALSE(paper::c3(shape, kLdm));
  EXPECT_TRUE(paper::c3_l2(shape, kLdm, 64, 64));
  // m_group must stay within the CG
  EXPECT_FALSE(paper::c3_l2(shape, kLdm, 65, 64));
}

TEST(PaperConstraints, Level3HeadlineShapes) {
  // The paper's flagship claim: k=160,000 and d=196,608 simultaneously.
  // C2'' and C3'' hold — but the published C1'' (which counts LDM-resident
  // accumulators) misses its own headline by ~3700x: d(1+2k)+k ~ 6.3e13
  // elements vs 4096 nodes * aggregate LDM ~ 1.7e10. The implementation
  // necessarily keeps centroids/accumulators in node DDR, which is the
  // feasibility rule our planner enforces (and documents in DESIGN.md).
  const ProblemShape shape{1265723, 160000, 196608};
  const MachineConfig machine = MachineConfig::sw26010(4096);
  EXPECT_TRUE(paper::c2_l3(shape, kLdm, 64));
  EXPECT_TRUE(paper::c3_l3(shape, kLdm, 64, 64));
  EXPECT_FALSE(paper::c1_l3(shape, kLdm, machine.total_cpes()));
}

TEST(PaperConstraints, BenderLimitReproduced) {
  // Bender et al's two-level memory interaction constraint confined them
  // to k < 18 at d > 152,917 (Section II). Level 1's C1 shows the same
  // coupling: at d = 152917 with 16384-element LDM nothing fits, and even
  // with Trinity-scale scratchpad the k that fits stays tiny.
  const std::uint64_t d = 152917;
  const std::uint64_t scratch_elems = 4 * 1024 * 1024;  // 16 MiB scratchpad
  std::uint64_t k = 0;
  while (paper::c1({1, k + 1, d}, scratch_elems)) {
    ++k;
  }
  EXPECT_LT(k, 18u);
}

// ----------------------------------------------------- level feasibility

TEST(Feasibility, Level1SmallShapesFit) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  EXPECT_TRUE(check_level(Level::kLevel1, {65554, 256, 28}, machine).ok);
  EXPECT_TRUE(check_level(Level::kLevel1, {2458285, 64, 68}, machine).ok);
}

TEST(Feasibility, Level1LargeKdFails) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const Feasibility f = check_level(Level::kLevel1, {1000, 2000, 68}, machine);
  EXPECT_FALSE(f.ok);
  EXPECT_NE(f.reason.find("C1"), std::string::npos);
}

TEST(Feasibility, Level1RejectsHugeD) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const Feasibility f = check_level(Level::kLevel1, {10, 1, 6000}, machine);
  EXPECT_FALSE(f.ok);
  EXPECT_NE(f.reason.find("C2"), std::string::npos);
}

TEST(Feasibility, Level2HandlesLargeK) {
  const MachineConfig machine = MachineConfig::sw26010(256);
  EXPECT_TRUE(check_level(Level::kLevel2, {434874, 100000, 4}, machine).ok);
  EXPECT_TRUE(check_level(Level::kLevel2, {2458285, 10000, 68}, machine).ok);
}

TEST(Feasibility, Level2DimensionWall) {
  // The paper observed Level 2 dying above d = 4096 (Fig. 7). Our layout
  // reproduces the wall exactly: 4d <= 16384.
  const MachineConfig machine = MachineConfig::sw26010(128);
  EXPECT_TRUE(check_level(Level::kLevel2, {1265723, 2000, 4096}, machine).ok);
  EXPECT_FALSE(
      check_level(Level::kLevel2, {1265723, 2000, 4608}, machine).ok);
}

TEST(Feasibility, Level2WholeSampleMustFitCpe) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const Feasibility f =
      check_level(Level::kLevel2, {1000, 10, 6000}, machine);
  EXPECT_FALSE(f.ok);
  EXPECT_NE(f.reason.find("C2"), std::string::npos);
}

TEST(Feasibility, Level3BreaksTheDimensionWall) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  EXPECT_TRUE(check_level(Level::kLevel3, {1265723, 2000, 4608}, machine).ok);
  EXPECT_TRUE(
      check_level(Level::kLevel3, {1265723, 2000, 196608}, machine).ok);
}

TEST(Feasibility, Level3HeadlineShape) {
  const MachineConfig machine = MachineConfig::sw26010(4096);
  EXPECT_TRUE(
      check_level(Level::kLevel3, {1265723, 160000, 196608}, machine).ok);
}

TEST(Feasibility, Level3Fig8EndPointRuns) {
  // k = 131072 at d = 4096 on 128 nodes — the paper's own Fig. 8 end point
  // (which its published C1'' would reject; see partition.cpp).
  const MachineConfig machine = MachineConfig::sw26010(128);
  EXPECT_TRUE(
      check_level(Level::kLevel3, {1265723, 131072, 4096}, machine).ok);
}

TEST(Feasibility, Level3DimensionCeiling) {
  // C2'': 3d+1 <= 64*LDM caps d at ~349,525; engineering layout caps the
  // streamable d at 64 * (16384/4) = 262,144.
  const MachineConfig machine = MachineConfig::sw26010(4096);
  EXPECT_TRUE(check_level(Level::kLevel3, {1000, 2, 262144}, machine).ok);
  EXPECT_FALSE(check_level(Level::kLevel3, {1000, 2, 400000}, machine).ok);
}

TEST(Feasibility, ZeroShapeRejected) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  EXPECT_FALSE(check_level(Level::kLevel1, {0, 2, 2}, machine).ok);
  EXPECT_FALSE(check_level(Level::kLevel2, {2, 0, 2}, machine).ok);
  EXPECT_FALSE(check_level(Level::kLevel3, {2, 2, 0}, machine).ok);
}

TEST(Feasibility, DdrCapacityGates) {
  // A shape whose centroid matrix alone exceeds node DDR must be rejected
  // even though LDM streaming could handle it.
  MachineConfig machine = MachineConfig::sw26010(16);
  machine.ddr_bytes_per_node = 1ull << 20;  // 1 MiB nodes
  const Feasibility f =
      check_level(Level::kLevel3, {100000, 10000, 4096}, machine);
  EXPECT_FALSE(f.ok);
  EXPECT_NE(f.reason.find("DDR"), std::string::npos);
}

// -------------------------------------------------------------- planning

TEST(MakePlan, Level1PlanShape) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan = make_plan(Level::kLevel1, {65554, 256, 28}, machine);
  EXPECT_EQ(plan.level, Level::kLevel1);
  EXPECT_EQ(plan.num_flow_units, 256u);  // every CPE a flow unit
  EXPECT_EQ(plan.k_local, 256u);
  EXPECT_EQ(plan.d_local, 28u);
  EXPECT_TRUE(plan.ldm.resident);
}

TEST(MakePlan, Level2AutoGroupIsSmallestFeasible) {
  const MachineConfig machine = MachineConfig::sw26010(256);
  const PartitionPlan plan =
      make_plan(Level::kLevel2, {434874, 100000, 4}, machine);
  EXPECT_EQ(plan.level, Level::kLevel2);
  EXPECT_GE(plan.m_group, 1u);
  EXPECT_LE(plan.m_group, 64u);
  EXPECT_EQ(plan.k_local, (100000 + plan.m_group - 1) / plan.m_group);
  // num_flow_units * m_group covers all CPEs
  EXPECT_EQ(plan.num_flow_units * plan.m_group, machine.total_cpes());
}

TEST(MakePlan, Level2ExplicitGroupRespected) {
  const MachineConfig machine = MachineConfig::sw26010(8);
  const PartitionPlan plan =
      make_plan(Level::kLevel2, {10000, 1024, 64}, machine, 16);
  EXPECT_EQ(plan.m_group, 16u);
  EXPECT_EQ(plan.k_local, 64u);
}

TEST(MakePlan, Level2RejectsNonDivisorGroup) {
  const MachineConfig machine = MachineConfig::sw26010(8);
  EXPECT_THROW(make_plan(Level::kLevel2, {10000, 1024, 64}, machine, 5),
               InfeasibleError);
}

TEST(MakePlan, Level3SplitsDimensions) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const PartitionPlan plan =
      make_plan(Level::kLevel3, {1265723, 2000, 196608}, machine);
  EXPECT_EQ(plan.d_local, 3072u);  // 196608 / 64
  EXPECT_GE(plan.mprime_group, 1u);
  EXPECT_EQ(plan.num_flow_units * plan.mprime_group, machine.num_cgs());
}

TEST(MakePlan, Level3RoundsUpOddDimensions) {
  const MachineConfig machine = MachineConfig::sw26010(4);
  const PartitionPlan plan = make_plan(Level::kLevel3, {1000, 8, 130}, machine);
  EXPECT_EQ(plan.d_local, 3u);  // ceil(130/64)
}

TEST(MakePlan, InfeasibleThrowsWithConstraintName) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  try {
    make_plan(Level::kLevel1, {1000, 100000, 100}, machine);
    FAIL();
  } catch (const InfeasibleError& e) {
    EXPECT_NE(std::string(e.what()).find("C"), std::string::npos);
  }
}

TEST(MakePlan, DescribeIsInformative) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const PartitionPlan plan =
      make_plan(Level::kLevel3, {1265723, 2000, 196608}, machine);
  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("Level 3"), std::string::npos);
  EXPECT_NE(desc.find("m'_group"), std::string::npos);
  EXPECT_NE(desc.find("d_local=3072"), std::string::npos);
  EXPECT_NE(desc.find("radius pass=off"), std::string::npos) << desc;
  const std::string l1 =
      make_plan(Level::kLevel1, {1265723, 64, 4}, machine).describe();
  EXPECT_NE(l1.find("radius pass=on"), std::string::npos) << l1;
}

TEST(Candidates, MGroupsAreDivisorsOfCg) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const auto groups = candidate_m_groups(machine);
  EXPECT_EQ(groups, (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64}));
}

TEST(Candidates, MPrimeGroupsDivideCgCount) {
  const MachineConfig machine = MachineConfig::sw26010(2);  // 8 CGs
  const auto groups = candidate_mprime_groups(machine);
  EXPECT_EQ(groups, (std::vector<std::size_t>{1, 2, 4, 8}));
}

// ------------------------------------------------- capability (Table I)

TEST(Capability, MaxKOrdersByLevel) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const std::uint64_t d = 68;
  const std::uint64_t l1 = max_k_for_level(Level::kLevel1, d, machine);
  const std::uint64_t l2 = max_k_for_level(Level::kLevel2, d, machine);
  const std::uint64_t l3 = max_k_for_level(Level::kLevel3, d, machine);
  EXPECT_LT(l1, l2);
  EXPECT_LE(l2, l3);
  // Our approach's Table I row: k in the 160,000 class must be reachable.
  EXPECT_GE(l3, 160000u);
}

TEST(Capability, MaxDOrdersByLevel) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const std::uint64_t k = 2000;
  const std::uint64_t l2 = max_d_for_level(Level::kLevel2, k, machine);
  const std::uint64_t l3 = max_d_for_level(Level::kLevel3, k, machine);
  EXPECT_EQ(l2, 4096u);   // the Fig. 7 wall
  EXPECT_GE(l3, 196608u); // the Table I headline dimension
}

TEST(Capability, Level1MaxKdProductBounded) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const std::uint64_t max_k = max_k_for_level(Level::kLevel1, 68, machine);
  // C1 with d=68: 68*(1+2k)+k <= 16384 => k <= 119
  EXPECT_LE(max_k, 119u);
  EXPECT_GE(max_k, 100u);
}

// --------------------------------------------------------- LDM layouts

TEST(Layout, ResidentPlanFitsLdm) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan = make_plan(Level::kLevel1, {1000, 10, 100}, machine);
  EXPECT_LE(plan.ldm.high_water_bytes, machine.ldm_bytes);
  EXPECT_TRUE(plan.ldm.resident);
}

TEST(Layout, StreamedPlanHasTiles) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const PartitionPlan plan =
      make_plan(Level::kLevel2, {1265723, 2000, 4096}, machine, 64);
  EXPECT_FALSE(plan.ldm.resident);
  EXPECT_GE(plan.ldm.tile_rows, 1u);
  EXPECT_LE(plan.ldm.high_water_bytes, machine.ldm_bytes);
}

TEST(Layout, OurResidencyImpliesPaperC1Prime) {
  // Our per-CPE residency check is strictly tighter than the paper's
  // aggregate C1', so resident Level 2 plans always satisfy the paper.
  const MachineConfig machine = MachineConfig::sw26010(8);
  for (std::uint64_t k : {64ull, 256ull, 1024ull}) {
    for (std::uint64_t d : {16ull, 64ull, 128ull}) {
      const ProblemShape shape{10000, k, d};
      if (!check_level(Level::kLevel2, shape, machine).ok) {
        continue;
      }
      const PartitionPlan plan = make_plan(Level::kLevel2, shape, machine);
      if (plan.ldm.resident) {
        EXPECT_TRUE(paper::c1_l2(shape, machine.ldm_elems(), plan.m_group))
            << "k=" << k << " d=" << d;
      }
    }
  }
}

// ---------------------------------------------------------- sample batch

TEST(SampleBatch, FillsTheLdmTheLayoutAndTileScratchLeaveFree) {
  // Level 1 at d=4, k=64: the layout takes 580 of the 16,384 elements, and
  // the CPE's share of the default tile's records and GEMM scratch
  // (256 x (24 + 60) + 64 x 8 = 22,016 bytes over 64 CPEs) takes 86.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan =
      make_plan(Level::kLevel1, {1u << 20, 64, 4}, machine);
  EXPECT_EQ(plan.ldm.sample_elems + plan.ldm.slice_elems +
                plan.ldm.scratch_elems,
            580u);
  EXPECT_EQ(plan.ldm.sample_batch, (kLdm - 580 - 86) / (2 * 4));
  const auto batch = [&](std::size_t tile) {
    return allocate_ldm(plan, machine, tile).layout.sample_batch;
  };
  EXPECT_EQ(batch(KmeansConfig{}.tile_samples), plan.ldm.sample_batch);
  // More tile scratch leaves a smaller batch; less never batches wider
  // than the plan the model charges.
  EXPECT_LT(batch(1024), plan.ldm.sample_batch);
  EXPECT_EQ(batch(16), plan.ldm.sample_batch);
}

TEST(SampleBatch, FullLayoutStreamsOneSampleADescriptor) {
  // (16384, 512, 64) on one node: at m_group 2 the sample (64 elements),
  // one 192-element centroid-stream row and the default tile's 92-element
  // share leave room for 83 more rows and 100 elements, too few for a
  // batch of two, so the batch is the one sample buffer; at m_group 8 the
  // resident slice leaves room for 59 samples, each with its double buffer
  // and one 24-byte (6-element) combine record.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const ProblemShape shape{16384, 512, 64};
  const PartitionPlan streamed = make_plan(Level::kLevel2, shape, machine, 2);
  EXPECT_FALSE(streamed.ldm.resident);
  EXPECT_EQ(streamed.ldm.tile_rows, 84u);
  EXPECT_EQ(streamed.ldm.slice_elems, 84u * 192);
  EXPECT_EQ(streamed.ldm.high_water_bytes, (kLdm - 100) * 4);
  EXPECT_EQ(streamed.ldm.sample_batch, 1u);
  const PartitionPlan resident = make_plan(Level::kLevel2, shape, machine, 8);
  EXPECT_TRUE(resident.ldm.resident);
  EXPECT_EQ(resident.ldm.sample_batch, (kLdm - 8320 - 86) / (2 * 64 + 6));
  EXPECT_EQ(resident.ldm.combine_batch, resident.ldm.sample_batch);
  EXPECT_EQ(streamed.ldm.combine_batch, 1u);
}

TEST(SampleBatch, Level3BatchesDimensionSlices) {
  // d=3072 over 64 CPEs: each batched sample is a 48-element slice, and
  // keeps its k_local = 64 distance partials for the batch's one mesh
  // combine.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan =
      make_plan(Level::kLevel3, {2048, 256, 3072}, machine, 0, 4);
  EXPECT_EQ(plan.ldm.sample_elems, 48u);
  EXPECT_EQ(plan.ldm.sample_batch, (kLdm - 6256 - 86) / (2 * 48 + 64));
  EXPECT_EQ(plan.ldm.combine_batch, plan.ldm.sample_batch);
  // A four times larger tile leaves less room.
  EXPECT_LT(allocate_ldm(plan, machine, 1024).layout.sample_batch,
            plan.ldm.sample_batch);
}

TEST(SampleBatch, DescribeNamesTheBatch) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan =
      make_plan(Level::kLevel1, {1u << 20, 64, 4}, machine);
  EXPECT_NE(plan.describe().find("sample batch 1964"), std::string::npos)
      << plan.describe();
}

TEST(SampleBatch, FeasibilityAndCapabilityAreUnchanged) {
  // The batch only takes LDM the layout leaves free, so the capability
  // limits read what they read before batching.
  for (std::size_t nodes : {1, 128}) {
    const MachineConfig machine = MachineConfig::sw26010(nodes);
    EXPECT_EQ(max_k_for_level(Level::kLevel1, 64, machine), 126u);
    EXPECT_EQ(max_d_for_level(Level::kLevel1, 64, machine), 126u);
    EXPECT_EQ(max_k_for_level(Level::kLevel2, 64, machine), 349525u);
    EXPECT_EQ(max_d_for_level(Level::kLevel2, 64, machine), 5461u);
  }
  const MachineConfig one = MachineConfig::sw26010(1);
  EXPECT_EQ(max_k_for_level(Level::kLevel3, 64, one), 65520u);
  EXPECT_EQ(max_d_for_level(Level::kLevel3, 64, one), 261888u);
  const MachineConfig many = MachineConfig::sw26010(128);
  EXPECT_EQ(max_k_for_level(Level::kLevel3, 64, many), 8386560u);
  EXPECT_EQ(max_d_for_level(Level::kLevel3, 64, many), 349504u);
}

// ------------------------------------------------------------ LDM budget

/// Every buffer the budget keeps live at once fits the CPE's LDM: the
/// allocator's high-water, and the sum of the assign-phase buffers
/// recounted apart from it.
void expect_budget_fits(const LdmBudget& budget,
                        const MachineConfig& machine, std::size_t tile,
                        const std::string& where) {
  EXPECT_EQ(budget.footprint.capacity_bytes, machine.ldm_bytes) << where;
  EXPECT_LE(budget.footprint.high_water_bytes, machine.ldm_bytes) << where;
  std::size_t assign_bytes = 0;
  for (const simarch::LdmBuffer& buffer : budget.footprint.buffers) {
    if (buffer.name.rfind("radius", 0) != 0) {
      assign_bytes += buffer.bytes;
    }
  }
  EXPECT_LE(assign_bytes, budget.footprint.high_water_bytes) << where;
  EXPECT_GE(budget.tile_samples, 1u) << where;
  EXPECT_LE(budget.tile_samples, tile) << where;
}

TEST(LdmBudget, HighWaterFitsEveryLevelMachineAndTile) {
  // The ledger's blobs shape: on tiny(2, 4, 2048) the Level 1 layout takes
  // 162 of 512 elements, so a 256-sample tile's records (385 elements a
  // CPE) must drop the GEMM scratch or shrink, never overlap the layout.
  const ProblemShape shape{640, 6, 12};
  for (const MachineConfig& machine :
       {MachineConfig::tiny(2, 4, 2048), MachineConfig::tiny(2, 4, 8192),
        MachineConfig::sw26010(1)}) {
    for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
      const PartitionPlan plan = make_plan(level, shape, machine, 0,
                                           level == Level::kLevel3 ? 2 : 0);
      for (std::size_t tile : {1u, 4u, 256u, 1024u}) {
        expect_budget_fits(allocate_ldm(plan, machine, tile), machine, tile,
                           plan.describe() + " tile " + std::to_string(tile));
      }
    }
  }
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan streamed =
      make_plan(Level::kLevel2, {434874, 100000, 4}, machine);
  ASSERT_FALSE(streamed.ldm.resident);
  expect_budget_fits(allocate_ldm(streamed, machine, 256), machine, 256,
                     streamed.describe());
}

TEST(LdmBudget, StreamedRowsYieldToTheTile) {
  // A streamed plan's rows fill what the tile leaves: a wider tile takes
  // rows away, a narrower one never adds rows past the plan's.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan =
      make_plan(Level::kLevel2, {16384, 512, 64}, machine, 2);
  ASSERT_FALSE(plan.ldm.resident);
  EXPECT_LT(allocate_ldm(plan, machine, 4096).layout.tile_rows,
            plan.ldm.tile_rows);
  EXPECT_EQ(allocate_ldm(plan, machine, 1).layout.tile_rows,
            plan.ldm.tile_rows);
}

TEST(LdmBudget, RadiusPassIsASecondPhase) {
  // Level 1's safe-radius pass reuses the whole LDM after the sweep's
  // buffers: half holds its own rows, one partner row streams past them.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan =
      make_plan(Level::kLevel1, {1u << 20, 64, 4}, machine);
  const LdmBudget budget = allocate_ldm(plan, machine, 256);
  EXPECT_EQ(budget.radius_block_rows, 64u * 1024 / 2 / 16);
  ASSERT_GE(budget.footprint.buffers.size(), 2u);
  const auto& buffers = budget.footprint.buffers;
  EXPECT_EQ(buffers[buffers.size() - 2].name, "radius own rows");
  EXPECT_EQ(buffers[buffers.size() - 2].bytes, 64u * 1024 / 2);
  EXPECT_EQ(buffers.back().name, "radius partner row");
  EXPECT_EQ(buffers.back().bytes, 16u);
  // Levels 2 and 3 run no radius pass.
  EXPECT_EQ(allocate_ldm(make_plan(Level::kLevel2, {1u << 20, 64, 4}, machine),
                         machine, 256)
                .radius_block_rows,
            0u);
}

}  // namespace
}  // namespace swhkm::core
