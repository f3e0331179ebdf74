#include <gtest/gtest.h>

#include "core/hkmeans.hpp"
#include "core/planner.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

TEST(Planner, PicksAFeasibleLevel) {
  const MachineConfig machine = MachineConfig::sw26010(16);
  const auto choice = auto_plan({100000, 500, 64}, machine);
  ASSERT_TRUE(choice.has_value());
  EXPECT_TRUE(check_level(choice->plan.level, choice->plan.shape, machine,
                          choice->plan.m_group, choice->plan.mprime_group)
                  .ok);
}

TEST(Planner, AutoPlanIsBestAcrossLevels) {
  const MachineConfig machine = MachineConfig::sw26010(128);
  const ProblemShape shape{1265723, 2000, 1024};
  const auto best = auto_plan(shape, machine);
  ASSERT_TRUE(best.has_value());
  for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    const auto per_level = best_plan_for_level(level, shape, machine);
    if (per_level) {
      EXPECT_LE(best->predicted_s(), per_level->predicted_s() * 1.0000001);
    }
  }
}

TEST(Planner, SmallDPrefersLowerLevel) {
  // At Fig. 7's left end Level 2 (or 1) must be chosen over Level 3.
  const MachineConfig machine = MachineConfig::sw26010(128);
  const auto choice = auto_plan({1265723, 2000, 512}, machine);
  ASSERT_TRUE(choice.has_value());
  EXPECT_NE(choice->plan.level, Level::kLevel3);
}

TEST(Planner, HugeDRequiresLevel3) {
  const MachineConfig machine = MachineConfig::sw26010(4096);
  const auto choice = auto_plan({1265723, 2000, 196608}, machine);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->plan.level, Level::kLevel3);
}

TEST(Planner, TinyProblemUsesLevel1) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const auto choice = auto_plan({65554, 16, 28}, machine);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->plan.level, Level::kLevel1);
}

TEST(Planner, ImpossibleShapeYieldsNothing) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  // d beyond even Level 3's 64*LDM ceiling.
  EXPECT_FALSE(auto_plan({1000, 2, 1000000}, machine).has_value());
}

TEST(Planner, GroupSweepBeatsDefaultGroup) {
  // The sweep must never do worse than the naive smallest-feasible choice.
  const MachineConfig machine = MachineConfig::sw26010(128);
  const ProblemShape shape{1265723, 8192, 4096};
  const auto swept = best_plan_for_level(Level::kLevel3, shape, machine);
  ASSERT_TRUE(swept.has_value());
  const PartitionPlan naive = make_plan(Level::kLevel3, shape, machine);
  const double naive_s = model_iteration(naive, machine).total_s();
  EXPECT_LE(swept->predicted_s(), naive_s * 1.0000001);
}

TEST(Planner, ReportMentionsEveryLevel) {
  const MachineConfig machine = MachineConfig::sw26010(8);
  const std::string report = feasibility_report({100000, 1000, 64}, machine);
  EXPECT_NE(report.find("Level 1"), std::string::npos);
  EXPECT_NE(report.find("Level 2"), std::string::npos);
  EXPECT_NE(report.find("Level 3"), std::string::npos);
  EXPECT_NE(report.find("planner picks"), std::string::npos);
}

TEST(Planner, ReportExplainsInfeasibility) {
  const MachineConfig machine = MachineConfig::sw26010(1);
  const std::string report = feasibility_report({1000, 100000, 4096}, machine);
  EXPECT_NE(report.find("infeasible"), std::string::npos);
}

TEST(Planner, PredictionsSaneForPaperSetups) {
  // Every Table II benchmark must be plannable on the paper's largest
  // configuration except where even Level 3 would not fit.
  const MachineConfig machine = MachineConfig::sw26010(4096);
  EXPECT_TRUE(auto_plan({65554, 256, 28}, machine).has_value());
  EXPECT_TRUE(auto_plan({434874, 10000, 4}, machine).has_value());
  EXPECT_TRUE(auto_plan({2458285, 10000, 68}, machine).has_value());
  EXPECT_TRUE(auto_plan({1265723, 160000, 196608}, machine).has_value());
}

TEST(Planner, BatchedSampleStreamPicksTheResidentLevel2Group) {
  // (16384, 512, 64) on one node. At m_group 2 the streamed centroid
  // tiles fill the LDM and every sample is its own descriptor; at
  // m_group 8 the slice is resident and 62 samples share one. The
  // descriptors saved outweigh m_group 8's 4x replicated sample bytes.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const ProblemShape shape{16384, 512, 64};
  const auto choice = best_plan_for_level(Level::kLevel2, shape, machine);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->plan.m_group, 8u);
  // The engines price it the same way: iteration 0 is cheaper there.
  const data::Dataset ds = data::make_uniform(16384, 64, 1);
  KmeansConfig config;
  config.k = 512;
  config.max_iterations = 1;
  const PartitionPlan streamed = make_plan(Level::kLevel2, shape, machine, 2);
  const double at8 =
      run_plan(choice->plan, ds, config, machine).history[0].simulated_s;
  const double at2 =
      run_plan(streamed, ds, config, machine).history[0].simulated_s;
  EXPECT_LT(at8, at2);
}

}  // namespace
}  // namespace swhkm::core
