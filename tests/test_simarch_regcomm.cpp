#include <gtest/gtest.h>

#include <string>

#include "simarch/regcomm.hpp"

namespace swhkm::simarch {
namespace {

class RegCommTest : public ::testing::Test {
 protected:
  MachineConfig config_;
  CostTally tally_;
};

TEST_F(RegCommTest, AllreduceTimeGrowsWithPayload) {
  RegComm reg(config_, tally_);
  EXPECT_LT(reg.allreduce_time(64, 64), reg.allreduce_time(1 << 20, 64));
}

TEST_F(RegCommTest, AllreduceTimeGrowsWithParticipants) {
  RegComm reg(config_, tally_);
  EXPECT_LT(reg.allreduce_time(1024, 2), reg.allreduce_time(1024, 64));
  EXPECT_EQ(reg.allreduce_time(1024, 1), 0.0);
}

TEST_F(RegCommTest, FullMeshUsesFourteenHops) {
  // 8x8 mesh: 7 row hops + 7 column hops, reduce + broadcast.
  RegComm reg(config_, tally_);
  const double t = reg.allreduce_time(0, 64);
  EXPECT_NEAR(t, 2 * 14 * config_.reg_hop_latency, 1e-15);
}

TEST_F(RegCommTest, AccountAllreduceMultipliesTimes) {
  RegComm reg(config_, tally_);
  reg.account_allreduce(16, 8, 1);
  const double one = tally_.mesh_comm_s;
  reg.account_allreduce(16, 8, 9);
  EXPECT_NEAR(tally_.mesh_comm_s, 10 * one, 1e-12);
}

TEST_F(RegCommTest, AccountAllreduceSingleParticipantFree) {
  RegComm reg(config_, tally_);
  reg.account_allreduce(1 << 20, 1, 1000);
  EXPECT_EQ(tally_.mesh_comm_s, 0.0);
}

TEST_F(RegCommTest, PaperClaimRegisterCommBeatsDma) {
  // The paper quotes a 3-4x advantage of register communication over the
  // DMA path for the intra-CG AllReduce. Check the bandwidths embody that.
  EXPECT_GT(config_.reg_bandwidth, config_.dma_bandwidth);
  RegComm reg(config_, tally_);
  const std::size_t bytes = 1 << 20;
  const double reg_time = reg.allreduce_time(bytes, 64);
  const double dma_equiv =
      2.0 * static_cast<double>(bytes) / config_.dma_bandwidth +
      2 * config_.dma_latency;
  EXPECT_LT(reg_time, dma_equiv);
}

TEST(CostTally, TotalSumsComponents) {
  CostTally t;
  t.sample_read_s = 1;
  t.centroid_stream_s = 2;
  t.compute_s = 3;
  t.mesh_comm_s = 4;
  t.net_comm_s = 5;
  t.update_s = 6;
  EXPECT_DOUBLE_EQ(t.total_s(), 21.0);
}

TEST(CostTally, PlusEqualsAddsEverything) {
  CostTally a;
  a.compute_s = 1;
  a.dma_bytes = 10;
  CostTally b;
  b.compute_s = 2;
  b.dma_bytes = 20;
  a += b;
  EXPECT_DOUBLE_EQ(a.compute_s, 3.0);
  EXPECT_EQ(a.dma_bytes, 30u);
}

TEST(CostTally, MaxInPlaceTakesCriticalPathAndSumsVolumes) {
  CostTally a;
  a.compute_s = 1;
  a.net_comm_s = 9;
  a.net_bytes = 5;
  CostTally b;
  b.compute_s = 4;
  b.net_comm_s = 2;
  b.net_bytes = 7;
  a.max_in_place(b);
  EXPECT_DOUBLE_EQ(a.compute_s, 4.0);
  EXPECT_DOUBLE_EQ(a.net_comm_s, 9.0);
  EXPECT_EQ(a.net_bytes, 12u);
}

TEST(CostTally, SummaryMentionsTotal) {
  CostTally t;
  t.compute_s = 1.5;
  EXPECT_NE(t.summary().find("total 1.500 s"), std::string::npos);
}

}  // namespace
}  // namespace swhkm::simarch
