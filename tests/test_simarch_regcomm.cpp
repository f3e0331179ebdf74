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

TEST_F(RegCommTest, OneLaunchPerItemIsThePerItemCharge) {
  // A batch of one: `items` launches of one payload each charge exactly
  // what `items` separate allreduces did, bit for bit — the per-item
  // form the batched charge replaced, 2 (hops x latency + bytes / R)
  // seconds times the count.
  struct Case {
    std::size_t bytes;
    std::size_t participants;
    std::size_t hops;
    std::uint64_t items;
  };
  for (const Case& c : {Case{256, 64, 14, 2048}, Case{24, 8, 7, 16384},
                        Case{8, 2, 1, 3}, Case{16, 8, 7, 1}}) {
    CostTally t;
    RegComm(config_, t).account_allreduce(c.bytes, c.participants, c.items,
                                          c.items);
    const double per_item =
        2.0 * (static_cast<double>(c.hops) * config_.reg_hop_latency +
               static_cast<double>(c.bytes) / config_.reg_bandwidth);
    EXPECT_EQ(t.mesh_comm_s, per_item * static_cast<double>(c.items))
        << c.bytes << " B x " << c.items;
    EXPECT_EQ(t.reg_bytes, c.bytes * (c.participants - 1) * c.items);
  }
}

TEST_F(RegCommTest, BatchedLaunchPaysTheHopLatencyOnce) {
  // 100 payloads of 256 B over the full mesh in 2 launches: two whole
  // allreduces plus the other 98 payloads' wire time, both phases.
  RegComm reg(config_, tally_);
  reg.account_allreduce(256, 64, 100, 2);
  const double wire = 256.0 / config_.reg_bandwidth;
  EXPECT_NEAR(tally_.mesh_comm_s,
              2 * reg.allreduce_time(256, 64) + 98 * 2 * wire, 1e-18);
  // The same bytes cross the mesh as in 100 single launches.
  CostTally single;
  RegComm(config_, single).account_allreduce(256, 64, 100, 100);
  EXPECT_EQ(tally_.reg_bytes, single.reg_bytes);
  EXPECT_NEAR(single.mesh_comm_s - tally_.mesh_comm_s,
              98 * 2 * 14 * config_.reg_hop_latency, 1e-18);
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
