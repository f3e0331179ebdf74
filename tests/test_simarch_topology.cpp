#include <gtest/gtest.h>

#include "simarch/topology.hpp"
#include "util/error.hpp"

namespace swhkm::simarch {
namespace {

TEST(Topology, CgToNodeMapping) {
  const MachineConfig config = MachineConfig::sw26010(4);
  const Topology topo(config);
  EXPECT_EQ(topo.node_of_cg(0), 0u);
  EXPECT_EQ(topo.node_of_cg(3), 0u);
  EXPECT_EQ(topo.node_of_cg(4), 1u);
  EXPECT_EQ(topo.node_of_cg(15), 3u);
}

TEST(Topology, SupernodeMapping) {
  const MachineConfig config = MachineConfig::sw26010(512);
  const Topology topo(config);
  EXPECT_EQ(topo.supernode_of_node(0), 0u);
  EXPECT_EQ(topo.supernode_of_node(255), 0u);
  EXPECT_EQ(topo.supernode_of_node(256), 1u);
  // CG 1024 sits on node 256, the second supernode.
  EXPECT_EQ(topo.supernode_of_cg(1024), 1u);
  EXPECT_TRUE(topo.same_supernode(0, 1023));
  EXPECT_FALSE(topo.same_supernode(1023, 1024));
}

TEST(Topology, SelfMessageIsFree) {
  const MachineConfig config = MachineConfig::sw26010(2);
  const Topology topo(config);
  EXPECT_EQ(topo.message_time(1 << 20, 3, 3), 0.0);
}

TEST(Topology, MessageTiersOrdered) {
  const MachineConfig config = MachineConfig::sw26010(512);
  const Topology topo(config);
  const std::size_t bytes = 1 << 20;
  const double same_node = topo.message_time(bytes, 0, 1);
  const double same_supernode = topo.message_time(bytes, 0, 4);
  const double cross_supernode = topo.message_time(bytes, 0, 1024);
  EXPECT_LT(same_node, same_supernode);
  EXPECT_LT(same_supernode, cross_supernode);
}

TEST(Topology, AllreduceTrivialCases) {
  const MachineConfig config = MachineConfig::sw26010(2);
  const Topology topo(config);
  EXPECT_EQ(topo.allreduce_time(1024, 0, 0), 0.0);
  EXPECT_EQ(topo.allreduce_time(1024, 0, 1), 0.0);
}

TEST(Topology, AllreduceGrowsWithBytes) {
  const MachineConfig config = MachineConfig::sw26010(16);
  const Topology topo(config);
  EXPECT_LT(topo.allreduce_time(1024, 0, 64), topo.allreduce_time(1 << 24, 0, 64));
}

TEST(Topology, AllreduceGrowsWithLogOfRanks) {
  const MachineConfig config = MachineConfig::sw26010(64);
  const Topology topo(config);
  const double t4 = topo.allreduce_time(1 << 16, 0, 4);
  const double t64 = topo.allreduce_time(1 << 16, 0, 64);
  EXPECT_LT(t4, t64);
  // log2(64)/log2(4) = 3, but stage costs differ by tier; stay within 8x.
  EXPECT_LT(t64, 8 * t4);
}

TEST(Topology, NonPowerOfTwoPaysFoldStage) {
  const MachineConfig config = MachineConfig::sw26010(16);
  const Topology topo(config);
  EXPECT_GT(topo.allreduce_time(1 << 16, 0, 48),
            topo.allreduce_time(1 << 16, 0, 32));
}

TEST(Topology, RangeBeyondMachineThrows) {
  const MachineConfig config = MachineConfig::sw26010(1);
  const Topology topo(config);
  EXPECT_THROW(topo.allreduce_time(16, 0, 5), swhkm::InvalidArgument);
}

TEST(Topology, PackedRangeBeatsScatteredSet) {
  // The paper's placement advice: a CG group inside one supernode
  // communicates faster than one striped across supernodes.
  const MachineConfig config = MachineConfig::sw26010(512);
  const Topology topo(config);
  const double packed = topo.allreduce_time(1 << 20, 0, 16);
  std::vector<std::size_t> scattered;
  for (std::size_t i = 0; i < 16; ++i) {
    scattered.push_back(i * 128);  // stride across both supernodes
  }
  EXPECT_LT(packed, topo.allreduce_time(1 << 20, scattered));
}

TEST(Topology, StridedOverloadMatchesContiguous) {
  const MachineConfig config = MachineConfig::sw26010(8);
  const Topology topo(config);
  std::vector<std::size_t> contiguous{4, 5, 6, 7};
  EXPECT_DOUBLE_EQ(topo.allreduce_time(4096, 4, 4),
                   topo.allreduce_time(4096, contiguous));
}

TEST(Topology, SupernodeCrossingRaisesGroupCombine) {
  // A 16-CG group fully inside supernode 0 vs one straddling the boundary.
  const MachineConfig config = MachineConfig::sw26010(512);
  const Topology topo(config);
  const double inside = topo.allreduce_time(16, 0, 16);
  const double straddling = topo.allreduce_time(16, 1016, 16);
  EXPECT_GT(straddling, inside);
}

TEST(Topology, HierChargeDegeneratesToFlatInsideOneSupernode) {
  // 128 nodes = half a supernode: the hierarchical schedule has no inter
  // stage, so its charge must equal the flat model EXACTLY — seconds and
  // all — with zero crossing bytes. This is what keeps every perf-model
  // regression at <= 256 nodes byte-stable.
  const MachineConfig config = MachineConfig::sw26010(128);
  const Topology topo(config);
  const std::size_t xover = config.collective_crossover_bytes();
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{1} << 20}) {
    const CollectiveCharge c =
        topo.hier_allreduce_charge(bytes, 0, config.num_cgs(), xover);
    EXPECT_EQ(c.seconds, topo.allreduce_time(bytes, 0, config.num_cgs()));
    EXPECT_EQ(c.crossing_bytes, 0u);
    EXPECT_EQ(c.algo, CollectiveAlgo::kFlat);
  }
}

TEST(Topology, HierCutsCrossingBytesVsFlat) {
  // 512 nodes = two supernodes. The hierarchical allreduce crosses
  // 2*(S-1)*bytes total; the flat recursive pattern puts every rank's
  // payload through the boundary at its supernode-crossing stages.
  const MachineConfig config = MachineConfig::sw26010(512);
  const Topology topo(config);
  const std::size_t bytes = 1 << 16;
  const CollectiveCharge hier = topo.hier_allreduce_charge(
      bytes, 0, config.num_cgs(), config.collective_crossover_bytes());
  const std::uint64_t flat =
      topo.flat_allreduce_crossing_bytes(bytes, 0, config.num_cgs());
  EXPECT_GT(hier.crossing_bytes, 0u);
  EXPECT_GT(flat, 0u);
  // The issue's acceptance bar is a >= 2x cut; the model clears it with
  // room (the flat pattern pays per crossing stage, the hierarchy once).
  EXPECT_GE(flat, 2 * hier.crossing_bytes);
  EXPECT_GT(hier.intra_rounds, 0u);
  EXPECT_GT(hier.inter_rounds, 0u);
}

TEST(Topology, HierAlgoFlipsAtCrossover) {
  const MachineConfig config = MachineConfig::sw26010(512);
  const Topology topo(config);
  const std::size_t xover = config.collective_crossover_bytes();
  EXPECT_GT(xover, 0u);
  const CollectiveCharge small =
      topo.hier_allreduce_charge(64, 0, config.num_cgs(), xover);
  const CollectiveCharge large =
      topo.hier_allreduce_charge(xover * 2, 0, config.num_cgs(), xover);
  EXPECT_EQ(small.algo, CollectiveAlgo::kBinomialTree);
  EXPECT_EQ(large.algo, CollectiveAlgo::kReduceScatterAllgather);
}

}  // namespace
}  // namespace swhkm::simarch
