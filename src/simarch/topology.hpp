#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simarch/machine_config.hpp"

namespace swhkm::simarch {

/// Which schedule a modeled collective charged: the flat whole-world
/// pattern (used whenever the rank set sits inside one supernode — the
/// hierarchy degenerates and the charge must match the original model
/// exactly), or one of the two inter-supernode algorithms of the
/// hierarchical schedule.
enum class CollectiveAlgo {
  kFlat,
  kBinomialTree,            ///< latency-optimal inter stage (tiny payloads)
  kReduceScatterAllgather,  ///< bandwidth-optimal inter stage (large payloads)
};

const char* to_string(CollectiveAlgo algo);

/// One modeled hierarchical collective: critical-path seconds, the bytes
/// that crossed supernode boundaries (central-switch traffic — what the
/// Fig. 7 step jumps are made of), and the per-stage round counts, so the
/// engines can charge CostTally::net_crossing_bytes and export the
/// schedule through telemetry.
struct CollectiveCharge {
  double seconds = 0;
  std::uint64_t crossing_bytes = 0;
  std::uint32_t intra_rounds = 0;  ///< stages inside supernodes
  std::uint32_t inter_rounds = 0;  ///< stages among supernode leaders
  CollectiveAlgo algo = CollectiveAlgo::kFlat;
};

/// TaihuLight interconnect model: CGs sit on nodes (4 per SW26010
/// processor), nodes sit on supernodes (256 per interconnection board), and
/// supernodes meet at the central routing switch. Link quality degrades in
/// three steps: same node (shared memory) > same supernode (board network)
/// > cross supernode (central switch).
///
/// Ranks in this class are CG indices; placement is contiguous: CG r lives
/// on node r / cgs_per_node. The paper's placement advice ("make a CG group
/// located within a super-node if possible") is modelled by choosing which
/// contiguous CG ranges a plan assigns to a group.
class Topology {
 public:
  explicit Topology(const MachineConfig& config);

  std::size_t num_cgs() const { return config_->num_cgs(); }
  std::size_t node_of_cg(std::size_t cg) const {
    return cg / config_->cgs_per_node;
  }
  std::size_t supernode_of_node(std::size_t node) const {
    return node / config_->supernode_nodes;
  }
  std::size_t supernode_of_cg(std::size_t cg) const {
    return supernode_of_node(node_of_cg(cg));
  }
  bool same_node(std::size_t cg_a, std::size_t cg_b) const {
    return node_of_cg(cg_a) == node_of_cg(cg_b);
  }
  bool same_supernode(std::size_t cg_a, std::size_t cg_b) const {
    return supernode_of_cg(cg_a) == supernode_of_cg(cg_b);
  }

  /// Seconds for one point-to-point message of `bytes` between two CGs.
  double message_time(std::size_t bytes, std::size_t cg_a,
                      std::size_t cg_b) const;

  /// Seconds for a sum-AllReduce of `bytes` payload over the contiguous CG
  /// range [first_cg, first_cg + count). Modelled as recursive doubling:
  /// ceil(log2(count)) stages, each stage exchanging the full payload with
  /// a partner 2^s ranks away; a stage costs what its slowest pair costs.
  /// Crossing node and supernode boundaries at the large-stride stages is
  /// what produces the boundary effects the paper observes in Fig. 7.
  double allreduce_time(std::size_t bytes, std::size_t first_cg,
                        std::size_t count) const;

  /// Same, over an arbitrary set of CG ranks (e.g. the stride-m'_group
  /// same-slice CGs that combine accumulators in Level 3).
  double allreduce_time(std::size_t bytes,
                        const std::vector<std::size_t>& cgs) const;

  /// Seconds for a sum-reduce_scatter of `bytes` payload over the range:
  /// recursive halving, each stage exchanging half the surviving payload
  /// with a partner 2^s ranks away; non-powers of two pay an extra fold-in
  /// exchange of the full payload. This is the first half of the sharded
  /// update phase (each CG ends up owning its shard of the sums).
  double reduce_scatter_time(std::size_t bytes, std::size_t first_cg,
                             std::size_t count) const;

  /// Seconds for an allgather assembling `bytes` total payload over the
  /// range: recursive doubling, stage payloads growing from one shard to
  /// half the total; non-powers of two pay an extra full-payload fold-out.
  /// This is the second half of the sharded update phase (publishing the
  /// refreshed centroid rows).
  double allgather_time(std::size_t bytes, std::size_t first_cg,
                        std::size_t count) const;

  /// Two-level allreduce charge over the rank set: binomial fold inside
  /// each supernode's segment, a size-adaptive stage among the supernode
  /// leaders (binomial tree at or below `crossover_bytes`, recursive
  /// halving + doubling above it), and the fan back out. When the set
  /// spans a single supernode the charge is *exactly* the flat
  /// allreduce_time with zero crossing bytes — the hierarchy degenerates,
  /// so sub-supernode machines are unaffected by the schedule. Crossing
  /// bytes are 2*(S-1)*payload for S supernodes regardless of the inter
  /// algorithm (the algorithm trades stage latency against stage
  /// bandwidth; the hierarchy itself is what removes the flat schedule's
  /// every-rank-crosses-per-stage traffic).
  CollectiveCharge hier_allreduce_charge(std::size_t bytes,
                                         std::size_t first_cg,
                                         std::size_t count,
                                         std::size_t crossover_bytes) const;
  CollectiveCharge hier_allreduce_charge(std::size_t bytes,
                                         const std::vector<std::size_t>& cgs,
                                         std::size_t crossover_bytes) const;

  /// Two-level reduce_scatter charge: intra-segment recursive halving,
  /// then the leaders combine across supernodes (halving above the
  /// crossover, tree + range scatter below it). Flat when S == 1.
  CollectiveCharge hier_reduce_scatter_charge(
      std::size_t bytes, std::size_t first_cg, std::size_t count,
      std::size_t crossover_bytes) const;

  /// Two-level allgather charge: each segment assembles its block, the
  /// leaders exchange blocks by recursive doubling (concatenation has no
  /// reduction op, so the bandwidth schedule is always right), and the
  /// assembled payload fans back out. Flat when S == 1.
  CollectiveCharge hier_allgather_charge(std::size_t bytes,
                                         std::size_t first_cg,
                                         std::size_t count) const;

  /// Supernode-crossing bytes the *flat* recursive-doubling allreduce
  /// moves over the same rank set — the A/B baseline the bench cells
  /// compare the hierarchical schedule's crossing_bytes against. Every
  /// rank exchanges the full payload at every stage, so stages whose
  /// stride jumps a supernode put the whole world's payload through the
  /// central switch at once.
  std::uint64_t flat_allreduce_crossing_bytes(std::size_t bytes,
                                              std::size_t first_cg,
                                              std::size_t count) const;
  std::uint64_t flat_allreduce_crossing_bytes(
      std::size_t bytes, const std::vector<std::size_t>& cgs) const;

 private:
  /// Partition a rank list into per-supernode segments (first-appearance
  /// order; contiguous ranges yield contiguous segments).
  std::vector<std::vector<std::size_t>> segments_by_supernode(
      const std::vector<std::size_t>& cgs) const;
  /// Stage-time helpers over arbitrary rank lists, mirroring the
  /// contiguous-range collectives above: binomial tree (broadcast/reduce
  /// shape), recursive halving (reduce_scatter shape) and recursive
  /// doubling (allgather shape).
  double binomial_tree_time(std::size_t bytes,
                            const std::vector<std::size_t>& cgs) const;
  double halving_time(std::size_t bytes,
                      const std::vector<std::size_t>& cgs) const;
  double doubling_time(std::size_t bytes,
                       const std::vector<std::size_t>& cgs) const;

  const MachineConfig* config_;
};

}  // namespace swhkm::simarch
