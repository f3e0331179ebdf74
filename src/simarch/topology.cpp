#include "simarch/topology.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace swhkm::simarch {

Topology::Topology(const MachineConfig& config) : config_(&config) {
  config.validate();
}

double Topology::message_time(std::size_t bytes, std::size_t cg_a,
                              std::size_t cg_b) const {
  if (cg_a == cg_b) {
    return 0.0;
  }
  double bandwidth = 0;
  double latency = 0;
  if (same_node(cg_a, cg_b)) {
    bandwidth = config_->intra_node_bandwidth;
    latency = config_->intra_node_latency;
  } else if (same_supernode(cg_a, cg_b)) {
    bandwidth = config_->net_bandwidth;
    latency = config_->net_latency;
  } else {
    bandwidth = config_->inter_supernode_bandwidth;
    latency = config_->inter_supernode_latency;
  }
  return latency + static_cast<double>(bytes) / bandwidth;
}

double Topology::allreduce_time(std::size_t bytes, std::size_t first_cg,
                                std::size_t count) const {
  SWHKM_REQUIRE(first_cg + count <= num_cgs(), "CG range out of machine");
  std::vector<std::size_t> cgs(count);
  for (std::size_t i = 0; i < count; ++i) {
    cgs[i] = first_cg + i;
  }
  return allreduce_time(bytes, cgs);
}

double Topology::allreduce_time(std::size_t bytes,
                                const std::vector<std::size_t>& cgs) const {
  const std::size_t count = cgs.size();
  if (count <= 1) {
    return 0.0;
  }
  double total = 0.0;
  // Recursive doubling over the rank list; for non-powers of two the
  // surplus ranks fold into the nearest power of two first (one extra
  // exchange), which is the standard MPI implementation shape.
  const std::size_t pow2 = [&] {
    std::size_t p = 1;
    while (p * 2 <= count) {
      p *= 2;
    }
    return p;
  }();
  if (pow2 != count) {
    // fold-in stage: rank i >= pow2 sends to i - pow2
    double worst = 0.0;
    for (std::size_t r = pow2; r < count; ++r) {
      worst = std::max(worst, message_time(bytes, cgs[r], cgs[r - pow2]));
    }
    total += 2.0 * worst;  // fold in before, fold out after
  }
  for (std::size_t stride = 1; stride < pow2; stride *= 2) {
    double worst = 0.0;
    for (std::size_t r = 0; r < pow2; ++r) {
      const std::size_t partner = r ^ stride;
      if (partner < r) {
        continue;  // pair counted once
      }
      worst = std::max(worst, message_time(bytes, cgs[r], cgs[partner]));
    }
    total += worst;
  }
  return total;
}

namespace {

std::size_t largest_pow2_at_most(std::size_t count) {
  std::size_t p = 1;
  while (p * 2 <= count) {
    p *= 2;
  }
  return p;
}

}  // namespace

double Topology::reduce_scatter_time(std::size_t bytes, std::size_t first_cg,
                                     std::size_t count) const {
  SWHKM_REQUIRE(first_cg + count <= num_cgs(), "CG range out of machine");
  if (count <= 1) {
    return 0.0;
  }
  const std::size_t pow2 = largest_pow2_at_most(count);
  double total = 0.0;
  if (pow2 != count) {
    // Surplus ranks fold their full partials into the nearest power of two.
    double worst = 0.0;
    for (std::size_t r = pow2; r < count; ++r) {
      worst = std::max(
          worst, message_time(bytes, first_cg + r, first_cg + r - pow2));
    }
    total += worst;
  }
  // Recursive halving: each stage hands off half of the payload a rank is
  // still responsible for, so stage payloads shrink bytes/2, bytes/4, ...
  std::size_t stage_bytes = bytes;
  for (std::size_t stride = 1; stride < pow2; stride *= 2) {
    stage_bytes = (stage_bytes + 1) / 2;
    double worst = 0.0;
    for (std::size_t r = 0; r < pow2; ++r) {
      const std::size_t partner = r ^ stride;
      if (partner < r) {
        continue;  // pair counted once
      }
      worst = std::max(
          worst, message_time(stage_bytes, first_cg + r, first_cg + partner));
    }
    total += worst;
  }
  return total;
}

double Topology::allgather_time(std::size_t bytes, std::size_t first_cg,
                                std::size_t count) const {
  SWHKM_REQUIRE(first_cg + count <= num_cgs(), "CG range out of machine");
  if (count <= 1) {
    return 0.0;
  }
  const std::size_t pow2 = largest_pow2_at_most(count);
  double total = 0.0;
  // Recursive doubling: stage payloads grow from one shard up to half the
  // total — the mirror image of the reduce_scatter above.
  std::size_t stage_bytes = (bytes + pow2 - 1) / pow2;
  for (std::size_t stride = 1; stride < pow2; stride *= 2) {
    double worst = 0.0;
    for (std::size_t r = 0; r < pow2; ++r) {
      const std::size_t partner = r ^ stride;
      if (partner < r) {
        continue;  // pair counted once
      }
      worst = std::max(
          worst, message_time(stage_bytes, first_cg + r, first_cg + partner));
    }
    total += worst;
    stage_bytes *= 2;
  }
  if (pow2 != count) {
    // Surplus ranks receive the assembled payload in a final fold-out.
    double worst = 0.0;
    for (std::size_t r = pow2; r < count; ++r) {
      worst = std::max(
          worst, message_time(bytes, first_cg + r - pow2, first_cg + r));
    }
    total += worst;
  }
  return total;
}

const char* to_string(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kFlat:
      return "flat";
    case CollectiveAlgo::kBinomialTree:
      return "tree";
    case CollectiveAlgo::kReduceScatterAllgather:
      return "rs_ag";
  }
  return "?";
}

namespace {

std::uint32_t stage_count(std::size_t count) {
  std::uint32_t stages = 0;
  std::size_t p = 1;
  while (p < count) {
    p *= 2;
    ++stages;
  }
  return stages;
}

}  // namespace

std::vector<std::vector<std::size_t>> Topology::segments_by_supernode(
    const std::vector<std::size_t>& cgs) const {
  std::vector<std::vector<std::size_t>> segments;
  std::vector<std::size_t> seen;  // supernode id per segment, append order
  for (const std::size_t cg : cgs) {
    const std::size_t sn = supernode_of_cg(cg);
    std::size_t idx = seen.size();
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] == sn) {
        idx = i;
        break;
      }
    }
    if (idx == seen.size()) {
      seen.push_back(sn);
      segments.emplace_back();
    }
    segments[idx].push_back(cg);
  }
  return segments;
}

double Topology::binomial_tree_time(std::size_t bytes,
                                    const std::vector<std::size_t>& cgs)
    const {
  // Binomial tree over list indices; stage cost is its worst link (a
  // reduce is the same stage structure run in reverse).
  const std::size_t count = cgs.size();
  double total = 0.0;
  for (std::size_t reached = 1; reached < count; reached *= 2) {
    double worst = 0.0;
    const std::size_t senders = std::min(reached, count - reached);
    for (std::size_t s = 0; s < senders; ++s) {
      worst = std::max(worst, message_time(bytes, cgs[s], cgs[s + reached]));
    }
    total += worst;
  }
  return total;
}

double Topology::halving_time(std::size_t bytes,
                              const std::vector<std::size_t>& cgs) const {
  // reduce_scatter_time's structure over an arbitrary rank list.
  const std::size_t count = cgs.size();
  if (count <= 1) {
    return 0.0;
  }
  const std::size_t pow2 = largest_pow2_at_most(count);
  double total = 0.0;
  if (pow2 != count) {
    double worst = 0.0;
    for (std::size_t r = pow2; r < count; ++r) {
      worst = std::max(worst, message_time(bytes, cgs[r], cgs[r - pow2]));
    }
    total += worst;
  }
  std::size_t stage_bytes = bytes;
  for (std::size_t stride = 1; stride < pow2; stride *= 2) {
    stage_bytes = (stage_bytes + 1) / 2;
    double worst = 0.0;
    for (std::size_t r = 0; r < pow2; ++r) {
      const std::size_t partner = r ^ stride;
      if (partner < r) {
        continue;
      }
      worst = std::max(worst, message_time(stage_bytes, cgs[r], cgs[partner]));
    }
    total += worst;
  }
  return total;
}

double Topology::doubling_time(std::size_t bytes,
                               const std::vector<std::size_t>& cgs) const {
  // allgather_time's structure over an arbitrary rank list.
  const std::size_t count = cgs.size();
  if (count <= 1) {
    return 0.0;
  }
  const std::size_t pow2 = largest_pow2_at_most(count);
  double total = 0.0;
  std::size_t stage_bytes = (bytes + pow2 - 1) / pow2;
  for (std::size_t stride = 1; stride < pow2; stride *= 2) {
    double worst = 0.0;
    for (std::size_t r = 0; r < pow2; ++r) {
      const std::size_t partner = r ^ stride;
      if (partner < r) {
        continue;
      }
      worst = std::max(worst, message_time(stage_bytes, cgs[r], cgs[partner]));
    }
    total += worst;
    stage_bytes *= 2;
  }
  if (pow2 != count) {
    double worst = 0.0;
    for (std::size_t r = pow2; r < count; ++r) {
      worst = std::max(worst, message_time(bytes, cgs[r - pow2], cgs[r]));
    }
    total += worst;
  }
  return total;
}

CollectiveCharge Topology::hier_allreduce_charge(
    std::size_t bytes, std::size_t first_cg, std::size_t count,
    std::size_t crossover_bytes) const {
  SWHKM_REQUIRE(first_cg + count <= num_cgs(), "CG range out of machine");
  std::vector<std::size_t> cgs(count);
  for (std::size_t i = 0; i < count; ++i) {
    cgs[i] = first_cg + i;
  }
  return hier_allreduce_charge(bytes, cgs, crossover_bytes);
}

CollectiveCharge Topology::hier_allreduce_charge(
    std::size_t bytes, const std::vector<std::size_t>& cgs,
    std::size_t crossover_bytes) const {
  CollectiveCharge charge;
  const std::size_t count = cgs.size();
  if (count <= 1) {
    return charge;
  }
  const std::vector<std::vector<std::size_t>> segments =
      segments_by_supernode(cgs);
  const std::size_t supernodes = segments.size();
  if (supernodes <= 1) {
    // The hierarchy degenerates: charge exactly the flat schedule so
    // sub-supernode machines see identical modeled times.
    charge.seconds = allreduce_time(bytes, cgs);
    charge.intra_rounds = stage_count(count);
    charge.algo = CollectiveAlgo::kFlat;
    return charge;
  }
  const double latency = config_->inter_supernode_latency;
  const double bandwidth = config_->inter_supernode_bandwidth;
  const std::uint32_t lg = stage_count(supernodes);
  const double frac = (static_cast<double>(supernodes) - 1.0) /
                      static_cast<double>(supernodes);
  std::size_t min_seg = count;
  std::uint32_t worst_seg_stages = 0;
  for (const auto& seg : segments) {
    min_seg = std::min(min_seg, seg.size());
    worst_seg_stages = std::max(worst_seg_stages, stage_count(seg.size()));
  }
  // Crossing bytes do not depend on the inter algorithm: the tree moves
  // (S-1) full payloads up and down; the homologous-shard exchange moves
  // 2*((S-1)/S)*shard per participant over count/S participant sets.
  charge.crossing_bytes = 2 *
                          static_cast<std::uint64_t>(supernodes - 1) *
                          static_cast<std::uint64_t>(bytes);
  charge.inter_rounds = 2 * lg;
  if (bytes <= crossover_bytes) {
    // Latency-optimal sandwich: binomial fold up within each segment,
    // full-payload binomial tree among the leaders, fan back out.
    double intra = 0.0;
    for (const auto& seg : segments) {
      intra = std::max(intra, binomial_tree_time(bytes, seg));
    }
    charge.seconds =
        2.0 * intra +
        2.0 * lg * (latency + static_cast<double>(bytes) / bandwidth);
    charge.intra_rounds = 2 * worst_seg_stages;
    charge.algo = CollectiveAlgo::kBinomialTree;
  } else {
    // Bandwidth-optimal sandwich: reduce-scatter within each segment so
    // every rank owns a 1/|segment| shard, allreduce each homologous
    // shard across the S supernodes (halving+doubling: bidirectional
    // stage latency, but only 2*frac of the shard in bandwidth), then
    // allgather within each segment.
    double intra = 0.0;
    for (const auto& seg : segments) {
      intra = std::max(intra, halving_time(bytes, seg) +
                                  doubling_time(bytes, seg));
    }
    const double shard =
        static_cast<double>(bytes) / static_cast<double>(min_seg);
    charge.seconds =
        intra + 4.0 * lg * latency + 2.0 * frac * shard / bandwidth;
    charge.intra_rounds = 2 * worst_seg_stages;
    charge.algo = CollectiveAlgo::kReduceScatterAllgather;
  }
  return charge;
}

CollectiveCharge Topology::hier_reduce_scatter_charge(
    std::size_t bytes, std::size_t first_cg, std::size_t count,
    std::size_t crossover_bytes) const {
  SWHKM_REQUIRE(first_cg + count <= num_cgs(), "CG range out of machine");
  CollectiveCharge charge;
  if (count <= 1) {
    return charge;
  }
  std::vector<std::size_t> cgs(count);
  for (std::size_t i = 0; i < count; ++i) {
    cgs[i] = first_cg + i;
  }
  const std::vector<std::vector<std::size_t>> segments =
      segments_by_supernode(cgs);
  const std::size_t supernodes = segments.size();
  if (supernodes <= 1) {
    charge.seconds = reduce_scatter_time(bytes, first_cg, count);
    charge.intra_rounds = stage_count(count);
    charge.algo = CollectiveAlgo::kFlat;
    return charge;
  }
  const double latency = config_->inter_supernode_latency;
  const double bandwidth = config_->inter_supernode_bandwidth;
  const std::uint32_t lg = stage_count(supernodes);
  const double frac = (static_cast<double>(supernodes) - 1.0) /
                      static_cast<double>(supernodes);
  std::size_t min_seg = count;
  double intra = 0.0;
  std::uint32_t worst_seg_stages = 0;
  for (const auto& seg : segments) {
    min_seg = std::min(min_seg, seg.size());
    worst_seg_stages = std::max(worst_seg_stages, stage_count(seg.size()));
    intra = std::max(intra, halving_time(bytes, seg));
  }
  charge.intra_rounds = worst_seg_stages;
  if (bytes > crossover_bytes) {
    // Halving across supernodes on the per-rank shards.
    const double shard =
        static_cast<double>(bytes) / static_cast<double>(min_seg);
    charge.seconds = intra + 2.0 * lg * latency + frac * shard / bandwidth;
    charge.crossing_bytes = static_cast<std::uint64_t>(supernodes - 1) *
                            static_cast<std::uint64_t>(bytes);
    charge.inter_rounds = lg;
    charge.algo = CollectiveAlgo::kReduceScatterAllgather;
  } else {
    // Tree reduce among leaders plus one range-scatter wave back out.
    charge.seconds =
        intra +
        (lg + 1.0) * (latency + static_cast<double>(bytes) / bandwidth);
    charge.crossing_bytes = (static_cast<std::uint64_t>(supernodes - 1) + 1) *
                            static_cast<std::uint64_t>(bytes);
    charge.inter_rounds = lg + 1;
    charge.algo = CollectiveAlgo::kBinomialTree;
  }
  return charge;
}

CollectiveCharge Topology::hier_allgather_charge(std::size_t bytes,
                                                 std::size_t first_cg,
                                                 std::size_t count) const {
  SWHKM_REQUIRE(first_cg + count <= num_cgs(), "CG range out of machine");
  CollectiveCharge charge;
  if (count <= 1) {
    return charge;
  }
  std::vector<std::size_t> cgs(count);
  for (std::size_t i = 0; i < count; ++i) {
    cgs[i] = first_cg + i;
  }
  const std::vector<std::vector<std::size_t>> segments =
      segments_by_supernode(cgs);
  const std::size_t supernodes = segments.size();
  if (supernodes <= 1) {
    charge.seconds = allgather_time(bytes, first_cg, count);
    charge.intra_rounds = stage_count(count);
    charge.algo = CollectiveAlgo::kFlat;
    return charge;
  }
  const double latency = config_->inter_supernode_latency;
  const double bandwidth = config_->inter_supernode_bandwidth;
  const std::uint32_t lg = stage_count(supernodes);
  const double frac = (static_cast<double>(supernodes) - 1.0) /
                      static_cast<double>(supernodes);
  double intra = 0.0;
  std::uint32_t worst_seg_stages = 0;
  for (const auto& seg : segments) {
    worst_seg_stages = std::max(worst_seg_stages, stage_count(seg.size()));
    // Assemble the segment's own block, then fan the full payload back
    // out once the leaders have exchanged blocks.
    const std::size_t block =
        bytes * seg.size() / count;
    intra = std::max(intra, doubling_time(block, seg) +
                                binomial_tree_time(bytes, seg));
  }
  charge.seconds =
      intra + 2.0 * lg * latency + frac * static_cast<double>(bytes) /
                                       bandwidth;
  charge.crossing_bytes = static_cast<std::uint64_t>(supernodes - 1) *
                          static_cast<std::uint64_t>(bytes);
  charge.intra_rounds = 2 * worst_seg_stages;
  charge.inter_rounds = lg;
  charge.algo = CollectiveAlgo::kReduceScatterAllgather;
  return charge;
}

std::uint64_t Topology::flat_allreduce_crossing_bytes(
    std::size_t bytes, std::size_t first_cg, std::size_t count) const {
  std::vector<std::size_t> cgs(count);
  for (std::size_t i = 0; i < count; ++i) {
    cgs[i] = first_cg + i;
  }
  return flat_allreduce_crossing_bytes(bytes, cgs);
}

std::uint64_t Topology::flat_allreduce_crossing_bytes(
    std::size_t bytes, const std::vector<std::size_t>& cgs) const {
  const std::size_t count = cgs.size();
  if (count <= 1) {
    return 0;
  }
  std::uint64_t total = 0;
  const std::size_t pow2 = largest_pow2_at_most(count);
  if (pow2 != count) {
    for (std::size_t r = pow2; r < count; ++r) {
      if (!same_supernode(cgs[r], cgs[r - pow2])) {
        total += 2 * static_cast<std::uint64_t>(bytes);  // fold in + out
      }
    }
  }
  for (std::size_t stride = 1; stride < pow2; stride *= 2) {
    for (std::size_t r = 0; r < pow2; ++r) {
      const std::size_t partner = r ^ stride;
      if (partner < r) {
        continue;
      }
      if (!same_supernode(cgs[r], cgs[partner])) {
        total += 2 * static_cast<std::uint64_t>(bytes);  // both directions
      }
    }
  }
  return total;
}

}  // namespace swhkm::simarch
