#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "simarch/cost.hpp"
#include "simarch/machine_config.hpp"

namespace swhkm::simarch {
class Topology;
}

namespace swhkm::core {

/// How CG groups map onto the machine (Level 3). The paper recommends
/// packing a CG group inside a supernode; kScattered stripes groups across
/// the machine instead, and exists as the ablation of that advice.
enum class Placement { kPacked, kScattered };

/// Analytic cost of ONE k-means iteration under `plan` — the model that
/// regenerates the paper's figures at paper scale, where the functional
/// engines cannot run. Mechanics (all derived from the plan, none fitted
/// per-figure):
///
///  sample_read      — every flow unit DMA-streams its sample block; Level 2
///                     replicates each sample across the m_group CPEs of a
///                     group, Level 3 across the m'_group CGs of a group.
///  centroid_stream  — when the centroid slice does not fit LDM (plan.ldm.
///                     resident == false), the engine runs the cheaper of
///                     (a) re-streaming the slice for every sample and
///                     (b) tiling centroids and re-reading the sample block
///                     once per tile. The tile quantisation of (b) is what
///                     produces the stepwise jumps in the Fig. 7 curves.
///  compute          — 2*k_local*d_local flops per sample per holder at
///                     compute_efficiency * peak.
///  mesh_comm        — per-sample register-communication combines inside a
///                     CG (argmin for L2, distance partials for L3) plus
///                     the intra-CG accumulator reduction.
///  net_comm         — per-sample inter-CG argmin combine (Level 3 only;
///                     this latency floor is why Level 2 wins at small d)
///                     plus the end-of-iteration accumulator AllReduce.
///  update           — centroid recomputation and writeback.
///
/// `hier_collectives` mirrors KmeansConfig::hier_collectives: when true
/// (the engines' default) the network collectives are priced through the
/// two-level topology-aware schedule (Topology::hier_*_charge, crossover
/// from MachineConfig::collective_crossover_bytes); when false they keep
/// the flat whole-world charges — the A/B baseline. Either way
/// CostTally::net_crossing_bytes reports the modeled supernode-crossing
/// traffic of the chosen schedule, so benches can show the cut directly.
/// On machines spanning a single supernode the two schedules charge
/// identical seconds (the hierarchy degenerates to the flat pattern).
simarch::CostTally model_iteration(const PartitionPlan& plan,
                                   const simarch::MachineConfig& machine,
                                   Placement placement = Placement::kPacked,
                                   bool hier_collectives = true);

/// One modeled AllReduce: seconds under the chosen schedule plus the
/// supernode-crossing bytes it moves.
struct AllreduceModel {
  double seconds = 0;
  std::uint64_t crossing_bytes = 0;
};

/// AllReduce of `bytes` across the same-slice holders, one rank out of
/// each of `num_groups` groups of `group_size`: ranks {j, j + group_size,
/// ...} packed, or {j num_groups, ...} scattered. Seconds are the slowest
/// slice's; crossing bytes scale the sampled slice holders up to all
/// group_size of them (the pattern repeats). Zero for one group. This is
/// Level 3's update exchange, priced here for both model_level3 and the
/// engine's update charge.
AllreduceModel cross_group_allreduce(const simarch::Topology& topo,
                                     std::size_t bytes,
                                     std::size_t num_groups,
                                     std::size_t group_size,
                                     Placement placement, bool hier,
                                     std::size_t xover);

/// Bytes of the update phase's publish allgather: a 16-byte (shift,
/// empties) header per CG and the k-double drift vector, plus the k
/// refreshed rows at Levels 1 and 2. A Level 3 CG scores, gates and
/// refreshes norms on its own slice, which the same-slice AllReduce
/// already updated on every holder, so no rows are published.
std::size_t update_publish_bytes(const PartitionPlan& plan,
                                 const simarch::MachineConfig& machine);

/// Bytes the armed SDC defense adds to that allgather's header: a 16-byte
/// CRC pair per CG for each of the two scrubs, plus the
/// counts-conservation word. They ride the existing round.
std::size_t sdc_verdict_bytes(const simarch::MachineConfig& machine);

/// The paper's own closed-form estimates (Section III analysis): T_read and
/// T_comm for the plan's level, transcribed literally. Used by the ablation
/// bench to show where the published algebra and the mechanistic model
/// diverge; not used by the planner.
struct PaperFormulaTimes {
  double t_read_s = 0;
  double t_comm_s = 0;
  double total_s() const { return t_read_s + t_comm_s; }
};
PaperFormulaTimes paper_formula_times(const PartitionPlan& plan,
                                      const simarch::MachineConfig& machine);

}  // namespace swhkm::core
