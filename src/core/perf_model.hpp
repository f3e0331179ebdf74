#pragma once

#include <cstdint>
#include <optional>

#include "core/partition.hpp"
#include "simarch/cost.hpp"
#include "simarch/machine_config.hpp"
#include "simarch/topology.hpp"

namespace swhkm::core {

/// How CG groups map onto the machine (Level 3). The paper recommends
/// packing a CG group inside a supernode; kScattered stripes groups across
/// the machine instead, and exists as the ablation of that advice.
enum class Placement { kPacked, kScattered };

/// Analytic cost of ONE k-means iteration under `plan` — the model that
/// regenerates the paper's figures at paper scale, where the functional
/// engines cannot run. It is the engines' own charge over a full
/// chain-kernel sweep: the level's assign charge (charge_level{1,2,3}_assign
/// below) on one CG's full-sweep AssignWork, then charge_update for CG 0
/// (the largest update shard), with the volumes scaled to the machine.
/// Mechanics (all derived from the plan, none fitted per-figure):
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
///  mesh_comm        — register-communication combines inside a CG
///                     (argmin records for L2, distance partials for L3),
///                     one launch per combine batch of samples
///                     (plan.ldm.combine_batch): each launch pays the hop
///                     latency once and each sample its wire time; plus
///                     the intra-CG accumulator reduction.
///  net_comm         — per-sample inter-CG argmin combine (Level 3 only;
///                     this latency floor is why Level 2 wins at small d)
///                     plus the update's accumulator exchange (Levels 1/2:
///                     a machine-wide reduce-scatter; Level 3: the
///                     same-slice AllReduce) and the publish allgather.
///  update           — one CG's shard of the centroid recomputation and
///                     writeback (ceil(k / CGs) rows).
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
/// Level 3's update exchange in charge_update.
AllreduceModel cross_group_allreduce(const simarch::Topology& topo,
                                     std::size_t bytes,
                                     std::size_t num_groups,
                                     std::size_t group_size,
                                     Placement placement, bool hier,
                                     std::size_t xover);

/// One CG's assign-phase work in one iteration: the input of the per-level
/// charge functions below. A LevelPolicy fills it from the counts its
/// sweep executed; model_iteration fills it with a full chain-kernel sweep
/// (16-byte combine records, the worst group's combine, one tile per
/// block). Fields a level does not read stay zero.
struct AssignWork {
  /// Sample-stream bytes into the CG, the gate's bound bytes included.
  std::uint64_t stream_bytes = 0;
  /// Stream descriptors on the busiest reader's chain.
  std::uint64_t descriptors = 0;
  /// Level 1: CPEs that (re)load all k centroids.
  std::uint64_t loading_cpes = 0;
  /// Levels 2/3: samples that drive centroid traffic (the busiest group's
  /// at Level 2, the CG's at Level 3).
  std::uint64_t centroid_samples = 0;
  /// Level 2: the iteration ran the bound gate, so a CG with no swept
  /// sample loads no centroids.
  bool gated = false;
  /// The busiest CPE's sweep seconds, at the caller's resolved kernel.
  double sweep_s = 0;
  /// Levels 2/3: samples through the register-mesh combine; Level 2 also
  /// broadcasts `tightened` gate distances over the group's bus.
  std::uint64_t combined = 0;
  std::uint64_t tightened = 0;
  /// Levels 2/3: mesh combine launches, one per combine batch of a tile's
  /// samples on the mesh: Σ over tiles of ⌈survivors / combine batch⌉
  /// (Level 2 counts a tile's tightened samples when there are more of
  /// them; its distances ride the same rounds).
  std::uint64_t launches = 0;
  /// Level 2: bytes of one combine record on the register bus.
  std::size_t record_bytes = 0;
  /// Level 3: one sample's argmin combine across the CG group.
  AllreduceModel group_combine;
  /// Tile pipeline: the busiest block's samples against the tile; a block
  /// of at most one tile hides nothing.
  std::uint64_t block_samples = 0;
  std::uint64_t tile_samples = 0;
};

/// The assign phase of one CG for one iteration, added to `t` in the
/// level's own charge order: sample stream, centroid traffic, the busiest
/// CPE's sweep, the register-mesh combines, Level 3's group combine, and
/// the tile pipeline's hiding. Volumes are the CG's own. Each returns the
/// seconds the pipeline hid, or nullopt when it did not engage.
///
/// Level 1: every loading CPE streams all k centroids; the fused
/// accumulator is reduced over the CG's mesh. The pipeline hides sample
/// and centroid DMA in proportion.
std::optional<double> charge_level1_assign(
    simarch::CostTally& t, const AssignWork& w, const PartitionPlan& plan,
    const simarch::MachineConfig& machine);
/// Level 2: each CPE keeps its own slice copy; the group's argmin records
/// and tighten distances cross the register bus in `launches` rounds,
/// then the same-slice CPEs reduce their accumulators. Hiding as at
/// Level 1.
std::optional<double> charge_level2_assign(
    simarch::CostTally& t, const AssignWork& w, const PartitionPlan& plan,
    const simarch::MachineConfig& machine);
/// Level 3: the CG's CPEs jointly hold one slice; each combined sample
/// reduces k_local distance partials over the mesh (`launches` batched
/// allreduces) and pays the group combine. The pipeline hides the combine's seconds first, then the
/// centroid re-stream.
std::optional<double> charge_level3_assign(
    simarch::CostTally& t, const AssignWork& w, const PartitionPlan& plan,
    const simarch::MachineConfig& machine);

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

/// The update phase's hierarchical collectives, returned so the engines
/// can export them through telemetry: Levels 1/2's reduce-scatter and the
/// publish allgather. Empty under the flat schedule; Level 3 runs no
/// reduce-scatter.
struct UpdateCollectives {
  std::optional<simarch::CollectiveCharge> reduce_scatter;
  std::optional<simarch::CollectiveCharge> allgather;
};

/// The update phase of CG `cg` for one iteration, added to `t`. Levels
/// 1/2: the machine-wide sharded phase — reduce-scatter of the fused
/// (k·d + k)-element accumulator, then one allgather publishing the
/// refreshed rows with a 16-byte (shift, empties) header per CG and the
/// k-double drift vector. Level 3: the CG's (k_local·d + k_local)-element
/// slice accumulator reduced across the same-slice CGs
/// (cross_group_allreduce under `placement`; nothing when one CG group
/// spans the machine), then the allgather with no rows
/// (update_publish_bytes). With `sdc_checks` the scrub verdicts lengthen
/// the header (sdc_verdict_bytes). Each collective's crossing bytes cover
/// the whole collective, so only CG 0 books them; `net_bytes` and
/// `net_rounds` are the CG's own. `update_s` prices the CG's shard of
/// rows, block_range(k, CGs, cg).
UpdateCollectives charge_update(simarch::CostTally& t,
                                const PartitionPlan& plan,
                                const simarch::MachineConfig& machine,
                                const simarch::Topology& topo, std::size_t cg,
                                Placement placement, bool hier,
                                bool sdc_checks);

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
