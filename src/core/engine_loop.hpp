#pragma once

/// The Lloyd iteration loop the three engine levels share.
///
/// The levels run the same bulk-synchronous iteration over three
/// partitions (n / nk / nkd); they differ only in which samples, which
/// centroid slice and which dimension slice each unit owns. run_engine
/// owns everything else: entry checks and resolved settings, per-rank
/// telemetry and SDC hooks, the bound-gate state, the norm cache, the
/// sharded update phase, the iteration close and the KmeansResult. A
/// LevelPolicy supplies the assign phase and its charges — one virtual
/// call each per iteration, never per sample. DESIGN.md "Engine loop".

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/engine_common.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace swhkm::core::detail {

/// Run-wide inputs and the settings resolved once at engine entry; every
/// rank reads them, none writes them (the centroid snapshot and the
/// assignment vector follow the engines' shared-memory write discipline).
struct EngineRun {
  const data::Dataset& dataset;
  const KmeansConfig& config;
  const simarch::MachineConfig& machine;
  /// The caller's plan with this run's LDM layout (LdmBudget::layout): its
  /// stream rows and batches fit the run's tile.
  const PartitionPlan& plan;
  const simarch::Topology& topo;
  /// The run's per-CPE LDM budget (allocate_ldm for config.tile_samples):
  /// the tile, the kernel and the safe-radius block; plan.ldm holds its
  /// sample and combine batches.
  const LdmBudget& ldm;
  std::size_t xover;         ///< hierarchical-collective crossover bytes
  util::Matrix& centroids;   ///< the one shared centroid snapshot
  std::vector<std::uint32_t>& assignments;  ///< KmeansResult::assignments
};

/// Whether gated iterations run the safe-radius pass: Level 1 only. Level
/// 2's group bounds and Level 3's single bound gate without it, so their
/// iteration-0 check always passes and the savings ledger alone decides
/// (DESIGN.md §7).
bool runs_radius_pass(const PartitionPlan& plan);

/// One rank's engine state. The loop fills the per-iteration fields
/// before calling the policy; the policy charges `tally` and adds to the
/// distance ledgers.
struct EngineRank {
  EngineRank(const EngineRun& run, swmpi::Comm& world);
  EngineRank(const EngineRank&) = delete;  // the SDC flip hook holds `this`
  EngineRank& operator=(const EngineRank&) = delete;

  /// Flight-recorder tile edge (no-op when the recorder is off).
  void record_tile(telemetry::FlightEventKind kind, std::size_t t0,
                   std::size_t t1) const;

  /// One safe-radius pass's modeled charge (DESIGN.md §7), added to `t`:
  /// the price a gated iteration pays and the one the iteration-0 bounds
  /// check weighs against the sweep.
  void charge_radius_pass(simarch::CostTally& t) const;

  /// The gate's bound traffic on the sample stream: each of `samples`
  /// gated samples reads and writes its split.groups lower bounds,
  /// 2 x G x 8 B. Zero when this iteration does not gate.
  std::uint64_t bound_bytes(std::uint64_t samples) const;

  /// Safe-radius charge (gated iterations) followed by the modeled SDC
  /// overhead (defense armed): ABFT checksum chains for `unresolved`
  /// swept rows at 1/8 of `sweep_row_s` and one streaming pass for the
  /// snapshot + accumulator scrubs (the verdicts ride the update
  /// allgather). Each policy calls it once, after its level's charge
  /// function (floating-point sums are order-sensitive).
  void charge_gate_and_sdc(std::uint64_t unresolved, double sweep_row_s);

  const EngineRun& run;
  swmpi::Comm& world;
  const std::size_t cg;

  // Telemetry handles, resolved once per rank (null when off).
  telemetry::Telemetry* const tel;
  telemetry::MetricsShard* const tshard;
  telemetry::FlightRing* const flight;
  telemetry::Histogram* const survivor_hist;
  telemetry::Histogram* const overlap_hist;
  const bool spans_on;

  // Bound-gated assign state (DESIGN.md §7): per sample of this rank's
  // contiguous range [bound_base, ...), an upper bound and one lower bound
  // per centroid group (plan.bound_groups); the published per-centroid
  // drift and each group's drift digest; the safe radii and the radius
  // pass's per-CPE work (Level 1 only). `bounds` is decided after
  // iteration 0, re-decided after each gated iteration by the savings
  // ledger in run_engine, and never turns back on.
  const GroupSplit split;
  const bool radius_pass;
  const std::size_t bound_base;
  std::vector<double> upper;
  std::vector<double> lower;
  std::vector<double> drift;
  std::vector<DriftDigest> digests;
  std::vector<double> safe;
  const SafeRadiusWork radius_work;
  bool bounds = true;

  // Kernel state: ABFT hooks (null unless the SDC defense is armed) and
  // the per-iteration ||c||^2 cache of the GEMM sweep.
  GemmSdcHooks gemm_sdc;
  GemmSdcHooks* gemm_hooks = nullptr;
  CentroidNormCache norm_cache;

  UpdateAccumulator acc;

  // The current iteration.
  std::uint64_t global_iter = 0;
  bool gating = false;  ///< bounds on and past iteration 0
  std::span<const double> norms;
  simarch::CostTally tally;
  std::uint64_t abft_recomputed_before = 0;

  // Distance ledgers, folded machine-wide after the last iteration.
  std::uint64_t distance_comps = 0;
  std::uint64_t lloyd_equivalent = 0;
};

/// What one rank's assign sweep covered, for the gate counters.
struct AssignSweep {
  std::uint64_t samples = 0;     ///< samples this rank gated or swept
  std::uint64_t unresolved = 0;  ///< of those, the ones swept
};

/// A level's assign phase.
class LevelPolicy {
 public:
  LevelPolicy() = default;
  LevelPolicy(const LevelPolicy&) = delete;
  LevelPolicy& operator=(const LevelPolicy&) = delete;
  virtual ~LevelPolicy() = default;
  /// Gate, score and merge this rank's samples: winners go to
  /// run.assignments, fused sums to rank.acc, in ascending sample order.
  virtual AssignSweep sweep(EngineRank& rank) = 0;
  /// Charge the swept iteration's assign phase to rank.tally: fill the
  /// AssignWork record from the executed counts and price it through the
  /// level's charge function (perf_model.hpp), then keep the distance
  /// ledgers and call rank.charge_gate_and_sdc once.
  virtual void charge(EngineRank& rank) = 0;
};

/// Builds a rank's policy inside the SPMD region (collective: every rank
/// calls it once, before the first iteration).
using PolicyFactory = std::function<std::unique_ptr<LevelPolicy>(EngineRank&)>;

/// The engine loop. `name` labels warnings ("level1"); `initial_centroids`
/// must be k x dataset.d() and finite, and so must every sample
/// (InvalidArgument otherwise).
KmeansResult run_engine(Level level, const char* name,
                        const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids,
                        const PolicyFactory& make_policy);

/// Levels 1 and 2: sweep contiguous sample blocks against the k centroids
/// through a double-buffered tile pair. Tile t+1 is gated and scored into
/// the spare slot (modelling its DMA landing under tile t's sweep) before
/// tile t's merge retires; retire order stays ascending, so the
/// accumulator's summation order — and the centroid bits — cannot move.
/// Each centroid group (EngineRank::split) is scored on its own column
/// range, for the samples whose group bound failed, and the group records
/// merge in ascending group order (merge_group_records).
class TileSweep {
 public:
  explicit TileSweep(const EngineRank& rank);

  struct Block {
    std::uint64_t unresolved = 0;  ///< samples swept (the rest were gated)
    std::uint64_t tightened = 0;   ///< one-row gate tightenings
    /// Sample-stream descriptors of the block's busiest reader.
    std::uint64_t descriptors = 0;
    /// The group's register-bus rounds: per tile, one per combine batch
    /// of its survivors, or of its tightened samples when there are more
    /// (their distances ride the same rounds).
    std::uint64_t launches = 0;
    /// Centroid rows scored: each survivor times its scanned groups' sizes.
    std::uint64_t scanned_rows = 0;
    /// Per member CPE (m_group entries): the scanned rows in its centroid
    /// slice, and the tighten rows on the centroids it owns.
    std::vector<std::uint64_t> member_rows;
    std::vector<std::uint64_t> member_tightened;
  };
  /// Gate, score and merge samples [begin, end). The block's readers are
  /// the plan's m_group CPEs (one at Level 1), each owning k_local
  /// consecutive centroids: a swept sample streams to every reader, a
  /// gated one only to its assigned centroid's owner.
  Block sweep(EngineRank& rank, std::size_t begin, std::size_t end);

 private:
  struct Slot {
    std::size_t t0 = 0;
    std::size_t t1 = 0;
    bool valid = false;
    std::vector<std::uint32_t> ids;  ///< survivors (gated tiles)
    /// Per survivor, with more than one group: its group mask and its
    /// assigned centroid's exact squared distance.
    std::vector<std::uint8_t> scan;
    std::vector<double> assigned_sq;
    /// Group-major records: group g's record of the p-th scored sample at
    /// scores[g * stride + p].
    std::vector<TileScore2> scores;
    std::size_t stride = 0;
  };
  void stage(EngineRank& rank, Slot& s, std::size_t t0, std::size_t t1,
             Block& block);
  void retire(EngineRank& rank, Slot& s, Block& block);

  Slot slots_[2];
  StreamRuns runs_;
  std::vector<std::uint64_t> group_scans_;   ///< survivors per group, block
  std::vector<std::uint64_t> tightened_at_;  ///< tighten rows per centroid
};

}  // namespace swhkm::core::detail
