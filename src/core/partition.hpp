#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/kmeans.hpp"
#include "simarch/machine_config.hpp"

namespace swhkm::core {

/// The paper's feasibility constraints, in LDM *elements* (Section III).
/// These are the published algebra; the engines enforce the slightly
/// stricter engineering layout in LdmLayout below (which accounts for the
/// DMA double-buffering a real SW26010 kernel needs).
namespace paper {

/// C1: one sample + k centroids + k accumulators + k counters on one CPE.
bool c1(const ProblemShape& shape, std::size_t ldm_elems);
/// C2: 3d + 1 <= LDM — one sample must fit with working buffers.
bool c2(const ProblemShape& shape, std::size_t ldm_elems);
/// C3: 3k + 1 <= LDM — the centroid bookkeeping must fit.
bool c3(const ProblemShape& shape, std::size_t ldm_elems);
/// C1': Level 2 — aggregate over an m_group-CPE group.
bool c1_l2(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t m_group);
/// C3': 3k + 1 <= m_group * LDM, m_group <= 64.
bool c3_l2(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t m_group, std::size_t cpes_per_cg);
/// C1'': d(1+2k)+k <= m * LDM — the paper's headline breakthrough bound.
bool c1_l3(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t total_cpes);
/// C2'': 3d + 1 <= 64 * LDM.
bool c2_l3(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t cpes_per_cg);
/// C3'': 3k + 1 <= m'_group * 64 * LDM.
bool c3_l3(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t mprime_group, std::size_t cpes_per_cg);

}  // namespace paper

/// How one CPE's scratchpad is laid out under a plan — what the engines
/// actually allocate through LdmAllocator. `resident` means the full
/// centroid slice plus accumulators live in LDM; otherwise centroids are
/// streamed from main memory in tiles of `tile_rows`, triple-buffered
/// (tile in use, prefetch, accumulator writeback).
///
/// Samples stream in batches: one DMA descriptor moves a run of up to
/// `sample_batch` consecutive samples into one half of a double buffer
/// while the CPE scores the other half. The buffers live in the LDM the
/// rest of the layout leaves free (sample_batch()), so they never change a
/// plan's feasibility; a batch of one is the layout's own sample buffer.
/// A batch is also the unit of the register-mesh combine at Levels 2 and
/// 3: the CPE keeps each batched sample's combine scratch (combine_elems)
/// until one launch reduces the whole batch (`combine_batch`).
struct LdmLayout {
  bool resident = false;
  std::size_t tile_rows = 0;      ///< centroid rows per streamed tile
  std::size_t sample_elems = 0;   ///< sample buffer (d, or d_local for L3)
  std::size_t slice_elems = 0;    ///< resident centroid slice, 0 if streamed
  std::size_t scratch_elems = 0;  ///< counters / distance partials
  std::size_t total_elems = 0;    ///< peak LDM demand in elements
  /// Samples per sample-stream DMA descriptor at the default tile size
  /// (KmeansConfig{}.tile_samples) — what the performance model charges.
  std::size_t sample_batch = 1;
  /// Samples per register-mesh combine launch at the default tile size:
  /// sample_batch when the batch's combine scratch is budgeted, 1 when the
  /// plan combines sample by sample (combine_batch()).
  std::size_t combine_batch = 1;
};

/// Level 2's lower bounds per sample: one per contiguous centroid group.
inline constexpr std::size_t kLevel2BoundGroups = 8;

/// Level 3's lower bounds per sample. A Level 3 survivor scores every
/// group (no one-byte survivor mask caps the count, as at Level 2), and
/// each group costs 24 B per swept sample on the latency-bound group
/// combine and 16 B per gated sample on the bound stream. DESIGN.md §7.
inline constexpr std::size_t kLevel3BoundGroups = 16;

/// A fully resolved partition: which level, how centroids and dimensions
/// are split, and what each simulated CPE must hold.
struct PartitionPlan {
  Level level = Level::kLevel1;
  ProblemShape shape;

  std::size_t num_cgs = 0;      ///< CGs participating
  std::size_t cpes_per_cg = 0;

  /// Level 2: CPEs jointly holding the k centroids (1 for other levels).
  std::size_t m_group = 1;
  /// Level 3: CGs jointly holding the k centroids (1 for other levels).
  std::size_t mprime_group = 1;

  /// Parallel dataflow units the samples are block-partitioned across:
  /// CPEs (L1), CPE groups (L2), CG groups (L3).
  std::size_t num_flow_units = 0;
  /// Centroids per holder: k (L1), ceil(k/m_group) per CPE (L2),
  /// ceil(k/m'_group) per CG (L3).
  std::size_t k_local = 0;
  /// Dimensions per CPE: d for L1/L2, ceil(d/cpes_per_cg) for L3.
  std::size_t d_local = 0;
  /// Centroid groups the bound gate keeps a lower bound for, per sample:
  /// min(kLevel2BoundGroups, k) contiguous groups at Level 2,
  /// min(kLevel3BoundGroups, k) at Level 3, one (the Hamerly bound) at
  /// Level 1. DESIGN.md §7.
  std::size_t bound_groups = 1;

  LdmLayout ldm;

  std::string describe() const;
};

struct Feasibility {
  bool ok = false;
  std::string reason;  ///< which constraint failed, with numbers
};

/// Check whether `level` can run `shape` on `machine` with the given group
/// sizes (0 = choose the smallest workable value automatically).
Feasibility check_level(Level level, const ProblemShape& shape,
                        const simarch::MachineConfig& machine,
                        std::size_t m_group = 0, std::size_t mprime_group = 0);

/// Resolve a plan; throws InfeasibleError (with the failing constraint)
/// when the combination cannot run.
PartitionPlan make_plan(Level level, const ProblemShape& shape,
                        const simarch::MachineConfig& machine,
                        std::size_t m_group = 0, std::size_t mprime_group = 0);

/// The centroid rows CG `cg` holds through the update phase: all of
/// [0, k) at Levels 1 and 2, and at Level 3 the slice
/// [w k_local, (w + 1) k_local) clamped to k, with w = cg mod m'_group —
/// empty when w k_local >= k (k < m'_group). The CG's update accumulator
/// and its norm refresh cover exactly these rows.
std::pair<std::size_t, std::size_t> held_centroid_rows(
    const PartitionPlan& plan, std::size_t cg);

/// Group sizes worth considering on this machine: divisors of cpes_per_cg
/// for m_group, divisors of num_cgs for m'_group.
std::vector<std::size_t> candidate_m_groups(
    const simarch::MachineConfig& machine);
std::vector<std::size_t> candidate_mprime_groups(
    const simarch::MachineConfig& machine);

/// Per-sample LDM scratch of the GEMM-formulated sweep, on top of the
/// argmin records: the tau-bounded candidate buffer (kGemmCandidates x 4-byte
/// ids), the cached ||x||^2 and the running top-two uppers (3 doubles), and
/// the candidate count.
inline constexpr std::size_t kGemmSampleScratchBytes = 60;

/// Validate a requested assign-phase tile size against the machine: a
/// tile's argmin records (24 bytes each — the top-two MinLoc2 width, the
/// larger of the two record kinds the engines batch) must fit the CG's
/// aggregate scratchpad, where they time-share with the plan's per-CPE
/// stream buffers. The GEMM sweep adds its per-sample scratch plus the
/// plan's local slice of the centroid-norm cache (k_local doubles).
/// Throws InfeasibleError (the planner's rejection path — callers get a
/// diagnosable error, not an assert) for zero or oversized requests;
/// returns the validated value otherwise.
std::size_t resolve_tile_samples(std::size_t requested,
                                 const PartitionPlan& plan,
                                 const simarch::MachineConfig& machine,
                                 bool gemm = true);

/// LDM elements one batched sample keeps for the register-mesh combine:
/// its k_local distance partials at Level 3, one 24-byte argmin record at
/// Level 2, none where no mesh combine runs (Level 1, a Level 2 group of
/// one CPE, a one-CPE core group). A batch of one combines from the
/// layout's own scratch and registers. A streamed layout never batches:
/// its centroid tiles leave less than three samples of LDM free.
std::size_t combine_elems(const PartitionPlan& plan,
                          const simarch::MachineConfig& machine);

/// Samples per sample-stream DMA descriptor. The LDM the plan's layout
/// leaves free, once the CPE's share of what resolve_tile_samples budgets
/// for the tile (argmin records, GEMM scratch) is taken out, holds one of
/// two batches:
///  - batched combine: the largest B whose double buffer and combine
///    scratch (B x (2 x sample_elems + combine_elems)) fit, one mesh
///    combine launch per batch;
///  - per-sample combine: the largest B whose double buffer alone fits,
///    one launch per sample.
/// The plan takes the batched one only when it prices a flow unit's
/// full sweep (its descriptors plus its combine launches' hop latency)
/// strictly cheaper, so the batch never makes a plan dearer. B is at
/// least 1 (a batch of one is the layout's own sample buffer). make_plan
/// stores the default tile's values in LdmLayout::sample_batch and
/// combine_batch, which the performance model charges; the engines call
/// these with their resolved tile and keep the smaller values.
std::size_t sample_batch(const PartitionPlan& plan,
                         const simarch::MachineConfig& machine,
                         std::size_t tile_samples, bool gemm);
/// Samples per register-mesh combine launch under the same choice:
/// sample_batch() when the batched combine wins, 1 otherwise.
std::size_t combine_batch(const PartitionPlan& plan,
                          const simarch::MachineConfig& machine,
                          std::size_t tile_samples, bool gemm);

/// Whether the GEMM sweep's candidate/norm scratch fits in LDM alongside
/// the tile's records. The GEMM kernel is an optimisation with
/// byte-identical output, so the engines consult this and fall back to the
/// multi-chain kernel — instead of rejecting a configuration that is
/// feasible without the scratch — when it returns false.
bool gemm_scratch_fits(std::size_t tile_samples, const PartitionPlan& plan,
                       const simarch::MachineConfig& machine);

/// Largest k (resp. d) the level can handle on `machine` with the other
/// two shape parameters fixed — powers Table I and the capability bench.
std::uint64_t max_k_for_level(Level level, std::uint64_t d,
                              const simarch::MachineConfig& machine);
std::uint64_t max_d_for_level(Level level, std::uint64_t k,
                              const simarch::MachineConfig& machine);

}  // namespace swhkm::core
