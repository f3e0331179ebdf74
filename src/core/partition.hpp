#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/kmeans.hpp"
#include "simarch/ldm.hpp"
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
/// while the CPE scores the other half. A batch is also the unit of the
/// register-mesh combine at Levels 2 and 3: the CPE keeps each batched
/// sample's combine scratch (combine_elems) until one launch reduces the
/// whole batch (`combine_batch`). allocate_ldm sizes the stream rows and
/// both batches from the LDM the fixed buffers and the tile leave, so they
/// never change a plan's feasibility.
struct LdmLayout {
  bool resident = false;
  std::size_t tile_rows = 0;      ///< centroid rows per streamed tile
  std::size_t sample_elems = 0;   ///< sample buffer (d, or d_local for L3)
  std::size_t slice_elems = 0;    ///< resident slice, or the stream buffers
  std::size_t scratch_elems = 0;  ///< counters / distance partials
  /// Samples per sample-stream DMA descriptor at the default tile size
  /// (KmeansConfig{}.tile_samples) — what the performance model charges.
  std::size_t sample_batch = 1;
  /// Samples per register-mesh combine launch at the default tile size:
  /// sample_batch when the batch's combine scratch is budgeted, 1 when the
  /// plan combines sample by sample.
  std::size_t combine_batch = 1;
  /// Peak bytes live at once in the budget that sized it (allocate_ldm).
  std::size_t high_water_bytes = 0;
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

/// LDM elements one batched sample keeps for the register-mesh combine:
/// its k_local distance partials at Level 3, one 24-byte argmin record at
/// Level 2, none where no mesh combine runs (Level 1, a Level 2 group of
/// one CPE, a one-CPE core group). A batch of one combines from the
/// layout's own scratch and registers.
std::size_t combine_elems(const PartitionPlan& plan,
                          const simarch::MachineConfig& machine);

/// One CPE's scratchpad under a plan and an assign tile, as allocate_ldm
/// resolved it.
struct LdmBudget {
  LdmLayout layout;  ///< the plan's, with rows and batches fit to the tile
  bool gemm = true;  ///< GEMM kernel; false: the chain kernel
  std::size_t tile_samples = 0;  ///< the request, or the widest that fits
  std::size_t radius_block_rows = 0;  ///< Level 1's own rows per radius block
  simarch::LdmFootprint footprint;    ///< named buffers, high-water, capacity
};

/// Allocates one CPE's buffers by name through simarch::LdmAllocator —
/// the one check of the scratchpad — and resolves the kernel, the tile,
/// the stream rows and the batches from what each step leaves:
///  1. the fixed buffers: the sample buffer, then the resident slice with
///     its accumulators, or one centroid-stream row, then the scratch;
///  2. the CPE's share of the tile scratch (over cpes_per_cg): one 24-byte
///     argmin record per tile sample, and on the GEMM kernel
///     kGemmSampleScratchBytes per sample plus k_local norms. A tile that
///     does not fit with the GEMM scratch takes the chain kernel; one that
///     still does not fit shrinks to the largest that does;
///  3. a streamed layout's other centroid-stream rows;
///  4. the sample batch's double buffer and the batch's combine scratch
///     (B x (2 sample_elems + combine_elems)), kept only where it prices a
///     flow unit's full sweep (its descriptors plus its combine launches'
///     hop latency) strictly cheaper than the per-sample combine with the
///     widest scratch-free B. A batch of one is the layout's own buffer.
/// At Level 1 the safe-radius pass is a second phase of the same LDM: its
/// own rows take half, one streamed partner row the other half.
///
/// No step grows past what `plan.ldm` already holds (its stream rows,
/// sample batch and combine batch), so a run never batches wider than the
/// plan the model charges. make_plan sizes its plan with the default tile.
/// A layout that leaves no room for one sample's record resolves a tile of
/// 0, which no engine runs (the planner's feasibility is the layout's
/// alone). Throws InfeasibleError when the requested tile is 0, and
/// CapacityError when the fixed buffers overflow (a plan made for a larger
/// LDM).
LdmBudget allocate_ldm(const PartitionPlan& plan,
                       const simarch::MachineConfig& machine,
                       std::size_t tile_samples);

/// Largest k (resp. d) the level can handle on `machine` with the other
/// two shape parameters fixed — powers Table I and the capability bench.
std::uint64_t max_k_for_level(Level level, std::uint64_t d,
                              const simarch::MachineConfig& machine);
std::uint64_t max_d_for_level(Level level, std::uint64_t k,
                              const simarch::MachineConfig& machine);

}  // namespace swhkm::core
