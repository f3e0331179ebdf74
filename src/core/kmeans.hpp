#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/accel_stats.hpp"
#include "data/dataset.hpp"
#include "simarch/cost.hpp"
#include "simarch/ldm.hpp"
#include "simarch/machine_config.hpp"
#include "util/matrix.hpp"

namespace swhkm::simarch {
class Trace;
}

namespace swhkm::swmpi {
class FaultPlan;
}

namespace swhkm::telemetry {
class Telemetry;
}

namespace swhkm::core {

/// The three partition strategies of the paper (Section III).
enum class Level : int {
  kLevel1 = 1,  ///< n-partition: every CPE holds all k centroids
  kLevel2 = 2,  ///< nk-partition: centroids split over a CPE group
  kLevel3 = 3,  ///< nkd-partition: dims over a CG, centroids over CG groups
};

const char* level_name(Level level);

/// Problem shape (n samples, k centroids, d dimensions) — what the
/// feasibility constraints and the performance model consume. Engines
/// derive it from the Dataset; benches build it directly for paper-scale
/// virtual workloads.
struct ProblemShape {
  std::uint64_t n = 0;
  std::uint64_t k = 0;
  std::uint64_t d = 0;
};

enum class InitMethod {
  kFirstK,     ///< first k samples — the deterministic test default
  kRandom,     ///< k distinct samples drawn with the seeded PRNG
  kPlusPlus,   ///< k-means++ seeding (Arthur & Vassilvitskii)
};

struct KmeansConfig {
  std::size_t k = 2;
  std::size_t max_iterations = 50;
  /// Convergence: stop when no centroid moved more than `tolerance`
  /// (Euclidean). 0 reproduces the paper's "until fixed".
  double tolerance = 1e-6;
  InitMethod init = InitMethod::kFirstK;
  std::uint64_t seed = 1;
  /// Samples per assign-phase tile in the engines (the unit one batched
  /// collective resolves): an upper bound. Any value is bit-identical; it
  /// trades LDM footprint against synchronisation amortisation. Each engine
  /// run fits it to one CPE's LDM budget (allocate_ldm): a tile that does
  /// not fit drops the GEMM scratch, then shrinks to the widest that fits,
  /// with a warning; 0 throws. Serial baselines ignore it.
  std::size_t tile_samples = 256;
  /// Which modeled charge the collectives pay: on, the topology model's
  /// hierarchical costs (intra-supernode fold into per-supernode leaders,
  /// size-adaptive inter-supernode stage, crossover derived from
  /// MachineConfig::collective_crossover_bytes) and the crossing-byte
  /// ledger; off, the flat costs. swmpi runs one two-level code path
  /// either way (off selects its one-rank-per-group layout), so results
  /// are bit-identical and only the modeled seconds move (DESIGN.md §12).
  bool hier_collectives = true;
  /// Layered silent-data-corruption defense in the engines: CRC scrubbing
  /// of the published centroid snapshot and the update accumulators
  /// against deterministic reference captures, ABFT checksum columns on
  /// the GEMM assign panels (mismatch triggers an exact bit-identical
  /// panel recompute — detector + corrector, never a result change), and
  /// counts-conservation (Σcounts == n) after the sharded update. Detected
  /// uncorrectable corruption raises SilentCorruptionError, which the
  /// RecoveryDriver answers with a localized (iteration-scope) retry
  /// before any checkpoint rollback. Corruption-free runs stay
  /// byte-identical with the defense on or off; the extra scrub collectives
  /// and trailer bytes are charged to the cost model only when enabled, so
  /// pinned model numbers do not move for defense-off runs. Off by default.
  bool sdc_checks = false;
  /// Optional timeline sink: engines record each rank's per-iteration
  /// phase intervals (simulated time) into it. Not owned; may be null.
  simarch::Trace* trace = nullptr;
  /// Deterministic fault-injection schedule threaded into the engines'
  /// communicator tree (not owned; null = no injection). Crash events are
  /// matched against `iteration_base + iter`, so schedules keep firing at
  /// the right global iteration across RecoveryDriver legs.
  swmpi::FaultPlan* fault_plan = nullptr;
  /// Global index of this run's first iteration. The RecoveryDriver runs
  /// engines in short legs; the base keeps fault matching and trace
  /// iteration numbering contiguous across legs. 0 for standalone runs.
  std::size_t iteration_base = 0;
  /// RecoveryDriver checkpoint cadence: a checkpoint lands every this many
  /// iterations (each leg boundary). 0 means no mid-run checkpoint: the
  /// whole run is one leg, and a fault re-seeds from scratch. Ignored by
  /// the engines themselves.
  std::size_t checkpoint_every = 8;
  /// Wall-clock observability session (not owned; null = every record call
  /// is a no-op). Instrumentation is always compiled in; this pointer is
  /// the gate. Results are bit-identical with telemetry on or off — the
  /// session only *observes* (tested in test_telemetry.cpp).
  telemetry::Telemetry* telemetry = nullptr;
};

/// Per-iteration trajectory record (optional diagnostics).
struct IterationStats {
  double max_centroid_shift = 0;  ///< largest Euclidean centroid movement
  double simulated_s = 0;         ///< modelled machine time this iteration
  /// Fraction of samples the bound gate resolved without a sweep (0 for
  /// the serial baselines and for every first iteration).
  double prune_rate = 0;
  /// Machine-wide collective / DMA volumes this iteration — the engines'
  /// compacted charges, so tests can pin that pruning shrinks the modelled
  /// traffic, not just the wall clock.
  std::uint64_t net_bytes = 0;
  std::uint64_t dma_bytes = 0;
  /// Machine-wide modelled assign+update flops this iteration — together
  /// with simulated_s this is the modelled FLOP rate the GEMM bench cell
  /// tracks.
  std::uint64_t flops = 0;
  /// Critical-path network collective rounds this iteration (the busiest
  /// rank's count — see CostTally::net_rounds).
  std::uint64_t net_rounds = 0;
  /// Fault bookkeeping, stamped by the RecoveryDriver onto the first
  /// iteration of a leg that followed a failure: how many attempts the
  /// driver burned before this iteration ran, and the wall-clock seconds
  /// the failed attempts + checkpoint reload cost. Zero everywhere else.
  std::uint32_t retries = 0;
  double recover_s = 0;
  /// Of net_bytes, the modelled bytes that crossed a supernode boundary
  /// this iteration (CostTally::net_crossing_bytes). Appended after the
  /// older fields so existing brace-initialisers keep their meaning.
  std::uint64_t net_crossing_bytes = 0;
  /// SDC story (KmeansConfig::sdc_checks): localized iteration-scope
  /// retries the RecoveryDriver burned before this iteration ran (stamped
  /// like `retries`, zero elsewhere), and machine-wide GEMM panels the
  /// ABFT checksum caught and bit-identically recomputed this iteration.
  std::uint32_t sdc_retries = 0;
  std::uint64_t sdc_recomputed = 0;
  /// Per-phase split of simulated_s — the combined (slowest-rank-per-
  /// phase) critical-path seconds, in CostTally field order. Their sum is
  /// simulated_s exactly; report.json surfaces them per history row and
  /// the critical-path analyzer cross-checks them against the Trace.
  /// Appended after the older fields so existing brace-initialisers keep
  /// their meaning.
  double sample_read_s = 0;
  double centroid_stream_s = 0;
  double compute_s = 0;
  double mesh_comm_s = 0;
  double net_comm_s = 0;
  double update_s = 0;
  /// Whether this iteration ran the bound gate (the engines' gated
  /// assign: Level 1's Hamerly bounds, Levels 2/3's group bounds;
  /// DESIGN.md §7). False for every first iteration, for every
  /// iteration after the engine turned the bounds off, and for the serial
  /// baselines.
  bool gated = false;
};

struct KmeansResult {
  util::Matrix centroids;                   ///< k x d
  std::vector<std::uint32_t> assignments;   ///< per-sample nearest centroid
  std::size_t iterations = 0;
  bool converged = false;
  /// Clusters that received no members in the final executed iteration
  /// (their centroids are frozen in place rather than moved). Nonzero
  /// values are worth a look: the run may be stalled on dead centroids.
  std::size_t empty_clusters = 0;
  double inertia = 0;  ///< mean squared distance to assigned centroid, O(C)
  /// Simulated machine time accumulated by the engine across all
  /// iterations (zero for the serial baseline).
  simarch::CostTally cost;
  /// Simulated time of the last full iteration — the paper's metric.
  simarch::CostTally last_iteration_cost;
  /// One entry per executed iteration (shift trajectory; simulated time is
  /// zero for the serial baseline).
  std::vector<IterationStats> history;
  /// Distance-evaluation ledger of the bound-gated assign phase (zero for
  /// the serial Lloyd baseline; savings() reads 0 for an engine run whose
  /// bounds stayed off).
  AccelStats accel;
  /// What the engine resolved (empty / zero for the serial baselines):
  /// the assign kernel that ran, "gemm" or "chain" (the chain kernel when
  /// the GEMM scratch does not fit the LDM), and how many iterations ran
  /// the bound gate — the engine keeps it on only while the gated
  /// iterations, summed, cost less than iteration 0's bounds-off price
  /// (DESIGN.md §7). The RecoveryDriver sums it over its legs.
  std::string assign_kernel;
  std::size_t gated_iterations = 0;
  /// The assign tile the engine ran (0 for the serial baselines).
  std::size_t tile_samples = 0;
  /// Samples per sample-stream DMA descriptor and per register-mesh
  /// combine launch the engine resolved (LdmLayout::sample_batch and
  /// combine_batch, shrunk for the run's tile; 0 for the serial
  /// baselines). A combine batch of 1 means the plan combines sample by
  /// sample, where batching would not pay (DESIGN.md §10).
  std::size_t sample_batch = 0;
  std::size_t combine_batch = 0;
  /// One CPE's LDM under the run's budget: capacity, high-water and every
  /// named buffer (empty for the serial baselines).
  simarch::LdmFootprint ldm;
  /// Lower bounds per sample the bound gate kept (PartitionPlan::
  /// bound_groups): 1 at Level 1, min(8, k) at Level 2, min(16, k) at
  /// Level 3.
  std::size_t bound_groups = 0;
  /// Whether the gated iterations ran the safe-radius pass: true only at
  /// Level 1 (Levels 2/3 gate on their lower bounds alone, DESIGN.md §7).
  bool radius_pass = false;
};

}  // namespace swhkm::core
