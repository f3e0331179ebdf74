#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/kmeans.hpp"
#include "core/recovery.hpp"
#include "simarch/trace.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"

namespace swhkm::telemetry {

/// One run's machine-readable record: what was asked for (config + shape +
/// topology), what happened (iteration history, convergence, faults) and
/// what the wall-clock instrumentation saw (merged metrics snapshot). One
/// JSON file per run, next to trace.json — together they are the full
/// observability artifact set.
struct RunReport {
  std::string run_id;  ///< caller-chosen label ("smoke-level3", ...)

  // Workload + configuration.
  core::ProblemShape shape;
  core::Level level = core::Level::kLevel3;
  core::KmeansConfig config;       ///< pointers inside are not serialized
  std::string machine_summary;     ///< simarch::MachineConfig::summary()
  std::string plan_summary;        ///< core::PartitionPlan::describe()
  /// The kernel the engine resolved (KmeansResult::assign_kernel),
  /// written into the "config" section next to the requested fields.
  std::string assign_kernel;
  /// The assign tile, the samples per sample-stream descriptor and per
  /// register-mesh combine launch the engine resolved
  /// (KmeansResult::tile_samples, sample_batch and combine_batch), and one
  /// CPE's LDM footprint (KmeansResult::ldm), written into the "config"
  /// section too; "tile_samples" there is the resolved tile.
  std::size_t tile_samples = 0;
  std::size_t sample_batch = 0;
  std::size_t combine_batch = 0;
  simarch::LdmFootprint ldm;
  /// Lower bounds per sample the gate kept (KmeansResult::bound_groups),
  /// written into the "config" section too.
  std::size_t bound_groups = 0;
  /// Whether gated iterations ran the safe-radius pass
  /// (KmeansResult::radius_pass), written into the "config" section too.
  bool radius_pass = false;

  // Outcome.
  std::size_t iterations = 0;
  std::size_t gated_iterations = 0;  ///< KmeansResult::gated_iterations
  bool converged = false;
  std::size_t empty_clusters = 0;
  double inertia = 0;
  std::vector<core::IterationStats> history;

  // Fault / recovery story (empty for clean runs).
  std::vector<simarch::FaultMarker> faults;
  bool has_recovery = false;
  core::RecoveryReport recovery;

  // Cross-rank critical-path attribution (analyze_critical_path over the
  // run's Trace): per-iteration gating rank + phase split and the
  // straggler blame table. Serialized as the "critical_path" section.
  bool has_critical_path = false;
  CriticalPathReport critical_path;

  // Fault forensics: every rank's last flight-recorder events at each
  // caught fault (RecoveryDriver::postmortems). Serialized as the
  // "flight_recorder" section — always present when has_recovery, so a
  // faults report is self-describing even when no postmortem was captured.
  std::vector<FaultPostmortem> postmortems;

  // Merged wall-clock metrics.
  MetricsSnapshot metrics;

  /// Convenience: fill the outcome block from a finished run.
  void set_result(const core::KmeansResult& result);

  /// Pretty-printed JSON (stable key order; doubles round-trip).
  void write_json(std::ostream& out) const;
};

/// Cross-check the report against itself: the per-iteration simulated
/// traffic in `history` must sum to the engine-recorded "sim.net_bytes" /
/// "sim.dma_bytes" counters in the metrics snapshot — one number computed
/// two independent ways (per-iteration stats on rank 0 vs the registry).
/// Vacuously true when the snapshot has no such counters (telemetry off).
bool reconciles(const RunReport& report);

}  // namespace swhkm::telemetry
