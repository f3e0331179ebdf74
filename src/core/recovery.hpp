#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/kmeans.hpp"
#include "core/partition.hpp"
#include "data/dataset.hpp"
#include "simarch/machine_config.hpp"
#include "telemetry/flight_recorder.hpp"

namespace swhkm::core {

/// Knobs of the fault-tolerant driver.
struct RecoveryOptions {
  /// Where the driver parks its iteration-boundary checkpoints (SWKC v2,
  /// written atomically). Required — recovery without a durable anchor is
  /// just a retry loop.
  std::string checkpoint_path;
  /// Failed attempts tolerated per topology before the driver degrades
  /// (or gives up): the first attempt plus `max_retries` retries.
  std::size_t max_retries = 2;
  /// Base wall-clock backoff between attempts; attempt i at a topology
  /// sleeps i * backoff_s. 0 retries immediately (the test default).
  double backoff_s = 0;
  /// When retries at the current topology are exhausted, re-plan the run
  /// on a smaller machine (halving nodes, then CGs per node) instead of
  /// giving up — the paper's machines lose nodes mid-job, the answer
  /// shouldn't die with them.
  bool allow_degradation = true;
  /// Floor for degradation: never shrink below this many core groups.
  std::size_t min_cgs = 1;
  /// Localized SDC recovery budget per leg: a leg that dies with a
  /// detected silent corruption (SilentCorruptionError /
  /// CorruptMessageError) is retried this many times *in memory* — from
  /// the driver's still-valid pre-leg centroids, no checkpoint reload, no
  /// charge against `max_retries` — before the fault falls through to the
  /// ordinary checkpoint-rollback path. Valid because the engines take
  /// their centroids by value (a corrupted attempt cannot poison the
  /// driver's copy) and every detector fires *before* corrupt bits can
  /// reach the published state.
  std::size_t max_sdc_retries = 2;
  /// When non-empty, the driver writes a telemetry::RunReport JSON here at
  /// the end of run() — config, outcome, the full fault/recovery story and
  /// the merged metrics snapshot (when config.telemetry is armed).
  std::string report_path;
};

/// One caught fault, in the order they happened.
struct FaultEvent {
  std::size_t iteration = 0;  ///< global iteration the failed leg started at
  std::string what;           ///< the fault's message
  double wall_s = 0;          ///< wall-clock seconds the failed attempt cost
  bool sdc = false;           ///< detected silent corruption (vs fail-stop)
};

/// What the driver did to finish the run.
struct RecoveryReport {
  std::size_t faults = 0;    ///< RuntimeFaults caught (injected or real)
  std::size_t retries = 0;   ///< re-attempts after a caught fault
  std::size_t replans = 0;   ///< degradations onto a smaller topology
  double recover_wall_s = 0; ///< wall seconds burned on failed attempts +
                             ///< checkpoint reloads
  std::size_t final_cgs = 0; ///< core groups of the topology that finished
  bool degraded = false;
  bool resumed_from_checkpoint = false;
  /// Silent corruptions the layered defense caught (transport CRC, scrub
  /// CRCs, counts conservation, inertia monotonicity) — the faults that
  /// would have been wrong answers without it.
  std::size_t sdc_detections = 0;
  /// Legs re-run in memory from the pre-leg centroids after a detected
  /// SDC — recovery that engaged *before* any checkpoint rollback.
  std::size_t localized_retries = 0;
  std::vector<FaultEvent> events;
};

/// Fault-tolerant wrapper around the three distributed engines: runs the
/// clustering in checkpoint-cadence legs (config.checkpoint_every
/// iterations each), writes an atomic SWKC v2 checkpoint at every leg
/// boundary, and when a leg dies with a RuntimeFault (injected crash,
/// watchdog timeout, or a real peer failure) reloads the last good
/// checkpoint and retries — degrading onto a smaller machine once retries
/// at the current topology are exhausted. checkpoint_every = 0 means no
/// mid-run checkpoint: the whole run is one leg (one bounds ledger), and a
/// fault in it re-seeds from scratch like any fault before the first
/// checkpoint.
///
/// Bit-identity: every Lloyd iteration is a deterministic function of the
/// centroid snapshot, and the Hamerly gate is exact, so restarting a leg
/// from the checkpointed centroids reproduces the uninterrupted
/// trajectory bit for bit (at the same final topology). The engines take
/// their initial centroids by value, so a failed attempt cannot poison
/// the driver's state; the checkpoint file on disk stays authoritative.
class RecoveryDriver {
 public:
  RecoveryDriver(simarch::MachineConfig machine, RecoveryOptions options);

  /// Run `level` to completion under the fault policy. Throws the last
  /// fault if retries and degradation are both exhausted. The result's
  /// history is the concatenation of the legs' histories, with
  /// IterationStats::retries / recover_s stamped on the first iteration
  /// of each leg that followed a failure.
  KmeansResult run(Level level, const data::Dataset& dataset,
                   const KmeansConfig& config);

  const RecoveryReport& report() const { return report_; }

  /// Fault postmortems, one per caught RuntimeFault (capped at the first
  /// kMaxPostmortems — a permafault retry loop must not grow without
  /// bound): every rank's last flight-recorder events, snapshotted the
  /// moment the driver caught the fault, before any retry overwrote the
  /// rings. Empty when the run's telemetry had no flight recorder armed.
  const std::vector<telemetry::FaultPostmortem>& postmortems() const {
    return postmortems_;
  }
  static constexpr std::size_t kMaxPostmortems = 8;

  /// The (possibly degraded) machine the driver currently targets.
  const simarch::MachineConfig& machine() const { return machine_; }

 private:
  simarch::MachineConfig machine_;
  RecoveryOptions options_;
  RecoveryReport report_;
  std::vector<telemetry::FaultPostmortem> postmortems_;
};

}  // namespace swhkm::core
