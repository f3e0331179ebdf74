#include "core/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/init.hpp"
#include "core/level1.hpp"
#include "core/level2.hpp"
#include "core/level3.hpp"
#include "core/planner.hpp"
#include "simarch/trace.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace swhkm::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One degradation step: halve the node count, then the CGs per node.
/// nullopt once the machine is a single core group — nothing left to shed.
std::optional<simarch::MachineConfig> shrink(
    const simarch::MachineConfig& machine) {
  simarch::MachineConfig out = machine;
  if (out.nodes > 1) {
    out.nodes = (out.nodes + 1) / 2;
    return out;
  }
  if (out.cgs_per_node > 1) {
    out.cgs_per_node = (out.cgs_per_node + 1) / 2;
    return out;
  }
  return std::nullopt;
}

KmeansResult run_leg(Level level, const data::Dataset& dataset,
                     const KmeansConfig& config,
                     const simarch::MachineConfig& machine,
                     const PartitionPlan& plan, util::Matrix centroids) {
  switch (level) {
    case Level::kLevel1:
      return run_level1(dataset, config, machine, plan, std::move(centroids));
    case Level::kLevel2:
      return run_level2(dataset, config, machine, plan, std::move(centroids));
    case Level::kLevel3:
      return run_level3(dataset, config, machine, plan, std::move(centroids));
  }
  throw InvalidArgument("unknown level");
}

}  // namespace

RecoveryDriver::RecoveryDriver(simarch::MachineConfig machine,
                               RecoveryOptions options)
    : machine_(std::move(machine)), options_(std::move(options)) {
  machine_.validate();
  SWHKM_REQUIRE(!options_.checkpoint_path.empty(),
                "RecoveryDriver needs a checkpoint path");
}

KmeansResult RecoveryDriver::run(Level level, const data::Dataset& dataset,
                                 const KmeansConfig& config) {
  report_ = RecoveryReport{};
  const ProblemShape shape{dataset.n(), config.k, dataset.d()};
  // checkpoint_every = 0: no mid-run checkpoint, the whole run is one leg.
  const std::size_t cadence = config.checkpoint_every > 0
                                  ? config.checkpoint_every
                                  : config.max_iterations;

  auto plan_on = [&](const simarch::MachineConfig& machine)
      -> std::optional<PartitionPlan> {
    const auto choice = best_plan_for_level(level, shape, machine);
    if (!choice) {
      return std::nullopt;
    }
    return choice->plan;
  };
  auto initial_plan = plan_on(machine_);
  if (!initial_plan) {
    throw InfeasibleError(std::string(level_name(level)) +
                          " cannot run this shape on " + machine_.summary());
  }
  PartitionPlan plan = *initial_plan;

  // Host-side recovery metrics land in the registry's host shard — the
  // driver is not an SPMD rank, but its retries and reload costs belong in
  // the same merged snapshot as the engines' counters.
  telemetry::MetricsShard* const host_shard =
      config.telemetry != nullptr ? &config.telemetry->metrics().host_shard()
                                  : nullptr;
  telemetry::FlightRing* const host_ring =
      host_shard != nullptr ? host_shard->flight() : nullptr;
  postmortems_.clear();

  util::Matrix centroids = init_centroids(dataset, config);
  std::size_t done = 0;
  bool converged = false;
  bool have_checkpoint = false;
  std::vector<IterationStats> history;
  simarch::CostTally total_cost;
  AccelStats accel;
  std::size_t gated_iterations = 0;
  KmeansResult leg;
  // Failure bookkeeping for the in-flight leg: attempts burned at the
  // current topology, and the retry count / recovery wall clock to stamp
  // onto the first IterationStats of the next successful leg.
  std::size_t failed_attempts = 0;
  std::uint32_t retries_pending = 0;
  double recover_pending_s = 0;
  // Localized-SDC bookkeeping: in-memory retries burned on the in-flight
  // leg (bounded by options_.max_sdc_retries), the count to stamp onto the
  // next good leg's first IterationStats, and the inertia floor the
  // monotonicity invariant checks each finished leg against (Lloyd never
  // increases the objective, so a rise can only be an undetected
  // corruption that slipped into the published state).
  std::size_t sdc_retries_this_leg = 0;
  std::uint32_t sdc_retries_pending = 0;
  double inertia_floor = std::numeric_limits<double>::infinity();

  while (!converged && done < config.max_iterations) {
    KmeansConfig leg_config = config;
    leg_config.max_iterations = std::min(cadence, config.max_iterations - done);
    leg_config.iteration_base = done;
    const auto attempt_start = std::chrono::steady_clock::now();
    try {
      leg = run_leg(level, dataset, leg_config, machine_, plan, centroids);
      if (config.sdc_checks &&
          leg.inertia > inertia_floor + std::abs(inertia_floor) * 1e-9) {
        throw SilentCorruptionError(
            "sdc: Lloyd inertia rose across a leg (" +
            std::to_string(inertia_floor) + " -> " +
            std::to_string(leg.inertia) +
            ") — the objective is monotone, so corrupt state reached the "
            "published centroids undetected");
      }
    } catch (const RuntimeFault& fault) {
      const double wall = seconds_since(attempt_start);
      const bool sdc_fault =
          dynamic_cast<const SilentCorruptionError*>(&fault) != nullptr ||
          dynamic_cast<const CorruptMessageError*>(&fault) != nullptr;
      report_.faults += 1;
      report_.recover_wall_s += wall;
      report_.events.push_back(
          FaultEvent{done, fault.what(), wall, sdc_fault});
      recover_pending_s += wall;
      if (config.trace != nullptr) {
        config.trace->record_fault(static_cast<std::uint32_t>(done),
                                   fault.what(), wall);
      }
      if (host_shard != nullptr) {
        host_shard->counter("recovery.faults").add(1);
        host_shard->histogram("recovery.attempt_wall_s").observe(wall);
      }
      if (host_ring != nullptr) {
        host_ring->record(telemetry::FlightEventKind::kFault,
                          static_cast<std::uint32_t>(done),
                          sdc_fault ? 1 : 0);
      }
      // Forensics: freeze every rank's flight ring *now* — the dead leg's
      // threads have joined (the fault propagated out of run_spmd), and a
      // retry would start overwriting the rings with healthy events.
      if (config.telemetry != nullptr &&
          config.telemetry->metrics().flight_armed() &&
          postmortems_.size() < kMaxPostmortems) {
        telemetry::FaultPostmortem pm;
        pm.iteration = static_cast<std::uint32_t>(done);
        pm.what = fault.what();
        pm.ranks = config.telemetry->metrics().flight_snapshots();
        postmortems_.push_back(std::move(pm));
      }
      if (sdc_fault) {
        report_.sdc_detections += 1;
        if (host_shard != nullptr) {
          host_shard->counter("recovery.sdc_detections").add(1);
        }
        if (sdc_retries_this_leg < options_.max_sdc_retries) {
          // Localized recovery: the detectors fire before corrupt bits can
          // reach the published state and the engines took the centroids
          // by value, so the driver's pre-leg copy is still valid — re-run
          // just this leg in memory, no checkpoint rollback, no charge
          // against the fail-stop retry budget.
          sdc_retries_this_leg += 1;
          sdc_retries_pending += 1;
          report_.localized_retries += 1;
          if (host_shard != nullptr) {
            host_shard->counter("recovery.localized_retries").add(1);
          }
          SWHKM_INFO_AT("recovery", -1, done)
              << "localized SDC retry " << sdc_retries_this_leg
              << ": re-running the leg from the in-memory centroids";
          continue;
        }
      }
      failed_attempts += 1;
      if (failed_attempts > options_.max_retries) {
        // Retries at this topology are exhausted — shed hardware and
        // re-plan, or concede. Shrinking keeps going until the level is
        // feasible again (a halved machine can briefly be infeasible for
        // the chosen group sizes) or the floor is hit.
        bool replanned = false;
        if (options_.allow_degradation) {
          simarch::MachineConfig candidate = machine_;
          while (auto smaller = shrink(candidate)) {
            candidate = *smaller;
            if (candidate.num_cgs() < options_.min_cgs) {
              break;
            }
            if (auto next_plan = plan_on(candidate)) {
              SWHKM_INFO_AT("recovery", -1, done)
                  << "degrading from " << machine_.num_cgs() << " to "
                  << candidate.num_cgs() << " core groups";
              machine_ = candidate;
              plan = *next_plan;
              report_.replans += 1;
              report_.degraded = true;
              failed_attempts = 0;
              replanned = true;
              break;
            }
          }
        }
        if (!replanned) {
          throw;
        }
      }
      report_.retries += 1;
      retries_pending += 1;
      // Resume from the last good checkpoint — the durable anchor is the
      // authoritative state, not whatever the dead attempt left in memory.
      const auto reload_start = std::chrono::steady_clock::now();
      if (have_checkpoint) {
        KmeansResult restored = load_checkpoint(options_.checkpoint_path);
        centroids = std::move(restored.centroids);
        done = restored.iterations;
        report_.resumed_from_checkpoint = true;
      } else {
        // Fault before the first checkpoint: re-seed from scratch.
        centroids = init_centroids(dataset, config);
        done = 0;
      }
      const double reload = seconds_since(reload_start);
      SWHKM_INFO_AT("recovery", -1, done)
          << "retry " << report_.retries << ": resuming from "
          << (have_checkpoint ? "checkpoint" : "fresh seeding");
      report_.recover_wall_s += reload;
      recover_pending_s += reload;
      if (host_shard != nullptr) {
        host_shard->counter("recovery.retries").add(1);
        host_shard->histogram("recovery.reload_s").observe(reload);
      }
      sdc_retries_this_leg = 0;  // the rollback opens a fresh SDC budget
      if (options_.backoff_s > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.backoff_s * static_cast<double>(failed_attempts + 1)));
      }
      continue;
    }

    // Leg finished: fold it into the run and drop a checkpoint at the
    // iteration boundary.
    done += leg.iterations;
    converged = leg.converged;
    centroids = leg.centroids;
    total_cost += leg.cost;
    accel.distance_computations += leg.accel.distance_computations;
    accel.lloyd_equivalent += leg.accel.lloyd_equivalent;
    accel.centroid_distance_computations +=
        leg.accel.centroid_distance_computations;
    gated_iterations += leg.gated_iterations;
    if (!leg.history.empty() && retries_pending > 0) {
      leg.history.front().retries = retries_pending;
      leg.history.front().recover_s = recover_pending_s;
    }
    if (!leg.history.empty() && sdc_retries_pending > 0) {
      leg.history.front().sdc_retries = sdc_retries_pending;
    }
    history.insert(history.end(), leg.history.begin(), leg.history.end());
    retries_pending = 0;
    recover_pending_s = 0;
    failed_attempts = 0;
    sdc_retries_pending = 0;
    sdc_retries_this_leg = 0;
    inertia_floor = leg.inertia;

    KmeansResult snapshot;
    snapshot.centroids = centroids;
    snapshot.assignments = leg.assignments;
    snapshot.iterations = done;
    snapshot.converged = converged;
    snapshot.inertia = leg.inertia;
    save_checkpoint(snapshot, options_.checkpoint_path);
    have_checkpoint = true;
    if (host_ring != nullptr) {
      host_ring->record(telemetry::FlightEventKind::kCheckpointLeg,
                        static_cast<std::uint32_t>(done), 0, leg.iterations);
    }
  }

  KmeansResult result = std::move(leg);
  result.centroids = std::move(centroids);
  result.iterations = done;
  result.converged = converged;
  result.cost = total_cost;
  result.history = std::move(history);
  result.accel = accel;
  result.gated_iterations = gated_iterations;
  report_.final_cgs = machine_.num_cgs();

  if (!options_.report_path.empty()) {
    telemetry::RunReport rep;
    rep.run_id = std::string("recovery-") + level_name(level);
    rep.shape = shape;
    rep.level = level;
    rep.config = config;
    rep.machine_summary = machine_.summary();
    rep.plan_summary = plan.describe();
    rep.set_result(result);
    for (const FaultEvent& e : report_.events) {
      rep.faults.push_back(simarch::FaultMarker{
          static_cast<std::uint32_t>(e.iteration), e.what, e.wall_s});
    }
    rep.has_recovery = true;
    rep.recovery = report_;
    rep.postmortems = postmortems_;
    if (config.trace != nullptr) {
      rep.has_critical_path = true;
      rep.critical_path = telemetry::analyze_critical_path(*config.trace);
    }
    if (config.telemetry != nullptr) {
      rep.metrics = config.telemetry->metrics().merged();
    }
    std::ofstream out(options_.report_path);
    rep.write_json(out);
  }
  return result;
}

}  // namespace swhkm::core
