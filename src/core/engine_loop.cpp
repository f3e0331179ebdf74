#include "core/engine_loop.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/init.hpp"
#include "core/metrics.hpp"
#include "core/perf_model.hpp"
#include "simarch/regcomm.hpp"
#include "simarch/trace.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace swhkm::core::detail {

namespace {

/// The engines never see init_centroids' checks when a caller hands them
/// its own matrix: a short one overruns the kernels, a non-finite value
/// poisons every bound and converges to garbage. Same contract as the
/// sample check in init_centroids (DESIGN.md §15).
void require_valid_centroids(const util::Matrix& centroids, std::size_t k,
                             std::size_t d) {
  if (centroids.rows() != k || centroids.cols() != d) {
    throw InvalidArgument(
        "initial centroids are " + std::to_string(centroids.rows()) + " x " +
        std::to_string(centroids.cols()) + " but the run needs k x d = " +
        std::to_string(k) + " x " + std::to_string(d));
  }
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<const float> row = centroids.row(j);
    const auto bad = std::find_if(row.begin(), row.end(),
                                  [](float v) { return !std::isfinite(v); });
    if (bad != row.end()) {
      throw InvalidArgument(
          "initial centroid row " + std::to_string(j) + " column " +
          std::to_string(bad - row.begin()) + " is not finite (" +
          std::to_string(*bad) + "); clustering needs finite centroids");
    }
  }
}

/// The contiguous samples a rank's flow units own: a Level 1/2 CG runs
/// num_flow_units / num_cgs consecutive units, a Level 3 CG its group's
/// one. The rank gates only these, so its bounds cover only these.
std::pair<std::size_t, std::size_t> rank_samples(const EngineRun& run,
                                                 std::size_t cg) {
  const PartitionPlan& plan = run.plan;
  const std::size_t n = run.dataset.n();
  if (plan.level == Level::kLevel3) {
    return block_range(n, plan.num_flow_units, cg / plan.mprime_group);
  }
  const std::size_t per_cg = plan.num_flow_units / plan.num_cgs;
  return {block_range(n, plan.num_flow_units, cg * per_cg).first,
          block_range(n, plan.num_flow_units, (cg + 1) * per_cg - 1).second};
}

static_assert(kLevel2BoundGroups <= kMaxBoundGroups,
              "a survivor's group mask is one byte");

}  // namespace

bool runs_radius_pass(const PartitionPlan& plan) {
  return plan.level == Level::kLevel1;
}

EngineRank::EngineRank(const EngineRun& run_, swmpi::Comm& world_)
    : run(run_),
      world(world_),
      cg(static_cast<std::size_t>(world_.rank())),
      tel(run_.config.telemetry),
      tshard(tel != nullptr ? &tel->metrics().shard(world_.global_rank())
                            : nullptr),
      flight(tshard != nullptr ? tshard->flight() : nullptr),
      survivor_hist(tshard != nullptr
                        ? &tshard->histogram("engine.gate.survivor_tile")
                        : nullptr),
      overlap_hist(tshard != nullptr
                       ? &tshard->histogram("engine.pipeline.overlap_s")
                       : nullptr),
      spans_on(tel != nullptr && tel->config().wall_spans),
      split{run_.config.k, run_.plan.bound_groups},
      radius_pass(runs_radius_pass(run_.plan)),
      bound_base(rank_samples(run_, cg).first),
      upper(rank_samples(run_, cg).second - bound_base, 0.0),
      lower(upper.size() * split.groups, 0.0),
      drift(run_.config.k, 0.0),
      digests(split.groups),
      radius_work(radius_pass ? safe_radius_work(run_.config.k,
                                                 run_.machine.cpes_per_cg,
                                                 run_.ldm.radius_block_rows)
                              : SafeRadiusWork{}),
      acc(run_.config.k, run_.dataset.d(),
          held_centroid_rows(run_.plan, cg).first,
          held_centroid_rows(run_.plan, cg).second) {
  if (run.config.sdc_checks) {
    gemm_sdc.check = true;
    gemm_sdc.flip = [this](std::span<std::byte> bytes) {
      world.memory_fault_point(swmpi::MemorySite::kTileScratch, global_iter,
                               bytes);
    };
    gemm_hooks = &gemm_sdc;
  }
}

void EngineRank::record_tile(telemetry::FlightEventKind kind, std::size_t t0,
                             std::size_t t1) const {
  if (flight != nullptr) {
    flight->record(kind, static_cast<std::uint32_t>(global_iter), 0, t0, t1);
  }
}

void EngineRank::charge_radius_pass(simarch::CostTally& t) const {
  // Safe radii, recomputed by every CG from the shared snapshot: the
  // slowest CPE's pairs at chain rate, the rows its CPEs stream over the
  // CG's DMA channel, and one mesh min-fold of the k radii. The pass
  // precedes the sweep it gates, so the tile pipeline hides none of it.
  const std::size_t k = run.config.k;
  const std::size_t d = run.dataset.d();
  const simarch::MachineConfig& machine = run.machine;
  t.compute_s += static_cast<double>(radius_work.max_cpe_pairs()) *
                 machine.assign_row_seconds(d);
  const std::uint64_t radius_bytes =
      radius_work.streamed_rows * d * machine.elem_bytes;
  t.centroid_stream_s +=
      static_cast<double>(radius_bytes) / machine.dma_bandwidth;
  t.dma_bytes += radius_bytes;
  simarch::RegComm(machine, t)
      .account_allreduce(k * sizeof(double), machine.cpes_per_cg);
  t.flops += k * (k - 1) * d;
}

std::uint64_t EngineRank::bound_bytes(std::uint64_t samples) const {
  return gating ? samples * 2 * split.groups * sizeof(double) : 0;
}

void EngineRank::charge_gate_and_sdc(std::uint64_t unresolved,
                                     double sweep_row_s) {
  if (gating && radius_pass) {
    charge_radius_pass(tally);
  }
  if (!run.config.sdc_checks) {
    return;
  }
  // Charged only when the defense is armed, so defense-off model numbers
  // stay pinned. The scrub reads the shared snapshot and this rank's
  // accumulator: all k rows at Levels 1/2, the CG's slice at Level 3.
  const std::size_t k = run.config.k;
  const std::size_t d = run.dataset.d();
  const simarch::MachineConfig& machine = run.machine;
  const std::size_t eb = machine.elem_bytes;
  const std::size_t accum_bytes = (acc.rows() * d + acc.rows()) * eb;
  tally.compute_s += static_cast<double>(unresolved) * sweep_row_s * 0.125;
  tally.compute_s +=
      static_cast<double>(k * d * eb + accum_bytes) / machine.dma_bandwidth;
  // The scrub verdicts and the counts-conservation word ride the update
  // allgather's header (charge_update).
  tally.sdc_recomputed += gemm_sdc.recomputed - abft_recomputed_before;
  if (tshard != nullptr && gemm_sdc.recomputed != abft_recomputed_before) {
    tshard->counter("sdc.abft.detected")
        .add(gemm_sdc.recomputed - abft_recomputed_before);
  }
}

namespace {

/// Snapshot scrub. Protocol: capture the reference CRC (cold start only —
/// warm iterations captured it right after the update published the
/// rows), barrier, expose the shared snapshot to flip_memory (at most one
/// rank writes), barrier, then every rank re-reads and verifies. The
/// barriers run on the world communicator and order the injected write
/// against every rank's reads; capture-after-update needs none (the
/// update's closing allreduce orders the writes, and the next update's
/// entry allgather orders this read before new writes).
void scrub_snapshot(EngineRank& rank, std::uint32_t& snap_crc,
                    bool& snap_crc_valid) {
  const std::span<float> snap = rank.run.centroids.flat();
  if (!snap_crc_valid) {
    snap_crc = util::crc32(std::as_bytes(snap));
    snap_crc_valid = true;
  }
  swmpi::barrier(rank.world);
  rank.world.memory_fault_point(swmpi::MemorySite::kSnapshot,
                                rank.global_iter,
                                std::as_writable_bytes(snap));
  swmpi::barrier(rank.world);
  if (util::crc32(std::as_bytes(snap)) != snap_crc) {
    if (rank.tshard != nullptr) {
      rank.tshard->counter("sdc.snapshot.crc_fail").add(1);
    }
    throw SilentCorruptionError(
        "sdc: centroid snapshot CRC mismatch at iteration " +
        std::to_string(rank.global_iter) +
        " — published centroid bits were corrupted in memory");
  }
}

/// Accumulator scrub: capture the sums CRC at accumulation end, expose the
/// (sums, counts) pair to flip_memory — the modeled DRAM flip between
/// accumulation and fold — and verify the sums before they enter the
/// reduction. Counts are deliberately left out of the CRC: a counts flip
/// is caught by the Σcounts == n conservation guard inside
/// reduce_and_update, keeping both detectors honest.
void scrub_accumulator(EngineRank& rank) {
  const std::span<double> sums(rank.acc.sums.data(), rank.acc.sums.size());
  const std::span<double> counts(rank.acc.counts.data(),
                                 rank.acc.counts.size());
  const std::uint32_t sums_crc = util::crc32(std::as_bytes(sums));
  rank.world.memory_fault_point(swmpi::MemorySite::kUpdateAccum,
                                rank.global_iter, std::as_writable_bytes(sums),
                                std::as_writable_bytes(counts));
  if (util::crc32(std::as_bytes(sums)) != sums_crc) {
    if (rank.tshard != nullptr) {
      rank.tshard->counter("sdc.accum.crc_fail").add(1);
    }
    throw SilentCorruptionError(
        "sdc: update accumulator CRC mismatch on rank " +
        std::to_string(rank.world.global_rank()) + " at iteration " +
        std::to_string(rank.global_iter) +
        " — accumulator sums were corrupted before the fold");
  }
}

/// Refresh the norm cache where the rows are held and return its modeled
/// seconds. The refresh follows the holder: a Level 1 CG refreshes all k
/// rows at gemm_row_seconds(d); a Level 2 CG's members refresh their own
/// k_local rows in parallel, so the busiest member's count is charged; a
/// Level 3 CG refreshes only its slice, its CPEs' d_local-wide partial
/// norms riding the mesh reduce of distance partials, at
/// gemm_row_seconds(d_local). A Level 3 CG never reads another slice's
/// norm.
double refresh_norms(EngineRank& rank) {
  const EngineRun& run = rank.run;
  const PartitionPlan& plan = run.plan;
  const auto [j_begin, j_end] = held_centroid_rows(plan, rank.cg);
  const std::size_t holder_rows =
      plan.level == Level::kLevel2 ? plan.k_local : j_end - j_begin;
  std::size_t busiest = 0;
  for (std::size_t b = j_begin; b < j_end; b += holder_rows) {
    const std::size_t e = std::min(j_end, b + holder_rows);
    busiest = std::max(
        busiest,
        rank.gating
            ? rank.norm_cache.refresh_from_drift(run.centroids, rank.drift, b,
                                                 e)
            : rank.norm_cache.refresh_full(run.centroids, b, e));
  }
  const std::size_t row_dims =
      plan.level == Level::kLevel3 ? plan.d_local : run.dataset.d();
  return static_cast<double>(busiest) * run.machine.gemm_row_seconds(row_dims);
}

}  // namespace

KmeansResult run_engine(Level level, const char* name,
                        const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids,
                        const PolicyFactory& make_policy) {
  SWHKM_REQUIRE(plan.level == level,
                std::string("plan is not a ") + level_name(level) + " plan");
  SWHKM_REQUIRE(plan.shape.n == dataset.n() && plan.shape.d == dataset.d() &&
                    plan.shape.k == config.k,
                "plan shape does not match the dataset/config");
  require_valid_centroids(initial_centroids, config.k, dataset.d());
  // A non-finite sample would keep its record's sentinel index and
  // overrun the accumulator. The scan splits like the seeding team's.
  require_finite(dataset, sweep_threads(dataset.n(), dataset.d()));

  const std::size_t num_cgs = machine.num_cgs();
  // Both fallbacks are bit-identical: the chain kernel computes what the
  // GEMM kernel does, and any tile size gives the same result.
  const LdmBudget ldm = allocate_ldm(plan, machine, config.tile_samples);
  if (ldm.tile_samples == 0) {
    throw InfeasibleError(
        std::string(name) + ": no assign tile fits: the plan's layout leaves "
        "no LDM for one sample's argmin record\n" + plan.describe());
  }
  if (!ldm.gemm) {
    SWHKM_WARN << name << ": tile_samples=" << config.tile_samples
               << " overflows LDM with the GEMM scratch; using "
               << ldm.tile_samples << " on the chain kernel (bit-identical)";
  }
  PartitionPlan run_plan = plan;
  run_plan.ldm = ldm.layout;
  const simarch::Topology topo(machine);
  // Hierarchical-collective schedule: one supernode's CGs form an intra
  // group, the crossover is derived from the machine's inter-supernode
  // latency/bandwidth terms. The guard installs the runtime schedule for
  // the ranks this run_spmd launches and restores the previous one after.
  const std::size_t xover = machine.collective_crossover_bytes();
  const swmpi::ScopedCollectiveSchedule collective_guard(
      config.hier_collectives ? swmpi::CollectiveSchedule::kHierarchical
                              : swmpi::CollectiveSchedule::kFlat,
      {static_cast<int>(machine.cgs_per_node * machine.supernode_nodes),
       xover});

  KmeansResult result;
  result.assignments.assign(dataset.n(), 0);
  // One shared read-only centroid snapshot for all ranks (refreshed only
  // at the bulk-synchronous iteration edge inside reduce_and_update), so
  // centroid memory is O(k*d) per run instead of per rank.
  util::Matrix centroids = std::move(initial_centroids);
  const EngineRun run{.dataset = dataset,
                      .config = config,
                      .machine = machine,
                      .plan = run_plan,
                      .topo = topo,
                      .ldm = ldm,
                      .xover = xover,
                      .centroids = centroids,
                      .assignments = result.assignments};

  std::size_t iterations = 0;
  bool converged = false;
  std::size_t empty_clusters = 0;
  simarch::CostTally total_cost;
  simarch::CostTally last_cost;
  std::vector<IterationStats> history;
  std::size_t gated_iterations = 0;
  telemetry::Telemetry* const tel = config.telemetry;

  swmpi::run_spmd(static_cast<int>(num_cgs), [&](swmpi::Comm& world) {
    EngineRank rank(run, world);
    const std::size_t cg = rank.cg;
    // sim.* ledgers tick on cg 0 only, mirroring the history rows they
    // reconcile against; gate counters tick on every rank.
    telemetry::MetricsShard* const tshard = rank.tshard;
    telemetry::Counter* const pruned_ctr =
        tshard != nullptr ? &tshard->counter("engine.gate.pruned_samples")
                          : nullptr;
    telemetry::Counter* const swept_ctr =
        tshard != nullptr ? &tshard->counter("engine.gate.swept_samples")
                          : nullptr;
    telemetry::Counter* const sim_net =
        tshard != nullptr && cg == 0 ? &tshard->counter("sim.net_bytes")
                                     : nullptr;
    telemetry::Counter* const sim_dma =
        tshard != nullptr && cg == 0 ? &tshard->counter("sim.dma_bytes")
                                     : nullptr;
    const std::unique_ptr<LevelPolicy> policy = make_policy(rank);
    const bool sdc = config.sdc_checks;
    std::uint32_t snap_crc = 0;
    bool snap_crc_valid = false;
    double rank_clock = 0;
    double ungated_s = 0;      // iteration 0's total_s: a bounds-off price
    double bound_savings = 0;  // running sum of (ungated_s - gated total_s)

    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
      // Global iteration index: the RecoveryDriver runs this engine in
      // legs, and fault schedules / trace rows are addressed globally.
      const std::uint64_t global_iter = config.iteration_base + iter;
      rank.global_iter = global_iter;
      if (rank.flight != nullptr) {
        rank.flight->record(telemetry::FlightEventKind::kIterationStart,
                            static_cast<std::uint32_t>(global_iter), 0, 0, 0,
                            rank_clock);
      }
      world.fault_point(swmpi::FaultSite::kAssign, global_iter);
      if (sdc) {
        scrub_snapshot(rank, snap_crc, snap_crc_valid);
      }
      const double assign_start_us = rank.spans_on ? tel->now_us() : 0.0;
      rank.acc.reset();
      rank.tally = simarch::CostTally{};
      rank.abft_recomputed_before = rank.gemm_sdc.recomputed;

      // Iteration 0 has no bounds yet — every sample sweeps (and the
      // trajectory stays exact from the very first assignment). Later
      // iterations gate while the savings ledger keeps the bounds on.
      rank.gating = rank.bounds && iter > 0;
      if (rank.gating) {
        group_drift_digests(rank.drift, rank.split, rank.digests);
      }
      if (rank.gating && rank.radius_pass) {
        compute_safe_radii(centroids, rank.safe);
      }
      if (ldm.gemm) {
        // Gated iterations refresh only the rows the published drift marks
        // moved — an unmoved row's stored float bits are unchanged, so its
        // cached norm is still bit-exact. Iteration 0 and bounds-off runs
        // recompute every held row, so a bounds-off iteration prices
        // exactly the sweep the bounds decision weighed.
        rank.tally.compute_s += refresh_norms(rank);
        // Norm refresh seconds are charged above, but its O(k d) products
        // stay out of `flops`, which keeps its exact 2nkd distance-work
        // meaning (FlopAccountingMatches2nkd) and prices the FLOP *rate*
        // from the panel product alone.
      }
      rank.norms = std::span<const double>(rank.norm_cache.norms.data(),
                                           rank.norm_cache.norms.size());

      const AssignSweep swept = policy->sweep(rank);
      if (rank.spans_on) {
        tel->spans().record("assign", static_cast<std::uint32_t>(cg),
                            static_cast<std::uint32_t>(global_iter),
                            assign_start_us, tel->now_us() - assign_start_us);
      }
      if (swept_ctr != nullptr) {
        swept_ctr->add(swept.unresolved);
        pruned_ctr->add(swept.samples - swept.unresolved);
      }
      policy->charge(rank);

      // Update: the shared charge (perf_model.hpp); each collective's
      // telemetry ticks on CG 0, which books its crossing bytes.
      const UpdateCollectives update = charge_update(
          rank.tally, plan, machine, run.topo, cg, Placement::kPacked,
          config.hier_collectives, sdc);
      if (cg == 0) {
        if (update.reduce_scatter) {
          tick_collective_charge(tshard, "sim.collective.update_rs",
                                 *update.reduce_scatter);
        }
        if (update.allgather) {
          tick_collective_charge(tshard, "sim.collective.update_ag",
                                 *update.allgather);
        }
      }
      world.fault_point(swmpi::FaultSite::kUpdate, global_iter);
      if (sdc) {
        scrub_accumulator(rank);
      }
      const double update_start_us = rank.spans_on ? tel->now_us() : 0.0;
      const UpdateOutcome outcome = reduce_and_update(
          world, centroids, rank.acc,
          std::span<double>(rank.drift.data(), rank.drift.size()),
          sdc ? dataset.n() : 0);
      if (sdc) {
        // Re-capture the reference CRC from the freshly published rows (see
        // scrub_snapshot for the ordering argument).
        snap_crc = util::crc32(std::as_bytes(centroids.flat()));
        snap_crc_valid = true;
      }
      if (rank.spans_on) {
        tel->spans().record("update", static_cast<std::uint32_t>(cg),
                            static_cast<std::uint32_t>(global_iter),
                            update_start_us, tel->now_us() - update_start_us);
      }
      const double shift = outcome.shift;

      if (config.trace != nullptr) {
        config.trace->record_iteration(static_cast<std::uint32_t>(cg),
                                       static_cast<std::uint32_t>(global_iter),
                                       rank_clock, rank.tally);
      }
      world.fault_point(swmpi::FaultSite::kCollective, global_iter);
      const simarch::CostTally combined = combine_tallies(world, rank.tally);
      rank_clock += combined.total_s();  // bulk-synchronous iteration edge
      if (iter == 0) {
        // The bounds can pay for themselves only if one safe-radius pass
        // costs less than the whole sweep it could skip (Levels 2/3 run no
        // pass, so they always try them). Every later bounds-off
        // iteration prices exactly like this one.
        simarch::CostTally pass;
        if (rank.radius_pass) {
          rank.charge_radius_pass(pass);
        }
        rank.bounds = pass.total_s() < combined.compute_s;
        ungated_s = combined.total_s();
      } else if (rank.gating) {
        // Savings ledger: the bounds stay on while the gated iterations,
        // summed, still beat that price. A running sum rides out one
        // weak iteration between good ones. Every input is replicated, so
        // every rank decides alike with no exchange; once off, the bounds
        // stay off for the rest of the run.
        bound_savings += ungated_s - combined.total_s();
        rank.bounds = bound_savings > 0;
      }
      if (rank.flight != nullptr) {
        rank.flight->record(telemetry::FlightEventKind::kIterationEnd,
                            static_cast<std::uint32_t>(global_iter), 0, 0, 0,
                            rank_clock);
      }
      if (cg == 0) {
        total_cost += combined;
        last_cost = combined;
        iterations = iter + 1;
        empty_clusters = outcome.empty_clusters;
        gated_iterations += rank.gating ? 1 : 0;
        history.push_back({shift, combined.total_s(),
                           static_cast<double>(combined.pruned_samples) /
                               static_cast<double>(dataset.n()),
                           combined.net_bytes, combined.dma_bytes,
                           combined.flops, combined.net_rounds});
        history.back().net_crossing_bytes = combined.net_crossing_bytes;
        history.back().sdc_recomputed = combined.sdc_recomputed;
        history.back().gated = rank.gating;
        fill_phase_stats(history.back(), combined);
        if (sim_net != nullptr) {
          sim_net->add(combined.net_bytes);
          sim_dma->add(combined.dma_bytes);
        }
      }
      if (shift <= config.tolerance) {
        if (cg == 0) {
          converged = true;
        }
        break;
      }
    }

    // Every rank leaves the loop at the same iteration (shift is
    // replicated), so one closing collective folds the per-rank distance
    // ledgers.
    std::uint64_t counters[2] = {rank.distance_comps, rank.lloyd_equivalent};
    swmpi::allreduce_sum(world, std::span<std::uint64_t>(counters, 2));
    if (cg == 0) {
      result.accel.distance_computations = counters[0];
      result.accel.lloyd_equivalent = counters[1];
    }
  }, config.fault_plan,
      tel != nullptr && tel->config().swmpi ? &tel->metrics() : nullptr);

  warn_empty_clusters(empty_clusters, name);
  result.centroids = std::move(centroids);
  result.iterations = iterations;
  result.converged = converged;
  result.radius_pass = runs_radius_pass(plan);
  // Safe-radius maintenance: k(k-1)/2 centroid pairs per gated
  // iteration, counted once (the per-rank copies are replicas).
  result.accel.centroid_distance_computations =
      result.radius_pass ? gated_iterations * config.k * (config.k - 1) / 2
                         : 0;
  result.assign_kernel = ldm.gemm ? "gemm" : "chain";
  result.tile_samples = ldm.tile_samples;
  result.sample_batch = ldm.layout.sample_batch;
  result.combine_batch = ldm.layout.combine_batch;
  result.ldm = ldm.footprint;
  result.bound_groups = plan.bound_groups;
  result.gated_iterations = gated_iterations;
  result.empty_clusters = empty_clusters;
  result.cost = total_cost;
  result.last_iteration_cost = last_cost;
  result.history = std::move(history);
  result.inertia = inertia(dataset, result.centroids, result.assignments);
  return result;
}

// ------------------------------------------------------------- TileSweep

TileSweep::TileSweep(const EngineRank& rank)
    : runs_(rank.run.plan.m_group, rank.run.plan.ldm.sample_batch),
      group_scans_(rank.split.groups, 0),
      tightened_at_(rank.run.config.k, 0) {
  const std::size_t tile = rank.run.ldm.tile_samples;
  const std::size_t groups = rank.split.groups;
  for (Slot& s : slots_) {
    s.scores.resize(tile * groups);
    s.ids.reserve(tile);
    if (groups > 1) {
      s.scan.reserve(tile);
      s.assigned_sq.reserve(tile);
    }
  }
}

TileSweep::Block TileSweep::sweep(EngineRank& rank, std::size_t begin,
                                  std::size_t end) {
  Block block;
  runs_.reset();
  std::fill(group_scans_.begin(), group_scans_.end(), 0);
  std::fill(tightened_at_.begin(), tightened_at_.end(), 0);
  const std::size_t tile = rank.run.ldm.tile_samples;
  int cur = 0;
  for (std::size_t t0 = begin; t0 < end; t0 += tile) {
    stage(rank, slots_[cur], t0, std::min(end, t0 + tile), block);
    Slot& prev = slots_[cur ^ 1];
    if (prev.valid) {
      retire(rank, prev, block);
    }
    cur ^= 1;
  }
  if (slots_[cur ^ 1].valid) {
    retire(rank, slots_[cur ^ 1], block);
  }
  block.descriptors = runs_.critical();
  // Member m owns centroids [m k_local, (m+1) k_local): it scores the part
  // of each scanned group inside that slice and tightens on its own rows.
  const std::size_t members = rank.run.plan.m_group;
  const std::size_t k_local = rank.run.plan.k_local;
  block.member_rows.assign(members, 0);
  block.member_tightened.assign(members, 0);
  for (std::size_t g = 0; g < rank.split.groups; ++g) {
    const auto [gb, ge] = rank.split.range(g);
    block.scanned_rows += group_scans_[g] * (ge - gb);
    for (std::size_t m = 0; m < members; ++m) {
      const std::size_t lo = std::max(gb, m * k_local);
      const std::size_t hi = std::min(ge, (m + 1) * k_local);
      block.member_rows[m] += lo < hi ? group_scans_[g] * (hi - lo) : 0;
    }
  }
  for (std::size_t j = 0; j < tightened_at_.size(); ++j) {
    block.member_tightened[j / k_local] += tightened_at_[j];
  }
  return block;
}

void TileSweep::stage(EngineRank& rank, Slot& s, std::size_t t0,
                      std::size_t t1, Block& block) {
  const EngineRun& run = rank.run;
  const std::size_t k = run.config.k;
  const GroupSplit& split = rank.split;
  s.t0 = t0;
  s.t1 = t1;
  s.valid = true;
  rank.record_tile(telemetry::FlightEventKind::kTileStart, t0, t1);
  // Group g's record of the tile's p-th scored sample lands at
  // scores[g * stride + p] (TileGroups).
  const auto records = [&](std::size_t count, std::size_t groups) {
    s.stride = count;
    const std::span<TileScore2> scores(s.scores.data(), count * groups);
    clear_scores(scores);
    return scores;
  };
  if (!rank.gating) {
    // Every group scores every sample. Once the bounds are off for good no
    // group record is needed: one record over all k.
    const TileGroups groups{rank.bounds ? split.groups : 1};
    const std::span<TileScore2> scores = records(t1 - t0, groups.groups);
    if (run.ldm.gemm) {
      score_tile_gemm(run.dataset, t0, t1, run.centroids, rank.norms, 0, k,
                      scores, rank.gemm_hooks, groups);
    } else {
      score_tile(run.dataset, t0, t1, run.centroids, 0, k, scores, groups);
    }
    for (std::uint64_t& scans : group_scans_) {
      scans += t1 - t0;
    }
    block.launches += util::ceil_div(t1 - t0, run.plan.ldm.combine_batch);
    return;
  }
  s.ids.clear();
  s.scan.clear();
  s.assigned_sq.clear();
  // Level 2 tightens locally too: the sample is already replicated to the
  // group and the assigned centroid's full row lives in one member's
  // slice; the verdict rides the register bus.
  const bool grouped = split.groups > 1;
  const std::size_t tightened = gate_groups(
      run.dataset, run.centroids, t0, t1,
      std::span<const std::uint32_t>(run.assignments).subspan(rank.bound_base),
      rank.drift, split, rank.digests, rank.safe, rank.bound_base, rank.upper,
      rank.lower,
      /*tighten=*/true,
      GateSurvivors{s.ids, grouped ? &s.scan : nullptr,
                    grouped ? &s.assigned_sq : nullptr, tightened_at_});
  block.tightened += tightened;
  block.launches +=
      util::ceil_div(std::max(s.ids.size(), tightened),
                     run.plan.ldm.combine_batch);
  if (rank.survivor_hist != nullptr) {
    rank.survivor_hist->observe(static_cast<double>(s.ids.size()));
  }
  if (s.ids.empty()) {
    return;
  }
  // A survivor scores only the groups whose bound it failed.
  const TileGroups groups{split.groups, s.scan};
  const std::span<const std::uint32_t> ids(s.ids.data(), s.ids.size());
  const std::span<TileScore2> scores = records(ids.size(), split.groups);
  if (run.ldm.gemm) {
    score_tile_ids_gemm(run.dataset, ids, run.centroids, rank.norms, 0, k,
                        scores, rank.gemm_hooks, groups);
  } else {
    score_tile_ids(run.dataset, ids, run.centroids, 0, k, scores, groups);
  }
  for (std::size_t p = 0; p < ids.size(); ++p) {
    for (std::size_t g = 0; g < split.groups; ++g) {
      group_scans_[g] += groups.scores(p, g) ? 1 : 0;
    }
  }
}

void TileSweep::retire(EngineRank& rank, Slot& s, Block& block) {
  const data::Dataset& dataset = rank.run.dataset;
  std::vector<std::uint32_t>& assignments = rank.run.assignments;
  const GroupSplit& split = rank.split;
  const std::size_t groups = split.groups;
  // Merge in ascending i: swept samples take the merged argmin of their
  // scored groups, gated ones accumulate under their stored assignment,
  // so the fused sums keep the exact summation order of a full sweep.
  // Without bounds a tile scored every sample in order (one full-range
  // record once the bounds are off for good, with no bounds to refresh);
  // a gated one scored its survivors, each on the groups its mask names.
  // The same walk counts the readers' stream runs: a swept sample goes to
  // every reader, a gated one to its centroid's owner only.
  const std::size_t k_local = rank.run.plan.k_local;
  const auto all = static_cast<std::uint8_t>((1u << groups) - 1);
  const bool grouped = rank.gating && groups > 1;
  if (!rank.gating) {
    runs_.pull_all(s.t0, s.t1);
  }
  std::size_t pos = 0;
  for (std::size_t i = s.t0; i < s.t1; ++i) {
    std::uint32_t j = assignments[i];
    if (!rank.bounds) {
      j = static_cast<std::uint32_t>(s.scores[i - s.t0].index);
      assignments[i] = j;
    } else if (!rank.gating || (pos < s.ids.size() && s.ids[pos] == i)) {
      const std::size_t p = rank.gating ? pos : i - s.t0;
      const std::uint8_t scan = grouped ? s.scan[p] : all;
      const TileScore2* recs[kMaxBoundGroups] = {};
      for (std::size_t g = 0; g < groups; ++g) {
        recs[g] = &s.scores[g * s.stride + p];
      }
      const std::size_t b = i - rank.bound_base;
      j = merge_group_records<TileScore2>(
          std::span<const TileScore2* const>(recs, groups), scan, split, j,
          grouped ? s.assigned_sq[p]
                  : std::numeric_limits<double>::quiet_NaN(),
          rank.upper[b], rank.lower.data() + b * groups);
      assignments[i] = j;
      if (rank.gating) {
        ++pos;
        runs_.pull_all(i, i + 1);
      }
    } else {
      runs_.pull_one(j / k_local, i);
    }
    rank.acc.add_sample(j, dataset.sample(i));
  }
  block.unresolved += rank.gating ? s.ids.size() : s.t1 - s.t0;
  s.valid = false;
  rank.record_tile(telemetry::FlightEventKind::kTileEnd, s.t0, s.t1);
}

}  // namespace swhkm::core::detail
