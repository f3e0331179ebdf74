/// Wall-clock (NOT simulated) microbenchmark of the batched assign phase.
///
/// The paper's nkd partition keeps communication off the per-sample
/// critical path of the *simulated* machine; this bench tracks whether the
/// host implementation honours the same principle. It runs the Level 3
/// assign phase of an (n=8192, k=256, d=128) workload on a 4-CG group two
/// ways over the real swmpi runtime:
///
///   per-sample — one allreduce_minloc of a single MinLoc per sample, the
///                pre-batching engine structure (kept here as the
///                reference implementation so the win stays measurable);
///   batched    — the shipped structure: score a 256-sample tile into a
///                MinLoc buffer, then one vector-shaped allreduce_minloc
///                per tile.
///
/// Both produce bit-identical winners (verified); only the number of
/// thread-level barriers differs.
///
/// It also times the centroid-update phase of the same workload two ways:
///
///   root-serialized — the pre-sharding structure: two flat reduces of the
///                     full k x d sums and counts to rank 0, rank 0 applies
///                     the whole update alone, scalar bcast of the shift;
///   sharded         — the shipped reduce_and_update: one fused
///                     reduce_scatter, every rank applying its own shard of
///                     rows in parallel, allgather + stats allreduce.
///
/// Both variants pay one accumulator-sized copy per round (the old path's
/// reduce scratch vs the new path's payload packing) and produce
/// bit-identical centroids (verified). Results go to BENCH_wallclock.json
/// in the working directory so subsequent PRs can track the trajectory.
///
/// Third experiment — the bound gate. A full Lloyd run to convergence on
/// the same (n=8192, k=256, d=128, 4-CG) cell, assign phase two ways:
///
///   ungated — every sample sweeps its k-slice every iteration, one
///             16-byte-record MinLoc collective per tile (the pre-gate
///             engine structure);
///   gated   — Hamerly bounds gate every sample before it enters a tile;
///             survivors sweep and ride a *compacted* 24-byte MinLoc2
///             collective (runner-up distance keeps the lower bound exact
///             under the nk slice), fully-pruned tiles skip the collective
///             outright.
///
/// Per-iteration assign wall-clock, prune rate and collective payload go
/// to the JSON + wallclock_gated_assign.csv; the run asserts both variants
/// and serial Lloyd converge to bit-identical centroids. `--smoke` runs
/// only this experiment on a tiny cell (CI-sized, a few hundred ms).
///
/// `--faults` is a separate CI-sized cell for the fault story: each engine
/// level runs once clean and once under the RecoveryDriver with a
/// deterministic mid-run crash injected (rank 1 dies entering the update
/// phase of iteration 5, past the first checkpoint boundary so the reload
/// path is exercised). Time-to-recover and the recovery report go to
/// BENCH_faults.json; the cell fails if the recovered run is not
/// bit-identical to the clean one.
///
/// `--sdc` drills the silent-data-corruption defense instead of fail-stop:
/// every engine level takes four deterministic exponent-bit flips (centroid
/// snapshot, GEMM tile scratch, update-accumulator sums, update-accumulator
/// counts) and the transport CRC takes a transient and a persistent wire
/// corruption on a collective workload. The gates: every injection is
/// detected, detection is handled by a localized in-memory leg retry (no
/// checkpoint rollback), every drilled run lands bit-identical to the clean
/// defense-off run, a corruption-free defense-on run is bit-identical too
/// (centroid_max_abs_diff == 0.0), and the defense's modeled overhead stays
/// bounded. Results go to BENCH_sdc.json; `--smoke` embeds the same cell in
/// BENCH_wallclock.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine_common.hpp"
#include "core/engine_util.hpp"
#include "core/lloyd.hpp"
#include "core/metrics.hpp"
#include "core/planner.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/fault.hpp"
#include "swmpi/mailbox.hpp"
#include "swmpi/runtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace swhkm {
namespace {

constexpr std::size_t kN = 8192;
constexpr std::size_t kK = 256;
constexpr std::size_t kD = 128;
constexpr std::size_t kGroupCgs = 4;  // one Level 3 flow unit of 4 CGs

struct AssignTiming {
  double seconds = 0;
  std::vector<std::uint32_t> winners;
};

/// One assign phase over `group_cgs` ranks, per-sample collectives.
AssignTiming assign_per_sample(const data::Dataset& ds,
                               const util::Matrix& centroids,
                               std::size_t k_local) {
  AssignTiming out;
  out.winners.assign(ds.n(), 0);
  util::Stopwatch clock;
  swmpi::run_spmd(static_cast<int>(kGroupCgs), [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const std::size_t j_begin = std::min(rank * k_local, kK);
    const std::size_t j_end = std::min(kK, j_begin + k_local);
    for (std::size_t i = 0; i < ds.n(); ++i) {
      swmpi::MinLoc mine{std::numeric_limits<double>::max(),
                         std::numeric_limits<std::uint64_t>::max()};
      if (j_begin < j_end) {
        const auto [dist, j] = core::detail::nearest_in_slice(
            ds.sample(i), centroids, j_begin, j_end);
        mine = {dist, j};
      }
      swmpi::allreduce_minloc(comm, std::span<swmpi::MinLoc>(&mine, 1));
      if (rank == 0) {
        out.winners[i] = static_cast<std::uint32_t>(mine.index);
      }
    }
  });
  out.seconds = clock.seconds();
  return out;
}

/// Same phase, one batched collective per kAssignTileSamples-sample tile.
AssignTiming assign_batched(const data::Dataset& ds,
                            const util::Matrix& centroids,
                            std::size_t k_local) {
  AssignTiming out;
  out.winners.assign(ds.n(), 0);
  util::Stopwatch clock;
  swmpi::run_spmd(static_cast<int>(kGroupCgs), [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const std::size_t j_begin = std::min(rank * k_local, kK);
    const std::size_t j_end = std::min(kK, j_begin + k_local);
    std::vector<swmpi::MinLoc> tile(core::detail::kAssignTileSamples);
    for (std::size_t t0 = 0; t0 < ds.n();
         t0 += core::detail::kAssignTileSamples) {
      const std::size_t t1 =
          std::min(ds.n(), t0 + core::detail::kAssignTileSamples);
      const std::span<swmpi::MinLoc> scores(tile.data(), t1 - t0);
      core::detail::clear_scores(scores);
      if (j_begin < j_end) {
        core::detail::score_tile(ds, t0, t1, centroids, j_begin, j_end,
                                 scores);
      }
      swmpi::allreduce_minloc(comm, scores);
      if (rank == 0) {
        for (std::size_t i = t0; i < t1; ++i) {
          out.winners[i] = static_cast<std::uint32_t>(scores[i - t0].index);
        }
      }
    }
  });
  out.seconds = clock.seconds();
  return out;
}

/// Per-rank update-phase inputs: each of the 4 CGs accumulates its block of
/// samples under the (deterministic) full-scan winners. Built once; the
/// timed variants only read them.
std::vector<core::detail::UpdateAccumulator> build_accumulators(
    const data::Dataset& ds, const util::Matrix& centroids) {
  std::vector<core::detail::UpdateAccumulator> accs(
      kGroupCgs, core::detail::UpdateAccumulator(kK, kD));
  for (std::size_t r = 0; r < kGroupCgs; ++r) {
    const auto [begin, end] =
        core::detail::block_range(ds.n(), kGroupCgs, r);
    for (std::size_t i = begin; i < end; ++i) {
      const auto [dist, j] =
          core::detail::nearest_in_slice(ds.sample(i), centroids, 0, kK);
      (void)dist;
      accs[r].add_sample(j, ds.sample(i));
    }
  }
  return accs;
}

/// `reps` rounds of the pre-sharding update: two flat reduces to rank 0,
/// root-only apply, scalar bcast. Applying the same accumulator is
/// idempotent (rows land on sums/counts means every round), so the work per
/// round is identical while centroids stay comparable across variants.
double update_root_serialized(
    const std::vector<core::detail::UpdateAccumulator>& accs,
    util::Matrix& centroids, int reps) {
  util::Stopwatch clock;
  swmpi::run_spmd(static_cast<int>(kGroupCgs), [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    std::vector<double> sums;
    std::vector<double> counts;
    for (int rep = 0; rep < reps; ++rep) {
      sums = accs[rank].sums;  // the reduce destroys its input partials
      counts = accs[rank].counts;
      swmpi::reduce(comm, 0, std::span<double>(sums.data(), sums.size()),
                    swmpi::ops::Plus{});
      swmpi::reduce(comm, 0,
                    std::span<double>(counts.data(), counts.size()),
                    swmpi::ops::Plus{});
      double shift = 0;
      if (comm.rank() == 0) {
        shift = core::detail::apply_update(centroids, sums, counts).shift;
      }
      swmpi::bcast(comm, 0, std::span<double>(&shift, 1));
    }
  });
  return clock.seconds();
}

/// `reps` rounds of the shipped sharded update. reduce_and_update only
/// reads the accumulator (the shared-partials fold is zero-copy), so no
/// per-round scratch copy exists to pay — the root path's defensive copy
/// above is inherent to its destructive reduce, and its absence here is
/// part of the measured win.
double update_sharded(
    const std::vector<core::detail::UpdateAccumulator>& accs,
    util::Matrix& centroids, int reps) {
  util::Stopwatch clock;
  swmpi::run_spmd(static_cast<int>(kGroupCgs), [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    for (int rep = 0; rep < reps; ++rep) {
      (void)core::detail::reduce_and_update(comm, centroids, accs[rank]);
    }
  });
  return clock.seconds();
}

/// One converging Lloyd run over the 4-rank swmpi runtime with the Level 3
/// nk slicing (each rank owns a contiguous k-slice, winners resolved by a
/// per-tile collective), assign phase gated or not.
struct ConvergeTrace {
  std::vector<double> assign_s;            ///< per-iteration assign wall
  std::vector<double> prune_rate;          ///< gated fraction per iteration
  std::vector<std::uint64_t> collective_bytes;  ///< minloc payload crossing
  std::vector<std::uint32_t> assignments;
  util::Matrix centroids;
  std::size_t iterations = 0;
};

ConvergeTrace run_converging_assign(const data::Dataset& ds,
                                    const util::Matrix& init, std::size_t k,
                                    std::size_t group_cgs, bool gate,
                                    std::size_t max_iters, double tolerance) {
  ConvergeTrace out;
  out.centroids = init;
  const std::size_t n = ds.n();
  const std::size_t k_local = (k + group_cgs - 1) / group_cgs;
  constexpr std::size_t kTile = core::detail::kAssignTileSamples;
  std::vector<std::uint32_t> winners(n, 0);
  swmpi::run_spmd(static_cast<int>(group_cgs), [&](swmpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const std::size_t j_begin = std::min(rank * k_local, k);
    const std::size_t j_end = std::min(k, j_begin + k_local);
    std::vector<std::uint32_t> local_assign(n, 0);
    std::vector<double> upper;
    std::vector<double> lower;
    std::vector<double> drift;
    std::vector<double> safe;
    std::vector<std::uint32_t> ids;
    if (gate) {
      upper.assign(n, 0.0);
      lower.assign(n, 0.0);
      drift.assign(k, 0.0);
      ids.reserve(kTile);
    }
    std::vector<swmpi::MinLoc> tile1(kTile);
    std::vector<swmpi::MinLoc2> tile2(kTile);
    core::detail::UpdateAccumulator acc(k, ds.d());
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      // Sync so rank 0's stopwatch brackets only the assign phase.
      double sync = 0;
      swmpi::allreduce_sum(comm, std::span<double>(&sync, 1));
      util::Stopwatch clock;
      const bool gating = gate && iter > 0;
      core::detail::DriftDigest digest;
      if (gating) {
        digest = core::detail::drift_digest(drift);
        core::detail::compute_safe_radii(out.centroids, safe);
      }
      std::uint64_t unresolved = 0;
      for (std::size_t t0 = 0; t0 < n; t0 += kTile) {
        const std::size_t t1 = std::min(n, t0 + kTile);
        if (!gate) {
          const std::span<swmpi::MinLoc> scores(tile1.data(), t1 - t0);
          core::detail::clear_scores(scores);
          if (j_begin < j_end) {
            core::detail::score_tile(ds, t0, t1, out.centroids, j_begin,
                                     j_end, scores);
          }
          swmpi::allreduce_minloc(comm, scores);
          for (std::size_t i = t0; i < t1; ++i) {
            local_assign[i] =
                static_cast<std::uint32_t>(scores[i - t0].index);
          }
          unresolved += t1 - t0;
          continue;
        }
        if (!gating) {
          // Iteration 0 with the gate on: full sweep, MinLoc2 so the
          // runner-up distance seeds the lower bound.
          const std::span<swmpi::MinLoc2> scores(tile2.data(), t1 - t0);
          core::detail::clear_scores(scores);
          if (j_begin < j_end) {
            core::detail::score_tile(ds, t0, t1, out.centroids, j_begin,
                                     j_end, scores);
          }
          swmpi::allreduce_minloc2(comm, scores);
          for (std::size_t i = t0; i < t1; ++i) {
            const swmpi::MinLoc2& rec = scores[i - t0];
            local_assign[i] = static_cast<std::uint32_t>(rec.index);
            core::detail::refresh_bounds(rec, upper[i], lower[i]);
          }
          unresolved += t1 - t0;
          continue;
        }
        // Gate inputs are globally replicated, so every rank builds the
        // identical compaction and a fully-pruned tile skips its
        // collective on all ranks at once (Level 3 structure: no tighten —
        // see gate_tile).
        ids.clear();
        core::detail::gate_tile(ds, out.centroids, t0, t1, local_assign,
                                drift, digest, safe, upper, lower,
                                /*tighten=*/false, ids);
        if (!ids.empty()) {
          const std::span<swmpi::MinLoc2> scores(tile2.data(), ids.size());
          core::detail::clear_scores(scores);
          if (j_begin < j_end) {
            core::detail::score_tile_ids(
                ds, std::span<const std::uint32_t>(ids.data(), ids.size()),
                out.centroids, j_begin, j_end, scores);
          }
          swmpi::allreduce_minloc2(comm, scores);
          for (std::size_t t = 0; t < ids.size(); ++t) {
            const std::size_t i = ids[t];
            const swmpi::MinLoc2& rec = scores[t];
            local_assign[i] = static_cast<std::uint32_t>(rec.index);
            core::detail::refresh_bounds(rec, upper[i], lower[i]);
          }
        }
        unresolved += ids.size();
      }
      swmpi::allreduce_sum(comm, std::span<double>(&sync, 1));
      if (rank == 0) {
        out.assign_s.push_back(clock.seconds());
        out.prune_rate.push_back(static_cast<double>(n - unresolved) /
                                 static_cast<double>(n));
        out.collective_bytes.push_back(
            unresolved *
            (gate ? sizeof(swmpi::MinLoc2) : sizeof(swmpi::MinLoc)) *
            (group_cgs - 1));
        out.iterations = iter + 1;
      }
      acc.reset();
      const auto [b_begin, b_end] =
          core::detail::block_range(n, group_cgs, rank);
      for (std::size_t i = b_begin; i < b_end; ++i) {
        acc.add_sample(local_assign[i], ds.sample(i));
      }
      const core::detail::UpdateOutcome outcome =
          core::detail::reduce_and_update(
              comm, out.centroids, acc,
              gate ? std::span<double>(drift.data(), drift.size())
                   : std::span<double>{});
      if (outcome.shift <= tolerance) {
        break;
      }
    }
    if (rank == 0) {
      winners = local_assign;
    }
  });
  out.assignments = std::move(winners);
  return out;
}

struct GatedSection {
  ConvergeTrace gated;
  ConvergeTrace ungated;
  double tail_speedup = 0;  ///< assign wall ratio, iterations >= kTailStart
  bool identical = false;   ///< both variants + serial Lloyd bit-identical
};

constexpr std::size_t kTailStart = 2;  // "after the first few iterations"

GatedSection run_gated_section(std::size_t n, std::size_t k, std::size_t d,
                               std::size_t group_cgs,
                               std::size_t max_iters) {
  // Clusterable data (what the gate is for): more true modes than k and a
  // moderate separation keep Lloyd walking for a while before it settles.
  const data::Dataset ds = data::make_blobs(n, d, k + k / 8, 7177,
                                            /*separation=*/4.0);
  core::KmeansConfig config;
  config.k = k;
  config.max_iterations = max_iters;
  config.tolerance = 0;
  config.init = core::InitMethod::kFirstK;
  const util::Matrix init = core::init_centroids(ds, config);

  GatedSection out;
  (void)run_converging_assign(ds, init, k, group_cgs, true, 2, 0);  // warm-up
  out.gated =
      run_converging_assign(ds, init, k, group_cgs, true, max_iters, 0);
  out.ungated =
      run_converging_assign(ds, init, k, group_cgs, false, max_iters, 0);
  const core::KmeansResult serial = core::lloyd_serial_from(ds, config, init);

  out.identical =
      out.gated.iterations == out.ungated.iterations &&
      out.gated.assignments == out.ungated.assignments &&
      out.gated.assignments == serial.assignments &&
      std::memcmp(out.gated.centroids.data(), out.ungated.centroids.data(),
                  k * d * sizeof(float)) == 0 &&
      std::memcmp(out.gated.centroids.data(), serial.centroids.data(),
                  k * d * sizeof(float)) == 0;

  double gated_tail = 0;
  double ungated_tail = 0;
  for (std::size_t it = kTailStart; it < out.gated.iterations; ++it) {
    gated_tail += out.gated.assign_s[it];
    ungated_tail += out.ungated.assign_s[it];
  }
  out.tail_speedup = gated_tail > 0 ? ungated_tail / gated_tail : 0;
  return out;
}

void emit_gated(const GatedSection& g, util::JsonWriter& w) {
  util::Table table({"iter", "ungated_assign_s", "gated_assign_s",
                     "prune_rate", "ungated_bytes", "gated_bytes"});
  for (std::size_t it = 0; it < g.gated.iterations; ++it) {
    table.new_row()
        .add(static_cast<std::uint64_t>(it))
        .add(g.ungated.assign_s[it], 6)
        .add(g.gated.assign_s[it], 6)
        .add(g.gated.prune_rate[it], 4)
        .add(g.ungated.collective_bytes[it])
        .add(g.gated.collective_bytes[it]);
  }
  bench::emit(table, "wallclock_gated_assign");

  const auto dump = [&w](const char* key, const auto& values) {
    w.key(key).begin_array();
    for (const auto& v : values) {
      w.value(v);
    }
    w.end_array();
  };
  w.key("gated_assign").begin_object();
  w.kv("iterations", static_cast<std::uint64_t>(g.gated.iterations));
  w.kv("bit_identical_to_serial_lloyd", g.identical);
  dump("ungated_assign_s", g.ungated.assign_s);
  dump("gated_assign_s", g.gated.assign_s);
  dump("prune_rate", g.gated.prune_rate);
  dump("ungated_collective_bytes", g.ungated.collective_bytes);
  dump("gated_collective_bytes", g.gated.collective_bytes);
  w.kv("tail_start_iteration", static_cast<std::uint64_t>(kTailStart));
  w.kv("assign_tail_speedup", g.tail_speedup);
  w.end_object();
  std::printf("gated assign tail speedup (iters >= %zu): %.2fx, "
              "final prune rate %.3f, bit-identical: %s\n",
              kTailStart, g.tail_speedup,
              g.gated.prune_rate.empty() ? 0.0 : g.gated.prune_rate.back(),
              g.identical ? "yes" : "NO");
}

/// One fault cell: run `level` clean, then again under the RecoveryDriver
/// with a deterministic crash (rank 1, update phase of global iteration 5 —
/// one past the second checkpoint boundary at cadence 4, so the retry goes
/// through the reload path rather than a from-scratch restart).
struct FaultCell {
  double clean_wall_s = 0;
  double faulted_wall_s = 0;
  core::RecoveryReport report;
  bool identical = false;
  std::size_t postmortem_ranks = 0;  ///< rings captured at the first fault
  /// The flight-recorder postmortem names every participant: the host ring
  /// plus one ring per core group that ran, each with recorded events.
  bool postmortem_complete = false;
};

FaultCell run_fault_cell(core::Level level, const data::Dataset& ds,
                         const simarch::MachineConfig& machine) {
  core::KmeansConfig config;
  config.k = 8;
  config.max_iterations = 10;
  config.tolerance = -1;  // fixed-iteration run: both variants do 10 rounds
  config.init = core::InitMethod::kFirstK;
  config.checkpoint_every = 4;

  FaultCell cell;
  util::Stopwatch clean_clock;
  const core::KmeansResult clean =
      core::HierarchicalKmeans(machine).fit_level(level, ds, config);
  cell.clean_wall_s = clean_clock.seconds();

  swmpi::FaultPlan plan;
  plan.crash(/*rank=*/1, /*iteration=*/5, swmpi::FaultSite::kUpdate);
  config.fault_plan = &plan;
  // Telemetry armed on the faulted side only: report_faults.json gets the
  // full metrics + fault story, and the clean-vs-recovered bit-identity
  // check below doubles as a telemetry-on/off identity check through the
  // recovery path.
  telemetry::Telemetry session;
  config.telemetry = &session;
  core::RecoveryOptions options;
  options.checkpoint_path = "BENCH_faults.ckpt";
  // Every level overwrites the same artifact; the one left behind (the
  // last level's) is what CI validates and uploads.
  options.report_path = "report_faults.json";
  core::RecoveryDriver driver(machine, options);
  util::Stopwatch faulted_clock;
  const core::KmeansResult recovered = driver.run(level, ds, config);
  cell.faulted_wall_s = faulted_clock.seconds();
  cell.report = driver.report();
  std::remove(options.checkpoint_path.c_str());

  // The crash must have left a complete postmortem: one flight-recorder
  // snapshot per rank that ran (every core group plus the host ring), each
  // with its last events intact — the report_faults.json forensics story.
  if (!driver.postmortems().empty()) {
    const telemetry::FaultPostmortem& pm = driver.postmortems().front();
    cell.postmortem_ranks = pm.ranks.size();
    bool host_seen = false;
    std::size_t worker_rings = 0;
    bool all_have_events = true;
    for (const telemetry::FlightSnapshot& snap : pm.ranks) {
      all_have_events = all_have_events && !snap.events.empty();
      if (snap.rank == telemetry::MetricsRegistry::kHostRank) {
        host_seen = true;
      } else {
        ++worker_rings;
      }
    }
    cell.postmortem_complete =
        all_have_events && host_seen &&
        worker_rings >= cell.report.final_cgs;
  }

  cell.identical =
      clean.iterations == recovered.iterations &&
      clean.assignments == recovered.assignments &&
      std::memcmp(clean.centroids.data(), recovered.centroids.data(),
                  config.k * ds.d() * sizeof(float)) == 0;
  return cell;
}

int run_faults() {
  bench::banner("wallclock_engines --faults",
                "CI-sized recovery check: every engine level, clean vs "
                "crash-injected RecoveryDriver run (n=2048, k=8, d=6, 4 CGs)");
  const data::Dataset ds = data::make_blobs(2048, 6, 10, 4242);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(2, 4, 8192);

  constexpr core::Level kLevels[] = {core::Level::kLevel1,
                                     core::Level::kLevel2,
                                     core::Level::kLevel3};
  util::Table table({"level", "clean_wall_s", "faulted_wall_s",
                     "time_to_recover_s", "retries", "resumed_from_ckpt",
                     "postmortem_ranks", "bit_identical"});
  std::ofstream json("BENCH_faults.json");
  util::JsonWriter w(json);
  w.begin_object();
  bench::emit_run_metadata(w);
  w.key("workload").begin_object();
  w.kv("n", std::uint64_t{2048});
  w.kv("k", std::uint64_t{8});
  w.kv("d", std::uint64_t{6});
  w.kv("cgs", static_cast<std::uint64_t>(machine.num_cgs()));
  w.end_object();
  w.kv("fault", "crash rank 1, update phase, iteration 5");
  w.kv("checkpoint_every", std::uint64_t{4});
  w.kv("report", "report_faults.json");
  w.key("levels").begin_array();
  bool all_identical = true;
  bool all_postmortems = true;
  for (std::size_t li = 0; li < 3; ++li) {
    const core::Level level = kLevels[li];
    const FaultCell cell = run_fault_cell(level, ds, machine);
    all_identical = all_identical && cell.identical;
    all_postmortems = all_postmortems && cell.postmortem_complete;
    table.new_row()
        .add(core::level_name(level))
        .add(cell.clean_wall_s, 6)
        .add(cell.faulted_wall_s, 6)
        .add(cell.report.recover_wall_s, 6)
        .add(static_cast<std::uint64_t>(cell.report.retries))
        .add(cell.report.resumed_from_checkpoint ? "yes" : "no")
        .add(static_cast<std::uint64_t>(cell.postmortem_ranks))
        .add(cell.identical ? "yes" : "NO");
    w.begin_object();
    w.kv("level", static_cast<std::int64_t>(level));
    w.kv("clean_wall_s", cell.clean_wall_s);
    w.kv("faulted_wall_s", cell.faulted_wall_s);
    w.kv("time_to_recover_s", cell.report.recover_wall_s);
    w.kv("faults", static_cast<std::uint64_t>(cell.report.faults));
    w.kv("retries", static_cast<std::uint64_t>(cell.report.retries));
    w.kv("replans", static_cast<std::uint64_t>(cell.report.replans));
    w.kv("resumed_from_checkpoint", cell.report.resumed_from_checkpoint);
    w.kv("final_cgs", static_cast<std::uint64_t>(cell.report.final_cgs));
    w.kv("postmortem_ranks",
         static_cast<std::uint64_t>(cell.postmortem_ranks));
    w.kv("postmortem_complete", cell.postmortem_complete);
    w.kv("bit_identical_to_clean_run", cell.identical);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  json << "\n";
  bench::emit(table, "wallclock_faults");
  std::printf("(json: BENCH_faults.json, report_faults.json)\n");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FATAL: a recovered run diverged from its clean run\n");
    return 1;
  }
  if (!all_postmortems) {
    std::fprintf(stderr,
                 "FATAL: a fault left an incomplete flight-recorder "
                 "postmortem (missing ranks or empty rings)\n");
    return 1;
  }
  return 0;
}

/// The SDC-defense drill matrix (see the file comment, `--sdc`). One cell
/// aggregates every drill: injections scheduled vs detections raised, the
/// recovery shape (localized in-memory retries vs checkpoint rollbacks),
/// bit-identity of every drilled run against the clean defense-off run, and
/// the modeled cost of arming the defense on a corruption-free run.
struct SdcCell {
  struct PerLevel {
    core::Level level = core::Level::kLevel1;
    std::size_t injections = 0;
    std::size_t detected = 0;
    std::size_t localized_retries = 0;
    std::size_t rollbacks = 0;
    std::uint64_t abft_recomputed = 0;  ///< GEMM panels repaired in place
    bool bit_identical = true;
    double clean_max_abs_diff = 0;  ///< defense-on vs off, no faults
  };
  std::vector<PerLevel> levels;
  std::size_t injections = 0;
  std::size_t detected = 0;
  double detection_rate = 0;
  std::size_t localized_retries = 0;
  std::size_t rollbacks = 0;  ///< checkpoint rollbacks across drills (want 0)
  std::uint64_t abft_recomputed = 0;
  std::uint64_t transient_crc_fails = 0;
  std::uint64_t transient_retransmits = 0;
  bool persistent_escalated = false;  ///< CorruptMessageError was raised
  bool all_bit_identical = true;
  double clean_max_abs_diff = 0;  ///< max over levels (want exactly 0.0)
  double modeled_off_s = 0;       ///< Level 3 clean modeled time, defense off
  double modeled_on_s = 0;        ///< ... and with sdc_checks armed
  double overhead_frac = 0;       ///< modeled cost of the armed defense
};

SdcCell run_sdc_cell() {
  const data::Dataset ds = data::make_blobs(2048, 6, 10, 4242);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(2, 4, 8192);
  core::KmeansConfig base;
  base.k = 8;
  base.max_iterations = 10;
  base.tolerance = -1;  // fixed-iteration run: every variant does 10 rounds
  base.init = core::InitMethod::kFirstK;
  base.checkpoint_every = 4;
  // Ungated, so every iteration builds GEMM panels and the tile-scratch
  // flip always has a panel to land in on every level.
  base.gate_assign = false;
  // An exponent-bit flip: high-magnitude corruption that every detector is
  // guaranteed to see. (Sub-tolerance mantissa flips can be legitimately
  // absorbed by the ABFT tau margin — see DESIGN.md §13.)
  constexpr std::uint64_t kMask = 1ull << 62;
  // Global iteration 5 sits inside the second checkpoint leg (cadence 4),
  // so a localized retry — not a rollback — is the expected recovery.
  constexpr std::uint64_t kFlipIter = 5;
  const std::size_t sums_bytes = base.k * ds.d() * sizeof(double);

  SdcCell cell;
  const auto identical = [&](const core::KmeansResult& a,
                             const core::KmeansResult& b) {
    return a.iterations == b.iterations && a.assignments == b.assignments &&
           std::memcmp(a.centroids.data(), b.centroids.data(),
                       base.k * ds.d() * sizeof(float)) == 0;
  };
  // One drill under the RecoveryDriver: the armed flip must be detected
  // (driver classifies the fault as SDC) and recovered by re-running the
  // leg from the in-memory centroids — no checkpoint reload.
  const auto driver_drill = [&](core::Level level, swmpi::FaultPlan& plan,
                                const core::KmeansResult& ref,
                                SdcCell::PerLevel& out) {
    core::KmeansConfig config = base;
    config.sdc_checks = true;
    config.fault_plan = &plan;
    core::RecoveryOptions options;
    options.checkpoint_path = "BENCH_sdc.ckpt";
    core::RecoveryDriver driver(machine, options);
    const core::KmeansResult got = driver.run(level, ds, config);
    const core::RecoveryReport& rep = driver.report();
    out.injections += 1;
    if (rep.sdc_detections > 0) {
      out.detected += 1;
    }
    out.localized_retries += rep.localized_retries;
    out.rollbacks += rep.retries;
    out.bit_identical = out.bit_identical && !rep.resumed_from_checkpoint &&
                        identical(ref, got);
    std::remove(options.checkpoint_path.c_str());
  };

  constexpr core::Level kLevels[] = {core::Level::kLevel1,
                                     core::Level::kLevel2,
                                     core::Level::kLevel3};
  for (const core::Level level : kLevels) {
    SdcCell::PerLevel out;
    out.level = level;
    // Defense-off reference: the bits every drill must reproduce.
    const core::KmeansResult ref =
        core::HierarchicalKmeans(machine).fit_level(level, ds, base);
    // Corruption-free defense-on run: arming the detectors must not move a
    // single bit, and its modeled cost is the price of the defense.
    core::KmeansConfig armed_config = base;
    armed_config.sdc_checks = true;
    const core::KmeansResult armed =
        core::HierarchicalKmeans(machine).fit_level(level, ds, armed_config);
    out.clean_max_abs_diff =
        core::centroid_max_abs_diff(ref.centroids, armed.centroids);
    out.bit_identical = identical(ref, armed) && out.clean_max_abs_diff == 0.0;
    if (level == core::Level::kLevel3) {
      cell.modeled_off_s = ref.cost.total_s();
      cell.modeled_on_s = armed.cost.total_s();
    }

    // Snapshot flip -> the post-barrier CRC scrub catches it.
    {
      swmpi::FaultPlan plan;
      plan.flip_memory(0, kFlipIter, swmpi::MemorySite::kSnapshot, 0, kMask);
      driver_drill(level, plan, ref, out);
    }
    // Accumulator sums flip -> the pre-reduce accumulator CRC catches it.
    {
      swmpi::FaultPlan plan;
      plan.flip_memory(1, kFlipIter, swmpi::MemorySite::kUpdateAccum, 0,
                       kMask);
      driver_drill(level, plan, ref, out);
    }
    // Accumulator counts flip (offset past the sums array) -> the counts
    // CRC deliberately excludes it; the global counts-conservation guard
    // (sum == n) in reduce_and_update catches it instead.
    {
      swmpi::FaultPlan plan;
      plan.flip_memory(1, kFlipIter, swmpi::MemorySite::kUpdateAccum,
                       sums_bytes, kMask);
      driver_drill(level, plan, ref, out);
    }
    // Tile-scratch flip -> ABFT checksum columns detect it and repair the
    // panel in place by recompute; no throw, no driver needed, and the run
    // still lands on the reference bits.
    {
      swmpi::FaultPlan plan;
      plan.flip_memory(0, kFlipIter, swmpi::MemorySite::kTileScratch, 0,
                       kMask);
      core::KmeansConfig faulty = base;
      faulty.sdc_checks = true;
      faulty.fault_plan = &plan;
      const core::KmeansResult got =
          core::HierarchicalKmeans(machine).fit_level(level, ds, faulty);
      std::uint64_t recomputed = 0;
      for (const auto& it : got.history) {
        recomputed += it.sdc_recomputed;
      }
      out.injections += 1;
      if (recomputed > 0) {
        out.detected += 1;
      }
      out.abft_recomputed += recomputed;
      out.bit_identical = out.bit_identical && identical(ref, got);
    }

    cell.injections += out.injections;
    cell.detected += out.detected;
    cell.localized_retries += out.localized_retries;
    cell.rollbacks += out.rollbacks;
    cell.abft_recomputed += out.abft_recomputed;
    cell.all_bit_identical = cell.all_bit_identical && out.bit_identical;
    cell.clean_max_abs_diff =
        std::max(cell.clean_max_abs_diff, out.clean_max_abs_diff);
    cell.levels.push_back(out);
  }

  // Transport drills. Engine traffic includes zero-byte barrier tokens,
  // which genuinely cannot carry corruption (an empty CRC body stays
  // valid), so the wire drills target payload-bearing collective sends
  // where an armed corruption always lands on real bytes.
  const auto collective_run = [&](swmpi::FaultPlan* plan,
                                  telemetry::MetricsRegistry* reg) {
    std::vector<double> out(4, 0);
    swmpi::run_spmd(
        4,
        [&](swmpi::Comm& comm) {
          std::vector<double> v(8);
          for (int round = 0; round < 4; ++round) {
            for (std::size_t j = 0; j < v.size(); ++j) {
              v[j] = static_cast<double>(comm.rank() + 1) * (round + 1) +
                     static_cast<double>(j);
            }
            swmpi::allreduce_sum(comm, std::span<double>(v));
          }
          if (comm.rank() == 0) {
            std::copy(v.begin(), v.begin() + 4, out.begin());
          }
        },
        plan, reg);
    return out;
  };
  const std::vector<double> clean_collective = collective_run(nullptr, nullptr);
  // Transient wire corruption: the frame CRC fails on the receiver, the
  // NACK/resend handshake fetches the retained clean copy, and the run
  // completes on the clean values — detection with silent healing.
  {
    swmpi::FaultPlan plan;
    plan.corrupt_send(/*rank=*/1, /*nth_send=*/2, kMask, /*offset=*/0,
                      /*persistent=*/false);
    telemetry::MetricsRegistry reg;
    const std::vector<double> got = collective_run(&plan, &reg);
    const telemetry::MetricsSnapshot snap = reg.merged();
    cell.transient_crc_fails = snap.counter_or_zero("swmpi.recv.crc_fail");
    cell.transient_retransmits = snap.counter_or_zero("swmpi.send.retransmit");
    cell.injections += 1;
    if (cell.transient_crc_fails > 0 && got == clean_collective) {
      cell.detected += 1;
    }
    cell.all_bit_identical =
        cell.all_bit_identical && got == clean_collective;
  }
  // Persistent corruption (a bad source buffer): every resend is equally
  // corrupt, so after the bounded retransmit budget the transport escalates
  // with sender/sequence attribution instead of recovering silently.
  {
    swmpi::FaultPlan plan;
    plan.corrupt_send(/*rank=*/1, /*nth_send=*/2, kMask, /*offset=*/0,
                      /*persistent=*/true);
    cell.injections += 1;
    try {
      (void)collective_run(&plan, nullptr);
    } catch (const CorruptMessageError&) {
      cell.persistent_escalated = true;
      cell.detected += 1;
    }
  }

  cell.detection_rate =
      cell.injections == 0
          ? 0.0
          : static_cast<double>(cell.detected) /
                static_cast<double>(cell.injections);
  cell.overhead_frac = cell.modeled_off_s > 0
                           ? cell.modeled_on_s / cell.modeled_off_s - 1.0
                           : 0.0;
  return cell;
}

void emit_sdc(const SdcCell& s, util::JsonWriter& w) {
  w.key("sdc").begin_object();
  w.kv("injections", static_cast<std::uint64_t>(s.injections));
  w.kv("detected", static_cast<std::uint64_t>(s.detected));
  w.kv("detection_rate", s.detection_rate);
  w.kv("localized_retries", static_cast<std::uint64_t>(s.localized_retries));
  w.kv("checkpoint_rollbacks", static_cast<std::uint64_t>(s.rollbacks));
  w.kv("abft_recomputed_panels", s.abft_recomputed);
  w.kv("transient_crc_fails", s.transient_crc_fails);
  w.kv("transient_retransmits", s.transient_retransmits);
  w.kv("persistent_escalated", s.persistent_escalated);
  w.kv("all_bit_identical_to_defense_off", s.all_bit_identical);
  w.kv("clean_centroid_max_abs_diff", s.clean_max_abs_diff);
  w.kv("modeled_defense_off_s", s.modeled_off_s);
  w.kv("modeled_defense_on_s", s.modeled_on_s);
  w.kv("modeled_overhead_frac", s.overhead_frac);
  w.key("levels").begin_array();
  for (const auto& pl : s.levels) {
    w.begin_object();
    w.kv("level", std::string_view(core::level_name(pl.level)));
    w.kv("injections", static_cast<std::uint64_t>(pl.injections));
    w.kv("detected", static_cast<std::uint64_t>(pl.detected));
    w.kv("localized_retries",
         static_cast<std::uint64_t>(pl.localized_retries));
    w.kv("checkpoint_rollbacks", static_cast<std::uint64_t>(pl.rollbacks));
    w.kv("abft_recomputed_panels", pl.abft_recomputed);
    w.kv("bit_identical_to_defense_off", pl.bit_identical);
    w.kv("clean_centroid_max_abs_diff", pl.clean_max_abs_diff);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

int check_sdc_cell(const SdcCell& s) {
  if (s.detection_rate != 1.0) {
    std::fprintf(stderr,
                 "FATAL: an injected corruption went undetected (%zu/%zu "
                 "drills caught)\n",
                 s.detected, s.injections);
    return 1;
  }
  if (s.rollbacks != 0) {
    std::fprintf(stderr,
                 "FATAL: SDC drills burned %zu checkpoint rollback(s) — "
                 "detection should recover with a localized in-memory "
                 "retry\n",
                 s.rollbacks);
    return 1;
  }
  if (s.localized_retries == 0) {
    std::fprintf(stderr,
                 "FATAL: no drill engaged the localized recovery path\n");
    return 1;
  }
  if (!s.all_bit_identical) {
    std::fprintf(stderr,
                 "FATAL: a drilled run diverged from the clean defense-off "
                 "run\n");
    return 1;
  }
  if (s.clean_max_abs_diff != 0.0) {
    std::fprintf(stderr,
                 "FATAL: arming the defense moved a corruption-free run "
                 "(centroid_max_abs_diff %.17g)\n",
                 s.clean_max_abs_diff);
    return 1;
  }
  if (!(s.overhead_frac > 0.0 && s.overhead_frac < 0.15)) {
    // Zero means the scrub/ABFT charges stopped landing in the cost model;
    // above the bound means the defense got too expensive to always arm.
    std::fprintf(stderr,
                 "FATAL: modeled defense overhead %.4f out of bounds "
                 "(need 0 < frac < 0.15)\n",
                 s.overhead_frac);
    return 1;
  }
  return 0;
}

int run_sdc() {
  bench::banner("wallclock_engines --sdc",
                "CI-sized SDC-defense drill matrix: deterministic bit flips "
                "and wire corruption vs the layered detectors "
                "(n=2048, k=8, d=6)");
  const SdcCell cell = run_sdc_cell();
  util::Table table({"cell", "injections", "detected", "localized_retries",
                     "rollbacks", "bit_identical"});
  for (const auto& pl : cell.levels) {
    table.new_row()
        .add(core::level_name(pl.level))
        .add(static_cast<std::uint64_t>(pl.injections))
        .add(static_cast<std::uint64_t>(pl.detected))
        .add(static_cast<std::uint64_t>(pl.localized_retries))
        .add(static_cast<std::uint64_t>(pl.rollbacks))
        .add(pl.bit_identical ? "yes" : "NO");
  }
  table.new_row()
      .add("transport")
      .add(std::uint64_t{2})
      .add(static_cast<std::uint64_t>(
          (cell.transient_crc_fails > 0 ? 1 : 0) +
          (cell.persistent_escalated ? 1 : 0)))
      .add(std::uint64_t{0})
      .add(std::uint64_t{0})
      .add("yes");
  {
    std::ofstream json("BENCH_sdc.json");
    util::JsonWriter w(json);
    w.begin_object();
    bench::emit_run_metadata(w);
    w.key("workload").begin_object();
    w.kv("n", std::uint64_t{2048});
    w.kv("k", std::uint64_t{8});
    w.kv("d", std::uint64_t{6});
    w.end_object();
    emit_sdc(cell, w);
    w.end_object();
    json << "\n";
  }
  bench::emit(table, "wallclock_sdc");
  std::printf("sdc detection: %zu/%zu (rate %.2f), localized retries %zu, "
              "rollbacks %zu, abft-repaired panels %llu, modeled defense "
              "overhead %.2f%%\n",
              cell.detected, cell.injections, cell.detection_rate,
              cell.localized_retries, cell.rollbacks,
              static_cast<unsigned long long>(cell.abft_recomputed),
              cell.overhead_frac * 100.0);
  std::printf("(json: BENCH_sdc.json)\n");
  return check_sdc_cell(cell);
}

/// A/B telemetry cell: the same Level 3 run with the telemetry session off
/// and on (metrics + wall spans + simulated trace), best-of-3 wall clock
/// each way. On the instrumented side the final repetition's session is
/// exported as the observability artifact pair (trace.json, report.json).
struct TelemetryCell {
  double plain_s = 0;
  double instrumented_s = 0;
  double overhead_frac = 0;
  bool identical = false;   ///< results bit-identical, telemetry on vs off
  bool reconciled = false;  ///< report metrics agree with iteration history
  bool flight_identical = false;  ///< flight recorder on vs off, same session
  /// Cross-check of the two independent timing paths: per iteration,
  /// max |Σ critical-path phase attributions − history simulated_s| and
  /// |Σ attributions − critical_s|. Exact-zero by construction (same
  /// doubles, same max, same sum order); gated at 1e-9.
  double attribution_max_abs_err = 0;
  telemetry::CriticalPathReport critical_path;
};

TelemetryCell run_telemetry_cell() {
  // Big enough that compute dominates thread spawn and clock reads — the
  // overhead fraction means something; still well under a second for CI.
  const data::Dataset ds = data::make_blobs(8192, 64, 40, 515);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(2, 4, 8192);
  core::KmeansConfig config;
  config.k = 64;
  config.max_iterations = 10;
  config.tolerance = -1;
  config.init = core::InitMethod::kFirstK;
  // Best-of-5 per side: the minimum of a handful of interleaved runs is
  // the scheduler-noise-free estimate on a shared CI host.
  constexpr int kReps = 5;

  TelemetryCell cell;
  (void)core::run_level(core::Level::kLevel3, ds, config, machine);  // warm-up
  core::KmeansResult plain;
  // Interleave the A and B repetitions so cache/thermal drift over the
  // measurement hits both sides equally; keep the best of each.
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch plain_clock;
    core::KmeansResult r =
        core::run_level(core::Level::kLevel3, ds, config, machine);
    const double plain_s = plain_clock.seconds();
    if (rep == 0 || plain_s < cell.plain_s) {
      cell.plain_s = plain_s;
    }
    plain = std::move(r);

    telemetry::Telemetry session;
    simarch::Trace trace;
    core::KmeansConfig instrumented_config = config;
    instrumented_config.telemetry = &session;
    instrumented_config.trace = &trace;
    util::Stopwatch clock;
    const core::KmeansResult instrumented = core::run_level(
        core::Level::kLevel3, ds, instrumented_config, machine);
    const double s = clock.seconds();
    if (rep == 0 || s < cell.instrumented_s) {
      cell.instrumented_s = s;
    }
    if (rep + 1 < kReps) {
      continue;
    }
    // Last repetition: check identity and export the artifacts.
    cell.identical =
        plain.iterations == instrumented.iterations &&
        plain.assignments == instrumented.assignments &&
        std::memcmp(plain.centroids.data(), instrumented.centroids.data(),
                    plain.centroids.size() * sizeof(float)) == 0;

    // Flight-recorder-specific identity: the plain side above has no
    // telemetry at all; this run keeps the session but disarms only the
    // rings, so a recorder-induced divergence can't hide behind the
    // coarser on/off check.
    {
      telemetry::TelemetryConfig no_flight;
      no_flight.flight = false;
      telemetry::Telemetry off_session(no_flight);
      core::KmeansConfig off_config = config;
      off_config.telemetry = &off_session;
      const core::KmeansResult off = core::run_level(
          core::Level::kLevel3, ds, off_config, machine);
      cell.flight_identical =
          off.iterations == instrumented.iterations &&
          off.assignments == instrumented.assignments &&
          std::memcmp(off.centroids.data(), instrumented.centroids.data(),
                      off.centroids.size() * sizeof(float)) == 0;
    }

    // Critical-path attribution over the instrumented run's trace, plus
    // the acceptance cross-check: each iteration's phase attributions must
    // sum to both the analyzer's critical_s and the engine-recorded
    // simulated_s (two independent code paths to the same number).
    cell.critical_path = telemetry::analyze_critical_path(trace);
    const auto& cp_iters = cell.critical_path.iterations;
    for (std::size_t i = 0;
         i < cp_iters.size() && i < instrumented.history.size(); ++i) {
      double phase_sum = 0;
      for (std::size_t p = 0; p < simarch::kPhaseCount; ++p) {
        phase_sum += cp_iters[i].phase_s[p];
      }
      const double vs_history =
          std::fabs(phase_sum - instrumented.history[i].simulated_s);
      const double vs_critical = std::fabs(phase_sum - cp_iters[i].critical_s);
      cell.attribution_max_abs_err = std::max(
          {cell.attribution_max_abs_err, vs_history, vs_critical});
    }

    telemetry::RunReport report;
    report.run_id = "smoke-level3";
    report.shape = core::ProblemShape{ds.n(), config.k, ds.d()};
    report.level = core::Level::kLevel3;
    report.config = config;
    report.machine_summary = machine.summary();
    if (const auto choice = core::best_plan_for_level(
            core::Level::kLevel3, report.shape, machine)) {
      report.plan_summary = choice->plan.describe();
    }
    report.set_result(instrumented);
    report.metrics = session.metrics().merged();
    report.has_critical_path = true;
    report.critical_path = cell.critical_path;
    cell.reconciled = telemetry::reconciles(report);

    std::ofstream report_out("report.json");
    report.write_json(report_out);
    std::ofstream trace_out("trace.json");
    telemetry::write_chrome_trace(trace_out, &trace, &session.spans(), {},
                                  &cell.critical_path);
  }
  cell.overhead_frac =
      cell.plain_s > 0 ? (cell.instrumented_s - cell.plain_s) / cell.plain_s
                       : 0;
  return cell;
}

/// Mailbox cell: one Level 3 run on the lock-free SPSC ring mailboxes with
/// the double-buffered tile pipeline.
///
/// The headline number is the modeled iteration clock (the paper's
/// metric): what share of `last_iteration_cost.total_s()` the ranks spend
/// in per-tile combine traffic (`net_comm_s`). The shape forces a sliced
/// plan (m'_group = 4) so every tile's MinLoc2 combine is a real 4-way
/// allreduce; the pipeline issues tile t's combine under tile t+1's
/// distance sweep. The no-overlap baseline is a cost function of the same
/// run: the pipeline moved exactly the seconds it hid into the
/// overlapped_* ledgers, so adding them back gives the strictly sequential
/// model's share,
///   (net_comm_s + overlapped_net_s) /
///   (total_s() + overlapped_net_s + overlapped_dma_s),
/// and the pipelined share must sit well below it. Deterministic — the
/// model does not see host scheduling.
///
/// Host-observed stall (Σ swmpi.recv.stall_s across ranks / aggregate
/// rank-seconds, i.e. elapsed wall seconds x rank count, best of N) rides
/// along as a secondary signal. The stall sum spans every rank thread, so
/// dividing by one host wall clock would let the share exceed 1.0 whenever
/// more than one rank blocks at once; rank-seconds is the denominator that
/// makes it a true utilisation fraction. On shared or single-core CI hosts
/// the rank threads oversubscribe the machine and every blocking
/// collective waits on the scheduler regardless of the transport, so the
/// host number is informational only — same caveat as the other
/// wall-clock cells. The run must stay byte-identical to serial Lloyd.
struct MailboxCell {
  double no_overlap_stall_share = 0;  ///< modeled net share, no overlap
  double ring_stall_share = 0;        ///< modeled net share, pipelined
  double improvement = 0;             ///< no-overlap share / ring share
  double host_ring_stall_share = 0;
  bool identical = false;
};

MailboxCell run_mailbox_cell() {
  // High-d shape on purpose: the MinLoc2 combine carries 24 bytes per
  // sample regardless of d, while the sweep compute window that hides it
  // grows with d*k — so the overlap's effect on the modeled iteration
  // clock is visible instead of being rounded away by update-phase
  // traffic.
  const data::Dataset ds = data::make_blobs(4096, 256, 8, 515);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(2, 4, 8192);
  constexpr std::size_t kMprimeGroup = 4;
  core::KmeansConfig config;
  config.k = 96;
  config.max_iterations = 6;
  config.tolerance = -1;
  config.init = core::InitMethod::kFirstK;
  config.gate_assign = false;
  // Pin the chain kernel: this cell isolates mailbox transport + tile
  // pipelining, so the sweep that hides the combine must stay the one the
  // pipeline baseline was calibrated against. The GEMM sweep is ~4x
  // faster, which (correctly) shrinks the overlap window and the stall
  // share contrast — that trade-off is the gemm_assign cell's story.
  config.gemm_assign = false;
  // Small tiles so each rank runs a deep tile pipeline (64 tiles) rather
  // than a handful of wide ones.
  config.tile_samples = 64;
  constexpr int kReps = 2;

  MailboxCell cell;
  core::KmeansResult result;
  // Best-of-N host share: the minimum is the scheduler-noise-free estimate
  // of how much stall is structural rather than preemption.
  for (int rep = 0; rep < kReps; ++rep) {
    telemetry::Telemetry session;
    core::KmeansConfig run_config = config;
    run_config.telemetry = &session;
    util::Stopwatch clock;
    result = core::run_level(core::Level::kLevel3, ds, run_config, machine, 0,
                             kMprimeGroup);
    const double wall_s = clock.seconds();
    const auto snap = session.metrics().merged();
    double stall_s = 0;
    if (const auto it = snap.histograms.find("swmpi.recv.stall_s");
        it != snap.histograms.end()) {
      stall_s = it->second.sum;
    }
    // Aggregate rank-seconds denominator: stall_s sums over all rank
    // threads, so the share is per-rank-time, not per-wall-time.
    const double rank_seconds =
        wall_s * static_cast<double>(machine.num_cgs());
    double share = rank_seconds > 0 ? stall_s / rank_seconds : 0;
    if (share > 1.0) {
      std::cerr << "wallclock_engines: host stall share " << share
                << " > 1.0 (scheduler preemption inflated the stall "
                   "clocks); clamping\n";
      share = 1.0;
    }
    if (rep == 0 || share < cell.host_ring_stall_share) {
      cell.host_ring_stall_share = share;
    }
  }

  const simarch::CostTally& cost = result.last_iteration_cost;
  cell.ring_stall_share =
      cost.total_s() > 0 ? cost.net_comm_s / cost.total_s() : 0;
  const double no_overlap_total_s =
      cost.total_s() + cost.overlapped_net_s + cost.overlapped_dma_s;
  cell.no_overlap_stall_share =
      no_overlap_total_s > 0
          ? (cost.net_comm_s + cost.overlapped_net_s) / no_overlap_total_s
          : 0;
  // Floor the denominator: a fully-hidden combine models zero net stall.
  cell.improvement =
      cell.no_overlap_stall_share / std::max(cell.ring_stall_share, 1e-12);
  const core::KmeansResult ref = core::lloyd_serial(ds, config);
  cell.identical =
      result.iterations == ref.iterations &&
      result.assignments == ref.assignments &&
      result.centroids.size() == ref.centroids.size() &&
      std::memcmp(result.centroids.data(), ref.centroids.data(),
                  ref.centroids.size() * sizeof(float)) == 0;
  return cell;
}

void emit_mailbox(const MailboxCell& m, util::JsonWriter& w) {
  w.key("mailbox").begin_object();
  w.kv("no_overlap_stall_share", m.no_overlap_stall_share);
  w.kv("ring_stall_share", m.ring_stall_share);
  w.kv("stall_share_improvement", m.improvement);
  w.kv("host_observed_ring_stall_share", m.host_ring_stall_share);
  w.kv("bit_identical", m.identical);
  w.end_object();
}

/// GEMM + s-step cell (modeled, deterministic): the Level 3 engine on the
/// simulated machine, compared along the two axes this kernel moves.
///
///   FLOP rate — the same fixed-iteration ungated run with the
///     GEMM-formulated sweep vs the multi-chain kernel: modeled
///     assign-phase flops per modeled compute second. The flop *count* is
///     identical (the GEMM path adds only the small norm-cache refresh);
///     the sustained-efficiency and per-row-overhead parameters move, so
///     the rate must improve.
///   Collective rounds — the same ungated run at sstep_tiles 1 vs 4. Every
///     span launches on an ungated fixed-iteration run, so the
///     assign-phase round count (net_rounds minus the two update-phase
///     rounds per iteration) must drop by exactly the fold factor.
///
/// Bit-identity rides along: GEMM engine runs (gated and ungated, s-step
/// on) to convergence vs serial Lloyd, with the centroid max-abs-diff
/// required to be exactly 0.0.
struct GemmCell {
  double gemm_flop_rate = 0;   ///< modeled flops / modeled compute_s
  double chain_flop_rate = 0;
  double flop_rate_gain = 0;
  std::uint64_t assign_rounds_s1 = 0;
  std::uint64_t assign_rounds_s4 = 0;
  double round_cut = 0;             ///< s1 rounds / s4 rounds
  double centroid_max_abs_diff = 0;
  bool identical = false;
};

GemmCell run_gemm_cell() {
  const data::Dataset ds = data::make_blobs(2048, 16, 12, 616);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(2, 4, 8192);
  // Force the 4-way sliced plan so every span's combine is a real
  // group-wide collective with countable rounds.
  constexpr std::size_t kMprime = 4;
  core::KmeansConfig config;
  config.k = 24;
  config.max_iterations = 6;
  config.tolerance = -1;  // fixed-iteration: round counts compare cleanly
  config.init = core::InitMethod::kFirstK;
  // Ungated so every span launches its combine — the round ratio is then
  // the pure s-step factor, not a function of which tiles happened to be
  // fully pruned at each fold width.
  config.gate_assign = false;
  config.tile_samples = 64;

  GemmCell cell;
  core::KmeansConfig s1 = config;
  s1.sstep_tiles = 1;
  const core::KmeansResult r1 =
      core::run_level(core::Level::kLevel3, ds, s1, machine, 0, kMprime);
  core::KmeansConfig s4 = config;
  s4.sstep_tiles = 4;
  const core::KmeansResult r4 =
      core::run_level(core::Level::kLevel3, ds, s4, machine, 0, kMprime);
  core::KmeansConfig chain = config;
  chain.gemm_assign = false;
  const core::KmeansResult rc =
      core::run_level(core::Level::kLevel3, ds, chain, machine, 0, kMprime);

  const auto assign_rounds = [](const core::KmeansResult& r) {
    // Each iteration charges exactly two update-phase rounds
    // (reduce_scatter + allgather); the rest are assign combines.
    return r.cost.net_rounds - 2 * static_cast<std::uint64_t>(r.iterations);
  };
  cell.assign_rounds_s1 = assign_rounds(r1);
  cell.assign_rounds_s4 = assign_rounds(r4);
  cell.round_cut = cell.assign_rounds_s4 > 0
                       ? static_cast<double>(cell.assign_rounds_s1) /
                             static_cast<double>(cell.assign_rounds_s4)
                       : 0;
  cell.gemm_flop_rate =
      r1.cost.compute_s > 0
          ? static_cast<double>(r1.cost.flops) / r1.cost.compute_s
          : 0;
  cell.chain_flop_rate =
      rc.cost.compute_s > 0
          ? static_cast<double>(rc.cost.flops) / rc.cost.compute_s
          : 0;
  cell.flop_rate_gain = cell.chain_flop_rate > 0
                            ? cell.gemm_flop_rate / cell.chain_flop_rate
                            : 0;

  // Bit-identity to convergence, s-step engaged both gated and ungated.
  core::KmeansConfig conv = config;
  conv.max_iterations = 30;
  conv.tolerance = 0;
  conv.sstep_tiles = 2;
  const core::KmeansResult ungated =
      core::run_level(core::Level::kLevel3, ds, conv, machine, 0, kMprime);
  conv.gate_assign = true;
  const core::KmeansResult gated =
      core::run_level(core::Level::kLevel3, ds, conv, machine, 0, kMprime);
  const core::KmeansResult serial = core::lloyd_serial(ds, conv);
  double max_diff = 0;
  for (std::size_t i = 0; i < serial.centroids.size(); ++i) {
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(gated.centroids.data()[i]) -
                           static_cast<double>(serial.centroids.data()[i])));
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(ungated.centroids.data()[i]) -
                           static_cast<double>(serial.centroids.data()[i])));
  }
  cell.centroid_max_abs_diff = max_diff;
  cell.identical = gated.iterations == serial.iterations &&
                   ungated.iterations == serial.iterations &&
                   gated.assignments == serial.assignments &&
                   ungated.assignments == serial.assignments &&
                   max_diff == 0.0;
  return cell;
}

void emit_gemm(const GemmCell& c, util::JsonWriter& w) {
  w.key("gemm_assign").begin_object();
  w.kv("modeled_flop_rate_gemm", c.gemm_flop_rate);
  w.kv("modeled_flop_rate_multichain", c.chain_flop_rate);
  w.kv("flop_rate_gain", c.flop_rate_gain);
  w.kv("assign_rounds_sstep1", c.assign_rounds_s1);
  w.kv("assign_rounds_sstep4", c.assign_rounds_s4);
  w.kv("round_cut", c.round_cut);
  w.kv("centroid_max_abs_diff", c.centroid_max_abs_diff);
  w.kv("bit_identical_to_serial_lloyd", c.identical);
  w.end_object();
  std::printf("gemm assign: modeled flop rate %.3g vs %.3g flop/s (%.2fx), "
              "assign rounds %llu -> %llu at sstep=4 (%.1fx cut), "
              "centroid_max_abs_diff %g, bit-identical: %s\n",
              c.gemm_flop_rate, c.chain_flop_rate, c.flop_rate_gain,
              static_cast<unsigned long long>(c.assign_rounds_s1),
              static_cast<unsigned long long>(c.assign_rounds_s4),
              c.round_cut, c.centroid_max_abs_diff,
              c.identical ? "yes" : "NO");
}

/// Shared modeled-quantity gate for run() and run_smoke(): the GEMM cell
/// is fully deterministic, so any miss is a real kernel / cost-model /
/// s-step regression, never bench noise.
int check_gemm_cell(const GemmCell& gemm) {
  if (!gemm.identical) {
    std::fprintf(stderr,
                 "FATAL: gemm assign diverged from serial Lloyd "
                 "(centroid_max_abs_diff=%g)\n",
                 gemm.centroid_max_abs_diff);
    return 1;
  }
  if (gemm.round_cut < 4.0) {
    std::fprintf(stderr,
                 "FATAL: s-step deferred reduction cut assign rounds only "
                 "%.2fx at sstep=4 (need >= 4x)\n",
                 gemm.round_cut);
    return 1;
  }
  if (gemm.flop_rate_gain <= 1.0) {
    std::fprintf(stderr,
                 "FATAL: gemm sweep's modeled FLOP rate did not improve "
                 "(%.2fx vs multi-chain)\n",
                 gemm.flop_rate_gain);
    return 1;
  }
  return 0;
}

/// Hierarchical-collective cell (modeled + engine A/B, deterministic).
///
/// Modeled side, at paper scale: the fig7 workload's Level 3 plan on
/// sw26010(512) — two supernodes, so the flat recursive-doubling
/// collectives push every rank's payload through the central switch at
/// the supernode-crossing stages. The same iteration modeled through the
/// two-level schedule must cut the supernode-crossing bytes at least 2x.
/// A crossover table (payload -> chosen inter algorithm + modeled
/// seconds for tree / rs+ag / flat) records where the size-adaptive
/// selection flips.
///
/// Engine side, at test scale: tiny(8, 4, 8192) is 16 CGs over two
/// 8-rank supernode groups, so the runtime schedule really runs its
/// inter-supernode stage (pointer-publish intra fold, leader exchange,
/// fan-out) through every collective of a full Level 3 run — gated, GEMM,
/// s-step spans draining through the hierarchical SplitAllreduce. The
/// run must be bit-identical to the flat-schedule run and to serial
/// Lloyd, and its charged crossing bytes must be nonzero (the inter
/// stage was actually priced).
struct HierCell {
  std::size_t crossover_bytes = 0;      ///< machine-derived threshold
  std::uint64_t flat_crossing = 0;      ///< modeled, per fig7 iteration
  std::uint64_t hier_crossing = 0;
  double crossing_cut = 0;              ///< flat / hier
  struct Row {
    std::size_t payload_bytes = 0;
    const char* algo = "";
    double tree_s = 0;
    double rsag_s = 0;
    double flat_s = 0;
  };
  std::vector<Row> table;
  double hier_net_s = 0;   ///< engine run, modeled collective seconds
  double flat_net_s = 0;
  std::uint64_t engine_crossing = 0;  ///< hier engine run, history sum
  double centroid_max_abs_diff = 0;
  bool identical = false;
};

HierCell run_hier_cell() {
  HierCell cell;

  // --- modeled side: fig7 workload on two supernodes ---
  const simarch::MachineConfig mc512 = simarch::MachineConfig::sw26010(512);
  cell.crossover_bytes = mc512.collective_crossover_bytes();
  const core::ProblemShape shape{1265723, 2000, 196608};
  const core::PartitionPlan plan =
      core::make_plan(core::Level::kLevel3, shape, mc512, 0, 16);
  const simarch::CostTally hier_t = core::model_iteration(
      plan, mc512, core::Placement::kPacked, /*hier_collectives=*/true);
  const simarch::CostTally flat_t = core::model_iteration(
      plan, mc512, core::Placement::kPacked, /*hier_collectives=*/false);
  cell.flat_crossing = flat_t.net_crossing_bytes;
  cell.hier_crossing = hier_t.net_crossing_bytes;
  cell.crossing_cut =
      cell.hier_crossing > 0
          ? static_cast<double>(cell.flat_crossing) /
                static_cast<double>(cell.hier_crossing)
          : 0;

  // Crossover table: what the size-adaptive selection picks per payload,
  // with both inter algorithms priced (crossover 0 forces rs+ag,
  // SIZE_MAX forces the tree) and the flat whole-world charge alongside.
  const simarch::Topology topo(mc512);
  const std::size_t cgs = mc512.num_cgs();
  for (const std::size_t bytes :
       {std::size_t{72}, std::size_t{1} << 10, std::size_t{1} << 14,
        std::size_t{1} << 17, std::size_t{1} << 18, std::size_t{1} << 20,
        std::size_t{1} << 23}) {
    HierCell::Row row;
    row.payload_bytes = bytes;
    const simarch::CollectiveCharge chosen =
        topo.hier_allreduce_charge(bytes, 0, cgs, cell.crossover_bytes);
    row.algo = simarch::to_string(chosen.algo);
    row.tree_s = topo.hier_allreduce_charge(bytes, 0, cgs,
                                            static_cast<std::size_t>(-1))
                     .seconds;
    row.rsag_s = topo.hier_allreduce_charge(bytes, 0, cgs, 0).seconds;
    row.flat_s = topo.allreduce_time(bytes, 0, cgs);
    cell.table.push_back(row);
  }

  // --- engine side: two supernode groups at runtime ---
  const data::Dataset ds = data::make_blobs(2048, 16, 12, 717);
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(8, 4, 8192);  // 16 CGs, 2 supernodes
  constexpr std::size_t kMprime = 4;
  core::KmeansConfig config;
  config.k = 24;
  config.max_iterations = 30;
  config.tolerance = 0;
  config.init = core::InitMethod::kFirstK;
  config.sstep_tiles = 2;  // spans drain through the hier SplitAllreduce
  config.tile_samples = 64;

  config.hier_collectives = true;
  const core::KmeansResult hier_run =
      core::run_level(core::Level::kLevel3, ds, config, machine, 0, kMprime);
  config.hier_collectives = false;
  const core::KmeansResult flat_run =
      core::run_level(core::Level::kLevel3, ds, config, machine, 0, kMprime);
  const core::KmeansResult serial = core::lloyd_serial(ds, config);

  cell.hier_net_s = hier_run.cost.net_comm_s;
  cell.flat_net_s = flat_run.cost.net_comm_s;
  for (const core::IterationStats& it : hier_run.history) {
    cell.engine_crossing += it.net_crossing_bytes;
  }
  double max_diff = 0;
  for (std::size_t i = 0; i < serial.centroids.size(); ++i) {
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(hier_run.centroids.data()[i]) -
                           static_cast<double>(serial.centroids.data()[i])));
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(flat_run.centroids.data()[i]) -
                           static_cast<double>(serial.centroids.data()[i])));
  }
  cell.centroid_max_abs_diff = max_diff;
  cell.identical =
      hier_run.iterations == serial.iterations &&
      flat_run.iterations == serial.iterations &&
      hier_run.assignments == serial.assignments &&
      flat_run.assignments == serial.assignments &&
      std::memcmp(hier_run.centroids.data(), flat_run.centroids.data(),
                  hier_run.centroids.size() * sizeof(float)) == 0 &&
      max_diff == 0.0;
  return cell;
}

void emit_hier(const HierCell& c, util::JsonWriter& w) {
  w.key("hier_collectives").begin_object();
  w.kv("crossover_bytes", static_cast<std::uint64_t>(c.crossover_bytes));
  w.kv("fig7_flat_crossing_bytes", c.flat_crossing);
  w.kv("fig7_hier_crossing_bytes", c.hier_crossing);
  w.kv("crossing_cut", c.crossing_cut);
  w.key("crossover_table").begin_array();
  for (const HierCell::Row& row : c.table) {
    w.begin_object();
    w.kv("payload_bytes", static_cast<std::uint64_t>(row.payload_bytes));
    w.kv("algo", row.algo);
    w.kv("tree_s", row.tree_s);
    w.kv("rsag_s", row.rsag_s);
    w.kv("flat_s", row.flat_s);
    w.end_object();
  }
  w.end_array();
  w.kv("engine_hier_net_comm_s", c.hier_net_s);
  w.kv("engine_flat_net_comm_s", c.flat_net_s);
  w.kv("engine_hier_crossing_bytes", c.engine_crossing);
  w.kv("centroid_max_abs_diff", c.centroid_max_abs_diff);
  w.kv("bit_identical_to_flat_and_serial", c.identical);
  w.end_object();
  std::printf(
      "hier collectives: crossover %zu B, fig7 crossing %llu -> %llu B "
      "(%.1fx cut); engine net_comm %.3gs vs flat %.3gs, crossing %llu B, "
      "bit-identical: %s\n",
      c.crossover_bytes, static_cast<unsigned long long>(c.flat_crossing),
      static_cast<unsigned long long>(c.hier_crossing), c.crossing_cut,
      c.hier_net_s, c.flat_net_s,
      static_cast<unsigned long long>(c.engine_crossing),
      c.identical ? "yes" : "NO");
}

/// Shared exit gate: all modeled/bit-identity quantities, deterministic.
int check_hier_cell(const HierCell& c) {
  if (!c.identical) {
    std::fprintf(stderr,
                 "FATAL: hierarchical-collective run diverged from the flat "
                 "schedule / serial Lloyd (centroid_max_abs_diff=%g)\n",
                 c.centroid_max_abs_diff);
    return 1;
  }
  if (c.crossing_cut < 2.0) {
    std::fprintf(stderr,
                 "FATAL: hierarchical schedule cut modeled supernode-crossing "
                 "bytes only %.2fx on the fig7 workload (need >= 2x)\n",
                 c.crossing_cut);
    return 1;
  }
  if (c.engine_crossing == 0) {
    std::fprintf(stderr,
                 "FATAL: engine run on a two-supernode machine charged zero "
                 "supernode-crossing bytes\n");
    return 1;
  }
  return 0;
}

int run_smoke() {
  bench::banner("wallclock_engines --smoke",
                "CI-sized bound-gate check: gated vs ungated assign to "
                "convergence (n=1024, k=16, d=8, 4-CG group)");
  const GatedSection g = run_gated_section(1024, 16, 8, kGroupCgs, 40);
  const TelemetryCell tel = run_telemetry_cell();
  const MailboxCell mbox = run_mailbox_cell();
  const GemmCell gemm = run_gemm_cell();
  const HierCell hier = run_hier_cell();
  const SdcCell sdc = run_sdc_cell();
  {
    std::ofstream json("BENCH_wallclock.json");
    util::JsonWriter w(json);
    w.begin_object();
    w.kv("smoke", true);
    bench::emit_run_metadata(w);
    w.key("workload").begin_object();
    w.kv("n", std::uint64_t{1024});
    w.kv("k", std::uint64_t{16});
    w.kv("d", std::uint64_t{8});
    w.kv("group_cgs", static_cast<std::uint64_t>(kGroupCgs));
    w.end_object();
    emit_gated(g, w);
    emit_sdc(sdc, w);
    w.key("telemetry").begin_object();
    w.kv("plain_s", tel.plain_s);
    w.kv("instrumented_s", tel.instrumented_s);
    w.kv("overhead_frac", tel.overhead_frac);
    w.kv("bit_identical", tel.identical);
    w.kv("metrics_reconcile_with_history", tel.reconciled);
    w.kv("trace", "trace.json");
    w.kv("report", "report.json");
    w.end_object();
    w.key("critical_path").begin_object();
    w.kv("iterations",
         static_cast<std::uint64_t>(tel.critical_path.iterations.size()));
    w.kv("total_critical_s", tel.critical_path.total_critical_s);
    w.kv("total_blame_s", tel.critical_path.total_blame_s);
    w.kv("attribution_max_abs_err", tel.attribution_max_abs_err);
    w.kv("flight_bit_identical", tel.flight_identical);
    w.key("stragglers").begin_array();
    for (const auto& s : tel.critical_path.stragglers) {
      w.begin_object();
      w.kv("cg", static_cast<std::uint64_t>(s.cg));
      w.kv("gated_iterations",
           static_cast<std::uint64_t>(s.gated_iterations));
      w.kv("blame_s", s.blame_s);
      w.kv("share", s.share);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    emit_mailbox(mbox, w);
    emit_gemm(gemm, w);
    emit_hier(hier, w);
    w.end_object();
    json << "\n";
  }
  std::printf("telemetry overhead: %.2f%% (plain %.6fs, instrumented %.6fs), "
              "bit-identical: %s, metrics reconcile: %s\n",
              tel.overhead_frac * 100.0, tel.plain_s, tel.instrumented_s,
              tel.identical ? "yes" : "NO", tel.reconciled ? "yes" : "NO");
  if (!tel.critical_path.stragglers.empty()) {
    const auto& top = tel.critical_path.stragglers.front();
    std::printf("critical path: %zu iterations, %.6fs critical, top "
                "straggler cg %u (gated %u iters, blame %.6fs = %.1f%% "
                "share), attribution err %.3g, flight on/off identical: %s\n",
                tel.critical_path.iterations.size(),
                tel.critical_path.total_critical_s, top.cg,
                top.gated_iterations, top.blame_s, top.share * 100.0,
                tel.attribution_max_abs_err,
                tel.flight_identical ? "yes" : "NO");
  }
  std::printf("mailbox stall share of modeled iteration: no overlap %.2f%%, "
              "pipelined rings %.2f%% (%.1fx cut); host-observed: rings "
              "%.2f%%; bit-identical: %s\n",
              mbox.no_overlap_stall_share * 100.0,
              mbox.ring_stall_share * 100.0, mbox.improvement,
              mbox.host_ring_stall_share * 100.0,
              mbox.identical ? "yes" : "NO");
  std::printf("sdc defense: %zu/%zu injections detected, %zu localized "
              "retries, %zu rollbacks, modeled overhead %.2f%%\n",
              sdc.detected, sdc.injections, sdc.localized_retries,
              sdc.rollbacks, sdc.overhead_frac * 100.0);
  std::printf("(artifacts: BENCH_wallclock.json, trace.json, report.json)\n");
  if (!g.identical) {
    std::fprintf(stderr,
                 "FATAL: gated assign diverged from ungated/serial Lloyd\n");
    return 1;
  }
  if (!mbox.identical) {
    std::fprintf(stderr,
                 "FATAL: pipelined ring-mailbox run diverged from serial "
                 "Lloyd\n");
    return 1;
  }
  if (mbox.improvement < 2.0) {
    // The modeled shares are deterministic, so this is a real regression
    // in the tile pipeline or the cost model, not bench noise.
    std::fprintf(stderr,
                 "FATAL: the tile pipeline cut the modeled stall share only "
                 "%.2fx against its no-overlap cost (need >= 2x)\n",
                 mbox.improvement);
    return 1;
  }
  if (!tel.identical) {
    std::fprintf(stderr,
                 "FATAL: telemetry changed the result of the run\n");
    return 1;
  }
  if (!tel.reconciled) {
    std::fprintf(stderr,
                 "FATAL: telemetry counters disagree with the iteration "
                 "history\n");
    return 1;
  }
  if (!tel.flight_identical) {
    std::fprintf(stderr,
                 "FATAL: the flight recorder changed the result of the run\n");
    return 1;
  }
  if (tel.critical_path.iterations.empty() ||
      tel.critical_path.stragglers.empty()) {
    std::fprintf(stderr,
                 "FATAL: critical-path analysis produced no iterations or "
                 "straggler rows\n");
    return 1;
  }
  if (tel.attribution_max_abs_err > 1e-9) {
    std::fprintf(stderr,
                 "FATAL: critical-path phase attributions disagree with the "
                 "modeled iteration times (max err %.3g > 1e-9)\n",
                 tel.attribution_max_abs_err);
    return 1;
  }
  if (const int rc = check_gemm_cell(gemm); rc != 0) {
    return rc;
  }
  if (const int rc = check_sdc_cell(sdc); rc != 0) {
    return rc;
  }
  return check_hier_cell(hier);
}

int run() {
  bench::banner("wallclock_engines",
                "host wall-clock of the Level 3 assign phase, per-sample vs "
                "batched collectives (n=8192, k=256, d=128, 4-CG group)");

  const data::Dataset ds = data::make_uniform(kN, kD, 2024);
  core::KmeansConfig config;
  config.k = kK;
  config.max_iterations = 1;
  config.tolerance = -1;
  config.init = core::InitMethod::kFirstK;
  const util::Matrix centroids = core::init_centroids(ds, config);
  const std::size_t k_local = (kK + kGroupCgs - 1) / kGroupCgs;

  // Warm-up pass so thread creation and page faults hit neither timing.
  (void)assign_batched(ds, centroids, k_local);

  // Best-of-N: the minimum is the run least disturbed by scheduler noise,
  // which matters on shared/oversubscribed hosts. Winners are identical
  // across repetitions (deterministic), so any repetition's copy serves.
  constexpr int kReps = 3;
  AssignTiming batched = assign_batched(ds, centroids, k_local);
  AssignTiming per_sample = assign_per_sample(ds, centroids, k_local);
  for (int rep = 1; rep < kReps; ++rep) {
    batched.seconds =
        std::min(batched.seconds, assign_batched(ds, centroids, k_local).seconds);
    per_sample.seconds = std::min(per_sample.seconds,
                                  assign_per_sample(ds, centroids, k_local).seconds);
  }
  if (per_sample.winners != batched.winners) {
    std::fprintf(stderr,
                 "FATAL: batched assign diverged from per-sample assign\n");
    return 1;
  }
  const double speedup = per_sample.seconds / batched.seconds;

  // Update phase, both ways, from the same per-rank accumulators. One
  // round is ~100us, so each measurement runs kUpdateReps rounds
  // back-to-back (idempotent — see update_root_serialized).
  constexpr int kUpdateReps = 200;
  const std::vector<core::detail::UpdateAccumulator> accs =
      build_accumulators(ds, centroids);
  util::Matrix root_centroids = centroids;
  util::Matrix sharded_centroids = centroids;
  {
    util::Matrix warm = centroids;
    (void)update_sharded(accs, warm, 3);
  }
  double root_seconds =
      update_root_serialized(accs, root_centroids, kUpdateReps);
  double sharded_seconds =
      update_sharded(accs, sharded_centroids, kUpdateReps);
  for (int rep = 1; rep < kReps; ++rep) {
    util::Matrix rc = centroids;
    util::Matrix sc = centroids;
    root_seconds =
        std::min(root_seconds, update_root_serialized(accs, rc, kUpdateReps));
    sharded_seconds =
        std::min(sharded_seconds, update_sharded(accs, sc, kUpdateReps));
  }
  if (std::memcmp(root_centroids.data(), sharded_centroids.data(),
                  kK * kD * sizeof(float)) != 0) {
    std::fprintf(stderr,
                 "FATAL: sharded update diverged from root-serialized "
                 "update\n");
    return 1;
  }
  const double update_speedup = root_seconds / sharded_seconds;

  // Full engine iteration (assign + update + cost model) on a 4-CG
  // Level 3 machine, for the end-to-end trajectory.
  const simarch::MachineConfig machine =
      simarch::MachineConfig::tiny(2, 8, 16384);
  util::Stopwatch engine_clock;
  const core::KmeansResult engine = core::run_level(
      core::Level::kLevel3, ds, config, machine, 0, kGroupCgs);
  const double engine_seconds = engine_clock.seconds();

  // Bound gate: converging gated-vs-ungated comparison on the same cell.
  const GatedSection gate = run_gated_section(kN, kK, kD, kGroupCgs, 60);

  util::Table table({"phase", "wall_s", "collectives", "speedup"});
  const std::size_t tiles =
      (kN + core::detail::kAssignTileSamples - 1) /
      core::detail::kAssignTileSamples;
  table.new_row()
      .add("assign_per_sample")
      .add(per_sample.seconds, 6)
      .add(static_cast<std::uint64_t>(kN))
      .add(1.0, 2);
  table.new_row()
      .add("assign_batched")
      .add(batched.seconds, 6)
      .add(static_cast<std::uint64_t>(tiles))
      .add(speedup, 2);
  table.new_row()
      .add("update_root_serialized")
      .add(root_seconds, 6)
      .add(static_cast<std::uint64_t>(3 * kUpdateReps))
      .add(1.0, 2);
  table.new_row()
      .add("update_sharded")
      .add(sharded_seconds, 6)
      // partials allgather + stats allreduce per round
      .add(static_cast<std::uint64_t>(2 * kUpdateReps))
      .add(update_speedup, 2);
  double gated_total = 0;
  double ungated_total = 0;
  std::uint64_t gated_bytes = 0;
  std::uint64_t ungated_bytes = 0;
  for (std::size_t it = 0; it < gate.gated.iterations; ++it) {
    gated_total += gate.gated.assign_s[it];
    ungated_total += gate.ungated.assign_s[it];
    gated_bytes += gate.gated.collective_bytes[it];
    ungated_bytes += gate.ungated.collective_bytes[it];
  }
  table.new_row()
      .add("assign_ungated_converge")
      .add(ungated_total, 6)
      .add(ungated_bytes)
      .add(1.0, 2);
  table.new_row()
      .add("assign_gated_converge")
      .add(gated_total, 6)
      .add(gated_bytes)
      .add(gate.tail_speedup, 2);
  bench::emit(table, "wallclock_engines");

  const MailboxCell mbox = run_mailbox_cell();
  const GemmCell gemm = run_gemm_cell();
  const HierCell hier = run_hier_cell();

  std::ofstream json("BENCH_wallclock.json");
  util::JsonWriter w(json);
  w.begin_object();
  bench::emit_run_metadata(w);
  w.key("workload").begin_object();
  w.kv("n", static_cast<std::uint64_t>(kN));
  w.kv("k", static_cast<std::uint64_t>(kK));
  w.kv("d", static_cast<std::uint64_t>(kD));
  w.kv("group_cgs", static_cast<std::uint64_t>(kGroupCgs));
  w.end_object();
  w.kv("tile_samples",
       static_cast<std::uint64_t>(core::detail::kAssignTileSamples));
  w.kv("assign_per_sample_s", per_sample.seconds);
  w.kv("assign_batched_s", batched.seconds);
  w.kv("assign_speedup", speedup);
  w.kv("update_reps", static_cast<std::uint64_t>(kUpdateReps));
  w.kv("update_root_serialized_s", root_seconds);
  w.kv("update_sharded_s", sharded_seconds);
  w.kv("update_speedup", update_speedup);
  w.kv("level3_engine_iteration_s", engine_seconds);
  w.kv("simulated_iteration_s", engine.last_iteration_cost.total_s());
  emit_gated(gate, w);
  emit_mailbox(mbox, w);
  emit_gemm(gemm, w);
  emit_hier(hier, w);
  w.end_object();
  json << "\n";
  std::printf("assign speedup (per-sample / batched): %.2fx\n", speedup);
  std::printf("update speedup (root-serialized / sharded): %.2fx\n",
              update_speedup);
  std::printf("mailbox stall share of modeled iteration: no overlap %.2f%%, "
              "pipelined rings %.2f%% (%.1fx cut), bit-identical: %s\n",
              mbox.no_overlap_stall_share * 100.0,
              mbox.ring_stall_share * 100.0, mbox.improvement,
              mbox.identical ? "yes" : "NO");
  std::printf("(json: BENCH_wallclock.json)\n");
  if (!gate.identical) {
    std::fprintf(stderr,
                 "FATAL: gated assign diverged from ungated/serial Lloyd\n");
    return 1;
  }
  if (!mbox.identical) {
    std::fprintf(stderr,
                 "FATAL: pipelined ring-mailbox run diverged from serial "
                 "Lloyd\n");
    return 1;
  }
  if (const int rc = check_gemm_cell(gemm); rc != 0) {
    return rc;
  }
  if (const int rc = check_hier_cell(hier); rc != 0) {
    return rc;
  }
  // Exit gates ride on modeled quantities and bit-identity only. The
  // wall-clock ratios above (assign/update speedups, gated tail speedup)
  // depend on host load and core count — on an oversubscribed CI machine
  // the rank threads time-share one core and any ratio can land anywhere —
  // so they are reported for trend-tracking but never fail the bench.
  std::printf("wall-clock ratios are informational; exit gates on modeled "
              "quantities and bit-identity only\n");
  return mbox.improvement >= 2.0 ? 0 : 2;
}

}  // namespace
}  // namespace swhkm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      return swhkm::run_smoke();
    }
    if (std::string(argv[i]) == "--faults") {
      return swhkm::run_faults();
    }
    if (std::string(argv[i]) == "--sdc") {
      return swhkm::run_sdc();
    }
  }
  return swhkm::run();
}
