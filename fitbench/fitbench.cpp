// fitbench — end-to-end and per-layer benchmark of the clustering fit.
//
//   fitbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 times whole fits through the library's public calls (plan,
// init_centroids, run_level1/2/3 or RecoveryDriver::run), checks every fit
// byte for byte against core::lloyd_serial, then times set-up (plan +
// init_centroids) on its own several more times, and prints the end-to-end
// metrics. --trace 1 alternates untraced fits with fits that arm a
// telemetry::Telemetry session, then times each layer's public functions at
// the workload's own tile and slice shapes and prints the per-layer
// metrics. Either way the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. NOTES.md says why each workload
// exists and which end-to-end metric each layer metric should move.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_common.hpp"
#include "core/engine_util.hpp"
#include "core/hkmeans.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace swhkm;
namespace cd = swhkm::core::detail;
using Clock = std::chrono::steady_clock;

/// Whole fits in every untraced run: two, so the run can check that the
/// modeled ledger repeats. The end-to-end metrics they give (modeled
/// seconds, peak memory) are exact, so more fits would add nothing.
constexpr std::size_t kFits = 2;
/// Set-ups (plan + init_centroids) every untraced run times on their own
/// after its fits, however long they take.
constexpr std::size_t kMinSetups = 3;
/// Speed at which setup_s is reported: seconds a host would take that runs
/// the reference sweep at 1 ns per sample element.
constexpr double kNominalSecondsPerElement = 1e-9;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  core::Level level = core::Level::kLevel1;
  std::size_t k = 0;
  /// Every workload runs a fixed iteration count (tolerance -1), so runs
  /// with different seeds do the same amount of work: the seed moves the
  /// inputs, not the length of the run.
  std::size_t iterations = 0;
  /// Level 3 m'_group for make_plan; Level 2 always takes the planner's
  /// model-optimal m_group (best_plan_for_level).
  std::size_t mprime_group = 0;
  /// Run under RecoveryDriver with one deterministic crash.
  bool recovery = false;
  simarch::MachineConfig machine;
  std::function<data::Dataset(std::uint64_t)> make;
};

std::optional<Workload> find_workload(const std::string& name) {
  const simarch::MachineConfig one_node = simarch::MachineConfig::sw26010(1);
  if (name == "pixels_l3") {
    return Workload{name, core::Level::kLevel3, 256, 9, 4, false, one_node,
                    [](std::uint64_t seed) {
                      return data::make_ilsvrc_like(2048, 32, seed);
                    }};
  }
  if (name == "road_l1") {
    // 2 nodes x 2 CGs with one node per supernode: the smallest world whose
    // collectives run, and are priced, across a supernode boundary.
    simarch::MachineConfig two_supernodes = simarch::MachineConfig::sw26010(2);
    two_supernodes.cgs_per_node = 2;
    two_supernodes.supernode_nodes = 1;
    return Workload{name, core::Level::kLevel1, 64, 30, 0, false,
                    two_supernodes, [](std::uint64_t seed) {
                      return data::make_road_like(std::size_t{1} << 20, seed);
                    }};
  }
  if (name == "uniform_l2") {
    return Workload{name, core::Level::kLevel2, 512, 8, 0, false, one_node,
                    [](std::uint64_t seed) {
                      return data::make_uniform(16384, 64, seed);
                    }};
  }
  if (name == "census_recover") {
    return Workload{name, core::Level::kLevel2, 128, 16, 0, true, one_node,
                    [](std::uint64_t seed) {
                      return data::make_census_like(65536, seed);
                    }};
  }
  return std::nullopt;
}

core::KmeansConfig fit_config(const Workload& w, std::uint64_t seed) {
  core::KmeansConfig config;
  config.k = w.k;
  config.max_iterations = w.iterations;
  config.tolerance = -1;
  config.init = core::InitMethod::kPlusPlus;
  config.seed = seed;
  config.checkpoint_every = 4;
  return config;
}

core::PartitionPlan plan_for(const Workload& w,
                             const core::ProblemShape& shape) {
  if (w.level == core::Level::kLevel2) {
    const auto choice = core::best_plan_for_level(w.level, shape, w.machine);
    if (!choice) {
      throw std::runtime_error(w.name + ": Level 2 cannot run this shape");
    }
    return choice->plan;
  }
  return core::make_plan(w.level, shape, w.machine, 0, w.mprime_group);
}

core::KmeansResult run_engine(const Workload& w, const data::Dataset& ds,
                              const core::KmeansConfig& config,
                              const core::PartitionPlan& plan,
                              util::Matrix centroids) {
  switch (w.level) {
    case core::Level::kLevel1:
      return core::run_level1(ds, config, w.machine, plan,
                              std::move(centroids));
    case core::Level::kLevel2:
      return core::run_level2(ds, config, w.machine, plan,
                              std::move(centroids));
    case core::Level::kLevel3:
      return core::run_level3(ds, config, w.machine, plan,
                              std::move(centroids));
  }
  throw std::runtime_error("unknown level");
}

struct Setup {
  core::PartitionPlan plan;
  util::Matrix centroids;
  double seconds = 0;  ///< plan + init_centroids
};

Setup run_setup(const Workload& w, const data::Dataset& ds,
                const core::KmeansConfig& config) {
  const auto start = Clock::now();
  Setup setup{plan_for(w, {ds.n(), config.k, ds.d()}),
              core::init_centroids(ds, config)};
  setup.seconds = seconds_since(start);
  return setup;
}

/// Seconds per sweep of a frozen copy of the k-means++ distance sweep (a
/// double-precision squared distance from every sample to one sample, folded
/// into a running minimum): the work init_centroids repeats k - 1 times, kept
/// here so that no library change can move it. Timed next to a set-up, it
/// tells how fast the host runs that kind of work at that moment.
double reference_sweep_s(const data::Dataset& ds,
                         std::vector<double>& nearest) {
  constexpr std::size_t kSweeps = 8;
  const std::size_t n = ds.n();
  const std::size_t d = ds.d();
  const float* x = ds.samples().data();
  nearest.assign(n, std::numeric_limits<double>::max());
  double total = 0;
  const auto start = Clock::now();
  for (std::size_t s = 0; s < kSweeps; ++s) {
    const float* c = x + (s * n / kSweeps) * d;
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0;
      for (std::size_t u = 0; u < d; ++u) {
        const double diff =
            static_cast<double>(x[i * d + u]) - static_cast<double>(c[u]);
        sum += diff * diff;
      }
      nearest[i] = std::min(nearest[i], sum);
      total += nearest[i];
    }
  }
  const double seconds = seconds_since(start) / kSweeps;
  asm volatile("" : : "m"(total));  // keep the running total's chain
  return seconds;
}

struct Fit {
  core::KmeansResult result;
  /// Plan + init_centroids inside the fit; empty under RecoveryDriver, which
  /// plans and seeds inside run() where the caller cannot time it.
  std::optional<double> setup_s;
  double fit_s = 0;  ///< time to solution
  core::RecoveryReport recovery;
};

Fit run_fit(const Workload& w, const data::Dataset& ds,
            core::KmeansConfig config, const std::string& workdir) {
  Fit fit;
  const auto start = Clock::now();
  if (!w.recovery) {
    Setup setup = run_setup(w, ds, config);
    fit.setup_s = setup.seconds;
    fit.result =
        run_engine(w, ds, config, setup.plan, std::move(setup.centroids));
    fit.fit_s = seconds_since(start);
    return fit;
  }
  swmpi::FaultPlan faults;
  faults.crash(1, 6, swmpi::FaultSite::kUpdate);
  config.fault_plan = &faults;
  core::RecoveryOptions options;
  options.checkpoint_path = workdir + "/" + w.name + ".swkc";
  core::RecoveryDriver driver(w.machine, options);
  fit.result = driver.run(w.level, ds, config);
  fit.fit_s = seconds_since(start);
  fit.recovery = driver.report();
  return fit;
}

/// Host seconds per Lloyd iteration of `fit`. Under RecoveryDriver the
/// fit's own set-up is not visible, so `setup_estimate_s` (set-up timed on
/// its own, same config) stands in for it.
double iter_seconds(const Fit& fit, double setup_estimate_s) {
  return (fit.fit_s - fit.setup_s.value_or(setup_estimate_s)) /
         static_cast<double>(fit.result.iterations);
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// First field in which a fit differs from the serial reference, or empty.
std::string first_field_differing(const core::KmeansResult& got,
                             const core::KmeansResult& ref) {
  if (got.iterations != ref.iterations) {
    return "iterations";
  }
  if (got.empty_clusters != ref.empty_clusters) {
    return "empty_clusters";
  }
  if (got.centroids.rows() != ref.centroids.rows() ||
      got.centroids.cols() != ref.centroids.cols() ||
      std::memcmp(got.centroids.data(), ref.centroids.data(),
                  got.centroids.size() * sizeof(float)) != 0) {
    return "centroids";
  }
  if (got.assignments != ref.assignments) {
    return "assignments";
  }
  return {};
}

/// A fit's modeled ledger, flattened. It is a deterministic function of
/// the inputs, so every fit of one run must reproduce it bit for bit.
std::vector<double> model_ledger(const core::KmeansResult& r) {
  const simarch::CostTally& c = r.cost;
  return {c.sample_read_s,
          c.centroid_stream_s,
          c.compute_s,
          c.mesh_comm_s,
          c.net_comm_s,
          c.update_s,
          r.last_iteration_cost.total_s(),
          static_cast<double>(c.net_bytes),
          static_cast<double>(c.net_crossing_bytes),
          static_cast<double>(c.net_rounds),
          static_cast<double>(c.flops),
          static_cast<double>(c.dma_bytes)};
}

/// Counts fits and failures: a fit fails when it throws, differs from the
/// serial reference in any byte, drifts from the modeled ledger of the
/// run's first fit on the same collective schedule, or (under recovery) did
/// not roll back exactly once.
class Checker {
 public:
  explicit Checker(const core::KmeansResult& reference)
      : reference_(reference) {}

  bool check(const Fit& fit, const Workload& w, bool hier_collectives) {
    std::string what = first_field_differing(fit.result, reference_);
    if (!what.empty()) {
      what += " differs from core::lloyd_serial's";
    } else if (w.recovery && fit.recovery.retries != 1) {
      what = "recovery report: " + std::to_string(fit.recovery.retries) +
             " rollbacks, expected 1";
    } else {
      const std::vector<double> ledger = model_ledger(fit.result);
      const auto [first, inserted] = ledgers_.emplace(hier_collectives, ledger);
      if (!inserted && std::memcmp(ledger.data(), first->second.data(),
                                   ledger.size() * sizeof(double)) != 0) {
        what = "modeled ledger drifted from this run's first fit";
      }
    }
    if (!what.empty()) {
      fail(what);
      return false;
    }
    ++attempted_;
    return true;
  }

  void fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    std::printf("FAIL fit %zu: %s\n", attempted_, what.c_str());
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  const core::KmeansResult& reference_;
  /// First modeled ledger seen on each collective schedule.
  std::map<bool, std::vector<double>> ledgers_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Runs `fit` and records the outcome; the fit when it passed the checks.
std::optional<Fit> checked_fit(Checker& checker, const Workload& w,
                               const data::Dataset& ds,
                               const core::KmeansConfig& config,
                               const std::string& workdir) {
  try {
    Fit fit = run_fit(w, ds, config, workdir);
    if (checker.check(fit, w, config.hier_collectives)) {
      return fit;
    }
  } catch (const std::exception& e) {
    checker.fail(std::string("threw: ") + e.what());
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

class Results {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({name, value, unit});
  }

  /// The result object, as the last line of stdout.
  void print_json(const Checker& checker) const {
    std::string json = "{\"correct\": ";
    json += checker.failed() == 0 && checker.attempted() > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checker.attempted());
    json += ", \"failed\": " + std::to_string(checker.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
      char value[40];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Timing helpers for the per-layer cells
// ---------------------------------------------------------------------------

/// Tells the compiler any memory may have changed, so a timed call of an
/// inline function is neither hoisted out of its loop nor dropped.
inline void clobber_memory() { asm volatile("" : : : "memory"); }

/// Median wall seconds of `fn` over at least `min_reps` timed calls (more
/// while `budget_s` lasts), after `warmup` untimed calls. `reset` runs
/// untimed before every call.
template <typename Fn, typename Reset>
double median_time(Fn&& fn, int warmup, std::size_t min_reps, double budget_s,
                   Reset&& reset) {
  constexpr std::size_t kMaxReps = 100000;
  for (int i = 0; i < warmup; ++i) {
    reset();
    fn();
    clobber_memory();
  }
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < min_reps ||
         (seconds_since(start) < budget_s && samples.size() < kMaxReps)) {
    reset();
    const auto t = Clock::now();
    fn();
    clobber_memory();
    samples.push_back(seconds_since(t));
  }
  return median(std::move(samples));
}

/// Per-call seconds of a call too short for one clock reading: each timed
/// sample runs it `batch` times.
template <typename Fn>
double median_time_batched(Fn&& fn, int batch, double budget_s) {
  return median_time(
             [&] {
               for (int i = 0; i < batch; ++i) {
                 fn();
                 clobber_memory();
               }
             },
             2, 20, budget_s) /
         batch;
}

template <typename Fn>
double median_time(Fn&& fn, int warmup, std::size_t min_reps,
                   double budget_s) {
  return median_time(std::forward<Fn>(fn), warmup, min_reps, budget_s, [] {});
}

/// Median seconds of `op` on rank 0 of a fresh `ranks`-rank world. Every
/// call is entered together after a barrier; `warmup` calls go untimed.
double spmd_median(int ranks, int warmup, int reps,
                   const std::function<void(swmpi::Comm&)>& op) {
  std::vector<double> samples;
  swmpi::run_spmd(ranks, [&](swmpi::Comm& comm) {
    for (int i = 0; i < warmup + reps; ++i) {
      swmpi::barrier(comm);
      const auto t = Clock::now();
      op(comm);
      if (comm.rank() == 0 && i >= warmup) {
        samples.push_back(seconds_since(t));
      }
    }
  });
  return median(std::move(samples));
}

/// The collective schedule the engines install for `machine`.
swmpi::ScopedCollectiveSchedule engine_schedule(
    const simarch::MachineConfig& machine, bool hier) {
  return swmpi::ScopedCollectiveSchedule(
      hier ? swmpi::CollectiveSchedule::kHierarchical
           : swmpi::CollectiveSchedule::kFlat,
      {static_cast<int>(machine.cgs_per_node * machine.supernode_nodes),
       machine.collective_crossover_bytes()});
}

/// Median round trip of one `bytes` payload between two ranks.
double pingpong_s(std::size_t bytes, int reps) {
  constexpr int kTag = 7;
  constexpr int kWarmup = 20;
  std::vector<double> samples;
  swmpi::run_spmd(2, [&](swmpi::Comm& comm) {
    const std::vector<std::byte> payload(bytes);
    for (int i = 0; i < kWarmup + reps; ++i) {
      if (comm.rank() == 0) {
        const auto t = Clock::now();
        comm.send<std::byte>(1, kTag, payload);
        (void)comm.recv<std::byte>(1, kTag);
        if (i >= kWarmup) {
          samples.push_back(seconds_since(t));
        }
      } else {
        const std::vector<std::byte> echo = comm.recv<std::byte>(0, kTag);
        comm.send<std::byte>(0, kTag, echo);
      }
    }
  });
  return median(std::move(samples));
}

/// reduce_and_update on the workload's world at its k x d: each rank folds
/// an accumulator built from its block of the iteration-1 assignments.
double reduce_update_s(const Workload& w, const data::Dataset& ds,
                       std::span<const std::uint32_t> assign,
                       const util::Matrix& centroids, bool hier) {
  const int ranks = static_cast<int>(w.machine.num_cgs());
  std::vector<cd::UpdateAccumulator> accs;
  for (int r = 0; r < ranks; ++r) {
    accs.emplace_back(centroids.rows(), centroids.cols());
    const auto [begin, end] = cd::block_range(
        ds.n(), static_cast<std::size_t>(ranks), static_cast<std::size_t>(r));
    for (std::size_t i = begin; i < end; ++i) {
      accs.back().add_sample(assign[i], ds.sample(i));
    }
  }
  util::Matrix shared = centroids;
  std::vector<std::vector<double>> drift(
      static_cast<std::size_t>(ranks), std::vector<double>(centroids.rows()));
  const auto schedule = engine_schedule(w.machine, hier);
  const int reps = centroids.size() * sizeof(double) > (1u << 20) ? 10 : 40;
  return spmd_median(ranks, 2, reps, [&](swmpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    cd::reduce_and_update(comm, shared, accs[r], drift[r]);
  });
}

/// A two-leg RecoveryDriver run on the workload's first samples at its own
/// k, d, level and machine, with one crash in the second leg, so every
/// workload reports the rollback path and not only census_recover.
core::RecoveryReport recovery_cell(const Workload& w, const data::Dataset& ds,
                                   core::KmeansConfig config,
                                   const std::string& workdir) {
  const std::size_t n = std::min<std::size_t>(ds.n(), 4096);
  util::Matrix head(n, ds.d());
  std::copy_n(ds.samples().data(), n * ds.d(), head.data());
  const data::Dataset prefix(ds.name(), std::move(head));
  config.max_iterations = 2;
  config.checkpoint_every = 1;
  config.init = core::InitMethod::kFirstK;
  config.telemetry = nullptr;
  swmpi::FaultPlan faults;
  faults.crash(1, 1, swmpi::FaultSite::kUpdate);
  config.fault_plan = &faults;
  core::RecoveryOptions options;
  options.checkpoint_path = workdir + "/" + w.name + ".recovery.swkc";
  core::RecoveryDriver driver(w.machine, options);
  (void)driver.run(w.level, prefix, config);
  return driver.report();
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

/// Untraced run: kFits whole fits, then set-up on its own for the rest of
/// `seconds` (at least kMinSetups times). Every set-up follows a reference
/// sweep, and setup_s is the median set-up / sweep ratio at the nominal sweep
/// speed: on a shared host the speed of this single-threaded work changes
/// by up to 2x for minutes at a time, and the ratio cancels it (NOTES.md).
int run_untraced(const Workload& w, const Options& opt) {
  const data::Dataset ds = w.make(opt.seed);
  const core::KmeansConfig config = fit_config(w, opt.seed);
  const auto ref_start = Clock::now();
  const core::KmeansResult reference = core::lloyd_serial(ds, config);
  std::printf("reference core::lloyd_serial: %.3f s, %zu iterations "
              "(outside the timed region)\n",
              seconds_since(ref_start), reference.iterations);

  Checker checker(reference);
  std::vector<double> fit_s;
  std::vector<double> setup_s;
  std::vector<double> sweep_s;
  std::vector<double> nearest;
  std::optional<Fit> last;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kFits; ++i) {
    const double sweep = reference_sweep_s(ds, nearest);
    std::optional<Fit> fit = checked_fit(checker, w, ds, config, opt.workdir);
    if (!fit) {
      continue;
    }
    fit_s.push_back(fit->fit_s);
    if (fit->setup_s) {
      setup_s.push_back(*fit->setup_s);
      sweep_s.push_back(sweep);
    }
    last = std::move(fit);
  }
  if (!last) {
    std::fprintf(stderr, "fitbench: every fit failed\n");
    return 1;
  }
  // Stop when one more set-up would overrun `seconds`.
  double step_s = 0;
  for (std::size_t i = 0;
       i < kMinSetups || seconds_since(start) + step_s <= opt.seconds; ++i) {
    const auto step_start = Clock::now();
    sweep_s.push_back(reference_sweep_s(ds, nearest));
    setup_s.push_back(run_setup(w, ds, config).seconds);
    step_s = seconds_since(step_start);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("%zu fits passed of %zu attempted (fail_rate %.4g)\n",
              fit_s.size(), checker.attempted(),
              static_cast<double>(checker.failed()) /
                  static_cast<double>(checker.attempted()));
  std::vector<double> ratio;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    ratio.push_back(setup_s[i] / sweep_s[i]);
  }
  for (const auto& [name, samples] :
       {std::pair{"fit_s", &fit_s}, std::pair{"setup_s", &setup_s},
        std::pair{"sweep_s", &sweep_s}, std::pair{"setup/sweep", &ratio}}) {
    std::printf("%s samples:", name);
    for (double s : *samples) {
      std::printf(" %.4f", s);
    }
    std::printf("\n");
  }
  std::vector<double> iter_s;
  for (double f : fit_s) {
    iter_s.push_back((f - median(setup_s)) /
                     static_cast<double>(last->result.iterations));
  }
  // Wall time to solution is printed here but reported from traced runs
  // (wall.fit_s, wall.iter_s): on a shared host its run-to-run spread is
  // wider than any bound an end-to-end metric may carry (NOTES.md).
  std::printf("medians: fit_s %.6g s, iter_s %.6g s (fit_s less the median "
              "set-up)\n",
              median(fit_s), median(iter_s));
  const double nominal_sweep_s =
      static_cast<double>(ds.n() * ds.d()) * kNominalSecondsPerElement;
  std::printf("set-up wall: fastest %.6g s, median %.6g s; reference sweep "
              "median %.6g s = %.4g ns per element (nominal %.4g)\n",
              *std::min_element(setup_s.begin(), setup_s.end()),
              median(setup_s), median(sweep_s),
              median(sweep_s) / static_cast<double>(ds.n() * ds.d()) * 1e9,
              kNominalSecondsPerElement * 1e9);
  Results out;
  out.add("setup_s", median(ratio) * nominal_sweep_s, "s");
  out.add("modeled_iter_s", last->result.last_iteration_cost.total_s(), "s");
  out.add("modeled_fit_s", last->result.cost.total_s(), "s");
  out.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
          "MiB");
  out.print_json(checker);
  return 0;
}

/// Traced run: fit pairs (untraced, traced) for the overhead ratio and the
/// telemetry-fed metrics, then one micro-cell per layer.
int run_traced(const Workload& w, const Options& opt) {
  const data::Dataset ds = w.make(opt.seed);
  const core::KmeansConfig config = fit_config(w, opt.seed);
  const std::size_t n = ds.n();
  const std::size_t k = config.k;
  const std::size_t d = ds.d();
  const int ranks = static_cast<int>(w.machine.num_cgs());
  const auto ref_start = Clock::now();
  const core::KmeansResult reference = core::lloyd_serial(ds, config);
  const double serial_s = seconds_since(ref_start);
  Checker checker(reference);

  std::vector<Fit> plain;
  std::vector<double> traced_s;
  std::unique_ptr<telemetry::Telemetry> session;
  std::optional<Fit> traced;
  const auto start = Clock::now();
  do {
    if (auto fit = checked_fit(checker, w, ds, config, opt.workdir)) {
      plain.push_back(std::move(*fit));
    }
    auto tel = std::make_unique<telemetry::Telemetry>();
    core::KmeansConfig armed = config;
    armed.telemetry = tel.get();
    if (auto fit = checked_fit(checker, w, ds, armed, opt.workdir)) {
      traced_s.push_back(fit->fit_s);
      traced = std::move(fit);
      session = std::move(tel);
    }
  } while (seconds_since(start) < opt.seconds / 2);
  if (plain.empty() || !traced) {
    std::fprintf(stderr, "fitbench: no fit pair passed\n");
    return 1;
  }
  // On a world that spans supernodes, one more fit on the flat collective
  // schedule prices it next to the hierarchical one the engines run by
  // default (on one supernode the two are priced the same).
  std::optional<Fit> flat;
  if (w.machine.num_supernodes() > 1) {
    core::KmeansConfig flat_config = config;
    flat_config.hier_collectives = false;
    flat = checked_fit(checker, w, ds, flat_config, opt.workdir);
  }
  const core::KmeansResult& fit = traced->result;
  const simarch::CostTally& cost = fit.cost;
  const double iterations = static_cast<double>(fit.iterations);
  Results out;

  std::printf("core.init / core.planner:\n");
  const core::ProblemShape shape{n, k, d};
  const core::PartitionPlan plan = plan_for(w, shape);
  const double plan_s =
      median_time_batched([&] { (void)plan_for(w, shape); }, 100, 0.2);
  out.add("planner.plan_s", plan_s, "s");
  // No warm-up of its own: the fits above just ran the same seeding.
  util::Matrix c0;
  const double seed_s = median_time(
      [&] { c0 = core::init_centroids(ds, config); }, 0, 1, 1.0);
  out.add("init.seed_s", seed_s, "s");
  const double setup_estimate_s = plan_s + seed_s;
  const double loop_s = iter_seconds(*traced, setup_estimate_s) * iterations;
  const double rank_seconds = static_cast<double>(ranks) * loop_s;

  // Iteration 1 by hand, untimed: top-two records against the seeds give
  // the post-iteration-1 assignments and exact Hamerly bounds, and one
  // update gives the drift the gate consumes.
  cd::CentroidNormCache norms;
  norms.refresh_full(c0);
  const std::size_t tile = std::min(config.tile_samples, n);
  std::vector<std::uint32_t> assign(n);
  std::vector<double> upper0(n);
  std::vector<double> lower0(n);
  std::vector<cd::TileScore2> records(tile);
  for (std::size_t t0 = 0; t0 < n; t0 += tile) {
    const std::size_t t1 = std::min(n, t0 + tile);
    const std::span<cd::TileScore2> r(records.data(), t1 - t0);
    cd::clear_scores(r);
    cd::score_tile_gemm<cd::TileScore2>(ds, t0, t1, c0, norms.norms, 0, k, r);
    for (std::size_t i = 0; i < r.size(); ++i) {
      assign[t0 + i] = static_cast<std::uint32_t>(r[i].index);
      cd::refresh_bounds(r[i], upper0[t0 + i], lower0[t0 + i]);
    }
  }
  cd::UpdateAccumulator acc(k, d);
  const double accumulate_s = median_time(
      [&] {
        acc.reset();
        for (std::size_t i = 0; i < n; ++i) {
          acc.add_sample(assign[i], ds.sample(i));
        }
      },
      1, 3, 0.3);
  util::Matrix c1 = c0;
  std::vector<double> drift(k);
  cd::apply_update_rows(c1, 0, k, acc.sums, acc.counts, drift.data());

  std::printf("core.kernel:\n");
  const std::size_t slice = std::min(plan.k_local, k);
  const std::span<cd::TileScore2> tile_records(records);
  std::vector<std::uint32_t> ids(tile);
  for (std::size_t t = 0; t < tile; ++t) {
    ids[t] = static_cast<std::uint32_t>((2 * t) % n);
  }
  const double gemm_s = median_time(
      [&] {
        cd::clear_scores(tile_records);
        cd::score_tile_gemm<cd::TileScore2>(ds, 0, tile, c0, norms.norms, 0,
                                            slice, tile_records);
      },
      2, 5, 0.3);
  const double chain_s = median_time(
      [&] {
        cd::clear_scores(tile_records);
        cd::score_tile<cd::TileScore2>(ds, 0, tile, c0, 0, slice,
                                       tile_records);
      },
      2, 5, 0.3);
  const double ids_s = median_time(
      [&] {
        cd::clear_scores(tile_records);
        cd::score_tile_ids_gemm<cd::TileScore2>(
            ds, std::span<const std::uint32_t>(ids), c0, norms.norms, 0,
            slice, tile_records);
      },
      2, 5, 0.3);
  // 2d flops per (sample, centroid) distance, the model's ledger convention.
  const double flops = 2.0 * static_cast<double>(d * slice * tile);
  // Computed from array sizes, not measured: the tile's samples, the slice's
  // centroid rows and norms, and the argmin records, each touched once.
  const double bytes = static_cast<double>(
      4 * tile * d + 4 * slice * d + 8 * slice + sizeof(cd::TileScore2) * tile);
  const double working_set =
      bytes + static_cast<double>(8 * cd::kCentroidRowBlock * d +
                                  core::kGemmSampleScratchBytes * tile);
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) {
    llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  }
  std::printf("  cell: tile %zu samples x slice %zu centroids x d %zu; "
              "working set %.0f B (computed) vs host last-level cache %ld B "
              "(sysconf)\n",
              tile, slice, d, working_set, llc);
  out.add("kernel.gemm_gflops", flops / gemm_s * 1e-9, "GFLOP/s");
  out.add("kernel.chain_gflops", flops / chain_s * 1e-9, "GFLOP/s");
  out.add("kernel.ids_gemm_gflops", flops / ids_s * 1e-9, "GFLOP/s");
  out.add("kernel.ns_per_distance",
          gemm_s / static_cast<double>(tile * slice) * 1e9, "ns");
  out.add("kernel.bytes_per_sample", bytes / static_cast<double>(tile), "B");
  out.add("kernel.flops_per_byte", flops / bytes, "flop/B");

  std::printf("core.gate (post-iteration-1 bounds):\n");
  std::vector<double> safe;
  out.add("gate.safe_radii_s",
          median_time([&] { cd::compute_safe_radii(c1, safe); }, 1, 3, 0.3),
          "s");
  cd::DriftDigest digest;
  out.add("gate.drift_digest_ns",
          median_time_batched([&] { digest = cd::drift_digest(drift); },
                              1000, 0.05) *
              1e9,
          "ns");
  // Levels 1/2 tighten a failing sample on its own row; Level 3 cannot
  // (the row is split over the group), exactly as in the engines.
  const bool tighten = w.level != core::Level::kLevel3;
  std::vector<double> upper;
  std::vector<double> lower;
  std::vector<std::uint32_t> survivors;
  survivors.reserve(tile);
  std::size_t unresolved = 0;
  const double gate_s = median_time(
      [&] {
        unresolved = 0;
        for (std::size_t t0 = 0; t0 < n; t0 += tile) {
          survivors.clear();
          cd::gate_tile(ds, c1, t0, std::min(n, t0 + tile), assign, drift,
                        digest, safe, upper, lower, tighten, survivors);
          unresolved += survivors.size();
        }
      },
      1, 3, 0.3,
      [&] {
        upper = upper0;
        lower = lower0;
      });
  double prune = 0;
  for (std::size_t i = 1; i < fit.history.size(); ++i) {
    prune += fit.history[i].prune_rate;
  }
  prune /= std::max<double>(1.0, static_cast<double>(fit.history.size()) - 1);
  std::printf("  cell: %zu of %zu samples unresolved at iteration 2\n",
              unresolved, n);
  out.add("gate.ns_per_sample", gate_s / static_cast<double>(n) * 1e9, "ns");
  out.add("gate.prune_rate", prune, "ratio");

  std::printf("core.update:\n");
  out.add("update.accumulate_ns_per_sample",
          accumulate_s / static_cast<double>(n) * 1e9, "ns");
  out.add("update.reduce_s",
          reduce_update_s(w, ds, assign, c0, config.hier_collectives), "s");

  std::printf("core.checkpoint / core.recovery:\n");
  const std::string ckpt = opt.workdir + "/" + w.name + ".cell.swkc";
  out.add("checkpoint.save_s",
          median_time([&] { core::save_checkpoint(fit, ckpt); }, 1, 5, 0.5),
          "s");
  out.add("checkpoint.load_s",
          median_time([&] { (void)core::load_checkpoint(ckpt); }, 1, 5, 0.5),
          "s");
  out.add("checkpoint.bytes",
          static_cast<double>(std::filesystem::file_size(ckpt)), "B");
  const core::RecoveryReport recovery =
      w.recovery ? traced->recovery
                 : recovery_cell(w, ds, config, opt.workdir);
  out.add("recovery.recover_s", recovery.recover_wall_s, "s");
  std::printf("  retries %zu (one crash is injected, so always 1)\n",
              recovery.retries);

  std::printf("swmpi.collectives (%d ranks):\n", ranks);
  {
    const auto schedule = engine_schedule(w.machine, config.hier_collectives);
    std::vector<std::vector<swmpi::MinLoc2>> minloc(
        static_cast<std::size_t>(ranks), std::vector<swmpi::MinLoc2>(tile));
    for (std::size_t r = 0; r < minloc.size(); ++r) {
      for (std::size_t t = 0; t < tile; ++t) {
        minloc[r][t] = {static_cast<double>(r + t), r,
                        static_cast<double>(r + t + 1)};
      }
    }
    out.add("coll.minloc2_us",
            1e6 * spmd_median(ranks, 20, 200,
                              [&](swmpi::Comm& comm) {
                                swmpi::allreduce_minloc2(
                                    comm, std::span<swmpi::MinLoc2>(
                                              minloc[comm.rank()]));
                              }),
            "us");
    const std::pair<std::size_t, const char*> payloads[] = {
        {24, "24B"}, {6 << 10, "6KiB"}, {128 << 10, "128KiB"}, {1 << 20, "1MiB"}};
    for (const auto& [payload, label] : payloads) {
      std::vector<std::vector<double>> bufs(
          static_cast<std::size_t>(ranks),
          std::vector<double>(payload / sizeof(double)));
      const int reps = payload >= (128 << 10) ? 40 : 200;
      out.add(std::string("coll.allreduce_us.") + label,
              1e6 * spmd_median(ranks, 10, reps,
                                [&](swmpi::Comm& comm) {
                                  swmpi::allreduce(
                                      comm,
                                      std::span<double>(bufs[comm.rank()]),
                                      swmpi::ops::Plus{});
                                }),
              "us");
    }
  }
  // Collective ledgers of the traced fit. bcast and reduce are the building
  // blocks of the flat allreduce and of allgather, so counting them again
  // would count those calls twice.
  const telemetry::MetricsSnapshot snap = session->metrics().merged();
  double coll_calls = 0;
  double coll_bytes = 0;
  double coll_wait_s = 0;
  for (int i = 0; i < telemetry::kCollectiveKindCount; ++i) {
    const auto kind = static_cast<telemetry::CollectiveKind>(i);
    if (kind == telemetry::CollectiveKind::kBcast ||
        kind == telemetry::CollectiveKind::kReduce) {
      continue;
    }
    const std::string base =
        std::string("swmpi.") + telemetry::collective_name(kind);
    coll_calls += static_cast<double>(snap.counter_or_zero(base + ".calls"));
    coll_bytes += static_cast<double>(snap.counter_or_zero(base + ".bytes"));
    if (const auto it = snap.histograms.find(base + ".wall_s");
        it != snap.histograms.end()) {
      coll_wait_s += it->second.sum;
    }
  }
  out.add("coll.calls_per_iter", coll_calls / iterations, "count");
  out.add("coll.bytes_per_iter", coll_bytes / iterations, "B");
  out.add("coll.wait_share", coll_wait_s / rank_seconds, "ratio");

  std::printf("swmpi.mailbox / swmpi.runtime:\n");
  double stall_s = 0;
  if (const auto it = snap.histograms.find("swmpi.recv.stall_s");
      it != snap.histograms.end()) {
    stall_s = it->second.sum;
  }
  out.add("mailbox.pingpong_us.16B", 1e6 * pingpong_s(16, 2000), "us");
  out.add("mailbox.pingpong_us.64KiB", 1e6 * pingpong_s(64 << 10, 300), "us");
  out.add("mailbox.stall_share", stall_s / rank_seconds, "ratio");
  out.add("mailbox.parks",
          static_cast<double>(snap.counter_or_zero("swmpi.recv.parks")),
          "count");
  out.add("runtime.spawn_join_us",
          1e6 * median_time(
                    [&] { swmpi::run_spmd(ranks, [](swmpi::Comm&) {}); }, 5,
                    50, 0.3),
          "us");

  std::printf("simarch (modeled ledger of the traced fit):\n");
  // The tile pipeline can hide all DMA under compute (sample_read_s and
  // centroid_stream_s then read 0 on every run), so the result carries the
  // whole modeled DMA time and the text shows how it splits.
  const double dma_s =
      cost.sample_read_s + cost.centroid_stream_s + cost.overlapped_dma_s;
  std::printf("  DMA split: sample_read %.6g s, centroid_stream %.6g s, "
              "hidden by the tile pipeline %.6g s\n",
              cost.sample_read_s, cost.centroid_stream_s,
              cost.overlapped_dma_s);
  out.add("model.compute_s", cost.compute_s, "s");
  out.add("model.dma_s", dma_s, "s");
  out.add("model.mesh_comm_s", cost.mesh_comm_s, "s");
  out.add("model.net_comm_s", cost.net_comm_s, "s");
  if (flat) {
    std::printf("  net_comm_s hierarchical %.6g s vs flat %.6g s (= %.4gx), "
                "net_crossing_bytes %llu vs %llu\n",
                cost.net_comm_s, flat->result.cost.net_comm_s,
                cost.net_comm_s / flat->result.cost.net_comm_s,
                static_cast<unsigned long long>(cost.net_crossing_bytes),
                static_cast<unsigned long long>(
                    flat->result.cost.net_crossing_bytes));
  }
  out.add("model.update_s", cost.update_s, "s");
  out.add("model.net_bytes", static_cast<double>(cost.net_bytes), "B");
  out.add("model.net_crossing_bytes",
          static_cast<double>(cost.net_crossing_bytes), "B");
  out.add("model.net_rounds", static_cast<double>(cost.net_rounds), "count");
  out.add("model.flops", static_cast<double>(cost.flops), "flop");
  out.add("model.dma_bytes", static_cast<double>(cost.dma_bytes), "B");

  std::printf("core.engine (wall spans of the traced fit):\n");
  std::map<std::string, std::vector<double>> span_s;
  for (const telemetry::WallSpan& s : session->spans().spans()) {
    std::vector<double>& per_rank = span_s[s.name];
    per_rank.resize(static_cast<std::size_t>(ranks));
    if (s.rank < per_rank.size()) {
      per_rank[s.rank] += s.duration_us * 1e-6;
    }
  }
  const auto mean_over_ranks = [&](const char* name) {
    const auto it = span_s.find(name);
    if (it == span_s.end()) {
      return 0.0;
    }
    double sum = 0;
    for (double v : it->second) {
      sum += v;
    }
    return sum / static_cast<double>(ranks);
  };
  const double assign_s = mean_over_ranks("assign");
  const double max_assign_s =
      span_s.count("assign") != 0
          ? *std::max_element(span_s["assign"].begin(), span_s["assign"].end())
          : 0.0;
  const double measured_share = assign_s / loop_s;
  const double modeled_share =
      (cost.sample_read_s + cost.centroid_stream_s + cost.compute_s) /
      cost.total_s();
  std::printf("  assign share: measured %.6g s of %.6g s iteration wall = "
              "%.4f; modeled (sample_read + centroid_stream + compute) %.6g "
              "s of %.6g s = %.4f\n",
              assign_s, loop_s, measured_share,
              cost.sample_read_s + cost.centroid_stream_s + cost.compute_s,
              cost.total_s(), modeled_share);
  std::printf("  combine_drain %.6g s per rank (Level 3 only)\n",
              mean_over_ranks("combine_drain"));
  out.add("engine.assign_s", assign_s, "s");
  out.add("engine.update_s", mean_over_ranks("update"), "s");
  out.add("engine.rank_imbalance", assign_s > 0 ? max_assign_s / assign_s : 1,
          "ratio");
  out.add("engine.assign_measured_over_modeled",
          measured_share / modeled_share, "ratio");

  std::printf("telemetry / baseline:\n");
  std::vector<double> plain_s;
  std::vector<double> plain_iter_s;
  for (const Fit& f : plain) {
    plain_s.push_back(f.fit_s);
    plain_iter_s.push_back(iter_seconds(f, setup_estimate_s));
  }
  const double untraced = median(plain_s);
  const double armed = median(traced_s);
  std::printf("  fit_s untraced %.6g s (%zu fits), traced %.6g s (%zu fits); "
              "serial core::lloyd_serial %.6g s\n",
              untraced, plain_s.size(), armed, traced_s.size(), serial_s);
  out.add("wall.fit_s", untraced, "s");
  out.add("wall.iter_s", median(plain_iter_s), "s");
  out.add("telemetry.overhead", armed / untraced, "ratio");
  out.add("baseline.serial_lloyd_s", serial_s, "s");
  out.add("baseline.speedup_vs_serial", serial_s / untraced, "ratio");
  out.print_json(checker);
  return 0;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (arg == "--workdir") {
      opt.workdir = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    const std::optional<Workload> w = find_workload(opt.workload);
    if (!w) {
      std::fprintf(stderr,
                   "fitbench: unknown workload %s (pixels_l3, road_l1, "
                   "uniform_l2, census_recover)\n",
                   opt.workload.c_str());
      return 2;
    }
    std::filesystem::create_directories(opt.workdir);
    std::printf("fitbench workload %s seed %llu seconds %g trace %d\n",
                w->name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    return opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fitbench: %s\n", e.what());
    return 1;
  }
}
