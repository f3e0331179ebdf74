#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/hkmeans.hpp"
#include "core/recovery.hpp"
#include "simarch/trace.hpp"
#include "swmpi/fault.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"

namespace swhkm {
namespace {

using telemetry::FlightEventKind;

std::chrono::steady_clock::time_point epoch() {
  return std::chrono::steady_clock::now();
}

TEST(FlightRing, RetainsLatestEventsOldestFirstAfterWraparound) {
  telemetry::FlightRing ring(4, epoch());
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    ring.record(FlightEventKind::kTileStart, /*iteration=*/i, /*op=*/7,
                /*a=*/i, /*b=*/i + 1);
  }
  EXPECT_EQ(ring.total(), 10u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);  // ring dropped the first six
  for (std::size_t j = 0; j < events.size(); ++j) {
    const auto& e = events[j];
    EXPECT_EQ(e.kind, FlightEventKind::kTileStart);
    EXPECT_EQ(e.iteration, 6u + j);  // oldest retained first
    EXPECT_EQ(e.op, 7u);
    EXPECT_EQ(e.a, 6u + j);
    EXPECT_EQ(e.b, 7u + j);
    EXPECT_EQ(e.sim_s, -1.0);  // site had no modeled clock
  }
  // Timestamps are monotone along the retained window.
  for (std::size_t j = 1; j < events.size(); ++j) {
    EXPECT_LE(events[j - 1].wall_us, events[j].wall_us);
  }
}

TEST(FlightRing, PartialFillAndBackdatedRecords) {
  telemetry::FlightRing ring(8, epoch());
  ring.record(FlightEventKind::kIterationStart, 3, 0, 0, 0, /*sim_s=*/1.5);
  // A park is only learned about at wake time: record_at back-dates it.
  ring.record_at(/*wall_us=*/-250.0, FlightEventKind::kMailboxPark, 3,
                 /*op=*/0, /*a=*/42);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kIterationStart);
  EXPECT_EQ(events[0].sim_s, 1.5);
  EXPECT_EQ(events[1].kind, FlightEventKind::kMailboxPark);
  EXPECT_EQ(events[1].wall_us, -250.0);
  EXPECT_EQ(events[1].a, 42u);

  // Zero capacity degrades to a one-slot ring instead of dividing by zero.
  telemetry::FlightRing tiny(0, epoch());
  tiny.record(FlightEventKind::kFault, 1);
  tiny.record(FlightEventKind::kFault, 2);
  ASSERT_EQ(tiny.snapshot().size(), 1u);
  EXPECT_EQ(tiny.snapshot()[0].iteration, 2u);
}

TEST(FlightRecorder, RegistryArmsExistingAndFutureShards) {
  telemetry::MetricsRegistry reg;
  auto& early = reg.shard(0);
  EXPECT_EQ(early.flight(), nullptr);  // unarmed registry: no rings
  EXPECT_FALSE(reg.flight_armed());
  EXPECT_TRUE(reg.flight_snapshots().empty());

  reg.arm_flight(16, epoch());
  EXPECT_TRUE(reg.flight_armed());
  ASSERT_NE(early.flight(), nullptr);  // existing shard got a ring
  auto& late = reg.shard(2);
  ASSERT_NE(late.flight(), nullptr);  // and shards born after arming do too

  early.flight()->record(FlightEventKind::kIterationStart, 0);
  late.flight()->record(FlightEventKind::kIterationEnd, 0);
  reg.host_shard().flight()->record(FlightEventKind::kCheckpointLeg, 0);

  const auto snaps = reg.flight_snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  // Ascending rank order, host ring (rank -1) first.
  EXPECT_EQ(snaps[0].rank, telemetry::MetricsRegistry::kHostRank);
  EXPECT_EQ(snaps[1].rank, 0);
  EXPECT_EQ(snaps[2].rank, 2);
  for (const auto& s : snaps) {
    EXPECT_EQ(s.total, 1u);
    ASSERT_EQ(s.events.size(), 1u);
  }
}

TEST(CriticalPath, CraftedTraceNamesGatingRankAndSplitsPhases) {
  // Two core groups, two iterations, hand-written tallies. cg 1 is the
  // compute straggler in iteration 0; cg 0 gates iteration 1 via net time.
  simarch::CostTally cg0_it0;
  cg0_it0.compute_s = 0.20;
  cg0_it0.net_comm_s = 0.05;
  simarch::CostTally cg1_it0;
  cg1_it0.compute_s = 0.30;
  cg1_it0.net_comm_s = 0.01;
  simarch::CostTally cg0_it1;
  cg0_it1.compute_s = 0.10;
  cg0_it1.net_comm_s = 0.30;
  simarch::CostTally cg1_it1;
  cg1_it1.compute_s = 0.10;
  cg1_it1.net_comm_s = 0.02;

  simarch::Trace trace;
  trace.record_iteration(0, 0, 0.0, cg0_it0);
  trace.record_iteration(1, 0, 0.0, cg1_it0);
  trace.record_iteration(0, 1, cg0_it0.total_s(), cg0_it1);
  trace.record_iteration(1, 1, cg1_it0.total_s(), cg1_it1);

  const auto cp = telemetry::analyze_critical_path(trace);
  ASSERT_EQ(cp.iterations.size(), 2u);

  const auto& it0 = cp.iterations[0];
  EXPECT_EQ(it0.iteration, 0u);
  EXPECT_EQ(it0.gating_cg, 1u);  // 0.31 > 0.25
  EXPECT_EQ(it0.critical_s, 0.30 + 0.05);  // per-phase maxima
  EXPECT_EQ(it0.gating_rank_s, cg1_it0.total_s());
  const double mean0 = (cg0_it0.total_s() + cg1_it0.total_s()) / 2;
  EXPECT_EQ(it0.mean_rank_s, mean0);
  EXPECT_EQ(it0.blame_s, cg1_it0.total_s() - mean0);
  EXPECT_EQ(it0.phase_s[static_cast<int>(simarch::Phase::kCompute)], 0.30);
  EXPECT_EQ(it0.phase_cg[static_cast<int>(simarch::Phase::kCompute)], 1u);
  EXPECT_EQ(it0.phase_s[static_cast<int>(simarch::Phase::kNetComm)], 0.05);
  EXPECT_EQ(it0.phase_cg[static_cast<int>(simarch::Phase::kNetComm)], 0u);

  const auto& it1 = cp.iterations[1];
  EXPECT_EQ(it1.gating_cg, 0u);  // 0.40 > 0.12
  EXPECT_EQ(it1.critical_s, 0.10 + 0.30);
  const double mean1 = (cg0_it1.total_s() + cg1_it1.total_s()) / 2;
  EXPECT_EQ(it1.blame_s, cg0_it1.total_s() - mean1);

  // Per-iteration attributions sum to critical_s exactly.
  for (const auto& it : cp.iterations) {
    double sum = 0;
    for (int p = 0; p < simarch::kPhaseCount; ++p) {
      sum += it.phase_s[p];
    }
    EXPECT_EQ(sum, it.critical_s);
  }

  // Blame table: each cg gated one iteration; cg 0 carries more blame.
  EXPECT_EQ(cp.total_critical_s, it0.critical_s + it1.critical_s);
  ASSERT_EQ(cp.stragglers.size(), 2u);
  EXPECT_EQ(cp.stragglers[0].cg, 0u);
  EXPECT_EQ(cp.stragglers[0].gated_iterations, 1u);
  EXPECT_EQ(cp.stragglers[0].blame_s, it1.blame_s);
  EXPECT_EQ(cp.stragglers[1].cg, 1u);
  EXPECT_EQ(cp.stragglers[1].blame_s, it0.blame_s);
  const double share_sum =
      cp.stragglers[0].share + cp.stragglers[1].share;
  EXPECT_NEAR(share_sum, 1.0, 1e-12);
}

TEST(CriticalPath, ReplayedIterationsUseTheLatestRecordingOnly) {
  // Recovery replays re-record an iteration; the analyzer must describe
  // the attempt that committed (the latest start), not the first try.
  simarch::CostTally first;
  first.compute_s = 0.5;
  simarch::CostTally retry;
  retry.compute_s = 0.2;

  simarch::Trace trace;
  trace.record_iteration(0, 0, 0.0, first);
  trace.record_iteration(0, 0, 1.0, retry);  // later start wins
  const auto cp = telemetry::analyze_critical_path(trace);
  ASSERT_EQ(cp.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(cp.iterations[0].critical_s, 0.2);
}

TEST(CriticalPath, EngineRunAttributionMatchesIterationHistoryExactly) {
  // The acceptance identity: the analyzer's per-iteration critical_s,
  // reconstructed from the Trace alone, equals the engine-recorded
  // IterationStats::simulated_s bit-for-bit — same doubles, same max,
  // same summation order as combine_tallies + CostTally::total_s().
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(256, 8, 4, 33);
  for (core::Level level : {core::Level::kLevel1, core::Level::kLevel2,
                            core::Level::kLevel3}) {
    core::KmeansConfig config;
    config.k = 4;
    config.max_iterations = 5;
    config.tolerance = -1;
    simarch::Trace trace;
    telemetry::Telemetry session;
    config.trace = &trace;
    config.telemetry = &session;
    const core::KmeansResult result =
        core::run_level(level, ds, config, machine);

    const auto cp = telemetry::analyze_critical_path(trace);
    ASSERT_EQ(cp.iterations.size(), result.history.size())
        << core::level_name(level);
    for (std::size_t i = 0; i < cp.iterations.size(); ++i) {
      EXPECT_EQ(cp.iterations[i].critical_s, result.history[i].simulated_s)
          << core::level_name(level) << " iteration " << i;
      double phase_sum = 0;
      for (int p = 0; p < simarch::kPhaseCount; ++p) {
        phase_sum += cp.iterations[i].phase_s[p];
      }
      EXPECT_EQ(phase_sum, cp.iterations[i].critical_s)
          << core::level_name(level) << " iteration " << i;
      // The history's phase split is the same decomposition.
      const auto& h = result.history[i];
      EXPECT_EQ(cp.iterations[i]
                    .phase_s[static_cast<int>(simarch::Phase::kCompute)],
                h.compute_s);
      EXPECT_EQ(cp.iterations[i]
                    .phase_s[static_cast<int>(simarch::Phase::kNetComm)],
                h.net_comm_s);
      EXPECT_EQ(h.sample_read_s + h.centroid_stream_s + h.compute_s +
                    h.mesh_comm_s + h.net_comm_s + h.update_s,
                h.simulated_s);
    }
    // The engine ranks recorded iteration edges into their rings.
    bool any_iteration_edge = false;
    for (const auto& snap : session.metrics().flight_snapshots()) {
      for (const auto& e : snap.events) {
        any_iteration_edge =
            any_iteration_edge ||
            e.kind == FlightEventKind::kIterationStart ||
            e.kind == FlightEventKind::kIterationEnd;
      }
    }
    EXPECT_TRUE(any_iteration_edge) << core::level_name(level);
  }
}

TEST(FlightRecorder, ResultsAreBitIdenticalWithRecorderOnAndOff) {
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(240, 10, 5, 23);
  for (core::Level level : {core::Level::kLevel1, core::Level::kLevel2,
                            core::Level::kLevel3}) {
    core::KmeansConfig base;
    base.k = 5;
    base.max_iterations = 4;
    base.tolerance = -1;

    telemetry::TelemetryConfig no_flight;
    no_flight.flight = false;
    telemetry::Telemetry off_session(no_flight);
    core::KmeansConfig off = base;
    off.telemetry = &off_session;
    const core::KmeansResult plain = core::run_level(level, ds, off, machine);

    telemetry::Telemetry on_session;  // flight on by default
    core::KmeansConfig on = base;
    on.telemetry = &on_session;
    const core::KmeansResult recorded =
        core::run_level(level, ds, on, machine);

    EXPECT_EQ(std::memcmp(plain.centroids.data(), recorded.centroids.data(),
                          plain.centroids.size() * sizeof(float)),
              0)
        << core::level_name(level);
    EXPECT_EQ(plain.assignments, recorded.assignments)
        << core::level_name(level);
    EXPECT_EQ(plain.iterations, recorded.iterations);
    EXPECT_EQ(plain.inertia, recorded.inertia) << core::level_name(level);
    // And the recorder actually recorded.
    EXPECT_FALSE(on_session.metrics().flight_snapshots().empty());
    EXPECT_TRUE(off_session.metrics().flight_snapshots().empty());
  }
}

/// Reads a whole file; empty when it cannot be opened.
/// Where the schema-validated artifacts go: the test's build directory.
std::string artifact_path(const std::string& name) {
  return std::string(SWHKM_ARTIFACT_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(FlightRecorder, FaultDrillCapturesEveryRankInThePostmortem) {
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(512, 6, 4, 77);
  for (core::Level level : {core::Level::kLevel1, core::Level::kLevel2,
                            core::Level::kLevel3}) {
    SCOPED_TRACE(core::level_name(level));
    const std::string tag = std::to_string(static_cast<int>(level));
    core::KmeansConfig config;
    config.k = 4;
    config.max_iterations = 8;
    config.tolerance = -1;
    config.checkpoint_every = 4;
    swmpi::FaultPlan plan;
    plan.crash(/*rank=*/1, /*iteration=*/5, swmpi::FaultSite::kUpdate);
    config.fault_plan = &plan;
    telemetry::Telemetry session;
    config.telemetry = &session;

    // The driver writes the run's report, fault story and postmortems
    // included, to report_faults_L<n>.json in the artifact directory; CI
    // validates these files against schemas/report_faults.schema.json.
    core::RecoveryOptions options;
    options.checkpoint_path = "test_critical_path_L" + tag + ".ckpt";
    options.report_path = artifact_path("report_faults_L" + tag + ".json");
    core::RecoveryDriver driver(machine, options);
    const core::KmeansResult result = driver.run(level, ds, config);
    std::remove(options.checkpoint_path.c_str());
    EXPECT_EQ(result.iterations, 8u);

    ASSERT_FALSE(driver.postmortems().empty());
    const telemetry::FaultPostmortem& pm = driver.postmortems().front();
    EXPECT_EQ(pm.iteration, 4u);  // the leg that died started after ckpt 4
    EXPECT_FALSE(pm.what.empty());

    // Every rank that ran is in the postmortem — the host ring plus one
    // ring per core group — and none of them is empty.
    ASSERT_GE(pm.ranks.size(), 2u);
    bool host_seen = false;
    std::size_t workers = 0;
    for (const auto& snap : pm.ranks) {
      EXPECT_FALSE(snap.events.empty()) << "rank " << snap.rank;
      EXPECT_GE(snap.total, snap.events.size());
      if (snap.rank == telemetry::MetricsRegistry::kHostRank) {
        host_seen = true;
      } else {
        ++workers;
      }
    }
    EXPECT_TRUE(host_seen);
    EXPECT_EQ(workers, driver.report().final_cgs);

    // The crashed rank's ring ends mid-flight — its last retained events
    // include the doomed iteration's start.
    bool rank1_saw_iteration_5 = false;
    for (const auto& snap : pm.ranks) {
      if (snap.rank != 1) {
        continue;
      }
      for (const auto& e : snap.events) {
        rank1_saw_iteration_5 =
            rank1_saw_iteration_5 ||
            (e.kind == FlightEventKind::kIterationStart && e.iteration == 5);
      }
    }
    EXPECT_TRUE(rank1_saw_iteration_5);

    // The postmortem lands in the report JSON as the flight_recorder
    // section, one entry per caught fault with every rank's events.
    const std::string json = slurp(options.report_path);
    EXPECT_NE(json.find("\"recovery\""), std::string::npos);
    EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
    EXPECT_NE(json.find("\"iteration_start\""), std::string::npos);
    EXPECT_NE(json.find("\"total_events\""), std::string::npos);
    EXPECT_NE(json.find("\"rank\": -1"), std::string::npos);  // host ring
  }
}

TEST(CriticalPath, ReportAndTraceCarryCriticalPathSections) {
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(256, 8, 4, 99);
  core::KmeansConfig config;
  config.k = 4;
  config.max_iterations = 4;
  config.tolerance = -1;
  simarch::Trace trace;
  telemetry::Telemetry session;
  config.trace = &trace;
  config.telemetry = &session;
  const core::KmeansResult result =
      core::run_level(core::Level::kLevel3, ds, config, machine);

  // Every field schemas/report.schema.json requires is filled, so the
  // report.json written below validates as a complete RunReport.
  telemetry::RunReport report;
  report.run_id = "cp-sections";
  report.shape = core::ProblemShape{ds.n(), config.k, ds.d()};
  report.level = core::Level::kLevel3;
  report.config = config;
  report.machine_summary = machine.summary();
  const auto choice =
      core::best_plan_for_level(core::Level::kLevel3, report.shape, machine);
  ASSERT_TRUE(choice.has_value());
  report.plan_summary = choice->plan.describe();
  report.set_result(result);
  report.metrics = session.metrics().merged();
  report.has_critical_path = true;
  report.critical_path = telemetry::analyze_critical_path(trace);
  ASSERT_FALSE(report.critical_path.iterations.empty());
  ASSERT_FALSE(report.critical_path.stragglers.empty());
  EXPECT_TRUE(telemetry::reconciles(report));

  std::ostringstream report_out;
  report.write_json(report_out);
  const std::string report_json = report_out.str();
  // The artifact pair CI validates against schemas/: report.json and
  // trace.json in the artifact directory.
  std::ofstream(artifact_path("report.json")) << report_json;
  for (const char* key :
       {"\"critical_path\"", "\"gating_cg\"", "\"stragglers\"", "\"blame_s\"",
        "\"phases\"", "\"net_crossing_bytes\"", "\"bound_groups\": 4",
        "\"radius_pass\": false"}) {
    EXPECT_NE(report_json.find(key), std::string::npos) << key;
  }

  // The exporter draws the path as flow events between gating tracks.
  std::ostringstream trace_out;
  telemetry::write_chrome_trace(trace_out, &trace, &session.spans(), {},
                                &report.critical_path);
  const std::string trace_json = trace_out.str();
  std::ofstream(artifact_path("trace.json")) << trace_json;
  EXPECT_NE(trace_json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"critical_path\""), std::string::npos);

  // Without the report the exporter draws no arrows.
  std::ostringstream bare;
  telemetry::write_chrome_trace(bare, &trace, &session.spans());
  EXPECT_EQ(bare.str().find("\"ph\": \"s\""), std::string::npos);
}

}  // namespace
}  // namespace swhkm
