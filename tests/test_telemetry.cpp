#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/hkmeans.hpp"
#include "simarch/trace.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/runtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace swhkm {
namespace {

/// Minimal recursive-descent JSON validator — enough to prove the
/// artifacts are syntactically well-formed without an external parser.
class MiniJson {
 public:
  explicit MiniJson(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;
    skip_ws();
    if (eat('}')) {
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (!eat(':') || !value()) {
        return false;
      }
      skip_ws();
      if (eat('}')) {
        return true;
      }
      if (!eat(',')) {
        return false;
      }
    }
  }
  bool array() {
    ++pos_;
    skip_ws();
    if (eat(']')) {
      return true;
    }
    while (true) {
      if (!value()) {
        return false;
      }
      skip_ws();
      if (eat(']')) {
        return true;
      }
      if (!eat(',')) {
        return false;
      }
    }
  }
  bool string() {
    if (!eat('"')) {
      return false;
    }
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          return false;
        }
        ++pos_;
      } else if (c == '"') {
        return true;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
    }
    return false;
  }
  bool literal(const char* word) {
    const std::string_view w(word);
    if (s_.substr(pos_, w.size()) != w) {
      return false;
    }
    pos_ += w.size();
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    eat('-');
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

std::string snapshot_json(const telemetry::MetricsSnapshot& snap) {
  std::ostringstream out;
  util::JsonWriter w(out);
  snap.write_json(w);
  return out.str();
}

TEST(MiniJsonSelfTest, AcceptsValidRejectsBroken) {
  EXPECT_TRUE(MiniJson(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})")
                  .valid());
  EXPECT_FALSE(MiniJson(R"({"a":1,})").valid());
  EXPECT_FALSE(MiniJson(R"({"a" 1})").valid());
  EXPECT_FALSE(MiniJson("{\"a\":\"\n\"}").valid());  // raw newline in string
}

TEST(Metrics, CountersGaugesHistogramsMergeAcrossShards) {
  telemetry::MetricsRegistry reg;
  reg.shard(0).counter("work").add(3);
  reg.shard(1).counter("work").add(4);
  reg.shard(0).gauge("depth").set(2);
  reg.shard(1).gauge("depth").set(7);
  reg.shard(1).gauge("depth").set(1);  // last=1, max stays 7
  reg.shard(0).histogram("h").observe(2.0);
  reg.shard(1).histogram("h").observe(2.0);
  reg.shard(1).histogram("h").observe(1024.0);

  const auto snap = reg.merged();
  EXPECT_EQ(snap.counter_or_zero("work"), 7u);
  EXPECT_EQ(snap.counter_or_zero("missing"), 0u);
  ASSERT_TRUE(snap.gauges.count("depth"));
  EXPECT_EQ(snap.gauges.at("depth").max, 7);
  EXPECT_EQ(snap.gauges.at("depth").last, 1);
  ASSERT_TRUE(snap.histograms.count("h"));
  const auto& h = snap.histograms.at("h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 2.0 + 2.0 + 1024.0);
  ASSERT_EQ(h.buckets.size(), 2u);  // two distinct power-of-two buckets
  EXPECT_EQ(h.buckets[0].second, 2u);
  EXPECT_EQ(h.buckets[1].second, 1u);
  EXPECT_LT(h.buckets[0].first, h.buckets[1].first);
}

TEST(Metrics, CollectiveLedgersFlattenIntoNamedCounters) {
  telemetry::MetricsRegistry reg;
  auto& stats = reg.shard(2).collective(telemetry::CollectiveKind::kAllreduce);
  stats.calls.add(5);
  stats.bytes.add(640);
  stats.wall_s.observe(0.001);

  const auto snap = reg.merged();
  EXPECT_EQ(snap.counter_or_zero("swmpi.allreduce.calls"), 5u);
  EXPECT_EQ(snap.counter_or_zero("swmpi.allreduce.bytes"), 640u);
  ASSERT_TRUE(snap.histograms.count("swmpi.allreduce.wall_s"));
  EXPECT_EQ(snap.histograms.at("swmpi.allreduce.wall_s").count, 1u);
  // Kinds that never fired leave no keys behind.
  EXPECT_EQ(snap.counters.count("swmpi.bcast.calls"), 0u);
}

TEST(Metrics, GaugeMergeKeepsNegativeMaximaAndSkipsNeverSetShards) {
  // Regression: the merge used to fold shard maxima through a
  // zero-initialized accumulator, so an all-negative gauge came out with
  // max == 0, and a shard that merely *touched* a gauge (hot paths cache
  // the reference before ever recording) dragged the merged max up to 0.
  telemetry::MetricsRegistry reg;
  reg.shard(0).gauge("depth").set(-5);
  (void)reg.shard(1).gauge("depth");  // touched, never set
  const auto snap = reg.merged();
  ASSERT_TRUE(snap.gauges.count("depth"));
  EXPECT_EQ(snap.gauges.at("depth").last, -5);
  EXPECT_EQ(snap.gauges.at("depth").max, -5);
  EXPECT_EQ(snap.gauges.at("depth").sets, 1u);

  // Multi-shard negative fold: the max is the largest *recorded* value.
  reg.shard(2).gauge("depth").set(-9);
  const auto snap2 = reg.merged();
  EXPECT_EQ(snap2.gauges.at("depth").max, -5);
  EXPECT_EQ(snap2.gauges.at("depth").last, -9);  // highest-rank setter
  EXPECT_EQ(snap2.gauges.at("depth").sets, 2u);

  // A gauge never set anywhere leaves no key behind at all.
  telemetry::MetricsRegistry untouched;
  (void)untouched.shard(0).gauge("idle");
  EXPECT_EQ(untouched.merged().gauges.count("idle"), 0u);
}

TEST(Metrics, MergedSnapshotIsByteIdenticalUnderAdversarialInterleavings) {
  // Property: merged() is a pure function of each shard's final state —
  // the wall-clock interleaving of shard writers must never leak into the
  // snapshot. Every round scrambles thread start order and injects
  // yields mid-stream; the merged JSON (counters, negative-valued gauges,
  // histograms — every serialized byte) must equal the serial reference.
  constexpr int kShards = 6;
  constexpr int kOps = 500;
  auto record = [](telemetry::MetricsShard& shard, int rank, bool yield) {
    auto& ctr = shard.counter("ops");
    auto& gauge = shard.gauge("watermark");
    auto& hist = shard.histogram("lat");
    for (int i = 0; i < kOps; ++i) {
      ctr.add(static_cast<std::uint64_t>(rank % 3) + 1);
      gauge.set((i * 7 + rank) % 11 - 5);  // sweeps negatives too
      hist.observe(static_cast<double>((i % 4) + 1));
      if (yield && i % 64 == 0) {
        std::this_thread::yield();
      }
    }
    gauge.set(rank - 3);  // deterministic per-shard final value
  };

  telemetry::MetricsRegistry serial;
  for (int r = 0; r < kShards; ++r) {
    record(serial.shard(r), r, false);
  }
  const std::string want = snapshot_json(serial.merged());

  for (int round = 0; round < 5; ++round) {
    telemetry::MetricsRegistry reg;
    for (int r = 0; r < kShards; ++r) {
      reg.shard(r);  // create up front; threads only record
    }
    std::vector<std::thread> workers;
    for (int r = 0; r < kShards; ++r) {
      // gcd(5, kShards) == 1, so this visits every rank in scrambled order.
      const int rank = (r * 5 + round) % kShards;
      workers.emplace_back(
          [&reg, &record, rank] { record(reg.shard(rank), rank, true); });
    }
    for (auto& t : workers) {
      t.join();
    }
    EXPECT_EQ(snapshot_json(reg.merged()), want) << "round " << round;
  }
}

TEST(Metrics, MergeIsDeterministicUnderConcurrentRecording) {
  // Integer observations only: counter adds and histogram bucket counts
  // commute exactly, so the merged snapshot must be byte-identical no
  // matter how the recording threads interleave.
  constexpr int kShards = 8;
  constexpr int kOps = 2000;
  auto record = [](telemetry::MetricsShard& shard, int rank) {
    auto& ctr = shard.counter("work");
    auto& hist = shard.histogram("sizes");
    for (int i = 0; i < kOps; ++i) {
      ctr.add(static_cast<std::uint64_t>(rank) + 1);
      hist.observe(static_cast<double>((i % 5) + 1));
    }
  };

  telemetry::MetricsRegistry serial;
  for (int r = 0; r < kShards; ++r) {
    record(serial.shard(r), r);
  }

  telemetry::MetricsRegistry threaded;
  for (int r = 0; r < kShards; ++r) {
    threaded.shard(r);  // create up front; threads only record
  }
  std::vector<std::thread> workers;
  for (int r = kShards - 1; r >= 0; --r) {  // scrambled start order
    workers.emplace_back(
        [&threaded, &record, r] { record(threaded.shard(r), r); });
  }
  for (auto& t : workers) {
    t.join();
  }

  EXPECT_EQ(snapshot_json(serial.merged()), snapshot_json(threaded.merged()));
  EXPECT_EQ(threaded.merged().counter_or_zero("work"),
            static_cast<std::uint64_t>(kOps) * (kShards * (kShards + 1) / 2));
}

TEST(Telemetry, ScopedSpanRecordsAndNullSessionIsFree) {
  telemetry::Telemetry session;
  {
    telemetry::ScopedSpan span(&session, "assign", 3, 17);
  }
  {
    telemetry::ScopedSpan span(nullptr, "assign", 0, 0);  // must be a no-op
  }
  const auto spans = session.spans().spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "assign");
  EXPECT_EQ(spans[0].rank, 3u);
  EXPECT_EQ(spans[0].iteration, 17u);
  EXPECT_GE(spans[0].duration_us, 0.0);

  telemetry::TelemetryConfig quiet;
  quiet.wall_spans = false;
  telemetry::Telemetry muted(quiet);
  {
    telemetry::ScopedSpan span(&muted, "assign", 0, 0);
  }
  EXPECT_EQ(muted.spans().size(), 0u);
}

TEST(Telemetry, SwmpiRuntimeTicksCollectiveAndMailboxCounters) {
  constexpr int kRanks = 4;
  telemetry::MetricsRegistry reg;
  swmpi::run_spmd(
      kRanks,
      [](swmpi::Comm& comm) {
        int v = comm.rank() + 1;
        swmpi::allreduce_sum(comm, std::span<int>(&v, 1));
        swmpi::barrier(comm);
      },
      nullptr, &reg);

  const auto snap = reg.merged();
  EXPECT_EQ(snap.counter_or_zero("swmpi.allreduce.calls"),
            static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(snap.counter_or_zero("swmpi.allreduce.bytes"),
            static_cast<std::uint64_t>(kRanks) * sizeof(int));
  // allreduce runs no reduce: at kFlat every rank leads its own one-rank
  // group, and each group leader ticks the inter algorithm once.
  EXPECT_EQ(snap.counter_or_zero("swmpi.reduce.calls"), 0u);
  EXPECT_EQ(snap.counter_or_zero("swmpi.hier.allreduce.algo_tree"),
            static_cast<std::uint64_t>(kRanks));
  EXPECT_EQ(snap.counter_or_zero("swmpi.barrier.calls"),
            static_cast<std::uint64_t>(kRanks));
  ASSERT_TRUE(snap.histograms.count("swmpi.allreduce.wall_s"));
  EXPECT_EQ(snap.histograms.at("swmpi.allreduce.wall_s").count,
            static_cast<std::uint64_t>(kRanks));
  // The tree moved real messages: point-to-point and mailbox metrics.
  EXPECT_GT(snap.counter_or_zero("swmpi.send.calls"), 0u);
  EXPECT_GT(snap.counter_or_zero("swmpi.send.bytes"), 0u);
  ASSERT_TRUE(snap.histograms.count("swmpi.recv.stall_s"));
  EXPECT_GT(snap.histograms.at("swmpi.recv.stall_s").count, 0u);
  EXPECT_TRUE(snap.gauges.count("swmpi.recv.queue_depth"));
}

TEST(Telemetry, WatchdogPathStallAndDropLandInTheRegistry) {
  // A blackholed send must show up as swmpi.send.dropped (never as a
  // delivered send), and the receiver's full watchdog wait must still be
  // observed into swmpi.recv.stall_s before the WatchdogTimeout surfaces —
  // the stall ledger used to lose exactly those worst-case samples.
  constexpr auto kWatchdog = std::chrono::milliseconds(60);
  telemetry::MetricsRegistry reg;
  swmpi::FaultPlan plan;
  plan.drop_send(/*rank=*/1, /*nth_send=*/0).watchdog(kWatchdog);
  bool timed_out = false;
  try {
    swmpi::run_spmd(
        2,
        [&](swmpi::Comm& world) {
          if (world.rank() == 1) {
            world.send_value<int>(0, 3, 42);
          } else {
            (void)world.recv_value<int>(1, 3);
          }
        },
        &plan, &reg);
  } catch (const WatchdogTimeout&) {
    timed_out = true;
  }
  EXPECT_TRUE(timed_out);

  const auto snap = reg.merged();
  EXPECT_EQ(snap.counter_or_zero("swmpi.send.dropped"), 1u);
  // The only send in the run was blackholed: the delivered-traffic ledger
  // must stay empty.
  EXPECT_EQ(snap.counter_or_zero("swmpi.send.calls"), 0u);
  EXPECT_EQ(snap.counter_or_zero("swmpi.send.bytes"), 0u);
  ASSERT_TRUE(snap.histograms.count("swmpi.recv.stall_s"));
  const auto& stall = snap.histograms.at("swmpi.recv.stall_s");
  EXPECT_GE(stall.count, 1u);
  // The watchdog-path sample carries (at least) the full timeout.
  EXPECT_GE(stall.sum, 0.9 * std::chrono::duration<double>(kWatchdog).count());
}

TEST(Telemetry, ChromeTraceIsWellFormedAndCarriesAllTimelines) {
  simarch::Trace sim;
  simarch::CostTally tally;
  tally.compute_s = 0.25;
  tally.net_comm_s = 0.05;
  sim.record_iteration(0, 0, 0.0, tally);
  sim.record_iteration(1, 0, 0.0, tally);
  sim.record_fault(0, "injected: net fault", 1.5);

  telemetry::SpanSink wall;
  wall.record("assign", 0, 0, 10.0, 100.0);
  wall.record("update", 0, 0, 110.0, 40.0);

  const auto faults = sim.fault_markers();
  std::ostringstream out;
  telemetry::write_chrome_trace(out, &sim, &wall, faults);
  const std::string json = out.str();

  EXPECT_TRUE(MiniJson(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("simulated machine"), std::string::npos);
  EXPECT_NE(json.find("wall clock"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // fault instant
  EXPECT_NE(json.find("injected: net fault"), std::string::npos);
  EXPECT_NE(json.find("\"assign\""), std::string::npos);

  // Null sources still produce a loadable trace.
  std::ostringstream empty;
  telemetry::write_chrome_trace(empty, nullptr, nullptr);
  EXPECT_TRUE(MiniJson(empty.str()).valid()) << empty.str();
}

TEST(Telemetry, RunReportIsWellFormedAndReconciles) {
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(200, 8, 4, 11);
  core::KmeansConfig config;
  config.k = 4;
  config.max_iterations = 3;
  config.tolerance = -1;
  simarch::Trace trace;
  telemetry::Telemetry session;
  config.trace = &trace;
  config.telemetry = &session;
  const core::KmeansResult result =
      core::run_level(core::Level::kLevel3, ds, config, machine);

  telemetry::RunReport report;
  report.run_id = "test-level3";
  report.shape = core::ProblemShape{ds.n(), config.k, ds.d()};
  report.level = core::Level::kLevel3;
  report.config = config;
  report.machine_summary = machine.summary();
  report.plan_summary = "test plan";
  report.set_result(result);
  report.metrics = session.metrics().merged();

  // The engines kept two independent ledgers of simulated traffic — the
  // per-iteration history and the telemetry counters. They must agree.
  EXPECT_GT(report.metrics.counter_or_zero("sim.net_bytes"), 0u);
  EXPECT_TRUE(telemetry::reconciles(report));

  // Engine instrumentation left its marks.
  EXPECT_GT(report.metrics.counter_or_zero("engine.gate.swept_samples") +
                report.metrics.counter_or_zero("engine.gate.pruned_samples"),
            0u);
  EXPECT_GT(session.spans().size(), 0u);

  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(MiniJson(json).valid()) << json.substr(0, 400);
  for (const char* key :
       {"\"run_id\"", "\"workload\"", "\"config\"", "\"outcome\"",
        "\"history\"", "\"metrics\"", "\"machine\"", "\"plan\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  // A tampered ledger must fail the cross-check.
  telemetry::RunReport broken = report;
  broken.metrics.counters["sim.net_bytes"] += 1;
  EXPECT_FALSE(telemetry::reconciles(broken));
}

TEST(Telemetry, ResultsAreBitIdenticalWithTelemetryOnAndOff) {
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(240, 10, 5, 23);
  for (core::Level level : {core::Level::kLevel1, core::Level::kLevel2,
                            core::Level::kLevel3}) {
    core::KmeansConfig off;
    off.k = 5;
    off.max_iterations = 4;
    off.tolerance = -1;
    const core::KmeansResult plain = core::run_level(level, ds, off, machine);

    core::KmeansConfig on = off;
    simarch::Trace trace;
    telemetry::Telemetry session;
    on.trace = &trace;
    on.telemetry = &session;
    const core::KmeansResult instrumented =
        core::run_level(level, ds, on, machine);

    ASSERT_EQ(plain.centroids.rows(), instrumented.centroids.rows());
    ASSERT_EQ(plain.centroids.cols(), instrumented.centroids.cols());
    EXPECT_EQ(std::memcmp(plain.centroids.data(),
                          instrumented.centroids.data(),
                          plain.centroids.size() * sizeof(float)),
              0)
        << core::level_name(level);
    EXPECT_EQ(plain.assignments, instrumented.assignments)
        << core::level_name(level);
    EXPECT_EQ(plain.iterations, instrumented.iterations);
    EXPECT_EQ(plain.inertia, instrumented.inertia) << core::level_name(level);
  }
}

TEST(Telemetry, SeedingCountersLandInTheRunReport) {
  // k-means++ seeding reports its sweep and pick counts on the host shard,
  // and observing them changes no result byte.
  const auto machine = simarch::MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(480, 24, 6, 19, 8.0, 0.5);
  core::KmeansConfig off;
  off.k = 12;
  off.max_iterations = 3;
  off.tolerance = -1;
  off.init = core::InitMethod::kPlusPlus;
  const core::KmeansResult plain =
      core::run_level(core::Level::kLevel2, ds, off, machine);

  core::KmeansConfig on = off;
  telemetry::Telemetry session;
  on.telemetry = &session;
  const core::KmeansResult instrumented =
      core::run_level(core::Level::kLevel2, ds, on, machine);
  EXPECT_EQ(std::memcmp(plain.centroids.data(), instrumented.centroids.data(),
                        plain.centroids.size() * sizeof(float)),
            0);
  EXPECT_EQ(plain.assignments, instrumented.assignments);
  EXPECT_EQ(plain.inertia, instrumented.inertia);

  telemetry::RunReport report;
  report.config = on;
  report.set_result(instrumented);
  report.metrics = session.metrics().merged();
  const std::uint64_t distances =
      report.metrics.counter_or_zero("init.sweep.distances");
  const std::uint64_t skipped =
      report.metrics.counter_or_zero("init.sweep.skipped");
  const std::uint64_t filtered =
      report.metrics.counter_or_zero("init.sweep.filtered");
  EXPECT_EQ(distances + skipped + filtered, ds.n() * (on.k - 1));
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(filtered, 0u);
  EXPECT_GT(report.metrics.counter_or_zero("init.sweep.pruned_picks"), 0u);
  std::ostringstream out;
  report.write_json(out);
  for (const char* key :
       {"\"init.sweep.distances\"", "\"init.sweep.skipped\"",
        "\"init.sweep.filtered\"", "\"init.sweep.pruned_picks\"",
        "\"init.pick.fallbacks\""}) {
    EXPECT_NE(out.str().find(key), std::string::npos) << key;
  }
}

TEST(Json, WriterEmitsStableStructure) {
  std::ostringstream out;
  util::JsonWriter w(out, 0);  // compact
  w.begin_object();
  w.kv("n", std::uint64_t{1024});
  w.kv("label", "he said \"hi\"\n");
  w.kv("ok", true);
  w.key("xs").begin_array().value(0.25).value(-3).end_array();
  w.key("nothing").null();
  w.end_object();
  const std::string json = out.str();
  EXPECT_TRUE(MiniJson(json).valid()) << json;
  EXPECT_EQ(json,
            "{\"n\":1024,\"label\":\"he said \\\"hi\\\"\\n\",\"ok\":true,"
            "\"xs\":[0.25,-3],\"nothing\":null}");
}

TEST(Json, FormatDoubleRoundTripsAndHandlesNonFinite) {
  for (double v : {1.0000001234567, 1234.5678901234567, 0.1, -0.0, 1e-300}) {
    EXPECT_EQ(std::stod(util::format_double(v)), v);
  }
  EXPECT_EQ(util::format_double(std::nan("")), "null");
  EXPECT_EQ(util::format_double(INFINITY), "null");
}

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(util::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(util::json_escape("x\n\t"), "x\\n\\t");
  EXPECT_EQ(util::json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Log, RenderTextIncludesContextWhenPresent) {
  util::LogContext ctx;
  ctx.component = "level1";
  ctx.rank = 2;
  ctx.iteration = 7;
  EXPECT_EQ(util::render_log_text(util::LogLevel::kWarn, ctx, "boom"),
            "[swhkm WARN  level1 rank=2 iter=7] boom");
  EXPECT_EQ(util::render_log_text(util::LogLevel::kInfo, util::LogContext{},
                                  "hello"),
            "[swhkm INFO ] hello");
}

TEST(Log, RenderJsonIsWellFormedAndEscaped) {
  util::LogContext ctx;
  ctx.component = "recovery";
  ctx.iteration = 3;
  const std::string line = util::render_log_json(
      util::LogLevel::kWarn, ctx, "bad \"state\"\nrecovered");
  EXPECT_TRUE(MiniJson(line).valid()) << line;
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"component\":\"recovery\""), std::string::npos);
  EXPECT_NE(line.find("\"iteration\":3"), std::string::npos);
  EXPECT_EQ(line.find("\"rank\""), std::string::npos);  // rank omitted
}

}  // namespace
}  // namespace swhkm
