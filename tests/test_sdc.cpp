// Property suite for the layered SDC defense: transport CRC framing,
// fault-injection coordinates across collective shapes and all three
// engine levels, detector coverage (nothing silently absorbed), and the
// bit-identity of detection-triggered recovery.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "core/hkmeans.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/fault.hpp"
#include "swmpi/runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace swhkm {
namespace {

using core::KmeansConfig;
using core::KmeansResult;
using core::Level;
using core::RecoveryDriver;
using core::RecoveryOptions;
using simarch::MachineConfig;

// A high-magnitude exponent-bit mask: guaranteed past the ABFT tolerance,
// so "100% detection" is a provable claim rather than a probabilistic one
// (see DESIGN.md §13 — sub-tolerance flips are absorbed without changing
// any selector outcome).
constexpr std::uint64_t kExponentMask = 1ull << 62;

std::string unique_ckpt(const std::string& tag) {
  return ::testing::TempDir() + "/swhkm_sdc_" + tag + ".ckpt";
}

KmeansConfig sdc_config() {
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 6;
  config.tolerance = -1;  // run all 6 iterations, no early convergence
  config.checkpoint_every = 2;
  config.sdc_checks = true;
  return config;
}

// ------------------------------------------------------- transport layer

TEST(SdcTransport, SubEightBytePayloadCorruptionClampsTheXorWindow) {
  // A 4-byte payload with a full 8-byte mask: only the bytes that exist
  // get XORed (ASan guards the rest). The event still fires.
  swmpi::FaultPlan plan;
  plan.corrupt_send(/*rank=*/0, /*nth_send=*/0, ~0ull);
  std::array<std::byte, 4> buf{std::byte{0x01}, std::byte{0x02},
                               std::byte{0x03}, std::byte{0x04}};
  const swmpi::SendVerdict verdict =
      plan.on_send(0, std::span<std::byte>(buf.data(), buf.size()));
  EXPECT_TRUE(verdict.deliver);
  EXPECT_TRUE(verdict.corrupted);
  EXPECT_FALSE(verdict.persistent);
  EXPECT_EQ(buf[0], std::byte{0xFE});
  EXPECT_EQ(buf[1], std::byte{0xFD});
  EXPECT_EQ(buf[2], std::byte{0xFC});
  EXPECT_EQ(buf[3], std::byte{0xFB});
  EXPECT_EQ(plan.fired_corruptions(), 1u);
}

TEST(SdcTransport, CorruptionOffsetPastPayloadEndMutatesNothing) {
  swmpi::FaultPlan plan;
  plan.corrupt_send(/*rank=*/0, /*nth_send=*/0, ~0ull, /*offset=*/64);
  std::array<std::byte, 4> buf{std::byte{0x11}, std::byte{0x22},
                               std::byte{0x33}, std::byte{0x44}};
  const swmpi::SendVerdict verdict =
      plan.on_send(0, std::span<std::byte>(buf.data(), buf.size()));
  EXPECT_TRUE(verdict.corrupted);  // fired, just with an empty window
  EXPECT_EQ(buf[0], std::byte{0x11});
  EXPECT_EQ(buf[3], std::byte{0x44});
  EXPECT_EQ(plan.fired_corruptions(), 1u);
}

TEST(SdcTransport, SubEightByteEndToEndCorruptionIsHealedByTheFrameCrc) {
  // Regression for the sub-8-byte clamp at the wire level: corrupt a
  // 4-byte int in flight; the frame CRC catches it and the retransmit
  // delivers the retained clean bits.
  swmpi::FaultPlan plan;
  plan.corrupt_send(/*rank=*/1, /*nth_send=*/0, ~0ull);
  int received = 0;
  swmpi::run_spmd(
      2,
      [&](swmpi::Comm& world) {
        if (world.rank() == 1) {
          world.send_value<int>(0, 5, 1234);
        } else {
          received = world.recv_value<int>(1, 5);
        }
      },
      &plan);
  EXPECT_EQ(received, 1234);
  EXPECT_EQ(plan.fired_corruptions(), 1u);
}

TEST(SdcTransport, DropWithNoWatchdogIsRejectedAtRunEntry) {
  // An armed drop with no watchdog is an undetectable deadlock — run_spmd
  // fails fast at entry instead of hanging.
  swmpi::FaultPlan plan;
  plan.drop_send(/*rank=*/0, /*nth_send=*/0);
  EXPECT_THROW(swmpi::run_spmd(2, [](swmpi::Comm&) {}, &plan),
               InvalidArgument);
  // The same plan with the watchdog armed enters fine.
  plan.watchdog(std::chrono::milliseconds(200));
  EXPECT_NO_THROW(swmpi::run_spmd(2, [](swmpi::Comm&) {}, &plan));
}

TEST(SdcTransport, TransientCorruptionTicksCrcAndRetransmitCounters) {
  telemetry::MetricsRegistry reg;
  swmpi::FaultPlan plan;
  plan.corrupt_send(/*rank=*/1, /*nth_send=*/0, kExponentMask);
  double received = 0;
  swmpi::run_spmd(
      2,
      [&](swmpi::Comm& world) {
        if (world.rank() == 1) {
          world.send_value<double>(0, 9, 2.5);
        } else {
          received = world.recv_value<double>(1, 9);
        }
      },
      &plan, &reg);
  EXPECT_EQ(received, 2.5);
  const auto snap = reg.merged();
  EXPECT_EQ(snap.counter_or_zero("swmpi.recv.crc_fail"), 1u);
  EXPECT_GE(snap.counter_or_zero("swmpi.send.retransmit"), 1u);
  EXPECT_EQ(snap.counter_or_zero("fault.fired_corruptions"), 1u);
}

TEST(SdcTransport, PersistentCorruptionEscalatesWithAttribution) {
  // A persistent (stuck-at) corruption survives every retransmit: bounded
  // NACK/resend gives up and raises CorruptMessageError naming the sender.
  swmpi::FaultPlan plan;
  plan.corrupt_send(/*rank=*/1, /*nth_send=*/0, kExponentMask, /*offset=*/0,
                    /*persistent=*/true);
  try {
    swmpi::run_spmd(
        2,
        [&](swmpi::Comm& world) {
          if (world.rank() == 1) {
            world.send_value<double>(0, 9, 2.5);
          } else {
            (void)world.recv_value<double>(1, 9);
          }
        },
        &plan);
    FAIL() << "persistent corruption was silently absorbed";
  } catch (const CorruptMessageError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("from rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("seq"), std::string::npos) << what;
  }
}

TEST(SdcTransport, CollectiveShapesNeverSilentlyAbsorbCorruption) {
  // Persistent corruption under every collective shape the engines use
  // must surface as CorruptMessageError — never a silently wrong sum.
  struct Shape {
    const char* name;
    std::function<void(swmpi::Comm&)> body;
  };
  const std::vector<Shape> shapes = {
      {"allreduce",
       [](swmpi::Comm& world) {
         std::uint64_t x = static_cast<std::uint64_t>(world.rank()) + 1;
         swmpi::allreduce_sum(world, std::span<std::uint64_t>(&x, 1));
       }},
      {"allgather",
       [](swmpi::Comm& world) {
         (void)swmpi::allgather(world,
                                static_cast<std::uint64_t>(world.rank()));
       }},
      {"split",
       [](swmpi::Comm& world) {
         swmpi::Comm sub = world.split(world.rank() % 2, world.rank());
         std::uint64_t x = 1;
         swmpi::allreduce_sum(sub, std::span<std::uint64_t>(&x, 1));
       }},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    swmpi::FaultPlan plan;
    // Corrupt every send rank 1 makes, persistently, at a byte offset
    // inside the smallest payload the shape moves.
    for (std::uint64_t nth = 0; nth < 8; ++nth) {
      plan.corrupt_send(1, nth, kExponentMask, /*offset=*/0,
                        /*persistent=*/true);
    }
    EXPECT_THROW(swmpi::run_spmd(4, shape.body, &plan), CorruptMessageError);
    EXPECT_GE(plan.fired_corruptions(), 1u);
  }
}

TEST(SdcTransport, TransientCorruptionUnderCollectivesIsBitInvisible) {
  // The healed collective must produce exactly the clean result.
  std::uint64_t clean[4] = {0, 0, 0, 0};
  swmpi::run_spmd(4, [&](swmpi::Comm& world) {
    std::uint64_t x = static_cast<std::uint64_t>(world.rank()) * 3 + 1;
    swmpi::allreduce_sum(world, std::span<std::uint64_t>(&x, 1));
    clean[world.rank()] = x;
  });
  swmpi::FaultPlan plan;
  plan.corrupt_send(2, 0, kExponentMask);
  std::uint64_t healed[4] = {0, 0, 0, 0};
  swmpi::run_spmd(
      4,
      [&](swmpi::Comm& world) {
        std::uint64_t x = static_cast<std::uint64_t>(world.rank()) * 3 + 1;
        swmpi::allreduce_sum(world, std::span<std::uint64_t>(&x, 1));
        healed[world.rank()] = x;
      },
      &plan);
  EXPECT_EQ(plan.fired_corruptions(), 1u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(healed[r], clean[r]) << "rank " << r;
  }
}

// -------------------------------------------------- engine-level matrix

class SdcEngineMatrix : public ::testing::TestWithParam<Level> {};

TEST_P(SdcEngineMatrix, MemoryFlipsAreDetectedNeverAbsorbed) {
  // Every flip_memory coordinate class, at this engine level, must be
  // *detected* — either by a throwing detector (snapshot CRC, accumulator
  // CRC, counts conservation) or by the in-place ABFT repair. A flip that
  // neither throws nor lands in sdc_recomputed would be a silent wrong
  // answer — the failure mode this PR exists to kill.
  const Level level = GetParam();
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  const KmeansConfig config = sdc_config();
  const std::size_t sums_bytes = config.k * ds.d() * sizeof(double);

  struct FlipCase {
    const char* name;
    swmpi::MemorySite site;
    std::size_t offset;
    std::size_t iteration;
    bool throws;  // detector escalates vs ABFT repairs in place
  };
  // The tile-scratch flip lands in iteration 0, whose full sweep builds
  // GEMM panels on every rank; a gated iteration may build none.
  const std::vector<FlipCase> cases = {
      {"snapshot", swmpi::MemorySite::kSnapshot, 0, 1, true},
      {"tile_scratch", swmpi::MemorySite::kTileScratch, 0, 0, false},
      {"accum_sums", swmpi::MemorySite::kUpdateAccum, 0, 1, true},
      {"accum_counts", swmpi::MemorySite::kUpdateAccum, sums_bytes, 1, true},
  };
  KmeansConfig clean = config;
  clean.sdc_checks = false;
  const KmeansResult ref =
      core::HierarchicalKmeans(machine).fit_level(level, ds, clean);

  for (const FlipCase& c : cases) {
    SCOPED_TRACE(c.name);
    swmpi::FaultPlan plan;
    plan.flip_memory(/*rank=*/1, c.iteration, c.site, c.offset,
                     kExponentMask);
    KmeansConfig faulty = config;
    faulty.fault_plan = &plan;
    if (c.throws) {
      EXPECT_THROW(
          core::HierarchicalKmeans(machine).fit_level(level, ds, faulty),
          SilentCorruptionError);
      EXPECT_EQ(plan.fired_flips(), 1u);
    } else {
      // ABFT checksum column: detect, recompute the panel bit-identically,
      // keep going — the run finishes on exactly the clean bits.
      const KmeansResult got =
          core::HierarchicalKmeans(machine).fit_level(level, ds, faulty);
      EXPECT_EQ(plan.fired_flips(), 1u);
      EXPECT_EQ(got.assignments, ref.assignments);
      EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids),
                0.0);
      std::uint64_t recomputed = 0;
      for (const auto& it : got.history) {
        recomputed += it.sdc_recomputed;
      }
      EXPECT_GE(recomputed, 1u);
    }
  }
}

TEST_P(SdcEngineMatrix, LocalizedRecoveryEngagesBeforeCheckpointRollback) {
  // A detected SDC retries just the poisoned leg from the driver's
  // still-valid in-memory centroids: no checkpoint reload, no charge
  // against the fail-stop retry budget — and the recovered run lands on
  // exactly the bits of a defense-disabled clean run.
  const Level level = GetParam();
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  const KmeansConfig config = sdc_config();
  KmeansConfig clean = config;
  clean.sdc_checks = false;
  const KmeansResult ref =
      core::HierarchicalKmeans(machine).fit_level(level, ds, clean);

  int case_id = 0;
  const std::size_t sums_bytes = config.k * ds.d() * sizeof(double);
  struct FlipCase {
    const char* name;
    swmpi::MemorySite site;
    std::size_t offset;
  };
  for (const FlipCase& c : std::vector<FlipCase>{
           {"snapshot", swmpi::MemorySite::kSnapshot, 0},
           {"accum_sums", swmpi::MemorySite::kUpdateAccum, 0},
           {"accum_counts", swmpi::MemorySite::kUpdateAccum, sums_bytes}}) {
    SCOPED_TRACE(c.name);
    // Iteration 3 sits in the second leg (cadence 2): the flip kills a
    // leg that *does* have a checkpoint behind it, proving the localized
    // path wins over the rollback the driver would otherwise take.
    swmpi::FaultPlan plan;
    plan.flip_memory(/*rank=*/0, /*iteration=*/3, c.site, c.offset,
                     kExponentMask);
    KmeansConfig faulty = config;
    faulty.fault_plan = &plan;
    RecoveryOptions options;
    options.checkpoint_path = unique_ckpt(
        std::string(core::level_name(level)) + "_" + std::to_string(case_id++));
    RecoveryDriver driver(machine, options);
    const KmeansResult got = driver.run(level, ds, faulty);

    EXPECT_EQ(plan.fired_flips(), 1u);
    const core::RecoveryReport& report = driver.report();
    EXPECT_EQ(report.sdc_detections, 1u);
    EXPECT_EQ(report.localized_retries, 1u);
    EXPECT_EQ(report.retries, 0u);  // fail-stop budget untouched
    EXPECT_FALSE(report.resumed_from_checkpoint);
    ASSERT_EQ(report.events.size(), 1u);
    EXPECT_TRUE(report.events[0].sdc);

    EXPECT_EQ(got.iterations, ref.iterations);
    EXPECT_EQ(got.assignments, ref.assignments);
    EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids), 0.0);
    EXPECT_DOUBLE_EQ(got.inertia, ref.inertia);
    // The recovered leg's first iteration carries the localized-retry
    // stamp (global iteration 2 = first iteration of the second leg).
    ASSERT_EQ(got.history.size(), 6u);
    EXPECT_EQ(got.history[2].sdc_retries, 1u);
  }
}

TEST_P(SdcEngineMatrix, DefenseOnCleanRunIsBitIdenticalToDefenseOff) {
  // Arming every detector on a corruption-free run must not move a single
  // bit: the scrubbers only read, the ABFT verify only compares, and the
  // conservation guard only sums a copy.
  const Level level = GetParam();
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  KmeansConfig off = sdc_config();
  off.sdc_checks = false;
  const KmeansConfig on = sdc_config();
  const KmeansResult ref =
      core::HierarchicalKmeans(machine).fit_level(level, ds, off);
  const KmeansResult got =
      core::HierarchicalKmeans(machine).fit_level(level, ds, on);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.assignments, ref.assignments);
  EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids), 0.0);
  EXPECT_DOUBLE_EQ(got.inertia, ref.inertia);
}

TEST(SdcEngine, ArmedDefenseModeledOverheadIsBounded) {
  // A clean run of each level with the defense armed vs off: the scrub and
  // ABFT charges must land in the cost model (overhead above zero) and
  // stay cheap enough to always arm (below 15%). The scrub verdicts and
  // the counts-conservation word ride the update allgather's header:
  // more bytes on the network, no extra round. Its own shape: on the 160-
  // sample run of DefenseOnCleanRunIsBitIdenticalToDefenseOff the fixed
  // per-iteration scrub charges dominate and the overhead reads 0.31.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(2048, 6, 10, 4242);
  KmeansConfig off;
  off.k = 8;
  off.max_iterations = 10;
  off.tolerance = -1;
  off.checkpoint_every = 4;
  KmeansConfig on = off;
  on.sdc_checks = true;
  for (const Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    const std::string where = core::level_name(level);
    const KmeansResult ref =
        core::HierarchicalKmeans(machine).fit_level(level, ds, off);
    const KmeansResult armed =
        core::HierarchicalKmeans(machine).fit_level(level, ds, on);
    ASSERT_GT(ref.cost.total_s(), 0.0) << where;
    const double overhead = armed.cost.total_s() / ref.cost.total_s() - 1.0;
    EXPECT_GT(overhead, 0.0) << where;
    EXPECT_LT(overhead, 0.15) << where;
    EXPECT_EQ(armed.cost.net_rounds, ref.cost.net_rounds) << where;
    EXPECT_GT(armed.cost.net_bytes, ref.cost.net_bytes) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, SdcEngineMatrix,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return "Level" +
                                  std::to_string(static_cast<int>(info.param));
                         });

// ------------------------------------------------------ telemetry export

TEST(SdcTelemetry, FiredAndDetectionCountersLandInTheMergedSnapshot) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  telemetry::Telemetry session;
  swmpi::FaultPlan plan;
  plan.flip_memory(/*rank=*/0, /*iteration=*/1, swmpi::MemorySite::kSnapshot,
                   /*offset=*/0, kExponentMask);
  KmeansConfig config = sdc_config();
  config.fault_plan = &plan;
  config.telemetry = &session;
  RecoveryOptions options;
  options.checkpoint_path = unique_ckpt("telemetry");
  RecoveryDriver driver(machine, options);
  (void)driver.run(Level::kLevel1, ds, config);

  const auto snap = session.metrics().merged();
  EXPECT_EQ(snap.counter_or_zero("fault.fired_flips"), 1u);
  // Every rank re-reads the shared snapshot and ticks on the mismatch, but
  // the first thrower aborts peers still draining the scrub barrier — so
  // anywhere from one rank to all of them records the detection.
  EXPECT_GE(snap.counter_or_zero("sdc.snapshot.crc_fail"), 1u);
  EXPECT_LE(snap.counter_or_zero("sdc.snapshot.crc_fail"), machine.num_cgs());
  EXPECT_EQ(snap.counter_or_zero("recovery.sdc_detections"), 1u);
  EXPECT_EQ(snap.counter_or_zero("recovery.localized_retries"), 1u);
}

}  // namespace
}  // namespace swhkm
