#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hkmeans.hpp"
#include "simarch/trace.hpp"
#include "swmpi/collectives.hpp"
#include "swmpi/fault.hpp"
#include "swmpi/runtime.hpp"
#include "util/error.hpp"
#include "util/fileio.hpp"

namespace swhkm {
namespace {

using core::KmeansConfig;
using core::KmeansResult;
using core::Level;
using core::RecoveryDriver;
using core::RecoveryOptions;
using simarch::MachineConfig;

std::string unique_ckpt(const std::string& tag) {
  return ::testing::TempDir() + "/swhkm_fault_" + tag + ".ckpt";
}

// ------------------------------------------------------------ swmpi layer

TEST(FaultPlanInject, CrashSurfacesAsInjectedFault) {
  swmpi::FaultPlan plan;
  plan.crash(/*rank=*/1, /*iteration=*/3, swmpi::FaultSite::kUpdate);
  EXPECT_THROW(
      swmpi::run_spmd(
          2,
          [&](swmpi::Comm& world) {
            for (std::uint64_t iter = 0; iter < 5; ++iter) {
              world.fault_point(swmpi::FaultSite::kUpdate, iter);
            }
          },
          &plan),
      swmpi::InjectedFault);
  EXPECT_EQ(plan.fired_crashes(), 1u);
}

TEST(FaultPlanInject, OneShotCrashStaysDisarmedOnRetry) {
  swmpi::FaultPlan plan;
  plan.crash(0, 0, swmpi::FaultSite::kAssign);
  EXPECT_THROW(swmpi::run_spmd(
                   1,
                   [&](swmpi::Comm& world) {
                     world.fault_point(swmpi::FaultSite::kAssign, 0);
                   },
                   &plan),
               swmpi::InjectedFault);
  // Same coordinates again: the event already fired, the retry sails
  // through — the semantics the RecoveryDriver's retry loop depends on.
  EXPECT_NO_THROW(swmpi::run_spmd(
      1,
      [&](swmpi::Comm& world) {
        world.fault_point(swmpi::FaultSite::kAssign, 0);
      },
      &plan));
  EXPECT_EQ(plan.fired_crashes(), 1u);
}

TEST(FaultPlanSend, CorruptionIsDeterministicAndOneShot) {
  constexpr std::uint64_t kMask = 0x00000000000000FFull;
  auto run_once = [&] {
    swmpi::FaultPlan plan;
    plan.corrupt_send(/*rank=*/1, /*nth_send=*/1, kMask);
    std::vector<double> received(3, 0.0);
    swmpi::run_spmd(
        2,
        [&](swmpi::Comm& world) {
          if (world.rank() == 1) {
            for (int m = 0; m < 3; ++m) {
              world.send_value<double>(0, 7, 1.5 * (m + 1));
            }
          } else {
            for (int m = 0; m < 3; ++m) {
              received[static_cast<std::size_t>(m)] =
                  world.recv_value<double>(1, 7);
            }
          }
        },
        &plan);
    EXPECT_EQ(plan.fired_corruptions(), 1u);
    return received;
  };
  const std::vector<double> first = run_once();
  const std::vector<double> second = run_once();
  // Byte-for-byte reproducible outcome.
  EXPECT_EQ(std::memcmp(first.data(), second.data(), 3 * sizeof(double)), 0);
  // The frame CRC (computed over the clean payload before the injection
  // hook mutates it) catches the transient corruption on dequeue and the
  // bounded retransmit delivers the retained clean bits: every message
  // arrives intact even though the injection deterministically fired.
  EXPECT_EQ(first[0], 1.5);
  EXPECT_EQ(first[1], 3.0);
  EXPECT_EQ(first[2], 4.5);
}

TEST(FaultPlanSend, DroppedMessageTripsTheWatchdog) {
  swmpi::FaultPlan plan;
  plan.drop_send(/*rank=*/1, /*nth_send=*/0)
      .watchdog(std::chrono::milliseconds(100));
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
        &plan);
    FAIL() << "stalled recv did not time out";
  } catch (const WatchdogTimeout& timeout) {
    EXPECT_NE(std::string(timeout.what()).find("waited longer"),
              std::string::npos);
  }
  EXPECT_EQ(plan.fired_drops(), 1u);
}

// ---------------------------------------------- mailbox abort regressions

TEST(SwmpiAbort, PeerDeathWhileBlockedNeverDeadlocks) {
  // The classic lost-wakeup shape: three ranks parked in recv while the
  // fourth dies. Looped because the bug class is a race; run under TSan in
  // CI. A deadlock here turns into the 300 s test timeout.
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(swmpi::run_spmd(4,
                                 [&](swmpi::Comm& world) {
                                   if (world.rank() == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                   (void)world.recv_bytes(0, 1);
                                 }),
                 std::runtime_error);
  }
}

TEST(SwmpiAbort, SplitRacingAbortNeverDeadlocks) {
  // Rank 0 dies while the others are splitting or already blocked inside
  // the sub-communicator — the abort sweep must reach sub-worlds created
  // before, during, and after the abort (World::aborted closes the
  // register-after-snapshot window).
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(
        swmpi::run_spmd(4,
                        [&](swmpi::Comm& world) {
                          if (world.rank() == 0) {
                            throw std::runtime_error("boom");
                          }
                          swmpi::Comm sub = world.split(0, world.rank());
                          (void)sub.recv_bytes(swmpi::kAnySource, 5);
                        }),
        std::runtime_error);
  }
}

TEST(SwmpiAbort, ZeroCopyBuffersOutliveEveryThrow) {
  // The two-level collectives read peer memory in place: a leader folds
  // its members' published inputs, and members copy the result out of
  // their leader's buffer. A rank that throws aborts the world, and no
  // rank it wakes may free a buffer a peer can still read. Three shapes,
  // on two groups of four ranks:
  //   0: every rank throws as soon as its allreduce returns, while slower
  //      members may still be copying their leader's result;
  //   1: the same after an allgatherv;
  //   2: members throw between SplitAllreduce::start and finish while
  //      their leaders fold the inputs the members published.
  // Buffers live on the heap, so ASan reports a read of a freed one; a
  // wrong result counts as a failure without a sanitizer too. Looped
  // because the bug class is a race.
  constexpr int kRanks = 8;
  constexpr int kGroup = 4;
  constexpr std::size_t kLen = 1024;
  constexpr double kSum = kRanks * (kRanks + 1) / 2;
  const swmpi::ScopedCollectiveSchedule schedule(
      swmpi::CollectiveSchedule::kHierarchical, {kGroup, 1 << 20});
  std::atomic<int> wrong{0};
  for (int round = 0; round < 300; ++round) {
    const int shape = round % 3;
    EXPECT_THROW(
        swmpi::run_spmd(
            kRanks,
            [&](swmpi::Comm& world) {
              std::vector<double> buf(kLen, world.rank() + 1.0);
              if (shape == 0) {
                swmpi::allreduce_sum(world, std::span<double>(buf));
                if (buf.front() != kSum || buf.back() != kSum) {
                  ++wrong;
                }
              } else if (shape == 1) {
                const std::vector<double> all = swmpi::allgatherv(
                    world, std::span<const double>(buf));
                if (all.size() != kRanks * kLen || all.back() != kRanks) {
                  ++wrong;
                }
              } else {
                swmpi::SplitAllreduce<double, swmpi::ops::Plus> op;
                op.start(world, std::span<double>(buf), {});
                if (world.rank() % kGroup != 0) {
                  throw std::runtime_error("member dies mid-collective");
                }
                op.finish();
              }
              throw std::runtime_error("every rank dies");
            }),
        std::runtime_error);
  }
  EXPECT_EQ(wrong.load(), 0);
}

// ------------------------------------------------------- atomic file I/O

TEST(AtomicWrite, ThrowingBodyLeavesTargetAndDirectoryClean) {
  const std::string dir = ::testing::TempDir() + "/swhkm_atomic_dir";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/target.txt";
  util::write_file_atomic(path, std::ios::openmode{},
                          [](std::ofstream& file) { file << "first"; });
  EXPECT_THROW(util::write_file_atomic(
                   path, std::ios::openmode{},
                   [](std::ofstream&) { throw Error("writer died"); }),
               Error);
  std::ifstream in(path);
  std::string contents;
  std::getline(in, contents);
  EXPECT_EQ(contents, "first");  // old file intact
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "stale temp file: " << entry.path();
  }
}

// -------------------------------------------------------- recovery driver

KmeansConfig small_config() {
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 6;
  config.tolerance = -1;  // run all 6 iterations, no early convergence
  config.checkpoint_every = 2;
  return config;
}

class FaultMatrixTest : public ::testing::TestWithParam<Level> {};

TEST_P(FaultMatrixTest, CrashOfAnyRankAtAnySiteRecoversBitIdentically) {
  // The acceptance matrix: crash rank 0 (the collectives' fold owner),
  // rank 1 (a shard owner), and the last rank (a plain worker) at each of
  // the three iteration boundaries, for this level. Crashing at global
  // iteration 2 — the first iteration of the second leg — also exercises
  // the checkpoint reload path. Every recovered run must land on exactly
  // the bits of the uninterrupted run.
  const Level level = GetParam();
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  const KmeansConfig config = small_config();
  const KmeansResult ref =
      core::HierarchicalKmeans(machine).fit_level(level, ds, config);
  ASSERT_EQ(ref.iterations, 6u);

  const int last = static_cast<int>(machine.num_cgs()) - 1;
  int case_id = 0;
  for (swmpi::FaultSite site :
       {swmpi::FaultSite::kAssign, swmpi::FaultSite::kUpdate,
        swmpi::FaultSite::kCollective}) {
    for (int rank : {0, 1, last}) {
      SCOPED_TRACE(std::string("site=") + swmpi::fault_site_name(site) +
                   " rank=" + std::to_string(rank));
      swmpi::FaultPlan plan;
      plan.crash(rank, /*iteration=*/2, site);
      KmeansConfig faulty = config;
      faulty.fault_plan = &plan;
      RecoveryOptions options;
      options.checkpoint_path = unique_ckpt(
          "matrix_" + std::string(core::level_name(level)) + "_" +
          std::to_string(case_id++));
      RecoveryDriver driver(machine, options);
      const KmeansResult got = driver.run(level, ds, faulty);

      EXPECT_EQ(plan.fired_crashes(), 1u);
      EXPECT_EQ(got.iterations, ref.iterations);
      EXPECT_EQ(got.assignments, ref.assignments);
      EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids),
                0.0);
      EXPECT_DOUBLE_EQ(got.inertia, ref.inertia);

      const core::RecoveryReport& report = driver.report();
      EXPECT_EQ(report.faults, 1u);
      EXPECT_EQ(report.retries, 1u);
      EXPECT_TRUE(report.resumed_from_checkpoint);
      EXPECT_FALSE(report.degraded);
      EXPECT_EQ(report.final_cgs, machine.num_cgs());
      ASSERT_EQ(report.events.size(), 1u);
      EXPECT_EQ(report.events[0].iteration, 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, FaultMatrixTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return "Level" +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(RecoveryDriver, CrashBeforeFirstCheckpointRestartsFromScratch) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  const KmeansConfig config = small_config();
  const KmeansResult ref =
      core::HierarchicalKmeans(machine).fit_level(Level::kLevel1, ds, config);

  swmpi::FaultPlan plan;
  plan.crash(2, /*iteration=*/0, swmpi::FaultSite::kAssign);
  KmeansConfig faulty = config;
  faulty.fault_plan = &plan;
  RecoveryOptions options;
  options.checkpoint_path = unique_ckpt("first_leg");
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(Level::kLevel1, ds, faulty);

  EXPECT_EQ(got.assignments, ref.assignments);
  EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids), 0.0);
  EXPECT_FALSE(driver.report().resumed_from_checkpoint);
  EXPECT_EQ(driver.report().retries, 1u);
}

TEST(RecoveryDriver, StallRecoveredThroughWatchdog) {
  // Blackhole the first message rank 1 ever sends; some peer stalls until
  // the watchdog converts the silence into a WatchdogTimeout. The drop is
  // one-shot, so the driver's retry completes — bit-identically.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  const KmeansConfig config = small_config();
  const KmeansResult ref =
      core::HierarchicalKmeans(machine).fit_level(Level::kLevel1, ds, config);

  swmpi::FaultPlan plan;
  plan.drop_send(1, 0).watchdog(std::chrono::milliseconds(1500));
  KmeansConfig faulty = config;
  faulty.fault_plan = &plan;
  RecoveryOptions options;
  options.checkpoint_path = unique_ckpt("watchdog");
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(Level::kLevel1, ds, faulty);

  EXPECT_EQ(plan.fired_drops(), 1u);
  EXPECT_EQ(got.assignments, ref.assignments);
  EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids), 0.0);
  EXPECT_EQ(driver.report().faults, 1u);
}

TEST(RecoveryDriver, PermanentFaultDegradesToSmallerTopology) {
  // Rank 3 dies at iteration 0 every time it exists (fires = -1): the
  // 4-CG topology is permanently toxic. With retries exhausted the driver
  // sheds a node, re-plans on 2 CGs — where rank 3 no longer exists — and
  // finishes. The engines are topology-invariant bit-identical, so the
  // degraded run must match a clean run at the final topology exactly.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  const KmeansConfig config = small_config();

  swmpi::FaultPlan plan;
  plan.crash(3, /*iteration=*/0, swmpi::FaultSite::kAssign, /*fires=*/-1);
  KmeansConfig faulty = config;
  faulty.fault_plan = &plan;
  RecoveryOptions options;
  options.checkpoint_path = unique_ckpt("degrade");
  options.max_retries = 0;  // degrade on the first failure
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(Level::kLevel1, ds, faulty);

  const core::RecoveryReport& report = driver.report();
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.replans, 1u);
  EXPECT_EQ(report.final_cgs, 2u);
  EXPECT_EQ(driver.machine().num_cgs(), 2u);

  const MachineConfig shrunk = MachineConfig::tiny(1, 4, 8192);
  const KmeansResult ref =
      core::HierarchicalKmeans(shrunk).fit_level(Level::kLevel1, ds, config);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.assignments, ref.assignments);
  EXPECT_EQ(core::centroid_max_abs_diff(got.centroids, ref.centroids), 0.0);
}

TEST(RecoveryDriver, ExhaustedRetriesWithoutDegradationRethrow) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  swmpi::FaultPlan plan;
  plan.crash(0, 0, swmpi::FaultSite::kAssign, /*fires=*/-1);
  KmeansConfig faulty = small_config();
  faulty.fault_plan = &plan;
  RecoveryOptions options;
  options.checkpoint_path = unique_ckpt("give_up");
  options.max_retries = 1;
  options.allow_degradation = false;
  RecoveryDriver driver(machine, options);
  EXPECT_THROW(driver.run(Level::kLevel1, ds, faulty), swmpi::InjectedFault);
  EXPECT_EQ(driver.report().faults, 2u);  // first try + one retry
}

TEST(RecoveryDriver, StatsAndTraceCarryTheFaultStory) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(160, 6, 4, 11);
  simarch::Trace trace;
  swmpi::FaultPlan plan;
  plan.crash(1, /*iteration=*/2, swmpi::FaultSite::kUpdate);
  KmeansConfig faulty = small_config();
  faulty.fault_plan = &plan;
  faulty.trace = &trace;
  RecoveryOptions options;
  options.checkpoint_path = unique_ckpt("stats");
  RecoveryDriver driver(machine, options);
  const KmeansResult got = driver.run(Level::kLevel1, ds, faulty);

  // The first iteration of the recovered leg carries the retry count and
  // the wall-clock recovery latency; every other iteration is clean.
  ASSERT_EQ(got.history.size(), 6u);
  EXPECT_EQ(got.history[2].retries, 1u);
  EXPECT_GT(got.history[2].recover_s, 0.0);
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    if (i != 2) {
      EXPECT_EQ(got.history[i].retries, 0u) << i;
      EXPECT_EQ(got.history[i].recover_s, 0.0) << i;
    }
  }
  const auto markers = trace.fault_markers();
  ASSERT_EQ(markers.size(), 1u);
  EXPECT_EQ(markers[0].iteration, 2u);
  EXPECT_GT(markers[0].wall_s, 0.0);
  EXPECT_NE(markers[0].what.find("injected fault"), std::string::npos);
  // The trace's simulated timeline only holds the iterations that landed:
  // global iteration numbering, no duplicates from the failed attempt...
  // the failed attempt's partial rows are indistinguishable by design (the
  // engine records before the collective), so just check the driver's
  // report agrees with the markers.
  EXPECT_EQ(driver.report().faults, markers.size());
  EXPECT_DOUBLE_EQ(driver.report().events[0].wall_s, markers[0].wall_s);
}

}  // namespace
}  // namespace swhkm
