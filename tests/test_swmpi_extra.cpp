#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <tuple>

#include "swmpi/collectives.hpp"
#include "swmpi/mailbox.hpp"
#include "swmpi/runtime.hpp"
#include "swmpi/spsc_ring.hpp"
#include "util/error.hpp"

namespace swhkm::swmpi {
namespace {

// ---------------------------------------------------------- SPSC ring

TEST(SpscRing, FifoAndWraparound) {
  SpscRing<int> ring(8);
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
  // Several laps so head/tail wrap past the capacity repeatedly.
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 8; ++i) {
      int v = lap * 8 + i;
      EXPECT_TRUE(ring.try_push(v));
    }
    int overflow = -1;
    EXPECT_FALSE(ring.try_push(overflow));  // full
    EXPECT_EQ(ring.size_approx(), 8u);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 8 + i);
    }
    EXPECT_FALSE(ring.try_pop(out));
  }
}

TEST(SpscRing, ConcurrentProducerConsumerKeepsFifo) {
  // TSan target: one producer, one consumer, a ring small enough that both
  // sides constantly race on the full/empty edges.
  constexpr int kItems = 20000;
  SpscRing<int> ring(16);
  std::thread producer([&] {
    for (int i = 0; i < kItems;) {
      int v = i;
      if (ring.try_push(v)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  int expect = 0;
  int out = -1;
  while (expect < kItems) {
    if (ring.try_pop(out)) {
      ASSERT_EQ(out, expect);
      ++expect;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop(out));
}

// ------------------------------------------------------ mailbox torture

TEST(MailboxTorture, ConcurrentPushTimeoutAbortRounds) {
  // TSan stress for the lock-free mailbox: two senders race a receiver
  // that alternates short watchdog-style timed pops, with an abort landing
  // mid-stream every other round. Quiet rounds must deliver every message;
  // abort rounds must deliver everything already queued and then fault.
  constexpr int kRounds = 60;
  constexpr int kPerSender = 40;  // < lane capacity: senders never block
  for (int round = 0; round < kRounds; ++round) {
    const bool aborting = (round % 2) == 1;
    Mailbox box(4);
    auto sender = [&](int source) {
      for (int m = 0; m < kPerSender; ++m) {
        try {
          box.push({source, 7, {std::byte{static_cast<unsigned char>(m)}}});
        } catch (const RuntimeFault&) {
          return;  // ring filled after an abort — expected, stop sending
        }
        if (m % 8 == source) {
          std::this_thread::yield();
        }
      }
    };
    std::thread s0(sender, 0);
    std::thread s1(sender, 1);
    std::thread aborter;
    if (aborting) {
      aborter = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
        box.abort();
      });
    }
    int delivered = 0;
    int dry_spells = 0;
    bool faulted = false;
    Message out;
    while (delivered < 2 * kPerSender) {
      try {
        if (box.pop_matching_for(kAnySource, 7,
                                 std::chrono::milliseconds(2), out)) {
          ++delivered;
          dry_spells = 0;
        } else {
          // A timed-out pop just means a sender got descheduled; only a
          // sustained dry spell (~1s) is a real loss.
          ASSERT_LT(++dry_spells, 500) << "round " << round << " stuck at "
                                       << delivered;
        }
      } catch (const RuntimeFault&) {
        faulted = true;
        break;
      }
    }
    s0.join();
    s1.join();
    if (aborting) {
      aborter.join();
      // Either every message raced in ahead of the abort, or the abort
      // surfaced as a fault — never a silent shortfall.
      EXPECT_TRUE(faulted || delivered == 2 * kPerSender);
    } else {
      EXPECT_EQ(delivered, 2 * kPerSender);
      EXPECT_FALSE(faulted);
    }
  }
}

TEST(MailboxTorture, StashPreservesPerSourceOrderAcrossSources) {
  // Messages drained while hunting for another source's tag park in the
  // receiver stash; per-source FIFO must survive the detour.
  Mailbox box(4);
  std::thread s0([&] {
    for (int m = 0; m < 10; ++m) {
      box.push({0, m, {}});
    }
  });
  std::thread s1([&] {
    for (int m = 0; m < 10; ++m) {
      box.push({1, m, {}});
    }
  });
  s0.join();
  s1.join();
  // Pop source 1 first (stashing source 0's backlog), then source 0.
  for (int m = 0; m < 10; ++m) {
    const Message got = box.pop_matching(1, m);
    EXPECT_EQ(got.source, 1);
  }
  for (int m = 0; m < 10; ++m) {
    const Message got = box.pop_matching(0, m);
    EXPECT_EQ(got.source, 0);
  }
  EXPECT_EQ(box.pending(), 0u);
}

// ---------------------------------------------------- split allreduce

class SplitAllreduceTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitAllreduceTest, MatchesBlockingAllreduceBitForBit) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    for (int round = 0; round < 4; ++round) {
      // Values whose sum association matters in doubles: any reordering
      // of the fold would move the low bits.
      std::vector<double> split_buf(5);
      std::vector<double> block_buf(5);
      for (std::size_t i = 0; i < split_buf.size(); ++i) {
        split_buf[i] = 1.0 / (comm.rank() + 2.0 + static_cast<double>(i)) +
                       round * 0.125;
        block_buf[i] = split_buf[i];
      }
      SplitAllreduce<double, ops::Plus> op;
      op.start(comm, std::span<double>(split_buf), ops::Plus{});
      EXPECT_TRUE(op.active());
      // A full collective runs while the split op is in flight — tag
      // reservation must keep the two from cross-matching.
      allreduce(comm, std::span<double>(block_buf), ops::Plus{});
      op.finish();
      EXPECT_FALSE(op.active());
      for (std::size_t i = 0; i < split_buf.size(); ++i) {
        EXPECT_EQ(split_buf[i], block_buf[i]) << "element " << i;
      }
    }
  });
}

TEST_P(SplitAllreduceTest, TwoOutstandingOpsRetireInOrder) {
  // The engines' pipeline shape: tile t+1's combine starts before tile
  // t's finishes, so two ops are briefly in flight back-to-back.
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    std::vector<MinLoc> a(3);
    std::vector<MinLoc> b(3);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = {static_cast<double>((comm.rank() + 1) * (i + 1)),
              static_cast<std::uint64_t>(comm.rank())};
      b[i] = {static_cast<double>(size - comm.rank()) + 0.5 * i,
              static_cast<std::uint64_t>(comm.rank())};
    }
    std::vector<MinLoc> a_ref = a;
    std::vector<MinLoc> b_ref = b;
    SplitAllreduce<MinLoc, ops::Min> op_a;
    SplitAllreduce<MinLoc, ops::Min> op_b;
    op_a.start(comm, std::span<MinLoc>(a), ops::Min{});
    op_b.start(comm, std::span<MinLoc>(b), ops::Min{});
    op_a.finish();
    op_b.finish();
    allreduce(comm, std::span<MinLoc>(a_ref), ops::Min{});
    allreduce(comm, std::span<MinLoc>(b_ref), ops::Min{});
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].value, a_ref[i].value);
      EXPECT_EQ(a[i].index, a_ref[i].index);
      EXPECT_EQ(b[i].value, b_ref[i].value);
      EXPECT_EQ(b[i].index, b_ref[i].index);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, SplitAllreduceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

// ------------------------------- hierarchical schedule property suite

/// Association-sensitive deterministic value: magnitudes spread over ~12
/// binary orders so any change in the FP fold order moves the result bits.
double hier_spread(int rank, std::size_t i) {
  const int e = static_cast<int>(
                    (i * 13 + static_cast<std::size_t>(rank) * 7) % 25) -
                12;
  return std::ldexp(1.0 + 0.001 * static_cast<double>(i) +
                        0.01 * static_cast<double>(rank),
                    e);
}

template <typename T>
std::vector<std::byte> to_bytes(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> b(v.size() * sizeof(T));
  if (!b.empty()) {
    std::memcpy(b.data(), v.data(), b.size());
  }
  return b;
}

/// The independent reference for the allreduce cases: reduce()'s root-0
/// binomial tree then bcast(), which share no code with the layout path.
std::vector<double> reduce_bcast_reference(Comm& comm,
                                           std::vector<double> buf) {
  reduce(comm, 0, std::span<double>(buf), ops::Plus{});
  bcast(comm, 0, std::span<double>(buf));
  return buf;
}

/// Run `body` on `world` ranks under (schedule, spec) and collect each
/// rank's serialized result, so a flat-schedule reference run and a
/// hierarchical run of the same body can be compared bit for bit.
template <typename Fn>
std::vector<std::vector<std::byte>> run_under_schedule(
    int world, CollectiveSchedule sched, const HierarchySpec& spec,
    Fn&& body) {
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(world));
  const ScopedCollectiveSchedule guard(sched, spec);
  run_spmd(world, [&](Comm& comm) {
    out[static_cast<std::size_t>(comm.rank())] = body(comm);
  });
  return out;
}

/// (world size, ranks_per_group selector); selector 0 means "the whole
/// world in one group". Covers non-pow2 worlds, groups that do not divide
/// the world (3), degenerate one-rank groups (the flat pattern expressed
/// hierarchically), and a single all-rank group (no inter stage).
class HierScheduleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int world() const { return std::get<0>(GetParam()); }
  HierarchySpec spec(std::size_t crossover_bytes) const {
    const int sel = std::get<1>(GetParam());
    return {sel == 0 ? world() : sel, crossover_bytes};
  }
  /// Compare a flat reference run of `body` against hierarchical runs at
  /// each crossover, so both inter algorithms (binomial tree and
  /// reduce_scatter+allgather) are forced regardless of payload size.
  template <typename Fn>
  void expect_hier_matches_flat(Fn&& body, const char* what) {
    const auto flat =
        run_under_schedule(world(), CollectiveSchedule::kFlat, {}, body);
    for (const std::size_t xover :
         {std::size_t{0}, std::size_t{64},
          std::numeric_limits<std::size_t>::max()}) {
      const auto hier = run_under_schedule(
          world(), CollectiveSchedule::kHierarchical, spec(xover), body);
      EXPECT_EQ(flat, hier)
          << what << " world=" << world() << " rpg="
          << spec(xover).ranks_per_group << " xover=" << xover;
    }
  }
};

TEST_P(HierScheduleTest, AllreduceDoublesMatchesFlatBitForBit) {
  // 3 doubles (24 B) sit below the 64-byte crossover, 16 (128 B) above —
  // one payload per inter algorithm at that spec, and the 0/max extremes
  // force the other algorithm onto each payload too.
  for (const std::size_t len : {std::size_t{3}, std::size_t{16}}) {
    expect_hier_matches_flat(
        [len](Comm& comm) {
          std::vector<double> buf(len);
          for (std::size_t i = 0; i < len; ++i) {
            buf[i] = hier_spread(comm.rank(), i);
          }
          const std::vector<double> ref = reduce_bcast_reference(comm, buf);
          allreduce(comm, std::span<double>(buf), ops::Plus{});
          EXPECT_EQ(to_bytes(buf), to_bytes(ref)) << "rank " << comm.rank();
          return to_bytes(buf);
        },
        "allreduce");
  }
}

TEST_P(HierScheduleTest, Minloc2MatchesFlat) {
  expect_hier_matches_flat(
      [](Comm& comm) {
        std::vector<MinLoc2> buf(7);
        for (std::size_t i = 0; i < buf.size(); ++i) {
          // Cross-rank ties on value so the index tie-break and the
          // runner-up tracking both matter.
          buf[i] = {static_cast<double>(
                        (static_cast<std::size_t>(comm.rank()) + i) % 3) +
                        0.25,
                    static_cast<std::uint64_t>(comm.rank()) * 100 + i,
                    std::numeric_limits<double>::max()};
        }
        allreduce_minloc2(comm, std::span<MinLoc2>(buf));
        return to_bytes(buf);
      },
      "minloc2");
}

TEST_P(HierScheduleTest, AllgathervMatchesFlat) {
  expect_hier_matches_flat(
      [](Comm& comm) {
        // Ragged contributions with rank-0's (and every 4th) empty.
        const auto rank = static_cast<std::size_t>(comm.rank());
        std::vector<std::uint64_t> mine(rank % 4);
        for (std::size_t i = 0; i < mine.size(); ++i) {
          mine[i] = rank * 1000 + i;
        }
        return to_bytes(allgatherv(
            comm, std::span<const std::uint64_t>(mine.data(), mine.size())));
      },
      "allgatherv");
}

TEST_P(HierScheduleTest, SplitAllreduceMatchesFlat) {
  expect_hier_matches_flat(
      [](Comm& comm) {
        std::vector<double> buf(9);
        for (std::size_t i = 0; i < buf.size(); ++i) {
          buf[i] = hier_spread(comm.rank(), i);
        }
        const std::vector<double> ref = reduce_bcast_reference(comm, buf);
        SplitAllreduce<double, ops::Plus> op;
        op.start(comm, std::span<double>(buf), ops::Plus{});
        op.finish();
        EXPECT_EQ(to_bytes(buf), to_bytes(ref)) << "rank " << comm.rank();
        return to_bytes(buf);
      },
      "split_allreduce");
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierScheduleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8,
                                                              16),
                                            ::testing::Values(1, 3, 0)));

TEST(HierSchedule, ScopedGuardInstallsAndRestores) {
  const CollectiveSchedule before = default_collective_schedule();
  const HierarchySpec before_spec = default_hierarchy_spec();
  {
    const ScopedCollectiveSchedule guard(CollectiveSchedule::kHierarchical,
                                         {4, 99});
    EXPECT_EQ(default_collective_schedule(),
              CollectiveSchedule::kHierarchical);
    EXPECT_EQ(default_hierarchy_spec().ranks_per_group, 4);
    EXPECT_EQ(default_hierarchy_spec().crossover_bytes, 99u);
  }
  EXPECT_EQ(default_collective_schedule(), before);
  EXPECT_EQ(default_hierarchy_spec().ranks_per_group,
            before_spec.ranks_per_group);
  EXPECT_EQ(default_hierarchy_spec().crossover_bytes,
            before_spec.crossover_bytes);
}

TEST(HierSchedule, WorldKeepsItsScheduleWhileTheDefaultToggles) {
  // Two fits running at once (in different threads, or for machines with
  // different ranks_per_group) each install their own schedule guard. A
  // world must run the layout it was created under on every rank: ranks
  // that read the toggling default at each collective entry would run
  // different layouts of one collective and hang. The watchdog turns such
  // a hang into a WatchdogTimeout instead of a ctest timeout.
  constexpr int kRanks = 4;
  constexpr int kRounds = 2000;
  constexpr std::size_t kLen = 16;      // 128 B: above the 64 B crossover
  constexpr std::size_t kXover = 64;
  std::vector<std::vector<double>> inputs(kRanks, std::vector<double>(kLen));
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kLen; ++i) {
      inputs[static_cast<std::size_t>(r)][i] = hier_spread(r, i);
    }
  }
  std::vector<double> expected(kLen);
  std::vector<std::vector<double>> scratch(kRanks);
  fold_binomial_slices(
      expected.data(), kLen, kRanks, scratch,
      [&](int r) { return inputs[static_cast<std::size_t>(r)].data(); },
      ops::Plus{});

  FaultPlan plan;
  plan.watchdog(std::chrono::seconds(10));
  const ScopedCollectiveSchedule guard(CollectiveSchedule::kHierarchical,
                                       {2, kXover});
  std::atomic<bool> done{false};
  std::thread toggler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      {
        const ScopedCollectiveSchedule flat(CollectiveSchedule::kFlat, {});
        std::this_thread::yield();
      }
      const ScopedCollectiveSchedule wide(CollectiveSchedule::kHierarchical,
                                          {4, kXover});
      std::this_thread::yield();
    }
  });
  std::atomic<int> mismatches{0};
  EXPECT_NO_THROW(run_spmd(
      kRanks,
      [&](Comm& comm) {
        for (int round = 0; round < kRounds; ++round) {
          std::vector<double> buf = inputs[static_cast<std::size_t>(
              comm.rank())];
          allreduce(comm, std::span<double>(buf), ops::Plus{});
          if (to_bytes(buf) != to_bytes(expected)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      &plan));
  done.store(true, std::memory_order_relaxed);
  toggler.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace swhkm::swmpi
