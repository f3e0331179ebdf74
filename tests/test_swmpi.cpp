#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>

#include "swmpi/collectives.hpp"
#include "swmpi/mailbox.hpp"
#include "swmpi/runtime.hpp"
#include "util/error.hpp"

namespace swhkm::swmpi {
namespace {

// ---------------------------------------------------------------- mailbox

TEST(Mailbox, PushPopMatching) {
  Mailbox box;
  box.push({1, 7, {std::byte{42}}});
  Message out = box.pop_matching(1, 7);
  EXPECT_EQ(out.source, 1);
  EXPECT_EQ(out.tag, 7);
  ASSERT_EQ(out.payload.size(), 1u);
  EXPECT_EQ(out.payload[0], std::byte{42});
}

TEST(Mailbox, AnySourceMatches) {
  Mailbox box;
  box.push({3, 9, {}});
  Message out = box.pop_matching(kAnySource, 9);
  EXPECT_EQ(out.source, 3);
}

TEST(Mailbox, MatchingSkipsNonMatching) {
  Mailbox box;
  box.push({1, 5, {std::byte{1}}});
  box.push({2, 6, {std::byte{2}}});
  Message out = box.pop_matching(2, 6);
  EXPECT_EQ(out.payload[0], std::byte{2});
  EXPECT_EQ(box.pending(), 1u);  // first message still queued
}

TEST(Mailbox, TryPopReturnsFalseWhenEmpty) {
  Mailbox box;
  Message out;
  EXPECT_FALSE(box.try_pop_matching(kAnySource, 0, out));
}

TEST(Mailbox, TryPopFindsMatch) {
  Mailbox box;
  box.push({0, 1, {}});
  Message out;
  EXPECT_TRUE(box.try_pop_matching(0, 1, out));
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, BlockingPopWakesOnPush) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.push({0, 3, {std::byte{9}}});
  });
  Message out = box.pop_matching(0, 3);
  EXPECT_EQ(out.payload[0], std::byte{9});
  producer.join();
}

TEST(Mailbox, AbortUnblocksWaiter) {
  Mailbox box;
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.abort();
  });
  EXPECT_THROW(box.pop_matching(0, 0), RuntimeFault);
  aborter.join();
}

TEST(Mailbox, AbortStillDeliversQueued) {
  Mailbox box;
  box.push({0, 1, {}});
  box.abort();
  EXPECT_NO_THROW(box.pop_matching(0, 1));
  EXPECT_THROW(box.pop_matching(0, 1), RuntimeFault);
}

TEST(Mailbox, TimedPopRechecksQueueAfterDeadline) {
  // Regression for the watchdog-timeout race: a push that *completes*
  // before the pop's deadline must be delivered, even when the wakeup
  // races the timeout (the old code returned false straight off the cv
  // timeout without a final queue scan, turning a delivered message into
  // a spurious WatchdogTimeout). The producer lands its push in a jitter
  // window straddling the deadline; whenever it demonstrably beat the
  // deadline, the pop must succeed.
  constexpr int kRounds = 100;
  const auto timeout = std::chrono::milliseconds(4);
  for (int round = 0; round < kRounds; ++round) {
    Mailbox box(4);
    box.push({1, 99, {}});  // non-matching noise lengthens the scan
    std::chrono::steady_clock::time_point push_done_at;
    // The pop's internal deadline is taken at or after `entry`, so
    // entry + timeout is a lower bound on it.
    const auto entry = std::chrono::steady_clock::now();
    std::thread producer([&] {
      std::this_thread::sleep_for(
          std::chrono::microseconds(3000 + 20 * round));
      box.push({0, 7, {std::byte{5}}});
      push_done_at = std::chrono::steady_clock::now();
    });
    Message out;
    const bool ok = box.pop_matching_for(0, 7, timeout, out);
    producer.join();
    if (push_done_at < entry + timeout) {
      EXPECT_TRUE(ok) << "round " << round
                      << ": push beat the deadline but pop timed out";
    }
    if (ok) {
      EXPECT_EQ(out.source, 0);
      EXPECT_EQ(out.tag, 7);
    }
  }
}

// ------------------------------------------------------------------- comm

TEST(Comm, WorldHasRanksAndSizes) {
  auto comms = Comm::create_world(3);
  ASSERT_EQ(comms.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(comms[r].rank(), r);
    EXPECT_EQ(comms[r].size(), 3);
  }
}

TEST(Comm, TypedSendRecvRoundtrip) {
  auto comms = Comm::create_world(2);
  const std::vector<double> payload{1.5, 2.5, 3.5};
  comms[0].send<double>(1, 4, payload);
  const std::vector<double> got = comms[1].recv<double>(0, 4);
  EXPECT_EQ(got, payload);
}

TEST(Comm, SendValueRecvValue) {
  auto comms = Comm::create_world(2);
  comms[1].send_value<int>(0, 2, 1234);
  EXPECT_EQ(comms[0].recv_value<int>(1, 2), 1234);
}

TEST(Comm, RejectsOutOfRangeDestination) {
  auto comms = Comm::create_world(2);
  EXPECT_THROW(comms[0].send_value<int>(5, 0, 1), InvalidArgument);
}

TEST(Comm, EmptyCommRejectsUse) {
  Comm comm;
  EXPECT_FALSE(comm.valid());
  EXPECT_THROW(comm.recv_bytes(0, 0), InvalidArgument);
}

// ------------------------------------------------------------- run_spmd

TEST(Runtime, RunsEveryRankOnce) {
  std::atomic<int> mask{0};
  run_spmd(5, [&](Comm& comm) { mask |= 1 << comm.rank(); });
  EXPECT_EQ(mask.load(), 0b11111);
}

TEST(Runtime, SingleRankRunsInline) {
  run_spmd(1, [](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    barrier(comm);  // must not deadlock
  });
}

TEST(Runtime, RethrowsRankFailure) {
  EXPECT_THROW(run_spmd(3,
                        [](Comm& comm) {
                          if (comm.rank() == 1) {
                            throw InvalidArgument("rank 1 died");
                          }
                          // other ranks block on a message that never comes;
                          // the abort protocol must wake them.
                          (void)comm.recv_bytes(1, 0);
                        }),
               InvalidArgument);
}

TEST(Runtime, ZeroRanksRejected) {
  EXPECT_THROW(run_spmd(0, [](Comm&) {}), InvalidArgument);
}

// ------------------------------------------------------------ collectives

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierCompletes) {
  run_spmd(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 3; ++i) {
      barrier(comm);
    }
  });
}

TEST_P(CollectiveTest, BcastFromEveryRoot) {
  const int size = GetParam();
  for (int root = 0; root < size; ++root) {
    run_spmd(size, [&](Comm& comm) {
      std::vector<int> buf(4, comm.rank() == root ? 77 : 0);
      bcast(comm, root, std::span<int>(buf));
      for (int v : buf) {
        EXPECT_EQ(v, 77);
      }
    });
  }
}

TEST_P(CollectiveTest, AllreduceSumMatchesFormula) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    std::vector<std::int64_t> buf{comm.rank() + 1, 10 * (comm.rank() + 1)};
    allreduce_sum(comm, std::span<std::int64_t>(buf));
    const std::int64_t expected = size * (size + 1) / 2;
    EXPECT_EQ(buf[0], expected);
    EXPECT_EQ(buf[1], 10 * expected);
  });
}

TEST_P(CollectiveTest, AllreduceMaxAndMin) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    std::vector<int> lo{comm.rank()};
    allreduce(comm, std::span<int>(lo), ops::Min{});
    EXPECT_EQ(lo[0], 0);
    std::vector<int> hi{comm.rank()};
    allreduce(comm, std::span<int>(hi), ops::Max{});
    EXPECT_EQ(hi[0], size - 1);
  });
}

TEST_P(CollectiveTest, MinlocFindsGlobalWinner) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    // Rank r contributes value |r - 2| so rank 2 (or nearest) wins.
    MinLoc mine{std::abs(comm.rank() - 2) + 0.5,
                static_cast<std::uint64_t>(comm.rank())};
    allreduce(comm, std::span<MinLoc>(&mine, 1), ops::Min{});
    const int expected = size <= 2 ? size - 1 : 2;
    EXPECT_EQ(mine.index, static_cast<std::uint64_t>(expected));
  });
}

TEST_P(CollectiveTest, MinlocTieBreaksTowardLowerIndex) {
  run_spmd(GetParam(), [](Comm& comm) {
    MinLoc mine{1.0, static_cast<std::uint64_t>(comm.rank())};
    allreduce(comm, std::span<MinLoc>(&mine, 1), ops::Min{});
    EXPECT_EQ(mine.index, 0u);
  });
}

TEST_P(CollectiveTest, AllgatherIndexedByRank) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    const std::vector<int> all = allgather(comm, 100 + comm.rank());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      EXPECT_EQ(all[r], 100 + r);
    }
  });
}

TEST_P(CollectiveTest, ReduceLandsAtRoot) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    std::vector<int> buf{1};
    reduce(comm, 0, std::span<int>(buf), ops::Plus{});
    if (comm.rank() == 0) {
      EXPECT_EQ(buf[0], size);
    }
  });
}

TEST_P(CollectiveTest, ConsecutiveCollectivesDontCrosstalk) {
  const int size = GetParam();
  run_spmd(size, [&](Comm& comm) {
    for (int round = 0; round < 10; ++round) {
      std::vector<int> buf{round};
      allreduce_sum(comm, std::span<int>(buf));
      EXPECT_EQ(buf[0], round * size);
      barrier(comm);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

// ------------------------------------------------------------------ split

TEST(Split, PartitionsByColor) {
  run_spmd(6, [](Comm& comm) {
    const int color = comm.rank() % 2;
    Comm sub = comm.split(color, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    // even ranks 0,2,4 -> sub ranks 0,1,2 ; same for odd
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
  });
}

TEST(Split, KeyControlsOrdering) {
  run_spmd(4, [](Comm& comm) {
    // Reverse the ordering via descending keys.
    Comm sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Split, SubCommunicatorRunsCollectives) {
  run_spmd(8, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() / 4, comm.rank());
    std::vector<int> buf{1};
    allreduce_sum(sub, std::span<int>(buf));
    EXPECT_EQ(buf[0], 4);
    // Parent communicator still works afterwards.
    std::vector<int> whole{1};
    allreduce_sum(comm, std::span<int>(whole));
    EXPECT_EQ(whole[0], 8);
  });
}

TEST(Split, RepeatedSplitsAreIndependent) {
  run_spmd(4, [](Comm& comm) {
    Comm a = comm.split(comm.rank() % 2, comm.rank());
    Comm b = comm.split(comm.rank() % 2, comm.rank());
    std::vector<int> buf{comm.rank()};
    allreduce_sum(a, std::span<int>(buf));
    std::vector<int> buf2{comm.rank()};
    allreduce_sum(b, std::span<int>(buf2));
    EXPECT_EQ(buf[0], buf2[0]);
  });
}

TEST(Split, SingletonColors) {
  run_spmd(3, [](Comm& comm) {
    Comm sub = comm.split(comm.rank(), 0);  // every rank its own colour
    EXPECT_EQ(sub.size(), 1);
    EXPECT_EQ(sub.rank(), 0);
    barrier(sub);
  });
}

// ----------------------------------------------------------- determinism

TEST(Determinism, AllreduceSumBitIdenticalAcrossRuns) {
  // Floating-point allreduce uses a fixed tree, so repeated runs give
  // bit-identical results even with racing thread schedules.
  std::vector<double> first;
  for (int run = 0; run < 3; ++run) {
    std::vector<double> result(1);
    run_spmd(7, [&](Comm& comm) {
      std::vector<double> buf{0.1 * (comm.rank() + 1)};
      allreduce_sum(comm, std::span<double>(buf));
      if (comm.rank() == 0) {
        result[0] = buf[0];
      }
    });
    if (run == 0) {
      first = result;
    } else {
      EXPECT_EQ(std::memcmp(first.data(), result.data(), sizeof(double)), 0);
    }
  }
}

}  // namespace
}  // namespace swhkm::swmpi
