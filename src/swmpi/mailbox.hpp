#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "swmpi/spsc_ring.hpp"

namespace swhkm::swmpi {

/// One addressed message. `payload` is raw bytes; typed views live in
/// Comm's templated helpers.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> payload;
};

inline constexpr int kAnySource = -1;

/// Per-rank inbound queue. Senders push from any thread; the owning rank
/// blocks in pop_matching until a message with the requested source/tag
/// arrives. Matching is out-of-order (a later-arrived matching message can
/// be taken while earlier non-matching ones wait), which is what MPI's
/// (source, tag) envelope semantics require.
///
/// Transport: one bounded lock-free SPSC ring per sender rank — each
/// sender rank is one thread, so every (sender, receiver) pair is a true
/// single-producer/single-consumer channel. The receiver drains the
/// rings into a receiver-private stash deque and matches against the
/// stash; per-source FIFO order is preserved (ring order + in-order
/// drain), cross-source order never was guaranteed. Waiting is
/// spin-then-park: the receiver spins a short budget re-draining the
/// rings, then parks on a condvar guarded by a seq_cst doorbell handshake
/// so a concurrent push (or abort) can never be missed. push() applies
/// bounded backpressure on a full ring — it waits for the receiver to
/// drain instead of buffering unboundedly — which is deadlock-free for
/// the tag-sequenced collectives (see Comm's deadlock-discipline note).
class Mailbox {
 public:
  /// Lane count for default-constructed boxes (direct construction in
  /// tests); the runtime always passes the communicator size.
  static constexpr int kDefaultSenders = 16;
  /// Messages in flight per (sender, receiver) pair before the sender's
  /// push waits. A message occupies one slot regardless of payload size,
  /// and the collectives keep O(1) messages outstanding per peer per op,
  /// so this bounds memory without ever stalling a healthy run.
  static constexpr std::size_t kLaneCapacity = 64;

  explicit Mailbox(int num_senders = kDefaultSenders);

  /// Deliver a message (caller must be the single sending thread for
  /// message.source). Returns true when the push had to wait for ring
  /// space — the sender-side stall signal the telemetry ledgers record.
  /// Throws RuntimeFault when the ring is full and the mailbox is aborted
  /// (the receiver will never drain again).
  bool push(Message message);

  /// Block until a message from `source` (or kAnySource) with tag `tag`
  /// is available, remove and return it. `parked`, when non-null, is set
  /// to true if the wait fell through the spin budget to the condvar slow
  /// path (left untouched otherwise).
  Message pop_matching(int source, int tag, bool* parked = nullptr);

  /// Non-blocking variant; returns false when nothing matches right now.
  bool try_pop_matching(int source, int tag, Message& out);

  /// Watchdog variant: block like pop_matching but give up after `timeout`
  /// and return false — the caller turns that into a WatchdogTimeout. The
  /// deadline path re-checks the queue one final time after expiry, so a
  /// message that arrived while the waiter was being released can never be
  /// dropped into a spurious timeout. Still throws RuntimeFault if the
  /// mailbox is aborted. `parked` as in pop_matching.
  bool pop_matching_for(int source, int tag,
                        std::chrono::milliseconds timeout, Message& out,
                        bool* parked = nullptr);

  /// Poison the mailbox: current and future pop_matching calls that find no
  /// match throw RuntimeFault instead of blocking (already-delivered
  /// messages stay poppable). Wakes a parked receiver and any sender
  /// waiting on a full ring. Used when a peer rank dies, so the SPMD job
  /// fails loudly rather than deadlocking.
  void abort();

  /// Approximate number of delivered-but-unpopped messages. Exact when
  /// called from the owning (receiver) thread or with no concurrent
  /// activity; other threads get a snapshot (queue-depth gauge use).
  std::size_t pending() const;

 private:
  // Consumer-thread internals.
  bool drain_and_take(int source, int tag, Message& out);
  bool take_from_stash(int source, int tag, Message& out);
  bool pop_ring(int source, int tag,
                const std::chrono::steady_clock::time_point* deadline,
                Message& out, bool* parked);
  [[noreturn]] void throw_aborted() const;

  std::vector<SpscRing<Message>> lanes_;  ///< lane index == source rank
  std::deque<Message> stash_;             ///< consumer-private overflow of
                                          ///< drained-but-unmatched messages
  std::atomic<std::uint64_t> doorbell_{0};  ///< bumped by push() and abort()
  std::atomic<bool> parked_{false};
  std::atomic<bool> aborted_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

}  // namespace swhkm::swmpi
