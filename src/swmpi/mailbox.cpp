#include "swmpi/mailbox.hpp"

#include <algorithm>
#include <thread>

#include "util/error.hpp"

namespace swhkm::swmpi {

namespace {

bool matches(const Message& message, int source, int tag) {
  return (source == kAnySource || message.source == source) &&
         message.tag == tag;
}

/// Receiver iterations of drain-and-scan before parking, and sender
/// iterations of retry before sleeping on a full ring. Short on purpose:
/// ranks are threads and often outnumber cores, so burning a core to save
/// one condvar wakeup stops paying off quickly. On a single-core host the
/// budget drops to zero — a spinning receiver only steals the quantum the
/// producer needs to make the awaited message appear.
int receiver_spin_budget() {
  static const int budget =
      std::thread::hardware_concurrency() > 1 ? 256 : 0;
  return budget;
}

int sender_spin_budget() {
  static const int budget =
      std::thread::hardware_concurrency() > 1 ? 1024 : 1;
  return budget;
}

}  // namespace

Mailbox::Mailbox(int num_senders) {
  SWHKM_REQUIRE(num_senders >= 1, "mailbox needs at least one sender lane");
  lanes_.reserve(static_cast<std::size_t>(num_senders));
  for (int s = 0; s < num_senders; ++s) {
    lanes_.emplace_back(kLaneCapacity);
  }
}

void Mailbox::throw_aborted() const {
  throw RuntimeFault("swmpi: communicator aborted while waiting for a "
                     "message (a peer rank failed)");
}

// ---------------------------------------------------------------- senders

bool Mailbox::push(Message message) {
  SWHKM_REQUIRE(message.source >= 0 &&
                    message.source < static_cast<int>(lanes_.size()),
                "message source has no mailbox lane");
  SpscRing<Message>& lane = lanes_[static_cast<std::size_t>(message.source)];
  bool waited = false;
  if (!lane.try_push(message)) {
    // Bounded backpressure: the receiver frees the whole lane on its next
    // drain, so wait for it. An aborted receiver never drains again —
    // fail the send instead of spinning forever.
    waited = true;
    int spins = 0;
    for (;;) {
      if (aborted_.load(std::memory_order_acquire)) {
        throw RuntimeFault(
            "swmpi: send to an aborted rank found its ring full (the "
            "receiver died and will never drain)");
      }
      if (lane.try_push(message)) {
        break;
      }
      if (++spins < sender_spin_budget()) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
  // Doorbell handshake (both sides seq_cst, so the pair of (ring publish,
  // doorbell bump) here and (parked_ store, doorbell re-read) in the
  // receiver's park path take a single total order): either this load sees
  // parked_ == true and we notify under the mutex, or the receiver's
  // pre-sleep doorbell re-read is later in that order and sees the bump —
  // no interleaving loses the wakeup.
  doorbell_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
  return waited;
}

// --------------------------------------------------------------- receiver

bool Mailbox::take_from_stash(int source, int tag, Message& out) {
  auto it = std::find_if(stash_.begin(), stash_.end(), [&](const Message& m) {
    return matches(m, source, tag);
  });
  if (it == stash_.end()) {
    return false;
  }
  out = std::move(*it);
  stash_.erase(it);
  return true;
}

bool Mailbox::drain_and_take(int source, int tag, Message& out) {
  if (take_from_stash(source, tag, out)) {
    return true;
  }
  bool drained = false;
  for (SpscRing<Message>& lane : lanes_) {
    Message m;
    while (lane.try_pop(m)) {
      stash_.push_back(std::move(m));
      drained = true;
    }
  }
  return drained && take_from_stash(source, tag, out);
}

bool Mailbox::pop_ring(int source, int tag,
                       const std::chrono::steady_clock::time_point* deadline,
                       Message& out, bool* parked) {
  int spins = 0;
  for (;;) {
    // The doorbell ticket must be read before the drain: a push that lands
    // mid-drain either makes this drain (or the pre-sleep re-drain) find
    // it, or bumps the doorbell past `ticket` and defeats the sleep.
    const std::uint64_t ticket = doorbell_.load(std::memory_order_seq_cst);
    if (drain_and_take(source, tag, out)) {
      return true;
    }
    if (aborted_.load(std::memory_order_acquire)) {
      // The drain above already swept every delivered message into the
      // stash, so a miss here is final: abort-then-deliver still works for
      // queued messages, and only a true no-match throws.
      throw_aborted();
    }
    if (deadline != nullptr &&
        std::chrono::steady_clock::now() >= *deadline) {
      // Final re-check after expiry — the classic condvar-timeout race:
      // a message pushed between the last scan and the timeout return must
      // be taken, not dropped into a spurious WatchdogTimeout.
      return drain_and_take(source, tag, out);
    }
    if (spins < receiver_spin_budget()) {
      ++spins;
      std::this_thread::yield();
      continue;
    }
    // Slow path: park until a push (or abort) rings the doorbell. The
    // predicate re-reads the doorbell under seq_cst — see push() for the
    // no-lost-wakeup argument.
    if (parked != nullptr) {
      *parked = true;
    }
    parked_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock lock(park_mutex_);
      const auto woken = [&] {
        return doorbell_.load(std::memory_order_seq_cst) != ticket ||
               aborted_.load(std::memory_order_acquire);
      };
      if (deadline != nullptr) {
        park_cv_.wait_until(lock, *deadline, woken);
      } else {
        park_cv_.wait(lock, woken);
      }
    }
    parked_.store(false, std::memory_order_seq_cst);
  }
}

// ------------------------------------------------------------ public API

Message Mailbox::pop_matching(int source, int tag, bool* parked) {
  Message out;
  (void)pop_ring(source, tag, nullptr, out, parked);
  return out;
}

bool Mailbox::pop_matching_for(int source, int tag,
                               std::chrono::milliseconds timeout,
                               Message& out, bool* parked) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  return pop_ring(source, tag, &deadline, out, parked);
}

bool Mailbox::try_pop_matching(int source, int tag, Message& out) {
  return drain_and_take(source, tag, out);
}

void Mailbox::abort() {
  // Same doorbell handshake as push(): the flag plus a doorbell bump makes
  // a parked receiver's wake predicate true, and the seq_cst pairing with
  // parked_ guarantees either we see it parked (and notify under the
  // mutex) or its pre-sleep re-read sees the bump. Senders spinning on a
  // full ring poll aborted_ directly.
  aborted_.store(true, std::memory_order_seq_cst);
  doorbell_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(park_mutex_);
    park_cv_.notify_all();
  }
}

std::size_t Mailbox::pending() const {
  std::size_t n = stash_.size();
  for (const SpscRing<Message>& lane : lanes_) {
    n += lane.size_approx();
  }
  return n;
}

}  // namespace swhkm::swmpi
