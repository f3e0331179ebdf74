#include "swmpi/comm.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "telemetry/flight_recorder.hpp"
#include "util/crc32.hpp"

namespace swhkm::swmpi {

namespace {

// Process-global schedule selection: relaxed atomics because it is only
// read once per root world, by Comm::create_world before ranks launch
// (run_spmd publishes the world to them with a stronger edge).
std::atomic<CollectiveSchedule> g_schedule{CollectiveSchedule::kFlat};
std::atomic<int> g_ranks_per_group{1};
std::atomic<std::size_t> g_crossover_bytes{HierarchySpec{}.crossover_bytes};

}  // namespace

CollectiveSchedule default_collective_schedule() {
  return g_schedule.load(std::memory_order_relaxed);
}

void set_default_collective_schedule(CollectiveSchedule schedule) {
  g_schedule.store(schedule, std::memory_order_relaxed);
}

HierarchySpec default_hierarchy_spec() {
  HierarchySpec spec;
  spec.ranks_per_group = g_ranks_per_group.load(std::memory_order_relaxed);
  spec.crossover_bytes = g_crossover_bytes.load(std::memory_order_relaxed);
  return spec;
}

void set_default_hierarchy_spec(const HierarchySpec& spec) {
  g_ranks_per_group.store(spec.ranks_per_group, std::memory_order_relaxed);
  g_crossover_bytes.store(spec.crossover_bytes, std::memory_order_relaxed);
}

namespace detail {

HierarchySpec resolve_hierarchy(CollectiveSchedule schedule,
                                const HierarchySpec& spec) {
  if (schedule == CollectiveSchedule::kHierarchical) {
    return spec;
  }
  return {1, std::numeric_limits<std::size_t>::max()};
}

/// Corrupted sends retained for resend, per world. A ring this small is
/// plenty: only FaultPlan-corrupted payloads land here, and a receiver
/// NACKs within the same collective round the send belongs to.
constexpr std::size_t kRetainedSendCapacity = 64;

World::World(int world_size, FaultPlan* faults,
             telemetry::MetricsRegistry* metrics_registry)
    : size(world_size), fault_plan(faults), metrics(metrics_registry) {
  boxes.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    // One SPSC ring lane per (sender, receiver) pair: each box gets one
    // lane per member rank, and each member rank is one thread.
    boxes.push_back(std::make_unique<Mailbox>(world_size));
  }
  send_seqs =
      std::make_unique<std::atomic<std::uint64_t>[]>(
          static_cast<std::size_t>(world_size));
}

void World::retain_send(int source, std::uint64_t seq,
                        std::span<const std::byte> body) {
  std::lock_guard lock(resend_mutex);
  RetainedSend entry;
  entry.source = source;
  entry.seq = seq;
  entry.body.assign(body.begin(), body.end());
  if (retained_sends.size() < kRetainedSendCapacity) {
    retained_sends.push_back(std::move(entry));
  } else {
    retained_sends[retained_next] = std::move(entry);
    retained_next = (retained_next + 1) % kRetainedSendCapacity;
  }
}

bool World::fetch_retained(int source, std::uint64_t seq,
                           std::vector<std::byte>& out) {
  std::lock_guard lock(resend_mutex);
  for (const RetainedSend& entry : retained_sends) {
    if (entry.source == source && entry.seq == seq) {
      out = entry.body;
      return true;
    }
  }
  return false;
}

}  // namespace detail

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> payload) {
  SWHKM_REQUIRE(valid(), "communicator is empty");
  SWHKM_REQUIRE(dest >= 0 && dest < size(), "destination rank out of range");
  Message message;
  message.source = rank_;
  message.tag = tag;
  const std::size_t body = payload.size();
  message.payload.resize(body + sizeof(detail::FrameTrailer));
  if (body > 0) {
    std::memcpy(message.payload.data(), payload.data(), body);
  }
  // Frame integrity: CRC over the *clean* body, sequence from the world's
  // per-sender counter. The trailer is appended after fault injection runs,
  // so an injected corruption always disagrees with the CRC the sender
  // framed — exactly like a wire flip under a checksummed link.
  detail::FrameTrailer trailer;
  trailer.seq = world_->send_seqs[static_cast<std::size_t>(rank_)].fetch_add(
      1, std::memory_order_relaxed);
  trailer.crc = util::crc32(payload);
  trailer.magic = detail::kFrameMagic;
  if (world_->fault_plan != nullptr) {
    const std::span<std::byte> body_span(message.payload.data(), body);
    const SendVerdict verdict =
        world_->fault_plan->on_send(global_rank_, body_span);
    if (!verdict.deliver) {
      // Scheduled drop: the peer's watchdog turns this into a fault.
      // Ledger it as a drop, not a delivery — the send counters must
      // describe traffic that actually reached a mailbox.
      if (tshard_ != nullptr) {
        tshard_->p2p_dropped.add(1);
      }
      return;
    }
    if (verdict.corrupted) {
      // Retain the resend copy the receiver's NACK will fetch: the clean
      // pre-corruption bytes for transient ("wire") damage, the corrupted
      // bytes for persistent ("source buffer") damage.
      world_->retain_send(rank_, trailer.seq,
                          verdict.persistent
                              ? std::span<const std::byte>(body_span)
                              : payload);
    }
  }
  std::memcpy(message.payload.data() + body, &trailer, sizeof(trailer));
  const bool waited =
      world_->boxes[static_cast<std::size_t>(dest)]->push(std::move(message));
  if (tshard_ != nullptr) {
    tshard_->p2p_sends.add(1);
    // Charged at the user payload size: the 16-byte trailer is transport
    // overhead, priced by the cost model's SDC cell, not part of the
    // traffic ledger tests reconcile against collective payloads.
    tshard_->p2p_send_bytes.add(body);
    if (waited) {
      tshard_->send_ring_waits.add(1);
    }
  }
}

std::vector<std::byte> Comm::unframe(int source, int tag,
                                     std::vector<std::byte>&& framed) {
  SWHKM_REQUIRE(framed.size() >= sizeof(detail::FrameTrailer),
                "swmpi: popped frame shorter than its integrity trailer");
  detail::FrameTrailer trailer;
  std::memcpy(&trailer, framed.data() + framed.size() - sizeof(trailer),
              sizeof(trailer));
  framed.resize(framed.size() - sizeof(trailer));
  const auto clean = [&](std::span<const std::byte> body) {
    return trailer.magic == detail::kFrameMagic &&
           util::crc32(body) == trailer.crc;
  };
  if (clean(framed)) {
    return std::move(framed);
  }
  if (tshard_ != nullptr) {
    tshard_->counter("swmpi.recv.crc_fail").add(1);
  }
  // Bounded NACK/resend handshake: ask the sender's retransmit store for
  // the retained copy. A transient corruption recovers on the first
  // attempt (the store holds the clean bytes); persistent source-buffer
  // corruption keeps failing the CRC and escalates.
  for (int attempt = 0; attempt < detail::kMaxRetransmits; ++attempt) {
    if (tshard_ != nullptr) {
      tshard_->counter("swmpi.send.retransmit").add(1);
    }
    std::vector<std::byte> copy;
    if (world_->fetch_retained(source, trailer.seq, copy) && clean(copy)) {
      return copy;
    }
  }
  throw CorruptMessageError(
      "swmpi: rank " + std::to_string(global_rank_) +
      " received a corrupt payload from rank " + std::to_string(source) +
      " (seq " + std::to_string(trailer.seq) + ", tag " +
      std::to_string(tag) + "): CRC mismatch survived " +
      std::to_string(detail::kMaxRetransmits) + " retransmit attempts");
}

std::vector<std::byte> Comm::recv_bytes(int source, int tag) {
  SWHKM_REQUIRE(valid(), "communicator is empty");
  SWHKM_REQUIRE(source == kAnySource || (source >= 0 && source < size()),
                "source rank out of range");
  Mailbox& box = *world_->boxes[static_cast<std::size_t>(rank_)];
  // Mailbox-side observability: queue depth at entry (how far behind this
  // rank is) and wall time blocked waiting for the match. Clock reads only
  // happen when a registry is armed.
  std::chrono::steady_clock::time_point stall_start;
  if (tshard_ != nullptr) {
    tshard_->recv_queue_depth.set(
        static_cast<std::int64_t>(box.pending()));
    stall_start = std::chrono::steady_clock::now();
  }
  const std::chrono::milliseconds timeout =
      world_->fault_plan != nullptr ? world_->fault_plan->watchdog_timeout()
                                    : std::chrono::milliseconds{0};
  const auto observe_stall = [&](bool parked) {
    if (tshard_ != nullptr) {
      const double stall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        stall_start)
              .count();
      tshard_->recv_stall_s.observe(stall_s);
      if (parked) {
        tshard_->recv_parks.add(1);
        // Flight-record the park retroactively — a park is only known at
        // wake time, so the park event gets the recv-entry timestamp and
        // the wake event carries the stalled microseconds.
        if (telemetry::FlightRing* ring = tshard_->flight()) {
          const std::uint64_t utag =
              static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
          const double wake_us = ring->now_us();
          ring->record_at(wake_us - stall_s * 1e6,
                          telemetry::FlightEventKind::kMailboxPark, 0, 0,
                          utag);
          ring->record_at(wake_us, telemetry::FlightEventKind::kMailboxWake,
                          0, 0, utag,
                          static_cast<std::uint64_t>(stall_s * 1e6));
        }
      }
    }
  };
  Message message;
  bool parked = false;
  if (timeout.count() > 0) {
    if (!box.pop_matching_for(source, tag, timeout, message, &parked)) {
      // Observe the stall *before* throwing: the histogram exists to
      // surface pathological waits, and the watchdog path is exactly the
      // pathological case — losing the sample here undercounts the tail.
      observe_stall(parked);
      throw WatchdogTimeout(
          "swmpi: rank " + std::to_string(global_rank_) +
          " waited longer than " + std::to_string(timeout.count()) +
          " ms for a message from rank " + std::to_string(source) +
          " (tag " + std::to_string(tag) + ") — peer stalled or dead");
    }
  } else {
    message = box.pop_matching(source, tag, &parked);
  }
  observe_stall(parked);
  return unframe(message.source, tag, std::move(message.payload));
}

void Comm::fault_point(FaultSite site, std::uint64_t iteration) {
  if (world_ != nullptr && world_->fault_plan != nullptr) {
    world_->fault_plan->on_fault_point(global_rank_, site, iteration);
  }
}

void Comm::memory_fault_point(MemorySite site, std::uint64_t iteration,
                              std::span<std::byte> a, std::span<std::byte> b) {
  if (world_ != nullptr && world_->fault_plan != nullptr) {
    world_->fault_plan->on_memory(global_rank_, iteration, site, a, b);
  }
}

Comm Comm::split(int color, int key) {
  SWHKM_REQUIRE(valid(), "communicator is empty");
  const int tag = next_collective_tag();

  // Exchange (color, key) through rank 0. Linear, but split happens once
  // per engine run, not per iteration.
  struct Entry {
    int color;
    int key;
    int old_rank;
  };
  std::vector<Entry> entries(static_cast<std::size_t>(size()));
  const Entry mine{color, key, rank_};
  if (rank_ == 0) {
    entries[0] = mine;
    for (int r = 1; r < size(); ++r) {
      Message m = world_->boxes[0]->pop_matching(r, tag);
      // Same unframe path as recv_bytes: split's direct pop must not be a
      // hole in the transport's integrity coverage.
      const std::vector<std::byte> body =
          unframe(m.source, tag, std::move(m.payload));
      SWHKM_REQUIRE(body.size() == sizeof(Entry), "bad split payload");
      std::memcpy(&entries[static_cast<std::size_t>(r)], body.data(),
                  sizeof(Entry));
    }
    for (int r = 1; r < size(); ++r) {
      send<Entry>(r, tag, std::span<const Entry>(entries));
    }
  } else {
    send_value<Entry>(0, tag, mine);
    entries = recv<Entry>(0, tag);
  }

  // Members of my color, ordered by (key, old rank); my new rank is my
  // position in that order.
  std::vector<Entry> members;
  for (const Entry& e : entries) {
    if (e.color == color) {
      members.push_back(e);
    }
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });
  int new_rank = -1;
  std::vector<int> registry_key;
  registry_key.push_back(tag);
  registry_key.push_back(color);
  for (std::size_t i = 0; i < members.size(); ++i) {
    registry_key.push_back(members[i].old_rank);
    if (members[i].old_rank == rank_) {
      new_rank = static_cast<int>(i);
    }
  }
  SWHKM_REQUIRE(new_rank >= 0, "split bookkeeping lost the caller");

  // Rendezvous: first member in creates the sub-world, last one out
  // removes the registry entry.
  std::shared_ptr<detail::World> sub;
  {
    std::lock_guard lock(world_->splits.mutex);
    auto it = world_->splits.live.find(registry_key);
    if (it == world_->splits.live.end()) {
      sub = std::make_shared<detail::World>(static_cast<int>(members.size()),
                                            world_->fault_plan,
                                            world_->metrics);
      sub->hierarchy = world_->hierarchy;
      sub->root = &world_->tree_root();
      sub->pickups_remaining = static_cast<int>(members.size());
      world_->splits.live.emplace(registry_key, sub);
    } else {
      sub = it->second;
    }
    if (--sub->pickups_remaining == 0) {
      world_->splits.live.erase(registry_key);
    }
  }
  bool parent_aborted;
  {
    std::lock_guard lock(world_->children_mutex);
    world_->children.push_back(sub);
    parent_aborted = world_->aborted;
  }
  if (parent_aborted) {
    // We registered after (or while) an abort sweep snapshotted the child
    // list — the sweep may never see this sub-world, so poison it here
    // before anyone can block in its mailboxes.
    sub->abort_all();
  }
  return Comm(std::move(sub), new_rank, global_rank_);
}

std::vector<Comm> Comm::create_world(int size, FaultPlan* faults,
                                     telemetry::MetricsRegistry* metrics) {
  SWHKM_REQUIRE(size >= 1, "world needs at least one rank");
  auto world = std::make_shared<detail::World>(size, faults, metrics);
  world->hierarchy = detail::resolve_hierarchy(default_collective_schedule(),
                                               default_hierarchy_spec());
  world->departed.assign(static_cast<std::size_t>(size), false);
  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    comms.push_back(Comm(world, r, r));
  }
  return comms;
}

void Comm::abort_world() {
  if (!world_) {
    return;
  }
  world_->abort_all();
}

void Comm::depart() {
  if (!world_) {
    return;
  }
  detail::World& root = world_->tree_root();
  {
    std::lock_guard lock(root.departure_mutex);
    const auto me = static_cast<std::size_t>(global_rank_);
    if (!root.departed[me]) {
      root.departed[me] = true;
      ++root.departures;
    }
  }
  root.departure_cv.notify_all();
}

void Comm::hold_until_all_depart() {
  if (!world_) {
    return;
  }
  detail::World& root = world_->tree_root();
  // Every rank still running now fails its next blocking call and
  // departs; a rank copying out of this one's buffer finishes first.
  root.abort_all();
  depart();
  std::unique_lock lock(root.departure_mutex);
  root.departure_cv.wait(lock, [&] { return root.departures == root.size; });
}

namespace detail {

void World::abort_all() {
  // Raise the flag and snapshot the children in one critical section: any
  // split() that registers a child after this point sees `aborted` and
  // poisons its own sub-world (see Comm::split), so no child can slip
  // between the snapshot and the sweep.
  std::vector<std::shared_ptr<World>> kids;
  {
    std::lock_guard lock(children_mutex);
    aborted = true;
    for (auto& weak : children) {
      if (auto strong = weak.lock()) {
        kids.push_back(std::move(strong));
      }
    }
  }
  for (auto& box : boxes) {
    box->abort();
  }
  for (auto& kid : kids) {
    kid->abort_all();
  }
}

}  // namespace detail

}  // namespace swhkm::swmpi
