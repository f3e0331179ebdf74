#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "swmpi/fault.hpp"
#include "swmpi/mailbox.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace swhkm::swmpi {

/// Tags >= kReservedTagBase are used internally by the collectives; user
/// point-to-point traffic must stay below it.
inline constexpr int kReservedTagBase = 1 << 24;

/// Which schedule the reduction-shaped collectives (allreduce and its
/// MinLoc2 wrapper, allgatherv, SplitAllreduce) run. Both
/// run the one two-level code path: kFlat is its one-rank-per-group layout
/// (every rank is a leader and the inter stage is always the binomial
/// tree), which sends exactly the whole-world root-0 binomial pattern;
/// kHierarchical folds each supernode's ranks first. The results are
/// bit-identical either way (DESIGN.md §12).
enum class CollectiveSchedule {
  kFlat,
  kHierarchical,
};

/// Shape and tuning of the two-level schedule. `ranks_per_group` is how
/// many consecutive ranks share a supernode (the engines pass
/// cgs_per_node * supernode_nodes); the intra stage folds within aligned
/// power-of-two blocks of that width, so any value — including non-powers
/// of two and values larger than the world — yields a valid grouping.
/// `crossover_bytes` is the payload size above which the inter-group stage
/// switches from the latency-optimal binomial tree to the
/// bandwidth-optimal reduce_scatter+allgather exchange; the engines derive
/// it from MachineConfig::collective_crossover_bytes() instead of
/// hard-coding it.
struct HierarchySpec {
  int ranks_per_group = 1;
  std::size_t crossover_bytes = 128 * 1024;
};

/// Process-global schedule selection. Comm::create_world snapshots it into
/// the new world, whose collectives (and those of every sub-communicator
/// split from it) run that snapshot for their whole lifetime, so changing
/// the default never reaches a world that already exists.
CollectiveSchedule default_collective_schedule();
void set_default_collective_schedule(CollectiveSchedule schedule);
HierarchySpec default_hierarchy_spec();
void set_default_hierarchy_spec(const HierarchySpec& spec);

/// RAII schedule override: installs (schedule, spec), restores the previous
/// pair on destruction. The engines wrap each run_spmd in one of these so a
/// failed run cannot leak a hierarchical default into later flat tests.
class ScopedCollectiveSchedule {
 public:
  ScopedCollectiveSchedule(CollectiveSchedule schedule,
                           const HierarchySpec& spec)
      : prev_schedule_(default_collective_schedule()),
        prev_spec_(default_hierarchy_spec()) {
    set_default_collective_schedule(schedule);
    set_default_hierarchy_spec(spec);
  }
  ScopedCollectiveSchedule(const ScopedCollectiveSchedule&) = delete;
  ScopedCollectiveSchedule& operator=(const ScopedCollectiveSchedule&) =
      delete;
  ~ScopedCollectiveSchedule() {
    set_default_collective_schedule(prev_schedule_);
    set_default_hierarchy_spec(prev_spec_);
  }

 private:
  CollectiveSchedule prev_schedule_;
  HierarchySpec prev_spec_;
};

namespace detail {

/// The layout a (schedule, spec) pair runs: kHierarchical keeps `spec`,
/// kFlat is one rank per group that never takes the rs+ag inter stage.
HierarchySpec resolve_hierarchy(CollectiveSchedule schedule,
                                const HierarchySpec& spec);

struct World;

/// 16-byte integrity trailer Comm::send_bytes appends to every mailbox
/// payload. `seq` is the sender's per-world monotone send sequence (the
/// retransmit-store key), `crc` the CRC-32 over the body bytes as framed by
/// the sender, `magic` a sanity tag so a torn/short frame is told apart
/// from a bit-flipped one.
struct FrameTrailer {
  std::uint64_t seq;
  std::uint32_t crc;
  std::uint32_t magic;
};

inline constexpr std::uint32_t kFrameMagic = 0x53574652;  // "SWFR"

/// Bounded NACK/resend attempts the receiver makes before escalating a CRC
/// mismatch to CorruptMessageError.
inline constexpr int kMaxRetransmits = 2;

/// One sender-side retained copy of a payload the FaultPlan corrupted in
/// flight: the receiver's NACK fetches it by (source, seq). Transient
/// ("wire") corruption retains the clean pre-corruption body, so the
/// handshake recovers; persistent ("source buffer") corruption retains the
/// damaged bytes, so it cannot.
struct RetainedSend {
  int source = -1;
  std::uint64_t seq = 0;
  std::vector<std::byte> body;
};

/// Rendezvous registry used by Comm::split: every member of a new
/// sub-communicator must end up holding the *same* World object, so the
/// first member to arrive creates it and the rest look it up by a key that
/// all members can compute identically.
struct SplitRegistry {
  std::mutex mutex;
  std::map<std::vector<int>, std::shared_ptr<World>> live;
};

/// Shared state of one communicator: one mailbox per member rank.
struct World {
  explicit World(int size, FaultPlan* faults = nullptr,
                 telemetry::MetricsRegistry* metrics_registry = nullptr);

  int size;
  std::vector<std::unique_ptr<Mailbox>> boxes;
  SplitRegistry splits;

  /// Shared fault-injection schedule (not owned; null = no injection).
  /// Sub-worlds inherit the pointer so schedules reach split traffic too.
  FaultPlan* fault_plan = nullptr;

  /// Wall-clock metrics sink (not owned; null = no instrumentation).
  /// Sub-worlds inherit it, and shards are keyed by *global* rank, so a
  /// rank's traffic lands in one shard no matter which sub-communicator
  /// carried it.
  telemetry::MetricsRegistry* metrics = nullptr;

  /// Collective layout, resolved from the process-global schedule once
  /// when the root world is created. Sub-worlds inherit it, so every rank
  /// of a world tree runs the same layout for the same collective even if
  /// the global default changes mid-run.
  HierarchySpec hierarchy;

  /// How many members still have to pick this world up out of the parent's
  /// split registry (only meaningful while registered there).
  int pickups_remaining = 0;

  /// Per-member monotone send sequence counters (indexed by this world's
  /// local rank) — the frame trailer's `seq`. Atomic because a rank may
  /// send on several sub-communicators backed by the same world object
  /// only from its own thread, but telemetry-free sends must stay
  /// wait-free regardless.
  std::unique_ptr<std::atomic<std::uint64_t>[]> send_seqs;

  /// Retransmit store: only payloads the FaultPlan corrupted are retained
  /// (a clean send can never fail the CRC check), so the store is armed
  /// only when a plan is present and stays empty on clean runs. Bounded
  /// ring; the receiver's NACK looks a copy up by (source, seq).
  std::mutex resend_mutex;
  std::vector<RetainedSend> retained_sends;
  std::size_t retained_next = 0;

  void retain_send(int source, std::uint64_t seq,
                   std::span<const std::byte> body);
  bool fetch_retained(int source, std::uint64_t seq,
                      std::vector<std::byte>& out);

  /// Sub-worlds created by split(); abort_all() must reach ranks blocked in
  /// a sub-communicator's recv too. `aborted` (guarded by children_mutex)
  /// closes the race where a split registers a child *after* abort_all
  /// snapshotted the list: the late registrant observes the flag and
  /// poisons its fresh sub-world itself, so no rank can block forever in a
  /// mailbox the abort sweep never saw.
  std::mutex children_mutex;
  std::vector<std::weak_ptr<World>> children;
  bool aborted = false;

  /// The root world this one was split from (null in a root world). Not
  /// owned: the root's split registry may hold this world, and run_spmd's
  /// handles keep the root alive until every rank has joined.
  World* root = nullptr;
  World& tree_root() { return root != nullptr ? *root : *this; }

  /// Root worlds only: which ranks, by global rank, have departed (see
  /// Comm::depart), guarded by departure_mutex.
  std::mutex departure_mutex;
  std::condition_variable departure_cv;
  std::vector<bool> departed;
  int departures = 0;

  /// Poison every mailbox (recursively) so blocked ranks unblock with a
  /// RuntimeFault instead of deadlocking after a peer died.
  void abort_all();
};

}  // namespace detail

/// A rank's handle onto a communicator — the MPI-flavoured façade of the
/// thread-backed runtime. Copyable (both copies denote the same rank).
///
/// Deadlock discipline: send() completes without waiting unless the
/// destination already holds Mailbox::kLaneCapacity undrained messages
/// from this rank (bounded SPSC rings — backpressure instead of unbounded
/// buffering); recv() blocks until a matching message arrives. Collectives
/// must be entered by every rank of the communicator in the same order.
/// That discipline keeps the bounded sends cycle-free: every message of a
/// collective op is popped by its destination during that op and a
/// receiver's drain always empties *all* of its lanes, so a lane can only
/// fill when the sender is many ops ahead of the receiver — and a rank
/// that is ahead has already sent everything earlier ops owed, so no rank
/// waiting for ring space can be part of a wait cycle. User point-to-point
/// code must not accumulate kLaneCapacity unreceived messages toward a
/// rank that never enters recv.
class Comm {
 public:
  Comm() = default;

  int rank() const { return rank_; }
  int size() const { return world_ ? world_->size : 0; }
  bool valid() const { return world_ != nullptr; }

  /// Rank in the root world this handle descends from. split() preserves
  /// it, so fault schedules and diagnostics address physical ranks no
  /// matter which sub-communicator the traffic flows through.
  int global_rank() const { return global_rank_; }

  void send_bytes(int dest, int tag, std::span<const std::byte> payload);
  std::vector<std::byte> recv_bytes(int source, int tag);

  template <typename T>
  void send(int dest, int tag, std::span<const T> payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag,
               std::as_bytes(std::span<const T>(payload.data(),
                                                payload.size())));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send(dest, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
  std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> raw = recv_bytes(source, tag);
    SWHKM_REQUIRE(raw.size() % sizeof(T) == 0,
                  "received payload is not a whole number of elements");
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) {  // an empty vector's data() may be null
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    return out;
  }

  template <typename T>
  T recv_value(int source, int tag) {
    std::vector<T> v = recv<T>(source, tag);
    SWHKM_REQUIRE(v.size() == 1, "expected a single-element message");
    return v.front();
  }

  /// Collective: partition the communicator by `color`; ranks sharing a
  /// color form a new communicator, ordered by (key, old rank). Every rank
  /// must call it; each gets the sub-communicator for its own color.
  Comm split(int color, int key);

  /// Fresh internal tag for one collective operation. All ranks call the
  /// collectives in the same order, so their sequence counters agree.
  int next_collective_tag() { return kReservedTagBase + (op_seq_++ & 0xFFFF); }

  /// Engines call this at iteration boundaries (global iteration
  /// numbering): if the world carries a FaultPlan that schedules a crash
  /// for this rank at (site, iteration), it throws InjectedFault here —
  /// the deterministic stand-in for a node dying between phases. No-op
  /// without a plan.
  void fault_point(FaultSite site, std::uint64_t iteration);

  /// Engines call this where they expose a memory region to the fault
  /// plan's deterministic bit flips (global iteration numbering): any armed
  /// flip_memory event matching (this rank, site, iteration) XORs its
  /// window into the region. Two-span form for regions stored as a pair of
  /// arrays (an accumulator's sums then counts); offsets address the
  /// concatenation. No-op without a plan.
  void memory_fault_point(MemorySite site, std::uint64_t iteration,
                          std::span<std::byte> a,
                          std::span<std::byte> b = {});

  /// This rank's metrics shard, or null when the world carries no
  /// registry. Collectives use it for their fast-path ledgers; engines may
  /// hang named metrics off it too.
  telemetry::MetricsShard* metrics_shard() const { return tshard_; }

  /// The collective layout this communicator's world snapshotted at
  /// creation (see detail::World::hierarchy).
  const HierarchySpec& hierarchy() const { return world_->hierarchy; }

  /// Create the root communicator for `size` ranks; runtime.cpp hands each
  /// spawned thread its rank's handle. `faults` (not owned, may be null)
  /// arms deterministic fault injection for the whole communicator tree;
  /// `metrics` (not owned, may be null) arms wall-clock instrumentation.
  /// The world runs the collective schedule installed at this call.
  static std::vector<Comm> create_world(
      int size, FaultPlan* faults = nullptr,
      telemetry::MetricsRegistry* metrics = nullptr);

  /// Poison this communicator and all its sub-communicators; any rank
  /// blocked in recv wakes up with RuntimeFault. Called by the SPMD
  /// launcher when a rank dies so the others don't deadlock.
  void abort_world();

  /// Mark this rank as departed: its body has returned or thrown, so it
  /// will never again read a peer's buffer or expose one of its own.
  /// run_spmd calls it for every rank; a launcher that drives
  /// create_world's handles itself must do the same.
  void depart();

  /// The two-level collectives read peer buffers in place (DESIGN.md §12).
  /// A rank that leaves such an exchange by exception calls this before
  /// its stack unwinds. It aborts the whole world tree, so every blocked
  /// rank wakes; then it departs and waits until every rank of the root
  /// world has departed too. Only then is no peer still reading this
  /// rank's buffers, and this rank reading no peer's. It never throws.
  void hold_until_all_depart();

 private:
  /// Strip and verify the integrity trailer of one popped mailbox payload.
  /// On CRC/magic mismatch runs the bounded NACK/resend handshake against
  /// the world's retransmit store and, if no clean copy materialises,
  /// throws CorruptMessageError with sender/seq/tag attribution. Shared by
  /// recv_bytes and split()'s direct rank-0 pops so *every* delivery path
  /// is covered.
  std::vector<std::byte> unframe(int source, int tag,
                                 std::vector<std::byte>&& framed);

  Comm(std::shared_ptr<detail::World> world, int rank, int global_rank)
      : world_(std::move(world)), rank_(rank), global_rank_(global_rank) {
    if (world_ != nullptr && world_->metrics != nullptr) {
      tshard_ = &world_->metrics->shard(global_rank_);
    }
  }

  std::shared_ptr<detail::World> world_;
  int rank_ = -1;
  int global_rank_ = -1;
  int op_seq_ = 0;
  telemetry::MetricsShard* tshard_ = nullptr;  ///< resolved once at creation
};

}  // namespace swhkm::swmpi
