#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "swmpi/comm.hpp"
#include "telemetry/flight_recorder.hpp"

namespace swhkm::swmpi {

/// Collectives over a Comm. Every rank of the communicator must call the
/// same collective in the same order (standard MPI discipline). Reduction
/// trees are fixed binomial trees, so results are deterministic run-to-run
/// for a given rank count.

namespace detail {

/// RAII instrumentation for one collective entry: ticks the calling rank's
/// (kind → calls/bytes) ledger at construction and observes the wall
/// latency at destruction. `bytes` is the collective's logical payload
/// volume from this rank's perspective, not wire traffic — allgather also
/// ticks the bcast it is built on, so the per-kind counters describe every
/// layer rather than a disjoint partition. Free (two null checks) when the
/// communicator carries no metrics registry.
class CollectiveScope {
 public:
  CollectiveScope(const Comm& comm, telemetry::CollectiveKind kind,
                  std::size_t bytes) {
    telemetry::MetricsShard* shard = comm.metrics_shard();
    if (shard != nullptr) {
      stats_ = &shard->collective(kind);
      stats_->calls.add(1);
      stats_->bytes.add(bytes);
      start_ = std::chrono::steady_clock::now();
      ring_ = shard->flight();
      if (ring_ != nullptr) {
        // swmpi has no iteration concept; flight events from here carry
        // iteration 0 and are ordered by their wall timestamps instead.
        kind_ = static_cast<std::uint16_t>(kind);
        bytes_ = bytes;
        ring_->record(telemetry::FlightEventKind::kCollectiveEnter, 0, kind_,
                      bytes_);
      }
    }
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;
  ~CollectiveScope() {
    if (stats_ != nullptr) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      stats_->wall_s.observe(wall_s);
      if (ring_ != nullptr) {
        ring_->record(telemetry::FlightEventKind::kCollectiveExit, 0, kind_,
                      bytes_,
                      static_cast<std::uint64_t>(wall_s * 1e6));
      }
    }
  }

 private:
  telemetry::CollectiveStats* stats_ = nullptr;
  telemetry::FlightRing* ring_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::uint16_t kind_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace detail

/// Dissemination barrier: log2(size) rounds of token passing.
void barrier(Comm& comm);

namespace ops {
struct Plus {
  template <typename T>
  void operator()(T& inout, const T& in) const {
    inout += in;
  }
};
struct Min {
  template <typename T>
  void operator()(T& inout, const T& in) const {
    if (in < inout) {
      inout = in;
    }
  }
};
struct Max {
  template <typename T>
  void operator()(T& inout, const T& in) const {
    if (inout < in) {
      inout = in;
    }
  }
};
}  // namespace ops

/// (distance, index) pair with the tie-break-toward-lower-index ordering
/// that keeps partitioned argmin identical to a serial scan. The ordering
/// is element-wise, so one vector-shaped allreduce(…, ops::Min{}) resolves
/// a whole tile of samples in a single barrier — the engines batch their
/// assign phase over this rather than combining per sample.
struct MinLoc {
  double value = 0;
  std::uint64_t index = 0;

  friend bool operator<(const MinLoc& a, const MinLoc& b) {
    return a.value != b.value ? a.value < b.value : a.index < b.index;
  }
};
static_assert(std::is_trivially_copyable_v<MinLoc> && sizeof(MinLoc) == 16,
              "MinLoc must stay a trivially copyable 16-byte record: tiles "
              "of them are sent through the mailbox byte transport");

/// MinLoc extended with the runner-up distance: the smallest (value, index)
/// wins as in MinLoc, and `second` tracks the smallest distance over every
/// *other* candidate seen so far. With each rank contributing the top two
/// distances of its disjoint centroid slice, the combined record holds the
/// exact global best and global second-best — which is what a Hamerly
/// lower bound needs to stay exact under the nk/nkd centroid slicing.
struct MinLoc2 {
  double value = 0;
  std::uint64_t index = 0;
  double second = 0;
};
static_assert(std::is_trivially_copyable_v<MinLoc2> && sizeof(MinLoc2) == 24,
              "MinLoc2 must stay a trivially copyable 24-byte record: tiles "
              "of them are sent through the mailbox byte transport");

/// Combine for MinLoc2: select the best (value, index) and keep `second` as
/// the minimum over every distance that is not the selected best. Pure
/// selection over the union multiset of candidates — no FP arithmetic — so
/// the operation is exact and associative; any combine tree yields the
/// same bits.
struct CombineMinLoc2 {
  void operator()(MinLoc2& inout, const MinLoc2& in) const {
    const bool in_wins = in.value != inout.value ? in.value < inout.value
                                                 : in.index < inout.index;
    if (in_wins) {
      const double runner =
          inout.value < in.second ? inout.value : in.second;
      inout.value = in.value;
      inout.index = in.index;
      inout.second = runner;
    } else if (in.value < inout.second) {
      inout.second = in.value;
    }
  }
};

/// Fold `size` equally-shaped value streams into `out[0..len)` using the
/// fixed pairing of the root-0 binomial tree: stream r absorbs stream r+s
/// for s = 1, 2, 4, … with the lower stream always the inout operand —
/// exactly reduce()'s association, element by element. This is the one
/// shared copy of the fold order used by both the sharded update phase
/// (reduce_and_update folding shard slices across CG partials) and the
/// intra-supernode stage of the hierarchical collectives.
///
/// `peer_slice(r)` returns stream r's base pointer; streams are only read.
/// `out` may alias peer_slice(0): the first combine of stream 0 reads both
/// operands before writing each element. `scratch` must hold at least
/// `size` vectors; entries are resized as interior partials need them.
///
/// fold_binomial_present is the same fold over streams some of which are
/// absent: `peer_slice(r)` returns nullptr for a stream that holds the
/// op's identity (a rank holding none of the folded rows). The present
/// streams combine in the same tree with the absent leaves pruned, which
/// is the full tree's result bit for bit whenever op(x, identity) == x for
/// every partial — for a sum, whenever no partial is -0.0. Returns where
/// the result lives: `out`, or the one present stream itself when only
/// one is (read in place, never copied), or nullptr when none is.
template <typename T, typename Op, typename PeerSlice>
const T* fold_binomial_present(T* out, std::size_t len, int size,
                               std::vector<std::vector<T>>& scratch,
                               PeerSlice&& peer_slice, Op op) {
  const auto streams = static_cast<std::size_t>(size);
  SWHKM_REQUIRE(scratch.size() >= streams,
                "fold_binomial_present needs one scratch slot per stream");
  // cur[r] points at the partial of stream r's subtree (null while the
  // subtree holds no present stream); owned[r] says whether that partial
  // is materialised in out / scratch[r] or read in place from a stream.
  std::vector<const T*> cur(streams);
  std::vector<char> owned(streams, 0);
  for (std::size_t r = 0; r < streams; ++r) {
    cur[r] = peer_slice(static_cast<int>(r));
  }
  for (std::size_t s = 1; s < streams; s <<= 1) {
    for (std::size_t r = 0; r + s < streams; r += 2 * s) {
      const T* b = cur[r + s];
      if (b == nullptr) {
        continue;
      }
      if (cur[r] == nullptr) {
        cur[r] = b;  // borrowed, not copied
        continue;
      }
      if (owned[r] != 0) {
        T* target = r == 0 ? out : scratch[r].data();
        for (std::size_t i = 0; i < len; ++i) {
          op(target[i], b[i]);
        }
        continue;
      }
      T* target = out;
      if (r != 0) {
        scratch[r].resize(len);
        target = scratch[r].data();
      }
      const T* a = cur[r];
      for (std::size_t i = 0; i < len; ++i) {
        T v = a[i];
        op(v, b[i]);
        target[i] = v;
      }
      cur[r] = target;
      owned[r] = 1;
    }
  }
  return cur[0];
}

template <typename T, typename Op, typename PeerSlice>
void fold_binomial_slices(T* out, std::size_t len, int size,
                          std::vector<std::vector<T>>& scratch,
                          PeerSlice&& peer_slice, Op op) {
  const T* result = fold_binomial_present(
      out, len, size, scratch, std::forward<PeerSlice>(peer_slice), op);
  if (result != out) {
    std::copy(result, result + len, out);
  }
}

namespace detail {
inline int binomial_parent(int vrank) { return vrank & (vrank - 1); }

inline int floor_pow2(int v) {
  int p = 1;
  while (p * 2 <= v) {
    p <<= 1;
  }
  return p;
}

inline std::uint32_t ceil_log2(int v) {
  std::uint32_t lg = 0;
  int p = 1;
  while (p < v) {
    p <<= 1;
    ++lg;
  }
  return lg;
}

/// How a rank sits in the two-level schedule. Groups are *aligned blocks*
/// of width `width = floor_pow2(ranks_per_group)`: rounding the configured
/// group width down to a power of two and aligning blocks at multiples of
/// it is what makes the nested fold bit-identical to reduce()'s root-0
/// binomial tree for every world size — in that tree, every rank that
/// survives the steps below `width` is congruent to 0 mod the step, so
/// after those steps the survivors are exactly the block leaders, and the
/// remaining steps pair leaders by group index (see DESIGN.md §12).
struct HierLayout {
  int group = 0;       ///< group index
  int leader = 0;      ///< rank of this group's leader (group * width)
  int local = 0;       ///< index within the group; 0 == leader
  int group_size = 1;  ///< ranks in this group (tail group may be short)
  int num_groups = 1;
  int width = 1;       ///< aligned block width (power of two)
};

inline HierLayout hier_layout(int rank, int size, int ranks_per_group) {
  HierLayout l;
  l.width = floor_pow2(std::clamp(ranks_per_group, 1, size));
  l.group = rank / l.width;
  l.leader = l.group * l.width;
  l.local = rank - l.leader;
  l.num_groups = (size + l.width - 1) / l.width;
  l.group_size = std::min(l.width, size - l.leader);
  return l;
}

/// Every hierarchical collective reserves the same five-tag block so tag
/// consumption stays uniform across ranks regardless of each rank's role.
struct HierTags {
  int ptr = 0;      ///< member -> leader buffer-pointer publish
  int inter_a = 0;  ///< inter-group reduce / halving / exchange
  int inter_b = 0;  ///< inter-group broadcast / doubling / range scatter
  int down = 0;     ///< leader -> member result delivery
  int ack = 0;      ///< member -> leader buffer release
};

inline HierTags reserve_hier_tags(Comm& comm) {
  HierTags t;
  t.ptr = comm.next_collective_tag();
  t.inter_a = comm.next_collective_tag();
  t.inter_b = comm.next_collective_tag();
  t.down = comm.next_collective_tag();
  t.ack = comm.next_collective_tag();
  return t;
}

/// The intra stage is zero-copy: ranks of one group share an address
/// space (they are threads of one process), so a member publishes its
/// buffer *pointer* and the leader folds the member buffers in place. The
/// mailbox send/recv pair is the happens-before edge that makes the bytes
/// behind the pointer visible to the reader.
inline void publish_ptr(Comm& comm, int dest, int tag, const void* p) {
  comm.send_value<std::uintptr_t>(dest, tag,
                                  reinterpret_cast<std::uintptr_t>(p));
}

template <typename T>
const T* recv_ptr(Comm& comm, int source, int tag) {
  return reinterpret_cast<const T*>(
      comm.recv_value<std::uintptr_t>(source, tag));
}

/// Covers a stretch in which peers may read this rank's buffers in place,
/// or this rank reads theirs. Leaving it by exception holds the rank
/// (and the buffers its stack owns) until every rank has departed
/// (Comm::hold_until_all_depart); leaving it normally costs nothing.
class ZeroCopyGuard {
 public:
  explicit ZeroCopyGuard(Comm& comm)
      : comm_(comm), uncaught_(std::uncaught_exceptions()) {}
  ZeroCopyGuard(const ZeroCopyGuard&) = delete;
  ZeroCopyGuard& operator=(const ZeroCopyGuard&) = delete;
  ~ZeroCopyGuard() {
    if (std::uncaught_exceptions() > uncaught_) {
      comm_.hold_until_all_depart();
    }
  }

 private:
  Comm& comm_;
  int uncaught_;
};

/// Per-collective schedule telemetry, ticked once per collective by the
/// group leaders (not once per rank): which inter algorithm ran and how
/// many stages each level took. Named counters are the slow path of the
/// registry, so this only runs when telemetry is attached at all.
inline void tick_hier_counters(Comm& comm, const char* algo_counter,
                               const char* intra_counter,
                               const char* inter_counter,
                               std::uint64_t intra_rounds,
                               std::uint64_t inter_rounds) {
  telemetry::MetricsShard* shard = comm.metrics_shard();
  if (shard == nullptr) {
    return;
  }
  shard->counter(algo_counter).add(1);
  if (intra_rounds > 0) {
    shard->counter(intra_counter).add(intra_rounds);
  }
  if (inter_rounds > 0) {
    shard->counter(inter_counter).add(inter_rounds);
  }
}

/// Leader half of the intra stage: collect the member buffer pointers and
/// fold all group streams into the leader's own buffer with the shared
/// binomial association (local index j == world rank leader + j). Members
/// stay parked in their down-phase receive, or after an abort in
/// Comm::hold_until_all_depart, so every published pointer outlives the
/// fold.
template <typename T, typename Op>
void hier_intra_fold(Comm& comm, const HierLayout& l, const HierTags& tags,
                     std::span<T> buf, Op op) {
  std::vector<const T*> streams(static_cast<std::size_t>(l.group_size),
                                nullptr);
  streams[0] = buf.data();
  for (int j = 1; j < l.group_size; ++j) {
    streams[static_cast<std::size_t>(j)] =
        recv_ptr<T>(comm, l.leader + j, tags.ptr);
  }
  std::vector<std::vector<T>> scratch(
      static_cast<std::size_t>(l.group_size));
  fold_binomial_slices(
      buf.data(), buf.size(), l.group_size, scratch,
      [&](int r) { return streams[static_cast<std::size_t>(r)]; }, op);
}

/// Latency-optimal inter stage: binomial tree over group indices (reduce
/// to group 0's leader, broadcast back down). Group G absorbing group
/// G + step with the incoming operand on the right is exactly reduce()'s
/// tree's steps >= width, so the association is unchanged.
template <typename T, typename Op>
void hier_inter_tree(Comm& comm, const HierLayout& l, const HierTags& tags,
                     std::span<T> buf, Op op) {
  const int ng = l.num_groups;
  const int g = l.group;
  for (int step = 1; step < ng; step <<= 1) {
    if (g & step) {
      comm.send<T>(binomial_parent(g) * l.width, tags.inter_a,
                   std::span<const T>(buf.data(), buf.size()));
      break;
    }
    if (g + step < ng) {
      std::vector<T> incoming =
          comm.recv<T>((g + step) * l.width, tags.inter_a);
      SWHKM_REQUIRE(incoming.size() == buf.size(),
                    "hier inter-tree payload size mismatch");
      for (std::size_t i = 0; i < buf.size(); ++i) {
        op(buf[i], incoming[i]);
      }
    }
  }
  int top = 1;
  while (top < ng) {
    top <<= 1;
  }
  const int lsb = g == 0 ? top : (g & (-g));
  if (g != 0) {
    std::vector<T> incoming =
        comm.recv<T>(binomial_parent(g) * l.width, tags.inter_b);
    SWHKM_REQUIRE(incoming.size() == buf.size(),
                  "hier inter-tree bcast size mismatch");
    std::copy(incoming.begin(), incoming.end(), buf.begin());
  }
  for (int m = lsb >> 1; m >= 1; m >>= 1) {
    if (g + m < ng) {
      comm.send<T>((g + m) * l.width, tags.inter_b,
                   std::span<const T>(buf.data(), buf.size()));
    }
  }
}

/// Even element partition of a buffer over `parts` owners (monotone, may
/// contain empty ranges); identical on every rank by construction.
inline std::vector<std::size_t> even_offsets(std::size_t len, int parts) {
  std::vector<std::size_t> offs(static_cast<std::size_t>(parts) + 1);
  for (int i = 0; i <= parts; ++i) {
    offs[static_cast<std::size_t>(i)] =
        len * static_cast<std::size_t>(i) / static_cast<std::size_t>(parts);
  }
  return offs;
}

/// Bandwidth-optimal inter stage (power-of-two group counts): recursive
/// halving reduce-scatter over an even element partition, then recursive
/// doubling allgather. Before the halving round for bit `s`, a leader
/// holds, for every block b sharing its processed low bits, the fold of
/// the binomial subtree those bits name; the round combines with the
/// lower subtree as the inout operand — the tree's own pairing and operand
/// order, element-wise — so switching algorithms by payload size never
/// changes a bit.
template <typename T, typename Op>
void hier_inter_rsag(Comm& comm, const HierLayout& l, const HierTags& tags,
                     std::span<T> buf, Op op) {
  const int ng = l.num_groups;
  const int g = l.group;
  const std::vector<std::size_t> offs = even_offsets(buf.size(), ng);
  std::vector<T> pack;
  for (int s = 1; s < ng; s <<= 1) {
    const int peer = (g ^ s) * l.width;
    pack.clear();
    for (int b = 0; b < ng; ++b) {
      if ((b & (s - 1)) == (g & (s - 1)) && (b & s) != (g & s)) {
        pack.insert(
            pack.end(),
            buf.begin() + static_cast<std::ptrdiff_t>(offs[b]),
            buf.begin() + static_cast<std::ptrdiff_t>(offs[b + 1]));
      }
    }
    comm.send<T>(peer, tags.inter_a,
                 std::span<const T>(pack.data(), pack.size()));
    const std::vector<T> incoming = comm.recv<T>(peer, tags.inter_a);
    std::size_t at = 0;
    for (int b = 0; b < ng; ++b) {
      if ((b & (s - 1)) != (g & (s - 1)) || (b & s) != (g & s)) {
        continue;
      }
      T* mine = buf.data() + offs[b];
      const std::size_t len = offs[b + 1] - offs[b];
      SWHKM_REQUIRE(at + len <= incoming.size(),
                    "hier halving block mismatch");
      if ((g & s) == 0) {
        for (std::size_t i = 0; i < len; ++i) {
          op(mine[i], incoming[at + i]);
        }
      } else {
        for (std::size_t i = 0; i < len; ++i) {
          T merged = incoming[at + i];
          op(merged, mine[i]);
          mine[i] = merged;
        }
      }
      at += len;
    }
    SWHKM_REQUIRE(at == incoming.size(), "hier halving payload mismatch");
  }
  for (int s = 1; s < ng; s <<= 1) {
    const int peer_group = g ^ s;
    const int peer = peer_group * l.width;
    const int base = g & ~(s - 1);
    const int pbase = peer_group & ~(s - 1);
    comm.send<T>(peer, tags.inter_b,
                 std::span<const T>(buf.data() + offs[base],
                                    offs[base + s] - offs[base]));
    const std::vector<T> incoming = comm.recv<T>(peer, tags.inter_b);
    SWHKM_REQUIRE(incoming.size() == offs[pbase + s] - offs[pbase],
                  "hier doubling round length mismatch");
    std::copy(incoming.begin(), incoming.end(),
              buf.begin() + static_cast<std::ptrdiff_t>(offs[pbase]));
  }
}

/// Size-adaptive inter algorithm selection: the bandwidth schedule needs a
/// power-of-two group count (halving pairs every group each round) and
/// only pays off above the latency/bandwidth crossover.
inline bool inter_uses_rsag(const HierLayout& l, std::size_t payload_bytes,
                            std::size_t crossover_bytes) {
  return l.num_groups > 1 && payload_bytes > crossover_bytes &&
         (l.num_groups & (l.num_groups - 1)) == 0;
}

}  // namespace detail

/// Broadcast `buf` from `root` to all ranks (binomial tree).
template <typename T>
void bcast(Comm& comm, int root, std::span<T> buf) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::CollectiveScope scope(comm, telemetry::CollectiveKind::kBcast,
                                buf.size_bytes());
  const int size = comm.size();
  if (size <= 1) {
    return;
  }
  const int tag = comm.next_collective_tag();
  const int vrank = (comm.rank() - root + size) % size;

  // Receive from the parent (clear-lowest-set-bit), then relay to children
  // vrank + m for descending powers of two m below my lowest set bit.
  int top = 1;
  while (top < size) {
    top <<= 1;
  }
  int lsb = vrank == 0 ? top : (vrank & (-vrank));
  if (vrank != 0) {
    const int parent = detail::binomial_parent(vrank);
    std::vector<T> incoming =
        comm.recv<T>((parent + root) % size, tag);
    SWHKM_REQUIRE(incoming.size() == buf.size(),
                  "bcast payload size mismatch");
    std::copy(incoming.begin(), incoming.end(), buf.begin());
  }
  for (int m = lsb >> 1; m >= 1; m >>= 1) {
    const int child = vrank + m;
    if (child < size) {
      comm.send<T>((child + root) % size, tag,
                   std::span<const T>(buf.data(), buf.size()));
    }
  }
}

/// Reduce element-wise into `buf` at `root` (binomial tree); on non-root
/// ranks `buf` is left holding intermediate partial reductions.
template <typename T, typename Op>
void reduce(Comm& comm, int root, std::span<T> buf, Op op) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::CollectiveScope scope(comm, telemetry::CollectiveKind::kReduce,
                                buf.size_bytes());
  const int size = comm.size();
  if (size <= 1) {
    return;
  }
  const int tag = comm.next_collective_tag();
  const int vrank = (comm.rank() - root + size) % size;
  for (int step = 1; step < size; step <<= 1) {
    if (vrank & step) {
      comm.send<T>((detail::binomial_parent(vrank) + root) % size, tag,
                   std::span<const T>(buf.data(), buf.size()));
      return;
    }
    const int child = vrank + step;
    if (child < size) {
      std::vector<T> incoming = comm.recv<T>((child + root) % size, tag);
      SWHKM_REQUIRE(incoming.size() == buf.size(),
                    "reduce payload size mismatch");
      for (std::size_t i = 0; i < buf.size(); ++i) {
        op(buf[i], incoming[i]);
      }
    }
  }
}

/// Split-phase allreduce for software-pipelined loops, and the one body of
/// allreduce() (which runs start() then finish()). start() reserves the
/// op's tags and posts a group member's whole up phase — one pointer
/// publish, so its contribution goes into flight immediately. finish()
/// runs the rest: the leader's zero-copy intra fold, the size-adaptive
/// inter stage among leaders, then the result pointer fans back down and
/// members copy it out. A leader's receives all block, so its whole part
/// defers to finish(). `buf` must stay untouched between the phases: the
/// leader reads it in place.
///
/// Discipline: every rank must call start/finish for the same ops in the
/// same interleaved order (start t; start t+1; finish t; ... is fine —
/// tags keep concurrent ops apart). Keep the outstanding depth small: each
/// op holds at most two messages per mailbox lane, so depth stays well
/// under Mailbox::kLaneCapacity for any sane pipeline.
///
/// Instrumentation: calls/bytes and the wall histogram tick in finish(),
/// so allreduce.wall_s measures the blocking drain, not the overlapped
/// compute between the phases.
///
/// Peers read `buf` and the leader's result in place from start() until
/// finish() returns. An op that never finishes — an exception between the
/// phases or out of finish() — holds its rank in the destructor until
/// every rank has departed (Comm::hold_until_all_depart), so neither
/// buffer can die under a peer still reading it.
template <typename T, typename Op>
class SplitAllreduce {
 public:
  SplitAllreduce() = default;
  SplitAllreduce(const SplitAllreduce&) = delete;
  SplitAllreduce& operator=(const SplitAllreduce&) = delete;
  ~SplitAllreduce() {
    if (active()) {
      comm_->hold_until_all_depart();
    }
  }

  bool active() const { return comm_ != nullptr; }

  void start(Comm& comm, std::span<T> buf, Op op) {
    SWHKM_REQUIRE(!active(), "SplitAllreduce::start while an op is in flight");
    comm_ = &comm;
    buf_ = buf;
    op_ = op;
    if (comm.size() <= 1) {
      return;
    }
    layout_ = detail::hier_layout(comm.rank(), comm.size(),
                                  comm.hierarchy().ranks_per_group);
    tags_ = detail::reserve_hier_tags(comm);
    if (layout_.local != 0) {
      detail::publish_ptr(comm, layout_.leader, tags_.ptr, buf_.data());
    }
  }

  void finish() {
    SWHKM_REQUIRE(active(), "SplitAllreduce::finish without a start");
    Comm& comm = *comm_;
    detail::CollectiveScope scope(comm, telemetry::CollectiveKind::kAllreduce,
                                  buf_.size_bytes());
    if (comm.size() > 1) {
      exchange(comm);
    }
    comm_ = nullptr;  // a throw above leaves the op to the destructor
  }

 private:
  void exchange(Comm& comm) {
    const detail::HierLayout& l = layout_;
    if (l.local != 0) {
      // Parked here until the leader's fold + inter stage finish; the
      // publish in start() keeps this rank's buffer valid for the leader.
      const T* result = detail::recv_ptr<T>(comm, l.leader, tags_.down);
      std::copy(result, result + buf_.size(), buf_.begin());
      comm.send_value<std::uint8_t>(l.leader, tags_.ack, 1);
      return;
    }
    detail::hier_intra_fold(comm, l, tags_, buf_, op_);
    const bool rsag = detail::inter_uses_rsag(
        l, buf_.size_bytes(), comm.hierarchy().crossover_bytes);
    if (rsag) {
      detail::hier_inter_rsag(comm, l, tags_, buf_, op_);
    } else if (l.num_groups > 1) {
      detail::hier_inter_tree(comm, l, tags_, buf_, op_);
    }
    for (int j = 1; j < l.group_size; ++j) {
      detail::publish_ptr(comm, l.leader + j, tags_.down, buf_.data());
    }
    for (int j = 1; j < l.group_size; ++j) {
      (void)comm.recv_value<std::uint8_t>(l.leader + j, tags_.ack);
    }
    detail::tick_hier_counters(
        comm,
        rsag ? "swmpi.hier.allreduce.algo_rsag"
             : "swmpi.hier.allreduce.algo_tree",
        "swmpi.hier.allreduce.intra_rounds",
        "swmpi.hier.allreduce.inter_rounds",
        2 * detail::ceil_log2(l.group_size),
        l.num_groups > 1 ? 2 * detail::ceil_log2(l.num_groups) : 0);
  }

  Comm* comm_ = nullptr;
  std::span<T> buf_;
  Op op_{};
  detail::HierLayout layout_{};
  detail::HierTags tags_{};
};

/// AllReduce over the world's layout: every rank ends up with the identical
/// combined buffer, bit-for-bit equal to reduce(root 0) + bcast(root 0)
/// for every op, layout and payload size (DESIGN.md §12).
template <typename T, typename Op>
void allreduce(Comm& comm, std::span<T> buf, Op op) {
  SplitAllreduce<T, Op> combine;
  combine.start(comm, buf, op);
  combine.finish();
}

/// Convenience: sum-allreduce.
template <typename T>
void allreduce_sum(Comm& comm, std::span<T> buf) {
  allreduce(comm, buf, ops::Plus{});
}

/// AllReduce of MinLoc2 records: per element, every rank ends up with the
/// global best (value, index) and the exact global second-best distance.
inline void allreduce_minloc2(Comm& comm, std::span<MinLoc2> buf) {
  allreduce(comm, buf, CombineMinLoc2{});
}

/// Gather one value per rank; every rank receives the vector indexed by
/// rank. Linear gather through rank 0 plus broadcast — collectives at this
/// granularity run once per engine setup, not per sample.
template <typename T>
std::vector<T> allgather(Comm& comm, const T& mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int size = comm.size();
  detail::CollectiveScope scope(
      comm, telemetry::CollectiveKind::kAllgather,
      static_cast<std::size_t>(size) * sizeof(T));
  std::vector<T> all(static_cast<std::size_t>(size));
  all[static_cast<std::size_t>(comm.rank())] = mine;
  if (size == 1) {
    return all;
  }
  const int tag = comm.next_collective_tag();
  if (comm.rank() == 0) {
    for (int r = 1; r < size; ++r) {
      all[static_cast<std::size_t>(r)] = comm.recv_value<T>(r, tag);
    }
  } else {
    comm.send_value<T>(0, tag, mine);
  }
  bcast(comm, 0, std::span<T>(all.data(), all.size()));
  return all;
}

/// Variable-length allgather with caller-known lengths: every rank
/// contributes `mine` (== counts[rank] elements; zero allowed) and
/// receives the rank-order concatenation of all contributions. `counts`
/// must be identical on every rank.
///
/// Runs the world's two-level layout: members publish their contribution
/// pointers, each leader assembles its group block straight from the
/// member buffers, the leaders exchange blocks, and the assembled result
/// fans back down by pointer. The leader exchange is recursive doubling
/// when the group count is a power of two (log2 rounds, each sending the
/// contiguous aligned run of blocks assembled so far) and a direct
/// exchange otherwise (send never blocks in this runtime, so the
/// all-to-all post is deadlock-free); concatenation has no reduction op,
/// so the crossover does not apply.
template <typename T>
std::vector<T> allgatherv(Comm& comm, std::span<const T> mine,
                          std::span<const std::size_t> counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int size = comm.size();
  const int rank = comm.rank();
  SWHKM_REQUIRE(counts.size() == static_cast<std::size_t>(size),
                "allgatherv needs one count per rank");
  SWHKM_REQUIRE(counts[rank] == mine.size(),
                "allgatherv counts[rank] must match the contribution");
  std::vector<std::size_t> offsets(static_cast<std::size_t>(size) + 1, 0);
  for (int r = 0; r < size; ++r) {
    offsets[r + 1] = offsets[r] + counts[r];
  }
  detail::CollectiveScope scope(comm,
                                telemetry::CollectiveKind::kAllgatherv,
                                offsets.back() * sizeof(T));
  std::vector<T> all(offsets.back());
  std::copy(mine.begin(), mine.end(),
            all.begin() + static_cast<std::ptrdiff_t>(offsets[rank]));
  if (size == 1) {
    return all;
  }
  const detail::HierLayout l =
      detail::hier_layout(rank, size, comm.hierarchy().ranks_per_group);
  const detail::HierTags tags = detail::reserve_hier_tags(comm);
  // Declared after `all`, so a throw holds the rank before `all` dies.
  const detail::ZeroCopyGuard guard(comm);
  if (l.local != 0) {
    detail::publish_ptr(comm, l.leader, tags.ptr, mine.data());
    const T* result = detail::recv_ptr<T>(comm, l.leader, tags.down);
    std::copy(result, result + all.size(), all.begin());
    comm.send_value<std::uint8_t>(l.leader, tags.ack, 1);
    return all;
  }
  for (int j = 1; j < l.group_size; ++j) {
    const int r = l.leader + j;
    const T* src = detail::recv_ptr<T>(comm, r, tags.ptr);
    std::copy(src, src + counts[r],
              all.begin() + static_cast<std::ptrdiff_t>(offsets[r]));
  }
  const int ng = l.num_groups;
  const int g = l.group;
  // Group q's block covers its member ranges: [goff(q), goff(q + 1)).
  const auto goff = [&](int q) { return offsets[std::min(q * l.width, size)]; };
  const bool doubling = ng > 1 && (ng & (ng - 1)) == 0;
  if (doubling) {
    for (int s = 1; s < ng; s <<= 1) {
      const int peer_group = g ^ s;
      const int base = g & ~(s - 1);
      const int pbase = peer_group & ~(s - 1);
      comm.send<T>(peer_group * l.width, tags.inter_a,
                   std::span<const T>(all.data() + goff(base),
                                      goff(base + s) - goff(base)));
      const std::vector<T> incoming =
          comm.recv<T>(peer_group * l.width, tags.inter_a);
      SWHKM_REQUIRE(incoming.size() == goff(pbase + s) - goff(pbase),
                    "allgatherv round length mismatch");
      std::copy(incoming.begin(), incoming.end(),
                all.begin() + static_cast<std::ptrdiff_t>(goff(pbase)));
    }
  } else if (ng > 1) {
    for (int q = 0; q < ng; ++q) {
      if (q != g) {
        comm.send<T>(q * l.width, tags.inter_a,
                     std::span<const T>(all.data() + goff(g),
                                        goff(g + 1) - goff(g)));
      }
    }
    for (int q = 0; q < ng; ++q) {
      if (q == g) {
        continue;
      }
      const std::vector<T> incoming = comm.recv<T>(q * l.width, tags.inter_a);
      SWHKM_REQUIRE(incoming.size() == goff(q + 1) - goff(q),
                    "allgatherv block length mismatch");
      std::copy(incoming.begin(), incoming.end(),
                all.begin() + static_cast<std::ptrdiff_t>(goff(q)));
    }
  }
  for (int j = 1; j < l.group_size; ++j) {
    detail::publish_ptr(comm, l.leader + j, tags.down, all.data());
  }
  for (int j = 1; j < l.group_size; ++j) {
    (void)comm.recv_value<std::uint8_t>(l.leader + j, tags.ack);
  }
  detail::tick_hier_counters(
      comm,
      doubling ? "swmpi.hier.allgatherv.algo_doubling"
               : "swmpi.hier.allgatherv.algo_direct",
      "swmpi.hier.allgatherv.intra_rounds",
      "swmpi.hier.allgatherv.inter_rounds",
      2 * detail::ceil_log2(l.group_size),
      ng > 1 ? (doubling ? detail::ceil_log2(ng) : std::uint32_t{1}) : 0);
  return all;
}

/// Length-discovering overload: one internal allgather of lengths, then
/// the known-counts exchange above.
template <typename T>
std::vector<T> allgatherv(Comm& comm, std::span<const T> mine) {
  const std::vector<std::uint64_t> lengths =
      allgather(comm, static_cast<std::uint64_t>(mine.size()));
  std::vector<std::size_t> counts(lengths.size());
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    counts[r] = static_cast<std::size_t>(lengths[r]);
  }
  return allgatherv(comm, mine,
                    std::span<const std::size_t>(counts.data(),
                                                 counts.size()));
}

}  // namespace swhkm::swmpi
