#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace swhkm::util {
class JsonWriter;
}

namespace swhkm::telemetry {

class FlightRing;
struct FlightSnapshot;

/// The wall-clock instrumentation substrate: counters, gauges and
/// fixed-bucket histograms, recorded into per-rank shards and merged
/// deterministically at run end.
///
/// Threading model: every swmpi rank (a thread) records into its own shard,
/// but a few cross-thread writers exist (a sender observing the receiver's
/// queue), so all primitives are atomic with relaxed ordering — recording
/// is wait-free and never takes a lock on the hot path. Name lookup is the
/// slow path (mutex + map); callers on hot paths resolve a Counter* /
/// Histogram* handle once and reuse it.
///
/// Determinism: merged() folds shards in ascending rank order and names in
/// sorted order, so two registries fed the same per-shard values produce
/// byte-identical snapshots regardless of recording interleavings (counter
/// adds commute; histogram bucket counts are integers).

/// Monotonically increasing 64-bit counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus the running maximum (e.g. mailbox queue depth).
///
/// A gauge that was never set is distinguishable from one set to 0: sets()
/// counts recordings, and max_ starts at the INT64_MIN sentinel so the
/// running maximum is correct even when every recorded value is negative.
/// merged() skips never-set gauges entirely instead of folding their
/// zero-initialized state into real recordings.
class Gauge {
 public:
  void set(std::int64_t v) {
    last_.store(v, std::memory_order_relaxed);
    std::int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
    sets_.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t last() const { return last_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t sets() const { return sets_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> last_{0};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
  std::atomic<std::uint64_t> sets_{0};
};

/// Fixed power-of-two buckets spanning [2^-26, 2^22) — fine enough for
/// sub-microsecond collective latencies (seconds) and wide enough for tile
/// sizes (sample counts). Bucket b holds values v with
/// upper_bound(b-1) <= v < upper_bound(b); bucket 0 additionally catches
/// everything below the range, the last bucket everything above.
inline constexpr int kHistogramBuckets = 48;
inline constexpr int kHistogramMinExp = -26;  ///< bucket 0 bound: 2^-26

/// Upper bound of bucket `b` (exclusive), as a double.
double histogram_bucket_bound(int b);

class Histogram {
 public:
  void observe(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The swmpi collective kinds the fast-path instrumentation distinguishes.
/// allgather also ticks the bcast it is built on — the counters describe
/// traffic at every layer, not a disjoint partition of it.
enum class CollectiveKind : int {
  kBarrier = 0,
  kBcast,
  kReduce,
  kAllreduce,
  kAllgather,
  kAllgatherv,
};
inline constexpr int kCollectiveKindCount = 6;
const char* collective_name(CollectiveKind kind);

/// Per-kind ledger: entry count, payload bytes, wall latency distribution.
struct CollectiveStats {
  Counter calls;
  Counter bytes;
  Histogram wall_s;
};

/// One rank's metrics. The fixed members are the O(1) hot paths (swmpi
/// collectives, point-to-point traffic); named metrics go through the
/// mutex-backed maps and should be resolved to handles outside loops.
class MetricsShard {
 public:
  MetricsShard();
  ~MetricsShard();
  MetricsShard(const MetricsShard&) = delete;
  MetricsShard& operator=(const MetricsShard&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// The rank's flight-recorder ring, or nullptr when the registry was not
  /// armed (MetricsRegistry::arm_flight). Hot paths resolve this once,
  /// alongside the shard itself.
  FlightRing* flight() { return flight_.get(); }
  const FlightRing* flight() const { return flight_.get(); }

  CollectiveStats& collective(CollectiveKind kind) {
    return collectives_[static_cast<std::size_t>(kind)];
  }

  /// Point-to-point / mailbox fast paths. The send ledgers count only
  /// *delivered* traffic; sends consumed by an injected blackhole land in
  /// p2p_dropped instead.
  Counter p2p_sends;
  Counter p2p_send_bytes;
  Counter p2p_dropped;         ///< sends swallowed by FaultPlan blackholes
  Counter send_ring_waits;     ///< sends that waited on a full SPSC lane
  Counter recv_parks;          ///< recvs that fell past the spin budget to
                               ///< the mailbox's condvar slow path
  Histogram recv_stall_s;      ///< wall seconds blocked in a recv
  Gauge recv_queue_depth;      ///< pending messages seen at recv entry

 private:
  friend class MetricsRegistry;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::array<CollectiveStats, kCollectiveKindCount> collectives_;
  std::unique_ptr<FlightRing> flight_;
};

/// One merged histogram: total count/sum plus the non-empty buckets in
/// ascending bound order.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  /// (exclusive upper bound, count) for every non-empty bucket.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

struct GaugeSnapshot {
  std::int64_t last = 0;     ///< from the highest-rank shard that set it
  std::int64_t max = 0;      ///< max across shards that set it
  std::uint64_t sets = 0;    ///< total recordings across shards
};

/// Deterministic merge of all shards: counters sum, gauge maxima combine
/// by max, histograms add bucket-wise. The swmpi fast-path ledgers are
/// flattened into the named maps ("swmpi.allreduce.calls", ...). std::map
/// keeps names sorted, so iteration — and the JSON rendering — is stable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::uint64_t counter_or_zero(std::string_view name) const;
  void write_json(util::JsonWriter& w) const;  ///< one JSON object
};

/// Shard owner. shard(rank) lazily creates; addresses are stable for the
/// registry's lifetime, so ranks cache the reference. kHostRank is the
/// shard for host-side (non-SPMD) recorders like the RecoveryDriver.
class MetricsRegistry {
 public:
  static constexpr int kHostRank = -1;

  MetricsShard& shard(int rank);
  MetricsShard& host_shard() { return shard(kHostRank); }
  std::size_t shard_count() const;

  MetricsSnapshot merged() const;

  /// Arm the flight recorder: every existing shard gets a ring of
  /// `ring_events` slots timestamped against `epoch`, and shards created
  /// later are born with one. Idempotent arming happens once, before
  /// run_spmd, so rank threads only ever see an armed-or-not registry.
  void arm_flight(std::size_t ring_events,
                  std::chrono::steady_clock::time_point epoch);
  bool flight_armed() const;

  /// Every shard's retained flight events, ascending rank order (the host
  /// shard's kHostRank sorts first). Quiescent callers only — see
  /// FlightRing::snapshot().
  std::vector<FlightSnapshot> flight_snapshots() const;

 private:
  mutable std::mutex mutex_;
  std::map<int, std::unique_ptr<MetricsShard>> shards_;
  std::size_t flight_ring_events_ = 0;  ///< 0 = not armed
  std::chrono::steady_clock::time_point flight_epoch_{};
};

}  // namespace swhkm::telemetry
