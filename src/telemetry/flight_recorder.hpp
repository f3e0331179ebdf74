#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace swhkm::util {
class JsonWriter;
}

namespace swhkm::telemetry {

/// Per-rank flight recorder: a fixed-size ring of compact events that is
/// always cheap to write (one relaxed index bump plus a struct store, no
/// locks, no allocation after construction) and survives a dead SPMD leg —
/// the rings live in the MetricsRegistry's shards, which the RecoveryDriver
/// still holds after run_spmd unwound. On a fault the last events of every
/// rank become the postmortem in the report the RecoveryDriver writes to
/// RecoveryOptions::report_path; on a clean run they are simply dropped
/// (the ring is diagnosis storage, not an artifact the exporters always
/// emit).
///
/// Like every other telemetry primitive, recording is read-only with
/// respect to algorithm state: results are bit-identical with the recorder
/// armed or not (tested in test_critical_path.cpp).

enum class FlightEventKind : std::uint8_t {
  kIterationStart = 0,  ///< engine loop head; sim_s = rank clock at entry
  kIterationEnd,        ///< after the tally combine; sim_s = advanced clock
  kTileStart,           ///< assign span staged; a/b = [sample t0, t1)
  kTileEnd,             ///< assign span retired (combine drained + merged)
  kCollectiveEnter,     ///< op = CollectiveKind, a = payload bytes
  kCollectiveExit,      ///< op = CollectiveKind, a = bytes, b = wall µs
  kMailboxPark,         ///< recv fell past the spin budget; a = tag
  kMailboxWake,         ///< parked recv woke; a = tag, b = stalled µs
  kCheckpointLeg,       ///< RecoveryDriver leg committed; a = leg iterations
  kFault,               ///< RecoveryDriver caught a RuntimeFault; op = 1 SDC
};
inline constexpr int kFlightEventKindCount = 10;
const char* flight_event_kind_name(FlightEventKind kind);

/// One compact event. `wall_us` is microseconds since the owning session's
/// steady-clock epoch (the same axis WallSpans use); `sim_s` is the
/// modeled rank clock where the recording site knows it (engine iteration
/// edges) and -1 where it doesn't (swmpi has no modeled clock). `a`/`b`
/// are kind-specific payloads — see FlightEventKind.
struct FlightEvent {
  double wall_us = 0;
  double sim_s = -1;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t iteration = 0;
  std::uint16_t op = 0;
  FlightEventKind kind = FlightEventKind::kIterationStart;
};

/// Wait-free single-writer ring. Each ring belongs to exactly one rank
/// (its MetricsShard), and only that rank's thread records into it; the
/// write path is an index load, a struct store and an index store, all
/// relaxed. snapshot() is for quiescent readers only — after run_spmd
/// joined (clean exit or the RecoveryDriver's catch block), where thread
/// join / exception propagation provides the happens-before edge.
class FlightRing {
 public:
  FlightRing(std::size_t capacity,
             std::chrono::steady_clock::time_point epoch);

  /// Microseconds since the session epoch, on the recorder's own axis.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void record(FlightEventKind kind, std::uint32_t iteration,
              std::uint16_t op = 0, std::uint64_t a = 0, std::uint64_t b = 0,
              double sim_s = -1.0) {
    record_at(now_us(), kind, iteration, op, a, b, sim_s);
  }

  /// Record with an explicit timestamp — for sites that only learn an
  /// event happened after the fact (a park is observed at wake time).
  void record_at(double wall_us, FlightEventKind kind, std::uint32_t iteration,
                 std::uint16_t op = 0, std::uint64_t a = 0,
                 std::uint64_t b = 0, double sim_s = -1.0) {
    const std::uint64_t slot = head_.load(std::memory_order_relaxed);
    FlightEvent& e = events_[slot % events_.size()];
    e.wall_us = wall_us;
    e.sim_s = sim_s;
    e.a = a;
    e.b = b;
    e.iteration = iteration;
    e.op = op;
    e.kind = kind;
    head_.store(slot + 1, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return events_.size(); }

  /// Total events ever recorded (>= capacity means the ring wrapped).
  std::uint64_t total() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// The retained events, oldest first. Quiescent readers only (see class
  /// comment).
  std::vector<FlightEvent> snapshot() const;

 private:
  std::vector<FlightEvent> events_;
  std::atomic<std::uint64_t> head_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// One rank's retained events at snapshot time. `rank` is the global rank
/// (MetricsRegistry::kHostRank for the RecoveryDriver's host ring),
/// `total` the lifetime event count (how much history the ring dropped).
struct FlightSnapshot {
  int rank = 0;
  std::uint64_t total = 0;
  std::vector<FlightEvent> events;
};

/// One fault's postmortem: every rank's last events, captured by the
/// RecoveryDriver the moment it caught the RuntimeFault — before any
/// retry overwrites the rings.
struct FaultPostmortem {
  std::uint32_t iteration = 0;  ///< global iteration the leg started at
  std::string what;             ///< the fault's message
  std::vector<FlightSnapshot> ranks;
};

/// JSON array of per-rank snapshots: [{"rank", "total_events", "events":
/// [{"kind", "wall_us", ...}]}].
void write_flight_snapshots(util::JsonWriter& w,
                            const std::vector<FlightSnapshot>& ranks);

/// JSON array of postmortems — the "flight_recorder" section of the
/// report written to RecoveryOptions::report_path.
void write_postmortems(util::JsonWriter& w,
                       const std::vector<FaultPostmortem>& postmortems);

}  // namespace swhkm::telemetry
