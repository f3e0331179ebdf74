#include "telemetry/registry.hpp"

#include <cmath>

#include "telemetry/flight_recorder.hpp"
#include "util/json.hpp"

namespace swhkm::telemetry {

// Out of line: FlightRing is incomplete where the header declares the
// unique_ptr member.
MetricsShard::MetricsShard() = default;
MetricsShard::~MetricsShard() = default;

double histogram_bucket_bound(int b) {
  return std::ldexp(1.0, kHistogramMinExp + b + 1);
}

void Histogram::observe(double v) {
  int b = 0;
  if (v > 0) {
    int exp = 0;
    (void)std::frexp(v, &exp);  // v = mantissa * 2^exp, mantissa in [0.5, 1)
    // v < 2^exp <= bound(exp - 1 - kHistogramMinExp); clamp into range.
    b = exp - 1 - kHistogramMinExp;
    if (b < 0) {
      b = 0;
    } else if (b >= kHistogramBuckets) {
      b = kHistogramBuckets - 1;
    }
  }
  buckets_[static_cast<std::size_t>(b)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

const char* collective_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kBarrier:
      return "barrier";
    case CollectiveKind::kBcast:
      return "bcast";
    case CollectiveKind::kReduce:
      return "reduce";
    case CollectiveKind::kAllreduce:
      return "allreduce";
    case CollectiveKind::kAllgather:
      return "allgather";
    case CollectiveKind::kAllgatherv:
      return "allgatherv";
  }
  return "unknown";
}

Counter& MetricsShard::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsShard::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsShard::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsShard& MetricsRegistry::shard(int rank) {
  std::lock_guard lock(mutex_);
  auto it = shards_.find(rank);
  if (it == shards_.end()) {
    it = shards_.emplace(rank, std::make_unique<MetricsShard>()).first;
    if (flight_ring_events_ > 0) {
      it->second->flight_ =
          std::make_unique<FlightRing>(flight_ring_events_, flight_epoch_);
    }
  }
  return *it->second;
}

std::size_t MetricsRegistry::shard_count() const {
  std::lock_guard lock(mutex_);
  return shards_.size();
}

void MetricsRegistry::arm_flight(
    std::size_t ring_events, std::chrono::steady_clock::time_point epoch) {
  std::lock_guard lock(mutex_);
  if (ring_events == 0 || flight_ring_events_ > 0) {
    return;
  }
  flight_ring_events_ = ring_events;
  flight_epoch_ = epoch;
  for (auto& [rank, shard] : shards_) {
    (void)rank;
    if (shard->flight_ == nullptr) {
      shard->flight_ = std::make_unique<FlightRing>(ring_events, epoch);
    }
  }
}

bool MetricsRegistry::flight_armed() const {
  std::lock_guard lock(mutex_);
  return flight_ring_events_ > 0;
}

std::vector<FlightSnapshot> MetricsRegistry::flight_snapshots() const {
  std::lock_guard lock(mutex_);
  std::vector<FlightSnapshot> out;
  out.reserve(shards_.size());
  // std::map iterates ranks ascending (kHostRank = -1 first).
  for (const auto& [rank, shard] : shards_) {
    if (shard->flight_ == nullptr) {
      continue;
    }
    FlightSnapshot snap;
    snap.rank = rank;
    snap.total = shard->flight_->total();
    snap.events = shard->flight_->snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

namespace {

void merge_histogram(HistogramSnapshot& into, const Histogram& h) {
  into.count += h.count();
  into.sum += h.sum();
  // Accumulate into a dense scratch keyed by bucket index via the bound:
  // rebuild the sparse vector afterwards to keep it sorted and non-empty.
  std::array<std::uint64_t, kHistogramBuckets> dense{};
  for (const auto& [bound, count] : into.buckets) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (bound == histogram_bucket_bound(b)) {
        dense[static_cast<std::size_t>(b)] = count;
        break;
      }
    }
  }
  for (int b = 0; b < kHistogramBuckets; ++b) {
    dense[static_cast<std::size_t>(b)] += h.bucket(b);
  }
  into.buckets.clear();
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (dense[static_cast<std::size_t>(b)] > 0) {
      into.buckets.emplace_back(histogram_bucket_bound(b),
                                dense[static_cast<std::size_t>(b)]);
    }
  }
}

void merge_gauge(GaugeSnapshot& into, const Gauge& g) {
  // A shard whose gauge was never set contributes nothing: folding its
  // zero-initialized last/max would clobber a lower-rank shard's real last
  // with 0 and mask negative maxima (the sentinel-vs-0 ambiguity). Callers
  // guard map insertion on g.sets() too, so a never-set gauge leaves no
  // snapshot entry at all.
  if (g.sets() == 0) {
    return;
  }
  if (into.sets == 0) {
    into.max = g.max();
  } else {
    into.max = std::max(into.max, g.max());
  }
  into.last = g.last();
  into.sets += g.sets();
}

}  // namespace

std::uint64_t MetricsSnapshot::counter_or_zero(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

MetricsSnapshot MetricsRegistry::merged() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  // std::map iterates ranks ascending — the deterministic fold order.
  for (const auto& [rank, shard] : shards_) {
    (void)rank;
    std::lock_guard shard_lock(shard->mutex_);
    for (const auto& [name, c] : shard->counters_) {
      snap.counters[name] += c->value();
    }
    for (const auto& [name, g] : shard->gauges_) {
      if (g->sets() > 0) {
        merge_gauge(snap.gauges[name], *g);
      }
    }
    for (const auto& [name, h] : shard->histograms_) {
      merge_histogram(snap.histograms[name], *h);
    }
    for (int k = 0; k < kCollectiveKindCount; ++k) {
      const CollectiveStats& cs =
          shard->collectives_[static_cast<std::size_t>(k)];
      if (cs.calls.value() == 0) {
        continue;
      }
      const std::string base =
          std::string("swmpi.") +
          collective_name(static_cast<CollectiveKind>(k));
      snap.counters[base + ".calls"] += cs.calls.value();
      snap.counters[base + ".bytes"] += cs.bytes.value();
      merge_histogram(snap.histograms[base + ".wall_s"], cs.wall_s);
    }
    if (shard->p2p_sends.value() > 0) {
      snap.counters["swmpi.send.calls"] += shard->p2p_sends.value();
      snap.counters["swmpi.send.bytes"] += shard->p2p_send_bytes.value();
    }
    // Dropped sends and wait events flatten independently of the delivered
    // ledger — a rank can drop or stall without ever delivering a byte.
    if (shard->p2p_dropped.value() > 0) {
      snap.counters["swmpi.send.dropped"] += shard->p2p_dropped.value();
    }
    if (shard->send_ring_waits.value() > 0) {
      snap.counters["swmpi.send.ring_waits"] += shard->send_ring_waits.value();
    }
    if (shard->recv_parks.value() > 0) {
      snap.counters["swmpi.recv.parks"] += shard->recv_parks.value();
    }
    if (shard->recv_stall_s.count() > 0) {
      merge_histogram(snap.histograms["swmpi.recv.stall_s"],
                      shard->recv_stall_s);
      if (shard->recv_queue_depth.sets() > 0) {
        merge_gauge(snap.gauges["swmpi.recv.queue_depth"],
                    shard->recv_queue_depth);
      }
    }
  }
  return snap;
}

void MetricsSnapshot::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) {
    w.kv(name, v);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges) {
    w.key(name).begin_object();
    w.kv("last", g.last);
    w.kv("max", g.max);
    w.kv("sets", g.sets);
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.key("buckets").begin_array();
    for (const auto& [bound, count] : h.buckets) {
      w.begin_object();
      w.kv("le", bound);
      w.kv("count", count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace swhkm::telemetry
