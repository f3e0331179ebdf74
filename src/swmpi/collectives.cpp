#include "swmpi/collectives.hpp"

#include <atomic>

namespace swhkm::swmpi {

namespace {

// Process-global schedule selection: relaxed atomics because the schedule
// is configured before ranks launch (run_spmd publishes with a stronger
// edge) and only read inside collectives.
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

void barrier(Comm& comm) {
  detail::CollectiveScope scope(comm, telemetry::CollectiveKind::kBarrier, 0);
  const int size = comm.size();
  if (size <= 1) {
    return;
  }
  const int tag = comm.next_collective_tag();
  const std::byte token{0};
  for (int step = 1; step < size; step <<= 1) {
    const int to = (comm.rank() + step) % size;
    const int from = (comm.rank() - step % size + size) % size;
    comm.send_bytes(to, tag, std::span<const std::byte>(&token, 1));
    (void)comm.recv_bytes(from, tag);
  }
}

}  // namespace swhkm::swmpi
