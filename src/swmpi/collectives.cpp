#include "swmpi/collectives.hpp"

namespace swhkm::swmpi {

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
