#include "simarch/regcomm.hpp"

#include <algorithm>

namespace swhkm::simarch {

std::size_t RegComm::mesh_hops(std::size_t participants) const {
  // Participants occupy ceil(p / cols) rows; the row phase spans up to
  // (cols - 1) hops, the column phase up to (rows_used - 1).
  const std::size_t cols = config_->mesh_cols;
  const std::size_t rows_used = (participants + cols - 1) / cols;
  const std::size_t row_span = std::min(participants, cols);
  return (row_span > 0 ? row_span - 1 : 0) +
         (rows_used > 0 ? rows_used - 1 : 0);
}

double RegComm::allreduce_time(std::size_t bytes, std::size_t participants,
                               std::uint64_t items,
                               std::uint64_t launches) const {
  if (participants <= 1) {
    return 0.0;
  }
  const double hop_lat =
      static_cast<double>(mesh_hops(participants)) * config_->reg_hop_latency;
  const double wire = static_cast<double>(bytes) / config_->reg_bandwidth;
  // reduce phase + broadcast phase, per launch; the payloads a launch
  // carries beyond its first cross the bus in both phases too.
  const double one = 2.0 * (hop_lat + wire);
  return static_cast<double>(launches) * one +
         (static_cast<double>(items) - static_cast<double>(launches)) *
             (2.0 * wire);
}

void RegComm::account_allreduce(std::size_t bytes, std::size_t participants,
                                std::uint64_t items, std::uint64_t launches) {
  if (participants <= 1 || items == 0) {
    return;
  }
  tally_->reg_bytes += bytes * (participants - 1) * items;
  tally_->mesh_comm_s += allreduce_time(bytes, participants, items, launches);
}

}  // namespace swhkm::simarch
