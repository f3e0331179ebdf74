#pragma once

#include <cstddef>

#include "simarch/cost.hpp"
#include "simarch/machine_config.hpp"

namespace swhkm::simarch {

/// Register communication across the 8x8 CPE mesh of one core group.
///
/// The SW26010 exposes row and column buses that let CPEs exchange register
/// payloads without touching memory; the paper leans on them for intra-CG
/// AllReduce (quoted 3-4x faster than DMA/MPI paths). The engines keep
/// every CPE's data in one address space, so this class only prices the
/// mesh collectives they would run.
///
/// Cost model for a mesh collective over p CPEs on an r x c mesh:
///   row phase then column phase => (r-1)+(c-1) hop latencies each way,
///   with the payload crossing the bus at bandwidth R. AllReduce is
///   reduce + broadcast, so the payload term appears twice.
class RegComm {
 public:
  RegComm(const MachineConfig& config, CostTally& tally)
      : config_(&config), tally_(&tally) {}

  /// Charge an allreduce of `bytes` over `participants` CPEs, `times` times
  /// (data already shared in the functional engine's address space).
  void account_allreduce(std::size_t bytes, std::size_t participants,
                         std::size_t times = 1);

  /// Model: seconds for an allreduce of `bytes` over `participants` CPEs.
  double allreduce_time(std::size_t bytes, std::size_t participants) const;

 private:
  /// Hop count of the two-phase (row, then column) pattern for p CPEs.
  std::size_t mesh_hops(std::size_t participants) const;

  const MachineConfig* config_;
  CostTally* tally_;
};

}  // namespace swhkm::simarch
