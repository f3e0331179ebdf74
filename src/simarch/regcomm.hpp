#pragma once

#include <cstddef>
#include <cstdint>

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
///
/// Batched combines: one launch can carry several payloads (a batch of
/// samples' records or distance partials). The launch pays the hop
/// latency once; every payload pays its own wire time. A launch of one
/// payload is the plain allreduce.
class RegComm {
 public:
  RegComm(const MachineConfig& config, CostTally& tally)
      : config_(&config), tally_(&tally) {}

  /// Charge `launches` allreduces over `participants` CPEs that carry
  /// `items` payloads of `bytes` each between them (data already shared
  /// in the functional engine's address space). Each launch is priced as
  /// an allreduce of one payload and each further payload adds its wire
  /// time, so launches == items is the per-payload charge, bit for bit.
  void account_allreduce(std::size_t bytes, std::size_t participants,
                         std::uint64_t items = 1, std::uint64_t launches = 1);

  /// Model: seconds of that charge; by default one allreduce of `bytes`.
  double allreduce_time(std::size_t bytes, std::size_t participants,
                        std::uint64_t items = 1,
                        std::uint64_t launches = 1) const;

 private:
  /// Hop count of the two-phase (row, then column) pattern for p CPEs.
  std::size_t mesh_hops(std::size_t participants) const;

  const MachineConfig* config_;
  CostTally* tally_;
};

}  // namespace swhkm::simarch
