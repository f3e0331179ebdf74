#pragma once

#include <cstdint>
#include <string>

namespace swhkm::simarch {

/// Simulated-time ledger for one iteration (or one run) of an engine.
/// Each component is the *critical-path* seconds attributed to that
/// activity; total() is their sum, i.e. the model assumes phases do not
/// overlap (the paper's formulas make the same assumption).
///
/// Byte/flop counters are bookkeeping totals across the whole machine and
/// exist for reporting and for tests that assert data-movement volumes.
struct CostTally {
  // seconds on the critical path
  double sample_read_s = 0;      ///< DMA of sample vectors into LDM
  double centroid_stream_s = 0;  ///< DMA (re-)streaming of centroid tiles
  double compute_s = 0;          ///< distance + accumulate arithmetic
  double mesh_comm_s = 0;        ///< intra-CG register communication
  double net_comm_s = 0;         ///< inter-CG / inter-node MPI traffic
  double update_s = 0;           ///< centroid recomputation after reduce

  // Seconds *hidden* by the double-buffered tile pipeline: DMA (sample /
  // centroid streaming) or per-tile combine traffic issued under the
  // previous tile's distance sweep. Already subtracted from the phase
  // fields above, so total_s() — still the plain sum of those fields —
  // reflects the shortened critical path; these ledgers only record how
  // much the overlap bought. The strict no-overlap model is a cost
  // function of any engine run: total_s() + overlapped_dma_s +
  // overlapped_net_s, with net_comm_s + overlapped_net_s as its network
  // share.
  double overlapped_dma_s = 0;   ///< tile DMA hidden under compute
  double overlapped_net_s = 0;   ///< tile combine traffic hidden under compute

  // machine-wide volume counters
  std::uint64_t dma_bytes = 0;
  std::uint64_t reg_bytes = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t flops = 0;
  /// Samples the bound gate resolved without a distance sweep this
  /// iteration (0 when gating is off or on the exact first iteration).
  std::uint64_t pruned_samples = 0;
  /// Network collective *rounds* this rank entered (per-tile argmin
  /// combines plus the update phase's reduce_scatter + allgather). Rounds
  /// are the latency-side currency a larger tile spends less of — bytes
  /// stay constant while rounds drop with the tile count. Combined across
  /// ranks as a max (concurrent groups' rounds
  /// overlap; the busiest rank is the critical path) and summed across
  /// iterations like the time fields.
  std::uint64_t net_rounds = 0;
  /// Of net_bytes, the bytes that crossed a supernode boundary (through
  /// the central routing switch) — the traffic the Fig. 7 step jumps are
  /// made of, and what the hierarchical collective schedule exists to
  /// shrink. A machine-wide volume counter: summed in both combines.
  std::uint64_t net_crossing_bytes = 0;
  /// GEMM assign panels the ABFT checksum column caught corrupt and
  /// recomputed bit-identically (KmeansConfig::sdc_checks). A machine-wide
  /// volume counter: summed in both combines, so per-rank detections reach
  /// the cg-0 history through the existing tally exchange.
  std::uint64_t sdc_recomputed = 0;

  double total_s() const {
    return sample_read_s + centroid_stream_s + compute_s + mesh_comm_s +
           net_comm_s + update_s;
  }

  CostTally& operator+=(const CostTally& other) {
    sample_read_s += other.sample_read_s;
    centroid_stream_s += other.centroid_stream_s;
    compute_s += other.compute_s;
    mesh_comm_s += other.mesh_comm_s;
    net_comm_s += other.net_comm_s;
    update_s += other.update_s;
    overlapped_dma_s += other.overlapped_dma_s;
    overlapped_net_s += other.overlapped_net_s;
    dma_bytes += other.dma_bytes;
    reg_bytes += other.reg_bytes;
    net_bytes += other.net_bytes;
    flops += other.flops;
    pruned_samples += other.pruned_samples;
    net_rounds += other.net_rounds;
    net_crossing_bytes += other.net_crossing_bytes;
    sdc_recomputed += other.sdc_recomputed;
    return *this;
  }

  /// Component-wise maximum of the time fields; used when parallel branches
  /// of the machine execute the same phase and the slowest one gates the
  /// iteration. Volume counters are summed.
  CostTally& max_in_place(const CostTally& other) {
    sample_read_s = sample_read_s > other.sample_read_s ? sample_read_s
                                                        : other.sample_read_s;
    centroid_stream_s = centroid_stream_s > other.centroid_stream_s
                            ? centroid_stream_s
                            : other.centroid_stream_s;
    compute_s = compute_s > other.compute_s ? compute_s : other.compute_s;
    mesh_comm_s =
        mesh_comm_s > other.mesh_comm_s ? mesh_comm_s : other.mesh_comm_s;
    net_comm_s = net_comm_s > other.net_comm_s ? net_comm_s : other.net_comm_s;
    update_s = update_s > other.update_s ? update_s : other.update_s;
    overlapped_dma_s = overlapped_dma_s > other.overlapped_dma_s
                           ? overlapped_dma_s
                           : other.overlapped_dma_s;
    overlapped_net_s = overlapped_net_s > other.overlapped_net_s
                           ? overlapped_net_s
                           : other.overlapped_net_s;
    dma_bytes += other.dma_bytes;
    reg_bytes += other.reg_bytes;
    net_bytes += other.net_bytes;
    flops += other.flops;
    pruned_samples += other.pruned_samples;
    net_crossing_bytes += other.net_crossing_bytes;
    sdc_recomputed += other.sdc_recomputed;
    net_rounds =
        net_rounds > other.net_rounds ? net_rounds : other.net_rounds;
    return *this;
  }

  std::string summary() const;
};

}  // namespace swhkm::simarch
