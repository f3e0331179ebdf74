#include "core/level1.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "simarch/regcomm.hpp"

namespace swhkm::core {

namespace {

/// Level 1 policy: each CPE of this CG streams its own contiguous block
/// and scores all k centroids for the block's unresolved samples.
class Level1Policy final : public detail::LevelPolicy {
 public:
  explicit Level1Policy(const detail::EngineRank& rank) : tiles_(rank) {}

  detail::AssignSweep sweep(detail::EngineRank& rank) override {
    const detail::EngineRun& run = rank.run;
    const std::size_t cpes = run.machine.cpes_per_cg;
    const std::size_t total_cpes = run.machine.total_cpes();
    const std::size_t k = run.config.k;
    const std::size_t d = run.dataset.d();
    // Swept survivor rows run at the active kernel's rate; the gate's
    // tighten rows are always single-row exact distances (multi-chain).
    sweep_row_s_ = run.gemm ? run.machine.gemm_row_seconds(d)
                            : run.machine.assign_row_seconds(d);
    const double tighten_row_s = run.machine.assign_row_seconds(d);
    sample_bytes_ = 0;
    max_cpe_samples_ = 0;
    max_cpe_descriptors_ = 0;
    max_cpe_sweep_s_ = 0;
    samples_ = 0;
    unresolved_ = 0;
    tightened_ = 0;
    cpes_with_sweep_ = 0;
    for (std::size_t cpe = 0; cpe < cpes; ++cpe) {
      const auto [begin, end] = detail::block_range(
          run.dataset.n(), total_cpes, rank.cg * cpes + cpe);
      const detail::TileSweep::Block block = tiles_.sweep(rank, begin, end);
      const std::uint64_t count = end - begin;
      sample_bytes_ += count * d * run.machine.elem_bytes;
      samples_ += count;
      unresolved_ += block.unresolved;
      tightened_ += block.tightened;
      max_cpe_samples_ = std::max(max_cpe_samples_, count);
      max_cpe_descriptors_ = std::max(max_cpe_descriptors_, block.descriptors);
      max_cpe_sweep_s_ = std::max(
          max_cpe_sweep_s_,
          static_cast<double>(block.unresolved * k) * sweep_row_s_ +
              static_cast<double>(block.tightened) * tighten_row_s);
      if (block.unresolved > 0) {
        ++cpes_with_sweep_;
      }
    }
    return {samples_, unresolved_};
  }

  void charge(detail::EngineRank& rank) override {
    const detail::EngineRun& run = rank.run;
    const simarch::MachineConfig& machine = run.machine;
    const std::size_t k = run.config.k;
    const std::size_t d = run.dataset.d();
    const std::size_t eb = machine.elem_bytes;
    simarch::CostTally& tally = rank.tally;
    // Only CPEs with unresolved work (re)load the full centroid set; a
    // fully-gated CPE just accumulates from stored assignments. Every
    // sample still streams once — the accumulator needs it regardless.
    const std::size_t loading_cpes =
        rank.gating ? cpes_with_sweep_ : machine.cpes_per_cg;
    const double centroid_dma_s =
        static_cast<double>(loading_cpes * k * d * eb) / machine.dma_bandwidth;
    tally.centroid_stream_s += centroid_dma_s;
    tally.dma_bytes += loading_cpes * k * d * eb;
    const double sample_read_before = tally.sample_read_s;
    detail::charge_sample_stream(tally, machine, sample_bytes_,
                                 max_cpe_descriptors_);
    const double sample_dma_s = tally.sample_read_s - sample_read_before;
    tally.compute_s += max_cpe_sweep_s_;
    detail::TileSweep::hide_tile_dma(rank, max_cpe_samples_, max_cpe_sweep_s_,
                                     sample_dma_s, centroid_dma_s);
    tally.flops += (unresolved_ * k + tightened_) * 2 * d;
    tally.pruned_samples += samples_ - unresolved_;
    rank.distance_comps += unresolved_ * k + tightened_;
    rank.lloyd_equivalent += samples_ * k;
    rank.charge_gate_and_sdc(unresolved_, sweep_row_s_);
    // Register-comm reduce of the fused accumulator inside the CG.
    simarch::RegComm reg(machine, tally);
    reg.account_allreduce((k * d + k) * eb, machine.cpes_per_cg);
  }

 private:
  detail::TileSweep tiles_;
  double sweep_row_s_ = 0;
  std::uint64_t sample_bytes_ = 0;
  std::uint64_t max_cpe_samples_ = 0;
  std::uint64_t max_cpe_descriptors_ = 0;
  double max_cpe_sweep_s_ = 0;  ///< sweep + tighten seconds, slowest CPE
  std::uint64_t samples_ = 0;
  std::uint64_t unresolved_ = 0;
  std::uint64_t tightened_ = 0;
  std::size_t cpes_with_sweep_ = 0;
};

}  // namespace

KmeansResult run_level1(const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  return detail::run_engine(
      Level::kLevel1, "level1", dataset, config, machine, plan,
      std::move(initial_centroids), [](detail::EngineRank& rank) {
        return std::make_unique<Level1Policy>(rank);
      });
}

}  // namespace swhkm::core
