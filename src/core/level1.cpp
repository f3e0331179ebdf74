#include "core/level1.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "core/perf_model.hpp"

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
    sweep_row_s_ = run.ldm.gemm ? run.machine.gemm_row_seconds(d)
                                : run.machine.assign_row_seconds(d);
    const double tighten_row_s = run.machine.assign_row_seconds(d);
    work_ = AssignWork{};
    work_.tile_samples = run.ldm.tile_samples;
    samples_ = 0;
    unresolved_ = 0;
    tightened_ = 0;
    std::size_t cpes_with_sweep = 0;
    for (std::size_t cpe = 0; cpe < cpes; ++cpe) {
      const auto [begin, end] = detail::block_range(
          run.dataset.n(), total_cpes, rank.cg * cpes + cpe);
      const detail::TileSweep::Block block = tiles_.sweep(rank, begin, end);
      const std::uint64_t count = end - begin;
      work_.stream_bytes += count * d * run.machine.elem_bytes;
      samples_ += count;
      unresolved_ += block.unresolved;
      tightened_ += block.tightened;
      work_.block_samples = std::max(work_.block_samples, count);
      work_.descriptors = std::max(work_.descriptors, block.descriptors);
      work_.sweep_s = std::max(
          work_.sweep_s,
          static_cast<double>(block.unresolved * k) * sweep_row_s_ +
              static_cast<double>(block.tightened) * tighten_row_s);
      if (block.unresolved > 0) {
        ++cpes_with_sweep;
      }
    }
    // Only CPEs with unresolved work (re)load the full centroid set; a
    // fully-gated CPE just accumulates from stored assignments. Every
    // sample still streams once — the accumulator needs it regardless.
    work_.loading_cpes = rank.gating ? cpes_with_sweep : cpes;
    return {samples_, unresolved_};
  }

  void charge(detail::EngineRank& rank) override {
    const std::size_t k = rank.run.config.k;
    const std::optional<double> hidden = charge_level1_assign(
        rank.tally, work_, rank.run.plan, rank.run.machine);
    if (hidden && rank.overlap_hist != nullptr) {
      rank.overlap_hist->observe(*hidden);
    }
    rank.tally.flops +=
        (unresolved_ * k + tightened_) * 2 * rank.run.dataset.d();
    rank.tally.pruned_samples += samples_ - unresolved_;
    rank.distance_comps += unresolved_ * k + tightened_;
    rank.lloyd_equivalent += samples_ * k;
    rank.charge_gate_and_sdc(unresolved_, sweep_row_s_);
  }

 private:
  detail::TileSweep tiles_;
  AssignWork work_;
  double sweep_row_s_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t unresolved_ = 0;
  std::uint64_t tightened_ = 0;
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
