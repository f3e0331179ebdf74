#include "core/level2.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "core/perf_model.hpp"

namespace swhkm::core {

namespace {

/// Level 2 policy: each CPE group of this CG takes one flow unit's block;
/// every member CPE reads the whole sample (replication factor g) and
/// scores its centroid slice, with the group's register-bus argmin combine
/// selecting the winner (priced in charge()). The g slices tile [0, k)
/// contiguously, so functionally the combine is one ascending scan of all
/// centroids — the shared TileSweep. The bound gate keeps one lower bound
/// per contiguous centroid group (plan.bound_groups) and runs no
/// safe-radius pass: a sample whose upper bound beats every group's bound
/// skips the replicated read and the combine, and is accumulated by its
/// stored assignment's owner from a single read; a survivor scores only
/// the groups whose bound it fails.
class Level2Policy final : public detail::LevelPolicy {
 public:
  explicit Level2Policy(const detail::EngineRank& rank) : tiles_(rank) {}

  detail::AssignSweep sweep(detail::EngineRank& rank) override {
    const detail::EngineRun& run = rank.run;
    const std::size_t g = run.plan.m_group;
    const std::size_t groups_per_cg = run.machine.cpes_per_cg / g;
    const std::size_t d = run.dataset.d();
    const std::size_t eb = run.machine.elem_bytes;
    // Survivor slice-rows run at the active kernel's rate; tighten rows
    // are always single-row exact distances (multi-chain).
    sweep_row_s_ = run.ldm.gemm ? run.machine.gemm_row_seconds(d)
                                : run.machine.assign_row_seconds(d);
    const double tighten_row_s = run.machine.assign_row_seconds(d);
    // The group's argmin combine carries the 24-byte top-two record; each
    // member then refreshes the bounds of the centroid groups in its slice
    // from its own records and the winner.
    work_ = AssignWork{};
    work_.gated = rank.gating;
    work_.record_bytes = 24;
    work_.tile_samples = run.ldm.tile_samples;
    samples_ = 0;
    unresolved_ = 0;
    tightened_ = 0;
    scanned_rows_ = 0;
    for (std::size_t grp = 0; grp < groups_per_cg; ++grp) {
      const auto [begin, end] =
          detail::block_range(run.dataset.n(), run.plan.num_flow_units,
                              rank.cg * groups_per_cg + grp);
      const detail::TileSweep::Block block = tiles_.sweep(rank, begin, end);
      const std::uint64_t count = end - begin;
      // Unresolved samples pay the replicated read (every member CPE of
      // the group needs the vector to score its slice); gated ones are
      // read once by the accumulating owner. A gated sample also reads
      // and writes its bound_groups lower bounds.
      work_.stream_bytes += (rank.gating ? block.unresolved * d * eb * g +
                                               (count - block.unresolved) *
                                                   d * eb
                                         : count * d * eb * g) +
                            rank.bound_bytes(count);
      samples_ += count;
      unresolved_ += block.unresolved;
      tightened_ += block.tightened;
      scanned_rows_ += block.scanned_rows;
      // Groups of a CG run in parallel: the busiest group's samples,
      // combines and tightenings, and its busiest member's reads and rows
      // (its scanned centroid groups plus its tighten rows).
      work_.block_samples = std::max(work_.block_samples, count);
      work_.descriptors = std::max(work_.descriptors, block.descriptors);
      work_.combined = std::max(work_.combined, block.unresolved);
      work_.launches = std::max(work_.launches, block.launches);
      work_.tightened = std::max(work_.tightened, block.tightened);
      for (std::size_t m = 0; m < g; ++m) {
        work_.sweep_s = std::max(
            work_.sweep_s,
            static_cast<double>(block.member_rows[m]) * sweep_row_s_ +
                static_cast<double>(block.member_tightened[m]) *
                    tighten_row_s);
      }
    }
    // Centroid traffic follows the busiest group's swept samples.
    work_.centroid_samples = work_.combined;
    return {samples_, unresolved_};
  }

  void charge(detail::EngineRank& rank) override {
    const std::size_t d = rank.run.dataset.d();
    const std::optional<double> hidden = charge_level2_assign(
        rank.tally, work_, rank.run.plan, rank.run.machine);
    if (hidden && rank.overlap_hist != nullptr) {
      rank.overlap_hist->observe(*hidden);
    }
    rank.tally.flops += (scanned_rows_ + tightened_) * 2 * d;
    rank.tally.pruned_samples += samples_ - unresolved_;
    rank.distance_comps += scanned_rows_ + tightened_;
    rank.lloyd_equivalent += samples_ * rank.run.config.k;
    rank.charge_gate_and_sdc(unresolved_, sweep_row_s_);
  }

 private:
  detail::TileSweep tiles_;
  AssignWork work_;
  double sweep_row_s_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t unresolved_ = 0;
  std::uint64_t tightened_ = 0;
  std::uint64_t scanned_rows_ = 0;
};

}  // namespace

KmeansResult run_level2(const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  return detail::run_engine(
      Level::kLevel2, "level2", dataset, config, machine, plan,
      std::move(initial_centroids), [](detail::EngineRank& rank) {
        return std::make_unique<Level2Policy>(rank);
      });
}

}  // namespace swhkm::core
