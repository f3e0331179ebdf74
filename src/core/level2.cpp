#include "core/level2.hpp"

#include <algorithm>

#include "core/engine_loop.hpp"
#include "simarch/regcomm.hpp"

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
    const double sweep_row_s = run.gemm ? run.machine.gemm_row_seconds(d)
                                        : run.machine.assign_row_seconds(d);
    const double tighten_row_s = run.machine.assign_row_seconds(d);
    sample_bytes_ = 0;
    max_group_samples_ = 0;
    max_reader_descriptors_ = 0;
    max_group_unresolved_ = 0;
    max_group_tightened_ = 0;
    max_member_s_ = 0;
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
      sample_bytes_ += (rank.gating ? block.unresolved * d * eb * g +
                                          (count - block.unresolved) * d * eb
                                    : count * d * eb * g) +
                       rank.bound_bytes(count);
      samples_ += count;
      unresolved_ += block.unresolved;
      tightened_ += block.tightened;
      scanned_rows_ += block.scanned_rows;
      max_group_samples_ = std::max(max_group_samples_, count);
      max_reader_descriptors_ =
          std::max(max_reader_descriptors_, block.descriptors);
      max_group_unresolved_ =
          std::max(max_group_unresolved_, block.unresolved);
      max_group_tightened_ = std::max(max_group_tightened_, block.tightened);
      for (std::size_t m = 0; m < g; ++m) {
        max_member_s_ = std::max(
            max_member_s_,
            static_cast<double>(block.member_rows[m]) * sweep_row_s +
                static_cast<double>(block.member_tightened[m]) *
                    tighten_row_s);
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
    const std::size_t g = run.plan.m_group;
    const std::size_t k_local = run.plan.k_local;
    simarch::CostTally& tally = rank.tally;
    const double sample_read_before = tally.sample_read_s;
    detail::charge_sample_stream(tally, machine, sample_bytes_,
                                 max_reader_descriptors_);
    const double sample_dma_s = tally.sample_read_s - sample_read_before;
    const double centroid_stream_before = tally.centroid_stream_s;
    if (!rank.gating || max_group_unresolved_ > 0) {
      detail::charge_centroid_traffic(tally, machine, run.plan,
                                      max_group_unresolved_);
    }
    const double centroid_dma_s =
        tally.centroid_stream_s - centroid_stream_before;
    // The busiest member CPE of any group: its rows of the scanned
    // centroid groups plus its tighten rows.
    const double sweep_row_s = run.gemm ? machine.gemm_row_seconds(d)
                                        : machine.assign_row_seconds(d);
    tally.compute_s += max_member_s_;
    // Tile t+1's replicated sample read and centroid re-stream land under
    // tile t's slice sweep.
    detail::TileSweep::hide_tile_dma(rank, max_group_samples_, max_member_s_,
                                     sample_dma_s, centroid_dma_s);
    tally.flops += (scanned_rows_ + tightened_) * 2 * d;
    tally.pruned_samples += samples_ - unresolved_;
    rank.distance_comps += scanned_rows_ + tightened_;
    rank.lloyd_equivalent += samples_ * k;
    rank.charge_gate_and_sdc(unresolved_, sweep_row_s);

    // Per-sample argmin combine on the register buses (groups of a CG run
    // in parallel; charge the busiest group), compacted to the unresolved
    // samples, then the same-slice CPEs' reduce across the CG's groups.
    // The combine carries the 24-byte top-two record; each member then
    // refreshes the bounds of the centroid groups in its slice from its
    // own records and the winner. Each tightening distance is one double
    // broadcast from the slice owner over the same bus.
    simarch::RegComm reg(machine, tally);
    reg.account_allreduce(24, g, max_group_unresolved_);
    reg.account_allreduce(8, g, max_group_tightened_);
    reg.account_allreduce(k_local * d * eb, machine.cpes_per_cg / g);
  }

 private:
  detail::TileSweep tiles_;
  std::uint64_t sample_bytes_ = 0;
  std::uint64_t max_group_samples_ = 0;
  std::uint64_t max_reader_descriptors_ = 0;  ///< busiest member CPE's
  std::uint64_t max_group_unresolved_ = 0;
  std::uint64_t max_group_tightened_ = 0;
  double max_member_s_ = 0;  ///< busiest member CPE's sweep seconds
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
