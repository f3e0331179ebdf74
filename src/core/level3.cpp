#include "core/level3.hpp"

#include <algorithm>
#include <limits>

#include "core/engine_loop.hpp"
#include "core/perf_model.hpp"
#include "swmpi/collectives.hpp"
#include "util/units.hpp"

namespace swhkm::core {

namespace {

static_assert(kLevel3BoundGroups < 32, "merge_group_records' scan mask");

/// Level 3 policy: every CG of a CG group reads each unresolved sample
/// (its CPEs taking d_local dims each) and scores its own centroid slice,
/// a tile at a time; one batched argmin combine across the group then
/// resolves the whole compacted tile, and a fully-gated tile skips the
/// collective outright (every rank computed the same empty compaction, so
/// the collective discipline holds). The simulated cost still prices the
/// paper's per-sample group combine on the network; the mesh reduction of
/// the distance partials is priced per combine batch of survivors. The
/// winner's slice owner accumulates, in ascending-i order —
/// resolved samples under their stored assignment — so the fused sums
/// keep the exact summation order of a full sweep. The gate keeps one
/// lower bound per centroid group (plan.bound_groups) and runs no
/// safe-radius pass: a sample is resolved iff upper < min_g lower_g. A
/// survivor scores every group of the slice, and its combine carries one
/// top-two record per group, so every CG of the group refreshes all of
/// the sample's bounds exactly.
class Level3Policy final : public detail::LevelPolicy {
 public:
  explicit Level3Policy(detail::EngineRank& rank)
      : p_(rank.run.plan.mprime_group),
        group_(rank.cg / p_),
        within_(rank.cg % p_),
        group_comm_(rank.world.split(static_cast<int>(group_),
                                     static_cast<int>(within_))),
        j_begin_(rank.acc.row_begin()),
        j_end_(rank.acc.row_end()),
        runs_(1, rank.run.plan.ldm.sample_batch) {
    const std::size_t tile = rank.run.ldm.tile_samples;
    for (TileSlot& s : slots_) {
      s.recs.reserve(tile * rank.split.groups);
      s.ids.reserve(tile);
    }
    // Every rank of the group keeps a *private* replica of the group's
    // assignments for the gate: its inputs (combined MinLoc2 records,
    // published drift) are replicated bit-identically, so the replicas
    // never diverge, every rank computes the same tile compaction with no
    // extra exchange, and no rank reads a vector another rank writes. It
    // covers the group's block only, indexed from rank.bound_base like the
    // bounds.
    local_assign_.assign(rank.upper.size(), 0);
  }

  detail::AssignSweep sweep(detail::EngineRank& rank) override {
    const auto [begin, end] = detail::block_range(
        rank.run.dataset.n(), rank.run.plan.num_flow_units, group_);
    // Once the bounds are off for good there are none to refresh: one
    // record over the whole range, as the Level 1/2 tile sweep does.
    records_ = rank.bounds ? rank.split.groups : 1;
    count_ = end - begin;
    unresolved_ = 0;
    owned_resolved_ = 0;
    launches_ = 0;
    runs_.reset();
    drain_first_us_ = -1.0;
    drain_wall_us_ = 0.0;
    // Tile t-1 retires only after tile t is staged: its combine kept
    // draining under this tile's gate + sweep, and this tile's combine is
    // already in flight before we block.
    const std::size_t tile = rank.run.ldm.tile_samples;
    int cur = 0;
    for (std::size_t t0 = begin; t0 < end; t0 += tile) {
      stage(rank, slots_[cur], t0, std::min(end, t0 + tile));
      TileSlot& prev = slots_[cur ^ 1];
      if (prev.valid) {
        retire(rank, prev);
      }
      cur ^= 1;
    }
    if (slots_[cur ^ 1].valid) {
      retire(rank, slots_[cur ^ 1]);
    }
    if (rank.spans_on && drain_first_us_ >= 0 && p_ > 1) {
      rank.tel->spans().record("combine_drain",
                               static_cast<std::uint32_t>(rank.cg),
                               static_cast<std::uint32_t>(rank.global_iter),
                               drain_first_us_, drain_wall_us_);
    }
    return {count_, unresolved_};
  }

  void charge(detail::EngineRank& rank) override {
    const detail::EngineRun& run = rank.run;
    const simarch::MachineConfig& machine = run.machine;
    const std::size_t d = run.dataset.d();
    const std::size_t k_local = run.plan.k_local;
    const std::size_t d_local = run.plan.d_local;
    // DMA: unresolved samples stream into every CG of the group; a
    // resolved sample is read only by the CG owning its assigned slice
    // (for the accumulator). Each run of them is one strided descriptor
    // over the CG's d_local slices. Every CG of the group gates the whole
    // block, so each also reads and writes every sample's bounds.
    const double sweep_row_s = run.ldm.gemm
                                   ? machine.gemm_row_seconds(d_local)
                                   : machine.assign_row_seconds(d_local);
    AssignWork w;
    w.stream_bytes = (unresolved_ + owned_resolved_) * d * machine.elem_bytes +
                     rank.bound_bytes(count_);
    w.descriptors = runs_.critical();
    w.centroid_samples = unresolved_;
    w.sweep_s = static_cast<double>(unresolved_) *
                static_cast<double>(k_local) * sweep_row_s;
    w.combined = unresolved_;
    w.launches = launches_;
    w.block_samples = count_;
    w.tile_samples = run.ldm.tile_samples;
    // The group combine carries one MinLoc2 per bound group (8 bytes per
    // record more than a plain argmin: the exact runner-up distance the
    // group's lower bound needs). Tiny payloads, so the hierarchical
    // charge's size-adaptive stage always lands on the binomial tree (and
    // degenerates to the exact flat charge whenever the group sits inside
    // one supernode — every group at paper placements). The charge covers
    // the group's whole combine; every CG of the group enters it, so the
    // slice-0 CG alone books its crossing bytes.
    const bool hier = run.config.hier_collectives;
    const std::size_t record_bytes = records_ * sizeof(swmpi::MinLoc2);
    const simarch::CollectiveCharge group_charge =
        run.topo.hier_allreduce_charge(record_bytes, group_ * p_, p_,
                                       run.xover);
    w.group_combine.seconds =
        hier ? group_charge.seconds
             : run.topo.allreduce_time(record_bytes, group_ * p_, p_);
    w.group_combine.crossing_bytes =
        hier && within_ == 0 ? group_charge.crossing_bytes : 0;
    const std::optional<double> hidden =
        charge_level3_assign(rank.tally, w, run.plan, machine);
    if (hidden && rank.overlap_hist != nullptr) {
      rank.overlap_hist->observe(*hidden);
    }
    if (hier && rank.cg == 0 && p_ > 1 && unresolved_ > 0) {
      detail::tick_collective_charge(rank.tshard, "sim.collective.group_argmin",
                                     group_charge);
    }
    // One record per CG of the group for each combined sample, booked
    // once per group (model_iteration's rule).
    if (within_ == 0 && p_ > 1) {
      rank.tally.net_bytes += unresolved_ * record_bytes * p_;
    }

    const std::size_t slice = j_end_ - j_begin_;
    rank.tally.flops += unresolved_ * 2 * slice * d;
    // The group's ranks gate the same samples, so only the slice-0 rank
    // reports the prune count (volume counters sum across ranks).
    if (within_ == 0) {
      rank.tally.pruned_samples += count_ - unresolved_;
    }
    // Slice widths tile [0, k) within each group, so the machine-wide sums
    // are exactly swept-samples x k.
    rank.distance_comps += unresolved_ * slice;
    rank.lloyd_equivalent += count_ * slice;
    rank.charge_gate_and_sdc(unresolved_, sweep_row_s);
  }

 private:
  /// Double-buffered tile slots: tile t+1 is gated and scored (one
  /// combine launch) while tile t's combine drains. Two slots is exactly
  /// the depth the overlap needs.
  struct TileSlot {
    std::size_t t0 = 0;
    std::size_t t1 = 0;
    bool valid = false;
    std::vector<std::uint32_t> ids;  ///< the tile's survivors, ascending
    /// Group-major records: group g's record of the p-th survivor at
    /// recs[g * ids.size() + p]. The combine is element-wise and every
    /// rank of the group builds the same compaction, so the layout
    /// matches across the group.
    std::vector<swmpi::MinLoc2> recs;
    swmpi::SplitAllreduce<swmpi::MinLoc2, swmpi::CombineMinLoc2> combine;
  };

  /// Score this CG's slice for the slot's survivors into its records,
  /// records_ per survivor: record g covers the centroids of group g of
  /// GroupSplit{k, records_} inside the slice (cleared when the slice
  /// holds none of them), and the group combine's exact selection merges
  /// the slices' partial records into group g's top two. One record
  /// covers the whole slice. All groups score in one call.
  void score_ids(const detail::EngineRank& rank, TileSlot& s) {
    const detail::EngineRun& run = rank.run;
    const detail::TileGroups groups{records_, {}, run.config.k};
    const std::span<const std::uint32_t> ids(s.ids);
    s.recs.resize(ids.size() * records_);
    const std::span<swmpi::MinLoc2> recs(s.recs);
    detail::clear_scores(recs);
    if (run.ldm.gemm) {
      detail::score_tile_ids_gemm(run.dataset, ids, run.centroids, rank.norms,
                                  j_begin_, j_end_, recs, rank.gemm_hooks,
                                  groups);
    } else {
      detail::score_tile_ids(run.dataset, ids, run.centroids, j_begin_,
                             j_end_, recs, groups);
    }
  }

  /// The p-th survivor's winner from its combined records; while the
  /// bounds are on, also its exact upper and per-group lower bounds (every
  /// group was scored, so the merge reads no stored assignment or
  /// distance).
  std::uint32_t merge(detail::EngineRank& rank, const TileSlot& s,
                      std::size_t p, std::size_t b) {
    if (!rank.bounds) {
      return static_cast<std::uint32_t>(s.recs[p].index);
    }
    const std::size_t count = s.ids.size();
    const swmpi::MinLoc2* ptrs[kLevel3BoundGroups] = {};
    for (std::size_t g = 0; g < records_; ++g) {
      ptrs[g] = &s.recs[g * count + p];
    }
    return detail::merge_group_records<swmpi::MinLoc2>(
        std::span<const swmpi::MinLoc2* const>(ptrs, records_),
        (std::uint32_t{1} << records_) - 1, rank.split,
        local_assign_[b], std::numeric_limits<double>::quiet_NaN(),
        rank.upper[b], rank.lower.data() + b * records_);
  }

  /// Stage tile [t0, t1): gate it, score its survivors, then *launch* its
  /// argmin combine (the binomial up-phase send posts without waiting) so
  /// the drain can overlap the next tile's sweep.
  void stage(detail::EngineRank& rank, TileSlot& s, std::size_t t0,
             std::size_t t1) {
    s.t0 = t0;
    s.t1 = t1;
    s.valid = true;
    rank.record_tile(telemetry::FlightEventKind::kTileStart, t0, t1);
    s.ids.clear();
    if (!rank.gating) {
      for (std::size_t i = t0; i < t1; ++i) {
        s.ids.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      // No tightening at this level: the assigned centroid's row is
      // dimension-split across the group's CPEs and slice-split across its
      // CGs, so one exact distance would cost the combine the gate exists
      // to skip. No safe radii either (rank.safe stays empty): the group
      // bounds alone decide, and no group is skipped.
      detail::gate_groups(rank.run.dataset, rank.run.centroids, t0, t1,
                          local_assign_, rank.drift, rank.split, rank.digests,
                          rank.safe, rank.bound_base, rank.upper, rank.lower,
                          /*tighten=*/false, detail::GateSurvivors{s.ids});
      if (rank.survivor_hist != nullptr) {
        rank.survivor_hist->observe(static_cast<double>(s.ids.size()));
      }
    }
    // A fully-gated tile launches no collective and is charged no round.
    if (s.ids.empty()) {
      return;
    }
    score_ids(rank, s);
    launches_ += util::ceil_div(s.ids.size(), rank.run.plan.ldm.combine_batch);
    s.combine.start(group_comm_, std::span<swmpi::MinLoc2>(s.recs),
                    swmpi::CombineMinLoc2{});
    if (p_ > 1) {
      rank.tally.net_rounds += 1;
    }
  }

  /// Drain a tile's combine, timing the wait for the combine_drain span.
  void drain(const detail::EngineRank& rank, TileSlot& s) {
    if (!s.combine.active()) {
      return;
    }
    const double t_us = rank.spans_on ? rank.tel->now_us() : 0.0;
    s.combine.finish();
    if (rank.spans_on) {
      if (drain_first_us_ < 0) {
        drain_first_us_ = t_us;
      }
      drain_wall_us_ += rank.tel->now_us() - t_us;
    }
  }

  /// Retire tile [s.t0, s.t1): drain its combine, then merge the resolved
  /// winners in ascending-i order (the bit-identity invariant), counting
  /// the stream runs of the samples this CG reads: the survivors and the
  /// resolved samples its slice owns.
  void retire(detail::EngineRank& rank, TileSlot& s) {
    const data::Dataset& dataset = rank.run.dataset;
    std::vector<std::uint32_t>& assignments = rank.run.assignments;
    drain(rank, s);
    std::size_t pos = 0;
    for (std::size_t i = s.t0; i < s.t1; ++i) {
      const std::size_t b = i - rank.bound_base;
      std::uint32_t winner;
      if (pos < s.ids.size() && s.ids[pos] == i) {
        winner = merge(rank, s, pos, b);
        local_assign_[b] = winner;
        if (within_ == 0) {
          assignments[i] = winner;
        }
        ++pos;
        runs_.pull_all(i, i + 1);
      } else {
        winner = local_assign_[b];
        if (winner >= j_begin_ && winner < j_end_) {
          ++owned_resolved_;
          runs_.pull_all(i, i + 1);
        }
      }
      if (winner >= j_begin_ && winner < j_end_) {
        rank.acc.add_sample(winner, dataset.sample(i));
      }
    }
    unresolved_ += s.ids.size();
    s.valid = false;
    rank.record_tile(telemetry::FlightEventKind::kTileEnd, s.t0, s.t1);
  }

  const std::size_t p_;       ///< CGs per group (m'_group)
  const std::size_t group_;   ///< this CG's group (flow unit)
  const std::size_t within_;  ///< slice holder index inside the group
  swmpi::Comm group_comm_;
  /// This CG's centroid slice [j_begin, j_end): held_centroid_rows, the
  /// rows its accumulator and norm refresh hold.
  const std::size_t j_begin_;
  const std::size_t j_end_;
  TileSlot slots_[2];
  std::vector<std::uint32_t> local_assign_;  ///< from rank.bound_base
  detail::StreamRuns runs_;  ///< this CG's sample-stream descriptors

  // The current iteration.
  std::size_t records_ = 1;  ///< combine records per swept sample
  std::uint64_t count_ = 0;
  std::uint64_t unresolved_ = 0;
  std::uint64_t owned_resolved_ = 0;
  std::uint64_t launches_ = 0;  ///< mesh combine launches of the survivors
  double drain_first_us_ = -1.0;
  double drain_wall_us_ = 0.0;
};

}  // namespace

KmeansResult run_level3(const data::Dataset& dataset,
                        const KmeansConfig& config,
                        const simarch::MachineConfig& machine,
                        const PartitionPlan& plan,
                        util::Matrix initial_centroids) {
  return detail::run_engine(
      Level::kLevel3, "level3", dataset, config, machine, plan,
      std::move(initial_centroids), [](detail::EngineRank& rank) {
        return std::make_unique<Level3Policy>(rank);
      });
}

}  // namespace swhkm::core
