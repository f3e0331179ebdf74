#include "core/perf_model.hpp"

#include <algorithm>

#include "core/engine_util.hpp"
#include "simarch/regcomm.hpp"
#include "simarch/topology.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace swhkm::core {

namespace {

using simarch::CostTally;
using simarch::MachineConfig;
using simarch::RegComm;
using simarch::Topology;
using detail::block_range;
using util::ceil_div;

constexpr std::size_t kMinLocBytes = 16;  // (double, uint64) argmin payload

double dbl(std::uint64_t v) { return static_cast<double>(v); }

/// `bytes` through the CG's DMA at bandwidth B, plus one issue overhead per
/// descriptor on the busiest reader's chain (issue overlaps across
/// readers). Returns the seconds charged.
double charge_sample_stream(CostTally& t, const MachineConfig& mc,
                            std::uint64_t bytes, std::uint64_t descriptors) {
  const double s =
      dbl(bytes) / mc.dma_bandwidth + dbl(descriptors) * mc.dma_latency;
  t.sample_read_s += s;
  t.dma_bytes += bytes;
  return s;
}

/// Centroid traffic of one CG: a single slice (re)load when resident,
/// otherwise the cheaper of re-streaming the slice for every sample and
/// tiled passes over the sample block. Level 2's CPEs each keep their own
/// slice copy; Level 3's CPEs jointly hold one (d_local columns each).
/// Returns the seconds charged.
double charge_centroid_traffic(CostTally& t, const MachineConfig& mc,
                               const PartitionPlan& plan,
                               std::uint64_t samples) {
  const double eb = dbl(mc.elem_bytes);
  const double d = dbl(plan.shape.d);
  const double slice = dbl(plan.k_local) * d * eb;
  double per_holder = slice;
  if (!plan.ldm.resident) {
    const double per_sample = dbl(samples) * dbl(plan.k_local) * d * eb;
    const double tiled =
        dbl(ceil_div(plan.k_local, plan.ldm.tile_rows)) * dbl(samples) * d *
            eb +
        slice;
    per_holder = std::min(per_sample, tiled);
  }
  const double holders =
      plan.level == Level::kLevel2 ? dbl(mc.cpes_per_cg) : 1.0;
  const double bytes = holders * per_holder;
  const double s = bytes / mc.dma_bandwidth;
  t.centroid_stream_s += s;
  t.dma_bytes += static_cast<std::uint64_t>(bytes);
  return s;
}

/// Levels 1/2 tile pipeline: tile t+1's sample and centroid DMA land under
/// tile t's sweep, hiding up to a (T-1)/T share of it (T tiles in the
/// busiest block). Hidden seconds come proportionally out of the two DMA
/// phases and move into overlapped_dma_s, so total_s() shrinks by exactly
/// what the pipeline bought.
std::optional<double> hide_tile_dma(CostTally& t, const AssignWork& w,
                                    double sample_dma_s,
                                    double centroid_dma_s) {
  const double tile_dma_s = sample_dma_s + centroid_dma_s;
  if (w.block_samples <= w.tile_samples || tile_dma_s <= 0) {
    return std::nullopt;
  }
  const std::uint64_t ntiles = ceil_div(w.block_samples, w.tile_samples);
  const double window = w.sweep_s * dbl(ntiles - 1) / dbl(ntiles);
  const double hidden = std::min(tile_dma_s, window);
  const double f = hidden / tile_dma_s;
  t.sample_read_s -= f * sample_dma_s;
  t.centroid_stream_s -= f * centroid_dma_s;
  t.overlapped_dma_s += hidden;
  return hidden;
}

/// One rank-set AllReduce under the selected schedule (the flat
/// baseline's crossing comes from Topology::flat_allreduce_crossing_bytes,
/// so both sides of the A/B report a comparable crossing ledger).
AllreduceModel ranks_allreduce(const Topology& topo, std::size_t bytes,
                               const std::vector<std::size_t>& ranks,
                               bool hier, std::size_t xover) {
  AllreduceModel out;
  if (hier) {
    const simarch::CollectiveCharge charge =
        topo.hier_allreduce_charge(bytes, ranks, xover);
    out.seconds = charge.seconds;
    out.crossing_bytes = charge.crossing_bytes;
  } else {
    out.seconds = topo.allreduce_time(bytes, ranks);
    out.crossing_bytes = topo.flat_allreduce_crossing_bytes(bytes, ranks);
  }
  return out;
}

/// Worst-case AllReduce time over every group of `group_size` consecutive
/// ranks (packed placement) or stride-striped ranks (scattered), plus the
/// crossing bytes summed over *all* groups (the sampled groups repeat the
/// same boundary pattern, so the sample scales by its stride).
AllreduceModel worst_group_allreduce(const Topology& topo, std::size_t bytes,
                                     std::size_t num_groups,
                                     std::size_t group_size,
                                     Placement placement, bool hier,
                                     std::size_t xover) {
  AllreduceModel out;
  std::vector<std::size_t> ranks(group_size);
  // Groups repeat the same topology pattern within a supernode; sampling
  // up to 128 evenly spaced groups sees every boundary class.
  const std::size_t step = num_groups > 128 ? num_groups / 128 : 1;
  for (std::size_t g = 0; g < num_groups; g += step) {
    for (std::size_t i = 0; i < group_size; ++i) {
      ranks[i] = placement == Placement::kPacked ? g * group_size + i
                                                 : g + i * num_groups;
    }
    const AllreduceModel one = ranks_allreduce(topo, bytes, ranks, hier, xover);
    out.seconds = std::max(out.seconds, one.seconds);
    out.crossing_bytes += one.crossing_bytes * step;
  }
  return out;
}

}  // namespace

AllreduceModel cross_group_allreduce(const Topology& topo, std::size_t bytes,
                                     std::size_t num_groups,
                                     std::size_t group_size,
                                     Placement placement, bool hier,
                                     std::size_t xover) {
  AllreduceModel out;
  std::vector<std::size_t> ranks(num_groups);
  std::uint64_t sampled_crossing = 0;
  std::size_t sampled = 0;
  for (std::size_t j = 0; j < group_size; ++j) {
    for (std::size_t g = 0; g < num_groups; ++g) {
      ranks[g] = placement == Placement::kPacked ? g * group_size + j
                                                 : j * num_groups + g;
    }
    const AllreduceModel one = ranks_allreduce(topo, bytes, ranks, hier, xover);
    out.seconds = std::max(out.seconds, one.seconds);
    sampled_crossing += one.crossing_bytes;
    ++sampled;
    if (group_size > 8 && j >= 8) {
      break;  // sampling the slice owners is enough; pattern repeats
    }
  }
  if (sampled > 0) {
    out.crossing_bytes = sampled_crossing * group_size / sampled;
  }
  return out;
}

std::optional<double> charge_level1_assign(CostTally& t, const AssignWork& w,
                                           const PartitionPlan& plan,
                                           const MachineConfig& mc) {
  const std::size_t k = plan.shape.k;
  const std::size_t d = plan.shape.d;
  const std::size_t eb = mc.elem_bytes;
  const std::uint64_t centroid_bytes = w.loading_cpes * k * d * eb;
  const double centroid_dma_s = dbl(centroid_bytes) / mc.dma_bandwidth;
  t.centroid_stream_s += centroid_dma_s;
  t.dma_bytes += centroid_bytes;
  const double sample_dma_s =
      charge_sample_stream(t, mc, w.stream_bytes, w.descriptors);
  t.compute_s += w.sweep_s;
  const std::optional<double> hidden =
      hide_tile_dma(t, w, sample_dma_s, centroid_dma_s);
  RegComm(mc, t).account_allreduce((k * d + k) * eb, mc.cpes_per_cg);
  return hidden;
}

std::optional<double> charge_level2_assign(CostTally& t, const AssignWork& w,
                                           const PartitionPlan& plan,
                                           const MachineConfig& mc) {
  const std::size_t g = plan.m_group;
  const double sample_dma_s =
      charge_sample_stream(t, mc, w.stream_bytes, w.descriptors);
  const double centroid_dma_s =
      !w.gated || w.centroid_samples > 0
          ? charge_centroid_traffic(t, mc, plan, w.centroid_samples)
          : 0.0;
  t.compute_s += w.sweep_s;
  const std::optional<double> hidden =
      hide_tile_dma(t, w, sample_dma_s, centroid_dma_s);
  // The group's combine records and tighten distances (one double from
  // the slice owner each) on the register bus, a round per batch: rounds
  // beyond the records' carry tighten distances only. Then the same-slice
  // CPEs' accumulator reduce across the CG's groups: k_local sum rows and
  // their counters, as Level 1 reduces all k.
  const std::uint64_t record_launches = std::min(w.launches, w.combined);
  RegComm reg(mc, t);
  reg.account_allreduce(w.record_bytes, g, w.combined, record_launches);
  reg.account_allreduce(sizeof(double), g, w.tightened,
                        w.launches - record_launches);
  reg.account_allreduce(
      (plan.k_local * plan.shape.d + plan.k_local) * mc.elem_bytes,
      mc.cpes_per_cg / g);
  return hidden;
}

std::optional<double> charge_level3_assign(CostTally& t, const AssignWork& w,
                                           const PartitionPlan& plan,
                                           const MachineConfig& mc) {
  charge_sample_stream(t, mc, w.stream_bytes, w.descriptors);
  const double tile_dma_s =
      w.centroid_samples > 0
          ? charge_centroid_traffic(t, mc, plan, w.centroid_samples)
          : 0.0;
  t.compute_s += w.sweep_s;
  RegComm(mc, t).account_allreduce(plan.k_local * mc.elem_bytes,
                                   mc.cpes_per_cg, w.combined, w.launches);
  const double tile_net_s = dbl(w.combined) * w.group_combine.seconds;
  t.net_comm_s += tile_net_s;
  t.net_crossing_bytes += w.combined * w.group_combine.crossing_bytes;

  // Tile pipeline: all but the first tile's combine drain (and centroid
  // reload) issue under another tile's sweep, so up to a (T-1)/T share of
  // the sweep hides that traffic. The combine is hidden first (it is the
  // phase the split-phase start/finish really overlaps); leftover window
  // hides the centroid re-stream. Hidden seconds move into the
  // overlapped_* ledgers, so total_s() shrinks by exactly what the
  // pipeline bought.
  if (w.block_samples <= w.tile_samples) {
    return std::nullopt;
  }
  const std::uint64_t ntiles = ceil_div(w.block_samples, w.tile_samples);
  const double window = w.sweep_s * dbl(ntiles - 1) / dbl(ntiles);
  const double hide_net = std::min(tile_net_s, window);
  const double hide_dma = std::min(tile_dma_s, window - hide_net);
  t.net_comm_s -= hide_net;
  t.overlapped_net_s += hide_net;
  t.centroid_stream_s -= hide_dma;
  t.overlapped_dma_s += hide_dma;
  return hide_net + hide_dma;
}

UpdateCollectives charge_update(CostTally& t, const PartitionPlan& plan,
                                const MachineConfig& mc, const Topology& topo,
                                std::size_t cg, Placement placement,
                                bool hier, bool sdc_checks) {
  const std::size_t k = plan.shape.k;
  const std::size_t d = plan.shape.d;
  const std::size_t num_cgs = mc.num_cgs();
  const std::size_t eb = mc.elem_bytes;
  const std::size_t xover = mc.collective_crossover_bytes();
  const std::size_t publish_bytes =
      update_publish_bytes(plan, mc) + (sdc_checks ? sdc_verdict_bytes(mc) : 0);
  const bool books_crossing = cg == 0;
  UpdateCollectives out;
  // The reduce term's and the allgather's seconds are summed before they
  // reach the tally, one addition as the ledger pins.
  double reduce_s = 0;
  if (plan.level == Level::kLevel3) {
    if (plan.num_flow_units > 1) {
      const std::size_t slice_bytes = (plan.k_local * d + plan.k_local) * eb;
      const AllreduceModel slice =
          cross_group_allreduce(topo, slice_bytes, plan.num_flow_units,
                                plan.mprime_group, placement, hier, xover);
      reduce_s = slice.seconds;
      // The total covers all m'_group slices' exchanges.
      if (books_crossing) {
        t.net_crossing_bytes += slice.crossing_bytes;
      }
      t.net_bytes += slice_bytes;
      t.net_rounds += 1;
    }
  } else {
    const std::size_t accum_bytes = (k * d + k) * eb;
    if (hier) {
      out.reduce_scatter =
          topo.hier_reduce_scatter_charge(accum_bytes, 0, num_cgs, xover);
      reduce_s = out.reduce_scatter->seconds;
      if (books_crossing) {
        t.net_crossing_bytes += out.reduce_scatter->crossing_bytes;
      }
    } else {
      reduce_s = topo.reduce_scatter_time(accum_bytes, 0, num_cgs);
    }
    t.net_bytes += accum_bytes;
    t.net_rounds += 1;
  }
  if (hier) {
    out.allgather = topo.hier_allgather_charge(publish_bytes, 0, num_cgs);
    t.net_comm_s += reduce_s + out.allgather->seconds;
    if (books_crossing) {
      t.net_crossing_bytes += out.allgather->crossing_bytes;
    }
  } else {
    t.net_comm_s += reduce_s + topo.allgather_time(publish_bytes, 0, num_cgs);
  }
  t.net_bytes += publish_bytes;
  t.net_rounds += 1;

  const auto [u_begin, u_end] = block_range(k, num_cgs, cg);
  const std::size_t shard_rows = u_end - u_begin;
  t.update_s +=
      dbl(2 * shard_rows * d) / (mc.cg_flops() * mc.compute_efficiency) +
      dbl(shard_rows * d * eb) / mc.dma_bandwidth;
  return out;
}

CostTally model_iteration(const PartitionPlan& plan,
                          const MachineConfig& machine, Placement placement,
                          bool hier_collectives) {
  machine.validate();
  SWHKM_REQUIRE(plan.num_cgs == machine.num_cgs() &&
                    plan.cpes_per_cg == machine.cpes_per_cg,
                "plan was made for a different machine");
  const Topology topo(machine);
  const ProblemShape& s = plan.shape;
  const std::size_t eb = machine.elem_bytes;
  // One flow unit's full chain-kernel sweep: every sample of the unit is
  // streamed, scored and combined, one tile per block.
  const std::uint64_t n_unit = ceil_div(s.n, plan.num_flow_units);
  AssignWork w;
  w.descriptors = ceil_div(n_unit, plan.ldm.sample_batch);
  w.block_samples = w.tile_samples = n_unit;
  CostTally t;
  switch (plan.level) {
    case Level::kLevel1:
      // Every CPE streams its samples and scores all k centroids per
      // sample.
      w.stream_bytes = machine.cpes_per_cg * n_unit * s.d * eb;
      w.loading_cpes = machine.cpes_per_cg;
      w.sweep_s = dbl(n_unit) * dbl(s.k) * machine.assign_row_seconds(s.d);
      charge_level1_assign(t, w, plan, machine);
      break;
    case Level::kLevel2:
      // Each sample is replicated to the m_group CPEs of its group; a CG
      // hosts cpes_per_cg / m_group groups, so per-CG sample traffic is
      // cpes_per_cg * n_unit rows regardless of m_group, and every CPE
      // scores its slice against each of its group's samples.
      w.stream_bytes = machine.cpes_per_cg * n_unit * s.d * eb;
      w.centroid_samples = n_unit;
      w.sweep_s =
          dbl(n_unit) * dbl(plan.k_local) * machine.assign_row_seconds(s.d);
      w.combined = n_unit;
      w.launches = ceil_div(n_unit, plan.ldm.combine_batch);
      w.record_bytes = kMinLocBytes;
      charge_level2_assign(t, w, plan, machine);
      break;
    case Level::kLevel3:
      // Each CG of a group reads the full sample, its CPEs taking d_local
      // each, and scores k_local rows of its narrow d_local slice per
      // sample; the per-row overhead barely amortises at small d, and the
      // per-sample group combine is the d-independent cost floor that
      // lets Level 2 win.
      w.stream_bytes = n_unit * s.d * eb;
      w.centroid_samples = n_unit;
      w.sweep_s = dbl(n_unit) * dbl(plan.k_local) *
                  machine.assign_row_seconds(plan.d_local);
      w.combined = n_unit;
      w.launches = ceil_div(n_unit, plan.ldm.combine_batch);
      w.group_combine = worst_group_allreduce(
          topo, kMinLocBytes, plan.num_flow_units, plan.mprime_group,
          placement, hier_collectives, machine.collective_crossover_bytes());
      charge_level3_assign(t, w, plan, machine);
      // Each group combine carries one record per CG of the group, booked
      // once per combine (the engines' slice-0 CG books its group's): one
      // record per combined sample per CG on average.
      if (plan.mprime_group > 1) {
        t.net_bytes += n_unit * kMinLocBytes;
      }
      break;
  }
  charge_update(t, plan, machine, topo, 0, placement, hier_collectives,
                false);
  // Every CG runs the same sweep and update (CG 0's shard is the largest),
  // so the machine's volumes are one CG's times the CG count; the crossing
  // bytes already cover every collective.
  t.dma_bytes *= machine.num_cgs();
  t.reg_bytes *= machine.num_cgs();
  t.net_bytes *= machine.num_cgs();
  t.flops = s.n * s.k * s.d * 2;
  return t;
}

std::size_t update_publish_bytes(const PartitionPlan& plan,
                                 const MachineConfig& machine) {
  const ProblemShape& shape = plan.shape;
  const std::size_t rows =
      plan.level == Level::kLevel3 ? 0 : shape.k * shape.d * machine.elem_bytes;
  return rows + 16 * machine.num_cgs() + shape.k * sizeof(double);
}

std::size_t sdc_verdict_bytes(const MachineConfig& machine) {
  return 16 * 2 * machine.num_cgs() + sizeof(double);
}

PaperFormulaTimes paper_formula_times(const PartitionPlan& plan,
                                      const MachineConfig& machine) {
  PaperFormulaTimes out;
  const auto& s = plan.shape;
  const double eb = static_cast<double>(machine.elem_bytes);
  const double B = machine.dma_bandwidth;
  const double R = machine.reg_bandwidth;
  const double M = machine.net_bandwidth;
  const double m = dbl(machine.total_cpes());
  switch (plan.level) {
    case Level::kLevel1:
      // T_read = (n*d/m + k*d)/B ; T_comm = (n/m)*((1+k)*d)/R
      out.t_read_s = (dbl(s.n) * dbl(s.d) / m + dbl(s.k) * dbl(s.d)) * eb / B;
      out.t_comm_s =
          dbl(s.n) / m * ((1.0 + dbl(s.k)) * dbl(s.d)) * eb / R;
      break;
    case Level::kLevel2: {
      const double g = dbl(plan.m_group);
      out.t_read_s =
          (dbl(s.n) * dbl(s.d) * g / m + dbl(s.k) / g * dbl(s.d)) * eb / B;
      out.t_comm_s = dbl(s.k) / g * eb / R +
                     dbl(s.n) * g / m * ((1.0 + dbl(s.k)) * dbl(s.d)) * eb / M;
      break;
    }
    case Level::kLevel3: {
      const double p = dbl(plan.mprime_group);
      const double cpes = dbl(machine.cpes_per_cg);
      out.t_read_s = (dbl(s.n) * dbl(s.d) * p / m +
                      dbl(s.k) / p * dbl(s.d) / cpes) *
                     eb / B;
      out.t_comm_s = (dbl(s.k) / p +
                      dbl(s.n) * p / m * ((1.0 + dbl(s.k)) * dbl(s.d))) *
                     eb / M;
      break;
    }
  }
  return out;
}

}  // namespace swhkm::core
