#include "core/perf_model.hpp"

#include <algorithm>

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
using util::ceil_div;

constexpr std::size_t kMinLocBytes = 16;  // (double, uint64) argmin payload

double dbl(std::uint64_t v) { return static_cast<double>(v); }

/// Centroid traffic per flow unit and iteration, in bytes *per holder CG*,
/// for a non-resident slice: the cheaper of per-sample re-streaming and
/// tiled passes over the sample block (see header).
double streamed_centroid_bytes(std::uint64_t samples, std::uint64_t k_local,
                               std::uint64_t slice_row_elems,
                               std::uint64_t sample_row_elems,
                               std::size_t tile_rows, std::size_t elem_bytes) {
  const double per_sample =
      dbl(samples) * dbl(k_local) * dbl(slice_row_elems) * elem_bytes;
  const std::uint64_t passes = ceil_div(k_local, tile_rows);
  const double tiled =
      dbl(passes) * dbl(samples) * dbl(sample_row_elems) * elem_bytes +
      dbl(k_local) * dbl(slice_row_elems) * elem_bytes;
  return std::min(per_sample, tiled);
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

namespace {

/// The machine-wide AllReduce of the fused (sums, counts) accumulator that
/// closes a Level 1/2 iteration: its seconds and crossing bytes (the
/// network phase's first charges) and every CG's payload.
void charge_machine_allreduce(CostTally& t, const Topology& topo,
                              const MachineConfig& mc,
                              std::size_t accum_bytes, bool hier) {
  if (hier) {
    const simarch::CollectiveCharge charge = topo.hier_allreduce_charge(
        accum_bytes, 0, mc.num_cgs(), mc.collective_crossover_bytes());
    t.net_comm_s = charge.seconds;
    t.net_crossing_bytes = charge.crossing_bytes;
  } else {
    t.net_comm_s = topo.allreduce_time(accum_bytes, 0, mc.num_cgs());
    t.net_crossing_bytes =
        topo.flat_allreduce_crossing_bytes(accum_bytes, 0, mc.num_cgs());
  }
  t.net_bytes += accum_bytes * mc.num_cgs();
}

CostTally model_level1(const PartitionPlan& plan, const MachineConfig& mc,
                       bool hier) {
  CostTally t;
  RegComm reg(mc, t);
  Topology topo(mc);
  const auto& s = plan.shape;
  const std::size_t eb = mc.elem_bytes;
  const std::uint64_t n_cpe = ceil_div(s.n, mc.total_cpes());

  // Per-CG DMA: every CPE streams its samples, one descriptor per batch,
  // and (re)loads all centroids.
  const double sample_bytes = dbl(mc.cpes_per_cg) * dbl(n_cpe) * dbl(s.d) * eb;
  t.sample_read_s = sample_bytes / mc.dma_bandwidth +
                    dbl(ceil_div(n_cpe, plan.ldm.sample_batch)) *
                        mc.dma_latency;
  const double centroid_bytes = dbl(mc.cpes_per_cg) * dbl(s.k) * dbl(s.d) * eb;
  t.centroid_stream_s = centroid_bytes / mc.dma_bandwidth;
  t.dma_bytes += static_cast<std::uint64_t>(
      (sample_bytes + centroid_bytes) * mc.num_cgs());

  // Assign: each CPE scores k full-width rows per sample.
  t.compute_s = dbl(n_cpe) * dbl(s.k) * mc.assign_row_seconds(s.d);
  t.flops = s.n * s.k * s.d * 2;

  // Update: intra-CG accumulator reduction, then machine-wide AllReduce.
  const std::size_t accum_bytes = (s.k * s.d + s.k) * eb;
  t.mesh_comm_s = reg.allreduce_time(accum_bytes, mc.cpes_per_cg);
  charge_machine_allreduce(t, topo, mc, accum_bytes, hier);
  t.update_s = dbl(s.k) * dbl(s.d) * 2.0 /
                   (mc.cg_flops() * mc.compute_efficiency) +
               dbl(s.k * s.d * eb) / mc.dma_bandwidth;
  return t;
}

CostTally model_level2(const PartitionPlan& plan, const MachineConfig& mc,
                       bool hier) {
  CostTally t;
  RegComm reg(mc, t);
  Topology topo(mc);
  const auto& s = plan.shape;
  const std::size_t eb = mc.elem_bytes;
  const std::size_t g = plan.m_group;
  const std::uint64_t n_grp = ceil_div(s.n, plan.num_flow_units);
  const double eff_flops = mc.cpe_flops() * mc.compute_efficiency;

  // Each sample is replicated to the m_group CPEs of its group; a CG hosts
  // cpes_per_cg/g groups, so per-CG sample traffic is cpes_per_cg * n_grp
  // rows regardless of g — but issue overhead is per batch per CPE.
  const double sample_bytes =
      dbl(mc.cpes_per_cg) * dbl(n_grp) * dbl(s.d) * eb;
  t.sample_read_s = sample_bytes / mc.dma_bandwidth +
                    dbl(ceil_div(n_grp, plan.ldm.sample_batch)) *
                        mc.dma_latency;
  t.dma_bytes += static_cast<std::uint64_t>(sample_bytes * mc.num_cgs());

  if (plan.ldm.resident) {
    const double slice_bytes =
        dbl(mc.cpes_per_cg) * dbl(plan.k_local) * dbl(s.d) * eb;
    t.centroid_stream_s = slice_bytes / mc.dma_bandwidth;
    t.dma_bytes += static_cast<std::uint64_t>(slice_bytes * mc.num_cgs());
  } else {
    const double per_cpe_bytes = streamed_centroid_bytes(
        n_grp, plan.k_local, s.d, s.d, plan.ldm.tile_rows, eb);
    t.centroid_stream_s =
        dbl(mc.cpes_per_cg) * per_cpe_bytes / mc.dma_bandwidth;
    t.dma_bytes += static_cast<std::uint64_t>(
        dbl(mc.cpes_per_cg) * per_cpe_bytes * mc.num_cgs());
  }

  // Every CPE scores its slice against each of its group's samples.
  t.compute_s = dbl(n_grp) * dbl(plan.k_local) * mc.assign_row_seconds(s.d);
  t.flops = s.n * s.k * s.d * 2;

  // Per-sample argmin combine across the group's CPEs (register buses,
  // groups operate in parallel), plus the update-phase reductions: same-
  // slice CPEs across the CG's groups, then the machine-wide AllReduce.
  t.mesh_comm_s = dbl(n_grp) * reg.allreduce_time(kMinLocBytes, g) +
                  reg.allreduce_time(plan.k_local * s.d * eb,
                                     mc.cpes_per_cg / g);
  charge_machine_allreduce(t, topo, mc, (s.k * s.d + s.k) * eb, hier);
  t.update_s = dbl(plan.k_local) * dbl(s.d) * 2.0 / eff_flops +
               dbl(s.k * s.d * eb) / mc.dma_bandwidth;
  return t;
}

CostTally model_level3(const PartitionPlan& plan, const MachineConfig& mc,
                       Placement placement, bool hier) {
  CostTally t;
  RegComm reg(mc, t);
  Topology topo(mc);
  const auto& s = plan.shape;
  const std::size_t eb = mc.elem_bytes;
  const std::size_t p = plan.mprime_group;
  const std::size_t cg_groups = plan.num_flow_units;
  const std::uint64_t n_cgg = ceil_div(s.n, cg_groups);
  const double eff_flops = mc.cpe_flops() * mc.compute_efficiency;

  // Each CG of a group reads the full sample, its 64 CPEs taking d_local
  // each; per-CG traffic is n_cgg rows of d elements, one strided
  // descriptor per batch.
  const double sample_bytes = dbl(n_cgg) * dbl(s.d) * eb;
  t.sample_read_s = sample_bytes / mc.dma_bandwidth +
                    dbl(ceil_div(n_cgg, plan.ldm.sample_batch)) *
                        mc.dma_latency;
  t.dma_bytes += static_cast<std::uint64_t>(sample_bytes * mc.num_cgs());

  if (plan.ldm.resident) {
    const double slice_bytes = dbl(plan.k_local) * dbl(s.d) * eb;
    t.centroid_stream_s = slice_bytes / mc.dma_bandwidth;
    t.dma_bytes += static_cast<std::uint64_t>(slice_bytes * mc.num_cgs());
  } else {
    // Per CG: its 64 CPEs stream d_local-wide rows; aggregate row width d.
    const double per_cg_bytes = streamed_centroid_bytes(
        n_cgg, plan.k_local, s.d, s.d, plan.ldm.tile_rows, eb);
    t.centroid_stream_s = per_cg_bytes / mc.dma_bandwidth;
    t.dma_bytes +=
        static_cast<std::uint64_t>(per_cg_bytes * mc.num_cgs());
  }

  // Each CPE scores k_local rows of its narrow d_local slice per sample —
  // the per-row overhead barely amortises at small d, which is Level 3's
  // handicap left of the Fig. 7 crossover.
  t.compute_s =
      dbl(n_cgg) * dbl(plan.k_local) * mc.assign_row_seconds(plan.d_local);
  t.flops = s.n * s.k * s.d * 2;

  // Per sample: reduce k_local distance partials across the CG mesh, then
  // an argmin combine across the group's m'_group CGs over the network —
  // the d-independent cost floor that lets Level 2 win at small d.
  t.mesh_comm_s =
      dbl(n_cgg) * reg.allreduce_time(plan.k_local * eb, mc.cpes_per_cg) +
      reg.allreduce_time(plan.k_local * plan.d_local * eb, 1);
  const std::size_t xover = mc.collective_crossover_bytes();
  const AllreduceModel assign_combine = worst_group_allreduce(
      topo, kMinLocBytes, cg_groups, p, placement, hier, xover);
  t.net_comm_s = dbl(n_cgg) * assign_combine.seconds;
  t.net_crossing_bytes += n_cgg * assign_combine.crossing_bytes;
  t.net_bytes += static_cast<std::uint64_t>(dbl(n_cgg) * kMinLocBytes *
                                            dbl(p) * dbl(cg_groups));

  // Update: AllReduce the slice accumulators across same-slice CGs.
  const std::size_t accum_bytes = (plan.k_local * s.d + plan.k_local) * eb;
  const AllreduceModel update_combine = cross_group_allreduce(
      topo, accum_bytes, cg_groups, p, placement, hier, xover);
  t.net_comm_s += update_combine.seconds;
  t.net_crossing_bytes += update_combine.crossing_bytes;
  t.net_bytes += accum_bytes * mc.num_cgs();
  t.update_s = dbl(plan.k_local) * dbl(plan.d_local) * 2.0 / eff_flops +
               dbl(plan.k_local * s.d * eb) / mc.dma_bandwidth;
  return t;
}

}  // namespace

CostTally model_iteration(const PartitionPlan& plan,
                          const MachineConfig& machine, Placement placement,
                          bool hier_collectives) {
  machine.validate();
  SWHKM_REQUIRE(plan.num_cgs == machine.num_cgs() &&
                    plan.cpes_per_cg == machine.cpes_per_cg,
                "plan was made for a different machine");
  switch (plan.level) {
    case Level::kLevel1:
      return model_level1(plan, machine, hier_collectives);
    case Level::kLevel2:
      return model_level2(plan, machine, hier_collectives);
    case Level::kLevel3:
      return model_level3(plan, machine, placement, hier_collectives);
  }
  throw InvalidArgument("unknown level");
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
