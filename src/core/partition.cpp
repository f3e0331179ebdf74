#include "core/partition.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/engine_loop.hpp"
#include "simarch/regcomm.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace swhkm::core {

using util::ceil_div;

const char* level_name(Level level) {
  switch (level) {
    case Level::kLevel1:
      return "Level 1 (n-partition)";
    case Level::kLevel2:
      return "Level 2 (nk-partition)";
    case Level::kLevel3:
      return "Level 3 (nkd-partition)";
  }
  return "unknown level";
}

namespace paper {

bool c1(const ProblemShape& shape, std::size_t ldm_elems) {
  return shape.d * (1 + 2 * shape.k) + shape.k <= ldm_elems;
}

bool c2(const ProblemShape& shape, std::size_t ldm_elems) {
  return 3 * shape.d + 1 <= ldm_elems;
}

bool c3(const ProblemShape& shape, std::size_t ldm_elems) {
  return 3 * shape.k + 1 <= ldm_elems;
}

bool c1_l2(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t m_group) {
  return shape.d * (1 + 2 * shape.k) + shape.k <= m_group * ldm_elems;
}

bool c3_l2(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t m_group, std::size_t cpes_per_cg) {
  return m_group <= cpes_per_cg &&
         3 * shape.k + 1 <= m_group * ldm_elems;
}

bool c1_l3(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t total_cpes) {
  return shape.d * (1 + 2 * shape.k) + shape.k <= total_cpes * ldm_elems;
}

bool c2_l3(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t cpes_per_cg) {
  return 3 * shape.d + 1 <= cpes_per_cg * ldm_elems;
}

bool c3_l3(const ProblemShape& shape, std::size_t ldm_elems,
           std::size_t mprime_group, std::size_t cpes_per_cg) {
  return 3 * shape.k + 1 <= mprime_group * cpes_per_cg * ldm_elems;
}

}  // namespace paper

namespace {

/// Batches no wider than the LDM holds: try_level*'s layouts leave both
/// to allocate_ldm.
constexpr std::size_t kUnsized = std::numeric_limits<std::size_t>::max();

/// Resident layout: sample + centroid slice + accumulator slice + counters.
/// Returns nullopt when it does not fit.
std::optional<LdmLayout> resident_layout(std::size_t sample_elems,
                                         std::size_t k_local,
                                         std::size_t ldm_elems) {
  const std::size_t slice_elems = 2 * k_local * sample_elems;
  if (sample_elems + slice_elems + k_local > ldm_elems) {
    return std::nullopt;
  }
  return LdmLayout{.resident = true,
                   .tile_rows = k_local,
                   .sample_elems = sample_elems,
                   .slice_elems = slice_elems,
                   .scratch_elems = k_local,
                   .sample_batch = kUnsized,
                   .combine_batch = kUnsized};
}

/// Streaming layout: sample + three stream buffers (active tile, prefetch,
/// accumulator writeback) of tile_rows centroid rows each, plus
/// `scratch_elems` of resident bookkeeping (Level 3 keeps its k_local
/// distance partials in LDM to reduce them over the mesh; Level 2 keeps
/// its running argmin in registers and counters in main memory, so 0).
/// nullopt when even one row does not fit; allocate_ldm resolves how many
/// of the k_local rows do.
std::optional<LdmLayout> streaming_layout(std::size_t sample_elems,
                                          std::size_t k_local,
                                          std::size_t scratch_elems,
                                          std::size_t ldm_elems) {
  if (4 * sample_elems + scratch_elems > ldm_elems) {
    return std::nullopt;
  }
  return LdmLayout{.resident = false,
                   .tile_rows = k_local,
                   .sample_elems = sample_elems,
                   .slice_elems = 3 * k_local * sample_elems,
                   .scratch_elems = scratch_elems,
                   .sample_batch = kUnsized,
                   .combine_batch = kUnsized};
}

/// Main-memory budget per node: the node's share of the dataset (stored
/// once, distributed — group members stream/broadcast each other's blocks
/// during the assign phase, which the sample_read term prices) plus the
/// centroid/accumulator state its CGs own. This — not aggregate LDM — is
/// what really bounds streamed plans.
bool ddr_feasible(const ProblemShape& shape,
                  const simarch::MachineConfig& machine,
                  std::uint64_t centroid_bytes_per_node, std::string* why) {
  const std::uint64_t dataset_share =
      ceil_div(shape.n * shape.d * machine.elem_bytes, machine.nodes);
  const std::uint64_t need = dataset_share + centroid_bytes_per_node;
  if (need > machine.ddr_bytes_per_node) {
    if (why) {
      *why = "node DDR exceeded: dataset share + centroid state needs " +
             std::to_string(need) + " bytes of " +
             std::to_string(machine.ddr_bytes_per_node);
    }
    return false;
  }
  return true;
}

/// Centroid + accumulator + counter bytes a node keeps in DDR: one shared
/// copy of all k for Levels 1/2 (every CG scores every centroid), one
/// slice per CG for Level 3.
std::uint64_t full_centroid_state_bytes(const ProblemShape& shape,
                                        const simarch::MachineConfig& m) {
  return 2 * shape.k * shape.d * m.elem_bytes + shape.k * 8;
}

std::uint64_t sliced_centroid_state_bytes(const ProblemShape& shape,
                                          const simarch::MachineConfig& m,
                                          std::size_t k_local) {
  return m.cgs_per_node *
         (2 * static_cast<std::uint64_t>(k_local) * shape.d * m.elem_bytes +
          k_local * 8);
}

std::vector<std::size_t> divisors(std::size_t value) {
  std::vector<std::size_t> out;
  for (std::size_t x = 1; x <= value; ++x) {
    if (value % x == 0) {
      out.push_back(x);
    }
  }
  return out;
}

std::string shape_string(const ProblemShape& shape) {
  std::ostringstream out;
  out << "(n=" << shape.n << ", k=" << shape.k << ", d=" << shape.d << ")";
  return out.str();
}

Feasibility ok() { return {true, ""}; }

Feasibility fail(const std::string& reason) { return {false, reason}; }

Feasibility try_level1(const ProblemShape& shape,
                       const simarch::MachineConfig& machine,
                       PartitionPlan* plan) {
  const std::size_t ldm = machine.ldm_elems();
  if (!paper::c2(shape, ldm)) {
    return fail("C2 violated: 3d+1 = " + std::to_string(3 * shape.d + 1) +
                " > LDM = " + std::to_string(ldm) + " elements");
  }
  if (!paper::c3(shape, ldm)) {
    return fail("C3 violated: 3k+1 = " + std::to_string(3 * shape.k + 1) +
                " > LDM = " + std::to_string(ldm) + " elements");
  }
  if (!paper::c1(shape, ldm)) {
    return fail("C1 violated: d(1+2k)+k = " +
                std::to_string(shape.d * (1 + 2 * shape.k) + shape.k) +
                " > LDM = " + std::to_string(ldm) + " elements");
  }
  const auto layout = resident_layout(shape.d, shape.k, ldm);
  if (!layout) {
    return fail("Level 1 engineering layout (with DMA buffers) does not fit "
                "LDM for " + shape_string(shape));
  }
  std::string ddr_why;
  if (!ddr_feasible(shape, machine, full_centroid_state_bytes(shape, machine),
                    &ddr_why)) {
    return fail(ddr_why);
  }
  if (plan) {
    plan->level = Level::kLevel1;
    plan->m_group = 1;
    plan->mprime_group = 1;
    plan->num_flow_units = machine.total_cpes();
    plan->k_local = shape.k;
    plan->d_local = shape.d;
    plan->ldm = *layout;
  }
  return ok();
}

Feasibility try_level2(const ProblemShape& shape,
                       const simarch::MachineConfig& machine,
                       std::size_t m_group, PartitionPlan* plan) {
  const std::size_t ldm = machine.ldm_elems();
  if (machine.cpes_per_cg % m_group != 0) {
    return fail("m_group = " + std::to_string(m_group) +
                " does not divide cpes_per_cg = " +
                std::to_string(machine.cpes_per_cg));
  }
  if (!paper::c2(shape, ldm)) {
    return fail("C2' violated: 3d+1 = " + std::to_string(3 * shape.d + 1) +
                " > LDM = " + std::to_string(ldm) +
                " elements (a whole sample must fit one CPE)");
  }
  if (!paper::c3_l2(shape, ldm, m_group, machine.cpes_per_cg)) {
    return fail("C3' violated: 3k+1 = " + std::to_string(3 * shape.k + 1) +
                " > m_group*LDM = " + std::to_string(m_group * ldm));
  }
  const std::size_t k_local = ceil_div(shape.k, m_group);
  auto layout = resident_layout(shape.d, k_local, ldm);
  if (!layout) {
    // Streamed Level 2 keeps its argmin in registers and counters in main
    // memory, so no resident scratch beyond the stream buffers.
    layout = streaming_layout(shape.d, k_local, 0, ldm);
  }
  if (!layout) {
    return fail("Level 2 layout infeasible: sample (d=" +
                std::to_string(shape.d) + ") plus stream buffers exceed LDM "
                "= " + std::to_string(ldm) + " elements");
  }
  std::string ddr_why;
  if (!ddr_feasible(shape, machine, full_centroid_state_bytes(shape, machine),
                    &ddr_why)) {
    return fail(ddr_why);
  }
  if (plan) {
    plan->level = Level::kLevel2;
    plan->m_group = m_group;
    plan->mprime_group = 1;
    plan->num_flow_units =
        machine.num_cgs() * (machine.cpes_per_cg / m_group);
    plan->k_local = k_local;
    plan->d_local = shape.d;
    plan->bound_groups = std::min(kLevel2BoundGroups, shape.k);
    plan->ldm = *layout;
  }
  return ok();
}

Feasibility try_level3(const ProblemShape& shape,
                       const simarch::MachineConfig& machine,
                       std::size_t mprime_group, PartitionPlan* plan) {
  const std::size_t ldm = machine.ldm_elems();
  if (machine.num_cgs() % mprime_group != 0) {
    return fail("m'_group = " + std::to_string(mprime_group) +
                " does not divide the CG count " +
                std::to_string(machine.num_cgs()));
  }
  if (!paper::c2_l3(shape, ldm, machine.cpes_per_cg)) {
    return fail("C2'' violated: 3d+1 = " + std::to_string(3 * shape.d + 1) +
                " > 64*LDM = " +
                std::to_string(machine.cpes_per_cg * ldm));
  }
  if (!paper::c3_l3(shape, ldm, mprime_group, machine.cpes_per_cg)) {
    return fail("C3'' violated: 3k+1 = " + std::to_string(3 * shape.k + 1) +
                " > m'_group*64*LDM = " +
                std::to_string(mprime_group * machine.cpes_per_cg * ldm));
  }
  // Note: the paper's aggregate C1'' (with the 2k accumulator term) is NOT
  // enforced here — the paper's own Fig. 8 operating points exceed it,
  // which implies the implementation keeps accumulators in main memory.
  // paper::c1_l3 stays available for reporting; feasibility is gated on
  // the per-CPE layout plus node DDR capacity instead.
  const std::size_t d_local = ceil_div(shape.d, machine.cpes_per_cg);
  const std::size_t k_local = ceil_div(shape.k, mprime_group);
  auto layout = resident_layout(d_local, k_local, ldm);
  if (!layout) {
    // Streamed Level 3 must keep k_local distance partials resident for
    // the per-sample mesh reduction.
    layout = streaming_layout(d_local, k_local, k_local, ldm);
  }
  if (!layout) {
    return fail("Level 3 layout infeasible: d_local=" +
                std::to_string(d_local) + ", k_local=" +
                std::to_string(k_local) + " exceed LDM = " +
                std::to_string(ldm) + " elements");
  }
  std::string ddr_why;
  if (!ddr_feasible(shape, machine,
                    sliced_centroid_state_bytes(shape, machine, k_local),
                    &ddr_why)) {
    return fail(ddr_why);
  }
  if (plan) {
    plan->level = Level::kLevel3;
    plan->m_group = 1;
    plan->mprime_group = mprime_group;
    plan->num_flow_units = machine.num_cgs() / mprime_group;
    plan->k_local = k_local;
    plan->d_local = d_local;
    plan->bound_groups = std::min(kLevel3BoundGroups, shape.k);
    plan->ldm = *layout;
  }
  return ok();
}

/// Smallest group size for which the level is feasible (0 when none).
std::size_t auto_m_group(const ProblemShape& shape,
                         const simarch::MachineConfig& machine) {
  for (std::size_t candidate : candidate_m_groups(machine)) {
    if (try_level2(shape, machine, candidate, nullptr).ok) {
      return candidate;
    }
  }
  return 0;
}

std::size_t auto_mprime_group(const ProblemShape& shape,
                              const simarch::MachineConfig& machine) {
  for (std::size_t candidate : candidate_mprime_groups(machine)) {
    if (try_level3(shape, machine, candidate, nullptr).ok) {
      return candidate;
    }
  }
  return 0;
}

}  // namespace

std::pair<std::size_t, std::size_t> held_centroid_rows(
    const PartitionPlan& plan, std::size_t cg) {
  const std::size_t k = plan.shape.k;
  if (plan.level != Level::kLevel3) {
    return {0, k};
  }
  const std::size_t begin =
      std::min(cg % plan.mprime_group * plan.k_local, k);
  return {begin, std::min(k, begin + plan.k_local)};
}

std::vector<std::size_t> candidate_m_groups(
    const simarch::MachineConfig& machine) {
  return divisors(machine.cpes_per_cg);
}

std::vector<std::size_t> candidate_mprime_groups(
    const simarch::MachineConfig& machine) {
  return divisors(machine.num_cgs());
}

Feasibility check_level(Level level, const ProblemShape& shape,
                        const simarch::MachineConfig& machine,
                        std::size_t m_group, std::size_t mprime_group) {
  machine.validate();
  if (shape.n == 0 || shape.k == 0 || shape.d == 0) {
    return fail("shape must have positive n, k, d");
  }
  switch (level) {
    case Level::kLevel1:
      return try_level1(shape, machine, nullptr);
    case Level::kLevel2: {
      if (m_group == 0) {
        m_group = auto_m_group(shape, machine);
        if (m_group == 0) {
          // Report the largest candidate's failure — the most permissive
          // group size names the binding constraint.
          const Feasibility best_effort =
              try_level2(shape, machine, machine.cpes_per_cg, nullptr);
          return fail("no m_group in [1, " +
                      std::to_string(machine.cpes_per_cg) +
                      "] makes Level 2 feasible for " + shape_string(shape) +
                      "; at m_group=" + std::to_string(machine.cpes_per_cg) +
                      ": " + best_effort.reason);
        }
      }
      return try_level2(shape, machine, m_group, nullptr);
    }
    case Level::kLevel3: {
      if (mprime_group == 0) {
        mprime_group = auto_mprime_group(shape, machine);
        if (mprime_group == 0) {
          const Feasibility best_effort =
              try_level3(shape, machine, machine.num_cgs(), nullptr);
          return fail("no m'_group in [1, " +
                      std::to_string(machine.num_cgs()) +
                      "] makes Level 3 feasible for " + shape_string(shape) +
                      "; at m'_group=" + std::to_string(machine.num_cgs()) +
                      ": " + best_effort.reason);
        }
      }
      return try_level3(shape, machine, mprime_group, nullptr);
    }
  }
  return fail("unknown level");
}

PartitionPlan make_plan(Level level, const ProblemShape& shape,
                        const simarch::MachineConfig& machine,
                        std::size_t m_group, std::size_t mprime_group) {
  machine.validate();
  SWHKM_REQUIRE(shape.n > 0 && shape.k > 0 && shape.d > 0,
                "shape must have positive n, k, d");
  PartitionPlan plan;
  plan.shape = shape;
  plan.num_cgs = machine.num_cgs();
  plan.cpes_per_cg = machine.cpes_per_cg;

  Feasibility result;
  switch (level) {
    case Level::kLevel1:
      result = try_level1(shape, machine, &plan);
      break;
    case Level::kLevel2:
      if (m_group == 0) {
        m_group = auto_m_group(shape, machine);
      }
      result = m_group == 0
                   ? fail("no feasible m_group for " + shape_string(shape))
                   : try_level2(shape, machine, m_group, &plan);
      break;
    case Level::kLevel3:
      if (mprime_group == 0) {
        mprime_group = auto_mprime_group(shape, machine);
      }
      result = mprime_group == 0
                   ? fail("no feasible m'_group for " + shape_string(shape))
                   : try_level3(shape, machine, mprime_group, &plan);
      break;
  }
  if (!result.ok) {
    throw InfeasibleError(std::string(level_name(level)) + " cannot run " +
                          shape_string(shape) + ": " + result.reason);
  }
  plan.ldm = allocate_ldm(plan, machine, KmeansConfig{}.tile_samples).layout;
  return plan;
}

std::string PartitionPlan::describe() const {
  std::ostringstream out;
  out << level_name(level) << " for " << shape_string(shape) << ": "
      << num_cgs << " CG x " << cpes_per_cg << " CPE";
  if (level == Level::kLevel2) {
    out << ", m_group=" << m_group;
  }
  if (level == Level::kLevel3) {
    out << ", m'_group=" << mprime_group;
  }
  out << ", flow units=" << num_flow_units << ", k_local=" << k_local
      << ", d_local=" << d_local << ", bound groups=" << bound_groups
      << ", radius pass=" << (detail::runs_radius_pass(*this) ? "on" : "off")
      << (ldm.resident ? ", centroids resident"
                       : ", centroids streamed (tile_rows=" +
                             std::to_string(ldm.tile_rows) + ")")
      << ", LDM high-water " << ldm.high_water_bytes << " B"
      << ", sample batch " << ldm.sample_batch << ", combine batch "
      << ldm.combine_batch;
  return out.str();
}

namespace {

/// One argmin record, sizeof(swmpi::MinLoc2): the top-two record the
/// engines score into and combine.
constexpr std::size_t kRecordBytes = 24;

struct Batches {
  std::size_t samples = 1;
  std::size_t combine = 1;
};

/// The batches `free` LDM elements hold: the batched combine where it
/// prices a flow unit's full sweep strictly cheaper, else the widest
/// scratch-free batch with one launch per sample.
Batches price_batches(const PartitionPlan& plan,
                      const simarch::MachineConfig& machine,
                      std::size_t free) {
  const std::size_t sample = 2 * plan.ldm.sample_elems;
  const Batches single{std::max<std::size_t>(1, free / sample), 1};
  const std::size_t combine = combine_elems(plan, machine);
  if (combine == 0) {
    return single;
  }
  const std::size_t b = free / (sample + combine);
  if (b < 2) {
    return single;
  }
  // Price a flow unit's full sweep both ways, as model_iteration does:
  // descriptor issue latencies plus the combine launches' hop latency
  // (the combine's wire time does not depend on the batch).
  const std::uint64_t n = ceil_div(plan.shape.n, plan.num_flow_units);
  simarch::CostTally unused;
  const double launch_s = simarch::RegComm(machine, unused).allreduce_time(
      0, plan.level == Level::kLevel2 ? plan.m_group : plan.cpes_per_cg);
  const auto dbl = [](std::uint64_t v) { return static_cast<double>(v); };
  const double batched_s =
      dbl(ceil_div(n, b)) * machine.dma_latency + dbl(ceil_div(n, b)) * launch_s;
  const double single_s =
      dbl(ceil_div(n, single.samples)) * machine.dma_latency + dbl(n) * launch_s;
  return batched_s < single_s ? Batches{b, b} : single;
}

}  // namespace

std::size_t combine_elems(const PartitionPlan& plan,
                          const simarch::MachineConfig& machine) {
  switch (plan.level) {
    case Level::kLevel1:
      return 0;
    case Level::kLevel2:
      return plan.m_group > 1 ? ceil_div(kRecordBytes, machine.elem_bytes) : 0;
    case Level::kLevel3:
      return plan.cpes_per_cg > 1 ? plan.k_local : 0;
  }
  return 0;
}

LdmBudget allocate_ldm(const PartitionPlan& plan,
                       const simarch::MachineConfig& machine,
                       std::size_t tile_samples) {
  if (tile_samples == 0) {
    throw InfeasibleError("tile_samples=0: a tile holds at least one sample");
  }
  const LdmLayout& widest = plan.ldm;
  const std::size_t eb = machine.elem_bytes;
  simarch::LdmAllocator ldm(machine.ldm_bytes);
  const auto alloc = [&](const char* name, std::size_t elems) {
    if (elems > 0) {
      ldm.alloc(name, elems * eb);
    }
  };
  const auto free_elems = [&] { return ldm.remaining() / eb; };
  LdmBudget out;
  out.layout = widest;

  // 1. The fixed buffers; a streamed layout needs at least one row.
  const std::size_t row_elems = 3 * widest.sample_elems;
  alloc("sample", widest.sample_elems);
  if (widest.resident) {
    alloc("centroid slice + accumulators", widest.slice_elems);
  } else {
    alloc("centroid stream row", row_elems);
  }
  alloc(widest.resident ? "centroid counters" : "distance partials",
        widest.scratch_elems);

  // 2. The CPE's share of the tile scratch, in whole elements. A share of
  // F elements holds F * eb * cpes_per_cg bytes of the CG's tile scratch,
  // so the widest tile on each kernel is closed-form.
  const std::size_t cpes = plan.cpes_per_cg;
  const std::size_t norm_bytes = plan.k_local * sizeof(double);
  const std::size_t room = free_elems() * eb * cpes;
  const std::size_t gemm_tile =
      room < norm_bytes
          ? 0
          : (room - norm_bytes) / (kRecordBytes + kGemmSampleScratchBytes);
  out.gemm = tile_samples <= gemm_tile;
  out.tile_samples =
      out.gemm ? tile_samples : std::min(tile_samples, room / kRecordBytes);
  const auto share = [&](std::size_t bytes) {
    return ceil_div(ceil_div(bytes, cpes), eb);
  };
  const std::size_t record_elems = share(out.tile_samples * kRecordBytes);
  alloc("tile argmin records", record_elems);
  if (out.gemm) {
    alloc("GEMM candidates + norms",
          share(out.tile_samples * (kRecordBytes + kGemmSampleScratchBytes) +
                norm_bytes) -
              record_elems);
  }

  // 3. The streamed layout's other rows.
  if (!widest.resident) {
    const std::size_t more =
        std::min(widest.tile_rows - 1, free_elems() / row_elems);
    alloc("centroid stream rows", more * row_elems);
    out.layout.tile_rows = 1 + more;
    out.layout.slice_elems = out.layout.tile_rows * row_elems;
  }

  // 4. The sample batch's double buffer and its combine scratch.
  Batches b = price_batches(plan, machine, free_elems());
  b.samples = std::min(b.samples, widest.sample_batch);
  b.combine = std::min({b.combine, widest.combine_batch, b.samples});
  if (b.samples > 1) {
    alloc("sample batch buffers", 2 * b.samples * widest.sample_elems);
  }
  if (b.combine > 1) {
    alloc(plan.level == Level::kLevel3 ? "combine distance partials"
                                       : "combine argmin records",
          b.combine * combine_elems(plan, machine));
  }
  out.layout.sample_batch = b.samples;
  out.layout.combine_batch = b.combine;

  // Level 1's safe-radius pass runs before the sweep, in the whole LDM:
  // half holds its own rows, the other half streams partner rows past
  // them. A row wider than half streams in half-LDM chunks.
  if (detail::runs_radius_pass(plan)) {
    ldm.reset();
    const std::size_t half = ldm.capacity() / 2;
    const std::size_t row_bytes = plan.shape.d * eb;
    out.radius_block_rows = std::max<std::size_t>(1, half / row_bytes);
    ldm.alloc("radius own rows",
              std::min(out.radius_block_rows * row_bytes, half));
    ldm.alloc("radius partner row", std::min(row_bytes, ldm.capacity() - half));
  }
  out.footprint = ldm.footprint();
  out.layout.high_water_bytes = out.footprint.high_water_bytes;
  return out;
}

std::uint64_t max_k_for_level(Level level, std::uint64_t d,
                              const simarch::MachineConfig& machine) {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::uint64_t{1} << 40;
  // Largest k with check_level ok; feasibility is monotone decreasing in k.
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    const ProblemShape shape{1024, mid, d};
    if (check_level(level, shape, machine).ok) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::uint64_t max_d_for_level(Level level, std::uint64_t k,
                              const simarch::MachineConfig& machine) {
  std::uint64_t lo = 0;
  std::uint64_t hi = std::uint64_t{1} << 40;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    const ProblemShape shape{1024, k, mid};
    if (check_level(level, shape, machine).ok) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace swhkm::core
