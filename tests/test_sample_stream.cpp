// The batched sample stream (DESIGN.md section 10): each reader pays one
// DMA descriptor per run of at most LdmLayout::sample_batch consecutive
// samples it pulls. These tests count the runs apart from the engines and
// check the sample_read_s the engines charge against them.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_loop.hpp"
#include "core/hkmeans.hpp"
#include "simarch/regcomm.hpp"
#include "swmpi/collectives.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

TEST(StreamRuns, OneDescriptorPerBatchOfARun) {
  detail::StreamRuns runs(1, 4);
  runs.pull_all(0, 10);
  EXPECT_EQ(runs.critical(), 3u);  // ceil(10 / 4)
  // A run split over tile edges is still one run.
  runs.reset();
  runs.pull_all(0, 3);
  runs.pull_all(3, 7);
  runs.pull_all(7, 10);
  EXPECT_EQ(runs.critical(), 3u);
  // A gap starts a new descriptor even when the open one has room.
  runs.reset();
  runs.pull_all(0, 2);
  runs.pull_all(3, 5);
  EXPECT_EQ(runs.critical(), 2u);
  // A batch of one is the per-sample count.
  detail::StreamRuns single(1, 1);
  single.pull_all(0, 10);
  EXPECT_EQ(single.critical(), 10u);
}

TEST(StreamRuns, GatedLevel2TileChargesTheBusiestMembersRuns) {
  // Two members own centroids [0, 3) and [3, 6). Survivors 2-4 and 9
  // stream to both members; every other sample only to its owner.
  const std::vector<bool> swept = {false, false, true,  true,  true,  false,
                                   false, false, false, true,  false, false};
  const std::vector<std::uint32_t> assign = {0, 1, 0, 0, 0, 4,
                                             5, 3, 2, 0, 3, 4};
  detail::StreamRuns runs(2, 2);
  for (std::size_t i = 0; i < swept.size(); ++i) {
    if (swept[i]) {
      runs.pull_all(i, i + 1);
    } else {
      runs.pull_one(assign[i] / 3, i);
    }
  }
  // Member 0 reads 0-4 and 8-9: ceil(5/2) + ceil(2/2) = 4 descriptors.
  // Member 1 reads 2-7 and 9-11: ceil(6/2) + ceil(3/2) = 5 descriptors.
  EXPECT_EQ(runs.critical(), 5u);
  // A gated Level 3 CG reads its survivors plus the resolved samples its
  // slice owns: runs 0-3, 6 and 8-9 of batch 3 are 2 + 1 + 1.
  detail::StreamRuns cg(1, 3);
  for (std::uint64_t i : {0, 1, 2, 3, 6, 8, 9}) {
    cg.pull_all(i, i + 1);
  }
  EXPECT_EQ(cg.critical(), 4u);
}

/// Bytes of the budget's buffer named `name` (0 when it has none).
std::size_t buffer_bytes(const LdmBudget& budget, const std::string& name) {
  for (const simarch::LdmBuffer& buffer : budget.footprint.buffers) {
    if (buffer.name == name) {
      return buffer.bytes;
    }
  }
  return 0;
}

TEST(SampleBatch, BudgetAllocatesTheBatchBuffers) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const PartitionPlan plan = make_plan(Level::kLevel1, {1600, 6, 8}, machine);
  const LdmBudget budget =
      allocate_ldm(plan, machine, KmeansConfig{}.tile_samples);
  const std::size_t batch = budget.layout.sample_batch;
  ASSERT_GT(batch, 1u);
  EXPECT_EQ(batch, plan.ldm.sample_batch);
  // The batch buffers are a real allocation, and the widest the free LDM
  // holds: one sample more's double buffer would overflow.
  const std::size_t sample_bytes = plan.ldm.sample_elems * machine.elem_bytes;
  EXPECT_EQ(buffer_bytes(budget, "sample batch buffers"),
            2 * batch * sample_bytes);
  EXPECT_LE(budget.footprint.high_water_bytes, machine.ldm_bytes);
  EXPECT_LT(machine.ldm_bytes - budget.footprint.high_water_bytes,
            2 * sample_bytes);
}

TEST(SampleBatch, BudgetNamesTheCombineScratch) {
  // The batch's combine scratch is its own named allocation, and the
  // batch is the widest whose double buffer and scratch fit: replaying
  // the budget's buffers and one more batched sample overflows. Level 3
  // keeps k_local distance partials per sample, Level 2 one 24-byte argmin
  // record.
  const MachineConfig machine = MachineConfig::sw26010(1);
  struct Case {
    PartitionPlan plan;
    const char* buffer;
  };
  const Case cases[] = {
      {make_plan(Level::kLevel3, {2048, 256, 3072}, machine, 0, 4),
       "combine distance partials"},
      {make_plan(Level::kLevel2, {16384, 512, 64}, machine, 8),
       "combine argmin records"},
  };
  for (const Case& c : cases) {
    const PartitionPlan& plan = c.plan;
    const LdmBudget budget =
        allocate_ldm(plan, machine, KmeansConfig{}.tile_samples);
    const std::size_t eb = machine.elem_bytes;
    const std::size_t batch = budget.layout.combine_batch;
    ASSERT_GT(combine_elems(plan, machine), 0u);
    ASSERT_GT(batch, 1u);
    ASSERT_EQ(batch, budget.layout.sample_batch);
    EXPECT_EQ(buffer_bytes(budget, c.buffer),
              batch * combine_elems(plan, machine) * eb);
    simarch::LdmAllocator replay(machine.ldm_bytes);
    for (const simarch::LdmBuffer& buffer : budget.footprint.buffers) {
      replay.alloc(buffer.name, buffer.bytes);
    }
    EXPECT_THROW(replay.alloc("one more batched sample",
                              (2 * plan.ldm.sample_elems +
                               combine_elems(plan, machine)) *
                                  eb),
                 CapacityError)
        << c.buffer;
  }
}

TEST(SampleBatch, PixelsPlanFitsBatch62Not63) {
  // pixels_l3's plan: d = 3072 over 64 CPEs is a 48-element slice with
  // k_local = 64 partials. The layout (6256 elements) and the default
  // tile's share (86) leave 10,042 elements: 62 batched samples of
  // 2 x 48 + 64 = 160 elements, and 122 over. B = combine = 63 needs 160
  // more, so it must overflow.
  const MachineConfig machine = MachineConfig::sw26010(1);
  const PartitionPlan plan =
      make_plan(Level::kLevel3, {2048, 256, 3072}, machine, 0, 4);
  const LdmBudget budget =
      allocate_ldm(plan, machine, KmeansConfig{}.tile_samples);
  EXPECT_EQ(budget.layout.sample_batch, 62u);
  EXPECT_EQ(budget.layout.combine_batch, 62u);
  EXPECT_EQ(machine.ldm_bytes - budget.footprint.high_water_bytes, 122u * 4);
  // The budget's other buffers, then both batch buffers at `batch`.
  const auto fits = [&](std::size_t batch) {
    simarch::LdmAllocator ldm(machine.ldm_bytes);
    for (const simarch::LdmBuffer& buffer : budget.footprint.buffers) {
      if (buffer.name != "sample batch buffers" &&
          buffer.name != "combine distance partials") {
        ldm.alloc(buffer.name, buffer.bytes);
      }
    }
    try {
      ldm.alloc("sample batch buffers", batch * 2 * 48 * 4);
      ldm.alloc("combine distance partials", batch * 64 * 4);
    } catch (const CapacityError&) {
      return false;
    }
    return true;
  };
  EXPECT_TRUE(fits(62));
  EXPECT_FALSE(fits(63));
}

TEST(SampleBatch, CombinesSampleBySampleWhereBatchingWouldCostMore) {
  // Level 2 at d = 1 with m_group 2: a batched sample takes 2 elements of
  // double buffer and 6 of record, so the scratch cuts the batch fourfold,
  // while a launch saves only one hop (2 x 20 ns) against the 200 ns a
  // descriptor costs. Tile 16 on the GEMM kernel takes 85 elements
  // (16 x 84 + 2 x 8 bytes over 4 CPEs); the layout's scratch is set so
  // that `free_elems` are left after it.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  PartitionPlan plan = make_plan(Level::kLevel2, {1u << 20, 4, 1}, machine, 2);
  ASSERT_EQ(combine_elems(plan, machine), 6u);
  ASSERT_TRUE(plan.ldm.resident);
  plan.ldm.sample_batch = plan.ldm.combine_batch =
      std::numeric_limits<std::size_t>::max();
  const auto with_free = [&](std::size_t free_elems) {
    plan.ldm.scratch_elems = machine.ldm_elems() - plan.ldm.sample_elems -
                             plan.ldm.slice_elems - 85 - free_elems;
    const LdmBudget budget = allocate_ldm(plan, machine, 16);
    EXPECT_TRUE(budget.gemm);
    return std::pair{budget.layout.sample_batch, budget.layout.combine_batch};
  };
  // 36 free elements: 4 batched samples at (200 + 40) / 4 = 60 ns each,
  // or 18 at 200 / 18 + 40 = 51.1 ns with one launch per sample.
  EXPECT_EQ(with_free(36), (std::pair<std::size_t, std::size_t>{18, 1}));
  // 800 free: 100 batched samples at 2.4 ns, or 400 at 40.5 ns.
  EXPECT_EQ(with_free(800), (std::pair<std::size_t, std::size_t>{100, 100}));
  // Too little room for two batched samples: the per-sample batch.
  EXPECT_EQ(with_free(15), (std::pair<std::size_t, std::size_t>{7, 1}));
}

/// Stream descriptors of `assign`'s samples in [begin, end) that satisfy
/// `reads`, one per run of at most `batch` consecutive samples — counted
/// apart from detail::StreamRuns.
template <typename Reads>
std::uint64_t expected_descriptors(std::size_t begin, std::size_t end,
                                   std::size_t batch, Reads reads) {
  std::uint64_t out = 0;
  std::size_t run = 0;
  for (std::size_t i = begin; i <= end; ++i) {
    if (i < end && reads(i)) {
      ++run;
      continue;
    }
    out += (run + batch - 1) / batch;
    run = 0;
  }
  return out;
}

double stream_seconds(const MachineConfig& machine, std::uint64_t bytes,
                      std::uint64_t descriptors) {
  return static_cast<double>(bytes) / machine.dma_bandwidth +
         static_cast<double>(descriptors) * machine.dma_latency;
}

class StreamDescriptorTest : public ::testing::TestWithParam<Level> {
 protected:
  // 4 CGs of 4 CPEs with 8 KiB LDM each: the batch is far below a
  // reader's block (100 samples per Level 1 CPE, 200 per Level 2 group,
  // 800 per Level 3 CG group), and blocks up to the default tile keep the
  // Level 1/2 sample DMA out of the tile-pipeline overlap. Far-apart
  // blobs, one centroid each, let the bounds resolve every sample once
  // the centroids settle.
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const data::Dataset ds = data::make_blobs(1600, 8, 4, 11, 20.0);

  static KmeansConfig config() {
    KmeansConfig config;
    config.k = 4;
    config.max_iterations = 12;
    config.init = InitMethod::kPlusPlus;
    return config;
  }
  PartitionPlan plan() const {
    return make_plan(GetParam(), {ds.n(), 4, ds.d()}, machine,
                     GetParam() == Level::kLevel2 ? 2 : 0,
                     GetParam() == Level::kLevel3 ? 2 : 0);
  }
  /// Samples one reader pulls in a full sweep, and the bytes one CG
  /// streams for them.
  std::uint64_t reader_samples(const PartitionPlan& p) const {
    return GetParam() == Level::kLevel1 ? ds.n() / machine.total_cpes()
                                        : ds.n() / p.num_flow_units;
  }
  std::uint64_t full_sweep_cg_bytes(const PartitionPlan& p) const {
    const std::uint64_t row = ds.d() * machine.elem_bytes;
    return GetParam() == Level::kLevel3
               ? reader_samples(p) * row
               : machine.cpes_per_cg * reader_samples(p) * row;
  }
};

TEST_P(StreamDescriptorTest, FullSweepChargesOneDescriptorPerBatch) {
  const PartitionPlan p = plan();
  const std::uint64_t samples = reader_samples(p);
  ASSERT_LT(p.ldm.sample_batch, samples);
  const KmeansResult r = run_plan(p, ds, config(), machine);
  EXPECT_DOUBLE_EQ(
      r.history[0].sample_read_s,
      stream_seconds(machine, full_sweep_cg_bytes(p),
                     (samples + p.ldm.sample_batch - 1) / p.ldm.sample_batch));
}

TEST_P(StreamDescriptorTest, BatchOfOneChargesEverySample) {
  PartitionPlan p = plan();
  p.ldm.sample_batch = 1;
  const KmeansResult r = run_plan(p, ds, config(), machine);
  EXPECT_DOUBLE_EQ(r.history[0].sample_read_s,
                   stream_seconds(machine, full_sweep_cg_bytes(p),
                                  reader_samples(p)));
  // Bytes and results do not depend on the batch.
  const KmeansResult batched = run_plan(plan(), ds, config(), machine);
  EXPECT_EQ(r.assignments, batched.assignments);
  EXPECT_EQ(r.history[0].dma_bytes, batched.history[0].dma_bytes);
  EXPECT_LT(batched.history[0].sample_read_s, r.history[0].sample_read_s);
}

TEST_P(StreamDescriptorTest, FullyGatedIterationChargesTheOwnersRuns) {
  // The converged last iteration resolves every sample from its bounds,
  // so each reader streams exactly the samples its slice owns (every one
  // at Level 1) and the assignments are the final ones.
  const PartitionPlan p = plan();
  const KmeansResult r = run_plan(p, ds, config(), machine);
  const IterationStats& last = r.history.back();
  ASSERT_TRUE(last.gated);
  ASSERT_EQ(last.prune_rate, 1.0);
  const std::size_t batch = p.ldm.sample_batch;
  const std::uint64_t row = ds.d() * machine.elem_bytes;
  const auto owner_of = [&](std::size_t i) {
    return r.assignments[i] / p.k_local;
  };
  double expected = 0;
  switch (GetParam()) {
    case Level::kLevel1:
      expected = stream_seconds(machine, full_sweep_cg_bytes(p),
                                (reader_samples(p) + batch - 1) / batch);
      break;
    case Level::kLevel2: {
      const std::size_t groups_per_cg = machine.cpes_per_cg / p.m_group;
      for (std::size_t cg = 0; cg < machine.num_cgs(); ++cg) {
        std::uint64_t descriptors = 0;
        std::uint64_t samples = 0;
        for (std::size_t grp = 0; grp < groups_per_cg; ++grp) {
          const auto [b, e] = detail::block_range(
              ds.n(), p.num_flow_units, cg * groups_per_cg + grp);
          samples += e - b;
          for (std::size_t m = 0; m < p.m_group; ++m) {
            descriptors = std::max(
                descriptors,
                expected_descriptors(b, e, batch, [&](std::size_t i) {
                  return owner_of(i) == m;
                }));
          }
        }
        // Every gated sample also reads and writes its group bounds.
        const std::uint64_t bounds = 2 * p.bound_groups * sizeof(double);
        expected = std::max(expected,
                            stream_seconds(machine, samples * (row + bounds),
                                           descriptors));
      }
      break;
    }
    case Level::kLevel3:
      for (std::size_t cg = 0; cg < machine.num_cgs(); ++cg) {
        const std::size_t within = cg % p.mprime_group;
        const auto [b, e] = detail::block_range(ds.n(), p.num_flow_units,
                                                cg / p.mprime_group);
        std::uint64_t owned = 0;
        for (std::size_t i = b; i < e; ++i) {
          owned += owner_of(i) == within ? 1 : 0;
        }
        // Every CG of the group gates the whole block, so each reads and
        // writes every sample's bounds.
        const std::uint64_t bounds = 2 * p.bound_groups * sizeof(double);
        expected = std::max(
            expected,
            stream_seconds(machine, owned * row + (e - b) * bounds,
                           expected_descriptors(b, e, batch,
                                                [&](std::size_t i) {
                                                  return owner_of(i) == within;
                                                })));
      }
      break;
  }
  EXPECT_DOUBLE_EQ(last.sample_read_s, expected);
}

/// Levels 2 and 3, the levels with a per-sample register-mesh combine.
class CombineLaunchTest : public StreamDescriptorTest {};

TEST_P(CombineLaunchTest, FullSweepLaunchesOneCombinePerBatchOfATile) {
  // Iteration 0 sweeps every sample, so each tile puts all its samples on
  // the mesh: Σ over tiles of ⌈tile / combine batch⌉ launches per block
  // (Level 3's CG, Level 2's group), not one per sample and not one per
  // batch of the whole block. The converged last iteration resolves every
  // sample and launches nothing.
  const PartitionPlan p = plan();
  KmeansConfig cfg = config();
  cfg.tile_samples = GetParam() == Level::kLevel3 ? 250 : 50;
  const KmeansResult r = run_plan(p, ds, cfg, machine);
  const std::size_t batch = r.combine_batch;
  ASSERT_GT(batch, 1u);
  ASSERT_LT(batch, cfg.tile_samples);
  const std::uint64_t block = reader_samples(p);
  std::uint64_t launches = 0;
  for (std::uint64_t t0 = 0; t0 < block; t0 += cfg.tile_samples) {
    const std::uint64_t tile = std::min<std::uint64_t>(cfg.tile_samples,
                                                       block - t0);
    launches += (tile + batch - 1) / batch;
  }
  ASSERT_NE(launches, (block + batch - 1) / batch);

  simarch::CostTally expected;
  simarch::RegComm reg(machine, expected);
  if (GetParam() == Level::kLevel3) {
    reg.account_allreduce(p.k_local * machine.elem_bytes, machine.cpes_per_cg,
                          block, launches);
  } else {
    reg.account_allreduce(sizeof(swmpi::MinLoc2), p.m_group, block,
                          launches);
    reg.account_allreduce((p.k_local * ds.d() + p.k_local) *
                              machine.elem_bytes,
                          machine.cpes_per_cg / p.m_group);
  }
  EXPECT_EQ(r.history[0].mesh_comm_s, expected.mesh_comm_s);
  const IterationStats& last = r.history.back();
  ASSERT_EQ(last.prune_rate, 1.0);
  if (GetParam() == Level::kLevel3) {
    EXPECT_EQ(last.mesh_comm_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLevels, StreamDescriptorTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

INSTANTIATE_TEST_SUITE_P(CombiningLevels, CombineLaunchTest,
                         ::testing::Values(Level::kLevel2, Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

}  // namespace
}  // namespace swhkm::core
