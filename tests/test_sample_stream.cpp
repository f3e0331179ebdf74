// The batched sample stream (DESIGN.md section 10): each reader pays one
// DMA descriptor per run of at most LdmLayout::sample_batch consecutive
// samples it pulls. These tests count the runs apart from the engines and
// check the sample_read_s the engines charge against them.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine_loop.hpp"
#include "core/hkmeans.hpp"
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

TEST(SampleBatch, ValidateLdmLayoutAllocatesTheBatchBuffers) {
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  const PartitionPlan plan = make_plan(Level::kLevel1, {1600, 6, 8}, machine);
  ASSERT_GT(plan.ldm.sample_batch, 1u);
  EXPECT_NO_THROW(
      detail::validate_ldm_layout(plan, machine, plan.ldm.sample_batch));
  // The batch buffers are real allocations: the largest batch the free
  // LDM holds passes, one sample more overflows.
  const std::size_t free_elems = machine.ldm_elems() - plan.ldm.total_elems;
  const std::size_t widest = free_elems / (2 * plan.ldm.sample_elems);
  EXPECT_NO_THROW(detail::validate_ldm_layout(plan, machine, widest));
  EXPECT_THROW(detail::validate_ldm_layout(plan, machine, widest + 1),
               CapacityError);
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

INSTANTIATE_TEST_SUITE_P(AllLevels, StreamDescriptorTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

}  // namespace
}  // namespace swhkm::core
