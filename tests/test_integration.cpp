#include <gtest/gtest.h>

#include <cmath>

#include "core/hkmeans.hpp"
#include "util/error.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

TEST(Facade, FitAutoPlansAndClusters) {
  const HierarchicalKmeans km(MachineConfig::tiny(2, 4, 8192));
  const data::Dataset ds = data::make_blobs(300, 10, 4, 77);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 20;
  const KmeansResult result = km.fit(ds, config);
  EXPECT_TRUE(result.converged);
  const auto sizes = cluster_sizes(result.assignments, 4);
  for (std::size_t s : sizes) {
    EXPECT_EQ(s, 75u);  // balanced blobs recovered
  }
  EXPECT_GT(result.cost.total_s(), 0.0);
}

TEST(Facade, FitMatchesSerialTrajectory) {
  const HierarchicalKmeans km(MachineConfig::tiny(2, 4, 8192));
  const data::Dataset ds = data::make_uniform(220, 5, 9);
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 10;
  const KmeansResult serial = lloyd_serial(ds, config);
  const KmeansResult parallel = km.fit(ds, config);
  EXPECT_EQ(assignment_agreement(serial.assignments, parallel.assignments),
            1.0);
}

TEST(Facade, FitLevelForcesLevel) {
  const HierarchicalKmeans km(MachineConfig::tiny(2, 4, 8192));
  const data::Dataset ds = data::make_blobs(100, 6, 2, 5);
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 10;
  for (Level level : {Level::kLevel1, Level::kLevel2, Level::kLevel3}) {
    const KmeansResult result = km.fit_level(level, ds, config);
    EXPECT_TRUE(result.converged) << level_name(level);
  }
}

TEST(Facade, InfeasibleFitThrows) {
  const HierarchicalKmeans km(MachineConfig::tiny(1, 2, 1024));
  const data::Dataset ds = data::make_uniform(100, 3000, 1);
  KmeansConfig config;
  config.k = 50;
  EXPECT_THROW(km.fit(ds, config), InfeasibleError);
}

TEST(Facade, PlanExposesPrediction) {
  const HierarchicalKmeans km(MachineConfig::sw26010(4096));
  const auto choice = km.plan({1265723, 2000, 196608});
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->plan.level, Level::kLevel3);
  EXPECT_LT(choice->predicted_s(), 18.0);
}

TEST(Facade, InvalidMachineRejectedAtConstruction) {
  MachineConfig machine;
  machine.cpes_per_cg = 0;
  EXPECT_THROW(HierarchicalKmeans{machine}, swhkm::InvalidArgument);
}

TEST(Integration, DatasetRoundtripThroughDiskThenCluster) {
  const data::Dataset original = data::make_blobs(120, 6, 3, 42);
  const std::string path = ::testing::TempDir() + "/swhkm_integration.bin";
  data::save_binary(original, path);
  const data::Dataset loaded = data::load_binary(path);

  const HierarchicalKmeans km(MachineConfig::tiny(1, 4, 8192));
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 15;
  const KmeansResult a = km.fit(original, config);
  const KmeansResult b = km.fit(loaded, config);
  EXPECT_EQ(a.assignments, b.assignments);
}

TEST(Integration, LandCoverPipelineSegmentsScene) {
  // The Fig. 10 application end-to-end at laptop scale: scene -> patches
  // -> k-means(7) -> label raster.
  const data::Image scene = data::make_land_cover_scene(96, 96, 2018);
  const data::Dataset patches = data::extract_patches(scene, 8, 8);
  ASSERT_EQ(patches.n(), 144u);

  const HierarchicalKmeans km(MachineConfig::tiny(2, 4, 16384));
  KmeansConfig config;
  config.k = 7;
  config.max_iterations = 12;
  config.init = InitMethod::kPlusPlus;
  config.seed = 3;
  const KmeansResult result = km.fit(patches, config);

  // Sanity: more than one class is used and the raster renders.
  const auto sizes = cluster_sizes(result.assignments, 7);
  int used = 0;
  for (std::size_t s : sizes) {
    used += s > 0 ? 1 : 0;
  }
  EXPECT_GE(used, 3);
  const data::Image raster = data::render_patch_labels(
      96, 96, 8, 8, result.assignments, 7);
  EXPECT_EQ(raster.width(), 96u);

  // Spatial coherence: a scene with contiguous regions should yield many
  // same-label patch neighbours.
  std::size_t same = 0;
  for (std::size_t i = 0; i + 1 < 144; ++i) {
    same += result.assignments[i] == result.assignments[i + 1] ? 1 : 0;
  }
  EXPECT_GT(same, 30u);
}

TEST(Integration, PaperBenchmarkSurrogatesClusterOnTinyMachine) {
  const HierarchicalKmeans km(MachineConfig::tiny(2, 4, 32768));
  for (data::Benchmark bench :
       {data::Benchmark::kKeggNetwork, data::Benchmark::kRoadNetwork,
        data::Benchmark::kUsCensus1990, data::Benchmark::kIlsvrc2012}) {
    const data::Dataset ds = data::make_benchmark_surrogate(bench, 200, 192, 4);
    KmeansConfig config;
    config.k = 8;
    config.max_iterations = 5;
    config.init = InitMethod::kRandom;
    const KmeansResult result = km.fit(ds, config);
    EXPECT_EQ(result.assignments.size(), ds.n()) << ds.name();
    EXPECT_TRUE(std::isfinite(result.inertia)) << ds.name();
  }
}

TEST(Integration, SimulatedCostTracksProblemSize) {
  // Doubling n roughly doubles the dominant per-iteration component, the
  // per-sample share (sample reads plus the assign sweep). The fixed
  // per-iteration terms (update collectives, centroid loads) do not scale
  // with n, so the total only has to grow.
  const HierarchicalKmeans km(MachineConfig::tiny(1, 4, 8192));
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 1;
  config.tolerance = -1;
  const data::Dataset small = data::make_uniform(200, 8, 5);
  const data::Dataset big = data::make_uniform(400, 8, 5);
  const simarch::CostTally c_small = km.fit(small, config).last_iteration_cost;
  const simarch::CostTally c_big = km.fit(big, config).last_iteration_cost;
  const double per_sample_small = c_small.sample_read_s + c_small.compute_s;
  const double per_sample_big = c_big.sample_read_s + c_big.compute_s;
  EXPECT_GT(per_sample_big, 1.5 * per_sample_small);
  EXPECT_LT(per_sample_big, 3.0 * per_sample_small);
  EXPECT_GT(c_big.total_s(), c_small.total_s());
}

}  // namespace
}  // namespace swhkm::core
