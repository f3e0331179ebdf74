#pragma once

/// swhkm — Large-Scale Hierarchical k-means for Heterogeneous Many-Core
/// Supercomputers (SC'18) on a simulated Sunway TaihuLight.
///
/// Umbrella header: include this to get the whole public API.
///
///   simarch::MachineConfig machine = simarch::MachineConfig::sw26010(128);
///   core::HierarchicalKmeans km(machine);
///   core::KmeansConfig config{.k = 2000};
///   core::KmeansResult r = km.fit(dataset, config);   // auto-planned level
///
/// The engines run the real clustering on real data (validated against
/// serial Lloyd) while charging simulated Sunway time to r.cost; paper-
/// scale shapes that cannot be materialised go through core::auto_plan /
/// core::model_iteration directly.

#include <optional>

#include "core/checkpoint.hpp"
#include "core/elkan.hpp"
#include "core/hamerly.hpp"
#include "core/init.hpp"
#include "core/kmeans.hpp"
#include "core/level1.hpp"
#include "core/level2.hpp"
#include "core/level3.hpp"
#include "core/lloyd.hpp"
#include "core/metrics.hpp"
#include "core/minibatch.hpp"
#include "core/partition.hpp"
#include "core/perf_model.hpp"
#include "core/planner.hpp"
#include "core/recovery.hpp"
#include "core/yinyang.hpp"
#include "data/dataset.hpp"
#include "data/image.hpp"
#include "data/io.hpp"
#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "simarch/machine_config.hpp"

namespace swhkm::core {

/// Run one specific level on a dataset (plan resolved internally; group
/// sizes 0 mean "smallest feasible"). Use best_plan_for_level + run_plan
/// for model-optimal group sizes.
KmeansResult run_level(Level level, const data::Dataset& dataset,
                       const KmeansConfig& config,
                       const simarch::MachineConfig& machine,
                       std::size_t m_group = 0, std::size_t mprime_group = 0);

/// Run a resolved plan.
KmeansResult run_plan(const PartitionPlan& plan, const data::Dataset& dataset,
                      const KmeansConfig& config,
                      const simarch::MachineConfig& machine);

/// The top-level façade: owns a machine description, picks the best
/// feasible level per problem, and runs it.
class HierarchicalKmeans {
 public:
  explicit HierarchicalKmeans(simarch::MachineConfig machine);

  const simarch::MachineConfig& machine() const { return machine_; }

  /// Cluster with the planner-chosen level.
  KmeansResult fit(const data::Dataset& dataset,
                   const KmeansConfig& config) const;

  /// Cluster with a forced level (model-optimal group size within it).
  KmeansResult fit_level(Level level, const data::Dataset& dataset,
                         const KmeansConfig& config) const;

  /// What would the planner do for this shape? (No data needed.)
  std::optional<PlanChoice> plan(const ProblemShape& shape) const;

 private:
  simarch::MachineConfig machine_;
};

}  // namespace swhkm::core
