#pragma once

/// Shared plumbing for the figure/table reproduction binaries.
///
/// Every bench prints (a) what the paper's experiment was, (b) the series
/// our model/engines regenerate, and (c) writes the same rows to
/// bench_results/<name>.csv for plotting. Paper-scale shapes run through
/// the calibrated performance model; where the shape fits a laptop, the
/// bench also runs the functional engine on a surrogate dataset and
/// reports the simulated time it accumulated, as a cross-check that model
/// and engine agree on the mechanics.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "core/hkmeans.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/units.hpp"

namespace swhkm::bench {

inline void banner(const std::string& id, const std::string& paper_setup) {
  std::cout << "==============================================================="
               "=\n"
            << id << "\n"
            << "paper setup: " << paper_setup << "\n"
            << "==============================================================="
               "=\n";
}

/// Write `table` to bench_results/<name>.csv next to the binary's CWD and
/// print it.
inline void emit(const util::Table& table, const std::string& name) {
  std::cout << table.to_text();
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    table.write_csv("bench_results/" + name + ".csv");
    std::cout << "(csv: bench_results/" << name << ".csv)\n";
  }
  std::cout << std::endl;
}

/// Modelled per-iteration seconds for the best plan of `level`, or nullopt
/// when infeasible (benches print "n/a" for those points, mirroring the
/// paper's truncated curves).
inline std::optional<double> model_best(core::Level level,
                                        const core::ProblemShape& shape,
                                        const simarch::MachineConfig& machine) {
  const auto choice = core::best_plan_for_level(level, shape, machine);
  if (!choice) {
    return std::nullopt;
  }
  return choice->predicted_s();
}

inline std::string cell_or_na(const std::optional<double>& seconds) {
  if (!seconds) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", *seconds);
  return buf;
}

/// Functional cross-check: run the engine on a scaled-down surrogate with
/// the same structure, returning the engine-accumulated simulated seconds
/// of one iteration.
inline double functional_iteration_seconds(core::Level level,
                                           const data::Dataset& ds,
                                           std::size_t k,
                                           const simarch::MachineConfig& mc) {
  core::KmeansConfig config;
  config.k = k;
  config.max_iterations = 1;
  config.tolerance = -1;  // exactly one full iteration
  const core::KmeansResult result = core::run_level(level, ds, config, mc);
  return result.last_iteration_cost.total_s();
}

}  // namespace swhkm::bench
