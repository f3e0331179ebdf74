#pragma once

#include <cstdint>
#include <vector>

#include "simarch/trace.hpp"

namespace swhkm::util {
class JsonWriter;
}

namespace swhkm::telemetry {

/// Post-run critical-path attribution over the simulated-time Trace.
///
/// The engines' combine_tallies folds per-rank tallies with a per-field
/// maximum — "each phase takes as long as its slowest rank" — and every
/// rank advances its clock by the folded total, so the modeled iteration
/// time IS the per-phase-maximum sum. The analyzer reconstructs that fold
/// from the Trace's per-rank phase intervals: per iteration it takes each
/// phase's maximum across core groups (the same doubles, the same max,
/// the same sum order as CostTally::total_s()), which is why
/// `critical_s == IterationStats::simulated_s` holds bit-for-bit on a
/// clean run — the acceptance cross-check in tests/test_critical_path.cpp.
///
/// Blame is charged per iteration to the *gating* rank — the core group
/// with the largest per-rank total — as (gating − mean) rank-seconds: the
/// time the barrier would have returned earlier had the straggler matched
/// the average. Summed across iterations this yields the straggler table.

/// One iteration's attribution.
struct IterationCriticalPath {
  std::uint32_t iteration = 0;
  std::uint32_t gating_cg = 0;   ///< largest per-rank total (lowest cg wins ties)
  double critical_s = 0;         ///< sum of per-phase maxima == modeled iter time
  double gating_rank_s = 0;      ///< the gating rank's own total
  double mean_rank_s = 0;        ///< mean per-rank total
  double blame_s = 0;            ///< gating_rank_s - mean_rank_s
  double imbalance = 1.0;        ///< gating_rank_s / mean_rank_s (1.0 degenerate)
  double start_s = 0;            ///< earliest event start (flow-edge anchor)
  double end_s = 0;              ///< latest event end (flow-edge anchor)
  double phase_s[simarch::kPhaseCount] = {};        ///< per-phase maxima
  std::uint32_t phase_cg[simarch::kPhaseCount] = {};  ///< who set each maximum
};

/// One row of the straggler table: a core group's aggregate blame.
struct StragglerEntry {
  std::uint32_t cg = 0;
  std::uint32_t gated_iterations = 0;  ///< iterations this cg gated
  double blame_s = 0;                  ///< summed (gating - mean) seconds
  double share = 0;                    ///< blame_s / total blame (0 if none)
};

struct CriticalPathReport {
  std::vector<IterationCriticalPath> iterations;  ///< ascending iteration
  std::vector<StragglerEntry> stragglers;  ///< blame desc, top-N, cg-asc ties
  double total_critical_s = 0;             ///< sum of critical_s
  double total_blame_s = 0;                ///< sum of blame_s (all cgs, pre-top-N)
};

/// Analyze a run's Trace. When recovery replayed iterations the trace
/// holds several recordings of the same (cg, iteration, phase); the latest
/// (largest start) wins — the postmortem describes the attempt that
/// actually committed. `top_n` bounds the straggler table only; blame
/// totals cover every core group.
CriticalPathReport analyze_critical_path(const simarch::Trace& trace,
                                         std::size_t top_n = 8);

/// JSON object: {"iterations": [...], "stragglers": [...], totals}.
void write_critical_path(util::JsonWriter& w, const CriticalPathReport& r);

}  // namespace swhkm::telemetry
