#pragma once

#include <cstdint>
#include <vector>

#include "core/engine_util.hpp"
#include "core/kmeans.hpp"
#include "core/partition.hpp"
#include "data/dataset.hpp"
#include "simarch/cost.hpp"
#include "simarch/topology.hpp"
#include "swmpi/comm.hpp"
#include "util/matrix.hpp"

namespace swhkm::telemetry {
class MetricsShard;
}

namespace swhkm::core::detail {

/// Combine per-rank (per-CG) iteration tallies into the machine-level
/// iteration cost: time components take the slowest rank (critical path),
/// volume counters sum. Collective; every rank receives the result.
simarch::CostTally combine_tallies(swmpi::Comm& comm,
                                   const simarch::CostTally& mine);

/// Sharded update phase: sum accumulators and counts across all ranks and
/// move the *shared* centroid snapshot to the new means, with every rank
/// doing 1/size of the work. Every rank passes a reference to the same
/// owning Matrix (one copy per run, not per rank).
///
/// Shape: a reduce_scatter of the fused (sums, counts) partials hands rank
/// r the contiguous centroid-row shard block_range(k, size, r); each rank
/// applies apply_update_rows to its own rows of the shared snapshot in
/// parallel; one collective publishes the stats (and the drift).
///
/// Held rows: each accumulator holds the rows [row_begin, row_end) of k
/// (UpdateAccumulator; all k at Levels 1/2, the CG's slice at Level 3).
/// A shard row folds over the ranks that hold it; a rank that does not
/// counts as the +0.0 its full-size accumulator would hold there. The
/// shard is cut at every held-range edge inside it (a Level 3 shard can
/// straddle slice edges), and a piece with a single holder is applied
/// from that holder's partials in place, with no copy and no scratch.
///
/// Realization on the thread-backed runtime: ranks are threads, so the
/// reduce_scatter is a zero-copy binomial fold — an allgather publishes
/// each accumulator by address and every rank folds its own shard reading
/// the peers' partials in place (the same shared-memory idiom the engines
/// use for the centroid snapshot). swmpi has no message-passing
/// reduce_scatter: the runtime never moves the partials through the
/// mailbox, and the engines charge the distributed exchange through the
/// topology model instead.
///
/// Bit-deterministic AND bit-identical to the former root-serialized
/// update: the fold combines per element in the root-0 binomial
/// association — the exact tree the old two-reduce path used — sharding
/// cannot change any element's association, each row's division is
/// rank-independent, and max/sqrt commute for the shift. Pruning the
/// non-holders moves no bit either: no partial is ever -0.0 (sums start
/// at +0.0, and a round-to-nearest sum is -0.0 only when both operands
/// are), and x + (+0.0) == x for every other x.
///
/// Publication: rank r writes only its own rows, so the writes are
/// disjoint; the entry allgather orders every assign-phase write before
/// any fold read, and the closing stats allreduce orders every row write
/// before the next assign phase reads the snapshot — and before any owner
/// reuses its accumulator.
///
/// Drift publication: when `drift_out` is non-empty (k entries, same on
/// every rank — collective discipline), each rank computes the Euclidean
/// movement of its own shard rows while applying them (0 for frozen empty
/// rows) and an allgatherv assembles the full per-centroid drift vector on
/// every rank. Drift is computed exactly once, where the rows are updated,
/// so all ranks hold bit-identical drifts — the determinism the replicated
/// bound gate rests on. The engines charge the extra k doubles to the
/// publish allgather in the topology model.
/// Counts-conservation guard (KmeansConfig::sdc_checks): when
/// `sdc_expect_count` is nonzero it is the dataset's sample count, and the
/// folded per-shard counts are summed machine-wide (one extra scalar
/// allreduce) and required to equal it exactly — counts are small integers,
/// exactly representable in double, so Σcounts != n can only mean a count
/// was corrupted between accumulation and fold. Violation throws
/// SilentCorruptionError on every rank. 0 disables the guard (and the extra
/// collective), keeping defense-off charges untouched.
UpdateOutcome reduce_and_update(swmpi::Comm& comm, util::Matrix& centroids,
                                const UpdateAccumulator& acc,
                                std::span<double> drift_out = {},
                                std::uint64_t sdc_expect_count = 0);

/// Sample-stream DMA descriptors of one block's readers (the CPEs of a
/// Level 2 group, or a single CPE or CG). Each reader pulls some of the
/// block's samples in ascending order and pays one descriptor per run of
/// at most `batch` consecutive samples it pulls (LdmLayout::sample_batch),
/// so a reader that pulls all S samples pays ceil(S / batch).
class StreamRuns {
 public:
  StreamRuns(std::size_t readers, std::size_t batch);
  /// Start a new block: every reader's count and open run go to zero.
  void reset();
  /// Every reader pulls samples [begin, end).
  void pull_all(std::uint64_t begin, std::uint64_t end);
  /// Only `reader` pulls sample i.
  void pull_one(std::size_t reader, std::uint64_t i);
  /// The busiest reader's descriptor count.
  std::uint64_t critical() const;

 private:
  struct Reader {
    std::uint64_t descriptors = 0;
    std::uint64_t next = 0;  ///< one past the last sample pulled
    std::uint64_t fill = 0;  ///< samples in the open descriptor
  };
  void pull(Reader& r, std::uint64_t begin, std::uint64_t end) const;

  std::uint64_t batch_;
  std::vector<Reader> readers_;
};

/// Export one modeled hierarchical-collective charge through telemetry:
/// under `prefix` (e.g. "sim.collective.update_rs") ticks the chosen
/// algorithm's counter (`.algo_flat` / `.algo_tree` / `.algo_rsag` /
/// `.algo_doubling`), the supernode-crossing bytes, and the per-stage
/// round counts. Call on the ledger rank (cg 0) only, mirroring the
/// sim.* counters; no-op when `shard` is null.
void tick_collective_charge(telemetry::MetricsShard* shard,
                            const char* prefix,
                            const simarch::CollectiveCharge& charge);

/// Copy the combined tally's critical-path phase seconds onto a history
/// row. The six fields sum to combined.total_s() == stats.simulated_s by
/// construction — report.json surfaces them per iteration and the
/// critical-path analyzer cross-checks them against the Trace.
void fill_phase_stats(IterationStats& stats, const simarch::CostTally& combined);

}  // namespace swhkm::core::detail
