#include "core/engine_common.hpp"

#include <algorithm>
#include <string>

#include "swmpi/collectives.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"

namespace swhkm::core::detail {

void tick_collective_charge(telemetry::MetricsShard* shard,
                            const char* prefix,
                            const simarch::CollectiveCharge& charge) {
  if (shard == nullptr) {
    return;
  }
  const std::string base(prefix);
  const char* algo = nullptr;
  switch (charge.algo) {
    case simarch::CollectiveAlgo::kFlat:
      algo = ".algo_flat";
      break;
    case simarch::CollectiveAlgo::kBinomialTree:
      algo = ".algo_tree";
      break;
    case simarch::CollectiveAlgo::kReduceScatterAllgather:
      algo = ".algo_rsag";
      break;
  }
  shard->counter(base + algo).add(1);
  shard->counter(base + ".crossing_bytes").add(charge.crossing_bytes);
  shard->counter(base + ".intra_rounds").add(charge.intra_rounds);
  shard->counter(base + ".inter_rounds").add(charge.inter_rounds);
}

void fill_phase_stats(IterationStats& stats,
                      const simarch::CostTally& combined) {
  stats.sample_read_s = combined.sample_read_s;
  stats.centroid_stream_s = combined.centroid_stream_s;
  stats.compute_s = combined.compute_s;
  stats.mesh_comm_s = combined.mesh_comm_s;
  stats.net_comm_s = combined.net_comm_s;
  stats.update_s = combined.update_s;
}

simarch::CostTally combine_tallies(swmpi::Comm& comm,
                                   const simarch::CostTally& mine) {
  static_assert(std::is_trivially_copyable_v<simarch::CostTally>);
  const std::vector<simarch::CostTally> all = swmpi::allgather(comm, mine);
  simarch::CostTally combined = all.front();
  for (std::size_t r = 1; r < all.size(); ++r) {
    combined.max_in_place(all[r]);
  }
  return combined;
}

namespace {

/// One rank's update partials, shared by address, with the centroid rows
/// [row_begin, row_end) they hold. Valid because swmpi ranks are threads
/// of one process (runtime.hpp): the pointers published by the entry
/// allgather dereference directly on every rank.
struct PartialsRef {
  const double* sums;
  const double* counts;
  std::size_t row_begin;
  std::size_t row_end;
};

/// One piece of a rank's shard: rows [begin, end), held by the same ranks
/// throughout, and where their folded sums and counts live.
struct ShardPiece {
  std::size_t begin;
  std::size_t end;
  const double* sums;
  const double* counts;
};

/// (max shift, summed empty count) combined in one element-wise allreduce.
/// The empty count rides as a double: counts are small integers, exactly
/// representable, and one fused collective beats two scalar ones.
struct UpdateStats {
  double shift = 0;
  double empty = 0;
};
struct CombineUpdateStats {
  void operator()(UpdateStats& inout, const UpdateStats& in) const {
    inout.shift = inout.shift > in.shift ? inout.shift : in.shift;
    inout.empty += in.empty;
  }
};

}  // namespace

UpdateOutcome reduce_and_update(swmpi::Comm& comm, util::Matrix& centroids,
                                const UpdateAccumulator& acc,
                                std::span<double> drift_out,
                                std::uint64_t sdc_expect_count) {
  const std::size_t k = acc.k();
  const std::size_t d = acc.d();
  const int size = comm.size();
  const auto rank = static_cast<std::size_t>(comm.rank());
  SWHKM_REQUIRE(drift_out.empty() || drift_out.size() == k,
                "drift_out must be empty or hold one entry per centroid");

  // Entry barrier + partials exchange: publish each rank's accumulator by
  // address. The allgather is the happens-before edge from every rank's
  // assign-phase accumulation to every rank's fold below — nobody reads a
  // peer's partials before that peer has finished writing them. On the
  // thread-backed runtime this replaces moving the partials through the
  // mailbox with direct loads from shared memory; the simulated machine
  // still pays the distributed exchange (charged by the engines via the
  // topology model).
  const std::vector<PartialsRef> refs = swmpi::allgather(
      comm, PartialsRef{acc.sums.data(), acc.counts.data(), acc.row_begin(),
                        acc.row_end()});

  // This rank's shard is the contiguous rows block_range(k, size, r). Cut
  // it wherever some rank's held range starts or ends, so that inside a
  // piece every rank holds either all rows or none (a Level 3 shard can
  // straddle slice edges).
  const auto [j_begin, j_end] =
      block_range(k, static_cast<std::size_t>(size), rank);
  const std::size_t rows = j_end - j_begin;
  std::vector<std::size_t> cuts{j_begin, j_end};
  for (const PartialsRef& ref : refs) {
    for (const std::size_t edge : {ref.row_begin, ref.row_end}) {
      if (edge > j_begin && edge < j_end) {
        cuts.push_back(edge);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Fold each piece in the root-0 binomial association, reading the
  // holders' partials in place. A rank that does not hold a row counts as
  // the +0.0 a full-size accumulator would hold there, and no partial is
  // ever -0.0 (every sum starts at +0.0, and a round-to-nearest sum is
  // -0.0 only when both operands are), so pruning the non-holders from the
  // tree cannot move a bit. The fold order lives in one shared, tested
  // helper (swmpi::fold_binomial_present), also behind the hierarchical
  // collectives' intra-supernode stage. A piece with a single holder is
  // that holder's partials: no copy, no scratch.
  std::vector<double> folded;  // (sums rows, then counts) of the shard
  std::vector<std::vector<double>> scratch(static_cast<std::size_t>(size));
  std::vector<ShardPiece> pieces;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::size_t a = cuts[c];
    const std::size_t b = cuts[c + 1];
    const auto holds = [&](int r) {
      const PartialsRef& ref = refs[static_cast<std::size_t>(r)];
      return ref.row_begin <= a && b <= ref.row_end;
    };
    int holders = 0;
    for (int r = 0; r < size; ++r) {
      holders += holds(r) ? 1 : 0;
    }
    SWHKM_REQUIRE(holders > 0, "a centroid row is held by no rank");
    if (holders > 1 && folded.empty()) {
      folded.resize(rows * d + rows);
    }
    const std::size_t off = a - j_begin;
    const std::size_t len = b - a;
    // A single holder never writes `out`; an unsized `folded` has none.
    double* const sums_out = folded.empty() ? nullptr : folded.data() + off * d;
    double* const counts_out =
        folded.empty() ? nullptr : folded.data() + rows * d + off;
    ShardPiece piece{a, b, nullptr, nullptr};
    piece.sums = swmpi::fold_binomial_present(
        sums_out, len * d, size, scratch,
        [&](int r) -> const double* {
          const PartialsRef& ref = refs[static_cast<std::size_t>(r)];
          return holds(r) ? ref.sums + (a - ref.row_begin) * d : nullptr;
        },
        swmpi::ops::Plus{});
    piece.counts = swmpi::fold_binomial_present(
        counts_out, len, size, scratch,
        [&](int r) -> const double* {
          const PartialsRef& ref = refs[static_cast<std::size_t>(r)];
          return holds(r) ? ref.counts + (a - ref.row_begin) : nullptr;
        },
        swmpi::ops::Plus{});
    pieces.push_back(piece);
  }

  // Counts-conservation invariant: every sample lands in exactly one
  // cluster, so after the fold the machine-wide Σcounts must equal n
  // exactly (small integers in double). The per-shard sums already exist;
  // one scalar allreduce totals them. A violation means a count was
  // corrupted between accumulation and fold — the cheap algorithmic net
  // under the CRC scrubbers, and the detector the kUpdateAccum counts
  // flips are aimed at. Collective discipline: sdc_expect_count is a
  // config-derived constant, identical on every rank.
  if (sdc_expect_count > 0) {
    double total = 0;
    for (const ShardPiece& piece : pieces) {
      for (std::size_t j = 0; j < piece.end - piece.begin; ++j) {
        total += piece.counts[j];
      }
    }
    swmpi::allreduce(comm, std::span<double>(&total, 1), swmpi::ops::Plus{});
    if (total != static_cast<double>(sdc_expect_count)) {
      throw SilentCorruptionError(
          "sdc: counts conservation violated after the sharded update — "
          "sum(counts) = " +
          std::to_string(total) + " but n = " +
          std::to_string(sdc_expect_count) +
          " (an update accumulator count was corrupted)");
    }
  }

  // Parallel apply: every rank rewrites only its own rows of the shared
  // snapshot — writes are disjoint by construction. The per-row drift (if
  // requested) falls out of the same pass. max and sqrt commute, so the
  // pieces' shifts combine to the one-pass shift bit for bit.
  std::vector<double> shard_drift(drift_out.empty() ? 0 : rows);
  UpdateOutcome mine;
  for (const ShardPiece& piece : pieces) {
    const std::size_t len = piece.end - piece.begin;
    const UpdateOutcome part = apply_update_rows(
        centroids, piece.begin, piece.end,
        std::span<const double>(piece.sums, len * d),
        std::span<const double>(piece.counts, len),
        drift_out.empty() ? nullptr
                          : shard_drift.data() + (piece.begin - j_begin));
    mine.shift = std::max(mine.shift, part.shift);
    mine.empty_clusters += part.empty_clusters;
  }

  // Assemble the full drift vector on every rank: each shard owner is the
  // single writer of its rows' drifts, so the allgatherv hands all ranks
  // bit-identical copies.
  if (!drift_out.empty()) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      const auto [rb, re] =
          block_range(k, static_cast<std::size_t>(size),
                      static_cast<std::size_t>(r));
      counts[static_cast<std::size_t>(r)] = re - rb;
    }
    const std::vector<double> all = swmpi::allgatherv(
        comm,
        std::span<const double>(shard_drift.data(), shard_drift.size()),
        std::span<const std::size_t>(counts.data(), counts.size()));
    std::copy(all.begin(), all.end(), drift_out.begin());
  }

  // Exit barrier + the run's control data: max shift and total
  // empty-cluster count in one element-wise allreduce. This is also the
  // happens-before edge that (a) publishes every rank's refreshed rows
  // before the next assign phase reads the snapshot, and (b) guarantees
  // every rank has finished reading the peers' partials before any owner
  // returns and clears its accumulator for the next iteration.
  UpdateStats stats{mine.shift, static_cast<double>(mine.empty_clusters)};
  swmpi::allreduce(comm, std::span<UpdateStats>(&stats, 1),
                   CombineUpdateStats{});
  return {stats.shift, static_cast<std::size_t>(stats.empty)};
}

StreamRuns::StreamRuns(std::size_t readers, std::size_t batch)
    : batch_(std::max<std::size_t>(batch, 1)), readers_(readers) {}

void StreamRuns::reset() {
  std::fill(readers_.begin(), readers_.end(), Reader{});
}

void StreamRuns::pull(Reader& r, std::uint64_t begin,
                      std::uint64_t end) const {
  std::uint64_t len = end - begin;
  if (r.descriptors > 0 && begin == r.next) {
    // The run continues: top up the open descriptor first.
    const std::uint64_t take = std::min(len, batch_ - r.fill);
    r.fill += take;
    len -= take;
  }
  if (len > 0) {
    const std::uint64_t fresh = (len + batch_ - 1) / batch_;
    r.descriptors += fresh;
    r.fill = len - (fresh - 1) * batch_;
  }
  r.next = end;
}

void StreamRuns::pull_all(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) {
    return;
  }
  for (Reader& r : readers_) {
    pull(r, begin, end);
  }
}

void StreamRuns::pull_one(std::size_t reader, std::uint64_t i) {
  pull(readers_[reader], i, i + 1);
}

std::uint64_t StreamRuns::critical() const {
  std::uint64_t out = 0;
  for (const Reader& r : readers_) {
    out = std::max(out, r.descriptors);
  }
  return out;
}

}  // namespace swhkm::core::detail
