#include "core/init.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/engine_util.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swhkm::core {

namespace {

util::Matrix take_rows(const data::Dataset& dataset,
                       const std::vector<std::size_t>& rows) {
  util::Matrix centroids(rows.size(), dataset.d());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto src = dataset.sample(rows[j]);
    std::copy(src.begin(), src.end(), centroids.row(j).begin());
  }
  return centroids;
}

util::Matrix init_first_k(const data::Dataset& dataset, std::size_t k) {
  std::vector<std::size_t> rows(k);
  for (std::size_t j = 0; j < k; ++j) {
    rows[j] = j;
  }
  return take_rows(dataset, rows);
}

util::Matrix init_random(const data::Dataset& dataset, std::size_t k,
                         std::uint64_t seed) {
  // Partial Fisher-Yates over sample indices: k distinct rows.
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> indices(dataset.n());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  std::vector<std::size_t> rows(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t pick = j + rng.below(indices.size() - j);
    std::swap(indices[j], indices[pick]);
    rows[j] = indices[j];
  }
  return take_rows(dataset, rows);
}

/// Distance elements one k-means++ skip test costs (a gather of cc, a
/// multiply and a compare per sample), the unit of the seeding ledger.
constexpr std::size_t kSkipTestCost = 8;

/// Sample elements (n * d) per sweep thread: below this a thread's share
/// of one sweep is too small to pay for its handoff.
constexpr std::size_t kSweepGrain = std::size_t{1} << 16;

/// Rows per block of the weighted pick: each team member sums its slice of
/// nearest[] in blocks of this many rows as it sweeps them, and the pick
/// scans at most one block row by row.
constexpr std::size_t kPickBlock = 2048;

/// One block's weight sum in eight interleaved chains: the pick's rounding
/// bound holds for any summation order (DESIGN.md §15), and one chain of
/// 2048 dependent adds would cost about as much as the block's sweep.
double block_sum(const double* w, std::size_t count) {
  double lanes[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      lanes[l] += w[i + l];
    }
  }
  for (; i < count; ++i) {
    lanes[0] += w[i];
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// The sweep team's once-per-pick handoff: every member arrives after its
/// slice, the last to arrive runs `step` alone, and the step's writes are
/// published to all members as they are released. Waiting members yield
/// instead of sleeping: std::barrier parks them in the kernel, and waking
/// them cost 0.3-0.5 ms per phase on a 4-core VM, longer than the whole
/// sweep of a 16384 x 64 dataset.
template <typename Step>
class Handoff {
 public:
  Handoff(std::size_t members, Step step)
      : members_(members), step_(std::move(step)) {}

  void arrive_and_wait() {
    const std::uint64_t phase = phase_.load();
    if (arrived_.fetch_add(1) + 1 == members_) {
      arrived_.store(0);
      step_();
      phase_.store(phase + 1);
      return;
    }
    while (phase_.load() == phase) {
      std::this_thread::yield();
    }
  }

 private:
  const std::size_t members_;
  Step step_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> phase_{0};
};

}  // namespace

namespace detail {

std::size_t sweep_threads(std::size_t n, std::size_t d) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(n * d / kSweepGrain, 1, std::min(hw, n));
}

void require_finite(const data::Dataset& dataset, std::size_t threads) {
  // Each slice keeps its first non-finite row (n when it has none), so the
  // lowest bad row is named whatever the split.
  const std::size_t n = dataset.n();
  std::vector<std::size_t> first_bad(threads, n);
  const auto scan = [&](std::size_t t) {
    const auto [begin, end] = block_range(n, threads, t);
    for (std::size_t i = begin; i < end; ++i) {
      bool finite = true;
      for (const float v : dataset.sample(i)) {
        finite &= std::isfinite(v);
      }
      if (!finite) {
        first_bad[t] = i;
        return;
      }
    }
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    std::size_t t = 1;
    try {
      for (; t < threads; ++t) {
        workers.emplace_back(scan, t);
      }
    } catch (const std::system_error&) {
      // The calling thread scans the slices no worker took.
    }
    for (; t < threads; ++t) {
      scan(t);
    }
    scan(0);
  }
  const std::size_t row = std::ranges::min(first_bad);
  if (row < n) {
    const auto x = dataset.sample(row);
    const auto bad = std::find_if(
        x.begin(), x.end(), [](float v) { return !std::isfinite(v); });
    throw InvalidArgument(
        "sample row " + std::to_string(row) + " column " +
        std::to_string(bad - x.begin()) + " is not finite (" +
        std::to_string(*bad) + "); clustering needs finite samples");
  }
}

WeightedPick weighted_pick(std::span<const double> weights,
                           std::span<const char> taken,
                           std::span<const WeightBlock> blocks, double u) {
  const std::size_t n = weights.size();
  double total = 0;
  for (const WeightBlock& block : blocks) {
    total += block.sum;
  }
  // Within this range every sum, the goal and the margin are normal
  // doubles, so each rounding is relative: the proof of DESIGN.md §15.
  if (total >= 0x1p-900 && total <= 0x1p900) {
    const double goal = u * total;
    const double margin = 0x1p-49 * static_cast<double>(n + 2) * total;
    // `before` is the prefix through the previous untaken row.
    double before = 0;
    std::size_t b = 0;
    std::size_t begin = 0;
    while (b + 1 < blocks.size() && before + blocks[b].sum < goal) {
      before += blocks[b].sum;
      begin = blocks[b].end;
      ++b;
    }
    for (std::size_t i = begin; i < blocks[b].end; ++i) {
      if (taken[i]) {
        continue;
      }
      const double at = before + weights[i];
      if (at >= goal) {
        if (goal - before > margin && at - goal > margin) {
          return {i, false};
        }
        break;
      }
      before = at;
    }
  }
  // The serial scan. Already-chosen rows have zero selection weight, but FP
  // edge cases (target exactly 0, or rounding leaving target positive after
  // the full scan) could still land on one — so skip taken rows and keep
  // the last untaken row as the rounding fallback.
  double serial_total = 0;
  for (const double w : weights) {
    serial_total += w;
  }
  double target = u * serial_total;
  std::size_t chosen = n - 1;
  while (chosen > 0 && taken[chosen]) {
    --chosen;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (taken[i]) {
      continue;
    }
    target -= weights[i];
    if (target <= 0) {
      chosen = i;
      break;
    }
  }
  return {chosen, true};
}

util::Matrix init_plus_plus(const data::Dataset& dataset, std::size_t k,
                            std::uint64_t seed, std::size_t threads,
                            SeedingStats* stats) {
  const std::size_t n = dataset.n();
  const std::size_t d = dataset.d();
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> rows;
  rows.reserve(k);
  std::vector<const float*> seed_rows;
  seed_rows.reserve(k);
  std::vector<char> taken(n, 0);
  const auto take = [&](std::size_t row) {
    rows.push_back(row);
    seed_rows.push_back(dataset.sample(row).data());
    taken[row] = 1;
  };
  take(rng.below(n));
  std::vector<double> nearest(n, std::numeric_limits<double>::max());
  std::span<const float> latest = dataset.sample(rows.back());
  bool done = rows.size() == k;

  // Triangle-inequality pruning (DESIGN.md §15) needs owner[i], the seed
  // each nearest[i] came from, and cc[j], a lower bound of the distance
  // from seed j to the latest. A skip test costs about kSkipTestCost
  // distance elements, so at d <= kSkipTestCost it can never pay and the
  // plain sweep runs alone (it is memory-bound there, so the fp32 bound
  // that screens the tracked sweeps would not pay either).
  const bool track = d > kSkipTestCost;
  std::vector<std::uint32_t> owner(track ? n : 0, 0);
  std::vector<double> cc(track ? k : 0);
  // The savings ledger: a pruned pick pays when the distance elements it
  // skipped outweigh its n skip tests and its cc row. While it pays the
  // next pick prunes too; otherwise picks run plain sweeps (still keeping
  // owner[]) and probe again when the new seed's index reaches the next
  // power of two, so at most log2 k probes fail to pay.
  bool prune = false;
  bool paying = false;
  std::vector<SweepCounts> left_out(threads);
  SeedingStats tally;

  // Each member's slice of nearest[] in blocks of kPickBlock rows (the
  // last one of a slice may be short), summed by the member as it sweeps
  // them; no block straddles two members.
  std::vector<WeightBlock> blocks;
  std::vector<std::size_t> first_block;

  // Serial step between sweeps: the pick certifies the serial scan's row
  // from the block sums and one block's rows (weighted_pick), so the RNG
  // draws and the chosen rows do not depend on how the sweep was split or
  // pruned.
  const auto pick = [&] {
    // The ledger counts triangle skips only: a filtered sample still pays
    // for its bound, so counting it would keep unpaying pruning on.
    std::size_t skips = 0;
    std::size_t filters = 0;
    for (const SweepCounts& counts : left_out) {
      skips += counts.skipped;
      filters += counts.filtered;
    }
    tally.distances += n - skips - filters;
    tally.skipped += skips;
    tally.filtered += filters;
    if (prune) {
      ++tally.pruned_picks;
      const std::size_t seeds = rows.size() - 1;
      paying = skips * d > n * kSkipTestCost + seeds * d;
    }
    if (std::ranges::all_of(blocks,
                            [](const WeightBlock& b) { return b.sum == 0; })) {
      // Degenerate data (every point coincides with some seed): fall back
      // to a row not already chosen, so the k seeds are k distinct rows —
      // the same guarantee init_random gives — instead of possibly
      // repeating an index. Terminates because k <= n.
      std::size_t row = rng.below(n);
      while (taken[row]) {
        row = rng.below(n);
      }
      take(row);
    } else {
      const WeightedPick chosen =
          weighted_pick(nearest, taken, blocks, rng.uniform());
      tally.pick_fallbacks += chosen.fell_back ? 1 : 0;
      take(chosen.row);
    }
    latest = dataset.sample(rows.back());
    done = rows.size() == k;
    const std::size_t id = rows.size() - 1;
    prune = track && (paying || std::has_single_bit(id));
  };

  // The sweep team: the calling thread and threads - 1 workers each own a
  // contiguous slice of nearest[]. One handoff per pick — every member
  // sweeps its slice against `latest` a block at a time, sums each block
  // while it is hot, and arrives; the last arrival runs `pick`, and the
  // handoff publishes the block sums to it and the new `latest` back. A
  // pruned pick first fills cc[] with fp32 lower bounds in blocks, one per
  // member, and a second handoff with nothing to do publishes it before
  // any member reads it.
  std::optional<Handoff<decltype(pick)>> sync;
  const auto nothing = [] {};
  std::optional<Handoff<decltype(nothing)>> publish_cc;
  std::size_t team = 1;
  std::latch ready(1);
  const auto member = [&](std::size_t t) {
    while (!done) {
      SweepPick sweep{latest, static_cast<std::uint32_t>(rows.size() - 1)};
      if (prune) {
        const auto [jb, je] = block_range(sweep.id, team, t);
        distance_lower_bounds(seed_rows.data() + jb, je - jb, d, latest,
                              cc.data() + jb);
        publish_cc->arrive_and_wait();
        sweep.cc = cc.data();
      }
      std::size_t begin = block_range(n, team, t).first;
      SweepCounts counts;
      for (std::size_t b = first_block[t]; b < first_block[t + 1]; ++b) {
        const std::size_t count = blocks[b].end - begin;
        const float* x = dataset.samples().data() + begin * d;
        if (!track) {
          nearest_sweep(x, count, d, latest, nearest.data() + begin);
        } else {
          const SweepCounts block = pruned_sweep(
              x, count, d, sweep, nearest.data() + begin, owner.data() + begin);
          counts.skipped += block.skipped;
          counts.filtered += block.filtered;
        }
        blocks[b].sum = block_sum(nearest.data() + begin, count);
        begin = blocks[b].end;
      }
      left_out[t] = counts;
      sync->arrive_and_wait();
    }
  };
  std::vector<std::jthread> workers;
  workers.reserve(threads - 1);
  try {
    for (std::size_t t = 1; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ready.wait();
        member(t);
      });
    }
  } catch (const std::system_error&) {
    // Sweep with the workers that did start: the result does not depend
    // on the team size.
  }
  team = workers.size() + 1;
  first_block.push_back(0);
  for (std::size_t t = 0; t < team; ++t) {
    const auto [begin, end] = block_range(n, team, t);
    for (std::size_t b = begin; b < end; b += kPickBlock) {
      blocks.push_back({std::min(b + kPickBlock, end), 0.0});
    }
    first_block.push_back(blocks.size());
  }
  sync.emplace(team, pick);
  publish_cc.emplace(team, nothing);
  ready.count_down();
  member(0);
  if (stats != nullptr) {
    *stats = tally;
  }
  return take_rows(dataset, rows);
}

}  // namespace detail

util::Matrix init_centroids(const data::Dataset& dataset,
                            const KmeansConfig& config) {
  SWHKM_REQUIRE(config.k > 0, "k must be positive");
  SWHKM_REQUIRE(config.k <= dataset.n(),
                "cannot seed more centroids than samples");
  detail::require_finite(dataset,
                         detail::sweep_threads(dataset.n(), dataset.d()));
  switch (config.init) {
    case InitMethod::kFirstK:
      return init_first_k(dataset, config.k);
    case InitMethod::kRandom:
      return init_random(dataset, config.k, config.seed);
    case InitMethod::kPlusPlus: {
      detail::SeedingStats stats;
      util::Matrix centroids = detail::init_plus_plus(
          dataset, config.k, config.seed,
          detail::sweep_threads(dataset.n(), dataset.d()), &stats);
      if (config.telemetry != nullptr) {
        telemetry::MetricsShard& host =
            config.telemetry->metrics().host_shard();
        host.counter("init.sweep.distances").add(stats.distances);
        host.counter("init.sweep.skipped").add(stats.skipped);
        host.counter("init.sweep.filtered").add(stats.filtered);
        host.counter("init.sweep.pruned_picks").add(stats.pruned_picks);
        host.counter("init.pick.fallbacks").add(stats.pick_fallbacks);
      }
      return centroids;
    }
  }
  throw InvalidArgument("unknown init method");
}

}  // namespace swhkm::core
