#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/engine_util.hpp"
#include "core/hkmeans.hpp"

namespace swhkm::core {
namespace {

using detail::TileScore;
using detail::TileScore2;
using simarch::MachineConfig;

/// Full-precision norm vector for a centroid matrix — what the engines'
/// CentroidNormCache holds after a refresh.
std::vector<double> norms_of(const util::Matrix& centroids) {
  std::vector<double> norms(centroids.rows());
  for (std::size_t j = 0; j < centroids.rows(); ++j) {
    norms[j] = detail::row_squared_norm(centroids.row(j));
  }
  return norms;
}

/// The GEMM sweep promises byte-identical records, so nothing weaker than
/// field-exact equality (including the runner-up slot) is acceptable.
template <typename Rec>
void expect_records_equal(std::span<const Rec> got, std::span<const Rec> ref,
                          const std::string& label) {
  ASSERT_EQ(got.size(), ref.size()) << label;
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t].value, ref[t].value) << label << " sample " << t;
    EXPECT_EQ(got[t].index, ref[t].index) << label << " sample " << t;
    if constexpr (detail::HasSecond<Rec>) {
      EXPECT_EQ(got[t].second, ref[t].second) << label << " sample " << t;
    }
  }
}

/// Run both kernels over one (dataset, centroids, slice) instance for one
/// record width and compare bit for bit.
template <typename Rec>
void check_kernel(const data::Dataset& ds, const util::Matrix& centroids,
                  std::size_t j_begin, std::size_t j_end,
                  const std::string& label) {
  const std::vector<double> norms = norms_of(centroids);
  std::vector<Rec> ref(ds.n());
  std::vector<Rec> got(ds.n());
  detail::clear_scores(std::span<Rec>(ref));
  detail::clear_scores(std::span<Rec>(got));
  detail::score_tile(ds, 0, ds.n(), centroids, j_begin, j_end,
                     std::span<Rec>(ref));
  detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                          std::span<const double>(norms), j_begin, j_end,
                          std::span<Rec>(got));
  expect_records_equal(std::span<const Rec>(got), std::span<const Rec>(ref),
                       label);

  // Compacted variant: a strided survivor subset, same contract.
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < ds.n(); i += 3) {
    ids.push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<Rec> ref_ids(ids.size());
  std::vector<Rec> got_ids(ids.size());
  detail::clear_scores(std::span<Rec>(ref_ids));
  detail::clear_scores(std::span<Rec>(got_ids));
  detail::score_tile_ids(ds, std::span<const std::uint32_t>(ids), centroids,
                         j_begin, j_end, std::span<Rec>(ref_ids));
  detail::score_tile_ids_gemm(ds, std::span<const std::uint32_t>(ids),
                              centroids, std::span<const double>(norms),
                              j_begin, j_end, std::span<Rec>(got_ids));
  expect_records_equal(std::span<const Rec>(got_ids),
                       std::span<const Rec>(ref_ids), label + " ids");
}

TEST(GemmKernel, BitIdenticalAcrossShapesSlicesAndRecordWidths) {
  // Ragged everything: d values that misalign every vector width, tile
  // counts that leave partial centroid blocks, and slice ranges that start
  // mid-block. Magnitude spread (1e-3 .. 1e3) makes the norms dominate some
  // rows and vanish in others, stressing the tau screen from both sides.
  std::mt19937 rng(0xC0FFEE);
  for (const std::size_t d : {1u, 7u, 13u, 16u}) {
    for (const std::size_t k : {1u, 5u, 17u, 33u}) {
      std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
      std::uniform_int_distribution<int> mag(-3, 3);
      const std::size_t n = 37;
      std::vector<float> xs(n * d);
      for (float& v : xs) {
        v = unit(rng) * std::pow(10.0f, static_cast<float>(mag(rng)));
      }
      std::vector<float> cs(k * d);
      for (float& v : cs) {
        v = unit(rng) * std::pow(10.0f, static_cast<float>(mag(rng)));
      }
      const data::Dataset ds("rand", util::Matrix::from_vector(n, d, xs));
      const util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
      const std::string label =
          "d=" + std::to_string(d) + " k=" + std::to_string(k);
      check_kernel<TileScore>(ds, centroids, 0, k, label + " full");
      check_kernel<TileScore2>(ds, centroids, 0, k, label + " full2");
      if (k > 2) {
        // Partial slice (Level 3's per-rank centroid range).
        check_kernel<TileScore>(ds, centroids, 1, k - 1, label + " slice");
        check_kernel<TileScore2>(ds, centroids, 1, k - 1, label + " slice2");
      }
    }
  }
}

TEST(GemmKernel, CoincidentCentroidsOverflowCandidateListExactly) {
  // 12 coincident centroids (> kGemmCandidates = 8) plus two distinct ones:
  // every sample sees at least 12 centroids tied within tau, so the
  // candidate list overflows and the kernel must fall back to the exact
  // full-slice sweep — preserving the left-to-right tie-break onto the
  // *first* coincident index.
  const std::size_t d = 4;
  const std::size_t k = 14;
  std::vector<float> cs(k * d, 0.0f);
  for (std::size_t u = 0; u < d; ++u) {
    cs[12 * d + u] = 5.0f;   // centroid 12 off to one side
    cs[13 * d + u] = -3.0f;  // centroid 13 off to the other
  }
  const util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
  const std::size_t n = 24;
  std::vector<float> xs(n * d);
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> unit(-4.0f, 6.0f);
  for (float& v : xs) {
    v = unit(rng);
  }
  // A few samples exactly on the coincident pile: distance exactly 0 twelve
  // times over.
  for (std::size_t u = 0; u < d; ++u) {
    xs[0 * d + u] = 0.0f;
    xs[1 * d + u] = 0.0f;
  }
  const data::Dataset ds("pile", util::Matrix::from_vector(n, d, xs));
  check_kernel<TileScore>(ds, centroids, 0, k, "overflow");
  check_kernel<TileScore2>(ds, centroids, 0, k, "overflow2");
  // The winner for the on-pile samples must be index 0 (serial tie-break).
  const std::vector<double> norms = norms_of(centroids);
  std::vector<TileScore2> recs(n);
  detail::clear_scores(std::span<TileScore2>(recs));
  detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                          std::span<const double>(norms), 0, k,
                          std::span<TileScore2>(recs));
  EXPECT_EQ(recs[0].value, 0.0);
  EXPECT_EQ(recs[0].index, 0u);
  EXPECT_EQ(recs[0].second, 0.0);  // eleven more coincident at distance 0
}

/// Byte-compare the GEMM sweep with score_tile over every sample and the
/// whole centroid range; returns the rows the GEMM selector overflowed.
template <typename Rec>
std::uint64_t gemm_overflows(const data::Dataset& ds,
                             const util::Matrix& centroids,
                             const std::string& label) {
  const std::vector<double> norms = norms_of(centroids);
  std::vector<Rec> ref(ds.n());
  std::vector<Rec> got(ds.n());
  detail::clear_scores(std::span<Rec>(ref));
  detail::clear_scores(std::span<Rec>(got));
  detail::score_tile(ds, 0, ds.n(), centroids, 0, centroids.rows(),
                     std::span<Rec>(ref));
  detail::GemmSdcHooks hooks;
  detail::score_tile_gemm(ds, 0, ds.n(), centroids,
                          std::span<const double>(norms), 0, centroids.rows(),
                          std::span<Rec>(got), &hooks);
  expect_records_equal(std::span<const Rec>(got), std::span<const Rec>(ref),
                       label);
  return hooks.overflowed;
}

TEST(GemmKernel, EvictionKeepsRunningRecordsExact) {
  // Running-order records: each centroid lies closer to the samples than
  // every centroid before it, so the running top-two changes at every j
  // and, without eviction, every centroid would be appended. The gaps
  // between distances dwarf tau, so eviction must keep every such row
  // within kGemmCandidates. A tie pile of kGemmCandidates + 2 centroids
  // after an improving prefix then forces rows that overflow after their
  // evictions, which must still match score_tile byte for byte.
  constexpr std::size_t d = 5;
  std::mt19937 rng(4242);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  std::uniform_real_distribution<float> jitter(-1e-3f, 1e-3f);
  const auto direction = [&] {
    std::vector<float> v(d);
    float norm = 0;
    for (float& x : v) {
      x = gauss(rng);
      norm += x * x;
    }
    for (float& x : v) {
      x /= std::sqrt(norm);
    }
    return v;
  };
  // Samples in a tiny ball around the origin: all of them see the same
  // distance order.
  const std::size_t n = 19;
  std::vector<float> xs(n * d);
  for (float& v : xs) {
    v = jitter(rng);
  }
  const data::Dataset ds("ball", util::Matrix::from_vector(n, d, xs));
  for (const std::size_t k : {8u, 9u, 64u, 512u}) {
    // Centroid j at radius k - j: strictly improving in j.
    std::vector<float> improving(k * d);
    for (std::size_t j = 0; j < k; ++j) {
      const std::vector<float> dir = direction();
      for (std::size_t u = 0; u < d; ++u) {
        improving[j * d + u] = static_cast<float>(k - j) * dir[u];
      }
    }
    const util::Matrix centroids = util::Matrix::from_vector(k, d, improving);
    const std::string label = "improving k=" + std::to_string(k);
    EXPECT_EQ(gemm_overflows<TileScore>(ds, centroids, label), 0u) << label;
    EXPECT_EQ(gemm_overflows<TileScore2>(ds, centroids, label + " top-two"),
              0u)
        << label;

    if (k < 2 * detail::kGemmCandidates) {
      continue;
    }
    // The last kGemmCandidates + 2 rows become one tie pile at radius 0.5,
    // closer than the whole improving prefix: the prefix fills and evicts,
    // then the pile fills the list with entries no bar can evict.
    std::vector<float> piled = improving;
    const std::vector<float> dir = direction();
    for (std::size_t j = k - detail::kGemmCandidates - 2; j < k; ++j) {
      for (std::size_t u = 0; u < d; ++u) {
        piled[j * d + u] = 0.5f * dir[u];
      }
    }
    const util::Matrix pile = util::Matrix::from_vector(k, d, piled);
    const std::string pile_label = "evict then overflow k=" +
                                   std::to_string(k);
    EXPECT_EQ(gemm_overflows<TileScore>(ds, pile, pile_label), n)
        << pile_label;
    EXPECT_EQ(gemm_overflows<TileScore2>(ds, pile, pile_label + " top-two"),
              n)
        << pile_label;

    // Random orders of the same improving set: whatever overflows, the
    // records stay exact.
    std::vector<std::size_t> order(k);
    for (std::size_t j = 0; j < k; ++j) {
      order[j] = j;
    }
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<float> shuffled(k * d);
    for (std::size_t j = 0; j < k; ++j) {
      std::copy_n(improving.begin() + order[j] * d, d,
                  shuffled.begin() + j * d);
    }
    const util::Matrix mixed = util::Matrix::from_vector(k, d, shuffled);
    gemm_overflows<TileScore>(ds, mixed, "shuffled k=" + std::to_string(k));
    gemm_overflows<TileScore2>(ds, mixed,
                               "shuffled top-two k=" + std::to_string(k));
  }
}

TEST(GemmKernel, NormCacheRefreshTracksDriftExactly) {
  // The invalidation contract: drift[j] == 0 implies the stored row's bits
  // are unchanged, so the cached norm stays bit-exact; drift[j] > 0 rows
  // are the only ones recomputed.
  const std::size_t k = 5;
  const std::size_t d = 3;
  std::vector<float> cs = {1.f, 2.f, 3.f,  0.5f, 0.5f, 0.5f, -1.f, 4.f, 0.f,
                           2.f, 2.f, 2.f,  7.f,  -2.f, 1.f};
  util::Matrix centroids = util::Matrix::from_vector(k, d, cs);
  detail::CentroidNormCache cache;
  EXPECT_EQ(cache.refresh_full(centroids), k);
  const std::vector<double> before = cache.norms;

  // Move rows 1 and 3; rows 0, 2, 4 keep their bits.
  centroids.at(1, 0) = 9.0f;
  centroids.at(3, 2) = -6.0f;
  std::vector<double> drift(k, 0.0);
  drift[1] = 0.25;
  drift[3] = 1.5;
  EXPECT_EQ(cache.refresh_from_drift(centroids, drift), 2u);
  EXPECT_EQ(cache.norms[0], before[0]);
  EXPECT_EQ(cache.norms[2], before[2]);
  EXPECT_EQ(cache.norms[4], before[4]);
  EXPECT_EQ(cache.norms[1], detail::row_squared_norm(centroids.row(1)));
  EXPECT_EQ(cache.norms[3], detail::row_squared_norm(centroids.row(3)));

  // Cold cache or shape change falls back to a full recompute.
  cache.invalidate();
  EXPECT_EQ(cache.refresh_from_drift(centroids, drift), k);
  EXPECT_EQ(cache.refresh_from_drift(centroids, std::span<const double>()),
            k);
}

TEST(GemmKernel, DriftDigestAuditsSingletonAndTies) {
  // k == 1: there is no "other centroid", so the excluded max must be 0 —
  // a lower bound never retreats on a one-centroid run.
  {
    const std::vector<double> drift{3.5};
    const detail::DriftDigest digest = detail::drift_digest(drift);
    EXPECT_EQ(digest.max1, 3.5);
    EXPECT_EQ(digest.max2, 0.0);
    EXPECT_EQ(digest.argmax, 0u);
    EXPECT_EQ(detail::drift_excluding(digest, 0), 0.0);
  }
  // All-zero drift (converged iteration, or k == 1 with a fixed centroid).
  {
    const std::vector<double> drift{0.0, 0.0};
    const detail::DriftDigest digest = detail::drift_digest(drift);
    EXPECT_EQ(digest.max1, 0.0);
    EXPECT_EQ(digest.max2, 0.0);
    EXPECT_EQ(detail::drift_excluding(digest, 0), 0.0);
    EXPECT_EQ(detail::drift_excluding(digest, 1), 0.0);
  }
  // Tied maximum: the duplicate must survive into max2 so excluding either
  // argmax still sees the full tied drift — coincident centroids moving in
  // lockstep must not weaken anyone's lower-bound retreat.
  {
    const std::vector<double> drift{2.0, 5.0, 5.0, 1.0};
    const detail::DriftDigest digest = detail::drift_digest(drift);
    EXPECT_EQ(digest.max1, 5.0);
    EXPECT_EQ(digest.max2, 5.0);
    EXPECT_EQ(digest.argmax, 1u);
    EXPECT_EQ(detail::drift_excluding(digest, 1), 5.0);
    EXPECT_EQ(detail::drift_excluding(digest, 2), 5.0);
    EXPECT_EQ(detail::drift_excluding(digest, 0), 5.0);
  }
}

/// Bit-for-bit equality against the serial baseline (same contract as
/// test_gated_assign's helper).
void expect_bit_identical(const KmeansResult& got, const KmeansResult& ref,
                          const std::string& label) {
  ASSERT_EQ(got.iterations, ref.iterations) << label;
  EXPECT_EQ(got.assignments, ref.assignments) << label;
  ASSERT_EQ(got.centroids.size(), ref.centroids.size()) << label;
  EXPECT_EQ(std::memcmp(got.centroids.data(), ref.centroids.data(),
                        got.centroids.size() * sizeof(float)),
            0)
      << label;
}

class GemmEngineTest : public ::testing::TestWithParam<Level> {};

TEST_P(GemmEngineTest, BitIdenticalToSerialAcrossTileSizes) {
  // The acceptance matrix: each engine level at tiles of 48, 96 and 192
  // samples, all landing byte-identical to serial Lloyd. d = 13 keeps
  // every panel unaligned; k = 17 leaves a one-row partial centroid
  // block; tile 48 leaves a ragged final tile per rank.
  const Level level = GetParam();
  const data::Dataset ds = data::make_blobs(420, 13, 6, 77);
  KmeansConfig config;
  config.k = 17;
  config.max_iterations = 14;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  for (const std::size_t tile : {48u, 96u, 192u}) {
    KmeansConfig cfg = config;
    cfg.tile_samples = tile;
    const std::size_t mprime = level == Level::kLevel3 ? 2 : 0;
    const KmeansResult got = run_level(level, ds, cfg, machine, 0, mprime);
    EXPECT_EQ(got.assign_kernel, "gemm");
    expect_bit_identical(got, ref,
                         std::string(level_name(level)) +
                             " tile=" + std::to_string(tile));
  }
}

TEST_P(GemmEngineTest, GemmOffAndOnAgreeOnCoincidentSeeds) {
  // Satellite regression: two coincident centroids that drift apart. The
  // first two samples are identical, so kFirstK seeds centroid 0 and 1 on
  // the same bits; every tie goes left, cluster 1 starts empty and holds
  // position (zero drift — its cached norm must stay bit-exact across
  // iterations) while cluster 0's mean walks away; once samples near the
  // old seed are closer to the parked centroid than to the drifted one,
  // cluster 1 fills and both move. The GEMM kernel, the chain kernel and
  // serial must track this trajectory bit for bit; 512-sample tiles
  // overflow the GEMM scratch, so that run downgrades to the chain kernel.
  const std::size_t d = 2;
  std::vector<float> xs;
  auto push = [&](float a, float b) {
    xs.push_back(a);
    xs.push_back(b);
  };
  push(0.f, 0.f);
  push(0.f, 0.f);  // duplicate seed -> coincident centroids 0 and 1
  for (int i = 0; i < 14; ++i) {
    push(0.1f * static_cast<float>(i % 4), 0.1f * static_cast<float>(i % 3));
  }
  for (int i = 0; i < 16; ++i) {
    push(10.f + 0.2f * static_cast<float>(i % 5),
         10.f - 0.2f * static_cast<float>(i % 4));
  }
  const data::Dataset ds("drift-apart",
                         util::Matrix::from_vector(xs.size() / d, d, xs));
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 10;
  const KmeansResult ref = lloyd_serial(ds, config);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig chain_cfg = config;
  chain_cfg.tile_samples = 512;
  const std::size_t mprime = GetParam() == Level::kLevel3 ? 2 : 0;
  const KmeansResult gemm_run =
      run_level(GetParam(), ds, config, machine, 0, mprime);
  const KmeansResult chain_run =
      run_level(GetParam(), ds, chain_cfg, machine, 0, mprime);
  ASSERT_EQ(gemm_run.assign_kernel, "gemm");
  ASSERT_EQ(chain_run.assign_kernel, "chain");
  expect_bit_identical(gemm_run, ref, "gemm");
  expect_bit_identical(chain_run, ref, "chain");
  // The trajectory must actually exercise the regression: cluster 1 ends
  // up non-empty even though it started coincident and empty.
  EXPECT_EQ(ref.empty_clusters, 0u);
  // Same pair, cost side: the GEMM sweep's sustained efficiency and
  // per-row overhead parameters must give it a higher modeled flop rate
  // (flops per modeled compute second) than the chain kernel.
  ASSERT_GT(gemm_run.cost.compute_s, 0.0);
  ASSERT_GT(chain_run.cost.compute_s, 0.0);
  EXPECT_GT(static_cast<double>(gemm_run.cost.flops) / gemm_run.cost.compute_s,
            static_cast<double>(chain_run.cost.flops) /
                chain_run.cost.compute_s);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, GemmEngineTest,
                         ::testing::Values(Level::kLevel1, Level::kLevel2,
                                           Level::kLevel3),
                         [](const auto& info) {
                           return std::string("Level") +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(GemmEngine, LargerTileCutsCollectiveRoundsByTheTileRatio) {
  // Fixed-iteration Level 3 runs: iteration 0 sweeps every sample and
  // posts one combine per tile, so tile 256 must cut its assign-phase
  // rounds by exactly 4 against tile 64 while the runs stay byte-identical.
  // tiny(2, 4) has 4 CGs; p = 2 makes 2 slice groups of 512 samples each
  // -> 8 tiles of 64 per iteration, or exactly 2 of 256.
  const data::Dataset ds = data::make_blobs(1024, 8, 4, 31);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig base;
  base.k = 6;
  base.max_iterations = 5;
  base.tolerance = -1;  // fixed length
  KmeansConfig t64 = base;
  t64.tile_samples = 64;
  KmeansConfig t256 = base;
  t256.tile_samples = 256;
  const KmeansResult r64 = run_level(Level::kLevel3, ds, t64, machine, 0, 2);
  const KmeansResult r256 =
      run_level(Level::kLevel3, ds, t256, machine, 0, 2);
  expect_bit_identical(r256, r64, "tile 256 vs tile 64");
  ASSERT_EQ(r64.history.size(), r256.history.size());
  // 2 update rounds + assign rounds; the assign part shrinks by exactly 4
  // (512 samples/rank: 8 tiles of 64, 2 of 256).
  const std::uint64_t assign64 = r64.history[0].net_rounds - 2;
  const std::uint64_t assign256 = r256.history[0].net_rounds - 2;
  EXPECT_EQ(assign64, 4u * assign256);
  EXPECT_GT(assign256, 0u);
}

TEST(GemmEngine, FullyGatedTileChargesNoRound) {
  // One-sample Level 3 tiles on one CG group spanning all 4 CGs of
  // tiny(2, 4): a tile posts its combine only if its sample survives the
  // gate, so every iteration's assign rounds equal its swept samples. A
  // tile whose sample the gate resolves skips the collective and must
  // not be charged a round.
  const data::Dataset ds = data::make_blobs(256, 8, 4, 31);
  const MachineConfig machine = MachineConfig::tiny(2, 4, 8192);
  KmeansConfig config;
  config.k = 16;
  config.max_iterations = 6;
  config.tolerance = -1;  // fixed length
  config.tile_samples = 1;
  const KmeansResult r = run_level(Level::kLevel3, ds, config, machine, 0, 4);
  ASSERT_EQ(r.history.size(), config.max_iterations);
  // Iteration 0 sweeps every sample: one round per sample plus the
  // update's.
  ASSERT_GT(r.history[0].net_rounds, ds.n());
  const std::uint64_t update_rounds = r.history[0].net_rounds - ds.n();
  std::uint64_t pruned = 0;
  for (const IterationStats& it : r.history) {
    const auto resolved = static_cast<std::uint64_t>(
        std::llround(it.prune_rate * static_cast<double>(ds.n())));
    EXPECT_EQ(it.net_rounds, update_rounds + ds.n() - resolved);
    pruned += resolved;
  }
  EXPECT_GT(pruned, 0u);
}

}  // namespace
}  // namespace swhkm::core
