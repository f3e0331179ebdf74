#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/engine_util.hpp"
#include "core/init.hpp"
#include "core/lloyd.hpp"
#include "core/metrics.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace swhkm::core {
namespace {

TEST(Init, FirstKTakesLeadingRows) {
  const data::Dataset ds = data::make_blobs(20, 3, 2, 1);
  KmeansConfig config;
  config.k = 3;
  config.init = InitMethod::kFirstK;
  const util::Matrix c = init_centroids(ds, config);
  EXPECT_EQ(c.rows(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t u = 0; u < 3; ++u) {
      EXPECT_EQ(c.at(j, u), ds.sample(j)[u]);
    }
  }
}

TEST(Init, RandomRowsAreDistinctSamples) {
  const data::Dataset ds = data::make_uniform(50, 2, 3);
  KmeansConfig config;
  config.k = 10;
  config.init = InitMethod::kRandom;
  config.seed = 5;
  const util::Matrix c = init_centroids(ds, config);
  // Every centroid is an actual sample, and no duplicates.
  std::set<std::pair<float, float>> seen;
  for (std::size_t j = 0; j < 10; ++j) {
    seen.insert({c.at(j, 0), c.at(j, 1)});
    bool found = false;
    for (std::size_t i = 0; i < ds.n() && !found; ++i) {
      found = ds.sample(i)[0] == c.at(j, 0) && ds.sample(i)[1] == c.at(j, 1);
    }
    EXPECT_TRUE(found) << "centroid " << j << " is not a sample";
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Init, RandomIsSeedDeterministic) {
  const data::Dataset ds = data::make_uniform(50, 2, 3);
  KmeansConfig config;
  config.k = 5;
  config.init = InitMethod::kRandom;
  config.seed = 7;
  const util::Matrix a = init_centroids(ds, config);
  const util::Matrix b = init_centroids(ds, config);
  EXPECT_EQ(centroid_max_abs_diff(a, b), 0.0);
}

TEST(Init, PlusPlusSpreadsSeeds) {
  // On two tight far-apart blobs, k-means++ with k=2 picks one seed from
  // each blob (the D^2 weighting makes the alternative astronomically
  // unlikely).
  const data::Dataset ds = data::make_blobs(100, 2, 2, 11, 100.0, 0.01);
  KmeansConfig config;
  config.k = 2;
  config.init = InitMethod::kPlusPlus;
  config.seed = 3;
  const util::Matrix c = init_centroids(ds, config);
  double gap = 0;
  for (std::size_t u = 0; u < 2; ++u) {
    const double diff = c.at(0, u) - c.at(1, u);
    gap += diff * diff;
  }
  EXPECT_GT(gap, 100.0);
}

TEST(Init, PlusPlusCoincidentPointsSeedDistinctRows) {
  // Regression: with coincident points the D^2 weights go to zero once
  // every position is covered, and the degenerate fallback used to draw
  // *any* row — including already-chosen ones — so k == n could seed the
  // same row twice and skip another. With k == n the seeds must be a
  // permutation of the rows, i.e. the sorted centroid multiset equals the
  // sorted sample multiset (the duplicate row included exactly twice).
  util::Matrix m = util::Matrix::from_vector(4, 2,
                                             {0, 0,    // A
                                              0, 0,    // A again
                                              1, 0,    // B
                                              0, 1});  // C
  const data::Dataset ds("coincident", std::move(m));
  KmeansConfig config;
  config.k = 4;
  config.init = InitMethod::kPlusPlus;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    config.seed = seed;
    const util::Matrix c = init_centroids(ds, config);
    std::multiset<std::pair<float, float>> got;
    std::multiset<std::pair<float, float>> want;
    for (std::size_t j = 0; j < 4; ++j) {
      got.insert({c.at(j, 0), c.at(j, 1)});
      want.insert({ds.sample(j)[0], ds.sample(j)[1]});
    }
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

// A frozen copy of the one-thread, one-distance-at-a-time k-means++ loop
// that init_centroids ran before its sweep was split into chains and
// threads. The new path must reproduce it byte for byte.
double frozen_squared_distance(std::span<const float> a,
                               std::span<const float> b) {
  double sum = 0;
  for (std::size_t u = 0; u < a.size(); ++u) {
    const double diff = static_cast<double>(a[u]) - static_cast<double>(b[u]);
    sum += diff * diff;
  }
  return sum;
}

util::Matrix frozen_plus_plus(const data::Dataset& dataset, std::size_t k,
                              std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> rows;
  std::vector<char> taken(dataset.n(), 0);
  rows.push_back(rng.below(dataset.n()));
  taken[rows.back()] = 1;
  std::vector<double> nearest(dataset.n(),
                              std::numeric_limits<double>::max());
  while (rows.size() < k) {
    const auto latest = dataset.sample(rows.back());
    double total = 0;
    for (std::size_t i = 0; i < dataset.n(); ++i) {
      nearest[i] = std::min(nearest[i],
                            frozen_squared_distance(dataset.sample(i), latest));
      total += nearest[i];
    }
    if (total <= 0) {
      std::size_t pick = rng.below(dataset.n());
      while (taken[pick]) {
        pick = rng.below(dataset.n());
      }
      rows.push_back(pick);
      taken[pick] = 1;
      continue;
    }
    std::size_t fallback = 0;
    for (std::size_t i = 0; i < dataset.n(); ++i) {
      if (!taken[i]) {
        fallback = i;
      }
    }
    double target = rng.uniform() * total;
    std::size_t chosen = fallback;
    for (std::size_t i = 0; i < dataset.n(); ++i) {
      if (taken[i]) {
        continue;
      }
      target -= nearest[i];
      if (target <= 0) {
        chosen = i;
        break;
      }
    }
    rows.push_back(chosen);
    taken[chosen] = 1;
  }
  util::Matrix centroids(rows.size(), dataset.d());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto src = dataset.sample(rows[j]);
    std::copy(src.begin(), src.end(), centroids.row(j).begin());
  }
  return centroids;
}

bool same_bytes(const util::Matrix& a, const util::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) ==
             0;
}

data::Dataset repeated_rows(std::size_t distinct, std::size_t copies,
                            std::size_t d) {
  const data::Dataset base = data::make_uniform(distinct, d, 9);
  util::Matrix m(distinct * copies, d);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const auto src = base.sample(i % distinct);
    std::copy(src.begin(), src.end(), m.row(i).begin());
  }
  return data::Dataset("repeated", std::move(m));
}

TEST(Init, PlusPlusMatchesFrozenSerial) {
  struct Case {
    std::string what;
    data::Dataset ds;
    std::size_t k;
  };
  std::vector<Case> cases;
  cases.push_back({"ilsvrc-like d=3072", data::make_ilsvrc_like(61, 32, 2), 12});
  cases.push_back({"road-like d=4", data::make_road_like(3001, 3), 40});
  cases.push_back({"uniform", data::make_uniform(700, 16, 4), 64});
  cases.push_back({"census-like", data::make_census_like(517, 5), 30});
  cases.push_back({"n < 8", data::make_uniform(5, 3, 6), 4});
  cases.push_back({"n not a multiple of threads x chains",
                   data::make_uniform(157, 7, 7), 20});
  cases.push_back({"d = 1", data::make_uniform(203, 1, 8), 25});
  cases.push_back({"k == n", data::make_uniform(37, 5, 10), 37});
  cases.push_back({"all-duplicate rows", repeated_rows(1, 45, 6), 9});
  cases.push_back({"4 points, 10 copies each", repeated_rows(4, 10, 3), 12});
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const util::Matrix want = frozen_plus_plus(c.ds, c.k, seed);
      for (std::size_t threads : {1u, 2u, 3u, 4u, 5u, 8u}) {
        EXPECT_TRUE(same_bytes(
            detail::init_plus_plus(c.ds, c.k, seed, threads), want))
            << c.what << ", seed " << seed << ", " << threads << " threads";
      }
    }
    KmeansConfig config;
    config.k = c.k;
    config.init = InitMethod::kPlusPlus;
    EXPECT_TRUE(same_bytes(init_centroids(c.ds, config),
                           frozen_plus_plus(c.ds, c.k, config.seed)))
        << c.what << " through init_centroids";
  }
}

/// Samples along one axis at small integer positions (other coordinates
/// 0), so every squared distance is an exact integer and many sample-seed-
/// seed triples sit exactly on the skip test's 2x boundary: a sample
/// halfway between two seeds has cc = 4 * nearest.
data::Dataset lattice_on_a_line(std::size_t n, std::size_t d) {
  util::Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    m.at(i, 0) = static_cast<float>(2 * (i % 17));
  }
  return data::Dataset("lattice", std::move(m));
}

/// Rows whose entries span 2^-20..2^20, so the rounding of every squared
/// term matters, clustered around a few centres so that pruning pays.
data::Dataset wide_range_clusters(std::size_t n, std::size_t d) {
  util::Xoshiro256 rng(23);
  util::Matrix centres(5, d);
  for (float& v : centres.flat()) {
    v = static_cast<float>(std::ldexp(rng.uniform(-1.0, 1.0),
                                      static_cast<int>(rng.below(41)) - 20));
  }
  util::Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t u = 0; u < d; ++u) {
      const float c = centres.at(i % 5, u);
      m.at(i, u) = c + c * static_cast<float>(rng.uniform(-1e-3, 1e-3));
    }
  }
  return data::Dataset("wide", std::move(m));
}

/// A large common offset with a small spread: the differences cancel most
/// of each value's bits.
data::Dataset offset_clusters(std::size_t n, std::size_t d) {
  data::Dataset base = data::make_blobs(n, d, 6, 31, 1.0, 0.05);
  for (float& v : base.samples().flat()) {
    v += 1.0e5f;
  }
  return base;
}

TEST(Init, PrunedSweepMatchesFrozenSerial) {
  // The triangle-inequality skip must leave every chosen row as the frozen
  // serial loop picks it, at every team size, on shapes where the skip
  // really runs: clustered data at d >= 64 and k >= 32, samples exactly on
  // the 2x bound, extreme magnitudes, large offsets, duplicate rows and
  // k == n. d = 1 is below the skip test's cost, so it never prunes.
  struct Case {
    std::string what;
    data::Dataset ds;
    std::size_t k;
    bool prunes;
  };
  std::vector<Case> cases;
  cases.push_back({"blobs d=64 k=40", data::make_blobs(640, 64, 8, 5, 6.0, 0.5),
                   40, true});
  cases.push_back({"blobs d=96 k=64", data::make_blobs(517, 96, 12, 6), 64,
                   true});
  cases.push_back({"samples on the 2x boundary", lattice_on_a_line(300, 12),
                   17, true});
  cases.push_back({"values 2^-20..2^20", wide_range_clusters(403, 33), 32,
                   true});
  cases.push_back({"offset 1e5, spread 0.05", offset_clusters(350, 64), 40,
                   true});
  cases.push_back({"4 points, 30 copies each", repeated_rows(4, 30, 16), 40,
                   true});
  cases.push_back({"k == n", data::make_blobs(61, 20, 3, 8), 61, true});
  cases.push_back({"d = 1", data::make_uniform(203, 1, 8), 25, false});
  for (const Case& c : cases) {
    const std::uint64_t n = c.ds.n();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      const util::Matrix want = frozen_plus_plus(c.ds, c.k, seed);
      for (std::size_t threads = 1; threads <= 8; ++threads) {
        detail::SeedingStats stats;
        EXPECT_TRUE(same_bytes(
            detail::init_plus_plus(c.ds, c.k, seed, threads, &stats), want))
            << c.what << ", seed " << seed << ", " << threads << " threads";
        EXPECT_EQ(stats.distances + stats.skipped + stats.filtered,
                  n * (c.k - 1))
            << c.what;
        if (c.prunes) {
          EXPECT_GT(stats.pruned_picks, 0u) << c.what;
          EXPECT_GT(stats.skipped, 0u) << c.what;
        } else {
          EXPECT_EQ(stats.pruned_picks, 0u) << c.what;
          EXPECT_EQ(stats.skipped, 0u) << c.what;
        }
      }
    }
  }
}

TEST(Init, PrunedSweepKernelsSkipOnlyWhatCannotMove) {
  // Both builds of the pruned sweep against a direct evaluation of its
  // contract, on every count / d remainder and every mix of skipped and
  // kept samples inside a block: a kept sample folds exactly
  // squared_distance into nearest and owner with a strict `<`, a skipped
  // one is left alone, and the return value counts the skipped.
  util::Xoshiro256 rng(29);
  for (std::size_t d : {9u, 12u, 13u, 37u, 64u}) {
    util::Matrix m(40, d);
    for (float& v : m.flat()) {
      v = static_cast<float>(std::ldexp(rng.uniform(-1.0, 1.0),
                                        static_cast<int>(rng.below(41)) - 20));
    }
    const data::Dataset ds("wide", std::move(m));
    const std::vector<double> cc = {1e30, 0.0, 1e-30};
    const detail::SweepPick pick{ds.sample(39), 3, cc.data()};
    const double scale = detail::seeding_skip_scale(d);
    for (std::size_t count = 0; count <= 39; ++count) {
      std::vector<double> start(count);
      std::vector<std::uint32_t> start_owner(count);
      std::vector<double> want(count);
      std::vector<std::uint32_t> want_owner(count);
      std::size_t want_skipped = 0;
      for (std::size_t i = 0; i < count; ++i) {
        start[i] = i % 3 == 0 ? 1e-3 : 1e30;
        start_owner[i] = static_cast<std::uint32_t>(rng.below(3));
        want[i] = start[i];
        want_owner[i] = start_owner[i];
        if (cc[start_owner[i]] >= scale * start[i]) {
          ++want_skipped;
          continue;
        }
        const double dist = detail::squared_distance(ds.sample(i), pick.c);
        if (dist < want[i]) {
          want[i] = dist;
          want_owner[i] = pick.id;
        }
      }
      for (const auto sweep :
           {detail::pruned_sweep, &detail::pruned_sweep_generic}) {
        std::vector<double> got = start;
        std::vector<std::uint32_t> got_owner = start_owner;
        EXPECT_EQ(sweep(ds.samples().data(), count, d, pick, got.data(),
                        got_owner.data())
                      .skipped,
                  want_skipped)
            << "d " << d << ", count " << count;
        EXPECT_EQ(got, want) << "d " << d << ", count " << count;
        EXPECT_EQ(got_owner, want_owner) << "d " << d << ", count " << count;
      }
    }
  }
}

/// Rows of `d` values drawn from one magnitude family: `exponent` scales
/// uniform values in [-1, 1) by 2^exponent, and exponent 0 with
/// `integers` gives small integers, whose squared distances are exact in
/// fp32 and in double.
data::Dataset magnitude_rows(std::size_t n, std::size_t d, int exponent,
                             bool integers, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  util::Matrix m(n, d);
  for (float& v : m.flat()) {
    v = integers ? static_cast<float>(static_cast<int>(rng.below(17)) - 8)
                 : static_cast<float>(
                       std::ldexp(rng.uniform(-1.0, 1.0), exponent));
  }
  return data::Dataset("magnitudes", std::move(m));
}

TEST(Init, Fp32BoundSkipsOnlyWhatCannotMove) {
  // Both pruned-sweep builds against a direct evaluation of the exact
  // sweep: the fp32 bound may leave a distance out only when the exact
  // distance could not have moved nearest[] or owner[]. The starting
  // nearest[i] sits at the exact distance E to the new seed (a tie with
  // the owner seed), one ulp above it (E wins on a strict `<`), one ulp
  // below it, at DBL_MAX (the first pick), or far above or below. The
  // families reach fp32 subnormal squares (2^-70) and squares that
  // overflow fp32 but not double (2^64); both lie outside the bound's
  // certified range and must take the exact path.
  struct Family {
    const char* what;
    int exponent;
    bool integers;
    bool certified;
  };
  const Family families[] = {{"integers", 0, true, true},
                             {"2^-70", -70, false, false},
                             {"2^-20", -20, false, true},
                             {"unit", 0, false, true},
                             {"2^20", 20, false, true},
                             {"2^64", 64, false, false}};
  const std::vector<double> cc = {1e300, 0.0, 1e-300};
  for (const std::size_t d : {9u, 67u, 3072u}) {
    std::size_t filtered[2] = {0, 0};
    for (const Family& family : families) {
      const data::Dataset ds =
          magnitude_rows(41, d, family.exponent, family.integers, d);
      const auto c = ds.sample(40);
      const std::size_t count = 39;  // four full blocks and a ragged tail
      std::vector<double> start(count);
      std::vector<std::uint32_t> start_owner(count);
      for (std::size_t i = 0; i < count; ++i) {
        const double e = detail::squared_distance(ds.sample(i), c);
        const double starts[] = {e,
                                 std::nextafter(e, HUGE_VAL),
                                 std::nextafter(e, 0.0),
                                 std::numeric_limits<double>::max(),
                                 e * 0.25,
                                 e * 4.0};
        start[i] = starts[i % 6];
        start_owner[i] = static_cast<std::uint32_t>(i % 7 % 3);
      }
      for (const bool triangle : {false, true}) {
        const detail::SweepPick pick{c, 3, triangle ? cc.data() : nullptr};
        const double scale = detail::seeding_skip_scale(d);
        std::vector<double> want = start;
        std::vector<std::uint32_t> want_owner = start_owner;
        std::size_t want_skipped = 0;
        for (std::size_t i = 0; i < count; ++i) {
          if (triangle && cc[start_owner[i]] >= scale * start[i]) {
            ++want_skipped;
            continue;
          }
          const double dist = detail::squared_distance(ds.sample(i), c);
          if (dist < want[i]) {
            want[i] = dist;
            want_owner[i] = pick.id;
          }
        }
        std::size_t build = 0;
        for (const auto sweep :
             {detail::pruned_sweep, &detail::pruned_sweep_generic}) {
          std::vector<double> got = start;
          std::vector<std::uint32_t> got_owner = start_owner;
          const detail::SweepCounts counts =
              sweep(ds.samples().data(), count, d, pick, got.data(),
                    got_owner.data());
          const std::string where = std::string(family.what) + ", d " +
                                    std::to_string(d) +
                                    (triangle ? ", triangle" : ", plain") +
                                    ", build " + std::to_string(build);
          EXPECT_EQ(counts.skipped, want_skipped) << where;
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                count * sizeof(double)),
                    0)
              << where;
          EXPECT_EQ(got_owner, want_owner) << where;
          if (!family.certified) {
            EXPECT_EQ(counts.filtered, 0u) << where;
          }
          filtered[build++] += counts.filtered;
        }
      }
    }
    // The bound really screens: the starts far below E are filtered.
    EXPECT_GT(filtered[0], 0u) << "d " << d;
    EXPECT_GT(filtered[1], 0u) << "d " << d;
  }
}

TEST(Init, Fp32LowerBoundsStayBelowTheExactDistance) {
  // cc[] for the skip test: both builds give at most the exact distance
  // of every row, within 2 tau of it where the bound is certified, and
  // the exact distance itself outside that range (fp32 subnormal squares,
  // fp32 overflow, a row equal to the seed).
  const struct {
    int exponent;
    bool integers;
    bool certified;
  } families[] = {{0, true, true},   {-70, false, false}, {-20, false, true},
                  {0, false, true},  {20, false, true},   {64, false, false}};
  for (const std::size_t d : {9u, 67u, 3072u}) {
    const double tau = detail::seeding_bound_slack(d);
    for (const auto& family : families) {
      const data::Dataset ds =
          magnitude_rows(19, d, family.exponent, family.integers, d + 1);
      const auto c = ds.sample(18);
      std::vector<const float*> rows;
      for (std::size_t j = 0; j < 19; ++j) {
        rows.push_back(ds.sample(j).data());
      }
      for (std::size_t count = 1; count <= 19; count += 6) {
        for (const auto lower : {detail::distance_lower_bounds,
                                 &detail::distance_lower_bounds_generic}) {
          std::vector<double> got(count);
          lower(rows.data(), count, d, c, got.data());
          for (std::size_t j = 0; j < count; ++j) {
            const double exact = detail::squared_distance(ds.sample(j), c);
            const std::string where = "exponent " +
                                      std::to_string(family.exponent) +
                                      ", d " + std::to_string(d) + ", row " +
                                      std::to_string(j);
            EXPECT_LE(got[j], exact) << where;
            if (j == 18 || !family.certified) {
              EXPECT_EQ(got[j], exact) << where;
            } else {
              EXPECT_GE(got[j], exact * (1 - 2 * tau)) << where;
            }
          }
        }
      }
    }
  }
}

TEST(Init, SweepKernelsMatchSquaredDistance) {
  // Every sweep build, on every count / d remainder, folds exactly
  // squared_distance into the running minimum (all values are positive
  // and finite, so == is bit equality). Values span 2^-20..2^20, so the
  // squared terms round differently in any other summation order.
  util::Xoshiro256 rng(17);
  for (std::size_t d : {1u, 3u, 4u, 5u, 8u, 13u, 37u}) {
    util::Matrix m(26, d);
    for (float& v : m.flat()) {
      v = static_cast<float>(std::ldexp(rng.uniform(-1.0, 1.0),
                                        static_cast<int>(rng.below(41)) - 20));
    }
    const data::Dataset ds("wide", std::move(m));
    const auto c = ds.sample(25);
    for (std::size_t count = 0; count <= 25; ++count) {
      std::vector<double> start(count);
      std::vector<double> want(count);
      for (std::size_t i = 0; i < count; ++i) {
        start[i] = i % 3 == 0 ? 1e-3 : 1e30;
        want[i] =
            std::min(start[i], detail::squared_distance(ds.sample(i), c));
      }
      for (const auto sweep :
           {detail::nearest_sweep, &detail::nearest_sweep_generic}) {
        std::vector<double> got = start;
        sweep(ds.samples().data(), count, d, c, got.data());
        EXPECT_EQ(got, want) << "d " << d << ", count " << count;
      }
    }
  }
}

TEST(Init, PlusPlusMatchesFrozenSerialAcrossBlockLayouts) {
  // n = 70001 gives every member of a 1-8 thread team several 2048-row
  // pick blocks and a short last one, so the block sums the pick starts
  // from differ with the team size while the chosen rows must not. d = 2
  // runs the plain sweep, d = 16 the pruned one. No pick may need the
  // serial scan: the blocked selection is what runs.
  struct Case {
    std::string what;
    data::Dataset ds;
    bool prunes;
  };
  std::vector<Case> cases;
  cases.push_back({"plain sweep d=2", data::make_uniform(70001, 2, 12), false});
  cases.push_back({"pruned sweep d=16",
                   data::make_blobs(70001, 16, 8, 13, 6.0, 0.5), true});
  const std::size_t k = 20;
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1u, 2u}) {
      const util::Matrix want = frozen_plus_plus(c.ds, k, seed);
      for (std::size_t threads = 1; threads <= 8; ++threads) {
        detail::SeedingStats stats;
        EXPECT_TRUE(same_bytes(
            detail::init_plus_plus(c.ds, k, seed, threads, &stats), want))
            << c.what << ", seed " << seed << ", " << threads << " threads";
        EXPECT_EQ(stats.pick_fallbacks, 0u) << c.what << ", seed " << seed;
        EXPECT_EQ(stats.pruned_picks > 0, c.prunes) << c.what;
      }
    }
  }
}

/// The selection step of frozen_plus_plus for draw `u`, and whether
/// rounding left the target positive after the last row.
std::pair<std::size_t, bool> frozen_scan(const std::vector<double>& weights,
                                         const std::vector<char>& taken,
                                         double u) {
  double total = 0;
  std::size_t fallback = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    if (!taken[i]) {
      fallback = i;
    }
  }
  double target = u * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (taken[i]) {
      continue;
    }
    target -= weights[i];
    if (target <= 0) {
      return {i, false};
    }
  }
  return {fallback, true};
}

/// Blocks ending at `ends` (the last must be weights.size()), each summed
/// in index order.
std::vector<detail::WeightBlock> blocks_at(
    const std::vector<double>& weights, const std::vector<std::size_t>& ends) {
  std::vector<detail::WeightBlock> blocks;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += weights[i];
    }
    blocks.push_back({end, sum});
    begin = end;
  }
  return blocks;
}

std::vector<detail::WeightBlock> blocks_of(const std::vector<double>& weights,
                                           std::size_t rows) {
  std::vector<std::size_t> ends;
  for (std::size_t b = rows; b < weights.size() + rows; b += rows) {
    ends.push_back(std::min(b, weights.size()));
  }
  return blocks_at(weights, ends);
}

TEST(Init, WeightedPickCertifiesCrossingsOnBlockEdges) {
  // Unit weights: the goal u * 4096 crosses at row floor(goal), half a
  // weight from both prefixes, on the last row of one block and the first
  // of the next, for aligned and ragged layouts.
  const std::vector<double> weights(4096, 1.0);
  const std::vector<char> taken(weights.size(), 0);
  for (const auto& blocks :
       {blocks_of(weights, 2048), blocks_at(weights, {1000, 2048, 2049, 4096}),
        blocks_at(weights, {2047, 4096})}) {
    for (const double goal : {2046.5, 2047.5, 2048.5, 999.5, 0.5, 4095.5}) {
      const double u = goal / 4096;
      const detail::WeightedPick got =
          detail::weighted_pick(weights, taken, blocks, u);
      EXPECT_EQ(got.row, frozen_scan(weights, taken, u).first) << goal;
      EXPECT_EQ(got.row, static_cast<std::size_t>(goal)) << goal;
      EXPECT_FALSE(got.fell_back) << goal;
    }
  }
}

TEST(Init, WeightedPickFallsBackWithinTheMargin) {
  // A goal exactly on a prefix, or 2^-28 past one (under the margin of
  // about 2^-25 at n = 4096 and total 4096), cannot be certified: the pick
  // runs the serial scan and still returns its row.
  const std::vector<double> weights(4096, 1.0);
  const std::vector<char> taken(weights.size(), 0);
  const auto blocks = blocks_of(weights, 2048);
  for (const double goal : {2048.0, 2048.0 + 0x1p-28, 2048.0 - 0x1p-28, 17.0,
                            1.0 + 0x1p-30}) {
    const double u = goal / 4096;
    const detail::WeightedPick got =
        detail::weighted_pick(weights, taken, blocks, u);
    EXPECT_EQ(got.row, frozen_scan(weights, taken, u).first) << goal;
    EXPECT_TRUE(got.fell_back) << goal;
  }
  // Rounded prefixes running ahead of the serial chain: 1, then sixteen
  // weights of 1.75 ulp(1), each added as 2 ulp. Goal 1 + 21 ulp falls
  // between the prefixes of rows 10 and 11, one ulp from each, while the
  // serial chain, subtracting 1.75 ulp exactly, first reaches 0 at row 12.
  std::vector<double> ahead(17, 1.75 * 0x1p-52);
  ahead[0] = 1.0;
  const std::vector<char> none(ahead.size(), 0);
  const double u = 1.0 - 11 * 0x1p-52;
  const detail::WeightedPick got =
      detail::weighted_pick(ahead, none, blocks_of(ahead, 2048), u);
  EXPECT_EQ(frozen_scan(ahead, none, u).first, 12u);
  EXPECT_EQ(got.row, 12u);
  EXPECT_TRUE(got.fell_back);
}

TEST(Init, WeightedPickSkipsTakenRowsAroundTheCrossing) {
  // Taken rows just before and at the crossing, weighing zero (as seeds do)
  // or, inside the walked block, not: the pick skips them as the serial
  // scan does, whether it certifies the row or falls back.
  for (const double taken_weight : {0.0, 1.0}) {
    for (const std::vector<std::size_t>& marked :
         {std::vector<std::size_t>{999}, {1000}, {999, 1000}, {1000, 1001},
          {2046, 2047}}) {
      std::vector<double> weights(4096, 1.0);
      std::vector<char> taken(weights.size(), 0);
      for (const std::size_t i : marked) {
        taken[i] = 1;
        weights[i] = taken_weight;
      }
      const auto blocks = blocks_of(weights, 2048);
      double total = 0;
      for (const double w : weights) {
        total += w;
      }
      for (const double goal : {999.5, 1000.5, 1001.5, 2045.5, 2046.5}) {
        const double u = goal / total;
        EXPECT_EQ(detail::weighted_pick(weights, taken, blocks, u).row,
                  frozen_scan(weights, taken, u).first)
            << "taken weight " << taken_weight << ", first taken row "
            << marked[0] << ", goal " << goal;
      }
    }
  }
}

TEST(Init, WeightedPickZeroDrawAndZeroWeights) {
  // u = 0 (goal 0) and all-zero weights (total 0) cannot be certified; the
  // serial scan takes the first untaken row.
  util::Xoshiro256 rng(41);
  std::vector<double> weights(3000);
  for (double& w : weights) {
    w = rng.uniform(0.5, 2.0);
  }
  std::vector<char> taken(weights.size(), 0);
  taken[0] = 1;
  taken[1] = 1;
  weights[0] = 0;
  weights[1] = 0;
  const auto blocks = blocks_of(weights, 2048);
  detail::WeightedPick got = detail::weighted_pick(weights, taken, blocks, 0.0);
  EXPECT_EQ(got.row, 2u);
  EXPECT_EQ(got.row, frozen_scan(weights, taken, 0.0).first);
  EXPECT_TRUE(got.fell_back);

  const std::vector<double> zeros(weights.size(), 0.0);
  for (const double u : {0.0, 0.5}) {
    got = detail::weighted_pick(zeros, taken, blocks_of(zeros, 2048), u);
    EXPECT_EQ(got.row, 2u);
    EXPECT_EQ(got.row, frozen_scan(zeros, taken, u).first);
    EXPECT_TRUE(got.fell_back);
  }
}

TEST(Init, WeightedPickMatchesTheSerialScanOnWideRangeWeights) {
  // Weights from 2^-40 to 2^40 (every sum rounds), taken rows at zero
  // weight, three layouts and 300 draws each: every row is the serial
  // scan's, and the blocked selection certifies almost all of them.
  util::Xoshiro256 rng(43);
  std::vector<double> weights(10007);
  std::vector<char> taken(weights.size(), 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = std::ldexp(rng.uniform(0.5, 1.0),
                            static_cast<int>(rng.below(81)) - 40);
    if (rng.below(50) == 0) {
      taken[i] = 1;
      weights[i] = 0;
    }
  }
  for (const auto& blocks :
       {blocks_of(weights, 2048), blocks_of(weights, 700),
        blocks_at(weights, {1, 5000, 5001, 10007})}) {
    std::size_t fell_back = 0;
    for (int draw = 0; draw < 300; ++draw) {
      const double u = rng.uniform();
      const detail::WeightedPick got =
          detail::weighted_pick(weights, taken, blocks, u);
      EXPECT_EQ(got.row, frozen_scan(weights, taken, u).first) << u;
      fell_back += got.fell_back ? 1 : 0;
    }
    EXPECT_LE(fell_back, 3u);
  }
}

TEST(Init, WeightedPickKeepsTheRoundingFallbackRow) {
  // 1 then eight weights of 0.75 ulp(1): each add rounds the total up by a
  // quarter ulp, so at u = 1 - 2^-53 the serial target outlasts every
  // subtraction and the scan returns the last untaken row.
  std::vector<double> weights(9, 0.75 * 0x1p-52);
  weights[0] = 1.0;
  const double u = 1.0 - 0x1p-53;
  for (const bool last_taken : {false, true}) {
    std::vector<char> taken(weights.size(), 0);
    std::vector<double> w = weights;
    if (last_taken) {
      taken.push_back(1);
      w.push_back(0.0);
    }
    const auto [want, ran_off] = frozen_scan(w, taken, u);
    ASSERT_TRUE(ran_off);
    EXPECT_EQ(want, 8u);
    const detail::WeightedPick got =
        detail::weighted_pick(w, taken, blocks_of(w, 2048), u);
    EXPECT_EQ(got.row, want);
    EXPECT_TRUE(got.fell_back);
  }
}

TEST(Init, NonFiniteSampleRejectedWithRowAndColumn) {
  const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  for (const float bad : bad_values) {
    for (const auto& [row, col] : {std::pair<std::size_t, std::size_t>{0, 0},
                                   std::pair<std::size_t, std::size_t>{11, 2}}) {
      data::Dataset ds = data::make_uniform(12, 3, 1);
      ds.samples().at(row, col) = bad;
      for (const InitMethod init :
           {InitMethod::kFirstK, InitMethod::kRandom, InitMethod::kPlusPlus}) {
        KmeansConfig config;
        config.k = 4;
        config.init = init;
        try {
          (void)init_centroids(ds, config);
          ADD_FAILURE() << "accepted " << bad << " at row " << row;
        } catch (const swhkm::InvalidArgument& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find("row " + std::to_string(row) + " column " +
                              std::to_string(col)),
                    std::string::npos)
              << what;
        }
      }
    }
  }
}

TEST(Init, RequireFiniteNamesTheLowestBadRowOnAnyTeam) {
  // Bad rows in several slices of a split scan: the lowest is named, at
  // every team size, including teams larger than n.
  data::Dataset ds = data::make_uniform(37, 5, 3);
  ds.samples().at(30, 1) = std::numeric_limits<float>::infinity();
  ds.samples().at(9, 4) = std::numeric_limits<float>::quiet_NaN();
  ds.samples().at(21, 0) = -std::numeric_limits<float>::infinity();
  for (std::size_t threads = 1; threads <= 40; threads += 3) {
    try {
      detail::require_finite(ds, threads);
      ADD_FAILURE() << "accepted with " << threads << " threads";
    } catch (const swhkm::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("row 9 column 4"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(detail::require_finite(data::make_uniform(37, 5, 3), 4));
}

TEST(Init, KLargerThanNRejected) {
  const data::Dataset ds = data::make_uniform(5, 2, 1);
  KmeansConfig config;
  config.k = 6;
  EXPECT_THROW(init_centroids(ds, config), swhkm::InvalidArgument);
}

TEST(Lloyd, RecoversWellSeparatedBlobs) {
  const data::Dataset ds = data::make_blobs(300, 8, 3, 42);
  KmeansConfig config;
  config.k = 3;
  config.max_iterations = 50;
  const KmeansResult result = lloyd_serial(ds, config);
  EXPECT_TRUE(result.converged);
  // Round-robin memberships: samples i and i+3 share a cluster.
  for (std::size_t i = 0; i + 3 < ds.n(); i += 17) {
    EXPECT_EQ(result.assignments[i], result.assignments[i + 3]);
  }
  const auto sizes = cluster_sizes(result.assignments, 3);
  for (std::size_t s : sizes) {
    EXPECT_EQ(s, 100u);
  }
}

TEST(Lloyd, AssignMatchesBruteForce) {
  const data::Dataset ds = data::make_uniform(64, 5, 9);
  KmeansConfig config;
  config.k = 7;
  const util::Matrix centroids = init_centroids(ds, config);
  const auto labels = assign_serial(ds, centroids);
  for (std::size_t i = 0; i < ds.n(); ++i) {
    double best = 1e300;
    std::uint32_t best_j = 0;
    for (std::size_t j = 0; j < 7; ++j) {
      double dist = 0;
      for (std::size_t u = 0; u < 5; ++u) {
        const double diff =
            double(ds.sample(i)[u]) - double(centroids.at(j, u));
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_j = static_cast<std::uint32_t>(j);
      }
    }
    EXPECT_EQ(labels[i], best_j) << "sample " << i;
  }
}

TEST(Lloyd, InertiaNeverIncreasesAcrossIterations) {
  // Lloyd's algorithm monotonically decreases the objective; check by
  // running 1, 2, 3 ... iterations from the same start.
  const data::Dataset ds = data::make_uniform(200, 4, 17);
  double prev = 1e300;
  for (std::size_t iters = 1; iters <= 6; ++iters) {
    KmeansConfig config;
    config.k = 5;
    config.max_iterations = iters;
    config.tolerance = 0;  // never stop early
    const KmeansResult result = lloyd_serial(ds, config);
    EXPECT_LE(result.inertia, prev + 1e-9) << iters;
    prev = result.inertia;
  }
}

TEST(Lloyd, EmptyClusterKeepsItsCentroid) {
  // Two samples, two centroids, one of which is far away and captures
  // nothing — it must stay put rather than NaN out.
  data::Dataset ds("x", util::Matrix::from_vector(2, 1, {0.0f, 1.0f}));
  KmeansConfig config;
  config.k = 2;
  config.max_iterations = 3;
  util::Matrix centroids = util::Matrix::from_vector(2, 1, {0.5f, 100.0f});
  const KmeansResult result =
      lloyd_serial_from(ds, config, std::move(centroids));
  EXPECT_EQ(result.centroids.at(1, 0), 100.0f);
  EXPECT_EQ(result.assignments[0], 0u);
  EXPECT_EQ(result.assignments[1], 0u);
}

TEST(Lloyd, KEqualsOneAveragesEverything) {
  data::Dataset ds("x", util::Matrix::from_vector(4, 1, {0, 2, 4, 6}));
  KmeansConfig config;
  config.k = 1;
  config.max_iterations = 5;
  const KmeansResult result = lloyd_serial(ds, config);
  EXPECT_FLOAT_EQ(result.centroids.at(0, 0), 3.0f);
  EXPECT_TRUE(result.converged);
}

TEST(Lloyd, KEqualsNPinsEachSample) {
  const data::Dataset ds = data::make_uniform(6, 2, 5);
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 10;
  const KmeansResult result = lloyd_serial(ds, config);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(Lloyd, ToleranceZeroRunsToMaxIterations) {
  const data::Dataset ds = data::make_uniform(100, 3, 2);
  KmeansConfig config;
  config.k = 4;
  config.max_iterations = 3;
  config.tolerance = -1.0;  // shift can never be <= -1
  const KmeansResult result = lloyd_serial(ds, config);
  EXPECT_EQ(result.iterations, 3u);
  EXPECT_FALSE(result.converged);
}

TEST(Lloyd, MismatchedStartRejected) {
  const data::Dataset ds = data::make_uniform(10, 3, 1);
  KmeansConfig config;
  config.k = 2;
  EXPECT_THROW(lloyd_serial_from(ds, config, util::Matrix(2, 4)),
               swhkm::InvalidArgument);
  EXPECT_THROW(lloyd_serial_from(ds, config, util::Matrix(3, 3)),
               swhkm::InvalidArgument);
}

TEST(Lloyd, TieBreaksTowardLowerIndex) {
  // A sample exactly between two centroids goes to the lower index.
  data::Dataset ds("x", util::Matrix::from_vector(1, 1, {0.0f}));
  util::Matrix centroids = util::Matrix::from_vector(2, 1, {1.0f, -1.0f});
  const auto labels = assign_serial(ds, centroids);
  EXPECT_EQ(labels[0], 0u);
}

}  // namespace
}  // namespace swhkm::core
