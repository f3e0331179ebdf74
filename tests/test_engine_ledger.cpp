// Pins the engines' modeled ledger bit for bit.
//
// Every cell runs one engine level on a fixed workload and serializes the
// whole modeled story — each history row's simulated seconds, its six
// phase seconds and its volume counters, the run's total and last-iteration
// CostTally (overlap ledgers included), and the accel distance counters —
// as hexfloat / decimal text. The CRC-32 of that text is pinned per cell,
// so any change to a charge, its order of summation, or the rank it lands
// on fails here. On a mismatch the test prints the full text, which can be
// diffed against the same test built from a known-good tree.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/hkmeans.hpp"
#include "util/crc32.hpp"

namespace swhkm::core {
namespace {

using simarch::MachineConfig;

void append_double(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%a", name, v);
  out += buf;
}

void append_u64(std::string& out, const char* name, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%" PRIu64, name, v);
  out += buf;
}

void append_tally(std::string& out, const char* label,
                  const simarch::CostTally& t) {
  out += label;
  append_double(out, "sample_read_s", t.sample_read_s);
  append_double(out, "centroid_stream_s", t.centroid_stream_s);
  append_double(out, "compute_s", t.compute_s);
  append_double(out, "mesh_comm_s", t.mesh_comm_s);
  append_double(out, "net_comm_s", t.net_comm_s);
  append_double(out, "update_s", t.update_s);
  append_double(out, "overlapped_dma_s", t.overlapped_dma_s);
  append_double(out, "overlapped_net_s", t.overlapped_net_s);
  append_u64(out, "dma_bytes", t.dma_bytes);
  append_u64(out, "reg_bytes", t.reg_bytes);
  append_u64(out, "net_bytes", t.net_bytes);
  append_u64(out, "flops", t.flops);
  append_u64(out, "pruned_samples", t.pruned_samples);
  append_u64(out, "net_rounds", t.net_rounds);
  append_u64(out, "net_crossing_bytes", t.net_crossing_bytes);
  append_u64(out, "sdc_recomputed", t.sdc_recomputed);
  out += '\n';
}

/// The modeled ledger of one run as text, one line per history row.
std::string ledger_text(const KmeansResult& r) {
  std::string out;
  append_u64(out, "iterations", r.iterations);
  out += '\n';
  for (std::size_t i = 0; i < r.history.size(); ++i) {
    const IterationStats& h = r.history[i];
    out += "iter " + std::to_string(i);
    append_double(out, "simulated_s", h.simulated_s);
    append_double(out, "sample_read_s", h.sample_read_s);
    append_double(out, "centroid_stream_s", h.centroid_stream_s);
    append_double(out, "compute_s", h.compute_s);
    append_double(out, "mesh_comm_s", h.mesh_comm_s);
    append_double(out, "net_comm_s", h.net_comm_s);
    append_double(out, "update_s", h.update_s);
    append_double(out, "prune_rate", h.prune_rate);
    append_u64(out, "net_bytes", h.net_bytes);
    append_u64(out, "dma_bytes", h.dma_bytes);
    append_u64(out, "flops", h.flops);
    append_u64(out, "net_rounds", h.net_rounds);
    append_u64(out, "net_crossing_bytes", h.net_crossing_bytes);
    append_u64(out, "sdc_recomputed", h.sdc_recomputed);
    out += '\n';
  }
  append_tally(out, "cost", r.cost);
  append_tally(out, "last", r.last_iteration_cost);
  out += "accel";
  append_u64(out, "distance_computations", r.accel.distance_computations);
  append_u64(out, "lloyd_equivalent", r.accel.lloyd_equivalent);
  append_u64(out, "centroid_distance_computations",
             r.accel.centroid_distance_computations);
  out += '\n';
  return out;
}

std::uint32_t text_crc(const std::string& text) {
  return util::crc32(std::as_bytes(std::span(text.data(), text.size())));
}

struct LedgerCell {
  std::string name;
  Level level;
  MachineConfig machine;
  KmeansConfig config;
  std::size_t mprime_group;  ///< Level 3 CG-group size (0 = smallest)
  data::Dataset dataset;
  std::uint32_t pinned_crc;
  std::size_t m_group = 0;  ///< Level 2 CPE-group size (0 = smallest)
};

/// Shared workload: converging blobs, small tiles so every worker runs
/// several tiles and the pipeline overlap model engages.
KmeansConfig base_config() {
  KmeansConfig config;
  config.k = 6;
  config.max_iterations = 9;
  config.tile_samples = 16;
  return config;
}

std::vector<LedgerCell> ledger_cells() {
  std::vector<LedgerCell> cells;
  const data::Dataset blobs = data::make_blobs(640, 12, 5, 17);
  const MachineConfig one_supernode = MachineConfig::tiny(2, 4, 8192);
  // tiny() puts 4 nodes in a supernode, so 8 nodes span two of them and
  // the hierarchical charges have crossing traffic to price.
  const MachineConfig two_supernodes = MachineConfig::tiny(8, 4, 8192);
  // 4 CPEs x 2 KiB: beside each level's layout, one CPE's LDM has no room
  // for its share of a 256-sample tile's GEMM scratch, so every level falls
  // back to the chain kernel. The Level 1 and 2 layouts (162 of 512
  // elements) leave too little for the tile's argmin records as well, so
  // their tile shrinks to 233 samples; 20-sample blocks run one tile
  // either way.
  const MachineConfig small_ldm = MachineConfig::tiny(2, 4, 2048);

  struct LevelPins {
    Level level;
    const char* tag;
    // sdc off, sdc on
    std::uint32_t sdc[2];
    // hier off, hier on (two supernodes)
    std::uint32_t hier[2];
    std::uint32_t downgrade;
  };
  const LevelPins pins[] = {
      {Level::kLevel1,
       "L1",
       {0x2f8faa12, 0xbb21f39a},
       {0xd03d5cef, 0xd9c61641},
       0xd035cd8a},
      {Level::kLevel2,
       "L2",
       {0x9a03ea7c, 0x12a2741c},
       {0xe738e970, 0x7daaaced},
       0x13b686ef},
      {Level::kLevel3,
       "L3",
       {0xef819b53, 0xc2ccb947},
       {0x85cb2585, 0x59fafa00},
       0x8af5b850},
  };
  for (const LevelPins& p : pins) {
    const std::size_t mprime = p.level == Level::kLevel3 ? 2 : 0;
    for (int sdc = 0; sdc < 2; ++sdc) {
      KmeansConfig config = base_config();
      config.sdc_checks = sdc != 0;
      cells.push_back({std::string(p.tag) + "_sdc" + (sdc != 0 ? "On" : "Off"),
                       p.level, one_supernode, config, mprime, blobs,
                       p.sdc[sdc]});
    }
    for (int hier = 0; hier < 2; ++hier) {
      KmeansConfig config = base_config();
      config.hier_collectives = hier != 0;
      // 64 CPEs leave 10 samples each: 4-sample tiles keep the pipeline
      // engaged. Level 3 groups all 16 CGs, so its per-tile combine
      // crosses the supernode boundary too.
      config.tile_samples = 4;
      cells.push_back({std::string(p.tag) + "_twoSupernodes_hier" +
                           (hier != 0 ? "On" : "Off"),
                       p.level, two_supernodes, config,
                       p.level == Level::kLevel3 ? 16 : mprime, blobs,
                       p.hier[hier]});
    }
    KmeansConfig config = base_config();
    config.tile_samples = 256;
    cells.push_back({std::string(p.tag) + "_gemmDowngrade", p.level,
                     small_ldm, config, mprime, blobs, p.downgrade});
  }
  {
    // k = 64 over 160 samples: iteration 1 gates, models dearer than
    // iteration 0's sweep, and the savings ledger turns the bounds off
    // for the rest of the run.
    KmeansConfig config = base_config();
    config.k = 64;
    cells.push_back({"L3_boundsOff", Level::kLevel3, one_supernode, config, 2,
                     data::make_blobs(160, 12, 5, 17), 0xdf3fdb4du});
  }
  {
    KmeansConfig config = base_config();
    config.tile_samples = 8;
    cells.push_back({"L3_tile8", Level::kLevel3, one_supernode, config, 2,
                     blobs, 0xe66d229du});
  }
  {
    // CPE groups of two: the group's argmin records and tighten distances
    // cross the register bus, one round per combine batch of a tile.
    cells.push_back({"L2_mGroup2", Level::kLevel2, one_supernode,
                     base_config(), 0, blobs, 0x4301bb09u, 2});
  }
  return cells;
}

void PrintTo(const LedgerCell& cell, std::ostream* os) { *os << cell.name; }

class EngineLedgerTest : public ::testing::TestWithParam<LedgerCell> {};

TEST_P(EngineLedgerTest, ModeledLedgerIsPinned) {
  const LedgerCell& cell = GetParam();
  const KmeansResult r =
      run_level(cell.level, cell.dataset, cell.config, cell.machine,
                cell.m_group, cell.mprime_group);
  const std::string text = ledger_text(r);
  const std::uint32_t crc = text_crc(text);
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08x", crc);
  EXPECT_EQ(crc, cell.pinned_crc)
      << cell.name << ": ledger CRC-32 " << hex << " differs from the pin\n"
      << text;
}

INSTANTIATE_TEST_SUITE_P(Cells, EngineLedgerTest,
                         ::testing::ValuesIn(ledger_cells()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace swhkm::core
