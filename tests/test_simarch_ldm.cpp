#include <gtest/gtest.h>

#include "simarch/ldm.hpp"
#include "util/error.hpp"

namespace swhkm::simarch {
namespace {

TEST(Ldm, StartsEmpty) {
  LdmAllocator ldm(1024);
  EXPECT_EQ(ldm.capacity(), 1024u);
  EXPECT_EQ(ldm.used(), 0u);
  EXPECT_EQ(ldm.remaining(), 1024u);
  EXPECT_EQ(ldm.live_blocks(), 0u);
}

TEST(Ldm, AllocTracksUsage) {
  LdmAllocator ldm(1024);
  ldm.alloc("a", 100);
  ldm.alloc("b", 200);
  EXPECT_EQ(ldm.used(), 300u);
  EXPECT_EQ(ldm.remaining(), 724u);
  EXPECT_EQ(ldm.live_blocks(), 2u);
}

TEST(Ldm, ExactFillIsAllowed) {
  LdmAllocator ldm(256);
  ldm.alloc("all", 256);
  EXPECT_EQ(ldm.remaining(), 0u);
}

TEST(Ldm, OverflowThrowsCapacityError) {
  LdmAllocator ldm(256);
  ldm.alloc("a", 200);
  EXPECT_THROW(ldm.alloc("b", 57), CapacityError);
  // the failed alloc must not corrupt state
  EXPECT_EQ(ldm.used(), 200u);
  EXPECT_EQ(ldm.live_blocks(), 1u);
}

TEST(Ldm, OverflowMessageNamesBlocks) {
  LdmAllocator ldm(256);
  ldm.alloc("sample", 200);
  try {
    ldm.alloc("centroids", 100);
    FAIL();
  } catch (const CapacityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("centroids"), std::string::npos);
    EXPECT_NE(what.find("sample"), std::string::npos);
  }
}

TEST(Ldm, FreeIsLifo) {
  LdmAllocator ldm(1024);
  ldm.alloc("a", 100);
  ldm.alloc("b", 100);
  EXPECT_THROW(ldm.free("a"), RuntimeFault);
  ldm.free("b");
  ldm.free("a");
  EXPECT_EQ(ldm.used(), 0u);
}

TEST(Ldm, FreeOnEmptyThrows) {
  LdmAllocator ldm(64);
  EXPECT_THROW(ldm.free("ghost"), RuntimeFault);
}

TEST(Ldm, HighWaterPersistsAfterFree) {
  LdmAllocator ldm(1024);
  ldm.alloc("a", 600);
  ldm.free("a");
  ldm.alloc("b", 100);
  EXPECT_EQ(ldm.high_water(), 600u);
  EXPECT_EQ(ldm.used(), 100u);
}

TEST(Ldm, ResetClearsEverythingButCapacity) {
  LdmAllocator ldm(1024);
  ldm.alloc("a", 512);
  ldm.reset();
  EXPECT_EQ(ldm.used(), 0u);
  EXPECT_EQ(ldm.live_blocks(), 0u);
  ldm.alloc("again", 1024);  // full capacity available again
}

TEST(Ldm, ZeroByteAllocationIsFine) {
  LdmAllocator ldm(16);
  ldm.alloc("empty", 0);
  EXPECT_EQ(ldm.live_blocks(), 1u);
  ldm.free("empty");
}

TEST(Ldm, LayoutListsBlocks) {
  LdmAllocator ldm(2048);
  ldm.alloc("sample", 1024);
  const std::string layout = ldm.layout();
  EXPECT_NE(layout.find("sample"), std::string::npos);
  EXPECT_NE(layout.find("1.00 KiB"), std::string::npos);
}

TEST(Ldm, SixtyFourKiBMatchesSw26010) {
  // The paper's LDM in elements: 64 KiB / 4 B = 16384 — the constant every
  // constraint in Section III is written against.
  LdmAllocator ldm(64 * 1024);
  ldm.alloc("elements", 16384 * 4);
  EXPECT_EQ(ldm.remaining(), 0u);
}

}  // namespace
}  // namespace swhkm::simarch
