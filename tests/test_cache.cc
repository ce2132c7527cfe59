/**
 * @file
 * Unit tests for the set-associative tag store.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace oscar
{
namespace
{

CacheGeometry
smallGeometry()
{
    // 4 sets x 2 ways of 64 B lines = 512 B.
    return CacheGeometry{512, 2, 64};
}

TEST(CacheGeometry, SetsComputed)
{
    EXPECT_EQ(smallGeometry().sets(), 4u);
    EXPECT_EQ((CacheGeometry{32 * 1024, 2, 64}).sets(), 256u);
    EXPECT_EQ((CacheGeometry{1024 * 1024, 16, 64}).sets(), 1024u);
}

TEST(Cache, MissOnEmpty)
{
    SetAssocCache cache("t", smallGeometry());
    EXPECT_EQ(cache.access(0), MesiState::Invalid);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, HitAfterInsert)
{
    SetAssocCache cache("t", smallGeometry());
    EXPECT_FALSE(cache.insert(5, MesiState::Exclusive).has_value());
    EXPECT_EQ(cache.access(5), MesiState::Exclusive);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    SetAssocCache cache("t", smallGeometry());
    // Two lines in the same set (line addr differs by number of sets).
    cache.insert(0, MesiState::Shared);
    cache.insert(4, MesiState::Shared);
    // Probing line 0 must not refresh it...
    EXPECT_EQ(cache.probe(0), MesiState::Shared);
    // ...so inserting a third line in the set evicts line 0 (LRU).
    const auto evicted = cache.insert(8, MesiState::Shared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, 0u);
}

TEST(Cache, AccessRefreshesLru)
{
    SetAssocCache cache("t", smallGeometry());
    cache.insert(0, MesiState::Shared);
    cache.insert(4, MesiState::Shared);
    EXPECT_NE(cache.access(0), MesiState::Invalid); // 0 becomes MRU
    const auto evicted = cache.insert(8, MesiState::Shared);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, 4u);
}

TEST(Cache, EvictionReportsState)
{
    SetAssocCache cache("t", smallGeometry());
    cache.insert(0, MesiState::Modified);
    cache.insert(4, MesiState::Shared);
    const auto evicted = cache.insert(8, MesiState::Exclusive);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->state, MesiState::Modified);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(Cache, ReinsertRefreshesState)
{
    SetAssocCache cache("t", smallGeometry());
    cache.insert(3, MesiState::Shared);
    EXPECT_FALSE(cache.insert(3, MesiState::Modified).has_value());
    EXPECT_EQ(cache.probe(3), MesiState::Modified);
    EXPECT_EQ(cache.residentLines(), 1u);
}

TEST(Cache, SetStateChangesState)
{
    SetAssocCache cache("t", smallGeometry());
    cache.insert(7, MesiState::Exclusive);
    cache.setState(7, MesiState::Shared);
    EXPECT_EQ(cache.probe(7), MesiState::Shared);
}

TEST(CacheDeath, SetStateOnMissingLinePanics)
{
    SetAssocCache cache("t", smallGeometry());
    EXPECT_DEATH(cache.setState(99, MesiState::Shared), "");
}

TEST(Cache, InvalidateReturnsOldState)
{
    SetAssocCache cache("t", smallGeometry());
    cache.insert(9, MesiState::Modified);
    EXPECT_EQ(cache.invalidate(9), MesiState::Modified);
    EXPECT_EQ(cache.probe(9), MesiState::Invalid);
    EXPECT_EQ(cache.invalidate(9), MesiState::Invalid);
}

TEST(Cache, InvalidateAllEmptiesCache)
{
    SetAssocCache cache("t", smallGeometry());
    for (Addr line = 0; line < 8; ++line)
        cache.insert(line, MesiState::Shared);
    EXPECT_GT(cache.residentLines(), 0u);
    cache.invalidateAll();
    EXPECT_EQ(cache.residentLines(), 0u);
}

TEST(Cache, CapacityIsRespected)
{
    SetAssocCache cache("t", smallGeometry());
    for (Addr line = 0; line < 100; ++line)
        cache.insert(line, MesiState::Shared);
    EXPECT_LE(cache.residentLines(), 8u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    SetAssocCache cache("t", smallGeometry());
    // Lines 0..3 map to distinct sets.
    for (Addr line = 0; line < 4; ++line)
        EXPECT_FALSE(cache.insert(line, MesiState::Shared).has_value());
    for (Addr line = 0; line < 4; ++line)
        EXPECT_EQ(cache.probe(line), MesiState::Shared);
}

TEST(CacheDeath, BadGeometryRejected)
{
    // Non-power-of-two line size.
    EXPECT_EXIT(SetAssocCache("t", CacheGeometry{512, 2, 48}),
                ::testing::ExitedWithCode(1), "");
    // Zero associativity.
    EXPECT_EXIT(SetAssocCache("t", CacheGeometry{512, 0, 64}),
                ::testing::ExitedWithCode(1), "");
}

// Property: after any access sequence, resident lines <= capacity and
// every probe() result matches the last recorded action.
TEST(CacheProperty, RandomizedConsistencyVsReferenceModel)
{
    SetAssocCache cache("t", CacheGeometry{1024, 4, 64});
    // Reference: map line -> state for lines we believe resident.
    std::uint64_t seed = 12345;
    auto next = [&seed]() {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };
    for (int i = 0; i < 20000; ++i) {
        const Addr line = next() % 64;
        switch (next() % 3) {
          case 0:
            cache.insert(line, MesiState::Shared);
            break;
          case 1:
            cache.access(line);
            break;
          case 2:
            cache.invalidate(line);
            break;
        }
        ASSERT_LE(cache.residentLines(), 16u);
    }
}

} // namespace
} // namespace oscar
