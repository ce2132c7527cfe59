/**
 * @file
 * MESI litmus tests: explicit multi-step transition sequences checked
 * against the protocol's expected states and latencies. These pin the
 * exact coherence semantics the off-loading results depend on.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"

namespace oscar
{
namespace
{

constexpr Addr kLine = 0x40000; // byte address, line 0x1000

class MesiLitmus : public ::testing::Test
{
  protected:
    MesiLitmus()
        : mem(3, HierarchyGeometry{}, MemTimings{})
    {
    }

    MesiState
    l2State(CoreId core)
    {
        return mem.l2(core).probe(kLine >> 6);
    }

    AccessResult
    read(CoreId core)
    {
        return mem.access(core, kLine, AccessType::Read,
                          ExecContext::User);
    }

    AccessResult
    write(CoreId core)
    {
        return mem.access(core, kLine, AccessType::Write,
                          ExecContext::User);
    }

    MemorySystem mem;
};

TEST_F(MesiLitmus, ReadReadRead_AllShared)
{
    read(0);
    EXPECT_EQ(l2State(0), MesiState::Exclusive);
    read(1);
    EXPECT_EQ(l2State(0), MesiState::Shared);
    EXPECT_EQ(l2State(1), MesiState::Shared);
    read(2);
    EXPECT_EQ(l2State(2), MesiState::Shared);
    const DirEntry entry = mem.sharers(kLine >> 6);
    EXPECT_EQ(entry.sharerCount(), 3u);
    EXPECT_FALSE(entry.exclusive);
}

TEST_F(MesiLitmus, WriteReadWrite_PingPong)
{
    write(0);
    EXPECT_EQ(l2State(0), MesiState::Modified);

    // Remote read: M owner downgrades, data supplied cache-to-cache.
    const AccessResult r1 = read(1);
    EXPECT_EQ(r1.source, AccessSource::RemoteCache);
    EXPECT_EQ(l2State(0), MesiState::Shared);
    EXPECT_EQ(l2State(1), MesiState::Shared);

    // Original owner writes again: S->M upgrade, invalidating core 1.
    const AccessResult w2 = write(0);
    EXPECT_TRUE(w2.upgrade);
    EXPECT_EQ(l2State(0), MesiState::Modified);
    EXPECT_EQ(l2State(1), MesiState::Invalid);
}

TEST_F(MesiLitmus, WriteWriteWrite_OwnershipMigrates)
{
    write(0);
    const AccessResult w1 = write(1);
    EXPECT_EQ(w1.source, AccessSource::RemoteCache);
    EXPECT_TRUE(w1.invalidatedRemote);
    const AccessResult w2 = write(2);
    EXPECT_EQ(w2.source, AccessSource::RemoteCache);
    EXPECT_EQ(l2State(0), MesiState::Invalid);
    EXPECT_EQ(l2State(1), MesiState::Invalid);
    EXPECT_EQ(l2State(2), MesiState::Modified);
    const DirEntry entry = mem.sharers(kLine >> 6);
    EXPECT_TRUE(entry.exclusive);
    EXPECT_EQ(entry.owner(), 2u);
}

TEST_F(MesiLitmus, ExclusiveReaderSuppliesRemoteRead)
{
    read(0); // E
    const AccessResult r1 = read(1);
    // E owners forward cache-to-cache in this implementation.
    EXPECT_EQ(r1.source, AccessSource::RemoteCache);
    EXPECT_EQ(l2State(0), MesiState::Shared);
}

TEST_F(MesiLitmus, WriteToWidelySharedLineInvalidatesAll)
{
    read(0);
    read(1);
    read(2);
    const AccessResult w = write(1);
    EXPECT_TRUE(w.upgrade);
    EXPECT_EQ(l2State(0), MesiState::Invalid);
    EXPECT_EQ(l2State(1), MesiState::Modified);
    EXPECT_EQ(l2State(2), MesiState::Invalid);
    EXPECT_GE(mem.stats(1).invalidationsSent, 2u);
}

TEST_F(MesiLitmus, LatencyOrdering)
{
    // L1 hit < L2 hit < cache-to-cache < memory.
    const AccessResult memory_fill = read(0); // cold: memory
    const AccessResult l1_hit = read(0);
    write(0);
    const AccessResult c2c = read(1); // remote M: cache-to-cache
    EXPECT_LT(l1_hit.latency, c2c.latency);
    EXPECT_LT(c2c.latency, memory_fill.latency);
}

TEST_F(MesiLitmus, UpgradeCheaperThanMiss)
{
    read(0);
    read(1); // both Shared
    const AccessResult upgrade = write(0);
    mem.invalidateAll();
    const AccessResult cold_write = write(0);
    EXPECT_LT(upgrade.latency, cold_write.latency);
}

TEST_F(MesiLitmus, ReadAfterRemoteInvalidationRefetches)
{
    read(0);
    write(1); // invalidates core 0
    const AccessResult r = read(0);
    EXPECT_NE(r.source, AccessSource::L1);
    EXPECT_EQ(r.source, AccessSource::RemoteCache); // core 1 holds M
}

TEST_F(MesiLitmus, SilentEToMIsFree)
{
    read(0); // E
    const AccessResult w = write(0);
    EXPECT_EQ(w.latency, MemTimings{}.l1Hit);
    EXPECT_FALSE(w.upgrade);
}

TEST_F(MesiLitmus, InstructionLinesShareableWithData)
{
    // Core 0 executes the line; core 1 writes it (self-modifying /
    // page reuse): the I-side copy must be invalidated.
    mem.access(0, kLine, AccessType::InstrFetch, ExecContext::User);
    EXPECT_NE(mem.l1i(0).probe(kLine >> 6), MesiState::Invalid);
    write(1);
    EXPECT_EQ(mem.l1i(0).probe(kLine >> 6), MesiState::Invalid);
    EXPECT_EQ(l2State(0), MesiState::Invalid);
}

} // namespace
} // namespace oscar
