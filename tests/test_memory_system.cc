/**
 * @file
 * Unit and invariant tests for the coherent memory hierarchy.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/memory_system.hh"
#include "sim/random.hh"

namespace oscar
{
namespace
{

MemTimings
timings()
{
    return MemTimings{};
}

TEST(MemorySystem, ColdReadGoesToMemory)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    const AccessResult r =
        mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::Memory);
    // l1 + l2 + dir + 2 hops + memory.
    const MemTimings t = timings();
    EXPECT_EQ(r.latency, t.l1Hit + t.l2Hit + t.directoryLookup +
                             2 * t.interconnectHop + t.memory);
}

TEST(MemorySystem, SecondReadHitsL1)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult r =
        mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::L1);
    EXPECT_EQ(r.latency, timings().l1Hit);
}

TEST(MemorySystem, SameLineDifferentOffsetHits)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult r =
        mem.access(0, 0x103F, AccessType::Read, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::L1);
}

TEST(MemorySystem, ColdReadInstallsExclusive)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Exclusive);
    EXPECT_TRUE(mem.sharers(0x1000 >> 6).exclusive);
}

TEST(MemorySystem, ColdWriteInstallsModified)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x2000, AccessType::Write, ExecContext::User);
    EXPECT_EQ(mem.l2(0).probe(0x2000 >> 6), MesiState::Modified);
}

TEST(MemorySystem, SilentExclusiveToModifiedUpgrade)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult w =
        mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    EXPECT_EQ(w.latency, timings().l1Hit);
    EXPECT_FALSE(w.upgrade);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Modified);
}

TEST(MemorySystem, RemoteModifiedSuppliedCacheToCache)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    const AccessResult r =
        mem.access(1, 0x1000, AccessType::Read, ExecContext::Os);
    EXPECT_EQ(r.source, AccessSource::RemoteCache);
    // Both copies now Shared.
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Shared);
    EXPECT_EQ(mem.l2(1).probe(0x1000 >> 6), MesiState::Shared);
    EXPECT_FALSE(mem.sharers(0x1000 >> 6).exclusive);
    EXPECT_EQ(mem.stats(1).c2cTransfers, 1u);
}

TEST(MemorySystem, RemoteWriteInvalidatesOwner)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    const AccessResult w =
        mem.access(1, 0x1000, AccessType::Write, ExecContext::Os);
    EXPECT_EQ(w.source, AccessSource::RemoteCache);
    EXPECT_TRUE(w.invalidatedRemote);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Invalid);
    EXPECT_EQ(mem.l2(1).probe(0x1000 >> 6), MesiState::Modified);
    EXPECT_EQ(mem.stats(0).invalidationsReceived, 1u);
}

TEST(MemorySystem, WriteToSharedUpgrades)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    mem.access(1, 0x1000, AccessType::Read, ExecContext::User);
    // Both sharers now; core 0 writes -> upgrade + invalidate core 1.
    const AccessResult w =
        mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    EXPECT_TRUE(w.upgrade);
    EXPECT_EQ(mem.l2(0).probe(0x1000 >> 6), MesiState::Modified);
    EXPECT_EQ(mem.l2(1).probe(0x1000 >> 6), MesiState::Invalid);
    EXPECT_GE(mem.stats(0).upgrades, 1u);
}

TEST(MemorySystem, SharedReadersBothHitLocally)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    mem.access(1, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult a =
        mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    const AccessResult b =
        mem.access(1, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_EQ(a.source, AccessSource::L1);
    EXPECT_EQ(b.source, AccessSource::L1);
}

TEST(MemorySystem, L2EvictionInvalidatesL1Inclusion)
{
    // Tiny L2 (4 lines) with a larger L1 would break inclusion; use a
    // tiny direct-mapped-ish config to force L2 evictions quickly.
    HierarchyGeometry g;
    g.l1i = CacheGeometry{256, 2, 64, 1};
    g.l1d = CacheGeometry{256, 2, 64, 1};
    g.l2 = CacheGeometry{512, 2, 64, 12};
    MemorySystem mem(1, g, timings());
    // Fill the L2's set 0 beyond capacity: lines 0, 4, 8 (4 sets... L2
    // has 4 sets; lines 0,4,8 share set 0).
    mem.access(0, 0 * 64, AccessType::Read, ExecContext::User);
    mem.access(0, 4 * 64, AccessType::Read, ExecContext::User);
    mem.access(0, 8 * 64, AccessType::Read, ExecContext::User);
    // Line 0 was evicted from L2; inclusion requires it left L1 too.
    EXPECT_EQ(mem.l2(0).probe(0), MesiState::Invalid);
    EXPECT_EQ(mem.l1d(0).probe(0), MesiState::Invalid);
    // And the sharer set no longer names core 0 for line 0.
    EXPECT_FALSE(mem.sharers(0).hasSharer(0));
}

TEST(MemorySystem, InstrFetchesUseL1I)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x5000, AccessType::InstrFetch, ExecContext::User);
    EXPECT_NE(mem.l1i(0).probe(0x5000 >> 6), MesiState::Invalid);
    EXPECT_EQ(mem.l1d(0).probe(0x5000 >> 6), MesiState::Invalid);
    const AccessResult r =
        mem.access(0, 0x5000, AccessType::InstrFetch, ExecContext::User);
    EXPECT_EQ(r.source, AccessSource::L1);
}

TEST(MemorySystem, StatsAttributionByContext)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x6000, AccessType::Read, ExecContext::User);
    mem.access(0, 0x7000, AccessType::Read, ExecContext::Os);
    EXPECT_EQ(mem.stats(0).l2User.total(), 1u);
    EXPECT_EQ(mem.stats(0).l2Os.total(), 1u);
}

TEST(MemorySystem, WindowHitRateResets)
{
    MemorySystem mem(1, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Read, ExecContext::User);
    EXPECT_GT(0.5, mem.windowL2HitRate()); // one miss
    mem.resetWindow();
    EXPECT_DOUBLE_EQ(mem.windowL2HitRate(), 0.0);
}

TEST(MemorySystem, ResetStatsClearsCounters)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    mem.access(1, 0x1000, AccessType::Write, ExecContext::User);
    mem.resetStats();
    EXPECT_EQ(mem.stats(0).invalidationsReceived, 0u);
    EXPECT_EQ(mem.stats(1).c2cTransfers, 0u);
    // Cache contents survive a stats reset.
    EXPECT_NE(mem.l2(1).probe(0x1000 >> 6), MesiState::Invalid);
}

TEST(MemorySystem, InvalidateAllEmptiesEverything)
{
    MemorySystem mem(2, HierarchyGeometry{}, timings());
    mem.access(0, 0x1000, AccessType::Write, ExecContext::User);
    mem.invalidateAll();
    EXPECT_EQ(mem.l2(0).residentLines(), 0u);
    EXPECT_EQ(mem.cachedLines(), 0u);
}

/** Small hierarchy that evicts often, for randomized traffic. */
HierarchyGeometry
tinyGeometry()
{
    HierarchyGeometry g;
    g.l1i = CacheGeometry{512, 2, 64, 1};
    g.l1d = CacheGeometry{512, 2, 64, 1};
    g.l2 = CacheGeometry{2048, 2, 64, 12};
    return g;
}

/** Random fetch/read/write traffic over a 256-line pool. */
void
randomTraffic(MemorySystem &mem, std::uint64_t seed, int accesses)
{
    Rng rng(seed);
    for (int i = 0; i < accesses; ++i) {
        const CoreId core =
            static_cast<CoreId>(rng.nextBounded(mem.numCores()));
        const Addr addr = rng.nextBounded(256) * 64;
        const double roll = rng.nextDouble();
        const AccessType type = roll < 0.35   ? AccessType::Write
                                : roll < 0.45 ? AccessType::InstrFetch
                                              : AccessType::Read;
        mem.access(core, addr, type,
                   rng.nextBool(0.5) ? ExecContext::User
                                     : ExecContext::Os);
    }
}

// The directory view: sharers() and cachedLines() read what a MESI
// directory would hold straight from the L2 tag stores.

/** Read or write one line (line address, not byte address). */
AccessResult
touch(MemorySystem &mem, CoreId core, Addr line, bool write = false)
{
    return mem.access(core, line * 64,
                      write ? AccessType::Write : AccessType::Read,
                      ExecContext::User);
}

TEST(Directory, UnknownLineIsUncached)
{
    MemorySystem mem(4, tinyGeometry(), timings());
    const DirEntry entry = mem.sharers(100);
    EXPECT_TRUE(entry.uncached());
    EXPECT_EQ(entry.sharerCount(), 0u);
    EXPECT_FALSE(entry.exclusive);
}

TEST(Directory, AddSharerTracksCores)
{
    MemorySystem mem(4, tinyGeometry(), timings());
    touch(mem, 0, 7);
    touch(mem, 2, 7);
    const DirEntry entry = mem.sharers(7);
    EXPECT_EQ(entry.sharerCount(), 2u);
    EXPECT_TRUE(entry.hasSharer(0));
    EXPECT_FALSE(entry.hasSharer(1));
    EXPECT_TRUE(entry.hasSharer(2));
    EXPECT_FALSE(entry.exclusive);
    // `except` leaves one core out of the set.
    EXPECT_EQ(mem.sharers(7, 2).sharerMask, 1u);
}

TEST(Directory, SetExclusiveReplacesSharers)
{
    MemorySystem mem(4, tinyGeometry(), timings());
    touch(mem, 0, 7);
    touch(mem, 1, 7);
    touch(mem, 3, 7, true);
    const DirEntry entry = mem.sharers(7);
    EXPECT_TRUE(entry.exclusive);
    EXPECT_EQ(entry.sharerCount(), 1u);
    EXPECT_EQ(entry.owner(), 3u);
}

TEST(Directory, DemoteToSharedKeepsSharers)
{
    MemorySystem mem(4, tinyGeometry(), timings());
    touch(mem, 1, 9, true);
    touch(mem, 2, 9);
    const DirEntry entry = mem.sharers(9);
    EXPECT_FALSE(entry.exclusive);
    EXPECT_TRUE(entry.hasSharer(1));
    EXPECT_TRUE(entry.hasSharer(2));
}

TEST(Directory, RemoveLastSharerErasesEntry)
{
    // tinyGeometry's L2 has 16 two-way sets: lines 5, 21 and 37 share
    // a set, so the third fill evicts line 5.
    MemorySystem mem(2, tinyGeometry(), timings());
    touch(mem, 0, 5);
    EXPECT_EQ(mem.cachedLines(), 1u);
    touch(mem, 0, 21);
    touch(mem, 0, 37);
    EXPECT_TRUE(mem.sharers(5).uncached());
    EXPECT_EQ(mem.cachedLines(), 2u);
}

TEST(Directory, RemoveSharerOfUnknownLineIsNoop)
{
    // A write to a line no other core holds invalidates nobody.
    MemorySystem mem(2, tinyGeometry(), timings());
    const AccessResult w = touch(mem, 1, 42, true);
    EXPECT_FALSE(w.invalidatedRemote);
    EXPECT_EQ(mem.stats(1).invalidationsSent, 0u);
    EXPECT_EQ(mem.stats(0).invalidationsReceived, 0u);
    EXPECT_EQ(mem.cachedLines(), 1u);
}

TEST(Directory, AddSharerClearsExclusive)
{
    MemorySystem mem(4, tinyGeometry(), timings());
    touch(mem, 0, 3);
    EXPECT_TRUE(mem.sharers(3).exclusive);
    touch(mem, 1, 3);
    const DirEntry entry = mem.sharers(3);
    EXPECT_FALSE(entry.exclusive);
    EXPECT_EQ(entry.sharerCount(), 2u);
}

TEST(Directory, ClearDropsEverything)
{
    MemorySystem mem(4, tinyGeometry(), timings());
    for (Addr line = 0; line < 10; ++line)
        touch(mem, 0, line);
    EXPECT_EQ(mem.cachedLines(), 10u);
    mem.invalidateAll();
    EXPECT_EQ(mem.cachedLines(), 0u);
    EXPECT_TRUE(mem.sharers(3).uncached());
}

TEST(Directory, SixtyFourCoresSupported)
{
    MemorySystem mem(64, tinyGeometry(), timings());
    touch(mem, 63, 1, true);
    EXPECT_TRUE(mem.sharers(1).exclusive);
    EXPECT_EQ(mem.sharers(1).owner(), 63u);
}

TEST(DirectoryDeath, TooManyCoresRejected)
{
    // Sharer sets are 64-bit masks.
    EXPECT_EXIT(MemorySystem(65, HierarchyGeometry{}, timings()),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(MemorySystem(0, HierarchyGeometry{}, timings()),
                ::testing::ExitedWithCode(1), "");
}

TEST(Directory, ManyLinesTracked)
{
    MemorySystem mem(4, HierarchyGeometry{}, timings());
    for (Addr line = 0; line < 1000; ++line)
        touch(mem, static_cast<CoreId>(line % 4), line);
    EXPECT_EQ(mem.cachedLines(), 1000u);
}

// Invariant sweep: with no directory to cross-check, the tag stores
// themselves must obey MESI after random traffic from several cores —
// single writer, L1D mirroring the L2 state, L1 inclusion in L2 — and
// sharers() must report exactly the L2 holders.
TEST(MemorySystemProperty, CachesObeyMesiUnderRandomTraffic)
{
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        MemorySystem mem(cores, tinyGeometry(), timings());
        randomTraffic(mem, 99 + cores, 50000);

        for (Addr line = 0; line < 256; ++line) {
            unsigned holders = 0;
            unsigned owners = 0;
            std::uint64_t mask = 0;
            for (CoreId c = 0; c < cores; ++c) {
                const MesiState state = mem.l2(c).probe(line);
                if (state != MesiState::Invalid) {
                    ++holders;
                    mask |= 1ULL << c;
                }
                if (canWrite(state))
                    ++owners;
                const MesiState l1d = mem.l1d(c).probe(line);
                if (l1d != MesiState::Invalid) {
                    ASSERT_EQ(l1d, state)
                        << "L1D of core " << c << " disagrees with its L2 "
                        << "on line " << line << " (" << cores
                        << " cores)";
                }
                if (mem.l1i(c).probe(line) != MesiState::Invalid) {
                    ASSERT_NE(state, MesiState::Invalid)
                        << "L1I holds line " << line
                        << " that L2 dropped on core " << c;
                }
            }
            ASSERT_LE(owners, 1u) << "two E/M holders of line " << line;
            if (owners == 1) {
                ASSERT_EQ(holders, 1u)
                    << "E/M holder coexists with sharers on line " << line;
            }
            const DirEntry entry = mem.sharers(line);
            ASSERT_EQ(entry.sharerMask, mask) << "line " << line;
            ASSERT_EQ(entry.exclusive, owners == 1) << "line " << line;
        }
    }
}

// The mem.directory.lines gauge polls cachedLines(); hold it to a
// brute-force count of the distinct lines resident in any L2.
TEST(MemorySystemProperty, CachedLinesCountsDistinctL2Lines)
{
    for (unsigned cores : {1u, 2u, 4u, 8u}) {
        MemorySystem mem(cores, tinyGeometry(), timings());
        for (int round = 0; round < 10; ++round) {
            randomTraffic(mem, 7 * cores + round, 2000);
            std::set<Addr> lines;
            for (CoreId c = 0; c < cores; ++c) {
                for (Addr line = 0; line < 256; ++line) {
                    if (mem.l2(c).probe(line) != MesiState::Invalid)
                        lines.insert(line);
                }
            }
            ASSERT_EQ(mem.cachedLines(), lines.size())
                << cores << " cores, round " << round;
        }
        mem.invalidateAll();
        EXPECT_EQ(mem.cachedLines(), 0u);
    }
}

} // namespace
} // namespace oscar
