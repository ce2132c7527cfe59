/**
 * @file
 * Directory controller for the private-L2 MESI protocol.
 *
 * One entry per line tracks which cores' L2s hold the line and whether
 * one of them holds it exclusively (E or M). The MemorySystem consults
 * and updates the directory on every L2 miss, upgrade, and eviction,
 * keeping it exactly consistent with the tag stores.
 */

#ifndef OSCAR_MEM_DIRECTORY_HH_
#define OSCAR_MEM_DIRECTORY_HH_

#include <cstdint>
#include <vector>

#include "sim/flat_hash.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace oscar
{

/** Directory view of one line. */
struct DirEntry
{
    /** Bit i set iff core i's L2 holds the line. */
    std::uint64_t sharerMask = 0;
    /** True when exactly one core holds the line in E or M. */
    bool exclusive = false;

    /** True when no core caches the line. */
    bool uncached() const { return sharerMask == 0; }

    /** Number of caching cores. */
    unsigned sharerCount() const
    {
        return static_cast<unsigned>(__builtin_popcountll(sharerMask));
    }

    /** Core id of the exclusive owner; only valid when exclusive. */
    CoreId owner() const
    {
        return static_cast<CoreId>(__builtin_ctzll(sharerMask));
    }

    /** True iff the given core caches the line. */
    bool
    hasSharer(CoreId core) const
    {
        return (sharerMask >> core) & 1ULL;
    }
};

/**
 * Map from line address to sharer state.
 *
 * The table is a bespoke open-addressed hash in structure-of-arrays
 * layout: line addresses, sharer masks, and exclusive flags live in
 * three parallel flat vectors (same probing discipline as FlatHashMap
 * — SplitMix64 hash, linear probing, power-of-two capacity, max load
 * 7/10, backward-shift deletion). Compared to the earlier
 * FlatHashMap<DirEntry> (retained as the test oracle
 * tests/reference_directory.hh for the differential test), a probe walks
 * only the key array — no separate occupancy bytes, no 16-byte value
 * structs interleaved with anything — so the common lookup touches one
 * cache line. An empty slot holds kEmpty (~0), which no real line
 * address can equal (line addresses are byte addresses divided by the
 * line size). No operation exposes iteration order, so hash layout is
 * invisible to simulation results.
 */
class Directory
{
  public:
    /** @param num_cores Number of cores tracked; must be <= 64. */
    explicit Directory(unsigned num_cores);

    /** Look up a line; returns an Uncached entry when absent. */
    DirEntry
    lookup(Addr line_addr) const
    {
        const std::size_t slot = findSlot(line_addr);
        if (slot == kNone)
            return DirEntry{};
        return DirEntry{sharer[slot], excl[slot] != 0};
    }

    /** Record that a core obtained the line in Shared state. */
    void
    addSharer(Addr line_addr, CoreId core)
    {
        oscar_assert(core < cores);
        const std::size_t slot = slotForInsert(line_addr);
        sharer[slot] |= 1ULL << core;
        excl[slot] = 0;
    }

    /** Record that a core obtained the line exclusively (E or M). */
    void
    setExclusive(Addr line_addr, CoreId core)
    {
        oscar_assert(core < cores);
        const std::size_t slot = slotForInsert(line_addr);
        sharer[slot] = 1ULL << core;
        excl[slot] = 1;
    }

    /** Demote an exclusive owner to one sharer among possibly many. */
    void
    demoteToShared(Addr line_addr)
    {
        const std::size_t slot = findSlot(line_addr);
        oscar_assert(slot != kNone);
        excl[slot] = 0;
    }

    /** Record that a core's L2 dropped the line (eviction/invalidation). */
    void
    removeSharer(Addr line_addr, CoreId core)
    {
        oscar_assert(core < cores);
        const std::size_t slot = findSlot(line_addr);
        if (slot == kNone)
            return;
        sharer[slot] &= ~(1ULL << core);
        if (sharer[slot] == 0) {
            eraseSlot(slot);
        } else if (__builtin_popcountll(sharer[slot]) > 1) {
            excl[slot] = 0;
        }
    }

    /**
     * Opaque handle to a line's slot, for fused lookup-then-update
     * sequences on the miss path. A slot stays valid only until the
     * next insertion or removal anywhere in the directory (rehash and
     * backward-shift deletion both move entries), so a holder must
     * finish all slot operations before touching the directory
     * through any other line.
     */
    using Slot = std::size_t;

    /**
     * Find a line's slot, inserting an empty (zero-sharer) entry when
     * absent. The caller must leave the entry non-empty before the
     * next directory operation: empty entries can never be erased
     * (removeSharer never reaches them) and would inflate
     * trackedLines().
     */
    Slot findOrInsert(Addr line_addr) { return slotForInsert(line_addr); }

    /** Entry at a slot returned by findOrInsert(). */
    DirEntry
    entryAt(Slot slot) const
    {
        return DirEntry{sharer[slot], excl[slot] != 0};
    }

    /**
     * addSharer() at an already-located slot; also clears any
     * exclusive flag, folding in the demoteToShared() the probing API
     * needs as a separate call.
     */
    void
    addSharerAt(Slot slot, CoreId core)
    {
        oscar_assert(core < cores);
        sharer[slot] |= 1ULL << core;
        excl[slot] = 0;
    }

    /**
     * setExclusive() at an already-located slot: the core becomes the
     * sole sharer with the exclusive flag set. Any cores dropped from
     * the mask must already have had their caches invalidated.
     */
    void
    setExclusiveAt(Slot slot, CoreId core)
    {
        oscar_assert(core < cores);
        sharer[slot] = 1ULL << core;
        excl[slot] = 1;
    }

    /** Number of lines with at least one sharer. */
    std::size_t trackedLines() const { return count; }

    /** Drop all entries (between experiment phases). */
    void clear();

    /** Number of cores this directory was built for. */
    unsigned numCores() const { return cores; }

  private:
    /** Key marking an empty slot; never a valid line address. */
    static constexpr std::uint64_t kEmpty =
        ~static_cast<std::uint64_t>(0);

    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

    std::size_t
    indexFor(Addr line_addr) const
    {
        return static_cast<std::size_t>(hashU64(line_addr)) & mask;
    }

    /** Slot of a present line, or kNone. */
    std::size_t
    findSlot(Addr line_addr) const
    {
        std::size_t i = indexFor(line_addr);
        while (keys[i] != kEmpty) {
            if (keys[i] == line_addr)
                return i;
            i = (i + 1) & mask;
        }
        return kNone;
    }

    /** Slot of a line, inserting an empty entry when absent. */
    std::size_t
    slotForInsert(Addr line_addr)
    {
        oscar_assert(line_addr != kEmpty);
        if ((count + 1) * 10 > keys.size() * 7)
            rehash(keys.size() * 2);
        std::size_t i = indexFor(line_addr);
        while (keys[i] != kEmpty) {
            if (keys[i] == line_addr)
                return i;
            i = (i + 1) & mask;
        }
        keys[i] = line_addr;
        sharer[i] = 0;
        excl[i] = 0;
        ++count;
        return i;
    }

    void eraseSlot(std::size_t hole);
    void rehash(std::size_t new_slots);

    unsigned cores;
    // Parallel arrays, one slot each; keys[i] == kEmpty marks a free
    // slot, in which case sharer[i]/excl[i] are meaningless.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> sharer;
    std::vector<std::uint8_t> excl;
    std::size_t mask = 0;
    std::size_t count = 0;
};

} // namespace oscar

#endif // OSCAR_MEM_DIRECTORY_HH_
