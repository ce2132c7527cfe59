/**
 * @file
 * Working-set regions and reference-stream generation.
 *
 * Each workload's footprint is a set of AddressRegions (user code, user
 * heap, user stack, OS code, OS data, shared I/O buffers). A region
 * generates line-granular references with Zipf popularity — a few hot
 * lines absorb most references — optionally mixed with sequential
 * streaming, which is what produces realistic cache hit-rate curves
 * without simulating real programs.
 */

#ifndef OSCAR_WORKLOAD_ADDRESS_SPACE_HH_
#define OSCAR_WORKLOAD_ADDRESS_SPACE_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace oscar
{

/** Parameters of one working-set region. */
struct RegionParams
{
    /** Human-readable name for reports. */
    std::string name;
    /** Footprint in bytes. */
    std::uint64_t sizeBytes = 64 * 1024;
    /** Zipf skew of line popularity; 0 = uniform. */
    double zipfSkew = 0.8;
    /**
     * Fraction of references that continue a sequential stream instead
     * of sampling the popularity distribution (models array scans and
     * straight-line code).
     */
    double sequentialFraction = 0.0;
    /** Line size in bytes (must match the cache hierarchy). */
    unsigned lineBytes = 64;
    /**
     * Fraction of references that re-touch one of the most recently
     * referenced lines (short-term temporal locality — what keeps real
     * L1 hit rates above 90 % even for multi-MB footprints).
     */
    double reuseFraction = 0.55;
    /** Number of recent distinct lines eligible for reuse. */
    unsigned reuseWindow = 16;
    /** References spent on a line before a sequential stream advances. */
    unsigned sequentialRepeats = 8;
};

/**
 * One contiguous region of the simulated physical address space.
 */
class AddressRegion
{
  public:
    /**
     * @param base First byte address; must be line-aligned.
     * @param params Size/locality parameters.
     */
    AddressRegion(Addr base, const RegionParams &params);

    /**
     * Draw the next referenced byte address.
     *
     * Defined in the header (with scatter/remember) so the optimizer
     * may inline it into the draw loop, but it is not forced: the
     * release+LTO build keeps it out of line (gprofng puts ~33 % of
     * fig5 self time here) and always_inline measured slower. The
     * cheap way to spend less time here is to call it less often —
     * see system/reference_tape.hh.
     */
    Addr
    nextAccess(Rng &rng)
    {
        std::uint64_t line;
        if (ringFilled > 0 && rng.nextBoolFast(reuseThresh)) {
            // Short-term reuse: re-touch a recently referenced line.
            // ringBound tracks ringFilled (see remember()), so this is
            // nextBounded(ringFilled) without its two per-draw 64-bit
            // divisions — the hottest divides in the whole simulator,
            // since most regions have non-power-of-two reuse windows.
            line = reuseRing[rng.nextBoundedFast(ringBound)];
        } else if (params.sequentialFraction > 0.0 &&
                   rng.nextBoolFast(seqThresh)) {
            // Streaming: dwell on a line for several references (word
            // granularity) before advancing to the next line.
            if (++streamDwell >= params.sequentialRepeats) {
                streamDwell = 0;
                if (++streamCursor == lines)
                    streamCursor = 0;
            }
            line = streamCursor;
            remember(line);
        } else {
            const std::uint64_t rank = zipf.sample(rng);
            line = scatter(rank);
            remember(line);
        }
        const std::uint64_t offset = rng.nextBoundedFast(offsetBound);
        return baseAddr + line * params.lineBytes + offset;
    }

    /** First byte address. */
    Addr base() const { return baseAddr; }

    /** Size in bytes. */
    std::uint64_t sizeBytes() const { return params.sizeBytes; }

    /** Number of cache lines spanned. */
    std::uint64_t lineCount() const { return lines; }

    /** True when the byte address falls inside this region. */
    bool contains(Addr addr) const;

    /** Region parameters. */
    const RegionParams &parameters() const { return params; }

  private:
    /** Map a popularity rank to a line index spread across sets. */
    std::uint64_t
    scatter(std::uint64_t rank) const
    {
        // Spread popular ranks across cache sets with a multiplicative
        // permutation; without this, the hottest lines would be
        // contiguous and artificially conflict-free. lineBound.mod is
        // exactly % lines, with the division hoisted to construction.
        return lineBound.mod(rank * 0x9E3779B97F4A7C15ULL);
    }

    /** Remember a line in the reuse ring. */
    void
    remember(std::uint64_t line)
    {
        if (reuseRing.empty())
            return;
        reuseRing[ringCursor] = line;
        if (++ringCursor == reuseRing.size())
            ringCursor = 0;
        if (ringFilled < reuseRing.size()) {
            // The ring only grows until it saturates at the window
            // size, so the reduction is rebuilt a handful of times per
            // region lifetime and every reuse draw after that is
            // division-free.
            ++ringFilled;
            ringBound = FastBound(ringFilled);
        }
    }

    Addr baseAddr;
    RegionParams params;
    std::uint64_t lines;
    /** Division-free reduction modulo `lines` (see scatter). */
    FastBound lineBound;
    /** Integer Bernoulli thresholds for the locality fractions. */
    BoolThreshold reuseThresh;
    BoolThreshold seqThresh;
    /** Division-free reduction for the intra-line offset draw. */
    FastBound offsetBound;
    ZipfDistribution zipf;
    std::uint64_t streamCursor = 0;
    unsigned streamDwell = 0;
    std::vector<std::uint64_t> reuseRing;
    unsigned ringCursor = 0;
    unsigned ringFilled = 0;
    /** Division-free reduction modulo ringFilled (see nextAccess). */
    FastBound ringBound;
};

/**
 * Allocates regions bump-pointer style so they never overlap, and owns
 * them for the lifetime of a simulated system.
 */
class AddressSpace
{
  public:
    AddressSpace();

    /**
     * Deep copy: every region is duplicated at the same base address
     * with its full generator state (stream cursor, reuse ring), so a
     * cloned system replays the exact reference stream the original
     * would have produced. Region pointers into the copy differ from
     * the original's; use RegionRemap to translate them.
     */
    AddressSpace(const AddressSpace &other);
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Carve a new region out of the simulated physical address space.
     *
     * @return Stable pointer, owned by this AddressSpace.
     */
    AddressRegion *allocate(const RegionParams &params);

    /** Total bytes allocated so far. */
    std::uint64_t allocatedBytes() const { return cursor - kBase; }

    /** Number of regions allocated. */
    std::size_t regionCount() const { return regions.size(); }

    /** Access a region by allocation order (tests/inspection). */
    const AddressRegion &region(std::size_t index) const;

  private:
    /** Regions start above the zero page. */
    static constexpr Addr kBase = 1ULL << 20;
    /** Guard gap between regions, in bytes. */
    static constexpr Addr kGap = 1ULL << 16;

    Addr cursor;
    std::vector<std::unique_ptr<AddressRegion>> regions;

    friend class RegionRemap;
};

/**
 * Pointer translation between an AddressSpace and its deep copy.
 *
 * Workloads and segment profiles hold raw AddressRegion pointers into
 * the AddressSpace that allocated them. When a system is cloned, those
 * pointers must be rebound to the copied regions; regions are matched
 * by allocation order, which the deep copy preserves.
 */
class RegionRemap
{
  public:
    /** Build the old-region -> new-region map; `to` must be a deep
     *  copy of `from` (asserted via count and base addresses). */
    RegionRemap(const AddressSpace &from, const AddressSpace &to);

    /** Translate a region pointer; null maps to null. */
    AddressRegion *
    operator()(const AddressRegion *region) const
    {
        if (region == nullptr)
            return nullptr;
        auto it = map.find(region);
        oscar_assert(it != map.end() &&
                     "region does not belong to the source space");
        return it->second;
    }

  private:
    std::unordered_map<const AddressRegion *, AddressRegion *> map;
};

} // namespace oscar

#endif // OSCAR_WORKLOAD_ADDRESS_SPACE_HH_
