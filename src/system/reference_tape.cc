/**
 * @file
 * Implementation of reference tapes.
 */

#include "system/reference_tape.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

#include "sim/logging.hh"
#include "system/system.hh"

namespace oscar
{

namespace
{

/** Tape words: the line address in the low 22 bits, the PackedRef
 *  kind in the two above. */
constexpr unsigned kWordKindShift = 22;
constexpr std::uint32_t kWordLineMask =
    (std::uint32_t{1} << kWordKindShift) - 1;

} // namespace

const SegmentProfile &
segmentProfile(const Workload &workload, std::uint32_t id)
{
    return id == kUserProfile
               ? workload.userProfile()
               : workload.serviceProfile(static_cast<ServiceId>(id));
}

ReferenceTape::ReferenceTape(const SystemConfig &config)
    : workloadKind(config.workload),
      couplingScale(config.osCouplingScale),
      lineBytes(config.geometry.l2.lineBytes),
      lineShift(static_cast<unsigned>(
          std::countr_zero(std::uint64_t{config.geometry.l2.lineBytes}))),
      block(ExecEngine::kBatchRefs)
{
    if (!eligible(config))
        oscar_fatal("a reference tape needs one user thread in segment "
                    "mode");
    workload = std::move(buildWorkloads(config, services, space, pools)
                             .front());
    const AddressRegion &top = space.region(space.regionCount() - 1);
    const Addr end = top.base() + top.sizeBytes();
    if (((end - 1) >> lineShift) > kWordLineMask)
        oscar_fatal("workload footprint ends at byte %llu, past the "
                    "reference tape's 22-bit line addresses",
                    static_cast<unsigned long long>(end));
}

bool
ReferenceTape::eligible(const SystemConfig &config)
{
    return config.userCores == 1 && config.serving == nullptr;
}

std::string
ReferenceTape::key(const SystemConfig &config)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "tape w=%d seed=%llu couple=%.17g irq=%.17g line=%u",
                  static_cast<int>(config.workload),
                  static_cast<unsigned long long>(config.seed),
                  config.osCouplingScale,
                  config.interrupts.meanInterarrivalCycles,
                  config.geometry.l2.lineBytes);
    return buf;
}

void
ReferenceTape::checkWorld(const SystemConfig &config) const
{
    if (!eligible(config))
        oscar_fatal("a reference tape needs one user thread in segment "
                    "mode");
    if (config.workload != workloadKind ||
        config.osCouplingScale != couplingScale ||
        config.geometry.l2.lineBytes != lineBytes) {
        oscar_fatal("reference tape bound to a different generator "
                    "world (workload, coupling scale or line size)");
    }
}

std::uint64_t
ReferenceTape::generatedRefs() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return generated;
}

void
ReferenceTape::pack(std::uint64_t ref, std::uint8_t *out) const
{
    const auto word = static_cast<std::uint32_t>(
        ((ref & PackedRef::kAddrMask) >> lineShift) |
        ((ref >> PackedRef::kKindShift) << kWordKindShift));
    out[0] = static_cast<std::uint8_t>(word);
    out[1] = static_cast<std::uint8_t>(word >> 8);
    out[2] = static_cast<std::uint8_t>(word >> 16);
}

std::uint64_t
ReferenceTape::unpack(const std::uint8_t *in) const
{
    const std::uint32_t word = std::uint32_t{in[0]} |
                               (std::uint32_t{in[1]} << 8) |
                               (std::uint32_t{in[2]} << 16);
    return (static_cast<std::uint64_t>(word & kWordLineMask)
            << lineShift) |
           (static_cast<std::uint64_t>(word >> kWordKindShift)
            << PackedRef::kKindShift);
}

std::uint8_t *
ReferenceTape::allocate(std::size_t bytes)
{
    if (bytes > chunkFree) {
        // A segment never straddles chunks, so a record is one
        // pointer; an oversized segment gets a chunk of its own.
        const std::size_t size = std::max(kChunkBytes, bytes);
        chunks.emplace_back(new std::uint8_t[size]);
        chunkCursor = chunks.back().get();
        chunkFree = size;
    }
    std::uint8_t *const words = chunkCursor;
    chunkCursor += bytes;
    chunkFree -= bytes;
    return words;
}

void
ReferenceTape::produce(InstCount instructions, std::uint32_t profile,
                       const Rng &pre)
{
    // A segment draws at most one fetch and one data reference per
    // instruction, so bounding the length bounds both counts.
    if (instructions > UINT32_MAX)
        oscar_fatal("segment of %llu instructions is too long for a "
                    "reference tape",
                    static_cast<unsigned long long>(instructions));
    Rng rng = pre;
    scratch.clear();
    const ExecResult drawn = ExecEngine::draw(
        instructions, segmentProfile(*workload, profile), rng,
        block.data(), [this](const std::uint64_t *refs, std::size_t n) {
            const std::size_t at = scratch.size();
            scratch.resize(at + n * kWordBytes);
            for (std::size_t i = 0; i < n; ++i)
                pack(refs[i], scratch.data() + at + i * kWordBytes);
            return Cycle{0};
        });

    if (segmentTotal % kBlockSegments == 0)
        blocks.emplace_back(new Segment[kBlockSegments]);
    Segment &segment = blocks.back()[segmentTotal % kBlockSegments];
    segment.post = rng.position();
    std::uint8_t *const words = allocate(scratch.size());
    std::copy(scratch.begin(), scratch.end(), words);
    segment.refs = words;
    segment.preDigest = pre.digest();
    segment.instructions = static_cast<std::uint32_t>(instructions);
    segment.fetches = static_cast<std::uint32_t>(drawn.fetches);
    segment.dataAccesses = static_cast<std::uint32_t>(drawn.dataAccesses);
    segment.profile = profile;
    ++segmentTotal;
    generated += drawn.fetches + drawn.dataAccesses;
}

const ReferenceTape::Segment &
ReferenceTape::fetch(std::size_t index, InstCount instructions,
                     std::uint32_t profile, const Rng &rng)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (index == segmentTotal)
        produce(instructions, profile, rng);
    oscar_assert(index < segmentTotal &&
                 "a consumer skipped a tape segment");
    return blocks[index / kBlockSegments][index % kBlockSegments];
}

ExecResult
ReferenceTape::replay(std::size_t index, MemorySystem &mem, CoreId core,
                      ExecContext ctx, InstCount instructions,
                      std::uint32_t profile, Rng &rng)
{
    const Segment &segment = fetch(index, instructions, profile, rng);
    const bool same_rng = segment.preDigest == rng.digest();
    if (!same_rng || segment.profile != profile ||
        segment.instructions != instructions) {
        oscar_fatal("reference tape divergence at segment %zu: %s "
                    "(profile %u vs %u, length %llu vs %llu); the "
                    "stream is not program-order or two streams share "
                    "a key",
                    index,
                    same_rng ? "same RNG state" : "RNG state differs",
                    profile, segment.profile,
                    static_cast<unsigned long long>(instructions),
                    static_cast<unsigned long long>(
                        segment.instructions));
    }

    ExecResult result;
    result.cycles = instructions;
    result.fetches = segment.fetches;
    result.dataAccesses = segment.dataAccesses;
    const std::size_t total =
        std::size_t{segment.fetches} + segment.dataAccesses;
    std::uint64_t *const refs = ExecEngine::blockBuffer();
    for (std::size_t done = 0; done < total;) {
        const std::size_t n =
            std::min(ExecEngine::kBatchRefs, total - done);
        const std::uint8_t *words = segment.refs + done * kWordBytes;
        for (std::size_t i = 0; i < n; ++i, words += kWordBytes)
            refs[i] = unpack(words);
        result.cycles += mem.accessBatch(core, ctx, refs, n);
        done += n;
    }
    rng.setPosition(segment.post);
    replayed.fetch_add(total, std::memory_order_relaxed);
    return result;
}

// ---------------------------------------------------------------------
// ReferenceTapeStore

std::shared_ptr<ReferenceTape>
ReferenceTapeStore::acquire(const SystemConfig &config)
{
    if (!ReferenceTape::eligible(config))
        return nullptr;
    const std::string key = ReferenceTape::key(config);
    std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<ReferenceTape> &tape = tapes[key];
    if (tape == nullptr) {
        tape = std::make_shared<ReferenceTape>(config);
        created.push_back(tape);
        const std::size_t live = static_cast<std::size_t>(
            std::count_if(created.begin(), created.end(),
                          [](const std::weak_ptr<ReferenceTape> &t) {
                              return !t.expired();
                          }));
        peakLive = std::max(peakLive, live);
    }
    return tape;
}

void
ReferenceTapeStore::release(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = tapes.find(key);
    if (it == tapes.end())
        return;
    releasedGenerated += it->second->generatedRefs();
    releasedReplayed += it->second->replayedRefs();
    tapes.erase(it);
}

std::uint64_t
ReferenceTapeStore::generatedRefs() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = releasedGenerated;
    for (const auto &entry : tapes)
        total += entry.second->generatedRefs();
    return total;
}

std::uint64_t
ReferenceTapeStore::replayedRefs() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = releasedReplayed;
    for (const auto &entry : tapes)
        total += entry.second->replayedRefs();
    return total;
}

std::size_t
ReferenceTapeStore::tapesCreated() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return created.size();
}

std::size_t
ReferenceTapeStore::peakLiveTapes() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return peakLive;
}

} // namespace oscar
