/**
 * @file
 * Sweep-scoped reference tapes: one generated reference stream shared
 * by every single-thread sub-run that would draw it.
 *
 * Off-loading changes where an OS sequence runs, never which
 * references it makes. With one user thread every draw on the
 * thread's RNG happens in program order, so every point of a sweep
 * that shares a workload, seed, coupling scale, interrupt rate and
 * line size executes the same sequence of segments — the same
 * (RNG state, profile, length) triples, hence the same references —
 * whatever its policy, cache sizes, timings or migration latency.
 *
 * A ReferenceTape generates that sequence once. It owns its own
 * generator world (the regions System's constructor would build for
 * the stream) and, when the furthest bound consumer reaches the end
 * of the tape, runs ExecEngine::draw() for the next segment from the
 * consumer's RNG state. Every other consumer replays the recorded
 * references into its own hierarchy with MemorySystem::accessBatch and
 * jumps its RNG to the recorded post-segment state. Before replaying,
 * a consumer's RNG state, profile and length are checked against the
 * record; a mismatch is fatal, so "the stream is program-order" is a
 * checked invariant of every bound run rather than an assumption.
 */

#ifndef OSCAR_SYSTEM_REFERENCE_TAPE_HH_
#define OSCAR_SYSTEM_REFERENCE_TAPE_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/exec_engine.hh"
#include "os/os_service.hh"
#include "sim/random.hh"
#include "system/system_config.hh"
#include "workload/address_space.hh"
#include "workload/workload.hh"

namespace oscar
{

/** Segment-profile id of the user profile; service s has id s. */
inline constexpr std::uint32_t kUserProfile =
    static_cast<std::uint32_t>(kNumServices);

/** The segment profile `id` names in a workload. */
const SegmentProfile &segmentProfile(const Workload &workload,
                                     std::uint32_t id);

/**
 * One stream's generated segments, shared by its consumers.
 *
 * Storage: per segment, a digest of the consumer's RNG state before
 * it, the generator state after it, its length, profile, fetch and
 * data counts, and its references as 3-byte words (line address | kind
 * << 22; the byte offset within a line is drawn but never read by the
 * hierarchy, and L1 and L2 lines are one size). Records and words
 * live in fixed-size blocks and chunks, so the tape never copies on
 * growth. An apache fig5 stream (4.2 M instructions) is ~1.43 M
 * references: ~4.3 MB of words plus ~0.5 MB of records.
 *
 * Thread-safe: consumers on different sweep workers fetch segments
 * under one mutex (the producer runs under it too) and replay them
 * unlocked, since recorded segments never move.
 */
class ReferenceTape
{
  public:
    /** Build the producer's generator world for `config`'s stream;
     *  fatal when `config` is not eligible(). */
    explicit ReferenceTape(const SystemConfig &config);

    ReferenceTape(const ReferenceTape &) = delete;
    ReferenceTape &operator=(const ReferenceTape &) = delete;

    /**
     * True when a run of `config` can bind to a tape: one user thread
     * in segment mode.
     *
     * Per-thread tapes for multi-thread runs cannot work:
     * buildWorkloads() gives every thread's Workload the same OsPools
     * regions (kernel data, shared-io, service code), and the user
     * profile draws from shared-io too. Those regions' reuse rings and
     * stream cursors advance in event order, so a thread's references
     * depend on timing, while replay() checks only the RNG digest,
     * profile and length — such a replay would go wrong silently.
     */
    static bool eligible(const SystemConfig &config);

    /**
     * Stream key: workload, seed, coupling scale, interrupt rate and
     * line size. Policy, cache sizes, timings and migration latency do
     * not shape the stream and are left out.
     */
    static std::string key(const SystemConfig &config);

    /**
     * Fatal unless `config` is eligible and builds the generator world
     * this tape was built for (workload, coupling scale, line size).
     * A consumer whose world matches gets exactly the references it
     * would have drawn itself for every segment that passes replay()'s
     * check.
     */
    void checkWorld(const SystemConfig &config) const;

    /**
     * Execute segment `index` of a bound consumer: verify the
     * consumer's (rng digest, profile, instructions) against the record
     * (producing the segment first when the consumer is the furthest),
     * replay its references into `mem` on `core`, and advance `rng` to
     * the recorded post-segment state. The result equals what
     * ExecEngine::execute would have returned.
     */
    ExecResult replay(std::size_t index, MemorySystem &mem, CoreId core,
                      ExecContext ctx, InstCount instructions,
                      std::uint32_t profile, Rng &rng);

    /** References the producer has drawn (deterministic). */
    std::uint64_t generatedRefs() const;

    /** References replayed into hierarchies by all consumers. */
    std::uint64_t replayedRefs() const
    {
        return replayed.load(std::memory_order_relaxed);
    }

  private:
    /** One recorded segment (64 bytes). */
    struct Segment
    {
        /** Generator state after the segment's draws (the draw loop
         *  never touches the Gaussian cache, so this is all of it). */
        Rng::Position post{};
        /** fetches + dataAccesses packed words (see pack()). */
        const std::uint8_t *refs = nullptr;
        /** Rng::digest() of the consumer's RNG before the segment. */
        std::uint64_t preDigest = 0;
        std::uint32_t instructions = 0;
        std::uint32_t fetches = 0;
        std::uint32_t dataAccesses = 0;
        std::uint32_t profile = 0;
    };

    /** Bytes per packed reference word. */
    static constexpr std::size_t kWordBytes = 3;
    /** Bytes per reference storage chunk. */
    static constexpr std::size_t kChunkBytes = std::size_t{1} << 18;
    /** Segment records per storage block. */
    static constexpr std::size_t kBlockSegments = 1024;

    /** Record segment `index`, generating it when it is the next. */
    const Segment &fetch(std::size_t index, InstCount instructions,
                         std::uint32_t profile, const Rng &rng);

    /** Generate and record the next segment (mutex held). */
    void produce(InstCount instructions, std::uint32_t profile,
                 const Rng &pre);

    /** Contiguous storage for `bytes` of packed words (mutex held). */
    std::uint8_t *allocate(std::size_t bytes);

    /** Pack one PackedRef into a kWordBytes word at `out`. */
    void pack(std::uint64_t ref, std::uint8_t *out) const;

    /** Unpack the kWordBytes word at `in` into a PackedRef. */
    std::uint64_t unpack(const std::uint8_t *in) const;

    // Generator world identity (checkWorld()).
    WorkloadKind workloadKind;
    double couplingScale;
    unsigned lineBytes;
    /** log2(lineBytes): words hold line addresses, the only part of an
     *  address MemorySystem::accessBatch reads. */
    unsigned lineShift;

    // The producer's generator world, built like System's.
    const ServiceTable services;
    AddressSpace space;
    OsPools pools;
    std::unique_ptr<Workload> workload;

    mutable std::mutex mutex;
    /** Segment records in fixed blocks that never move. */
    std::vector<std::unique_ptr<Segment[]>> blocks;
    std::size_t segmentTotal = 0;
    /** Packed references in fixed chunks that never move. */
    std::vector<std::unique_ptr<std::uint8_t[]>> chunks;
    std::uint8_t *chunkCursor = nullptr;
    std::size_t chunkFree = 0;
    /** Packed words of the segment being produced. */
    std::vector<std::uint8_t> scratch;
    /** The producer's draw() block. */
    std::vector<std::uint64_t> block;
    std::uint64_t generated = 0;
    std::atomic<std::uint64_t> replayed{0};
};

/**
 * The tapes of one sweep, one per stream key.
 *
 * ParallelSweepRunner::run() owns one store and releases each tape
 * when the last sub-run of its key finishes; bound systems (and warm
 * snapshots) hold their tape alive until they die.
 */
class ReferenceTapeStore
{
  public:
    /**
     * The tape a run of `config` binds to, created on first request;
     * null when the run is not eligible (more than one user thread or
     * serving mode).
     */
    std::shared_ptr<ReferenceTape> acquire(const SystemConfig &config);

    /** Forget the tape of stream key `key` (see ReferenceTape::key);
     *  its consumers finished. */
    void release(const std::string &key);

    /** References drawn by every tape this store created. */
    std::uint64_t generatedRefs() const;

    /** References replayed by every tape this store created. */
    std::uint64_t replayedRefs() const;

    /** Tapes created. */
    std::size_t tapesCreated() const;

    /** Most tapes of this store alive at once (held by anyone). */
    std::size_t peakLiveTapes() const;

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::shared_ptr<ReferenceTape>> tapes;
    /** Every tape created, for the liveness peak. */
    std::vector<std::weak_ptr<ReferenceTape>> created;
    std::size_t peakLive = 0;
    /** Counts of released tapes (their consumers are done). */
    std::uint64_t releasedGenerated = 0;
    std::uint64_t releasedReplayed = 0;
};

} // namespace oscar

#endif // OSCAR_SYSTEM_REFERENCE_TAPE_HH_
