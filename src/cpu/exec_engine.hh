/**
 * @file
 * Segment execution engine for in-order cores.
 *
 * The simulator never interprets real instructions; a workload or OS
 * service describes each execution segment statistically (how many
 * instructions, which working-set regions it touches, how often, and
 * with what write ratio), and this engine charges cycles for it:
 * 1 cycle per instruction plus the memory-stall cycles returned by the
 * coherent hierarchy. This matches the paper's in-order 1-IPC cores,
 * where all timing variation comes from the memory system.
 */

#ifndef OSCAR_CPU_EXEC_ENGINE_HH_
#define OSCAR_CPU_EXEC_ENGINE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"
#include "workload/address_space.hh"

namespace oscar
{

/** One weighted data target of a segment. */
struct RegionAccess
{
    AddressRegion *region = nullptr;
    /** Relative probability of a data reference hitting this region. */
    double weight = 1.0;
    /** Fraction of references to this region that are writes. */
    double writeFraction = 0.0;
    /**
     * writeFraction as a precomputed integer Bernoulli threshold —
     * decision-identical to nextBool(writeFraction), without the
     * per-reference integer-to-double conversion.
     */
    BoolThreshold writeThresh{0.0};
};

/**
 * Statistical description of an execution segment's memory behaviour.
 */
class SegmentProfile
{
  public:
    /**
     * @param code Region instruction fetches are drawn from.
     * @param instr_per_data Mean instructions between data references.
     * @param instr_per_fetch Mean instructions between I-line fetches.
     */
    SegmentProfile(AddressRegion *code, double instr_per_data,
                   double instr_per_fetch);

    /**
     * Remapping copy for system snapshots: identical sampling
     * behaviour, but every region pointer translated into the cloned
     * address space.
     */
    SegmentProfile(const SegmentProfile &other, const RegionRemap &remap);

    /** Add a weighted data target; call finalize() afterwards. */
    void addData(AddressRegion *region, double weight,
                 double write_fraction);

    /** Build the sampling table; must be called before execution. */
    void finalize();

    /** Code region. */
    AddressRegion *code() const { return codeRegion; }

    /** Mean instructions between data references. */
    double instrPerData() const { return instrPerDataAccess; }

    /** Mean instructions between I-line fetches. */
    double instrPerFetch() const { return instrPerCodeLine; }

    /** Sample a data target; finalize() must have run. */
    const RegionAccess &
    sampleData(Rng &rng) const
    {
        oscar_assert(alias != nullptr);
        return data[alias->sample(rng)];
    }

    /** True when the profile has at least one data target. */
    bool hasData() const { return !data.empty(); }

    /** True once finalize() has run (or no data was added). */
    bool finalized() const { return alias != nullptr || data.empty(); }

    /**
     * Division-free reduction for the burst-span draw, bound
     * max(1, floor(2 * instrPerData())) — the value execute() used to
     * recompute (and nextBounded used to divide by) per draw.
     */
    const FastBound &burstBound() const { return burstSpan; }

  private:
    AddressRegion *codeRegion;
    double instrPerDataAccess;
    double instrPerCodeLine;
    std::vector<RegionAccess> data;
    std::unique_ptr<AliasTable> alias;
    FastBound burstSpan;
};

/** Outcome of executing one segment. */
struct ExecResult
{
    /** Cycles the segment occupied the core. */
    Cycle cycles = 0;
    /** Data references issued. */
    std::uint64_t dataAccesses = 0;
    /** Instruction-line fetches issued. */
    std::uint64_t fetches = 0;
};

/**
 * Stateless executor: charges a segment's instructions and memory
 * references against a core's hierarchy.
 *
 * execute() generates blocks of packed references from the RNG
 * (draw()), then runs each block through MemorySystem::accessBatch.
 * Generating a block ahead of its probes is sound because reference
 * *generation* never depends on access outcomes: every RNG draw in the
 * loop is conditioned only on the profile and the regions' own
 * generator state, so the result — ExecResult, RNG stream position,
 * cache state and statistics — equals probing each
 * reference with MemorySystem::access as it is drawn. The randomized
 * differential test in tests/test_exec_batch.cc holds execute() to
 * that one-reference-at-a-time loop (tests/reference_exec.hh). The
 * same independence lets a reference tape (system/reference_tape.hh)
 * run draw() once per stream and replay its blocks into many
 * hierarchies.
 */
class ExecEngine
{
  public:
    /**
     * References per accessBatch block. 4096 packed words are 32 KiB —
     * resident in host L1/L2 while a block is generated and then
     * probed — and large enough that per-block costs (buffer
     * bookkeeping, stat flushes) vanish against the per-reference work.
     */
    static constexpr std::size_t kBatchRefs = 4096;

    /**
     * The segment draw loop: generate a segment's packed references
     * (see PackedRef) in blocks of at most kBatchRefs and hand each
     * block to `sink(const std::uint64_t *refs, std::size_t count)`,
     * which returns the stall cycles it charges. A block may end
     * mid-burst; only the block boundary moves, never a draw.
     *
     * @param block Scratch for one block (kBatchRefs words).
     * @return The segment's counts; cycles are the instructions plus
     *         every stall the sink returned.
     */
    template <typename Sink>
    static ExecResult
    draw(InstCount instructions, const SegmentProfile &profile, Rng &rng,
         std::uint64_t *block, Sink &&sink)
    {
        oscar_assert(profile.finalized());
        ExecResult result;
        if (instructions == 0)
            return result;

        const FastBound &burst_bound = profile.burstBound();
        double fetch_accum = 0.0;
        const double fetch_rate = 1.0 / profile.instrPerFetch();
        AddressRegion *const code = profile.code();
        std::uint64_t *const block_end = block + kBatchRefs;
        std::uint64_t *out = block;

        const auto flush = [&] {
            result.cycles +=
                sink(static_cast<const std::uint64_t *>(block),
                     static_cast<std::size_t>(out - block));
            out = block;
        };

        // The RNG draw sequence is the contract: references are packed
        // into a block instead of probed one at a time, and nothing
        // else about the loop may change the draws.
        InstCount remaining = instructions;
        while (remaining > 0) {
            InstCount burst = 1 + rng.nextBoundedFast(burst_bound);
            if (burst > remaining)
                burst = remaining;
            result.cycles += burst;
            remaining -= burst;

            fetch_accum += static_cast<double>(burst) * fetch_rate;
            while (fetch_accum >= 1.0) {
                fetch_accum -= 1.0;
                *out++ = PackedRef::make(code->nextAccess(rng),
                                         PackedRef::kInstrFetch);
                ++result.fetches;
                if (out == block_end)
                    flush();
            }

            if (remaining == 0 || !profile.hasData())
                continue;

            const RegionAccess &target = profile.sampleData(rng);
            const bool is_write = rng.nextBoolFast(target.writeThresh);
            *out++ = PackedRef::make(target.region->nextAccess(rng),
                                     is_write ? PackedRef::kWrite
                                              : PackedRef::kRead);
            ++result.dataAccesses;
            if (out == block_end)
                flush();
        }
        if (out != block)
            flush();
        return result;
    }

    /**
     * Per-thread kBatchRefs-word block. Its users — execute() and a
     * tape's replay — are leaves (nothing below them re-enters the
     * engine), so one buffer per thread suffices, and parallel sweep
     * workers never share it.
     */
    static std::uint64_t *blockBuffer();

    /**
     * Execute a segment.
     *
     * @param mem Coherent hierarchy to charge references against.
     * @param core Core the segment runs on.
     * @param ctx User or OS attribution.
     * @param instructions Retired-instruction budget of the segment.
     * @param profile Memory behaviour description.
     * @param rng Deterministic stream for reference generation.
     */
    static ExecResult execute(MemorySystem &mem, CoreId core,
                              ExecContext ctx, InstCount instructions,
                              const SegmentProfile &profile, Rng &rng);
};

} // namespace oscar

#endif // OSCAR_CPU_EXEC_ENGINE_HH_
