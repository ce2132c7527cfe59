/**
 * @file
 * Reference one-reference-at-a-time segment execution loop.
 *
 * This is the original scalar ExecEngine loop, kept verbatim as the
 * behavioural oracle for the batched kernel (ExecEngine::execute):
 * it draws each reference and probes it with MemorySystem::access
 * before drawing the next. The differential tests in
 * test_exec_batch.cc require both to agree on ExecResult, RNG stream
 * position, per-line MESI state and every counter. It is not used by
 * the simulator itself.
 */

#ifndef OSCAR_TESTS_REFERENCE_EXEC_HH_
#define OSCAR_TESTS_REFERENCE_EXEC_HH_

#include "cpu/exec_engine.hh"
#include "mem/memory_system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace oscar
{

/** Execute a segment through the scalar reference loop. */
inline ExecResult
executeReference(MemorySystem &mem, CoreId core, ExecContext ctx,
                 InstCount instructions, const SegmentProfile &profile,
                 Rng &rng)
{
    oscar_assert(profile.finalized());
    ExecResult result;
    if (instructions == 0)
        return result;

    const FastBound &burst_bound = profile.burstBound();
    double fetch_accum = 0.0;
    const double fetch_rate = 1.0 / profile.instrPerFetch();

    InstCount remaining = instructions;
    while (remaining > 0) {
        // Instructions until the next data reference: uniform on
        // [1, 2*instrPerData], preserving the configured mean.
        InstCount burst = 1 + rng.nextBoundedFast(burst_bound);
        if (burst > remaining)
            burst = remaining;
        result.cycles += burst;
        remaining -= burst;

        // Instruction-line fetches accrued over the burst.
        fetch_accum += static_cast<double>(burst) * fetch_rate;
        while (fetch_accum >= 1.0) {
            fetch_accum -= 1.0;
            const Addr pc = profile.code()->nextAccess(rng);
            const AccessResult fetch =
                mem.access(core, pc, AccessType::InstrFetch, ctx);
            ++result.fetches;
            if (fetch.latency > 1)
                result.cycles += fetch.latency - 1;
        }

        if (remaining == 0 || !profile.hasData())
            continue;

        const RegionAccess &target = profile.sampleData(rng);
        const bool is_write = rng.nextBool(target.writeFraction);
        const Addr addr = target.region->nextAccess(rng);
        const AccessResult access = mem.access(
            core, addr, is_write ? AccessType::Write : AccessType::Read,
            ctx);
        ++result.dataAccesses;
        // The first cycle of a data reference overlaps the consuming
        // instruction; only the excess stalls the pipeline.
        if (access.latency > 1)
            result.cycles += access.latency - 1;
    }
    return result;
}

} // namespace oscar

#endif // OSCAR_TESTS_REFERENCE_EXEC_HH_
