/**
 * @file
 * Implementation of the segment execution engine.
 */

#include "cpu/exec_engine.hh"

#include "sim/logging.hh"

namespace oscar
{

SegmentProfile::SegmentProfile(AddressRegion *code, double instr_per_data,
                               double instr_per_fetch)
    : codeRegion(code), instrPerDataAccess(instr_per_data),
      instrPerCodeLine(instr_per_fetch),
      burstSpan(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(2.0 * instr_per_data)))
{
    oscar_assert(code != nullptr);
    oscar_assert(instr_per_data >= 1.0);
    oscar_assert(instr_per_fetch >= 1.0);
}

SegmentProfile::SegmentProfile(const SegmentProfile &other,
                               const RegionRemap &remap)
    : codeRegion(remap(other.codeRegion)),
      instrPerDataAccess(other.instrPerDataAccess),
      instrPerCodeLine(other.instrPerCodeLine), data(other.data),
      burstSpan(other.burstSpan)
{
    for (RegionAccess &ra : data)
        ra.region = remap(ra.region);
    if (other.alias != nullptr)
        alias = std::make_unique<AliasTable>(*other.alias);
}

void
SegmentProfile::addData(AddressRegion *region, double weight,
                        double write_fraction)
{
    oscar_assert(region != nullptr);
    oscar_assert(weight >= 0.0);
    oscar_assert(write_fraction >= 0.0 && write_fraction <= 1.0);
    data.push_back(RegionAccess{region, weight, write_fraction,
                                BoolThreshold(write_fraction)});
    alias.reset();
}

void
SegmentProfile::finalize()
{
    if (data.empty())
        return;
    std::vector<double> weights;
    weights.reserve(data.size());
    for (const RegionAccess &ra : data)
        weights.push_back(ra.weight);
    alias = std::make_unique<AliasTable>(weights);
}

std::uint64_t *
ExecEngine::blockBuffer()
{
    thread_local std::vector<std::uint64_t> buffer(kBatchRefs);
    return buffer.data();
}

ExecResult
ExecEngine::execute(MemorySystem &mem, CoreId core, ExecContext ctx,
                    InstCount instructions, const SegmentProfile &profile,
                    Rng &rng)
{
    return draw(instructions, profile, rng, blockBuffer(),
                [&](const std::uint64_t *refs, std::size_t count) {
                    return mem.accessBatch(core, ctx, refs, count);
                });
}

} // namespace oscar
