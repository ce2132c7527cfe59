/**
 * @file
 * Layer replays: the workload, cpu, mem and core layers timed in
 * isolation on a replay of a workload's own token stream.
 *
 * One replay draws a token stream from a Workload (user bursts and
 * OS invocations), then charges every segment three ways on identical
 * one-core worlds:
 *
 *  - ExecEngine::execute, the production kernel (cpu layer);
 *  - reference generation alone, a copy of execute()'s draw loop that
 *    keeps every packed reference (workload layer: burst draws,
 *    SegmentProfile::sampleData and AddressRegion::nextAccess);
 *  - MemorySystem::accessBatch over the pre-generated blocks (mem
 *    layer), in the 4,096-reference blocks execute() uses.
 *
 * The last two must reproduce the first exactly — same ExecResult per
 * segment, same RNG position, same memory statistics — so the
 * generation and access timings split the same work execute() does.
 * replaySelfTest() is that check.
 */

#include "bench.hh"

#include <algorithm>
#include <memory>

#include "core/offload_policy.hh"
#include "cpu/exec_engine.hh"
#include "workload/profiles.hh"
#include "workload/request_stream.hh"

namespace oscarbench
{

using namespace oscar;

namespace
{

/** Instructions replayed per workload kind and pass. */
constexpr InstCount kReplayInstructions = 4'000'000;
/** Arrivals drawn per pass. */
constexpr std::uint64_t kArrivals = 200'000;
/** execute()'s block size. */
constexpr std::size_t kBlockRefs = 4096;

/** A one-core machine running one thread of a workload. */
struct World
{
    explicit World(WorkloadKind kind)
        : spec(makeWorkloadSpec(kind)),
          pools(OsPools::build(space, services, spec)),
          mem(1, HierarchyGeometry{}, MemTimings{}),
          workload(spec, services, space, pools,
                   HierarchyGeometry{}.l2.lineBytes)
    {
    }

    const SegmentProfile &
    profile(const WorkloadToken &token) const
    {
        return token.kind == TokenKind::UserBurst
                   ? workload.userProfile()
                   : workload.serviceProfile(token.invocation.service->id);
    }

    ServiceTable services;
    AddressSpace space;
    WorkloadSpec spec;
    OsPools pools;
    MemorySystem mem;
    Workload workload;
};

/** Segment length of a token. */
InstCount
tokenLength(const WorkloadToken &token)
{
    return token.kind == TokenKind::UserBurst ? token.burstLength
                                              : token.invocation.trueLength;
}

ExecContext
tokenContext(const WorkloadToken &token)
{
    return token.kind == TokenKind::UserBurst ? ExecContext::User
                                              : ExecContext::Os;
}

/**
 * ExecEngine::execute()'s draw loop with the probes taken out: the
 * same RNG draws in the same order, each reference appended to `out`.
 */
void
generate(const SegmentProfile &profile, InstCount instructions, Rng &rng,
         std::vector<std::uint64_t> &out, ExecResult &result)
{
    if (instructions == 0)
        return;
    const FastBound &burst_bound = profile.burstBound();
    double fetch_accum = 0.0;
    const double fetch_rate = 1.0 / profile.instrPerFetch();
    AddressRegion *const code = profile.code();

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
            out.push_back(PackedRef::make(code->nextAccess(rng),
                                          PackedRef::kInstrFetch));
            ++result.fetches;
        }

        if (remaining == 0 || !profile.hasData())
            continue;

        const RegionAccess &target = profile.sampleData(rng);
        const bool is_write = rng.nextBoolFast(target.writeThresh);
        out.push_back(PackedRef::make(target.region->nextAccess(rng),
                                      is_write ? PackedRef::kWrite
                                               : PackedRef::kRead));
        ++result.dataAccesses;
    }
}

bool
sameStats(const CoreMemStats &a, const CoreMemStats &b)
{
    const auto same = [](const RatioStat &x, const RatioStat &y) {
        return x.hits() == y.hits() && x.total() == y.total();
    };
    return same(a.l1i, b.l1i) && same(a.l1d, b.l1d) &&
           same(a.l2User, b.l2User) && same(a.l2Os, b.l2Os) &&
           a.c2cTransfers == b.c2cTransfers &&
           a.invalidationsSent == b.invalidationsSent &&
           a.invalidationsReceived == b.invalidationsReceived &&
           a.upgrades == b.upgrades && a.memoryFetches == b.memoryFetches;
}

/** Layer sums of one kind's replay, folded across kinds. */
struct KindReplay
{
    double genS = 0.0;
    double executeS = 0.0;
    double accessS = 0.0;
    double nextS = 0.0;
    double decideS = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t longSegmentRefs = 0;
    std::uint64_t tokens = 0;
    std::uint64_t invocations = 0;
};

void
replayKind(WorkloadKind kind, std::uint64_t seed, KindReplay &sum,
           std::vector<std::string> &mismatches)
{
    const std::string name = workloadName(kind);

    // The token stream (workload layer: Workload::next).
    World source(kind);
    Rng token_rng(seed);
    ArchState arch;
    std::vector<WorkloadToken> tokens;
    InstCount instructions = 0;
    double t0 = nowSeconds();
    while (instructions < kReplayInstructions) {
        tokens.push_back(source.workload.next(token_rng, arch));
        instructions += tokenLength(tokens.back());
    }
    sum.nextS += nowSeconds() - t0;
    sum.tokens += tokens.size();

    // The production kernel on a fresh world.
    auto executed = std::make_unique<World>(kind);
    Rng exec_rng(seed ^ 0x5DEECE66DULL);
    std::vector<ExecResult> expected;
    expected.reserve(tokens.size());
    t0 = nowSeconds();
    for (const WorkloadToken &token : tokens) {
        expected.push_back(ExecEngine::execute(
            executed->mem, 0, tokenContext(token), tokenLength(token),
            executed->profile(token), exec_rng));
    }
    sum.executeS += nowSeconds() - t0;

    // Generation, then access, on an identical fresh world.
    auto replayed = std::make_unique<World>(kind);
    Rng gen_rng(seed ^ 0x5DEECE66DULL);
    std::vector<std::uint64_t> refs;
    std::uint64_t expected_refs = 0;
    for (const ExecResult &r : expected)
        expected_refs += r.dataAccesses + r.fetches;
    refs.reserve(expected_refs);
    std::vector<ExecResult> generated(tokens.size());
    std::vector<std::size_t> ends(tokens.size());
    t0 = nowSeconds();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        generate(replayed->profile(tokens[i]), tokenLength(tokens[i]),
                 gen_rng, refs, generated[i]);
        ends[i] = refs.size();
    }
    sum.genS += nowSeconds() - t0;

    t0 = nowSeconds();
    std::size_t begin = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const ExecContext ctx = tokenContext(tokens[i]);
        for (std::size_t at = begin; at < ends[i]; at += kBlockRefs) {
            const std::size_t n = std::min(kBlockRefs, ends[i] - at);
            generated[i].cycles +=
                replayed->mem.accessBatch(0, ctx, refs.data() + at, n);
        }
        begin = ends[i];
    }
    sum.accessS += nowSeconds() - t0;

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const ExecResult &a = expected[i];
        const ExecResult &b = generated[i];
        if (a.cycles != b.cycles || a.dataAccesses != b.dataAccesses ||
            a.fetches != b.fetches) {
            mismatches.push_back(name + ": segment " + std::to_string(i) +
                                 " ExecResult differs from execute()");
            break;
        }
    }
    Rng probe_exec = exec_rng;
    Rng probe_gen = gen_rng;
    if (probe_exec.next64() != probe_gen.next64())
        mismatches.push_back(name + ": RNG position differs");
    if (!sameStats(executed->mem.stats(0), replayed->mem.stats(0)))
        mismatches.push_back(name + ": memory statistics differ");

    const std::uint64_t kind_refs = refs.size();
    if (kind_refs != expected_refs)
        mismatches.push_back(name + ": reference count differs");
    sum.refs += kind_refs;
    begin = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (ends[i] - begin >= kBlockRefs)
            sum.longSegmentRefs += ends[i] - begin;
        begin = ends[i];
    }

    // The decision layer on the same invocation stream (HI with the
    // default predictor and N).
    const SystemConfig defaults;
    const std::unique_ptr<RunLengthPredictor> predictor =
        makePredictor(defaults.predictor);
    const StaticThreshold threshold(defaults.staticThreshold);
    PredictivePolicy policy(*predictor, threshold, defaults.hiDecisionCost,
                            PolicyKind::HardwarePredictor);
    t0 = nowSeconds();
    for (const WorkloadToken &token : tokens) {
        if (token.kind != TokenKind::OsCall)
            continue;
        const OffloadDecision decision = policy.decide(token.invocation);
        policy.observe(token.invocation, decision,
                       token.invocation.trueLength);
        ++sum.invocations;
    }
    sum.decideS += nowSeconds() - t0;
}

} // namespace

ReplayTimings
replayLayers(const std::vector<WorkloadKind> &kinds,
             const ServingConfig &serving, std::uint64_t seed)
{
    ReplayTimings out;
    KindReplay sum;
    for (WorkloadKind kind : kinds)
        replayKind(kind, seed, sum, out.mismatches);

    RequestStream stream(serving, seed);
    Cycle last = 0;
    const double t0 = nowSeconds();
    for (std::uint64_t i = 0; i < kArrivals; ++i)
        last = stream.nextArrival().issued;
    const double arrival_s = nowSeconds() - t0;
    if (last == 0)
        out.mismatches.push_back("request stream issued nothing");

    const double refs = static_cast<double>(std::max<std::uint64_t>(
        sum.refs, 1));
    out.genNsPerRef = sum.genS * 1e9 / refs;
    out.executeNsPerRef = sum.executeS * 1e9 / refs;
    out.accessNsPerRef = sum.accessS * 1e9 / refs;
    out.nextNsPerToken =
        sum.nextS * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(sum.tokens, 1));
    out.decideNs =
        sum.decideS * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(sum.invocations, 1));
    out.arrivalNs = arrival_s * 1e9 / static_cast<double>(kArrivals);
    out.refs = sum.refs;
    out.longSegmentRefShare =
        static_cast<double>(sum.longSegmentRefs) / refs;
    return out;
}

std::vector<std::string>
replaySelfTest(const std::vector<WorkloadKind> &kinds, std::uint64_t seed)
{
    return replayLayers(kinds, *servingOpenFleet(26'000.0), seed)
        .mismatches;
}

} // namespace oscarbench
