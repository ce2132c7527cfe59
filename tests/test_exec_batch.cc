/**
 * @file
 * Randomized differential tests holding the batched execution kernel
 * (ExecEngine::execute) to the scalar reference loop
 * (executeReference, reference_exec.hh).
 *
 * The batched kernel's correctness argument is the draw-order
 * contract: reference *generation* never depends on access outcomes,
 * so bulk-generating a block of references ahead of the probes
 * reorders nothing observable. These tests attack that claim with
 * two kinds of segment: random profiles over random regions, and the
 * real user and OS-service profiles of the server and compute
 * workloads on 1-, 2- and 6-core hierarchies. Both compare
 * ExecResult, RNG stream position, per-line cache state and every
 * statistic.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cpu/exec_engine.hh"
#include "reference_exec.hh"
#include "system/reference_tape.hh"
#include "system/system.hh"
#include "workload/address_space.hh"

namespace oscar
{
namespace
{

/** One of the two identical worlds a differential trial runs. */
struct World
{
    AddressSpace space;
    std::vector<AddressRegion *> regions; // [0] = code, rest = data
    std::unique_ptr<MemorySystem> mem;
    std::vector<SegmentProfile> profiles;
    Rng rng{0};
};

struct RegionSpec
{
    std::string name;
    std::uint64_t sizeBytes;
};

struct ProfileSpec
{
    double instrPerData;
    double instrPerFetch;
    /** (region index, weight, write fraction) per data target. */
    std::vector<std::tuple<std::size_t, double, double>> data;
};

struct TrialSpec
{
    unsigned cores;
    std::uint64_t seed;
    std::vector<RegionSpec> regions;
    std::vector<ProfileSpec> profiles;
};

/** Materialize the same trial specification into a fresh world. */
void
buildWorld(World &world, const TrialSpec &spec)
{
    for (const RegionSpec &r : spec.regions) {
        RegionParams params;
        params.name = r.name;
        params.sizeBytes = r.sizeBytes;
        world.regions.push_back(world.space.allocate(params));
    }
    world.mem = std::make_unique<MemorySystem>(
        spec.cores, HierarchyGeometry{}, MemTimings{});
    world.profiles.reserve(spec.profiles.size());
    for (const ProfileSpec &p : spec.profiles) {
        world.profiles.emplace_back(world.regions[0], p.instrPerData,
                                    p.instrPerFetch);
        for (const auto &[region, weight, wf] : p.data)
            world.profiles.back().addData(world.regions[region],
                                          weight, wf);
        world.profiles.back().finalize();
    }
    world.rng = Rng(spec.seed);
}

/** Every counter the two paths must agree on, per core. */
void
expectSameCounters(const MemorySystem &a, const MemorySystem &b,
                   unsigned cores)
{
    ASSERT_EQ(a.cachedLines(), b.cachedLines());
    for (CoreId core = 0; core < cores; ++core) {
        for (auto pick : {&MemorySystem::l1i, &MemorySystem::l1d,
                          &MemorySystem::l2}) {
            const SetAssocCache &ca = (a.*pick)(core);
            const SetAssocCache &cb = (b.*pick)(core);
            EXPECT_EQ(ca.hits(), cb.hits());
            EXPECT_EQ(ca.misses(), cb.misses());
            EXPECT_EQ(ca.evictions(), cb.evictions());
            EXPECT_EQ(ca.residentLines(), cb.residentLines());
        }
        const CoreMemStats &sa = a.stats(core);
        const CoreMemStats &sb = b.stats(core);
        EXPECT_EQ(sa.l1i.hits(), sb.l1i.hits());
        EXPECT_EQ(sa.l1i.total(), sb.l1i.total());
        EXPECT_EQ(sa.l1d.hits(), sb.l1d.hits());
        EXPECT_EQ(sa.l1d.total(), sb.l1d.total());
        EXPECT_EQ(sa.l2User.hits(), sb.l2User.hits());
        EXPECT_EQ(sa.l2User.total(), sb.l2User.total());
        EXPECT_EQ(sa.l2Os.hits(), sb.l2Os.hits());
        EXPECT_EQ(sa.l2Os.total(), sb.l2Os.total());
        EXPECT_EQ(sa.c2cTransfers, sb.c2cTransfers);
        EXPECT_EQ(sa.invalidationsSent, sb.invalidationsSent);
        EXPECT_EQ(sa.invalidationsReceived, sb.invalidationsReceived);
        EXPECT_EQ(sa.upgrades, sb.upgrades);
        EXPECT_EQ(sa.memoryFetches, sb.memoryFetches);
    }
}

/**
 * Line-by-line MESI comparison over every region of the two worlds'
 * spaces: counters can collide, tag state cannot.
 */
void
expectSameLines(const MemorySystem &a, const MemorySystem &b,
                unsigned cores, const AddressSpace &space_a,
                const AddressSpace &space_b)
{
    ASSERT_EQ(space_a.regionCount(), space_b.regionCount());
    for (CoreId core = 0; core < cores; ++core) {
        for (std::size_t r = 0; r < space_a.regionCount(); ++r) {
            const Addr base_a = space_a.region(r).base() >> 6;
            const Addr base_b = space_b.region(r).base() >> 6;
            const Addr lines = (space_a.region(r).sizeBytes() + 63) >> 6;
            for (Addr i = 0; i < lines; ++i) {
                ASSERT_EQ(a.l2(core).probe(base_a + i),
                          b.l2(core).probe(base_b + i))
                    << "core " << core << " region " << r
                    << " line " << i;
                ASSERT_EQ(a.l1d(core).probe(base_a + i),
                          b.l1d(core).probe(base_b + i));
                ASSERT_EQ(a.l1i(core).probe(base_a + i),
                          b.l1i(core).probe(base_b + i));
            }
        }
    }
}

TEST(ExecBatchDifferential, RandomProfilesMatchScalarReference)
{
    // Each trial builds two identical worlds, runs a random schedule
    // of segments — batched on one, scalar reference on the other —
    // and demands bit-identical observables after every segment.
    for (unsigned trial = 0; trial < 10; ++trial) {
        std::mt19937_64 meta(7919 * trial + 11);
        auto pick = [&meta](std::uint64_t lo, std::uint64_t hi) {
            return lo + meta() % (hi - lo + 1);
        };
        auto frac = [&meta]() {
            return static_cast<double>(meta() >> 11) * 0x1.0p-53;
        };

        TrialSpec spec;
        spec.cores = static_cast<unsigned>(pick(1, 4));
        spec.seed = meta();
        spec.regions.push_back({"code", pick(8, 64) * 1024});
        const std::size_t data_regions = pick(1, 3);
        for (std::size_t r = 0; r < data_regions; ++r) {
            spec.regions.push_back(
                {"data" + std::to_string(r), pick(4, 256) * 1024});
        }
        const std::size_t profiles = pick(1, 2);
        for (std::size_t p = 0; p < profiles; ++p) {
            ProfileSpec prof;
            prof.instrPerData = 1.5 + frac() * 14.5;
            prof.instrPerFetch = 4.0 + frac() * 60.0;
            // Profiles may target any subset of the data regions —
            // including none, exercising the fetch-only block path.
            for (std::size_t r = 1; r < spec.regions.size(); ++r) {
                if (p == 0 || meta() % 2 == 0) {
                    prof.data.emplace_back(r, 0.25 + frac() * 4.0,
                                           frac() * 0.8);
                }
            }
            spec.profiles.push_back(std::move(prof));
        }

        World batched;
        World scalar;
        buildWorld(batched, spec);
        buildWorld(scalar, spec);

        for (unsigned seg = 0; seg < 6; ++seg) {
            const CoreId core = static_cast<CoreId>(
                pick(0, spec.cores - 1));
            const ExecContext ctx =
                meta() % 2 == 0 ? ExecContext::User : ExecContext::Os;
            // Spans straddling multiples of the 4096-reference batch
            // exercise the partial-final-block path.
            const InstCount instructions = pick(1, 30'000);
            const std::size_t prof = pick(0, spec.profiles.size() - 1);

            const ExecResult rb = ExecEngine::execute(
                *batched.mem, core, ctx, instructions,
                batched.profiles[prof], batched.rng);
            const ExecResult rs = executeReference(
                *scalar.mem, core, ctx, instructions,
                scalar.profiles[prof], scalar.rng);

            ASSERT_EQ(rb.cycles, rs.cycles)
                << "trial " << trial << " segment " << seg;
            ASSERT_EQ(rb.dataAccesses, rs.dataAccesses);
            ASSERT_EQ(rb.fetches, rs.fetches);
            // The RNG streams must sit at the same position: probe
            // with copies so the comparison itself consumes nothing.
            Rng probe_b = batched.rng;
            Rng probe_s = scalar.rng;
            ASSERT_EQ(probe_b.next64(), probe_s.next64())
                << "RNG streams diverged at trial " << trial
                << " segment " << seg;
            expectSameCounters(*batched.mem, *scalar.mem, spec.cores);
            expectSameLines(*batched.mem, *scalar.mem, spec.cores,
                            batched.space, scalar.space);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

/** One of the two identical worlds a real-workload trial runs. */
struct WorkloadWorld
{
    AddressSpace space;
    OsPools pools;
    /** One workload instance per core, as System builds them. */
    std::vector<std::unique_ptr<Workload>> threads;
    std::unique_ptr<MemorySystem> mem;
    Rng rng{0};

    WorkloadWorld(const SystemConfig &config, const ServiceTable &services)
        : threads(buildWorkloads(config, services, space, pools)),
          mem(std::make_unique<MemorySystem>(
              config.userCores, config.geometry, config.timings)),
          rng(config.seed)
    {
    }
};

TEST(ExecBatchDifferential, RealProfilesMatchScalarReference)
{
    // The calibrated segment shapes — every workload's user profile
    // and each of its OS services, over the shared kernel pools — run
    // on uni-core, dual-core and six-core hierarchies in both
    // contexts, on random threads and cores, so coherence traffic
    // between cores shares the OS pools the way an off-loading system
    // does.
    const ServiceTable services;
    for (const WorkloadKind kind :
         {WorkloadKind::Apache, WorkloadKind::SpecJbb,
          WorkloadKind::Derby, WorkloadKind::Mcf}) {
        for (const unsigned cores : {1u, 2u, 6u}) {
            SCOPED_TRACE(workloadName(kind) + " on " +
                         std::to_string(cores) + " cores");
            SystemConfig config;
            config.workload = kind;
            config.userCores = cores;
            config.seed = 1000 * static_cast<unsigned>(kind) + cores;
            std::mt19937_64 meta(config.seed);
            auto pick = [&meta](std::uint64_t lo, std::uint64_t hi) {
                return lo + meta() % (hi - lo + 1);
            };

            WorkloadWorld batched(config, services);
            WorkloadWorld scalar(config, services);
            for (std::uint32_t id = 0; id <= kUserProfile; ++id) {
                for (const ExecContext ctx :
                     {ExecContext::User, ExecContext::Os}) {
                    const std::size_t thread = pick(0, cores - 1);
                    const CoreId core =
                        static_cast<CoreId>(pick(0, cores - 1));
                    const InstCount instructions = pick(1, 30'000);

                    const ExecResult rb = ExecEngine::execute(
                        *batched.mem, core, ctx, instructions,
                        segmentProfile(*batched.threads[thread], id),
                        batched.rng);
                    const ExecResult rs = executeReference(
                        *scalar.mem, core, ctx, instructions,
                        segmentProfile(*scalar.threads[thread], id),
                        scalar.rng);

                    ASSERT_EQ(rb.cycles, rs.cycles) << "profile " << id;
                    ASSERT_EQ(rb.dataAccesses, rs.dataAccesses);
                    ASSERT_EQ(rb.fetches, rs.fetches);
                    Rng probe_b = batched.rng;
                    Rng probe_s = scalar.rng;
                    ASSERT_EQ(probe_b.next64(), probe_s.next64());
                    expectSameCounters(*batched.mem, *scalar.mem,
                                       cores);
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
            // Tag state is cumulative, so one line-by-line pass per
            // schedule sees every divergence that outlived eviction.
            expectSameLines(*batched.mem, *scalar.mem, cores,
                            batched.space, scalar.space);
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

} // namespace
} // namespace oscar
