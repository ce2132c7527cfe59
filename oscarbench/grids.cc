/**
 * @file
 * Workload grids, output checks and paper-claim evaluation.
 *
 * The grids are those of fig5_policy_comparison,
 * serving_tail_latency and numa_topology with default flags. With
 * `--seed 42` every point and replica seed equals the bench binary's,
 * so the results are the ones EXPERIMENTS.md documents for the
 * default code path.
 */

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace oscarbench
{

using namespace oscar;

namespace
{

// fig5_policy_comparison
constexpr InstCount kFig5Measure = 3'000'000;
constexpr InstCount kFig5Warmup = 1'200'000;
const std::vector<Cycle> kFig5Latencies = {5000, 100};
const std::vector<Cycle> kAsideLatencies = {100, 500, 1000, 2500, 5000};

// serving_tail_latency and numa_topology
const std::vector<double> kInterarrivals = {26'000.0, 14'000.0};
const std::vector<Cycle> kServingMigrations = {5'000, 100};
constexpr unsigned kServingCores = 2;
constexpr unsigned kNumaCores = 4;

/** serving_tail_latency seeds its second replica 1295 above its
 *  first (42, 1337). */
constexpr std::uint64_t kReplicaStride = 1337 - 42;

std::vector<WorkloadKind>
fig5Kinds()
{
    std::vector<WorkloadKind> kinds = serverWorkloads();
    kinds.push_back(WorkloadKind::Mcf);
    return kinds;
}

SweepPoint
fig5Point(std::string label, SystemConfig config)
{
    SweepPoint point;
    point.label = std::move(label);
    point.config = std::move(config);
    point.config.measureInstructions = kFig5Measure;
    point.config.warmupInstructions = kFig5Warmup;
    return point;
}

std::vector<SweepPoint>
fig5Grid(std::uint64_t seed)
{
    std::map<WorkloadKind, std::shared_ptr<const ServiceProfile>>
        profiles;
    for (WorkloadKind kind : fig5Kinds())
        profiles[kind] = ExperimentRunner::profileServices(kind, seed);

    std::vector<SweepPoint> points;
    for (Cycle latency : kFig5Latencies) {
        for (WorkloadKind kind : fig5Kinds()) {
            const std::string base =
                workloadName(kind) + "/lat=" + std::to_string(latency);
            points.push_back(fig5Point(
                base + "/si", ExperimentRunner::staticInstrConfig(
                                  kind, latency, profiles.at(kind), seed)));
            points.push_back(fig5Point(
                base + "/di", ExperimentRunner::dynamicInstrConfig(
                                  kind, latency, 100, seed)));
            points.push_back(fig5Point(
                base + "/hi", ExperimentRunner::hardwareDynamicConfig(
                                  kind, latency, seed)));
        }
    }
    for (Cycle latency : kAsideLatencies) {
        SystemConfig config = ExperimentRunner::hardwareConfig(
            WorkloadKind::Apache, 100, latency, seed);
        config.geometry.l2.sizeBytes = 512 * 1024;
        points.push_back(fig5Point(
            "apache/512KB-l2/lat=" + std::to_string(latency),
            std::move(config)));
    }
    return points;
}

std::shared_ptr<const ServingConfig>
fleet(DispatchPolicy dispatch, double mean_interarrival)
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->dispatch = dispatch;
    serving->meanInterarrivalCycles = mean_interarrival;
    serving->diurnalAmplitude = 0.3;
    serving->diurnalPeriodCycles = 2'000'000;
    serving->burstProbability = 0.02;
    serving->burstRateMultiplier = 3.0;
    serving->burstMeanRequests = 16.0;
    serving->tenants = 64;
    serving->tenantSkew = 0.99;
    serving->meanSegments = 3.0;
    serving->segmentsSigma = 0.5;
    serving->warmupRequests = 150;
    serving->measureRequests = 1'000;
    return serving;
}

const char *
loadName(std::size_t load)
{
    return load == 0 ? "moderate" : "heavy";
}

std::vector<SweepPoint>
servingGrid(std::uint64_t seed)
{
    const WorkloadKind workload = WorkloadKind::Apache;
    const std::vector<std::uint64_t> seeds = replicaSeeds(seed);
    const auto profile =
        ExperimentRunner::profileServices(workload, seeds.front());
    const char *const names[] = {"SI", "DI", "HI"};

    std::vector<SweepPoint> points;
    for (std::size_t load = 0; load < kInterarrivals.size(); ++load) {
        for (Cycle migration : kServingMigrations) {
            for (int policy = 0; policy < 3; ++policy) {
                SweepPoint point;
                if (policy == 0) {
                    point.config = ExperimentRunner::staticInstrConfig(
                        workload, migration, profile, seeds.front());
                } else if (policy == 1) {
                    point.config = ExperimentRunner::dynamicInstrConfig(
                        workload, migration, 100, seeds.front());
                } else {
                    point.config =
                        ExperimentRunner::hardwareDynamicConfig(
                            workload, migration, seeds.front());
                }
                point.config.userCores = kServingCores;
                point.config.serving = servingOpenFleet(
                    kInterarrivals[load]);
                point.normalize = false;
                point.replicaSeeds = seeds;
                point.recordSpans = true;
                point.label = std::string(names[policy]) + "/" +
                              loadName(load) + "/lat=" +
                              std::to_string(migration);
                points.push_back(std::move(point));
            }
        }
    }
    return points;
}

TopologyConfig
numaTopology(unsigned os_cores, OsPlacement placement,
             OsDispatchPolicy dispatch)
{
    TopologyConfig topo;
    topo.osCores = os_cores;
    topo.numaNodes = 2;
    topo.placement = placement;
    topo.dispatch = dispatch;
    topo.intraNodeHopCycles = 50;
    topo.interNodeHopCycles = 1'000;
    if (dispatch == OsDispatchPolicy::WorkStealing)
        topo.spillDepth = 2;
    return topo;
}

struct NumaScenario
{
    const char *name;
    TopologyConfig topology;
};

/** numa_topology's cells, K1 first; the claims index this order. */
const std::vector<NumaScenario> &
numaScenarios()
{
    static const std::vector<NumaScenario> scenarios = {
        {"K1", numaTopology(1, OsPlacement::Packed,
                            OsDispatchPolicy::HomeNode)},
        {"K2/packed/home", numaTopology(2, OsPlacement::Packed,
                                        OsDispatchPolicy::HomeNode)},
        {"K2/packed/ll", numaTopology(2, OsPlacement::Packed,
                                      OsDispatchPolicy::LeastLoaded)},
        {"K2/packed/steal", numaTopology(2, OsPlacement::Packed,
                                         OsDispatchPolicy::WorkStealing)},
        {"K2/spread/home", numaTopology(2, OsPlacement::Spread,
                                        OsDispatchPolicy::HomeNode)},
        {"K2/spread/ll", numaTopology(2, OsPlacement::Spread,
                                      OsDispatchPolicy::LeastLoaded)},
        {"K2/spread/steal", numaTopology(2, OsPlacement::Spread,
                                         OsDispatchPolicy::WorkStealing)},
    };
    return scenarios;
}

std::vector<SweepPoint>
numaGrid(std::uint64_t seed)
{
    const std::vector<std::uint64_t> seeds = replicaSeeds(seed);
    std::vector<SweepPoint> points;
    for (std::size_t load = 0; load < kInterarrivals.size(); ++load) {
        for (const NumaScenario &scenario : numaScenarios()) {
            SweepPoint point;
            point.config = ExperimentRunner::hardwareConfig(
                WorkloadKind::Apache, 1'000, 1'000, seeds.front());
            point.config.userCores = kNumaCores;
            point.config.topology = scenario.topology;
            point.config.serving = fleet(DispatchPolicy::NodeAffinity,
                                         kInterarrivals[load]);
            point.normalize = false;
            point.replicaSeeds = seeds;
            point.recordSpans = true;
            point.label =
                std::string(scenario.name) + "/" + loadName(load);
            points.push_back(std::move(point));
        }
    }
    return points;
}

std::string
fmt(const char *format, double a, double b)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), format, a, b);
    return buf;
}

ClaimResult
claim(std::string id, bool held, std::string detail)
{
    return ClaimResult{std::move(id), held, std::move(detail)};
}

std::vector<ClaimResult>
fig5Claims(const std::vector<SweepPointResult> &r)
{
    // Points run (latency, workload, SI/DI/HI) then the aside row.
    const auto at = [&r](std::size_t latency, std::size_t kind,
                         std::size_t policy) {
        return r[latency * 12 + kind * 3 + policy].normalized;
    };
    constexpr std::size_t kConservative = 0, kAggressive = 1;
    constexpr std::size_t kApache = 0, kJbb = 1;
    constexpr std::size_t kSi = 0, kDi = 1, kHi = 2;

    std::vector<ClaimResult> claims;
    bool hi_gt_di = true;
    std::string detail;
    for (std::size_t kind : {kApache, kJbb}) {
        for (std::size_t lat : {kConservative, kAggressive}) {
            hi_gt_di = hi_gt_di && at(lat, kind, kHi) > at(lat, kind, kDi);
            detail += fmt("%.4f>%.4f ", at(lat, kind, kHi),
                          at(lat, kind, kDi));
        }
    }
    claims.push_back(claim("f5.hi_gt_di", hi_gt_di, detail));

    claims.push_back(claim(
        "f5.hi_ge_si_aggr",
        at(kAggressive, kApache, kHi) >= at(kAggressive, kApache, kSi),
        fmt("apache@100 HI %.4f >= SI %.4f",
            at(kAggressive, kApache, kHi),
            at(kAggressive, kApache, kSi))));

    const double gap_aggr =
        at(kAggressive, kApache, kHi) - at(kAggressive, kApache, kSi);
    const double gap_cons =
        at(kConservative, kApache, kHi) - at(kConservative, kApache, kSi);
    claims.push_back(claim("f5.gap_narrows", gap_aggr > gap_cons,
                           fmt("apache HI-SI %.4f@100 > %.4f@5000",
                               gap_aggr, gap_cons)));

    bool monotone = true;
    detail.clear();
    for (std::size_t i = 0; i < kAsideLatencies.size(); ++i) {
        const double v = r[24 + i].normalized;
        detail += formatDouble(v, 4) + " ";
        if (i > 0 && !(v < r[24 + i - 1].normalized))
            monotone = false;
    }
    claims.push_back(claim("f5.vb_monotone", monotone, detail));
    return claims;
}

std::vector<ClaimResult>
servingClaims(const std::vector<SweepPointResult> &r)
{
    // Points run (load, migration, SI/DI/HI).
    const auto at = [&r](std::size_t load, std::size_t migration,
                         std::size_t policy) -> const SimResults & {
        return r[load * 6 + migration * 3 + policy].results;
    };
    const auto p = [](const SimResults &s, double q) {
        return static_cast<double>(s.requestLatency.quantile(q));
    };
    constexpr std::size_t kCons = 0, kAggr = 1, kHeavy = 1;

    std::vector<ClaimResult> claims;
    bool si_best = true;
    std::string detail;
    for (std::size_t load = 0; load < 2; ++load) {
        const double si = p(at(load, kCons, 0), 0.99);
        const double di = p(at(load, kCons, 1), 0.99);
        const double hi = p(at(load, kCons, 2), 0.99);
        si_best = si_best && si < di && si < hi;
        detail += fmt("SI %.0f < min(DI,HI) %.0f; ", si, std::min(di, hi));
    }
    claims.push_back(claim("sv.si_tail_conservative", si_best, detail));

    const SimResults &si = at(kHeavy, kAggr, 0);
    const SimResults &di = at(kHeavy, kAggr, 1);
    const SimResults &hi = at(kHeavy, kAggr, 2);
    const bool saturates =
        p(si, 0.99) > p(di, 0.99) && p(si, 0.99) > p(hi, 0.99) &&
        si.requestThroughput < di.requestThroughput &&
        si.requestThroughput < hi.requestThroughput;
    claims.push_back(claim(
        "sv.si_saturates_aggr_heavy", saturates,
        fmt("SI p99 %.0f vs max(DI,HI) %.0f; ", p(si, 0.99),
            std::max(p(di, 0.99), p(hi, 0.99))) +
            fmt("SI req/kcy %.5f vs min(DI,HI) %.5f", si.requestThroughput,
                std::min(di.requestThroughput, hi.requestThroughput))));

    claims.push_back(claim("sv.hi_p50_le_di", p(hi, 0.5) <= p(di, 0.5),
                           fmt("heavy@100 HI p50 %.0f <= DI p50 %.0f",
                               p(hi, 0.5), p(di, 0.5))));
    return claims;
}

/** Two runs' served-request outcomes are the same. */
bool
sameServing(const SimResults &a, const SimResults &b)
{
    if (a.requestsCompleted != b.requestsCompleted ||
        a.makespan != b.makespan || a.retired != b.retired ||
        a.requestLatency.max() != b.requestLatency.max())
        return false;
    for (double q : {0.5, 0.95, 0.99, 0.999}) {
        if (a.requestLatency.quantile(q) != b.requestLatency.quantile(q))
            return false;
    }
    return true;
}

/** Relative throughput band that counts as "within noise". */
constexpr double kFlatBand = 0.02;

std::vector<ClaimResult>
numaClaims(const std::vector<SweepPointResult> &r)
{
    const std::size_t cells = numaScenarios().size();
    const auto at = [&r, cells](std::size_t load,
                                std::size_t cell) -> const SimResults & {
        return r[load * cells + cell].results;
    };
    constexpr std::size_t kK1 = 0, kPackedHome = 1, kPackedLl = 2;
    constexpr std::size_t kModerate = 0, kHeavy = 1;

    std::vector<ClaimResult> claims;
    const bool eq = sameServing(at(kModerate, kK1),
                                at(kModerate, kPackedHome)) &&
                    sameServing(at(kHeavy, kK1), at(kHeavy, kPackedHome));
    claims.push_back(claim("nm.packed_home_eq_k1", eq,
                           "K2/packed/home served requests as K1 did, "
                           "both loads"));

    const SimResults &k1 = at(kHeavy, kK1);
    const SimResults &ll = at(kHeavy, kPackedLl);
    const bool wins =
        ll.requestThroughput > k1.requestThroughput &&
        ll.requestLatency.quantile(0.5) < k1.requestLatency.quantile(0.5) &&
        ll.requestLatency.quantile(0.99) < k1.requestLatency.quantile(0.99);
    claims.push_back(claim(
        "nm.ll_wins_heavy", wins,
        fmt("heavy req/kcy ll %.5f vs K1 %.5f; ", ll.requestThroughput,
            k1.requestThroughput) +
            fmt("p99 ll %.0f vs K1 %.0f",
                double(ll.requestLatency.quantile(0.99)),
                double(k1.requestLatency.quantile(0.99)))));

    double lo = at(kModerate, 0).requestThroughput;
    double hi = lo;
    for (std::size_t cell = 1; cell < cells; ++cell) {
        lo = std::min(lo, at(kModerate, cell).requestThroughput);
        hi = std::max(hi, at(kModerate, cell).requestThroughput);
    }
    const double k1_rate = at(kModerate, kK1).requestThroughput;
    const double band = k1_rate > 0.0 ? (hi - lo) / k1_rate : 1.0;
    claims.push_back(claim("nm.flat_moderate", band <= kFlatBand,
                           fmt("moderate req/kcy spread %.4f of K1 "
                               "(band %.2f)",
                               band, kFlatBand)));

    std::uint64_t spills = 0;
    for (const SweepPointResult &point : r)
        spills += point.results.spills;
    claims.push_back(claim("nm.no_spills", spills == 0,
                           "spills " + std::to_string(spills)));
    return claims;
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadId &out)
{
    for (WorkloadId id : {WorkloadId::Fig5Grid, WorkloadId::ServingOpen,
                          WorkloadId::NumaK2}) {
        if (name == workloadIdName(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

const char *
workloadIdName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::Fig5Grid: return "fig5_grid";
      case WorkloadId::ServingOpen: return "serving_open";
      case WorkloadId::NumaK2: return "numa_k2";
    }
    return "?";
}

unsigned
workloadJobs(WorkloadId id)
{
    // serving_open runs two workers so the pool's replica sharding is
    // part of what it measures; the others run the benches' default.
    return id == WorkloadId::ServingOpen ? 2 : 1;
}

std::vector<std::uint64_t>
replicaSeeds(std::uint64_t seed)
{
    return {seed, seed + kReplicaStride};
}

std::shared_ptr<const ServingConfig>
servingOpenFleet(double mean_interarrival)
{
    return fleet(DispatchPolicy::RoundRobin, mean_interarrival);
}

std::vector<SweepPoint>
buildGrid(WorkloadId id, std::uint64_t seed)
{
    switch (id) {
      case WorkloadId::Fig5Grid: return fig5Grid(seed);
      case WorkloadId::ServingOpen: return servingGrid(seed);
      case WorkloadId::NumaK2: return numaGrid(seed);
    }
    return {};
}

std::vector<WorkloadKind>
gridWorkloadKinds(WorkloadId id)
{
    if (id == WorkloadId::Fig5Grid)
        return fig5Kinds();
    return {WorkloadKind::Apache};
}

std::vector<ClaimResult>
evaluateClaims(WorkloadId id, const std::vector<SweepPointResult> &results)
{
    switch (id) {
      case WorkloadId::Fig5Grid: return fig5Claims(results);
      case WorkloadId::ServingOpen: return servingClaims(results);
      case WorkloadId::NumaK2: return numaClaims(results);
    }
    return {};
}

std::string
checkPoint(const SweepPoint &point, const SweepPointResult &result)
{
    if (!result.ok)
        return "not ok: " + result.error;
    const SimResults &r = result.results;
    if (!std::isfinite(r.throughput) || r.throughput <= 0.0)
        return "throughput " + std::to_string(r.throughput);
    if (point.normalize &&
        (!std::isfinite(result.normalized) || result.normalized <= 0.0))
        return "normalized throughput " + std::to_string(result.normalized);
    if (point.config.serving != nullptr) {
        const std::uint64_t replicas =
            point.replicaSeeds.empty() ? 1 : point.replicaSeeds.size();
        const std::uint64_t want =
            point.config.serving->measureRequests * replicas;
        if (r.requestsCompleted != want) {
            return "completed " + std::to_string(r.requestsCompleted) +
                   " of " + std::to_string(want) + " requests";
        }
    }
    return "";
}

std::vector<std::string>
pointDigests(const std::vector<SweepPointResult> &results)
{
    std::vector<std::string> digests;
    digests.reserve(results.size());
    for (const SweepPointResult &result : results)
        digests.push_back(sweepPointResultsJson(result));
    return digests;
}

std::uint32_t
simDigest(const std::vector<std::string> &point_digests)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &doc : point_digests) {
        for (unsigned char c : doc) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff;
        h *= 0x100000001b3ULL;
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

void
clearCaches()
{
    ExperimentRunner::clearBaselineCache();
    ParallelSweepRunner::clearWarmSnapshotCache();
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace oscarbench
