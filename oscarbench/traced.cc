/**
 * @file
 * The traced run (`--trace 1`): per-layer numbers for one workload.
 *
 * Three passes over the grid, each from cold caches:
 *
 *  1. the default path, untraced (ParallelSweepRunner, as timed by
 *     `--trace 0`): the reference results and the pool's busy time;
 *  2. the same path decomposed on one thread — warm snapshot, fork,
 *     measured region, baseline, replica merge, report serialization
 *     — by calling the public functions ParallelSweepRunner::runPoint
 *     calls, each timed from here (system layer), and the untraced
 *     one-thread wall time;
 *  3. every point fresh with a MetricRegistry (and, for serving
 *     points, a SpanRecorder) attached: the mem, core, os and sim
 *     counts, and the traced one-thread wall time.
 *
 * Then the layer replays (replay.cc) repeat until `--seconds` is
 * spent, and their medians give the workload, cpu, mem and core host
 * costs. Pass 2 must reproduce pass 1 exactly (else the decomposition
 * times some other computation); points where pass 3 differs from
 * pass 1 are counted as observer mismatches, which is what attaching
 * an observer does today on a forked point.
 */

#include "bench.hh"

#include <cstdio>
#include <map>
#include <memory>

#include "sim/metrics.hh"
#include "sim/span.hh"

namespace oscarbench
{

using namespace oscar;

namespace
{

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Registry counts summed over every traced run of the grid. */
struct RegistryTotals
{
    double l1Hits = 0, l1Accesses = 0, l2Hits = 0, l2Accesses = 0;
    double c2c = 0, invalidations = 0, memFetches = 0, upgrades = 0;
    double lookups = 0, tableHits = 0, globalFallbacks = 0;
    double controllerSwitches = 0, eventsFired = 0, offers = 0;

    /** Fold in a registry; its System must still be alive (some
     *  series poll it). */
    void
    add(const MetricRegistry &registry)
    {
        const std::vector<double> values = registry.readSeries();
        const auto &series = registry.series();
        for (std::size_t i = 0; i < series.size(); ++i) {
            const std::string &n = series[i].name;
            const double v = values[i];
            if (startsWith(n, "mem.core")) {
                if (endsWith(n, ".l1i.hits") || endsWith(n, ".l1d.hits"))
                    l1Hits += v;
                else if (endsWith(n, ".l1i.accesses") ||
                         endsWith(n, ".l1d.accesses"))
                    l1Accesses += v;
                else if (endsWith(n, ".l2.user.hits") ||
                         endsWith(n, ".l2.os.hits"))
                    l2Hits += v;
                else if (endsWith(n, ".l2.user.accesses") ||
                         endsWith(n, ".l2.os.accesses"))
                    l2Accesses += v;
                else if (endsWith(n, ".c2c_transfers"))
                    c2c += v;
                else if (endsWith(n, ".inval.received"))
                    invalidations += v;
                else if (endsWith(n, ".memory_fetches"))
                    memFetches += v;
                else if (endsWith(n, ".upgrades"))
                    upgrades += v;
            } else if (startsWith(n, "pred.t")) {
                if (endsWith(n, ".lookups"))
                    lookups += v;
                else if (endsWith(n, ".table_hits"))
                    tableHits += v;
                else if (endsWith(n, ".global_fallbacks"))
                    globalFallbacks += v;
            } else if (n == "controller.switches") {
                controllerSwitches += v;
            } else if (n == "events.fired") {
                eventsFired += v;
            } else if (startsWith(n, "os.queue") && endsWith(n, ".offers")) {
                offers += v;
            }
        }
    }
};

/** Host seconds per sweep stage (pass 2). */
struct StageTimes
{
    double warm = 0, fork = 0, measure = 0, baseline = 0, merge = 0;
    std::size_t warmGroups = 0;
    std::size_t subRuns = 0;
};

/** Simulated outcomes pooled over the traced runs (pass 3). */
struct TracedTotals
{
    RegistryTotals registry;
    double hostS = 0.0;
    std::uint64_t spans = 0;
    LatencyHistogram queueWait;
    std::uint64_t steals = 0, spills = 0, migrationsInter = 0;
    std::uint64_t offloaded = 0, invocations = 0;
    double predictorWithin = 0.0;
    std::uint64_t predictorSamples = 0;

    void
    add(const SimResults &r)
    {
        if (r.spans != nullptr)
            spans += r.spans->spansRecorded;
        for (const OsQueueResult &q : r.osQueues)
            queueWait.merge(q.wait);
        steals += r.steals;
        spills += r.spills;
        migrationsInter += r.numaMigrationsInter;
        offloaded += r.offloadRatio.hits();
        invocations += r.offloadRatio.total();
        predictorWithin += r.accuracy.withinToleranceRate() *
                           static_cast<double>(r.accuracy.samples());
        predictorSamples += r.accuracy.samples();
    }
};

/** A point runs forked under default SweepOptions (the sweep's
 *  fork-eligibility rule, restated for the points this benchmark
 *  builds: no trace or metrics paths). */
bool
forks(const SweepPoint &point)
{
    if (point.recordSpans || !point.spansPath.empty())
        return false;
    if (point.config.serving != nullptr)
        return point.config.serving->warmupRequests > 0;
    return point.config.warmupInstructions > 0;
}

SystemConfig
subConfig(const SweepPoint &point, std::size_t replica)
{
    SystemConfig config = point.config;
    if (!point.replicaSeeds.empty())
        config.seed = point.replicaSeeds[replica];
    return config;
}

std::size_t
subRuns(const SweepPoint &point)
{
    return point.replicaSeeds.empty() ? 1 : point.replicaSeeds.size();
}

/** Fold a point's sub-runs the way ParallelSweepRunner does. */
SweepPointResult
foldPoint(const SweepPoint &point, std::size_t index,
          std::vector<SimResults> &&sims, std::vector<double> &&normalized)
{
    SweepPointResult result;
    result.index = index;
    result.label = point.label;
    result.config = point.config;
    result.replicaSeeds = point.replicaSeeds;
    result.ok = true;
    if (point.replicaSeeds.empty()) {
        result.results = std::move(sims.front());
        result.normalized = normalized.front();
        return result;
    }
    result.results = mergeReplicaResults(sims);
    double sum = 0.0;
    unsigned count = 0;
    for (double n : normalized) {
        if (n > 0.0) {
            sum += n;
            ++count;
        }
    }
    result.normalized = count > 0 ? sum / count : 0.0;
    return result;
}

double
normalizeTo(const SweepPoint &point, const SystemConfig &config,
            const SimResults &results)
{
    if (!point.normalize)
        return 0.0;
    const SimResults base = ExperimentRunner::baselineResults(config);
    return results.throughput / base.throughput;
}

/**
 * Pass 2: the default sweep path, stage by stage. Each stage's time
 * covers its whole call site, so a stage a workload skips (no fork,
 * no baseline, no replicas) still reads its dispatch cost, not 0.
 */
std::vector<SweepPointResult>
runDecomposed(const std::vector<SweepPoint> &points, StageTimes &t)
{
    std::map<std::string, std::shared_ptr<const System>> snapshots;
    std::vector<SweepPointResult> results;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &point = points[i];
        std::vector<SimResults> sims;
        std::vector<double> normalized;
        for (std::size_t r = 0; r < subRuns(point); ++r) {
            const SystemConfig config = subConfig(point, r);
            ++t.subRuns;
            SimResults sim;
            double t0 = nowSeconds();
            if (forks(point)) {
                const std::string key = sweepWarmupKey(config);
                auto it = snapshots.find(key);
                if (it == snapshots.end()) {
                    t.fork += nowSeconds() - t0;
                    t0 = nowSeconds();
                    auto warm =
                        std::make_shared<System>(sweepWarmerConfig(config));
                    warm->runToMeasurementStart();
                    t.warm += nowSeconds() - t0;
                    ++t.warmGroups;
                    it = snapshots.emplace(key, std::move(warm)).first;
                    t0 = nowSeconds();
                }
                const std::unique_ptr<System> forked = it->second->clone();
                forked->reconfigureForMeasurement(config);
                t.fork += nowSeconds() - t0;
                t0 = nowSeconds();
                sim = forked->resumeRun();
                t.measure += nowSeconds() - t0;
            } else {
                t.fork += nowSeconds() - t0;
                std::unique_ptr<SpanRecorder> spans;
                t0 = nowSeconds();
                System system(config);
                if (point.recordSpans) {
                    spans = std::make_unique<SpanRecorder>(
                        point.spanExemplars);
                    system.setSpanRecorder(spans.get());
                }
                system.runToMeasurementStart();
                t.warm += nowSeconds() - t0;
                ++t.warmGroups;
                t0 = nowSeconds();
                sim = system.resumeRun();
                t.measure += nowSeconds() - t0;
            }
            t0 = nowSeconds();
            normalized.push_back(normalizeTo(point, config, sim));
            t.baseline += nowSeconds() - t0;
            sims.push_back(std::move(sim));
        }
        const double t0 = nowSeconds();
        results.push_back(foldPoint(point, i, std::move(sims),
                                    std::move(normalized)));
        t.merge += nowSeconds() - t0;
    }
    return results;
}

/** Pass 3: every sub-run fresh, observed. */
std::vector<SweepPointResult>
runTracedFresh(const std::vector<SweepPoint> &points, TracedTotals &totals)
{
    std::vector<SweepPointResult> results;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &point = points[i];
        std::vector<SimResults> sims;
        std::vector<double> normalized;
        for (std::size_t r = 0; r < subRuns(point); ++r) {
            const SystemConfig config = subConfig(point, r);
            // Endpoint samples only: the counts are cumulative.
            MetricRegistry registry(0);
            std::unique_ptr<SpanRecorder> spans;
            const double t0 = nowSeconds();
            System system(config);
            system.setMetricRegistry(&registry);
            if (config.serving != nullptr) {
                spans = std::make_unique<SpanRecorder>(point.spanExemplars);
                system.setSpanRecorder(spans.get());
            }
            system.runToMeasurementStart();
            SimResults sim = system.resumeRun();
            totals.hostS += nowSeconds() - t0;
            totals.registry.add(registry);
            totals.add(sim);
            normalized.push_back(normalizeTo(point, config, sim));
            sims.push_back(std::move(sim));
        }
        results.push_back(foldPoint(point, i, std::move(sims),
                                    std::move(normalized)));
    }
    return results;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

RunOutput
runTraced(WorkloadId id, std::uint64_t seed, double seconds)
{
    RunOutput out;
    const double deadline = nowSeconds() + seconds;
    const unsigned jobs = workloadJobs(id);

    // Pass 1: the untraced default path.
    const DefaultRun untraced = runDefault(id, seed, jobs);
    const std::vector<std::string> reference =
        pointDigests(untraced.results);
    double busy_s = 0.0;
    for (const SweepPointResult &r : untraced.results)
        busy_s += r.wallMs / 1e3;

    // Pass 2: the same path, stage by stage, on one thread.
    clearCaches();
    StageTimes stages;
    const double pass2_start = nowSeconds();
    const std::vector<SweepPoint> points = buildGrid(id, seed);
    const double profile_s = nowSeconds() - pass2_start;
    const std::vector<SweepPointResult> decomposed =
        runDecomposed(points, stages);
    SweepReport report(workloadIdName(id), jobs);
    report.addAll(decomposed);
    double t0 = nowSeconds();
    const std::string doc = report.toJson();
    const double serialize_s = nowSeconds() - t0;
    const double untraced_wall_s = nowSeconds() - pass2_start;

    // Pass 3: fresh and observed, timed end to end like pass 2 (both
    // on one thread, so the difference is what observing costs,
    // including the fork it forgoes).
    clearCaches();
    TracedTotals traced;
    t0 = nowSeconds();
    const std::vector<SweepPointResult> observed =
        runTracedFresh(buildGrid(id, seed), traced);
    SweepReport traced_report(workloadIdName(id), 1);
    traced_report.addAll(observed);
    const std::string traced_doc = traced_report.toJson();
    const double traced_wall_s = nowSeconds() - t0;

    const std::vector<std::string> decomposed_digests =
        pointDigests(decomposed);
    const std::vector<std::string> observed_digests = pointDigests(observed);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        ++out.attempted;
        std::string reason = checkPoint(points[i], untraced.results[i]);
        if (reason.empty() && decomposed_digests[i] != reference[i])
            reason = "stage-by-stage run differs from the sweep runner";
        if (!reason.empty()) {
            ++out.failed;
            out.failures.push_back(points[i].label + ": " + reason);
        }
        if (observed_digests[i] != reference[i])
            ++mismatches;
    }

    // Layer replays until the run's time is spent.
    const std::vector<WorkloadKind> kinds = gridWorkloadKinds(id);
    const std::shared_ptr<const ServingConfig> serving =
        points.front().config.serving != nullptr
            ? points.front().config.serving
            : servingOpenFleet(26'000.0);
    std::vector<ReplayTimings> replays;
    double last_pass = 0.0;
    do {
        const double pass_start = nowSeconds();
        replays.push_back(replayLayers(kinds, *serving, seed));
        last_pass = nowSeconds() - pass_start;
        ++out.attempted;
        if (!replays.back().mismatches.empty())
            ++out.failed;
        for (const std::string &m : replays.back().mismatches)
            out.failures.push_back("replay: " + m);
    } while (nowSeconds() + last_pass < deadline);
    const auto replayMedian = [&replays](double ReplayTimings::*field) {
        std::vector<double> values;
        for (const ReplayTimings &r : replays)
            values.push_back(r.*field);
        return median(values);
    };

    const RegistryTotals &reg = traced.registry;
    const double krefs = reg.l1Accesses / 1e3;
    out.correct = out.failed == 0;
    out.metrics = {
        {"workload.gen_ns_per_ref",
         replayMedian(&ReplayTimings::genNsPerRef), "ns"},
        {"workload.next_ns_per_token",
         replayMedian(&ReplayTimings::nextNsPerToken), "ns"},
        {"workload.arrival_ns", replayMedian(&ReplayTimings::arrivalNs),
         "ns"},
        {"workload.refs", static_cast<double>(replays.front().refs),
         "count"},
        {"cpu.execute_ns_per_ref",
         replayMedian(&ReplayTimings::executeNsPerRef), "ns"},
        {"cpu.long_segment_ref_share", replays.front().longSegmentRefShare,
         "ratio"},
        {"mem.access_ns_per_ref",
         replayMedian(&ReplayTimings::accessNsPerRef), "ns"},
        {"mem.l1_hit_ratio", ratio(reg.l1Hits, reg.l1Accesses), "ratio"},
        {"mem.l2_hit_ratio", ratio(reg.l2Hits, reg.l2Accesses), "ratio"},
        {"mem.c2c_per_kref", ratio(reg.c2c, krefs), "1/kref"},
        {"mem.inval_per_kref", ratio(reg.invalidations, krefs), "1/kref"},
        {"mem.mem_fetch_per_kref", ratio(reg.memFetches, krefs),
         "1/kref"},
        {"mem.upgrades_per_kref", ratio(reg.upgrades, krefs), "1/kref"},
        {"core.decide_ns", replayMedian(&ReplayTimings::decideNs), "ns"},
        {"core.table_hit_ratio", ratio(reg.tableHits, reg.lookups),
         "ratio"},
        {"core.global_fallback_ratio",
         ratio(reg.globalFallbacks, reg.lookups), "ratio"},
        {"core.predict_accuracy",
         ratio(traced.predictorWithin,
               static_cast<double>(traced.predictorSamples)),
         "ratio"},
        {"core.offload_ratio",
         ratio(static_cast<double>(traced.offloaded),
               static_cast<double>(traced.invocations)),
         "ratio"},
        {"core.controller_switches", reg.controllerSwitches, "count"},
        {"os.offers", reg.offers, "count"},
        {"os.queue_wait_p99_cy",
         static_cast<double>(traced.queueWait.quantile(0.99)), "cycles"},
        {"os.steals", static_cast<double>(traced.steals), "count"},
        {"os.spills", static_cast<double>(traced.spills), "count"},
        {"os.migrations_inter", static_cast<double>(traced.migrationsInter),
         "count"},
        {"sim.events_fired", reg.eventsFired, "count"},
        {"sim.ns_per_event", ratio(traced.hostS * 1e9, reg.eventsFired),
         "ns"},
        {"sim.spans_recorded", static_cast<double>(traced.spans), "count"},
        {"sim.trace_overhead_s", traced_wall_s - untraced_wall_s, "s"},
        {"system.profile_s", profile_s, "s"},
        {"system.baseline_s", stages.baseline, "s"},
        {"system.fork_s", stages.fork, "s"},
        {"system.warm_s", stages.warm, "s"},
        {"system.measure_s", stages.measure, "s"},
        {"system.merge_s", stages.merge, "s"},
        {"system.serialize_s", serialize_s, "s"},
        {"system.report_bytes", static_cast<double>(doc.size()), "bytes"},
        {"system.points", static_cast<double>(points.size()), "count"},
        {"system.warm_groups", static_cast<double>(stages.warmGroups),
         "count"},
        {"system.fork_reuse",
         ratio(static_cast<double>(stages.subRuns),
               static_cast<double>(stages.warmGroups)),
         "ratio"},
        {"system.pool_busy_ratio", ratio(busy_s, untraced.wallS * jobs),
         "ratio"},
        {"system.observer_mismatch_points",
         static_cast<double>(mismatches), "count"},
        {"system.sim_digest", static_cast<double>(simDigest(reference)),
         "id"},
    };
    std::printf("replay passes: %zu, traced report %zu bytes\n",
                replays.size(), traced_doc.size());
    return out;
}

} // namespace oscarbench
