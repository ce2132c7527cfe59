/**
 * @file
 * Self-timing wall-clock performance harness (`oscar.perfbench.v1`).
 *
 * Simulator throughput is a first-class deliverable: the paper's
 * figures are produced by sweeping hundreds of configurations, so a
 * 1.3x hot-loop speedup is the difference between a coffee break and
 * an afternoon. This harness times representative end-to-end and
 * micro scenarios and emits a machine-readable report so the perf
 * trajectory of the repository is a tracked artifact (BENCH_perf.json
 * at the repo root) instead of an assertion in a commit message.
 *
 * Scenarios:
 *  - fig5_policy_points: the Figure 5 policy comparison shape —
 *    SI/DI/HI at the Conservative and Aggressive migration design
 *    points over apache + specjbb — run through ParallelSweepRunner
 *    with one worker so the single-thread simulation hot loop is what
 *    is measured. Baselines and SI profiles are warmed before timing;
 *    every repetition pays its warm-ups and generates each reference
 *    stream once (see Methodology). The record carries the
 *    deterministic counts of references generated and replayed per
 *    repetition.
 *  - serving_tiny: the `serving_tail_latency --tiny` grid — SI/DI/HI
 *    at two migration design points under two offered loads — so the
 *    committed baseline covers the request-serving layer.
 *  - numa_tiny: the `numa_topology --tiny` grid — K=1 plus six K=2
 *    placement×dispatch scenarios under two offered loads — so the
 *    baseline covers the multi-OS-core NUMA layer.
 *  - spans_overhead: the serving_tiny grid again with a SpanRecorder
 *    attached to every point; the delta against serving_tiny is the
 *    whole-grid cost of per-request span capture (sim/span.hh), the
 *    price the serving benches now pay for phase attribution.
 *  - trace_stream: one apache/HI run streaming an `oscar.trace.v1`
 *    JSONL trace to disk; measures the trace serialization + write
 *    path on top of simulation.
 *  - metrics_stream: the same apache/HI run with a MetricRegistry
 *    attached (100k-instruction sampling) and an `oscar.metrics.v1`
 *    file written at the end; measures the metric polling and
 *    sampling overhead on top of simulation.
 *  - predictor_cam_hot: CAM predict/update over a Zipf-skewed stream
 *    of 80 hot AStates (mostly hits — the paper's steady state).
 *  - predictor_cam_churn: CAM predict/update over 4096 uniform
 *    AStates (mostly misses — constant eviction pressure).
 *  - predictor_dm_hot / predictor_infinite_hot: the predictor_cam_hot
 *    stream through the 1500-entry tag-less direct-mapped RAM and the
 *    unbounded table, the other two organizations of Section III-A.
 *  - event_queue_hot: the event kernel alone — a steady population of
 *    64 pending payload events, each pop rescheduling one event a
 *    pseudo-random distance ahead; the record carries ns per event
 *    (one pop plus one schedule), a host-independent rate for the
 *    event-loop layer.
 *
 * Methodology: every scenario runs `--warmup` untimed iterations and
 * then `--reps` timed repetitions; the report carries each run plus
 * the median and the median absolute deviation (MAD), which is robust
 * to the occasional scheduling hiccup of a shared CI box. Warm
 * snapshots and reference tapes live only as long as one
 * ParallelSweepRunner::run(), so each repetition of a sweep scenario
 * (fig5_policy_points, serving_tiny, numa_tiny) pays its warm-ups;
 * only the baseline cache carries over between repetitions.
 *
 * Usage:
 *   perf_wallclock [--reps N] [--warmup N] [--json PATH]
 *                  [--compare BASELINE] [--summary PATH]
 *                  [--fail-over FACTOR] [--only NAMES] [--quick]
 *
 * The oscar.perfbench.v1 report is written only to an explicit
 * `--json PATH` (re-blessing the reference is `--json BENCH_perf.json`),
 * so a smoke run never overwrites a tracked file.
 *
 * `--only a,b` runs just the named scenarios (for iterating on one
 * hot path without paying for the full suite); an unknown name is a
 * usage error, as are a `--reps`/`--warmup` that is not a whole
 * non-negative number and a `--fail-over` that is not a finite
 * factor above 0 (exit status 2). `--compare` prints a
 * per-scenario table (median ± MAD, percent delta, speedup) against a
 * previous report, e.g. the committed BENCH_perf.json; `--summary`
 * appends the same table as markdown (for the CI job summary). The
 * run stays advisory unless `--fail-over F` is given, in which case
 * it exits nonzero when any scenario's median regresses past F times
 * the baseline's — CI uses 2.0, so only gross regressions gate while
 * shared-runner noise does not. The gate is MAD-aware: the threshold
 * stretches by the relative median-absolute-deviation of whichever
 * side is noisier, so a scenario whose run-to-run spread is 4 % of
 * its median (numa_tiny on a shared box) cannot false-alarm on spread
 * alone; scenarios known to be high-variance also run extra reps so
 * their median itself is steadier.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_length_predictor.hh"
#include "cpu/exec_engine.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/random.hh"
#include "system/metrics_capture.hh"
#include "system/sweep.hh"
#include "system/trace_capture.hh"

namespace
{

using namespace oscar;

/** Report schema identifier. */
constexpr const char *kPerfSchema = "oscar.perfbench.v1";

struct PerfOptions
{
    int reps = 5;
    int warmup = 1;
    /** Report destination; empty (the default) writes no report. */
    std::string jsonPath;
    std::string comparePath;
    std::string traceOutPath = "perf_wallclock.trace.jsonl";
    std::string metricsOutPath = "perf_wallclock.metrics.jsonl";
    /**
     * Markdown regression table destination (e.g. the CI job summary
     * file); empty writes none. Only meaningful with --compare.
     */
    std::string summaryPath;
    /**
     * When > 0, exit nonzero if any scenario's median exceeds the
     * baseline's by more than this factor (stretched by the relative
     * MAD of the noisier side; see regressionThreshold). CI passes
     * 2.0: a >2x slowdown is a real regression even on a noisy shared
     * runner.
     */
    double failOver = 0.0;
    /** When non-empty, run only the scenarios named here. */
    std::vector<std::string> only;

    /** True when `name` should run under the --only filter. */
    bool
    selected(const std::string &name) const
    {
        if (only.empty())
            return true;
        return std::find(only.begin(), only.end(), name) != only.end();
    }
};

/** One timed scenario's outcome. */
struct ScenarioResult
{
    std::string name;
    std::vector<double> runsMs;
    double medianMs = 0.0;
    double madMs = 0.0;
    /** Scenario-specific metadata (printed and serialized verbatim). */
    std::vector<std::pair<std::string, std::string>> meta;
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
medianAbsDeviation(const std::vector<double> &values, double center)
{
    std::vector<double> dev;
    dev.reserve(values.size());
    for (double v : values)
        dev.push_back(std::abs(v - center));
    return median(std::move(dev));
}

/** Time body() once, in milliseconds. */
template <typename F>
double
timeOnce(F &&body)
{
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

/**
 * Run warmup + timed reps of body() and reduce to a ScenarioResult.
 *
 * `rep_boost` multiplies the configured rep count — high-variance
 * scenarios (request-serving grids, whose wall time depends on how
 * the host scheduler slices their many short simulations) pass 2 so
 * their median stabilizes instead of false-alarming the CI gate.
 */
template <typename F>
ScenarioResult
measure(const std::string &name, const PerfOptions &opts, F &&body,
        int rep_boost = 1)
{
    std::printf("  %-23s", name.c_str());
    std::fflush(stdout);
    for (int i = 0; i < opts.warmup; ++i)
        body();
    ScenarioResult result;
    result.name = name;
    const int reps = opts.reps * std::max(1, rep_boost);
    for (int i = 0; i < reps; ++i)
        result.runsMs.push_back(timeOnce(body));
    result.medianMs = median(result.runsMs);
    result.madMs = medianAbsDeviation(result.runsMs, result.medianMs);
    std::printf("median %9.2f ms   mad %6.2f ms   (%d reps)\n",
                result.medianMs, result.madMs, reps);
    return result;
}

// ---------------------------------------------------------------------
// Scenario: fig5 policy-comparison points

std::vector<WorkloadKind>
fig5Workloads()
{
    return {WorkloadKind::Apache, WorkloadKind::SpecJbb};
}

std::vector<SweepPoint>
fig5Points(const std::map<WorkloadKind,
                          std::shared_ptr<const ServiceProfile>> &profiles)
{
    constexpr InstCount kMeasure = 1'000'000;
    constexpr InstCount kWarmup = 400'000;
    const std::vector<Cycle> design_points = {5000, 100};

    std::vector<SweepPoint> points;
    for (Cycle latency : design_points) {
        for (WorkloadKind kind : fig5Workloads()) {
            const std::string base =
                workloadName(kind) + "/lat=" + std::to_string(latency);
            SweepPoint si;
            si.label = base + "/si";
            si.config = ExperimentRunner::staticInstrConfig(
                kind, latency, profiles.at(kind));
            SweepPoint di;
            di.label = base + "/di";
            di.config = ExperimentRunner::dynamicInstrConfig(kind,
                                                             latency, 100);
            SweepPoint hi;
            hi.label = base + "/hi";
            hi.config = ExperimentRunner::hardwareDynamicConfig(kind,
                                                                latency);
            for (SweepPoint *p : {&si, &di, &hi}) {
                p->config.measureInstructions = kMeasure;
                p->config.warmupInstructions = kWarmup;
                points.push_back(std::move(*p));
            }
        }
    }
    return points;
}

ScenarioResult
runFig5Scenario(const PerfOptions &opts)
{
    std::map<WorkloadKind, std::shared_ptr<const ServiceProfile>>
        profiles;
    for (WorkloadKind kind : fig5Workloads())
        profiles[kind] = ExperimentRunner::profileServices(kind);
    const std::vector<SweepPoint> points = fig5Points(profiles);

    // Baselines are cached across reps; warm the cache (and the
    // allocator) before the clock starts so timed reps measure the
    // variant simulations, i.e. the hot loop under test.
    ParallelSweepRunner runner({/*jobs=*/1});
    std::uint64_t invocations = 0;
    SweepRunStats stats;
    bool all_ok = true;
    ScenarioResult result =
        measure("fig5_policy_points", opts, [&] {
            const auto results = runner.run(points, stats);
            invocations = 0;
            for (const SweepPointResult &point : results) {
                all_ok = all_ok && point.ok;
                invocations += point.results.invocations;
            }
        });
    result.meta.emplace_back("points", std::to_string(points.size()));
    result.meta.emplace_back("invocations",
                             std::to_string(invocations));
    result.meta.emplace_back("refs_generated",
                             std::to_string(stats.generatedRefs));
    result.meta.emplace_back("refs_replayed",
                             std::to_string(stats.replayedRefs));
    result.meta.emplace_back("all_ok", all_ok ? "true" : "false");
    return result;
}

// ---------------------------------------------------------------------
// Scenario: serving tail-latency grid (tiny scale)

/**
 * The serving front-end of `serving_tail_latency --tiny`, verbatim:
 * the perf scenario must cover the same warm-up/measure horizons and
 * arrival process as the CI smoke grid it stands in for.
 */
std::shared_ptr<const ServingConfig>
tinyServing(double mean_interarrival)
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->dispatch = DispatchPolicy::RoundRobin;
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
    serving->warmupRequests = 40;
    serving->measureRequests = 150;
    return serving;
}

/**
 * The `serving_tail_latency --tiny` grid: SI/DI/HI at two migration
 * design points under two offered loads, one seed — 12 request-mode
 * points on two user cores. `record_spans` attaches a SpanRecorder to
 * every point (the spans_overhead scenario).
 */
std::vector<SweepPoint>
servingTinyPoints(bool record_spans)
{
    const WorkloadKind workload = WorkloadKind::Apache;
    const auto profile = ExperimentRunner::profileServices(workload);
    const std::vector<double> loads = {26'000.0, 14'000.0};
    const std::vector<Cycle> migrations = {5'000, 100};

    std::vector<SweepPoint> points;
    for (double load : loads) {
        for (Cycle migration : migrations) {
            SweepPoint si;
            si.config = ExperimentRunner::staticInstrConfig(
                workload, migration, profile);
            SweepPoint di;
            di.config = ExperimentRunner::dynamicInstrConfig(
                workload, migration, 100);
            SweepPoint hi;
            hi.config = ExperimentRunner::hardwareDynamicConfig(
                workload, migration);
            for (SweepPoint *p : {&si, &di, &hi}) {
                p->config.userCores = 2;
                p->config.serving = tinyServing(load);
                p->normalize = false;
                p->recordSpans = record_spans;
                p->label = "p" + std::to_string(points.size());
                points.push_back(std::move(*p));
            }
        }
    }
    return points;
}

ScenarioResult
runServingTinyScenario(const PerfOptions &opts)
{
    const std::vector<SweepPoint> points =
        servingTinyPoints(/*record_spans=*/false);

    ParallelSweepRunner runner({/*jobs=*/1});
    std::uint64_t requests = 0;
    bool all_ok = true;
    ScenarioResult result = measure("serving_tiny", opts, [&] {
        const auto results = runner.run(points);
        requests = 0;
        for (const SweepPointResult &point : results) {
            all_ok = all_ok && point.ok;
            requests += point.results.requestsCompleted;
        }
    }, /*rep_boost=*/2);
    result.meta.emplace_back("points", std::to_string(points.size()));
    result.meta.emplace_back("requests", std::to_string(requests));
    result.meta.emplace_back("all_ok", all_ok ? "true" : "false");
    return result;
}

// ---------------------------------------------------------------------
// Scenario: serving grid with span capture attached

/**
 * Identical grid to serving_tiny but with per-request span recording
 * on every point, so `spans_overhead − serving_tiny` bounds the cost
 * of the span instrumentation over a representative serving sweep.
 * (Span points never warm-snapshot fork, matching how the serving
 * benches actually run them.)
 */
ScenarioResult
runSpansOverheadScenario(const PerfOptions &opts)
{
    const std::vector<SweepPoint> points =
        servingTinyPoints(/*record_spans=*/true);

    ParallelSweepRunner runner({/*jobs=*/1});
    std::uint64_t requests = 0;
    std::uint64_t spans = 0;
    bool all_ok = true;
    ScenarioResult result = measure("spans_overhead", opts, [&] {
        const auto results = runner.run(points);
        requests = 0;
        spans = 0;
        for (const SweepPointResult &point : results) {
            all_ok = all_ok && point.ok;
            requests += point.results.requestsCompleted;
            if (point.results.spans != nullptr)
                spans += point.results.spans->spansRecorded;
        }
    }, /*rep_boost=*/2);
    result.meta.emplace_back("points", std::to_string(points.size()));
    result.meta.emplace_back("requests", std::to_string(requests));
    result.meta.emplace_back("spans", std::to_string(spans));
    result.meta.emplace_back("all_ok", all_ok ? "true" : "false");
    return result;
}

// ---------------------------------------------------------------------
// Scenario: NUMA topology grid (tiny scale)

/**
 * The `numa_topology --tiny` grid: K=1 plus six K=2
 * placement×dispatch scenarios under two offered loads, one seed —
 * 14 request-mode points on a two-node machine.
 */
ScenarioResult
runNumaTinyScenario(const PerfOptions &opts)
{
    const WorkloadKind workload = WorkloadKind::Apache;
    const std::vector<double> loads = {26'000.0, 14'000.0};

    auto topology = [](unsigned os_cores, OsPlacement placement,
                       OsDispatchPolicy dispatch) {
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
    };
    const std::vector<TopologyConfig> topologies = {
        topology(1, OsPlacement::Packed, OsDispatchPolicy::HomeNode),
        topology(2, OsPlacement::Packed, OsDispatchPolicy::HomeNode),
        topology(2, OsPlacement::Packed, OsDispatchPolicy::LeastLoaded),
        topology(2, OsPlacement::Packed, OsDispatchPolicy::WorkStealing),
        topology(2, OsPlacement::Spread, OsDispatchPolicy::HomeNode),
        topology(2, OsPlacement::Spread, OsDispatchPolicy::LeastLoaded),
        topology(2, OsPlacement::Spread, OsDispatchPolicy::WorkStealing),
    };

    std::vector<SweepPoint> points;
    for (double load : loads) {
        for (const TopologyConfig &topo : topologies) {
            SweepPoint point;
            point.config = ExperimentRunner::hardwareConfig(
                workload, /*static_n=*/1'000, /*migration_one_way=*/1'000);
            point.config.userCores = 4;
            point.config.topology = topo;
            point.config.serving = tinyServing(load);
            point.normalize = false;
            point.label = "p" + std::to_string(points.size());
            points.push_back(std::move(point));
        }
    }

    ParallelSweepRunner runner({/*jobs=*/1});
    std::uint64_t requests = 0;
    bool all_ok = true;
    ScenarioResult result = measure("numa_tiny", opts, [&] {
        const auto results = runner.run(points);
        requests = 0;
        for (const SweepPointResult &point : results) {
            all_ok = all_ok && point.ok;
            requests += point.results.requestsCompleted;
        }
    }, /*rep_boost=*/2);
    result.meta.emplace_back("points", std::to_string(points.size()));
    result.meta.emplace_back("requests", std::to_string(requests));
    result.meta.emplace_back("all_ok", all_ok ? "true" : "false");
    return result;
}

// ---------------------------------------------------------------------
// Scenario: trace-enabled run

ScenarioResult
runTraceScenario(const PerfOptions &opts)
{
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/1000,
        /*migration_one_way=*/100);
    config.warmupInstructions = 200'000;
    config.measureInstructions = 1'800'000;

    bool wrote = true;
    ScenarioResult result = measure("trace_stream", opts, [&] {
        wrote = writeTraceFile(config, opts.traceOutPath) && wrote;
    });

    std::uint64_t bytes = 0;
    {
        std::ifstream in(opts.traceOutPath,
                         std::ios::binary | std::ios::ate);
        if (in)
            bytes = static_cast<std::uint64_t>(in.tellg());
    }
    std::remove(opts.traceOutPath.c_str());
    result.meta.emplace_back("trace_bytes", std::to_string(bytes));
    result.meta.emplace_back("wrote", wrote ? "true" : "false");
    return result;
}

// ---------------------------------------------------------------------
// Scenario: metrics-enabled run

ScenarioResult
runMetricsScenario(const PerfOptions &opts)
{
    // Same configuration as trace_stream, so the two scenarios bound
    // the cost of each observability path over an identical run.
    SystemConfig config = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, /*static_n=*/1000,
        /*migration_one_way=*/100);
    config.warmupInstructions = 200'000;
    config.measureInstructions = 1'800'000;

    bool wrote = true;
    std::size_t samples = 0;
    ScenarioResult result = measure("metrics_stream", opts, [&] {
        MetricRegistry registry(/*sample_every=*/100'000);
        (void)ExperimentRunner::run(config, nullptr, &registry);
        samples = registry.samples().size();
        wrote = writeMetricsFile(registry, config,
                                 opts.metricsOutPath) && wrote;
    });

    std::uint64_t bytes = 0;
    {
        std::ifstream in(opts.metricsOutPath,
                         std::ios::binary | std::ios::ate);
        if (in)
            bytes = static_cast<std::uint64_t>(in.tellg());
    }
    std::remove(opts.metricsOutPath.c_str());
    result.meta.emplace_back("samples", std::to_string(samples));
    result.meta.emplace_back("metrics_bytes", std::to_string(bytes));
    result.meta.emplace_back("wrote", wrote ? "true" : "false");
    return result;
}

// ---------------------------------------------------------------------
// Scenario: predictor microbenchmarks

std::vector<std::uint64_t>
zipfAStateStream(std::size_t count, std::size_t hot)
{
    Rng rng(7);
    std::vector<std::uint64_t> values(hot);
    for (auto &v : values)
        v = rng.next64();
    ZipfDistribution zipf(values.size(), 0.9);
    std::vector<std::uint64_t> stream(count);
    for (auto &v : stream)
        v = values[zipf.sample(rng)];
    return stream;
}

std::vector<std::uint64_t>
uniformAStateStream(std::size_t count, std::size_t distinct)
{
    Rng rng(13);
    std::vector<std::uint64_t> values(distinct);
    for (auto &v : values)
        v = rng.next64();
    std::vector<std::uint64_t> stream(count);
    for (auto &v : stream)
        v = values[rng.nextBounded(values.size())];
    return stream;
}

template <typename Predictor>
ScenarioResult
runPredictorScenario(const std::string &name, const PerfOptions &opts,
                     const std::vector<std::uint64_t> &stream)
{
    constexpr std::size_t kOps = 2'000'000;
    InstCount sink = 0;
    ScenarioResult result = measure(name, opts, [&] {
        Predictor predictor;
        const std::size_t mask = stream.size() - 1;
        for (std::size_t i = 0; i < kOps; ++i) {
            const std::uint64_t astate = stream[i & mask];
            sink += predictor.predict(astate).length;
            predictor.update(astate, 100 + (astate & 1023));
        }
        sink += predictor.occupancy();
    });
    result.meta.emplace_back("ops", std::to_string(kOps));
    result.meta.emplace_back("checksum", std::to_string(sink & 0xFFFF));
    return result;
}

// ---------------------------------------------------------------------
// Scenario: batched execution kernel microbenchmark

/**
 * Times ExecEngine::execute + MemorySystem::accessBatch alone — no
 * scheduler, policy, events or serving layer — on one core with an
 * apache-user-like segment shape (hot code, a Zipf heap, a small
 * stack). This is the measured-region hot loop of every figure
 * scenario distilled to the two components the batched kernel
 * rebuilt, so kernel-level regressions show up here undiluted.
 */
ScenarioResult
runExecHotScenario(const PerfOptions &opts)
{
    constexpr InstCount kInstructionsPerRep = 4'000'000;

    AddressSpace space;
    RegionParams code{"code", 256 * 1024, 1.25, 0.5, 64, 0.80, 12, 8};
    RegionParams heap{"heap", 4 * 1024 * 1024, 0.9, 0.1, 64, 0.70,
                      48, 8};
    RegionParams stack{"stack", 64 * 1024, 1.1, 0.2, 64, 0.80, 8, 8};
    AddressRegion *code_r = space.allocate(code);
    AddressRegion *heap_r = space.allocate(heap);
    AddressRegion *stack_r = space.allocate(stack);

    SegmentProfile profile(code_r, /*instr_per_data=*/4.0,
                           /*instr_per_fetch=*/8.0);
    profile.addData(heap_r, 3.0, 0.3);
    profile.addData(stack_r, 1.0, 0.5);
    profile.finalize();

    MemorySystem mem(1, HierarchyGeometry{}, MemTimings{});
    Rng rng(2024);
    std::uint64_t refs = 0;
    Cycle cycles = 0;
    // The RNG stream and caches carry across reps: after the first
    // rep (and the untimed warmups) every rep measures the
    // steady-state kernel, not cold-cache fill.
    ScenarioResult result = measure("exec_hot", opts, [&] {
        const ExecResult r =
            ExecEngine::execute(mem, 0, ExecContext::User,
                                kInstructionsPerRep, profile, rng);
        refs = r.dataAccesses + r.fetches;
        cycles = r.cycles;
    });
    result.meta.emplace_back("instructions",
                             std::to_string(kInstructionsPerRep));
    result.meta.emplace_back("refs", std::to_string(refs));
    result.meta.emplace_back("checksum",
                             std::to_string(cycles & 0xFFFF));
    return result;
}

// ---------------------------------------------------------------------
// Scenario: event-queue microbenchmark

/**
 * Times EventQueue alone on the shape of System's loop, where every
 * fired event schedules its successor: a fixed population of pending
 * events, each pop followed by one schedule a pseudo-random 1..5,000
 * cycles ahead.
 */
ScenarioResult
runEventQueueHotScenario(const PerfOptions &opts)
{
    constexpr std::uint32_t kPending = 64;
    constexpr std::uint64_t kEvents = 4'000'000;
    constexpr std::size_t kDelayMask = 1023;

    Rng rng(31);
    std::vector<Cycle> delays(kDelayMask + 1);
    for (Cycle &delay : delays)
        delay = 1 + rng.nextBounded(5000);

    Cycle end = 0;
    ScenarioResult result = measure("event_queue_hot", opts, [&] {
        EventQueue queue;
        for (std::uint32_t i = 0; i < kPending; ++i)
            queue.schedule(delays[i], EventPayload{0, i, 0});
        for (std::uint64_t n = 0; n < kEvents; ++n) {
            const EventQueue::Fired event = queue.pop();
            queue.schedule(event.when + delays[n & kDelayMask],
                           event.payload);
        }
        end = queue.now();
    });
    result.meta.emplace_back("events", std::to_string(kEvents));
    result.meta.emplace_back("pending", std::to_string(kPending));
    result.meta.emplace_back(
        "ns_per_event",
        formatDouble(result.medianMs * 1e6 / static_cast<double>(kEvents),
                     2));
    result.meta.emplace_back("checksum", std::to_string(end & 0xFFFF));
    return result;
}

// ---------------------------------------------------------------------
// Report serialization and comparison

std::string
reportJson(const std::vector<ScenarioResult> &scenarios,
           const PerfOptions &opts)
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", kPerfSchema);
    w.field("reps", opts.reps);
    w.field("warmup", opts.warmup);
    w.key("scenarios");
    w.beginArray();
    for (const ScenarioResult &s : scenarios) {
        w.beginObject();
        w.field("name", s.name);
        w.field("median_ms", s.medianMs);
        w.field("mad_ms", s.madMs);
        w.key("runs_ms");
        w.beginArray();
        for (double run : s.runsMs)
            w.value(run);
        w.endArray();
        w.key("meta");
        w.beginObject();
        for (const auto &[key, value] : s.meta)
            w.field(key, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/**
 * Extract a numeric field for a scenario name from a perfbench report
 * via string scanning — enough structure awareness for our own schema
 * without growing a JSON parser.
 */
bool
extractField(const std::string &doc, const std::string &name,
             const char *field, double &out)
{
    const std::string needle = "\"name\":\"" + name + "\"";
    const std::size_t at = doc.find(needle);
    if (at == std::string::npos)
        return false;
    const std::string key = "\"" + std::string(field) + "\":";
    const std::size_t m = doc.find(key, at);
    if (m == std::string::npos)
        return false;
    out = std::strtod(doc.c_str() + m + key.size(), nullptr);
    return true;
}

/**
 * Print the comparison table against a previous report, optionally
 * append a markdown version to `opts.summaryPath` (the CI job
 * summary), and return false only when some scenario's median
 * regressed past `opts.failOver` times the baseline's.
 */
bool
printComparison(const std::vector<ScenarioResult> &scenarios,
                const std::string &baseline_path,
                const PerfOptions &opts)
{
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
        std::printf("\nno baseline at '%s'; skipping comparison\n",
                    baseline_path.c_str());
        return true;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();

    std::ofstream summary;
    if (!opts.summaryPath.empty()) {
        summary.open(opts.summaryPath,
                     std::ios::binary | std::ios::app);
        if (summary) {
            summary << "### perf_wallclock vs committed "
                    << baseline_path << "\n\n"
                    << "| scenario | baseline (ms) | current (ms) | "
                       "delta | status |\n"
                    << "|---|---|---|---|---|\n";
        }
    }

    std::printf("\n-- comparison vs %s --\n", baseline_path.c_str());
    TextTable table({"scenario", "baseline ms", "current ms", "delta",
                     "speedup"});
    bool ok = true;
    for (const ScenarioResult &s : scenarios) {
        double base = 0.0;
        if (!extractField(doc, s.name, "median_ms", base) ||
            base <= 0.0) {
            table.addRow({s.name, "n/a", formatDouble(s.medianMs, 2),
                          "n/a", "n/a"});
            if (summary) {
                summary << "| " << s.name << " | n/a | "
                        << formatDouble(s.medianMs, 2) << " ± "
                        << formatDouble(s.madMs, 2)
                        << " | n/a | new |\n";
            }
            continue;
        }
        double base_mad = 0.0;
        (void)extractField(doc, s.name, "mad_ms", base_mad);
        const double delta_pct = 100.0 * (s.medianMs - base) / base;
        // MAD-aware gate: stretch the allowed factor by the relative
        // spread of whichever side is noisier. A scenario with a 4 %
        // relative MAD gets a 2.0 -> ~2.24 threshold — still far below
        // any real regression, but outside what scheduling jitter on a
        // shared runner can produce.
        const double rel_mad =
            std::max(base_mad / base,
                     s.medianMs > 0.0 ? s.madMs / s.medianMs : 0.0);
        const double threshold =
            base * opts.failOver * (1.0 + 3.0 * rel_mad);
        const bool regressed =
            opts.failOver > 0.0 && s.medianMs > threshold;
        ok = ok && !regressed;
        const std::string delta =
            (delta_pct >= 0.0 ? "+" : "") + formatDouble(delta_pct, 1) +
            "%";
        table.addRow({s.name,
                      formatDouble(base, 2) + " ± " +
                          formatDouble(base_mad, 2),
                      formatDouble(s.medianMs, 2) + " ± " +
                          formatDouble(s.madMs, 2),
                      delta, formatDouble(base / s.medianMs, 2) + "x"});
        if (summary) {
            summary << "| " << s.name << " | " << formatDouble(base, 2)
                    << " ± " << formatDouble(base_mad, 2) << " | "
                    << formatDouble(s.medianMs, 2) << " ± "
                    << formatDouble(s.madMs, 2) << " | " << delta
                    << " | " << (regressed ? "REGRESSED" : "ok")
                    << " |\n";
        }
    }
    std::printf("%s", table.render().c_str());
    if (summary)
        summary << '\n';
    if (!ok) {
        std::fprintf(stderr,
                     "\nperf regression: a scenario exceeded %.1fx "
                     "the committed baseline\n",
                     opts.failOver);
    }
    return ok;
}

/** One named scenario of the suite, in report order. */
struct Scenario
{
    const char *name;
    ScenarioResult (*run)(const PerfOptions &opts);
};

const std::vector<Scenario> &
scenarioTable()
{
    static const std::vector<Scenario> table = {
        {"fig5_policy_points", runFig5Scenario},
        {"serving_tiny", runServingTinyScenario},
        {"spans_overhead", runSpansOverheadScenario},
        {"numa_tiny", runNumaTinyScenario},
        {"exec_hot", runExecHotScenario},
        {"trace_stream", runTraceScenario},
        {"metrics_stream", runMetricsScenario},
        {"predictor_cam_hot",
         [](const PerfOptions &opts) {
             return runPredictorScenario<CamPredictor>(
                 "predictor_cam_hot", opts, zipfAStateStream(4096, 80));
         }},
        {"predictor_cam_churn",
         [](const PerfOptions &opts) {
             return runPredictorScenario<CamPredictor>(
                 "predictor_cam_churn", opts,
                 uniformAStateStream(4096, 4096));
         }},
        {"predictor_dm_hot",
         [](const PerfOptions &opts) {
             return runPredictorScenario<DirectMappedPredictor>(
                 "predictor_dm_hot", opts, zipfAStateStream(4096, 80));
         }},
        {"predictor_infinite_hot",
         [](const PerfOptions &opts) {
             return runPredictorScenario<InfinitePredictor>(
                 "predictor_infinite_hot", opts,
                 zipfAStateStream(4096, 80));
         }},
        {"event_queue_hot", runEventQueueHotScenario},
    };
    return table;
}

[[noreturn]] void
usageError(const char *format, const char *flag, const std::string &value)
{
    std::fprintf(stderr, format, flag, value.c_str());
    std::fputc('\n', stderr);
    std::exit(2);
}

/** A whole non-negative decimal count, else a usage error. */
int
parseCount(const char *flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long value = std::strtoul(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || value > 1'000'000)
        usageError("%s expects a whole number in [0, 1000000], got '%s'",
                   flag, text);
    return static_cast<int>(value);
}

PerfOptions
parseArgs(int argc, char **argv)
{
    PerfOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--reps") {
            opts.reps = std::max(1, parseCount("--reps", next("--reps")));
        } else if (arg == "--warmup") {
            opts.warmup = parseCount("--warmup", next("--warmup"));
        } else if (arg == "--json") {
            opts.jsonPath = next("--json");
        } else if (arg == "--compare") {
            opts.comparePath = next("--compare");
        } else if (arg == "--trace-out") {
            opts.traceOutPath = next("--trace-out");
        } else if (arg == "--metrics-out") {
            opts.metricsOutPath = next("--metrics-out");
        } else if (arg == "--summary") {
            opts.summaryPath = next("--summary");
        } else if (arg == "--fail-over") {
            // A factor that parses to 0 or NaN would silently switch
            // the gate off, so only a finite factor above 0 is one.
            const std::string text = next("--fail-over");
            char *end = nullptr;
            opts.failOver = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' ||
                !std::isfinite(opts.failOver) || opts.failOver <= 0.0)
                usageError("%s expects a finite factor above 0, got '%s'",
                           "--fail-over", text);
        } else if (arg == "--only") {
            std::stringstream names(next("--only"));
            std::string name;
            while (std::getline(names, name, ',')) {
                if (name.empty())
                    continue;
                const auto &table = scenarioTable();
                if (std::none_of(table.begin(), table.end(),
                                 [&](const Scenario &s) {
                                     return name == s.name;
                                 }))
                    usageError("%s names no scenario: '%s'", "--only",
                               name);
                opts.only.push_back(name);
            }
        } else if (arg == "--quick") {
            opts.reps = 3;
            opts.warmup = 0;
        } else if (arg == "--help") {
            std::printf(
                "usage: perf_wallclock [--reps N] [--warmup N] "
                "[--json PATH] [--compare BASELINE] "
                "[--trace-out PATH] [--metrics-out PATH] "
                "[--summary PATH] [--fail-over FACTOR] "
                "[--only NAME[,NAME...]] [--quick]\n");
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            std::exit(2);
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const PerfOptions opts = parseArgs(argc, argv);

    std::printf("== perf_wallclock: simulator wall-clock benchmarks "
                "(%s) ==\n",
                kPerfSchema);

    std::vector<ScenarioResult> scenarios;
    for (const Scenario &scenario : scenarioTable()) {
        if (opts.selected(scenario.name))
            scenarios.push_back(scenario.run(opts));
    }

    if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath,
                          std::ios::binary | std::ios::trunc);
        if (out) {
            out << reportJson(scenarios, opts) << '\n';
            std::printf("\nreport: %s\n", opts.jsonPath.c_str());
        } else {
            std::fprintf(stderr, "cannot write report to '%s'\n",
                         opts.jsonPath.c_str());
        }
    }

    if (!opts.comparePath.empty() &&
        !printComparison(scenarios, opts.comparePath, opts))
        return 1;
    return 0;
}
