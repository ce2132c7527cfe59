/**
 * @file
 * Reference-tape tests: a sweep's single-thread sub-runs replay one
 * generated stream per key (system/reference_tape.hh), so every result,
 * trace and statistic must be byte-identical to a private run that
 * generates its own references — whichever consumer happens to produce
 * the segments, at any job count. Streams that differ but are forced
 * onto one tape must die with the divergence message, and
 * multi-user-thread and serving configurations must never bind.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/trace.hh"
#include "system/experiment.hh"
#include "system/reference_tape.hh"
#include "system/sweep.hh"
#include "system/system.hh"
#include "system/trace_capture.hh"

namespace oscar
{
namespace
{

/** Short horizons keep the suite fast; identity is length-independent. */
SystemConfig
withHorizons(SystemConfig config)
{
    config.warmupInstructions = 40'000;
    config.measureInstructions = 100'000;
    return config;
}

SweepPoint
makePoint(const std::string &label, const SystemConfig &config)
{
    SweepPoint point;
    point.label = label;
    point.config = withHorizons(config);
    return point;
}

/**
 * The fig5 grid of one workload: the uni-core Baseline, SI/DI/HI at
 * 5,000 and 100 cycles, and the 512 KB-L2 HI point.
 */
std::vector<SweepPoint>
fig5Points(WorkloadKind kind)
{
    const std::string name = workloadName(kind);
    std::shared_ptr<const ServiceProfile> profile =
        ExperimentRunner::profileServices(kind);
    std::vector<SweepPoint> points;
    points.push_back(
        makePoint(name + "/base", ExperimentRunner::baselineConfig(kind)));
    for (Cycle latency : {Cycle(5000), Cycle(100)}) {
        const std::string at = "/lat=" + std::to_string(latency);
        points.push_back(makePoint(
            name + "/si" + at,
            ExperimentRunner::staticInstrConfig(kind, latency, profile)));
        points.push_back(makePoint(
            name + "/di" + at,
            ExperimentRunner::dynamicInstrConfig(kind, latency, 100)));
        points.push_back(makePoint(
            name + "/hi" + at,
            ExperimentRunner::hardwareDynamicConfig(kind, latency)));
    }
    SystemConfig halved = ExperimentRunner::hardwareConfig(kind, 100, 100);
    halved.geometry.l2.sizeBytes = 512 * 1024;
    points.push_back(makePoint(name + "/hi/512KB", halved));
    return points;
}

/**
 * A point run privately: no tape, the fork path re-enacted by hand (a
 * warm snapshot of its own), and a baseline computed fresh.
 */
std::string
privateResultsJson(const SweepPoint &point, std::size_t index, bool fork)
{
    SweepPointResult result;
    result.index = index;
    result.label = point.label;
    result.config = point.config;
    result.ok = true;
    if (fork) {
        System warm(sweepWarmerConfig(point.config));
        warm.runToMeasurementStart();
        const std::unique_ptr<System> forked = warm.clone();
        forked->reconfigureForMeasurement(point.config);
        result.results = forked->resumeRun();
    } else {
        result.results = ExperimentRunner::run(point.config);
    }
    ExperimentRunner::clearBaselineCache();
    result.normalized = result.results.throughput /
                        ExperimentRunner::baselineResults(point.config)
                            .throughput;
    ExperimentRunner::clearBaselineCache();
    return sweepPointResultsJson(result);
}

std::vector<SweepPointResult>
runSweep(const std::vector<SweepPoint> &points, unsigned jobs, bool fork,
         SweepRunStats *stats = nullptr)
{
    ExperimentRunner::clearBaselineCache();
    SweepOptions options;
    options.jobs = jobs;
    options.fork = fork;
    SweepRunStats local;
    std::vector<SweepPointResult> results =
        ParallelSweepRunner(options).run(points, stats ? *stats : local);
    ExperimentRunner::clearBaselineCache();
    return results;
}

void
expectMatchesPrivate(const std::vector<SweepPoint> &points,
                     const std::vector<SweepPointResult> &results,
                     bool fork)
{
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(sweepPointResultsJson(results[i]),
                  privateResultsJson(points[i], i, fork))
            << points[i].label;
    }
}

/** Move the element at `from` to the front, keeping the rest's order. */
std::vector<SweepPoint>
producerFirst(std::vector<SweepPoint> points, std::size_t from)
{
    SweepPoint first = points[from];
    points.erase(points.begin() + static_cast<std::ptrdiff_t>(from));
    points.insert(points.begin(), std::move(first));
    return points;
}

class TapeWorkloadTest : public testing::TestWithParam<WorkloadKind>
{
};

TEST_P(TapeWorkloadTest, BaselineProducedStreamMatchesPrivateRuns)
{
    // Fresh points keep point order inside a tape group, so the
    // Baseline point generates the stream and the rest replay it.
    const std::vector<SweepPoint> points = fig5Points(GetParam());
    expectMatchesPrivate(points, runSweep(points, 1, /*fork=*/false),
                         false);
}

TEST_P(TapeWorkloadTest, HiProducedStreamMatchesPrivateRuns)
{
    const std::vector<SweepPoint> points =
        producerFirst(fig5Points(GetParam()), 6); // hi at 100 cy
    ASSERT_NE(points.front().label.find("/hi/lat=100"), std::string::npos);
    expectMatchesPrivate(points, runSweep(points, 1, /*fork=*/false),
                         false);
}

TEST_P(TapeWorkloadTest, ForkProducedStreamMatchesPrivateForks)
{
    // With forking on, a warm-up generates the prefix and the first
    // fork the measured region; baselines and later forks replay.
    const std::vector<SweepPoint> points = fig5Points(GetParam());
    expectMatchesPrivate(points, runSweep(points, 1, /*fork=*/true),
                         true);
}

TEST_P(TapeWorkloadTest, LaterConsumerExtendsTheTape)
{
    // A longer horizon after the producer finished: the tape grows
    // from the recorded end on the later consumer's demand.
    std::vector<SweepPoint> points = fig5Points(GetParam());
    SweepPoint longer = points[3];
    longer.label += "/long";
    longer.config.measureInstructions *= 2;
    points.push_back(longer);
    expectMatchesPrivate(points, runSweep(points, 1, /*fork=*/false),
                         false);
}

TEST_P(TapeWorkloadTest, JobCountDoesNotChangeResults)
{
    const std::vector<SweepPoint> points = fig5Points(GetParam());
    for (bool fork : {false, true}) {
        const auto one = runSweep(points, 1, fork);
        const auto four = runSweep(points, 4, fork);
        for (std::size_t i = 0; i < points.size(); ++i) {
            ASSERT_TRUE(one[i].ok) << one[i].error;
            ASSERT_TRUE(four[i].ok) << four[i].error;
            EXPECT_EQ(sweepPointResultsJson(one[i]),
                      sweepPointResultsJson(four[i]))
                << points[i].label << " fork=" << fork;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TapeWorkloadTest,
                         testing::Values(WorkloadKind::Apache,
                                         WorkloadKind::Mcf),
                         [](const auto &info) {
                             return workloadName(info.param);
                         });

TEST(ReferenceTape, KeyLeavesOutPolicyGeometryAndTimings)
{
    const SystemConfig a =
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000, 100);
    SystemConfig b = ExperimentRunner::staticInstrConfig(
        WorkloadKind::Apache, 5000,
        ExperimentRunner::profileServices(WorkloadKind::Apache));
    b.geometry.l2.sizeBytes = 512 * 1024;
    b.timings.memory = 500;
    b.warmupInstructions *= 2;
    EXPECT_EQ(ReferenceTape::key(a), ReferenceTape::key(b));

    for (auto change : std::vector<void (*)(SystemConfig &)>{
             [](SystemConfig &c) { c.seed += 1; },
             [](SystemConfig &c) { c.osCouplingScale = 2.0; },
             [](SystemConfig &c) {
                 c.interrupts.meanInterarrivalCycles = 50'000;
             },
             [](SystemConfig &c) { c.geometry.l2.lineBytes = 128; },
             [](SystemConfig &c) { c.workload = WorkloadKind::Mcf; },
         }) {
        SystemConfig c = a;
        change(c);
        EXPECT_NE(ReferenceTape::key(a), ReferenceTape::key(c));
    }
}

TEST(ReferenceTape, BoundGoldenConfigsEmitTheSameTraceBytes)
{
    for (const char *name : {"apache_hi_static", "derby_hi_dynamic"}) {
        const GoldenTraceConfig *golden = findGoldenTraceConfig(name);
        ASSERT_NE(golden, nullptr);
        const std::string expected = captureTrace(golden->config).text();

        // Two consumers of one tape: the first generates, the second
        // replays what the first recorded.
        ReferenceTapeStore store;
        for (int consumer = 0; consumer < 2; ++consumer) {
            MemoryTraceSink sink;
            System system(golden->config);
            std::shared_ptr<ReferenceTape> tape =
                store.acquire(golden->config);
            ASSERT_NE(tape, nullptr);
            system.bindReferenceTape(tape);
            system.setTraceSink(&sink);
            system.run();
            TraceCapture capture;
            capture.header = traceHeaderJson(golden->config);
            capture.lines = sink.lines();
            EXPECT_EQ(capture.text(), expected)
                << name << " consumer " << consumer;
        }
        EXPECT_EQ(store.tapesCreated(), 1u);
    }
}

TEST(ReferenceTape, TracedSweepPointMatchesTheGoldenFile)
{
    const GoldenTraceConfig *golden =
        findGoldenTraceConfig("apache_hi_static");
    ASSERT_NE(golden, nullptr);
    std::ifstream in(std::string(OSCAR_GOLDEN_TRACE_DIR) +
                         "/apache_hi_static.trace.jsonl",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream expected;
    expected << in.rdbuf();

    // An untraced twin generates the stream; the traced point replays.
    std::vector<SweepPoint> points(2);
    points[0].label = "twin";
    points[0].config = golden->config;
    points[1].label = "traced";
    points[1].config = golden->config;
    points[1].tracePath = testing::TempDir() + "tape_golden.trace.jsonl";
    SweepRunStats stats;
    const auto results = runSweep(points, 1, /*fork=*/true, &stats);
    ASSERT_TRUE(results[1].ok) << results[1].error;
    EXPECT_EQ(stats.tapes, 1u);

    std::ifstream traced(points[1].tracePath, std::ios::binary);
    ASSERT_TRUE(traced);
    std::ostringstream actual;
    actual << traced.rdbuf();
    EXPECT_EQ(actual.str(), expected.str());
    std::remove(points[1].tracePath.c_str());
}

TEST(ReferenceTape, DifferentStreamsOnOneTapeDieWithTheDivergenceMessage)
{
    const SystemConfig a = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000, 100));
    SystemConfig b = a;
    b.seed = a.seed + 1; // same generator world, different stream

    ScopedFatalThrows fatal_throws;
    auto tape = std::make_shared<ReferenceTape>(a);
    System first(a);
    first.bindReferenceTape(tape);
    first.run();

    System second(b);
    second.bindReferenceTape(tape);
    try {
        second.run();
        FAIL() << "a diverging consumer replayed without error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "reference tape divergence at segment 0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReferenceTape, DifferentGeneratorWorldIsRejectedAtBind)
{
    const SystemConfig a = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::Apache, 1000, 100));
    SystemConfig b = a;
    b.osCouplingScale = 2.0;

    ScopedFatalThrows fatal_throws;
    auto tape = std::make_shared<ReferenceTape>(a);
    System system(b);
    EXPECT_THROW(system.bindReferenceTape(tape), FatalError);
}

// A multi-thread stream is not a function of one RNG: every thread's
// Workload shares the OsPools regions (kernel data, shared-io, service
// code; the user profile draws from shared-io too), whose reuse rings
// and stream cursors advance in event order. A tape checks only the
// RNG digest, profile and length, so binding such a run would replay
// wrong references without failing a check — it must never bind.
TEST(ReferenceTape, MultiThreadAndServingConfigsNeverBind)
{
    SystemConfig multi = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::SpecJbb, 100, 500));
    multi.userCores = 2;
    SystemConfig serving = ExperimentRunner::hardwareConfig(
        WorkloadKind::Apache, 1000, 100);
    auto front_end = std::make_shared<ServingConfig>();
    front_end->warmupRequests = 20;
    front_end->measureRequests = 60;
    serving.serving = front_end;

    ReferenceTapeStore store;
    for (const SystemConfig *config : {&multi, &serving}) {
        EXPECT_FALSE(ReferenceTape::eligible(*config));
        EXPECT_EQ(store.acquire(*config), nullptr);
    }
    EXPECT_EQ(store.tapesCreated(), 0u);

    ScopedFatalThrows fatal_throws;
    const SystemConfig single = withHorizons(
        ExperimentRunner::hardwareConfig(WorkloadKind::SpecJbb, 100, 500));
    auto tape = std::make_shared<ReferenceTape>(single);
    System system(multi);
    EXPECT_THROW(system.bindReferenceTape(tape), FatalError);

    std::vector<SweepPoint> points;
    points.push_back(makePoint("multi", multi));
    SweepPoint serving_point;
    serving_point.label = "serving";
    serving_point.config = serving;
    points.push_back(serving_point);
    SweepRunStats stats;
    const auto results = runSweep(points, 1, /*fork=*/true, &stats);
    for (const SweepPointResult &r : results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(stats.tapes, 0u);
    EXPECT_EQ(stats.generatedRefs, 0u);
}

TEST(ReferenceTape, OneJobKeepsOneTapeAndOneSnapshotAlive)
{
    // Two workloads, two fork groups each (the 512 KB point warms
    // apart): groups run back to back and are released as they end.
    std::vector<SweepPoint> points = fig5Points(WorkloadKind::Apache);
    for (SweepPoint &point : fig5Points(WorkloadKind::Mcf))
        points.push_back(std::move(point));
    // Interleave the workloads so grouping, not input order, is what
    // keeps the lifetimes short.
    std::vector<SweepPoint> mixed;
    const std::size_t half = points.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        mixed.push_back(points[i]);
        mixed.push_back(points[half + i]);
    }

    SweepRunStats stats;
    const auto results = runSweep(mixed, 1, /*fork=*/true, &stats);
    for (const SweepPointResult &r : results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(stats.tapes, 2u);
    EXPECT_EQ(stats.peakLiveTapes, 1u);
    EXPECT_EQ(stats.peakLiveSnapshots, 1u);
    // Each stream is generated once and replayed by every sub-run:
    // seven fork/fresh points and a baseline per workload.
    EXPECT_GT(stats.generatedRefs, 0u);
    EXPECT_LT(stats.generatedRefs * 4, stats.replayedRefs);
}

} // namespace
} // namespace oscar
