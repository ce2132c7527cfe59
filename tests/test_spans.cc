/**
 * @file
 * Tests of the per-request span subsystem: exact phase-sum
 * reconstruction of end-to-end latency, zero perturbation when
 * detached, exemplar determinism under --jobs and replica sharding,
 * the oscar.spans.v1 writer/reader/validator round trip, and the
 * queue annotation on request trace events.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "os/numa_topology.hh"
#include "sim/span.hh"
#include "sim/span_reader.hh"
#include "sim/trace.hh"
#include "system/experiment.hh"
#include "system/span_capture.hh"
#include "system/sweep.hh"
#include "system/system.hh"

namespace oscar
{
namespace
{

std::shared_ptr<const ServingConfig>
quickServing()
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->meanInterarrivalCycles = 8'000.0;
    serving->tenants = 8;
    serving->meanSegments = 2.0;
    serving->warmupRequests = 30;
    serving->measureRequests = 120;
    return serving;
}

/** HI off-loading serving config exercising migration and OS queues. */
SystemConfig
servingOffloadConfig(std::uint64_t seed = 42)
{
    SystemConfig config;
    config.workload = WorkloadKind::Apache;
    config.serving = quickServing();
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    config.seed = seed;
    return config;
}

/** Two OS cores with stealing and spill: every multi-queue phase. */
SystemConfig
multiQueueConfig(std::uint64_t seed = 42)
{
    SystemConfig config = servingOffloadConfig(seed);
    config.userCores = 4;
    config.staticThreshold = 0; // off-load everything
    config.topology.osCores = 2;
    config.topology.numaNodes = 2;
    config.topology.placement = OsPlacement::Spread;
    config.topology.dispatch = OsDispatchPolicy::WorkStealing;
    config.topology.spillDepth = 1;
    config.topology.intraNodeHopCycles = 20;
    config.topology.interNodeHopCycles = 400;
    return config;
}

SimResults
runWithSpans(const SystemConfig &config, SpanRecorder &recorder)
{
    return ExperimentRunner::run(config, nullptr, nullptr, &recorder);
}

// ---------------------------------------------------------------------
// The core invariant: spans tile latency exactly

TEST(Spans, TotalHistogramMirrorsRequestLatencyExactly)
{
    SpanRecorder recorder;
    const SimResults r = runWithSpans(servingOffloadConfig(), recorder);
    const SpanResults &s = recorder.results();
    EXPECT_EQ(s.spansRecorded, r.requestsCompleted);
    EXPECT_EQ(s.total.count(), r.requestLatency.count());
    EXPECT_EQ(s.total.sum(), r.requestLatency.sum());
    EXPECT_EQ(s.total.toString(), r.requestLatency.toString());
}

TEST(Spans, PhaseSumsReconstructEndToEndLatency)
{
    for (const SystemConfig &config :
         {servingOffloadConfig(), multiQueueConfig()}) {
        SpanRecorder recorder;
        const SimResults r = runWithSpans(config, recorder);
        const SpanResults &s = recorder.results();
        ASSERT_GT(s.spansRecorded, 0u);
        std::uint64_t reconstructed = 0;
        for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
            // Zeros are recorded too, so every phase histogram covers
            // the full request population.
            EXPECT_EQ(s.phase[p].count(), s.spansRecorded)
                << spanPhaseName(static_cast<SpanPhase>(p));
            reconstructed += s.phase[p].sum();
        }
        EXPECT_EQ(reconstructed, r.requestLatency.sum());
        EXPECT_EQ(s.total.sum(), r.requestLatency.sum());
    }
}

TEST(Spans, ExemplarsTileTheirLifetime)
{
    SpanRecorder recorder(6);
    (void)runWithSpans(multiQueueConfig(), recorder);
    const SpanResults &s = recorder.results();
    ASSERT_EQ(s.exemplars.size(), 6u);
    for (std::size_t i = 0; i + 1 < s.exemplars.size(); ++i) {
        EXPECT_TRUE(!spanSlower(s.exemplars[i + 1], s.exemplars[i]))
            << "exemplar " << i << " ordered after a faster span";
    }
    for (const RequestSpan &span : s.exemplars) {
        ASSERT_FALSE(span.segs.empty());
        EXPECT_LE(span.issued, span.started);
        EXPECT_LE(span.started, span.completed);
        EXPECT_EQ(span.segs.front().phase, SpanPhase::DispatchWait);
        EXPECT_EQ(span.segs.front().start, span.issued);
        Cycle tiled = 0;
        Cycle last_start = span.issued;
        for (const SpanSegment &seg : span.segs) {
            EXPECT_GE(seg.start, last_start);
            EXPECT_GE(seg.start, span.issued);
            EXPECT_LE(seg.start + seg.cycles, span.completed);
            last_start = seg.start;
            tiled += seg.cycles;
        }
        EXPECT_EQ(tiled, span.latency());
    }
}

// ---------------------------------------------------------------------
// Zero overhead when detached

TEST(Spans, RecorderAttachmentDoesNotPerturbResults)
{
    SpanRecorder recorder;
    MemoryTraceSink with_trace;
    System with(servingOffloadConfig());
    with.setTraceSink(&with_trace);
    with.setSpanRecorder(&recorder);
    const SimResults r_with = with.run();

    MemoryTraceSink without_trace;
    System without(servingOffloadConfig());
    without.setTraceSink(&without_trace);
    const SimResults r_without = without.run();

    EXPECT_EQ(r_with.makespan, r_without.makespan);
    EXPECT_EQ(r_with.requestLatency.toString(),
              r_without.requestLatency.toString());
    // Trace streams are byte-identical: recording spans inspects the
    // simulation but never schedules or charges anything.
    ASSERT_EQ(with_trace.events().size(), without_trace.events().size());
    for (std::size_t i = 0; i < with_trace.events().size(); ++i) {
        EXPECT_EQ(traceEventJson(with_trace.events()[i]),
                  traceEventJson(without_trace.events()[i]))
            << "event " << i;
    }
}

TEST(Spans, RecorderRequiresServingConfig)
{
    SystemConfig classic;
    classic.workload = WorkloadKind::Apache;
    System system(classic);
    SpanRecorder recorder;
    EXPECT_DEATH(system.setSpanRecorder(&recorder), "");
}

// ---------------------------------------------------------------------
// Sweep integration: determinism under --jobs and replica sharding

std::vector<SweepPoint>
spanPoints()
{
    std::vector<SweepPoint> points;
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        SweepPoint point;
        point.config = servingOffloadConfig(seed);
        point.normalize = false;
        point.recordSpans = true;
        point.label = "spans/seed=" + std::to_string(seed);
        points.push_back(point);
    }
    return points;
}

TEST(Spans, SweepPointsAreByteIdenticalAcrossJobCounts)
{
    const std::vector<SweepPoint> points = spanPoints();
    const auto sequential = ParallelSweepRunner({1}).run(points);
    const auto parallel = ParallelSweepRunner({3}).run(points);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_TRUE(sequential[i].ok) << sequential[i].error;
        const std::string json = sweepPointResultsJson(sequential[i]);
        EXPECT_NE(json.find("\"spans\""), std::string::npos) << json;
        EXPECT_EQ(json, sweepPointResultsJson(parallel[i]))
            << points[i].label;
    }
}

TEST(Spans, DetachedSweepPointsCarryNoSpansBlock)
{
    SweepPoint point;
    point.config = servingOffloadConfig();
    point.normalize = false;
    point.label = "spans/detached";
    const auto result = ParallelSweepRunner::runPoint(point, 0);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(sweepPointResultsJson(result).find("\"spans\""),
              std::string::npos);
}

TEST(Spans, ReplicaShardingIsInvariant)
{
    SweepPoint point;
    point.config = servingOffloadConfig();
    point.normalize = false;
    point.recordSpans = true;
    point.replicaSeeds = {42, 1337, 7};
    point.label = "spans/replicas";

    const auto sequential =
        ParallelSweepRunner({1}).run({point});
    const auto parallel = ParallelSweepRunner({4}).run({point});
    ASSERT_TRUE(sequential[0].ok) << sequential[0].error;
    EXPECT_EQ(sweepPointResultsJson(sequential[0]),
              sweepPointResultsJson(parallel[0]));

    // The folded spans pool every replica: counts add and the merged
    // aggregates match running each seed alone and merging by hand.
    ASSERT_NE(sequential[0].results.spans, nullptr);
    SpanResults manual;
    std::uint64_t requests = 0;
    for (std::uint64_t seed : point.replicaSeeds) {
        SpanRecorder recorder;
        const SimResults r =
            runWithSpans(servingOffloadConfig(seed), recorder);
        requests += r.requestsCompleted;
        manual.merge(recorder.results());
    }
    const SpanResults &merged = *sequential[0].results.spans;
    EXPECT_EQ(merged.spansRecorded, requests);
    EXPECT_EQ(merged.total.toString(), manual.total.toString());
    EXPECT_EQ(merged.total.sum(), manual.total.sum());
    ASSERT_EQ(merged.exemplars.size(), manual.exemplars.size());
    for (std::size_t i = 0; i < merged.exemplars.size(); ++i) {
        EXPECT_EQ(merged.exemplars[i].requestId,
                  manual.exemplars[i].requestId);
        EXPECT_EQ(merged.exemplars[i].seed, manual.exemplars[i].seed);
        EXPECT_EQ(merged.exemplars[i].latency(),
                  manual.exemplars[i].latency());
    }
}

TEST(Spans, MergeIsOrderInsensitive)
{
    SpanRecorder a;
    (void)runWithSpans(servingOffloadConfig(1), a);
    SpanRecorder b;
    (void)runWithSpans(servingOffloadConfig(2), b);

    SpanResults ab = a.results();
    ab.merge(b.results());
    SpanResults ba = b.results();
    ba.merge(a.results());

    EXPECT_EQ(ab.spansRecorded, ba.spansRecorded);
    EXPECT_EQ(ab.total.toString(), ba.total.toString());
    ASSERT_EQ(ab.exemplars.size(), ba.exemplars.size());
    for (std::size_t i = 0; i < ab.exemplars.size(); ++i) {
        EXPECT_EQ(ab.exemplars[i].requestId, ba.exemplars[i].requestId);
        EXPECT_EQ(ab.exemplars[i].seed, ba.exemplars[i].seed);
    }
}

// ---------------------------------------------------------------------
// Writer / reader / validator round trip

TEST(Spans, DocumentRoundTripValidatesCleanly)
{
    for (const SystemConfig &config :
         {servingOffloadConfig(), multiQueueConfig()}) {
        SpanRecorder recorder;
        (void)runWithSpans(config, recorder);
        const std::string doc =
            spansDocument(recorder.results(), config);
        const SpansFile file = parseSpansDocument(doc);
        ASSERT_TRUE(file.ok) << file.error;
        EXPECT_EQ(file.schema, kSpansSchema);
        EXPECT_EQ(file.spans, recorder.results().spansRecorded);
        const std::vector<std::string> problems =
            validateSpansFile(file);
        EXPECT_TRUE(problems.empty())
            << (problems.empty() ? "" : problems.front());
    }
}

TEST(Spans, ValidatorCatchesCorruption)
{
    SpanRecorder recorder;
    SystemConfig config = servingOffloadConfig();
    (void)runWithSpans(config, recorder);
    const std::string doc = spansDocument(recorder.results(), config);

    // Inflate the total sum: the phase-sum reconstruction must fail.
    const std::string needle = "{\"phase\":\"total\",\"count\":";
    const std::size_t at = doc.find(needle);
    ASSERT_NE(at, std::string::npos);
    const std::size_t sum_at = doc.find("\"sum\":", at);
    ASSERT_NE(sum_at, std::string::npos);
    std::string corrupted = doc;
    corrupted.insert(sum_at + 6, "9");
    const SpansFile bad = parseSpansDocument(corrupted);
    ASSERT_TRUE(bad.ok) << bad.error;
    EXPECT_FALSE(validateSpansFile(bad).empty());

    // Truncating the exemplar section breaks the reservoir contract.
    const std::size_t span_at = doc.find("{\"span\":");
    ASSERT_NE(span_at, std::string::npos);
    const SpansFile truncated =
        parseSpansDocument(doc.substr(0, span_at));
    ASSERT_TRUE(truncated.ok) << truncated.error;
    EXPECT_FALSE(validateSpansFile(truncated).empty());

    // Service and queue ids above INT64_MAX (or negative) must not
    // wrap into the "absent" marker.
    const std::size_t sv_at = doc.find("\"sv\":");
    ASSERT_NE(sv_at, std::string::npos);
    const std::size_t seg_end = doc.find('}', sv_at);
    std::string good_q = doc;
    good_q.insert(seg_end, ",\"q\":1");
    ASSERT_TRUE(parseSpansDocument(good_q).ok);
    for (const char *id : {"9223372036854775808", "-1"}) {
        std::string bad_sv = doc;
        bad_sv.replace(sv_at + 5, seg_end - sv_at - 5, id);
        EXPECT_FALSE(validateSpansFile(parseSpansDocument(bad_sv)).empty())
            << "sv " << id;
        std::string bad_q = doc;
        bad_q.insert(seg_end, std::string(",\"q\":") + id);
        EXPECT_FALSE(validateSpansFile(parseSpansDocument(bad_q)).empty())
            << "q " << id;
    }
}

// ---------------------------------------------------------------------
// Request trace events carry the dispatch queue in K>1 topologies

TEST(Spans, RequestTraceEventsCarryHomeQueueWhenMultiQueue)
{
    const SystemConfig config = multiQueueConfig();
    MemoryTraceSink sink;
    (void)ExperimentRunner::run(config, &sink);
    const Topology topo(config.userCores, config.topology,
                        config.migrationOneWayCycles);
    std::size_t requests = 0;
    for (const TraceEvent &e : sink.events()) {
        if (e.kind != TraceEventKind::RequestStart &&
            e.kind != TraceEventKind::RequestEnd) {
            continue;
        }
        ++requests;
        ASSERT_NE(e.queue, kNoTraceQueue);
        EXPECT_LT(e.queue, config.topology.osCores);
        // Server thread t runs on core t; its request events carry
        // that core's home queue, consistent with qenter/qexit.
        EXPECT_EQ(e.queue, topo.homeQueue(e.thread));
        const std::string json = traceEventJson(e);
        EXPECT_NE(json.find("\"q\":"), std::string::npos) << json;
    }
    EXPECT_GT(requests, 0u);
}

TEST(Spans, RequestTraceEventsOmitQueueWhenSingleQueue)
{
    MemoryTraceSink sink;
    (void)ExperimentRunner::run(servingOffloadConfig(), &sink);
    std::size_t requests = 0;
    for (const TraceEvent &e : sink.events()) {
        if (e.kind != TraceEventKind::RequestStart &&
            e.kind != TraceEventKind::RequestEnd) {
            continue;
        }
        ++requests;
        EXPECT_EQ(e.queue, kNoTraceQueue);
        EXPECT_EQ(traceEventJson(e).find("\"q\":"), std::string::npos);
    }
    EXPECT_GT(requests, 0u);
}

} // namespace
} // namespace oscar
