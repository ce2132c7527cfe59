/**
 * @file
 * The simulated system: user cores running workload threads, an
 * optional dedicated OS core, the coherent memory hierarchy, the
 * off-load decision machinery, and the event-driven execution loop
 * that ties them together.
 */

#ifndef OSCAR_SYSTEM_SYSTEM_HH_
#define OSCAR_SYSTEM_SYSTEM_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/offload_policy.hh"
#include "core/predictor_stats.hh"
#include "core/run_length_predictor.hh"
#include "core/threshold_controller.hh"
#include "cpu/arch_state.hh"
#include "cpu/core.hh"
#include "cpu/exec_engine.hh"
#include "mem/memory_system.hh"
#include "os/interrupts.hh"
#include "os/invocation.hh"
#include "os/numa_topology.hh"
#include "os/os_core_queue.hh"
#include "os/os_queue_set.hh"
#include "os/os_service.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "system/system_config.hh"
#include "workload/address_space.hh"
#include "workload/request_stream.hh"
#include "workload/workload.hh"

#include <deque>

namespace oscar
{

class MetricRegistry;
class ReferenceTape;
class TraceSink;

/**
 * Allocate `config`'s reference generators into `space`: the shared OS
 * pools (returned through `pools`) first, then one workload per user
 * thread, in thread order. Region addresses depend on that order, so
 * System and a reference tape's producer (system/reference_tape.hh)
 * both build their generators here.
 */
std::vector<std::unique_ptr<Workload>>
buildWorkloads(const SystemConfig &config, const ServiceTable &services,
               AddressSpace &space, OsPools &pools);

/** One (instruction, N) point of the dynamic-N trajectory. */
struct ThresholdSample
{
    /** Measured instructions retired when the sample was taken. */
    InstCount instruction = 0;
    /** N in force from this point on. */
    InstCount threshold = 0;
};

/**
 * One OS-core queue's measured-region outcome (K per run).
 */
struct OsQueueResult
{
    /** Queue index among the K OS-core queues. */
    std::uint32_t queue = 0;
    /** Core id of the queue's OS core. */
    CoreId core = 0;
    /** NUMA node the OS core lives on. */
    unsigned node = 0;
    /** Requests that started service on this queue's core. */
    std::uint64_t admitted = 0;
    /** Requests this queue's core stole from peers. */
    std::uint64_t stealsIn = 0;
    /** Requests peers stole out of this queue. */
    std::uint64_t stealsOut = 0;
    /** Arrivals that overflowed into this queue. */
    std::uint64_t spillsIn = 0;
    /** Arrivals that overflowed away from this queue. */
    std::uint64_t spillsOut = 0;
    /** Busy fraction of the queue's OS core. */
    double utilization = 0.0;
    /** Cycles requests admitted here waited before starting. */
    RunningStat queueDelay;
    /** The same waits as a mergeable histogram: per-queue histograms
     *  pool bucket-exactly into the system-wide wait distribution. */
    LatencyHistogram wait;
};

/**
 * Everything a run produced, measured over the post-warmup region.
 */
struct SimResults
{
    std::string workload;
    std::string policy;

    /** Cycles from measurement start to the last thread's quota. */
    Cycle makespan = 0;
    /** Instructions (user + OS) retired in the measured region. */
    InstCount retired = 0;
    /** retired / makespan — the paper's throughput metric. */
    double throughput = 0.0;
    /** Fraction of measured instructions retired in privileged mode. */
    double privFraction = 0.0;

    /** Mean L2 hit rate across user cores. */
    double userL2HitRate = 0.0;
    /** OS core L2 hit rate (0 without an OS core). */
    double osL2HitRate = 0.0;
    /** Average across all cores — the dynamic-N feedback metric. */
    double combinedL2HitRate = 0.0;

    /** OS invocations in the measured region. */
    std::uint64_t invocations = 0;
    /** Of which were migrated to the OS core. */
    std::uint64_t offloaded = 0;
    /** offloaded / invocations. */
    double offloadFraction = 0.0;
    /** Mean observed OS run length (instructions). */
    double meanInvocationLength = 0.0;

    /** Busy fraction of the OS core(s), averaged (Table III metric). */
    double osCoreUtilization = 0.0;
    /** Mean cycles off-loads waited for an OS core (Section V-C). */
    double meanQueueDelay = 0.0;
    /** Largest observed queue delay. */
    double maxQueueDelay = 0.0;

    // --- Multi-OS-core NUMA topology ---------------------------------
    /** Per-queue outcomes; one entry per OS core when offload is on. */
    std::vector<OsQueueResult> osQueues;
    /** Off-load + return migrations that stayed on one node. */
    std::uint64_t numaMigrationsIntra = 0;
    /** Migrations (incl. steal/spill transfers) that crossed nodes. */
    std::uint64_t numaMigrationsInter = 0;
    /** Requests moved by work stealing. */
    std::uint64_t steals = 0;
    /** Arrivals that overflowed between queues. */
    std::uint64_t spills = 0;

    /** Cycles burned in decision code across user cores. */
    Cycle decisionCycles = 0;
    /** Cycles burned migrating threads. */
    Cycle migrationCycles = 0;
    /** Cycles threads waited in the OS-core queue. */
    Cycle queueWaitCycles = 0;

    /** Coherence traffic: cache-to-cache transfers (all cores). */
    std::uint64_t c2cTransfers = 0;
    /** Coherence traffic: invalidations received (all cores). */
    std::uint64_t invalidations = 0;

    /** Predictor accuracy, merged across user cores (DI/HI only). */
    PredictorStats accuracy;

    /** N in force when the run ended. */
    InstCount finalThreshold = 0;
    /** Times the dynamic controller changed N. */
    std::uint64_t thresholdSwitches = 0;
    /**
     * N at measurement start and after every controller epoch, in
     * retirement order (dynamic-N runs only) — the threshold
     * trajectory exported to sweep reports.
     */
    std::vector<ThresholdSample> thresholdTrajectory;

    /** Privileged fraction observed during warmup (controller input). */
    double warmupPrivFraction = 0.0;

    /** Thresholds used by the tail accounting below. */
    static constexpr InstCount kTailThresholds[4] = {100, 1000, 5000,
                                                     10000};
    /**
     * Share of *measured instructions* retired inside OS invocations
     * longer than each kTailThresholds entry — the upper bound on the
     * Table III OS-core utilization at that N.
     */
    double osShareAbove[4] = {0.0, 0.0, 0.0, 0.0};

    /** Share of total instructions for invocations above a given N. */
    double osShareAboveN(InstCount n) const;

    /** Measured invocation count per service. */
    std::array<std::uint64_t, kNumServices> invocationsByService{};
    /** Measured off-load count per service. */
    std::array<std::uint64_t, kNumServices> offloadsByService{};

    /**
     * Off-loaded / total invocations as a mergeable counter pair —
     * the distribution-preserving form of offloadFraction for sweep
     * aggregation (pooled counts, not averaged ratios).
     */
    RatioStat offloadRatio;
    /** Measured invocation-length distribution (mergeable). */
    LogHistogram invocationLengths{32};

    // --- Request serving (set when SystemConfig::serving is) ---------
    /** True when the run was driven by the request front-end. */
    bool servingEnabled = false;
    /** Requests completed inside the measured region. */
    std::uint64_t requestsCompleted = 0;
    /** Requests that arrived inside the measured region. */
    std::uint64_t requestsOffered = 0;
    /** Completed requests per 1,000 cycles of measured makespan. */
    double requestThroughput = 0.0;
    /** End-to-end request latency in cycles (queueing + service +
     *  migration), measured region, mergeable across points. */
    LatencyHistogram requestLatency;
    /** Cycles requests waited for a server thread before starting. */
    RunningStat requestDispatchWait;
    /**
     * Per-request span aggregates (see sim/span.hh); null unless a
     * SpanRecorder was attached. Shared so copying SimResults stays
     * cheap; replica merging deep-copies before folding.
     */
    std::shared_ptr<SpanResults> spans;
};

/**
 * One simulated CMP running one benchmark.
 */
class System
{
  public:
    /** Build the system; the configuration is validated here. */
    explicit System(const SystemConfig &config);
    ~System();

    System &operator=(const System &) = delete;

    /** Run warmup + measurement and return the results. */
    SimResults run();

    /**
     * Run warmup only: advance to the first event boundary after the
     * warmup-to-measurement transition, then stop. The system is then
     * a warm snapshot positioned at measurement start — clone() it
     * (cheaply, many times) and drive each clone to completion with
     * resumeRun(). Works in both segment and serving mode.
     */
    void runToMeasurementStart();

    /**
     * Continue a system stopped at measurement start to completion
     * and return the results. resumeRun() on a clone is exactly the
     * continuation the original would have executed: results and
     * traces are byte-identical to an uninterrupted run().
     */
    SimResults resumeRun();

    /**
     * Deep-copy the full simulation state: the cache tag stores, the
     * event queue (payload events only — asserted), per-thread RNG
     * streams, workload generator state, predictors, policy state,
     * queue occupancy, and all phase/statistics machinery. A
     * reference-tape binding is carried over at the same segment (the
     * clone's own regions were never advanced). Trace sinks and metric
     * registries are NOT carried over; the clone starts
     * uninstrumented (a fresh trace sink may attach; a registry may
     * not, once the original had started). The clone
     * and the original then evolve independently and deterministically:
     * resuming either produces the stream the original would have.
     */
    std::unique_ptr<System> clone() const;

    /**
     * Re-aim a warmed system (stopped at measurement start) at a
     * different measurement configuration: adopts the new config,
     * rebuilds every thread's policy objects (fresh predictors), reset
     * dynamic-N controller, and re-enters the measured region at the
     * current cycle with all measured statistics zeroed. Only fields
     * that do not affect the warm prefix may differ (policy, predictor
     * organization, thresholds, decision costs, measurement horizon);
     * the prefix-defining fields are asserted equal. This is the fork
     * step of the sweep fast path: one warm snapshot, K cheap clones,
     * each reconfigured to its own policy point. No metric registry
     * may be attached (asserted): the rebuilt policy objects are what
     * its series would poll.
     */
    void reconfigureForMeasurement(const SystemConfig &config);

    /**
     * Attach an invocation-level trace recorder (see sim/trace.hh).
     *
     * Must be called before run(). The sink is wired through to the
     * OS-core queue, the dynamic-N controller, and every thread's
     * decision policy, and its clock is bound to this system's event
     * queue. Null detaches everything (the default).
     */
    void setTraceSink(TraceSink *sink);

    /**
     * Attach a metric registry (see sim/metrics.hh).
     *
     * Must be called at most once, before run() and
     * runToMeasurementStart() (asserted; a clone of a started system
     * counts as started), so counters include the warm-up. Registers
     * every layer's metrics — memory hierarchy, predictors, dynamic-N
     * controller, OS-core queue, event queue, system-level counters,
     * process-wide log counts — and drives the registry's periodic
     * sampler from instruction retirement. The registry must outlive
     * this system. Metrics never feed back into simulation, so
     * attaching one leaves traces and results byte-identical.
     */
    void setMetricRegistry(MetricRegistry *registry);

    /**
     * Attach a per-request span recorder (see sim/span.hh).
     *
     * Serving mode only; must be called before run(). Every phase a
     * request passes through — dispatch wait, user execution, the
     * offload decision, migrations, queueing, steals/spills, OS
     * execution — is recorded as a span segment, and per-phase totals
     * fold into the recorder's histograms at request completion.
     * Spans never feed back into simulation: an attached recorder
     * leaves results and traces byte-identical to a detached run.
     * Null detaches (the default).
     */
    void setSpanRecorder(SpanRecorder *recorder);

    /**
     * Draw this system's reference stream from a shared tape instead
     * of generating it (see system/reference_tape.hh). Must be called
     * before run(); the configuration must have one user thread in
     * segment mode and the tape's generator world (fatal otherwise).
     * Results, traces, metrics and spans are byte-identical to an
     * unbound run; a divergence from the recorded stream is fatal.
     * Clones stay bound at the same position.
     */
    void bindReferenceTape(std::shared_ptr<ReferenceTape> tape);

    /** The configuration in force. */
    const SystemConfig &config() const { return cfg; }

    /** Memory hierarchy (inspection). */
    const MemorySystem &memory() const { return *mem; }

    /** Dynamic-N controller (inspection). */
    const ThresholdController &thresholdController() const
    {
        return controller;
    }

    /** OS-core queue k (inspection); default the first. */
    const OsCoreQueue &osQueue(unsigned k = 0) const
    {
        return queues.queue(k);
    }

    /** The queue set (inspection). */
    const OsQueueSet &osQueues() const { return queues; }

    /** The resolved core→node topology (inspection). */
    const Topology &topology() const { return topo; }

    /** Off-line profile collected when running with a Baseline policy. */
    const ServiceProfile &collectedProfile() const { return profile; }

  private:
    /** Snapshot copy backing clone(); see clone() for the contract. */
    System(const System &other);

    struct Thread
    {
        std::uint32_t id = 0;
        CoreId core = 0;
        std::unique_ptr<Workload> workload;
        ArchState arch;
        Rng rng;
        std::unique_ptr<RunLengthPredictor> predictor;
        std::unique_ptr<OffloadPolicy> policy;
        PredictivePolicy *predictive = nullptr; ///< non-owning view

        InstCount measuredRetired = 0;
        bool quotaReached = false;
        Cycle finishCycle = 0;

        /** In-flight off-loaded invocation. */
        OsInvocation pendingInv;
        OffloadDecision pendingDecision;
        Cycle offloadArrival = 0;
        /** Queue the in-flight off-load is bound for. */
        unsigned pendingQueue = 0;
        /** The off-load already overflowed once (spills don't chain). */
        bool spilled = false;
        /** OS core executing the in-flight off-load. */
        CoreId servingOsCore = 0;

        // --- Serving mode --------------------------------------------
        /** The request in service on this thread. */
        Request currentRequest;
        /** OS-invocation segments left before the request completes. */
        std::uint32_t segmentsLeft = 0;
        /** A request is in service. */
        bool servingRequest = false;
        /** No request in service and none queued; a dispatch wakes. */
        bool idle = false;
    };

    /**
     * Discriminators of the payload events System schedules;
     * dispatchEvent() decodes {kind, a, b} back into the method call
     * each event stands for.
     */
    enum class EventKind : std::uint32_t
    {
        ThreadStep,     ///< a = tid
        OsArrival,      ///< a = tid
        OsComplete,     ///< a = tid, b = executed length
        StealGo,        ///< a = stolen tid, b = thief queue
        ArrivalDeliver, ///< (no operands; delivers pendingArrival)
        ClientIssue,    ///< a = client
    };

    /** Decode and execute one fired payload event. */
    void dispatchEvent(const EventQueue::Fired &event);

    /** Advance one thread by one workload token. */
    void threadStep(std::uint32_t tid);

    /**
     * Execute one segment of a thread's stream on `core` with segment
     * profile `profile` (see segmentProfile()): replayed from the
     * bound tape, else generated in place by ExecEngine::execute.
     */
    ExecResult executeSegment(Thread &thread, CoreId core,
                              ExecContext ctx, InstCount instructions,
                              std::uint32_t profile);

    /** Process one OS invocation (decide, execute inline or off-load). */
    void handleInvocation(std::uint32_t tid, const OsInvocation &inv);

    /** The off-loaded request reached its queue (may spill once). */
    void osCoreArrival(std::uint32_t tid);

    /** OS core of queue `target` starts executing a request. */
    void startOsExecution(std::uint32_t tid, Cycle start,
                          unsigned target);

    /** An OS core finished a request. */
    void osCoreComplete(std::uint32_t tid, InstCount executed_length);

    /** Count one migration between two cores (NUMA accounting). */
    void countMigration(CoreId from, CoreId to);

    /** Queue `thief` went idle: steal from the deepest peer, if any. */
    void maybeSteal(unsigned thief, Cycle now);

    /** Charge retired instructions and drive phase/epoch machinery. */
    void retire(Thread &thread, InstCount count, bool privileged);

    /** True length of an invocation with interrupt extension applied. */
    InstCount extendedLength(const OsInvocation &inv);

    /** Switch from warmup to the measured region. */
    void enterMeasurement();

    /**
     * Zero every measured-region statistic (component Stats, counts,
     * distributions, per-thread quotas). The one reset both measured-
     * region entries share; with a registry attached it runs inside
     * MetricRegistry::carryAcrossReset().
     */
    void resetMeasuredStats();

    /** Schedule the next threadStep. */
    void scheduleThread(std::uint32_t tid, Cycle when);

    /** Build one thread's policy objects. */
    void buildPolicy(Thread &thread);

    /** Gather results after the run. */
    SimResults collectResults() const;

    /** Seed the event queue with the run's initial events. */
    void beginRun();

    /**
     * Drive the event loop to the run's horizon; with
     * stop_at_measurement_start, return at the first event boundary
     * inside the measured region instead.
     */
    void runLoop(bool stop_at_measurement_start);

    /** Final metrics sample + result collection. */
    SimResults finishRun();

    // --- Serving mode (see workload/request_stream.hh) ---------------
    /** True when the run is driven by the request front-end. */
    bool servingMode() const { return requests != nullptr; }

    /** Open loop: commit and schedule the next fleet arrival. */
    void scheduleNextArrival();

    /** Closed loop: schedule a client's next issue. */
    void scheduleClientIssue(std::uint32_t client, Cycle when);

    /** Server thread an arriving request is dispatched to. */
    std::uint32_t dispatchTarget(const Request &request) const;

    /** Enqueue a request on a thread, waking it when idle. */
    void dispatchRequest(std::uint32_t tid, const Request &request);

    /** Pop the next queued request into service; false when empty. */
    bool beginRequest(std::uint32_t tid, Cycle now);

    /** The request in service on a thread finished its last segment. */
    void completeRequest(std::uint32_t tid, Cycle now);

    SystemConfig cfg;
    /**
     * Shared (immutable) between a system and its clones, so the
     * OsService pointers inside in-flight OsInvocations — and the
     * references held by workloads and the interrupt source — stay
     * valid across snapshots.
     */
    std::shared_ptr<const ServiceTable> services;
    AddressSpace space;
    OsPools pools;
    std::unique_ptr<MemorySystem> mem;
    EventQueue events;
    InterruptSource interrupts;
    ThresholdController controller;
    StaticThreshold staticThreshold;
    DynamicThreshold dynamicThreshold;
    Topology topo;
    OsQueueSet queues;

    std::vector<Core> cores;
    std::vector<Thread> threads;
    ServiceProfile profile; ///< filled continuously; used for SI profiling
    /** Shared stream this system replays; null = generate in place. */
    std::shared_ptr<ReferenceTape> tape;
    /** Next tape segment this system executes. */
    std::size_t tapeCursor = 0;
    TraceSink *trace = nullptr; ///< optional; null = tracing off
    SpanRecorder *spans = nullptr; ///< optional; null = spans off

    // Metrics (optional; null = metrics off).
    MetricRegistry *metrics = nullptr;
    /** Cached registry sampling interval; 0 = periodic sampling off. */
    InstCount metricsInterval = 0;
    /** Next total-retired instant to sample at. */
    InstCount nextMetricsSample = 0;

    // Phase machinery.
    /** beginRun() has seeded the event queue. */
    bool started = false;
    bool measuring = false;
    InstCount warmupRetired = 0;
    InstCount warmupOsRetired = 0;
    InstCount measuredRetiredAll = 0;
    InstCount measuredOsRetired = 0;
    double warmupPrivFraction = 0.0;
    Cycle measureStart = 0;
    unsigned finishedThreads = 0;
    InstCount nextEpochBoundary = 0;
    InstCount windowStartInstr = 0;
    Cycle windowStartCycle = 0;
    std::vector<ThresholdSample> thresholdTrajectory;

    /** The configured dynamic-N feedback value for the ending epoch. */
    double epochFeedback();

    // Measured-region invocation stats. The counts also run during
    // warm-up (zeroed by resetMeasuredStats()), so the metric registry
    // polls them as lifetime counters.
    std::uint64_t invocationsMeasured = 0;
    std::uint64_t offloadedMeasured = 0;
    std::uint64_t migIntraMeasured = 0;
    std::uint64_t migInterMeasured = 0;
    RunningStat invocationLength;
    LogHistogram invocationLengthHist{32};
    InstCount osInstrAboveTail[4] = {0, 0, 0, 0};
    std::array<std::uint64_t, kNumServices> invocationsByService{};
    std::array<std::uint64_t, kNumServices> offloadsByService{};

    // Serving-mode state (null / unused in classic segment mode).
    std::unique_ptr<RequestStream> requests;
    /** Per-thread dispatch queues. */
    std::vector<std::deque<Request>> requestQueues;
    /** Open loop: the committed arrival the next event delivers. */
    Request pendingArrival;
    std::uint64_t requestsCompletedTotal = 0;
    std::uint64_t requestsCompletedMeasured = 0;
    /** Counts warm-up arrivals too, like invocationsMeasured. */
    std::uint64_t requestsOfferedMeasured = 0;
    LatencyHistogram requestLatency;
    RunningStat requestDispatchWait;
    bool servingDone = false;
    Cycle servingEndCycle = 0;
    /** Registry-owned latency histogram (null when metrics off). */
    LogHistogram *mRequestLatency = nullptr;

    /** Tail accounting for one completed invocation. */
    void recordInvocationLength(InstCount length);
};

} // namespace oscar

#endif // OSCAR_SYSTEM_SYSTEM_HH_
