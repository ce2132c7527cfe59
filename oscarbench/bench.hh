/**
 * @file
 * The oscar benchmark: workload grids, output checks, paper-claim
 * fidelity, and the timed (untraced) and traced runs.
 *
 * Every workload is the grid one of the repository's sweep benches
 * builds with its default flags, rebuilt here so the benchmark can
 * time its set-up, derive its seeds from `--seed`, and run it from
 * cold caches. See README.md for the workloads, metrics and claims.
 */

#ifndef OSCARBENCH_BENCH_HH_
#define OSCARBENCH_BENCH_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "system/sweep.hh"

namespace oscarbench
{

/** The benchmark's workloads. */
enum class WorkloadId
{
    Fig5Grid,
    ServingOpen,
    NumaK2,
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, WorkloadId &out);

/** The workload's name as BENCHMARK.json spells it. */
const char *workloadIdName(WorkloadId id);

/** Worker threads the workload's sweep runs with. */
unsigned workloadJobs(WorkloadId id);

/** Seed replicas of a serving point: the bench binaries' 42/1337
 *  pair when seed is 42. */
std::vector<std::uint64_t> replicaSeeds(std::uint64_t seed);

/**
 * Set-up of one workload run: the SI profiling passes plus the grid
 * build, exactly what the corresponding bench binary does before its
 * first point runs.
 */
std::vector<oscar::SweepPoint> buildGrid(WorkloadId id,
                                         std::uint64_t seed);

/** Kinds whose workload profiles the grid runs (for the replays). */
std::vector<oscar::WorkloadKind> gridWorkloadKinds(WorkloadId id);

/** One documented EXPERIMENTS.md claim evaluated on a run. */
struct ClaimResult
{
    std::string id;
    bool held = false;
    /** The compared values, for the record. */
    std::string detail;
};

/** Evaluate the workload's claims on a finished sweep. */
std::vector<ClaimResult>
evaluateClaims(WorkloadId id,
               const std::vector<oscar::SweepPointResult> &results);

/**
 * Per-point output checks: the point is ok, its throughput (and its
 * normalized throughput, when normalized) is finite and positive,
 * and a serving point completed measureRequests per replica. Returns
 * the failure reason, or an empty string.
 */
std::string checkPoint(const oscar::SweepPoint &point,
                       const oscar::SweepPointResult &result);

/** Host-timing-free serialization of every point, in point order. */
std::vector<std::string>
pointDigests(const std::vector<oscar::SweepPointResult> &results);

/** 32-bit FNV-1a fold of the point serializations (exact in a
 *  double, so it survives the JSON result line). */
std::uint32_t simDigest(const std::vector<std::string> &point_digests);

/** Clear the baseline and warm-snapshot caches. */
void clearCaches();

/** Seconds on the monotonic clock. */
double nowSeconds();

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of a run, printed as the final JSON line. */
struct RunOutput
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Failure reasons, printed before the result line. */
    std::vector<std::string> failures;
    /** Claim outcomes (timed run only). */
    std::vector<ClaimResult> claims;
};

/** One cold-cache run of a workload down the default sweep path. */
struct DefaultRun
{
    /** Set-up + sweep + report serialization, host seconds. */
    double wallS = 0.0;
    /** Profiling passes + grid build, host seconds. */
    double setupS = 0.0;
    std::vector<oscar::SweepPoint> points;
    std::vector<oscar::SweepPointResult> results;
};

/**
 * Clear both caches, build the grid and run it through
 * ParallelSweepRunner with default options at `jobs` workers, then
 * serialize the oscar.sweep.v1 report — what a bench binary does.
 */
DefaultRun runDefault(WorkloadId id, std::uint64_t seed, unsigned jobs);

/** Timed run (`--trace 0`): end-to-end metrics from cold caches. */
RunOutput runTimed(WorkloadId id, std::uint64_t seed, double seconds);

/** Traced run (`--trace 1`): per-layer metrics. */
RunOutput runTraced(WorkloadId id, std::uint64_t seed, double seconds);

/**
 * The replay check: for every profile of the given workload kinds,
 * generating references and then running MemorySystem::accessBatch
 * reproduces ExecEngine::execute exactly. Returns failure reasons.
 */
std::vector<std::string> replaySelfTest(
    const std::vector<oscar::WorkloadKind> &kinds, std::uint64_t seed);

/** Per-layer replay timings of one pass over the workload kinds. */
struct ReplayTimings
{
    /** Host ns per reference: generation, execute(), accessBatch. */
    double genNsPerRef = 0.0;
    double executeNsPerRef = 0.0;
    double accessNsPerRef = 0.0;
    /** Host ns per Workload::next token. */
    double nextNsPerToken = 0.0;
    /** Host ns per PredictivePolicy decide + observe pair. */
    double decideNs = 0.0;
    /** Host ns per RequestStream::nextArrival. */
    double arrivalNs = 0.0;
    /** References generated in the pass. */
    std::uint64_t refs = 0;
    /** Share of references in segments of at least 4,096 references. */
    double longSegmentRefShare = 0.0;
    /** Replay mismatches against execute(); empty when exact. */
    std::vector<std::string> mismatches;
};

/**
 * One replay pass over the profiles of `kinds`; arrivals are drawn
 * from `serving` (the workload's own front end, or serving_open's
 * for a grid without one).
 */
ReplayTimings replayLayers(const std::vector<oscar::WorkloadKind> &kinds,
                           const oscar::ServingConfig &serving,
                           std::uint64_t seed);

/** serving_open's client fleet at the given mean interarrival. */
std::shared_ptr<const oscar::ServingConfig>
servingOpenFleet(double mean_interarrival);

/** Median of a non-empty sample. */
double median(std::vector<double> values);

} // namespace oscarbench

#endif // OSCARBENCH_BENCH_HH_
