/**
 * @file
 * Command line of the oscar benchmark executable.
 *
 *   oscarbench --workload NAME --seed N --seconds S --trace 0|1
 *   oscarbench --selftest     the replay check on every grid's profiles
 *   oscarbench --build-info   build type and compiler, as JSON
 *
 * A run prints a metric table, the claim outcomes and any failed
 * output check, then a `detail:` JSON line (claims and failures, for
 * the run record) and, last, the result line:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * It exits 1 when an output check failed. Normally driven by run.py,
 * which builds this executable first.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"
#include "sim/json.hh"

namespace
{

using namespace oscarbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "oscarbench: %s\nusage: oscarbench --workload "
                 "fig5_grid|serving_open|numa_k2 --seed N --seconds S "
                 "--trace 0|1\n       oscarbench --selftest | "
                 "--build-info\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

void
printRun(const RunOutput &out)
{
    for (const Metric &m : out.metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const ClaimResult &c : out.claims)
        std::printf("claim %-28s %s  (%s)\n", c.id.c_str(),
                    c.held ? "held" : "CONTRADICTED", c.detail.c_str());
    for (const std::string &f : out.failures)
        std::printf("FAILED %s\n", f.c_str());

    oscar::JsonWriter detail;
    detail.beginObject();
    detail.key("claims").beginArray();
    for (const ClaimResult &c : out.claims) {
        detail.beginObject();
        detail.field("id", c.id).field("held", c.held);
        detail.field("detail", c.detail);
        detail.endObject();
    }
    detail.endArray();
    detail.key("failures").beginArray();
    for (const std::string &f : out.failures)
        detail.value(f);
    detail.endArray();
    detail.endObject();
    std::printf("detail: %s\n", detail.str().c_str());

    oscar::JsonWriter w;
    w.beginObject();
    w.field("correct", out.correct);
    w.field("attempted", out.attempted);
    w.field("failed", out.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : out.metrics) {
        w.key(m.name).beginObject();
        w.field("value", m.value).field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--selftest") == 0) {
            // fig5_grid's kinds cover every grid's profiles.
            const auto failures = replaySelfTest(
                gridWorkloadKinds(WorkloadId::Fig5Grid), 42);
            for (const std::string &f : failures)
                std::printf("FAILED %s\n", f.c_str());
            std::printf("replay self-test: %s\n",
                        failures.empty() ? "passed" : "FAILED");
            return failures.empty() ? 0 : 1;
        }
        if (std::strcmp(arg, "--build-info") == 0) {
            std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
                        OSCARBENCH_BUILD_TYPE, OSCARBENCH_COMPILER);
            return 0;
        }
        if (i + 1 >= argc)
            usage((std::string("missing value for ") + arg).c_str());
        const char *value = argv[++i];
        if (std::strcmp(arg, "--workload") == 0) {
            workload = value;
        } else if (std::strcmp(arg, "--seed") == 0) {
            seed = parseUint(arg, value);
            have_seed = true;
        } else if (std::strcmp(arg, "--seconds") == 0) {
            seconds = static_cast<double>(parseUint(arg, value));
        } else if (std::strcmp(arg, "--trace") == 0) {
            trace = static_cast<int>(parseUint(arg, value));
            if (trace > 1)
                usage("--trace takes 0 or 1");
        } else {
            usage((std::string("unknown flag ") + arg).c_str());
        }
    }
    WorkloadId id;
    if (!parseWorkload(workload, id))
        usage(("unknown workload '" + workload + "'").c_str());
    if (!have_seed || seconds <= 0.0 || trace < 0)
        usage("--seed, --seconds and --trace are required");

    std::printf("workload %s seed %llu seconds %.0f trace %d\n",
                workloadIdName(id), static_cast<unsigned long long>(seed),
                seconds, trace);
    RunOutput out = trace == 1 ? runTraced(id, seed, seconds)
                               : runTimed(id, seed, seconds);
    for (const Metric &m : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.correct = false;
            out.failures.push_back("metric " + m.name + " is not finite");
            out.metrics.clear();
            break;
        }
    }
    printRun(out);
    return out.correct ? 0 : 1;
}
