/**
 * @file
 * Mutation corpus for the artifact readers.
 *
 * A freshly written metrics document, spans document and golden trace
 * are each mutated four ways — truncation at every 97th byte, 300
 * single-byte flips, a 25-digit overflow in each number field, and
 * every adjacent line pair swapped — and every mutant must parse,
 * validate and trace-diff without crashing. The corpus is fixed-seed,
 * so a failure reproduces exactly; run under the asan preset it also
 * catches out-of-bounds reads and undefined behaviour the readers
 * would otherwise survive silently.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/metrics_reader.hh"
#include "sim/random.hh"
#include "sim/span.hh"
#include "sim/span_reader.hh"
#include "sim/trace_diff.hh"
#include "system/experiment.hh"
#include "system/metrics_capture.hh"
#include "system/span_capture.hh"
#include "system/trace_capture.hh"

namespace oscar
{
namespace
{

/** The mutants of one document, grouped by mutation kind. */
struct Mutants
{
    std::vector<std::string> truncated;
    std::vector<std::string> flipped;
    std::vector<std::string> overflowed;
    std::vector<std::string> swapped;
};

Mutants
mutate(const std::string &doc, std::uint64_t seed)
{
    Mutants m;
    for (std::size_t at = 0; at < doc.size(); at += 97)
        m.truncated.push_back(doc.substr(0, at));

    Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
        std::string flipped = doc;
        const std::size_t at = rng.nextBounded(doc.size());
        flipped[at] = static_cast<char>(flipped[at] ^
                                        (1 + rng.nextBounded(255)));
        m.flipped.push_back(std::move(flipped));
    }

    // A number field is a maximal run of digits; 25 digits overflow
    // every integer type and stay finite as a double.
    for (std::size_t at = 0; at < doc.size();) {
        if (!std::isdigit(static_cast<unsigned char>(doc[at]))) {
            ++at;
            continue;
        }
        std::size_t end = at;
        while (end < doc.size() &&
               std::isdigit(static_cast<unsigned char>(doc[end])))
            ++end;
        std::string overflowed = doc;
        overflowed.replace(at, end - at, std::string(25, '9'));
        m.overflowed.push_back(std::move(overflowed));
        at = end;
    }

    const std::vector<std::string> lines = splitTraceLines(doc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
        std::string swapped;
        for (std::size_t j = 0; j < lines.size(); ++j) {
            const std::size_t pick = j == i ? i + 1 : j == i + 1 ? i : j;
            swapped += lines[pick];
            swapped += '\n';
        }
        m.swapped.push_back(std::move(swapped));
    }
    return m;
}

/**
 * Run `rejects` over every mutant of `doc`; each kind of mutation must
 * be caught at least once (and the intact document never).
 */
template <typename Rejects>
void
checkCorpus(const std::string &doc, std::uint64_t seed, Rejects rejects)
{
    ASSERT_FALSE(rejects(doc));
    const Mutants m = mutate(doc, seed);
    const std::pair<const char *, const std::vector<std::string> *>
        kinds[] = {{"truncated", &m.truncated},
                   {"flipped", &m.flipped},
                   {"overflowed", &m.overflowed},
                   {"swapped", &m.swapped}};
    for (const auto &[kind, mutants] : kinds) {
        std::size_t rejected = 0;
        for (const std::string &mutant : *mutants)
            rejected += rejects(mutant) ? 1 : 0;
        EXPECT_GT(rejected, 0u) << kind << " of " << mutants->size();
    }
}

/** A short serving run: requests, off-loads, OS queues, exemplars. */
SystemConfig
corpusConfig()
{
    auto serving = std::make_shared<ServingConfig>();
    serving->arrival = ArrivalModel::OpenLoop;
    serving->meanInterarrivalCycles = 8'000.0;
    serving->tenants = 4;
    serving->warmupRequests = 10;
    serving->measureRequests = 40;
    SystemConfig config;
    config.workload = WorkloadKind::Apache;
    config.serving = serving;
    config.offloadEnabled = true;
    config.policy = PolicyKind::HardwarePredictor;
    config.staticThreshold = 100;
    config.migrationOneWayCycles = 100;
    return config;
}

TEST(MutationCorpus, MetricsReaderSurvivesEveryMutant)
{
    const SystemConfig config = corpusConfig();
    MetricRegistry registry(/*sample_every=*/50'000);
    (void)ExperimentRunner::run(config, nullptr, &registry);
    checkCorpus(metricsDocument(registry, config), 1,
                [](const std::string &text) {
                    return !validateMetricsFile(
                                parseMetricsDocument(text))
                                .empty();
                });
}

TEST(MutationCorpus, SpansReaderSurvivesEveryMutant)
{
    const SystemConfig config = corpusConfig();
    SpanRecorder recorder(/*exemplar_capacity=*/4);
    (void)ExperimentRunner::run(config, nullptr, nullptr, &recorder);
    checkCorpus(spansDocument(recorder.results(), config), 2,
                [](const std::string &text) {
                    return !validateSpansFile(parseSpansDocument(text))
                                .empty();
                });
}

TEST(MutationCorpus, TraceDiffSurvivesEveryMutant)
{
    const GoldenTraceConfig *golden =
        findGoldenTraceConfig("apache_hi_static");
    ASSERT_NE(golden, nullptr);
    const std::string doc = captureTrace(golden->config).text();
    const std::vector<std::string> lines = splitTraceLines(doc);
    checkCorpus(doc, 3, [&](const std::string &text) {
        const TraceDiffReport report =
            diffTraceLines(lines, splitTraceLines(text));
        (void)report.format();
        return !report.identical;
    });
}

} // namespace
} // namespace oscar
