/**
 * @file
 * One command-line front end for the three observability artifacts.
 *
 *   oscar trace list
 *       Print the golden-trace catalogue (name, workload, policy).
 *
 *   oscar trace capture NAME [--out PATH]
 *       Run the named golden scenario and write its trace (default
 *       <NAME>.trace.jsonl). Re-blessing a golden after an intended
 *       behaviour change is `capture NAME --out tests/golden/...`.
 *
 *   oscar trace diff LEFT RIGHT
 *       Byte-compare two trace files line by line; print the first
 *       divergence with context. Exits 1 when the traces differ.
 *
 *   oscar metrics summary FILE
 *       Print the document header, the dynamic-N trajectory, the
 *       per-core cumulative L2 hit-rate series, and the final value of
 *       every counter.
 *
 *   oscar metrics timeseries FILE SERIES [--delta]
 *       Print "instant value" lines for one named series (cumulative
 *       by default, per-interval with --delta).
 *
 *   oscar metrics diff LEFT RIGHT [--tolerance T]
 *       Structural divergences (catalogue, row count, sample instants)
 *       always fail; value divergences are reported as per-series
 *       maximum relative deltas and fail only beyond T.
 *
 *   oscar spans summary FILE
 *       Print the document header and the per-phase aggregate table
 *       (count, mean, tail quantiles) including the end-to-end total.
 *
 *   oscar spans top FILE [N]
 *       Print the N slowest exemplar spans (default: all) as span
 *       trees: one header line per request, then its timestamped
 *       segments — the request's critical path, in time order — with
 *       each segment's share of the end-to-end latency.
 *
 *   oscar spans rollup FILE
 *       Flame-style phase rollup from the aggregate sums: one line
 *       per phase with its share of total measured cycles, sorted by
 *       share. Answers "where does the p99 go" at a glance.
 *
 *   oscar spans diff LEFT RIGHT [--tolerance T]
 *       Relative delta of each phase's sum, mean and p99. Structural
 *       divergences (schema, catalogue) always fail; value divergences
 *       fail only beyond T.
 *
 *   oscar metrics|spans validate FILE
 *       Run the schema validator (sim/metrics_reader.hh,
 *       sim/span_reader.hh) and list any problems. Exits 1 when the
 *       file is invalid — the CI schema checks are built on this.
 *
 * T defaults to 0 (exact match) and must be a finite number >= 0.
 * Exit codes: 0 success, 1 difference or invalid file, 2 usage error
 * or unreadable input.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/metrics_reader.hh"
#include "sim/span_reader.hh"
#include "sim/trace_diff.hh"
#include "system/experiment.hh"
#include "system/trace_capture.hh"

namespace
{

using namespace oscar;

using Args = std::vector<std::string>;

/** Handler result that makes the dispatcher print the usage line. */
constexpr int kUsage = -1;

/** Load an artifact, reporting a parse or I/O failure on stderr. */
template <typename File>
File
loadOrComplain(const std::string &path,
               File (*load)(const std::string &))
{
    File file = load(path);
    if (!file.ok)
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     file.error.c_str());
    return file;
}

/**
 * Remove `flag` and its value from `args`; a repeated flag keeps its
 * last value.
 *
 * @return false when the flag is present without a value.
 */
bool
takeFlagValue(Args &args, const std::string &flag,
              std::optional<std::string> &value)
{
    for (auto it = args.begin(); it != args.end();) {
        if (*it != flag) {
            ++it;
            continue;
        }
        if (it + 1 == args.end())
            return false;
        value = *(it + 1);
        it = args.erase(it, it + 2);
    }
    return true;
}

/** Remove a boolean `flag` from `args`; true when it was present. */
bool
takeFlag(Args &args, const std::string &flag)
{
    const auto end = std::remove(args.begin(), args.end(), flag);
    const bool found = end != args.end();
    args.erase(end, args.end());
    return found;
}

/** Strict unsigned integer: digits only, no sign, no overflow. */
bool
parseCount(const std::string &text, std::uint64_t &out)
{
    JsonCursor cur(text);
    return cur.u64(out) && cur.atEnd();
}

/** Take `--tolerance T`; T must be a finite number >= 0. */
bool
takeTolerance(Args &args, double &tolerance)
{
    std::optional<std::string> text;
    if (!takeFlagValue(args, "--tolerance", text))
        return false;
    if (!text)
        return true;
    JsonCursor cur(*text);
    return cur.number(tolerance) && cur.atEnd() && tolerance >= 0.0;
}

/**
 * Relative distance between two samples: |l-r| scaled by the larger
 * magnitude. Equal values (including 0 vs 0) are distance 0; a value
 * against exactly zero is distance 1 — any sign of life where the
 * other run was flat is a full-scale divergence.
 */
double
relativeDelta(double l, double r)
{
    if (l == r)
        return 0.0;
    const double scale = std::max(std::fabs(l), std::fabs(r));
    return std::fabs(l - r) / scale;
}

/** Print a validator's verdict; exit status 1 when it found problems. */
int
printValidation(const std::string &path,
                const std::vector<std::string> &problems,
                const std::string &counts)
{
    if (problems.empty()) {
        std::printf("%s: valid (%s)\n", path.c_str(), counts.c_str());
        return 0;
    }
    for (const std::string &problem : problems)
        std::printf("%s: %s\n", path.c_str(), problem.c_str());
    return 1;
}

// ---------------------------------------------------------------------
// trace

int
traceList(Args args)
{
    if (!args.empty())
        return kUsage;
    std::printf("%-20s %-10s %-8s %s\n", "name", "workload", "policy",
                "size");
    for (const GoldenTraceConfig &golden : goldenTraceConfigs()) {
        std::printf("%-20s %-10s %-8s warmup=%llu measure=%llu\n",
                    golden.name.c_str(),
                    workloadName(golden.config.workload).c_str(),
                    policyShortName(golden.config.policy),
                    static_cast<unsigned long long>(
                        golden.config.warmupInstructions),
                    static_cast<unsigned long long>(
                        golden.config.measureInstructions));
    }
    return 0;
}

int
traceCapture(Args args)
{
    std::optional<std::string> out_flag;
    if (!takeFlagValue(args, "--out", out_flag) || args.size() != 1)
        return kUsage;
    const std::string &name = args[0];
    const std::string out = out_flag.value_or(name + ".trace.jsonl");
    const GoldenTraceConfig *golden = findGoldenTraceConfig(name);
    if (golden == nullptr) {
        std::fprintf(stderr,
                     "unknown golden scenario '%s' (see 'list')\n",
                     name.c_str());
        return 2;
    }
    if (!writeTraceFile(golden->config, out)) {
        std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return 0;
}

int
traceDiff(Args args)
{
    if (args.size() != 2)
        return kUsage;
    std::string text[2];
    for (int side = 0; side < 2; ++side) {
        std::string error;
        if (!readTextFile(args[side], text[side], error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }
    const TraceDiffReport report = diffTraceText(text[0], text[1]);
    std::printf("%s", report.format().c_str());
    return report.identical ? 0 : 1;
}

// ---------------------------------------------------------------------
// metrics

/** Series index of "mem.core<c>.<suffix>", or -1. */
std::ptrdiff_t
coreSeries(const MetricsFile &file, std::size_t core,
           const std::string &suffix)
{
    return file.seriesIndex("mem.core" + std::to_string(core) + "." +
                            suffix);
}

void
printThresholdTrajectory(const MetricsFile &file)
{
    const std::ptrdiff_t n = file.seriesIndex("controller.n");
    if (n < 0) {
        std::printf("\nno controller.n series (static threshold)\n");
        return;
    }
    std::printf("\n-- dynamic-N trajectory --\n");
    TextTable table({"sample", "instant", "N"});
    for (const MetricsRow &row : file.rows) {
        table.addRow({std::to_string(row.sample),
                      std::to_string(row.instant),
                      formatDouble(row.cum[static_cast<std::size_t>(n)],
                                   0)});
    }
    std::printf("%s", table.render().c_str());
}

void
printL2HitRates(const MetricsFile &file)
{
    // Core count is discovered from the series catalogue.
    std::vector<std::size_t> cores;
    for (std::size_t c = 0; coreSeries(file, c, "l2.user.hits") >= 0;
         ++c) {
        cores.push_back(c);
    }
    if (cores.empty()) {
        std::printf("\nno per-core L2 series\n");
        return;
    }

    std::printf("\n-- cumulative L2 hit rate per core (user+OS) --\n");
    std::vector<std::string> headers = {"sample", "instant"};
    for (std::size_t c : cores)
        headers.push_back("core" + std::to_string(c));
    TextTable table(headers);
    for (const MetricsRow &row : file.rows) {
        std::vector<std::string> cells = {std::to_string(row.sample),
                                          std::to_string(row.instant)};
        for (std::size_t c : cores) {
            const auto value = [&](const char *suffix) {
                const std::ptrdiff_t s = coreSeries(file, c, suffix);
                return s < 0 ? 0.0
                             : row.cum[static_cast<std::size_t>(s)];
            };
            const double hits =
                value("l2.user.hits") + value("l2.os.hits");
            const double accesses =
                value("l2.user.accesses") + value("l2.os.accesses");
            cells.push_back(accesses > 0.0
                                ? formatDouble(hits / accesses, 4)
                                : "-");
        }
        table.addRow(std::move(cells));
    }
    std::printf("%s", table.render().c_str());
}

void
printCounterTotals(const MetricsFile &file)
{
    if (file.rows.empty())
        return;
    std::printf("\n-- final counter totals --\n");
    const MetricsRow &last = file.rows.back();
    TextTable table({"counter", "total"});
    for (std::size_t s = 0; s < file.series.size(); ++s) {
        if (file.series[s].kind != MetricKind::Counter)
            continue;
        table.addRow({file.series[s].name,
                      formatDouble(last.cum[s], 0)});
    }
    std::printf("%s", table.render().c_str());
}

int
metricsSummary(Args args)
{
    if (args.size() != 1)
        return kUsage;
    const MetricsFile file = loadOrComplain(args[0], loadMetricsFile);
    if (!file.ok)
        return 2;
    std::printf("schema %s\n", file.schema.c_str());
    std::printf("series %zu   samples %zu   sample_every %llu\n",
                file.series.size(), file.rows.size(),
                static_cast<unsigned long long>(file.sampleEvery));
    std::printf("measure_sample %lld\n",
                static_cast<long long>(file.measureSample));
    if (!file.rows.empty()) {
        std::printf("final instant %llu   final cycle %llu\n",
                    static_cast<unsigned long long>(
                        file.rows.back().instant),
                    static_cast<unsigned long long>(
                        file.rows.back().cycle));
    }
    printThresholdTrajectory(file);
    printL2HitRates(file);
    printCounterTotals(file);
    return 0;
}

int
metricsTimeseries(Args args)
{
    const bool delta = takeFlag(args, "--delta");
    if (args.size() != 2)
        return kUsage;
    const MetricsFile file = loadOrComplain(args[0], loadMetricsFile);
    if (!file.ok)
        return 2;
    const std::ptrdiff_t series = file.seriesIndex(args[1]);
    if (series < 0) {
        std::fprintf(stderr, "no series '%s' in '%s'\n",
                     args[1].c_str(), args[0].c_str());
        return 2;
    }
    const std::size_t s = static_cast<std::size_t>(series);
    for (const MetricsRow &row : file.rows) {
        std::printf("%llu %s\n",
                    static_cast<unsigned long long>(row.instant),
                    formatDouble(delta ? row.delta[s] : row.cum[s], 6)
                        .c_str());
    }
    return 0;
}

int
metricsDiff(Args args)
{
    double tolerance = 0.0;
    if (!takeTolerance(args, tolerance) || args.size() != 2)
        return kUsage;
    const MetricsFile left = loadOrComplain(args[0], loadMetricsFile);
    const MetricsFile right = loadOrComplain(args[1], loadMetricsFile);
    if (!left.ok || !right.ok)
        return 2;

    // Structural divergences are never excusable by tolerance: a
    // different catalogue or sampling grid means the runs are not
    // comparable point for point.
    if (left.series.size() != right.series.size()) {
        std::printf("series catalogues differ: %zu vs %zu\n",
                    left.series.size(), right.series.size());
        return 1;
    }
    for (std::size_t s = 0; s < left.series.size(); ++s) {
        if (left.series[s].name != right.series[s].name) {
            std::printf("series %zu differs: '%s' vs '%s'\n", s,
                        left.series[s].name.c_str(),
                        right.series[s].name.c_str());
            return 1;
        }
    }
    if (left.rows.size() != right.rows.size()) {
        std::printf("row counts differ: %zu vs %zu\n",
                    left.rows.size(), right.rows.size());
        return 1;
    }
    for (std::size_t i = 0; i < left.rows.size(); ++i) {
        const MetricsRow &l = left.rows[i];
        const MetricsRow &r = right.rows[i];
        if (l.instant != r.instant || l.cycle != r.cycle) {
            std::printf("row %zu differs: instant %llu/%llu cycle "
                        "%llu/%llu\n",
                        i, static_cast<unsigned long long>(l.instant),
                        static_cast<unsigned long long>(r.instant),
                        static_cast<unsigned long long>(l.cycle),
                        static_cast<unsigned long long>(r.cycle));
            return 1;
        }
    }

    // Value comparison: worst relative delta per series across all
    // rows, reported for every series that diverges at all.
    std::size_t exceeded = 0;
    std::size_t diverged = 0;
    for (std::size_t s = 0; s < left.series.size(); ++s) {
        double worst = 0.0;
        std::size_t worstRow = 0;
        for (std::size_t i = 0; i < left.rows.size(); ++i) {
            const double d =
                relativeDelta(left.rows[i].cum[s], right.rows[i].cum[s]);
            if (d > worst) {
                worst = d;
                worstRow = i;
            }
        }
        if (worst == 0.0)
            continue;
        ++diverged;
        const bool over = worst > tolerance;
        exceeded += over ? 1 : 0;
        std::printf("series '%s': max rel delta %.6g at row %zu "
                    "(%s vs %s)%s\n",
                    left.series[s].name.c_str(), worst, worstRow,
                    formatDouble(left.rows[worstRow].cum[s], 6).c_str(),
                    formatDouble(right.rows[worstRow].cum[s], 6).c_str(),
                    over ? " EXCEEDS" : "");
    }
    if (exceeded > 0) {
        std::printf("%zu of %zu series exceed tolerance %.6g\n",
                    exceeded, left.series.size(), tolerance);
        return 1;
    }
    if (diverged > 0) {
        std::printf("%zu series diverge within tolerance %.6g\n",
                    diverged, tolerance);
        return 0;
    }
    std::printf("identical: %zu series, %zu rows\n",
                left.series.size(), left.rows.size());
    return 0;
}

int
metricsValidate(Args args)
{
    if (args.size() != 1)
        return kUsage;
    const MetricsFile file = loadMetricsFile(args[0]);
    return printValidation(args[0], validateMetricsFile(file),
                           std::to_string(file.series.size()) +
                               " series, " +
                               std::to_string(file.rows.size()) +
                               " rows");
}

// ---------------------------------------------------------------------
// spans

int
spansSummary(Args args)
{
    if (args.size() != 1)
        return kUsage;
    const SpansFile file = loadOrComplain(args[0], loadSpansFile);
    if (!file.ok)
        return 2;
    std::printf("schema %s\n", file.schema.c_str());
    std::printf("spans %llu   exemplars %zu (capacity %llu)\n",
                static_cast<unsigned long long>(file.spans),
                file.exemplars.size(),
                static_cast<unsigned long long>(file.exemplarCapacity));
    std::printf("\n-- per-phase latency attribution (cycles) --\n");
    TextTable table({"phase", "count", "sum", "mean", "p50", "p95",
                     "p99", "p999", "max"});
    for (const SpanPhaseRow &row : file.phases) {
        table.addRow({row.name, std::to_string(row.count),
                      std::to_string(row.sum), formatDouble(row.mean, 1),
                      std::to_string(row.p50), std::to_string(row.p95),
                      std::to_string(row.p99), std::to_string(row.p999),
                      std::to_string(row.max)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

void
printSpanTree(const SpanRow &span)
{
    std::printf("span %llu  tenant %u  thread %u  lat %llu  "
                "[%llu, %llu]  seed %llu\n",
                static_cast<unsigned long long>(span.id), span.tenant,
                span.thread,
                static_cast<unsigned long long>(span.latency),
                static_cast<unsigned long long>(span.issued),
                static_cast<unsigned long long>(span.completed),
                static_cast<unsigned long long>(span.seed));
    for (const SpanSegRow &seg : span.segs) {
        const double share =
            span.latency > 0
                ? 100.0 * static_cast<double>(seg.cycles) /
                      static_cast<double>(span.latency)
                : 0.0;
        std::string where;
        if (seg.service >= 0)
            where += "  sv=" + std::to_string(seg.service);
        if (seg.queue >= 0)
            where += "  q=" + std::to_string(seg.queue);
        std::printf("  +%-10llu %-13s %10llu cy  %5.1f%%%s\n",
                    static_cast<unsigned long long>(seg.start -
                                                    span.issued),
                    seg.phase.c_str(),
                    static_cast<unsigned long long>(seg.cycles), share,
                    where.c_str());
    }
}

int
spansTop(Args args)
{
    std::uint64_t limit = 0;
    if (args.empty() || args.size() > 2 ||
        (args.size() == 2 && !parseCount(args[1], limit))) {
        return kUsage;
    }
    const SpansFile file = loadOrComplain(args[0], loadSpansFile);
    if (!file.ok)
        return 2;
    std::size_t n = file.exemplars.size();
    if (args.size() == 2)
        n = std::min<std::uint64_t>(n, limit);
    std::printf("%zu slowest of %llu spans:\n\n", n,
                static_cast<unsigned long long>(file.spans));
    for (std::size_t i = 0; i < n; ++i) {
        printSpanTree(file.exemplars[i]);
        if (i + 1 < n)
            std::printf("\n");
    }
    return 0;
}

int
spansRollup(Args args)
{
    if (args.size() != 1)
        return kUsage;
    const SpansFile file = loadOrComplain(args[0], loadSpansFile);
    if (!file.ok)
        return 2;
    const std::ptrdiff_t total = file.phaseIndex("total");
    if (total < 0) {
        std::fprintf(stderr, "%s: no 'total' aggregate row\n",
                     args[0].c_str());
        return 2;
    }
    const double denom = static_cast<double>(
        file.phases[static_cast<std::size_t>(total)].sum);

    std::vector<const SpanPhaseRow *> rows;
    for (const SpanPhaseRow &row : file.phases) {
        if (row.name != "total")
            rows.push_back(&row);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const SpanPhaseRow *a, const SpanPhaseRow *b) {
                         return a->sum > b->sum;
                     });

    std::printf("phase rollup over %llu spans (%s total cycles):\n",
                static_cast<unsigned long long>(file.spans),
                std::to_string(static_cast<std::uint64_t>(denom))
                    .c_str());
    for (const SpanPhaseRow *row : rows) {
        const double share =
            denom > 0.0 ? 100.0 * static_cast<double>(row->sum) / denom
                        : 0.0;
        const int bar =
            static_cast<int>(share / 2.0 + 0.5); // 50 cols = 100%
        std::printf("  %-13s %6.2f%%  %-50.*s %llu cy\n",
                    row->name.c_str(), share, bar,
                    "##################################################",
                    static_cast<unsigned long long>(row->sum));
    }
    return 0;
}

int
spansDiff(Args args)
{
    double tolerance = 0.0;
    if (!takeTolerance(args, tolerance) || args.size() != 2)
        return kUsage;
    const SpansFile left = loadOrComplain(args[0], loadSpansFile);
    const SpansFile right = loadOrComplain(args[1], loadSpansFile);
    if (!left.ok || !right.ok)
        return 2;

    if (left.schema != right.schema) {
        std::printf("schemas differ: '%s' vs '%s'\n",
                    left.schema.c_str(), right.schema.c_str());
        return 1;
    }
    if (left.phases.size() != right.phases.size()) {
        std::printf("phase tables differ: %zu vs %zu rows\n",
                    left.phases.size(), right.phases.size());
        return 1;
    }
    for (std::size_t p = 0; p < left.phases.size(); ++p) {
        if (left.phases[p].name != right.phases[p].name) {
            std::printf("phase %zu differs: '%s' vs '%s'\n", p,
                        left.phases[p].name.c_str(),
                        right.phases[p].name.c_str());
            return 1;
        }
    }

    std::size_t exceeded = 0;
    std::size_t diverged = 0;
    for (std::size_t p = 0; p < left.phases.size(); ++p) {
        const SpanPhaseRow &l = left.phases[p];
        const SpanPhaseRow &r = right.phases[p];
        const struct
        {
            const char *what;
            double delta;
        } checks[] = {
            {"sum", relativeDelta(static_cast<double>(l.sum),
                                  static_cast<double>(r.sum))},
            {"mean", relativeDelta(l.mean, r.mean)},
            {"p99", relativeDelta(static_cast<double>(l.p99),
                                  static_cast<double>(r.p99))},
        };
        for (const auto &check : checks) {
            if (check.delta == 0.0)
                continue;
            ++diverged;
            const bool over = check.delta > tolerance;
            exceeded += over ? 1 : 0;
            std::printf("phase '%s' %s: rel delta %.6g%s\n",
                        l.name.c_str(), check.what, check.delta,
                        over ? " EXCEEDS" : "");
        }
    }
    if (exceeded > 0) {
        std::printf("%zu metrics exceed tolerance %.6g\n", exceeded,
                    tolerance);
        return 1;
    }
    if (diverged > 0) {
        std::printf("%zu metrics diverge within tolerance %.6g\n",
                    diverged, tolerance);
        return 0;
    }
    std::printf("identical: %zu phase rows\n", left.phases.size());
    return 0;
}

int
spansValidate(Args args)
{
    if (args.size() != 1)
        return kUsage;
    const SpansFile file = loadSpansFile(args[0]);
    return printValidation(args[0], validateSpansFile(file),
                           std::to_string(file.spans) + " spans, " +
                               std::to_string(file.exemplars.size()) +
                               " exemplars");
}

// ---------------------------------------------------------------------
// dispatch

struct Command
{
    const char *schema;
    const char *name;
    const char *usage;
    int (*run)(Args);
};

const Command kCommands[] = {
    {"trace", "list", "", traceList},
    {"trace", "capture", " NAME [--out PATH]", traceCapture},
    {"trace", "diff", " LEFT RIGHT", traceDiff},
    {"metrics", "summary", " FILE", metricsSummary},
    {"metrics", "timeseries", " FILE SERIES [--delta]",
     metricsTimeseries},
    {"metrics", "diff", " LEFT RIGHT [--tolerance T]", metricsDiff},
    {"metrics", "validate", " FILE", metricsValidate},
    {"spans", "summary", " FILE", spansSummary},
    {"spans", "top", " FILE [N]", spansTop},
    {"spans", "rollup", " FILE", spansRollup},
    {"spans", "diff", " LEFT RIGHT [--tolerance T]", spansDiff},
    {"spans", "validate", " FILE", spansValidate},
};

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage:\n");
    for (const Command &command : kCommands) {
        std::fprintf(stderr, "  %s %s %s%s\n", argv0, command.schema,
                     command.name, command.usage);
    }
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage(argv[0]);
    const std::string schema = argv[1];
    const std::string name = argv[2];
    for (const Command &command : kCommands) {
        if (schema != command.schema || name != command.name)
            continue;
        const int status = command.run(Args(argv + 3, argv + argc));
        if (status != kUsage)
            return status;
        std::fprintf(stderr, "usage: %s %s %s%s\n", argv[0],
                     command.schema, command.name, command.usage);
        return 2;
    }
    std::fprintf(stderr, "unknown command '%s %s'\n", schema.c_str(),
                 name.c_str());
    return usage(argv[0]);
}
