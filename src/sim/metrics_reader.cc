/**
 * @file
 * Implementation of the `oscar.metrics.v1` reader.
 *
 * The scanner is deliberately strict: it accepts exactly the byte
 * layout metrics_capture.cc produces (see JsonCursor). Anything else
 * is a parse error — which is what the validation tests and the CI
 * schema check want.
 */

#include "sim/metrics_reader.hh"

#include <string_view>

#include "sim/json.hh"

namespace oscar
{

namespace
{

/** `[n,n,...]` (possibly empty). */
bool
parseNumberArray(JsonCursor &cur, std::vector<double> &out)
{
    out.clear();
    return cur.list([&] {
        double value = 0;
        if (!cur.number(value))
            return false;
        out.push_back(value);
        return true;
    });
}

bool
parseKind(const std::string &name, MetricKind &out)
{
    if (name == "counter") {
        out = MetricKind::Counter;
    } else if (name == "gauge") {
        out = MetricKind::Gauge;
    } else if (name == "histogram") {
        out = MetricKind::Histogram;
    } else {
        return false;
    }
    return true;
}

bool
parseMetaLine(std::string_view line, MetricsFile &file)
{
    JsonCursor cur(line);
    return cur.expect("{\"schema\":") && cur.string(file.schema) &&
           cur.expect(",\"sample_every\":") && cur.u64(file.sampleEvery) &&
           cur.expect(",\"measure_sample\":") &&
           cur.i64(file.measureSample, /*min=*/-1) &&
           cur.expect(",\"config\":") && cur.skipObject() &&
           cur.expect(",\"series\":") && cur.list([&] {
               MetricRegistry::Series series;
               std::string kind;
               if (!cur.expect("{\"name\":") || !cur.string(series.name) ||
                   !cur.expect(",\"kind\":") || !cur.string(kind) ||
                   !cur.expect("}") || !parseKind(kind, series.kind)) {
                   return false;
               }
               file.series.push_back(series);
               return true;
           }) &&
           cur.expect("}") && cur.atEnd();
}

bool
parseRowLine(std::string_view line, MetricsRow &row)
{
    JsonCursor cur(line);
    return cur.expect("{\"sample\":") && cur.u64(row.sample) &&
           cur.expect(",\"instant\":") && cur.u64(row.instant) &&
           cur.expect(",\"cycle\":") && cur.u64(row.cycle) &&
           cur.expect(",\"cum\":") && parseNumberArray(cur, row.cum) &&
           cur.expect(",\"delta\":") && parseNumberArray(cur, row.delta) &&
           cur.expect("}") && cur.atEnd();
}

MetricsFile
failParse(std::string error)
{
    MetricsFile file;
    file.ok = false;
    file.error = std::move(error);
    return file;
}

} // namespace

std::ptrdiff_t
MetricsFile::seriesIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].name == name)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

MetricsFile
parseMetricsDocument(const std::string &text)
{
    MetricsFile file;
    JsonlLines lines(text);
    std::string_view line;
    bool have_meta = false;
    while (lines.next(line)) {
        if (line.empty())
            continue;
        if (!have_meta) {
            if (!parseMetaLine(line, file))
                return failParse("line 1: malformed meta line");
            have_meta = true;
            continue;
        }
        MetricsRow row;
        if (!parseRowLine(line, row)) {
            return failParse("line " + std::to_string(lines.lineNumber()) +
                             ": malformed sample row");
        }
        file.rows.push_back(std::move(row));
    }
    if (!have_meta)
        return failParse("empty document");
    file.ok = true;
    return file;
}

MetricsFile
loadMetricsFile(const std::string &path)
{
    std::string text;
    std::string error;
    if (!readTextFile(path, text, error))
        return failParse(error);
    return parseMetricsDocument(text);
}

std::vector<std::string>
validateMetricsFile(const MetricsFile &file)
{
    std::vector<std::string> problems;
    if (!file.ok) {
        problems.push_back("parse failed: " + file.error);
        return problems;
    }
    if (file.schema != kMetricsSchema) {
        problems.push_back("schema is '" + file.schema + "', expected '" +
                           std::string(kMetricsSchema) + "'");
    }
    if (file.measureSample >= 0 &&
        static_cast<std::uint64_t>(file.measureSample) >=
            file.rows.size()) {
        problems.push_back("measure_sample " +
                           std::to_string(file.measureSample) +
                           " out of range");
    }

    const std::size_t width = file.series.size();
    for (std::size_t i = 0; i < file.rows.size(); ++i) {
        const MetricsRow &row = file.rows[i];
        const std::string where = "row " + std::to_string(i) + ": ";
        if (row.sample != i) {
            problems.push_back(where + "sample index " +
                               std::to_string(row.sample) +
                               ", expected " + std::to_string(i));
        }
        if (row.cum.size() != width || row.delta.size() != width) {
            problems.push_back(where + "array width mismatch");
            continue; // Per-series checks would read out of bounds.
        }
        if (i > 0 &&
            row.instant <= file.rows[i - 1].instant) {
            problems.push_back(where + "instant " +
                               std::to_string(row.instant) +
                               " not strictly monotone");
        }
        for (std::size_t s = 0; s < width; ++s) {
            const double before = i > 0 ? file.rows[i - 1].cum[s] : 0.0;
            // jsonNumber output round-trips exactly, so delta must
            // reproduce the writer's subtraction bit-for-bit.
            if (row.delta[s] != row.cum[s] - before) {
                problems.push_back(where + "series '" +
                                   file.series[s].name +
                                   "' delta != cum - previous cum");
            }
            if (file.series[s].kind == MetricKind::Counter &&
                row.cum[s] < before) {
                problems.push_back(where + "counter '" +
                                   file.series[s].name +
                                   "' not monotone");
            }
        }
    }
    return problems;
}

} // namespace oscar
