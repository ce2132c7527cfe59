/**
 * @file
 * Implementation of the `oscar.spans.v1` reader.
 *
 * The scanner is deliberately strict: it accepts exactly the byte
 * layout system/span_capture.cc produces (see JsonCursor). Anything
 * else is a parse error — which is what the validation tests and the
 * CI schema check want.
 */

#include "sim/span_reader.hh"

#include <string_view>

#include "sim/json.hh"

namespace oscar
{

namespace
{

bool
parseMetaLine(std::string_view line, SpansFile &file)
{
    JsonCursor cur(line);
    return cur.expect("{\"schema\":") && cur.string(file.schema) &&
           cur.expect(",\"spans\":") && cur.u64(file.spans) &&
           cur.expect(",\"exemplar_capacity\":") &&
           cur.u64(file.exemplarCapacity) &&
           cur.expect(",\"config\":") && cur.skipObject() &&
           cur.expect(",\"phases\":") && cur.list([&] {
               std::string name;
               if (!cur.string(name))
                   return false;
               file.catalogue.push_back(std::move(name));
               return true;
           }) &&
           cur.expect("}") && cur.atEnd();
}

bool
parsePhaseLine(std::string_view line, SpanPhaseRow &row)
{
    JsonCursor cur(line);
    return cur.expect("{\"phase\":") && cur.string(row.name) &&
           cur.expect(",\"count\":") && cur.u64(row.count) &&
           cur.expect(",\"sum\":") && cur.u64(row.sum) &&
           cur.expect(",\"mean\":") && cur.number(row.mean) &&
           cur.expect(",\"min\":") && cur.u64(row.min) &&
           cur.expect(",\"max\":") && cur.u64(row.max) &&
           cur.expect(",\"p50\":") && cur.u64(row.p50) &&
           cur.expect(",\"p95\":") && cur.u64(row.p95) &&
           cur.expect(",\"p99\":") && cur.u64(row.p99) &&
           cur.expect(",\"p999\":") && cur.u64(row.p999) &&
           cur.expect("}") && cur.atEnd();
}

bool
parseSegObject(JsonCursor &cur, SpanSegRow &seg)
{
    // The optional service and queue ids are non-negative; the -1
    // "absent" marker exists only in the parsed row.
    return cur.expect("{\"ph\":") && cur.string(seg.phase) &&
           cur.expect(",\"start\":") && cur.u64(seg.start) &&
           cur.expect(",\"cy\":") && cur.u64(seg.cycles) &&
           (!cur.expect(",\"sv\":") || cur.i64(seg.service, 0)) &&
           (!cur.expect(",\"q\":") || cur.i64(seg.queue, 0)) &&
           cur.expect("}");
}

bool
parseSpanLine(std::string_view line, SpanRow &row)
{
    JsonCursor cur(line);
    return cur.expect("{\"span\":") && cur.u64(row.id) &&
           cur.expect(",\"tn\":") && cur.u32(row.tenant) &&
           cur.expect(",\"t\":") && cur.u32(row.thread) &&
           cur.expect(",\"segs_n\":") && cur.u32(row.segments) &&
           cur.expect(",\"seed\":") && cur.u64(row.seed) &&
           cur.expect(",\"issued\":") && cur.u64(row.issued) &&
           cur.expect(",\"started\":") && cur.u64(row.started) &&
           cur.expect(",\"completed\":") && cur.u64(row.completed) &&
           cur.expect(",\"lat\":") && cur.u64(row.latency) &&
           cur.expect(",\"segs\":") && cur.list([&] {
               SpanSegRow seg;
               if (!parseSegObject(cur, seg))
                   return false;
               row.segs.push_back(std::move(seg));
               return true;
           }) &&
           cur.expect("}") && cur.atEnd();
}

SpansFile
failParse(std::string error)
{
    SpansFile file;
    file.ok = false;
    file.error = std::move(error);
    return file;
}

} // namespace

std::ptrdiff_t
SpansFile::phaseIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (phases[i].name == name)
            return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
}

SpansFile
parseSpansDocument(const std::string &text)
{
    SpansFile file;
    JsonlLines lines(text);
    std::string_view line;
    bool have_meta = false;
    while (lines.next(line)) {
        if (line.empty())
            continue;
        const auto fail = [&](const char *what) {
            return failParse("line " + std::to_string(lines.lineNumber()) +
                             ": " + what);
        };
        if (!have_meta) {
            if (!parseMetaLine(line, file))
                return failParse("line 1: malformed meta line");
            have_meta = true;
            continue;
        }
        if (line.substr(0, 9) == "{\"phase\":") {
            SpanPhaseRow row;
            if (!parsePhaseLine(line, row))
                return fail("malformed phase row");
            // Phase rows precede exemplars in the writer's layout.
            if (!file.exemplars.empty())
                return fail("phase row after exemplar rows");
            file.phases.push_back(std::move(row));
            continue;
        }
        SpanRow row;
        if (!parseSpanLine(line, row))
            return fail("malformed span row");
        file.exemplars.push_back(std::move(row));
    }
    if (!have_meta)
        return failParse("empty document");
    file.ok = true;
    return file;
}

SpansFile
loadSpansFile(const std::string &path)
{
    std::string text;
    std::string error;
    if (!readTextFile(path, text, error))
        return failParse(error);
    return parseSpansDocument(text);
}

std::vector<std::string>
validateSpansFile(const SpansFile &file)
{
    std::vector<std::string> problems;
    if (!file.ok) {
        problems.push_back("parse failed: " + file.error);
        return problems;
    }
    if (file.schema != kSpansSchema) {
        problems.push_back("schema is '" + file.schema + "', expected '" +
                           std::string(kSpansSchema) + "'");
    }

    // Meta catalogue must be the canonical phase list in order.
    if (file.catalogue.size() != kNumSpanPhases) {
        problems.push_back("phase catalogue has " +
                           std::to_string(file.catalogue.size()) +
                           " entries, expected " +
                           std::to_string(kNumSpanPhases));
    } else {
        for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
            const char *want = spanPhaseName(static_cast<SpanPhase>(p));
            if (file.catalogue[p] != want) {
                problems.push_back("catalogue[" + std::to_string(p) +
                                   "] is '" + file.catalogue[p] +
                                   "', expected '" + want + "'");
            }
        }
    }

    // Aggregate rows: "total" first, then one row per catalogue phase.
    if (file.phases.size() != kNumSpanPhases + 1) {
        problems.push_back(std::to_string(file.phases.size()) +
                           " phase rows, expected " +
                           std::to_string(kNumSpanPhases + 1));
        return problems; // Layout is broken; row checks would mislead.
    }
    if (file.phases.front().name != "total")
        problems.push_back("first phase row is not 'total'");
    std::uint64_t phase_sum = 0;
    for (std::size_t i = 0; i < file.phases.size(); ++i) {
        const SpanPhaseRow &row = file.phases[i];
        const std::string where = "phase '" + row.name + "': ";
        if (i > 0) {
            const char *want =
                spanPhaseName(static_cast<SpanPhase>(i - 1));
            if (row.name != want) {
                problems.push_back("phase row " + std::to_string(i) +
                                   " is '" + row.name +
                                   "', expected '" + want + "'");
            }
            phase_sum += row.sum;
        }
        if (row.count != file.spans) {
            problems.push_back(where + "count " +
                               std::to_string(row.count) +
                               " != spans " +
                               std::to_string(file.spans));
        }
        if (row.min > row.max)
            problems.push_back(where + "min > max");
        if (row.p50 > row.p95 || row.p95 > row.p99 ||
            row.p99 > row.p999 || row.p999 > row.max) {
            problems.push_back(where + "quantiles not monotone");
        }
        // The writer computes mean as sum/count in double; jsonNumber
        // round-trips, so the check is exact.
        const double want_mean =
            row.count ? static_cast<double>(row.sum) /
                            static_cast<double>(row.count)
                      : 0.0;
        if (row.mean != want_mean)
            problems.push_back(where + "mean != sum / count");
    }
    // Every cycle of every request belongs to exactly one phase, so
    // the per-phase sums reconstruct the end-to-end sum exactly
    // (modulo 2^64, matching the histograms' wrap-around arithmetic).
    if (phase_sum != file.phases.front().sum) {
        problems.push_back("per-phase sums " + std::to_string(phase_sum) +
                           " != total sum " +
                           std::to_string(file.phases.front().sum));
    }

    if (file.exemplars.size() > file.exemplarCapacity) {
        problems.push_back(std::to_string(file.exemplars.size()) +
                           " exemplars exceed capacity " +
                           std::to_string(file.exemplarCapacity));
    }
    if (file.spans >= file.exemplarCapacity &&
        file.exemplars.size() != file.exemplarCapacity) {
        problems.push_back("reservoir not full: " +
                           std::to_string(file.exemplars.size()) +
                           " exemplars from " +
                           std::to_string(file.spans) + " spans");
    }
    for (std::size_t i = 0; i < file.exemplars.size(); ++i) {
        const SpanRow &span = file.exemplars[i];
        const std::string where =
            "exemplar " + std::to_string(i) + " (span " +
            std::to_string(span.id) + "): ";
        if (i > 0) {
            const SpanRow &prev = file.exemplars[i - 1];
            const bool ordered =
                prev.latency != span.latency
                    ? prev.latency > span.latency
                    : (prev.seed != span.seed ? prev.seed < span.seed
                                              : prev.id < span.id);
            if (!ordered)
                problems.push_back(where + "not in slowest-first order");
        }
        if (span.issued > span.started || span.started > span.completed)
            problems.push_back(where + "timestamps not ordered");
        if (span.latency != span.completed - span.issued)
            problems.push_back(where + "lat != completed - issued");
        if (span.segs.empty()) {
            problems.push_back(where + "no segments");
            continue;
        }
        if (span.segs.front().phase != "dispatch_wait" ||
            span.segs.front().start != span.issued) {
            problems.push_back(where + "first segment is not the "
                                       "dispatch wait at the issue "
                                       "instant");
        }
        std::uint64_t cycle_sum = 0;
        for (std::size_t s = 0; s < span.segs.size(); ++s) {
            const SpanSegRow &seg = span.segs[s];
            bool known = false;
            for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
                if (seg.phase ==
                    spanPhaseName(static_cast<SpanPhase>(p))) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                problems.push_back(where + "unknown phase '" +
                                   seg.phase + "'");
            }
            if (s > 0 && seg.start < span.segs[s - 1].start)
                problems.push_back(where + "segments not in start order");
            if (seg.start < span.issued ||
                seg.start + seg.cycles > span.completed) {
                problems.push_back(where + "segment outside the span");
            }
            cycle_sum += seg.cycles;
        }
        // The segments tile the lifetime: phase attribution loses no
        // cycles and counts none twice.
        if (cycle_sum != span.latency) {
            problems.push_back(where + "segment cycles " +
                               std::to_string(cycle_sum) + " != lat " +
                               std::to_string(span.latency));
        }
    }
    return problems;
}

} // namespace oscar
