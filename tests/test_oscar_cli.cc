/**
 * @file
 * Exit-status tests for the example_oscar CLI: unreadable inputs and
 * malformed --tolerance / count arguments are errors (exit 2), never
 * silently read as empty traces, zero or "all within tolerance".
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/span.hh"
#include "system/metrics_capture.hh"
#include "system/span_capture.hh"

#ifndef OSCAR_CLI
#error "OSCAR_CLI must point at the example_oscar binary"
#endif

namespace oscar
{
namespace
{

/** Run `example_oscar ARGS` quietly; its exit status, or -1. */
int
runCli(const std::string &args)
{
    const std::string command =
        std::string(OSCAR_CLI) + " " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** A one-counter metrics file whose only sample reads `value`. */
std::string
metricsFile(const std::string &name, std::uint64_t value)
{
    MetricRegistry registry;
    registry.counterFn("a", [value] { return value; });
    registry.takeSample(10, 10);
    const std::string path = testing::TempDir() + name;
    EXPECT_TRUE(writeMetricsFile(registry, SystemConfig{}, path));
    return path;
}

/** A valid spans file with no recorded spans. */
std::string
spansFile(const std::string &name)
{
    SpanRecorder recorder;
    const std::string path = testing::TempDir() + name;
    EXPECT_TRUE(writeSpansFile(recorder.results(), SystemConfig{}, path));
    return path;
}

TEST(OscarCli, TraceDiffOfUnreadableFileExitsTwo)
{
    // An unreadable trace is an error, never an empty trace: two
    // missing files must not diff as "identical".
    std::string text;
    std::string error;
    EXPECT_FALSE(readTextFile("/nonexistent/a", text, error));
    EXPECT_EQ(runCli("trace diff /nonexistent/a /nonexistent/b"), 2);
}

TEST(OscarCli, MalformedToleranceIsAUsageError)
{
    const std::string left = metricsFile("cli_left.jsonl", 1);
    const std::string right = metricsFile("cli_right.jsonl", 2);
    const std::string spans = spansFile("cli_spans_diff.jsonl");
    const std::string metrics_diff = "metrics diff " + left + " " + right;
    const std::string spans_diff = "spans diff " + spans + " " + spans;
    // Controls: the metrics files differ, so an exact diff fails and a
    // loose one passes; a spans file matches itself.
    EXPECT_EQ(runCli(metrics_diff), 1);
    EXPECT_EQ(runCli(metrics_diff + " --tolerance 0.6"), 0);
    EXPECT_EQ(runCli(spans_diff + " --tolerance 0.6"), 0);
    for (const char *bad : {"nan", "inf", "abc", "0.1x", "-0.5", ""}) {
        const std::string flag = std::string(" --tolerance '") + bad + "'";
        EXPECT_EQ(runCli(metrics_diff + flag), 2) << bad;
        EXPECT_EQ(runCli(spans_diff + flag), 2) << bad;
    }
    EXPECT_EQ(runCli(metrics_diff + " --tolerance"), 2);
    std::remove(left.c_str());
    std::remove(right.c_str());
    std::remove(spans.c_str());
}

TEST(OscarCli, MalformedTopCountIsAUsageError)
{
    const std::string path = spansFile("cli_spans_top.jsonl");
    EXPECT_EQ(runCli("spans top " + path + " 1"), 0);
    for (const char *bad : {"x", "3x", "-1", "+1", ""})
        EXPECT_EQ(runCli("spans top " + path + " '" + bad + "'"), 2)
            << bad;
    std::remove(path.c_str());
}

} // namespace
} // namespace oscar
