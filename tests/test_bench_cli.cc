/**
 * @file
 * Flag-parsing tests for the bench binaries: malformed counts and
 * factors are usage errors, never silently read as 0, 1, NaN or a
 * wrapped huge number. perf_wallclock's exit statuses are checked by
 * running it (every case but the report-path one fails or exits
 * before any scenario runs);
 * BenchOptions, shared by the sweep benches, is parsed in-process
 * with oscar_fatal turned into a FatalError.
 */

#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/sweep.hh"

#ifndef OSCAR_PERF_WALLCLOCK
#error "OSCAR_PERF_WALLCLOCK must point at the perf_wallclock binary"
#endif

namespace oscar
{
namespace
{

/** Run `perf_wallclock ARGS` quietly; its exit status, or -1. */
int
runPerf(const std::string &args)
{
    const std::string command = std::string(OSCAR_PERF_WALLCLOCK) + " " +
                                args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(PerfWallclockCli, ValidFlagsParse)
{
    // Control: every flag below accepted, then --help exits 0 before
    // any scenario runs.
    EXPECT_EQ(runPerf("--reps 3 --warmup 0 --fail-over 2 "
                      "--only exec_hot,numa_tiny --help"),
              0);
    EXPECT_EQ(runPerf("--fail-over 0.5 --help"), 0);
}

TEST(PerfWallclockCli, UnknownScenarioIsAUsageError)
{
    EXPECT_EQ(runPerf("--only nosuch_scenario --fail-over abc"), 2);
    EXPECT_EQ(runPerf("--only nosuch_scenario"), 2);
    EXPECT_EQ(runPerf("--only exec_hot,nosuch_scenario --help"), 2);
}

TEST(PerfWallclockCli, FailOverMustBeAFiniteFactorAboveZero)
{
    for (const char *factor :
         {"abc", "nan", "inf", "0", "-1", "2x", "''"}) {
        EXPECT_EQ(runPerf(std::string("--fail-over ") + factor +
                          " --help"),
                  2)
            << factor;
    }
}

TEST(PerfWallclockCli, RepsAndWarmupMustBeWholeCounts)
{
    for (const char *flag : {"--reps", "--warmup"}) {
        for (const char *count : {"abc", "-1", "1x", "+1", "''", "1.5"}) {
            EXPECT_EQ(runPerf(std::string(flag) + " " + count + " --help"),
                      2)
                << flag << " " << count;
        }
        EXPECT_EQ(runPerf(std::string(flag) + " 4 --help"), 0) << flag;
    }
    EXPECT_EQ(runPerf("--reps"), 2);
}

TEST(PerfWallclockCli, NoReportWithoutJsonFlag)
{
    // A smoke run from the repository root must not replace the
    // committed BENCH_perf.json: without --json, nothing is written.
    char dir_template[] = "/tmp/oscar_perf_cwdXXXXXX";
    const char *dir = ::mkdtemp(dir_template);
    ASSERT_NE(dir, nullptr);
    const std::string command = std::string("cd ") + dir + " && " +
                                OSCAR_PERF_WALLCLOCK +
                                " --quick --only predictor_dm_hot"
                                " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    std::vector<std::string> left;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        left.push_back(entry.path().filename().string());
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(left.empty()) << "perf_wallclock wrote " << left.front();
}

BenchOptions
parse(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchOptions::parse(static_cast<int>(argv.size()), argv.data(),
                               "bench.sweep.json");
}

TEST(BenchOptions, JobsMustBeANonNegativeInteger)
{
    ScopedFatalThrows fatal_throws;
    EXPECT_EQ(parse({"--jobs", "0"}).jobs, 0u);
    EXPECT_EQ(parse({"--jobs", "3"}).jobs, 3u);
    for (const char *jobs :
         {"-1", "+2", " 2", "", "abc", "2x", "99999999999"}) {
        EXPECT_THROW(parse({"--jobs", jobs}), FatalError) << jobs;
    }
    EXPECT_EQ(parse({"--metrics-every", "0"}).metricsEvery, 0u);
    EXPECT_THROW(parse({"--metrics-every", "-5"}), FatalError);
}

} // namespace
} // namespace oscar
