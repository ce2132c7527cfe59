/**
 * @file
 * Line-oriented trace comparison.
 *
 * Traces are JSONL documents whose byte identity is the regression
 * contract: a behavioural change anywhere in the decision pipeline
 * shows up as a first divergent line. TraceDiff locates that line and
 * packages it with surrounding context so a golden-trace test failure
 * reads like a story ("at cycle C, thread T decided differently")
 * instead of a binary mismatch.
 */

#ifndef OSCAR_SIM_TRACE_DIFF_HH_
#define OSCAR_SIM_TRACE_DIFF_HH_

#include <string>
#include <vector>

namespace oscar
{

/** Outcome of comparing two traces. */
struct TraceDiffReport
{
    /** True when both traces are line-for-line identical. */
    bool identical = false;

    /** 0-based index of the first differing line (when !identical). */
    std::size_t divergenceLine = 0;

    /** The divergent line of each side; empty when that side ended. */
    std::string left;
    std::string right;

    /** Up to the requested number of common lines before divergence. */
    std::vector<std::string> context;

    /** Total line counts of both inputs. */
    std::size_t leftLineCount = 0;
    std::size_t rightLineCount = 0;

    /** Human-readable multi-line report. */
    std::string format() const;
};

/** Split a trace document into lines (final newline optional). */
std::vector<std::string> splitTraceLines(const std::string &text);

/**
 * Compare two traces given as line vectors.
 *
 * @param context_lines Common lines retained before the divergence.
 */
TraceDiffReport diffTraceLines(const std::vector<std::string> &left,
                               const std::vector<std::string> &right,
                               unsigned context_lines = 3);

/** Compare two traces given as whole documents. */
TraceDiffReport diffTraceText(const std::string &left,
                              const std::string &right,
                              unsigned context_lines = 3);

} // namespace oscar

#endif // OSCAR_SIM_TRACE_DIFF_HH_
