/**
 * @file
 * Accuracy accounting for the run-length predictor.
 *
 * Tracks the two accuracy views the paper reports:
 *  - value accuracy: exact predictions and predictions within ±5 %
 *    (Section III-A quotes 73.6 % exact + 24.8 % within tolerance);
 *  - binary accuracy per trigger threshold N: was "predicted > N" the
 *    same as "actual > N"? (Figure 3).
 *
 * Register-window spill/fill traps can be excluded, matching the
 * paper's de-skewed figures.
 */

#ifndef OSCAR_CORE_PREDICTOR_STATS_HH_
#define OSCAR_CORE_PREDICTOR_STATS_HH_

#include <cstdint>
#include <vector>

#include "core/run_length_predictor.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace oscar
{

/**
 * Accumulates prediction outcomes.
 */
class PredictorStats
{
  public:
    /** The Figure 3 threshold sweep, in instructions. */
    static const std::vector<InstCount> &defaultThresholds();

    /**
     * @param thresholds Ns for binary accuracy tracking.
     * @param exclude_window_traps Skip spill/fill outcomes entirely.
     */
    explicit PredictorStats(
        std::vector<InstCount> thresholds = defaultThresholds(),
        bool exclude_window_traps = true);

    /**
     * Record one completed invocation.
     *
     * @param prediction What the predictor said beforehand.
     * @param actual Observed run length (with interrupt extension).
     * @param is_window_trap True for spill/fill traps.
     * @return True when the outcome was counted, false when the
     *         window-trap exclusion skipped it.
     */
    bool record(const RunLengthPrediction &prediction, InstCount actual,
                bool is_window_trap);

    /** Invocations counted. */
    std::uint64_t samples() const { return total; }

    /** Fraction predicted exactly. */
    double exactRate() const;

    /** Fraction within ±5 % but not exact. */
    double withinToleranceRate() const;

    /** Fraction neither exact nor within tolerance. */
    double missRate() const;

    /** Fraction of predictions served by the global fallback. */
    double globalFallbackRate() const;

    /**
     * Fraction of underestimating mispredictions among all
     * out-of-tolerance predictions (the paper observes mispredictions
     * "tend to underestimate OS run-lengths").
     */
    double underestimateShare() const;

    /** Thresholds tracked for binary accuracy. */
    const std::vector<InstCount> &thresholds() const { return ns; }

    /** Binary accuracy for the i-th tracked threshold. */
    double binaryAccuracy(std::size_t i) const;

    /** Binary accuracy for a specific N (must be tracked). */
    double binaryAccuracyFor(InstCount n) const;

    /** Reset all counters. */
    void reset();

    /**
     * Fold another tracker into this one (used to aggregate per-core
     * predictors); both must track the same thresholds.
     */
    void merge(const PredictorStats &other);

  private:
    std::vector<InstCount> ns;
    std::vector<RatioStat> binary;
    bool excludeWindowTraps;
    std::uint64_t total = 0;
    std::uint64_t exact = 0;
    std::uint64_t within = 0;
    std::uint64_t fromGlobal = 0;
    std::uint64_t underestimates = 0;
    std::uint64_t overestimates = 0;
};

} // namespace oscar

#endif // OSCAR_CORE_PREDICTOR_STATS_HH_
