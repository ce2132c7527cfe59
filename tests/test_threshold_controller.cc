/**
 * @file
 * Unit tests for the dynamic-N threshold controller (Section III-B).
 */

#include <gtest/gtest.h>

#include "core/threshold_controller.hh"

namespace oscar
{
namespace
{

ThresholdConfig
testConfig()
{
    ThresholdConfig cfg;
    cfg.ladder = {0, 100, 1000, 10000};
    cfg.sampleEpoch = 100;
    cfg.runEpoch = 400;
    cfg.maxRunEpoch = 1600;
    cfg.epochScale = 1.0;
    return cfg;
}

TEST(ThresholdController, InitialNFollowsPrivFraction)
{
    ThresholdController high(testConfig());
    high.begin(0.5); // > 10% privileged -> N = 1000
    EXPECT_EQ(high.currentThreshold(), 1000u);

    ThresholdController low(testConfig());
    low.begin(0.02); // <= 10% -> N = 10000
    EXPECT_EQ(low.currentThreshold(), 10000u);
}

TEST(ThresholdController, BoundaryIsStrict)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.10); // exactly 10% is NOT "more than 10%"
    EXPECT_EQ(ctrl.currentThreshold(), 10000u);
}

TEST(ThresholdController, SamplingVisitsNeighbours)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleCurrent);
    EXPECT_EQ(ctrl.currentThreshold(), 1000u);
    ctrl.onEpochEnd(0.80);
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleLower);
    EXPECT_EQ(ctrl.currentThreshold(), 100u);
    ctrl.onEpochEnd(0.80);
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleUpper);
    EXPECT_EQ(ctrl.currentThreshold(), 10000u);
    ctrl.onEpochEnd(0.80);
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
}

TEST(ThresholdController, KeepsIncumbentWithoutClearWinner)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    ctrl.onEpochEnd(0.80); // current
    ctrl.onEpochEnd(0.805); // lower: only +0.5%, below the 1% delta
    ctrl.onEpochEnd(0.805); // upper: same
    EXPECT_EQ(ctrl.currentThreshold(), 1000u);
    EXPECT_EQ(ctrl.switches(), 0u);
}

TEST(ThresholdController, SwitchesToClearlyBetterNeighbour)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    ctrl.onEpochEnd(0.80); // current (1000)
    ctrl.onEpochEnd(0.85); // lower (100): +5% -> winner
    ctrl.onEpochEnd(0.70); // upper (10000)
    EXPECT_EQ(ctrl.currentThreshold(), 100u);
    EXPECT_EQ(ctrl.switches(), 1u);
}

TEST(ThresholdController, RelativeRuleSwitchesOnlyPastOnePercent)
{
    // System's default WindowIpc feedback compares rates relatively:
    // a neighbour must beat the incumbent's rate by 1 % of it. At an
    // incumbent of 2.0 the additive rule (+0.01) would take both
    // neighbours below; the relative rule keeps +0.9 % and takes
    // +1.1 %.
    ThresholdConfig cfg = testConfig();
    cfg.relativeImprovement = true;

    ThresholdController stays(cfg);
    stays.begin(0.5);
    stays.onEpochEnd(2.0);   // current (1000)
    stays.onEpochEnd(2.018); // lower (100): +0.9 %
    stays.onEpochEnd(1.5);   // upper (10000)
    EXPECT_EQ(stays.currentThreshold(), 1000u);
    EXPECT_EQ(stays.switches(), 0u);

    ThresholdController switches(cfg);
    switches.begin(0.5);
    switches.onEpochEnd(2.0);   // current (1000)
    switches.onEpochEnd(2.022); // lower (100): +1.1 %
    switches.onEpochEnd(1.5);   // upper (10000)
    EXPECT_EQ(switches.currentThreshold(), 100u);
    EXPECT_EQ(switches.switches(), 1u);
}

TEST(ThresholdController, UpperCanWinToo)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.70);
    ctrl.onEpochEnd(0.90);
    EXPECT_EQ(ctrl.currentThreshold(), 10000u);
}

TEST(ThresholdController, RunLengthDoublesWhileStable)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    // Round 1: incumbent confirmed.
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.70);
    ctrl.onEpochEnd(0.70);
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
    EXPECT_EQ(ctrl.epochLength(), 800u); // doubled from 400
    // End of run -> sample again; confirm again.
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.70);
    ctrl.onEpochEnd(0.70);
    EXPECT_EQ(ctrl.epochLength(), 1600u); // doubled again, capped
    // One more confirmation: stays at the cap.
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.70);
    ctrl.onEpochEnd(0.70);
    EXPECT_EQ(ctrl.epochLength(), 1600u);
}

TEST(ThresholdController, RunLengthResetsOnSwitch)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    // Confirm once (run doubles to 800).
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.70);
    ctrl.onEpochEnd(0.70);
    EXPECT_EQ(ctrl.epochLength(), 800u);
    // Next round: lower wins -> run resets to base.
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.80);
    ctrl.onEpochEnd(0.95);
    ctrl.onEpochEnd(0.70);
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
    EXPECT_EQ(ctrl.epochLength(), 400u);
}

TEST(ThresholdController, LadderEdgesSkipMissingNeighbours)
{
    ThresholdConfig cfg = testConfig();
    ThresholdController ctrl(cfg);
    ctrl.begin(0.02); // starts at 10000, the top of the ladder
    ctrl.onEpochEnd(0.80); // current
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleLower);
    ctrl.onEpochEnd(0.95); // lower (1000) wins
    // No upper neighbour: round concludes immediately.
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
    EXPECT_EQ(ctrl.currentThreshold(), 1000u);
}

TEST(ThresholdController, DrivenToBottomOfLadderStaysInBounds)
{
    // Regression: currentThreshold() indexes ladder[currentIndex - 1]
    // in SampleLower; drive the controller all the way down and keep
    // sampling rounds going at index 0 to confirm no underflow.
    ThresholdConfig cfg = testConfig(); // ladder {0, 100, 1000, 10000}
    ThresholdController ctrl(cfg);
    ctrl.begin(0.5); // starts at 1000 (index 2)

    auto ladder_holds = [&](InstCount n) {
        for (InstCount rung : cfg.ladder) {
            if (rung == n)
                return true;
        }
        return false;
    };

    // Each round: lower always wins by a wide margin.
    for (int round = 0; round < 6; ++round) {
        EXPECT_EQ(ctrl.phase(),
                  ThresholdController::Phase::SampleCurrent);
        EXPECT_TRUE(ladder_holds(ctrl.currentThreshold()));
        ctrl.onEpochEnd(0.50); // incumbent sample
        if (ctrl.phase() == ThresholdController::Phase::SampleLower) {
            EXPECT_TRUE(ladder_holds(ctrl.currentThreshold()));
            ctrl.onEpochEnd(0.95); // lower wins
        }
        if (ctrl.phase() == ThresholdController::Phase::SampleUpper) {
            EXPECT_TRUE(ladder_holds(ctrl.currentThreshold()));
            ctrl.onEpochEnd(0.10); // upper loses
        }
        EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
        EXPECT_TRUE(ladder_holds(ctrl.currentThreshold()));
        ctrl.onEpochEnd(0.50); // run epoch ends -> next round
    }
    // Converged to the ladder bottom and stayed there.
    EXPECT_EQ(ctrl.currentThreshold(), 0u);
}

TEST(ThresholdController, DrivenToTopOfLadderStaysInBounds)
{
    ThresholdConfig cfg = testConfig();
    ThresholdController ctrl(cfg);
    ctrl.begin(0.5); // starts at 1000 (index 2); top is 10000

    for (int round = 0; round < 6; ++round) {
        ctrl.onEpochEnd(0.50); // incumbent sample
        if (ctrl.phase() == ThresholdController::Phase::SampleLower)
            ctrl.onEpochEnd(0.10); // lower loses
        if (ctrl.phase() == ThresholdController::Phase::SampleUpper)
            ctrl.onEpochEnd(0.95); // upper wins
        EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
        EXPECT_LE(ctrl.currentThreshold(), cfg.ladder.back());
        ctrl.onEpochEnd(0.50);
    }
    EXPECT_EQ(ctrl.currentThreshold(), cfg.ladder.back());
}

TEST(ThresholdController, SingleRungLadderNeverSamplesNeighbours)
{
    ThresholdConfig cfg = testConfig();
    cfg.ladder = {500};
    ThresholdController ctrl(cfg);
    ctrl.begin(0.5);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(ctrl.currentThreshold(), 500u);
        EXPECT_TRUE(ctrl.phase() ==
                        ThresholdController::Phase::SampleCurrent ||
                    ctrl.phase() == ThresholdController::Phase::Run);
        ctrl.onEpochEnd(0.80);
    }
    EXPECT_EQ(ctrl.switches(), 0u);
}

TEST(ThresholdController, RebeginResetsSamplingState)
{
    // begin() mid-round must not leave stale neighbour flags that a
    // later round at a ladder edge could trip over.
    ThresholdConfig cfg = testConfig();
    ThresholdController ctrl(cfg);
    ctrl.begin(0.5); // index 2
    ctrl.onEpochEnd(0.80); // -> SampleLower (flags set for index 2)
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleLower);

    ctrl.begin(0.02); // restart at the top rung (10000)
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleCurrent);
    EXPECT_EQ(ctrl.currentThreshold(), 10000u);
    ctrl.onEpochEnd(0.80);
    // Top rung: only a lower neighbour to sample.
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::SampleLower);
    EXPECT_EQ(ctrl.currentThreshold(), 1000u);
    ctrl.onEpochEnd(0.10); // lower loses; round concludes in bounds
    EXPECT_EQ(ctrl.phase(), ThresholdController::Phase::Run);
    EXPECT_EQ(ctrl.currentThreshold(), 10000u);
}

TEST(ThresholdController, EpochScaleShrinksEpochs)
{
    ThresholdConfig cfg = testConfig();
    cfg.epochScale = 0.5;
    ThresholdController ctrl(cfg);
    ctrl.begin(0.5);
    EXPECT_EQ(ctrl.epochLength(), 50u); // half of sampleEpoch
}

TEST(ThresholdController, RoundsAreCounted)
{
    ThresholdController ctrl(testConfig());
    ctrl.begin(0.5);
    EXPECT_EQ(ctrl.rounds(), 0u);
    ctrl.onEpochEnd(0.8);
    ctrl.onEpochEnd(0.7);
    ctrl.onEpochEnd(0.7);
    EXPECT_EQ(ctrl.rounds(), 1u);
}

TEST(ThresholdControllerDeath, BadLadderRejected)
{
    ThresholdConfig cfg = testConfig();
    cfg.ladder = {100, 100};
    EXPECT_EXIT(ThresholdController ctrl(cfg),
                ::testing::ExitedWithCode(1), "");
    cfg.ladder = {};
    EXPECT_EXIT(ThresholdController ctrl2(cfg),
                ::testing::ExitedWithCode(1), "");
}

TEST(ThresholdControllerDeath, EpochLengthBeforeBeginPanics)
{
    ThresholdController ctrl(testConfig());
    EXPECT_DEATH((void)ctrl.epochLength(), "");
}

TEST(ThresholdController, PhaseNames)
{
    EXPECT_EQ(ThresholdController::phaseName(
                  ThresholdController::Phase::Run),
              "run");
    EXPECT_EQ(ThresholdController::phaseName(
                  ThresholdController::Phase::SampleLower),
              "sample-lower");
}

} // namespace
} // namespace oscar
