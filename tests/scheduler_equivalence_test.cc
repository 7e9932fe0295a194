/**
 * @file
 * Event-driven scheduler equivalence: System::run (next-event time
 * advance) must produce bit-identical RunResult stats to the
 * tick-by-tick reference loop (System::runReference) on the same seed —
 * including the *entire* exported stat dict (every component counter
 * and every tREFI probe series point), not just the typed RunResult
 * fields. This is the contract that lets every experiment and test run
 * on the fast engine — any divergence here is a scheduler bug, not
 * noise.
 *
 * Coverage: trackers with counter traffic (Hydra), LLC way reservation
 * (START), mitigation bursts (DAPPER-H), plus the unprotected system,
 * against no attack, a streaming attack, and a refresh-exploiting
 * attack.
 */

#include <gtest/gtest.h>

#include "src/sim/experiment.hh"

namespace dapper {
namespace {

SysConfig
smallCfg()
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 32.0;
    return cfg;
}

void
expectIdentical(const RunResult &event, const RunResult &tick)
{
    ASSERT_EQ(event.coreIpc.size(), tick.coreIpc.size());
    for (std::size_t i = 0; i < event.coreIpc.size(); ++i)
        EXPECT_EQ(event.coreIpc[i], tick.coreIpc[i]) << "core " << i;
    EXPECT_EQ(event.benignIpcMean, tick.benignIpcMean);
    EXPECT_EQ(event.mitigations, tick.mitigations);
    EXPECT_EQ(event.bulkResets, tick.bulkResets);
    EXPECT_EQ(event.counterTraffic, tick.counterTraffic);
    EXPECT_EQ(event.activations, tick.activations);
    EXPECT_EQ(event.maxDamage, tick.maxDamage);
    EXPECT_EQ(event.rhViolations, tick.rhViolations);
    EXPECT_EQ(event.energyNj, tick.energyNj);

    // The full exported telemetry — every component counter and every
    // probe series point — must be bit-identical too, not just the
    // typed convenience fields above. Layout equality first (names in
    // the same order), then values, so a divergence names the exact
    // stat that broke.
    ASSERT_EQ(event.stats.size(), tick.stats.size());
    for (std::size_t i = 0; i < event.stats.entries().size(); ++i) {
        const StatEntry &e = event.stats.entries()[i];
        const StatEntry &t = tick.stats.entries()[i];
        ASSERT_EQ(e.name, t.name) << "stat layout diverged at " << i;
        EXPECT_TRUE(e == t) << "stat " << e.name << ": event "
                            << e.asDouble() << " vs tick "
                            << t.asDouble();
    }
    ASSERT_EQ(event.stats.series().size(), tick.stats.series().size());
    for (std::size_t i = 0; i < event.stats.series().size(); ++i) {
        const StatSeries &e = event.stats.series()[i];
        const StatSeries &t = tick.stats.series()[i];
        ASSERT_EQ(e.name, t.name) << "series layout diverged at " << i;
        EXPECT_TRUE(e == t) << "series " << e.name << " diverged";
    }
    EXPECT_TRUE(event.stats == tick.stats);
}

class SchedulerEquivalence
    : public ::testing::TestWithParam<std::pair<const char *, const char *>>
{
};

TEST_P(SchedulerEquivalence, EventMatchesTickExactly)
{
    const auto [tracker, attack] = GetParam();
    const SysConfig cfg = smallCfg();
    const Tick horizon = 300000;

    const RunResult event = runOnce(cfg, "429.mcf", attack, tracker,
                                    horizon, Engine::Event);
    const RunResult tick = runOnce(cfg, "429.mcf", attack, tracker,
                                   horizon, Engine::Tick);
    expectIdentical(event, tick);
}

INSTANTIATE_TEST_SUITE_P(
    TrackersAndAttacks, SchedulerEquivalence,
    ::testing::Values(
        std::make_pair("none", "none"),
        std::make_pair("none", "refresh"),
        std::make_pair("hydra", "none"),
        std::make_pair("hydra", "hydra-rcc"),
        std::make_pair("start", "streaming"),
        std::make_pair("start", "start-stream"),
        std::make_pair("dapper-h", "streaming"),
        std::make_pair("dapper-h", "refresh"),
        // Paths that stress the issue memo / wake plumbing hardest:
        // activation throttling, probabilistic mitigation bursts, PRAC
        // ABO channel stalls, and bulk structure resets.
        std::make_pair("blockhammer", "none"),
        std::make_pair("para", "refresh"),
        std::make_pair("prac", "refresh"),
        std::make_pair("abacus", "abacus-spill")));

/** A compute-bound workload exercises the always-busy core fast path. */
TEST(SchedulerEquivalenceComputeBound, EventMatchesTickExactly)
{
    const SysConfig cfg = smallCfg();
    const RunResult event = runOnce(cfg, "456.hmmer", "none", "dapper-s",
                                    200000, Engine::Event);
    const RunResult tick = runOnce(cfg, "456.hmmer", "none", "dapper-s",
                                   200000, Engine::Tick);
    expectIdentical(event, tick);
}

/** Ultra-low threshold: dense throttling / mitigation blocking. */
TEST(SchedulerEquivalenceLowThreshold, EventMatchesTickExactly)
{
    SysConfig cfg = smallCfg();
    cfg.nRH = 125;
    const RunResult event = runOnce(cfg, "429.mcf", "none", "blockhammer",
                                    250000, Engine::Event);
    const RunResult tick = runOnce(cfg, "429.mcf", "none", "blockhammer",
                                   250000, Engine::Tick);
    expectIdentical(event, tick);
}

/** DTR trace replay must be engine-invariant like every generator: the
 *  checked-in GC trace under a tracked, attacked system. */
TEST(SchedulerEquivalenceTrace, TraceReplayMatchesAcrossEngines)
{
    const SysConfig cfg = smallCfg();
    const Tick horizon = 300000;
    const RunResult event =
        runOnce(cfg, "trace-gc", "streaming", "dapper-h", horizon,
                Engine::Event);
    const RunResult tick =
        runOnce(cfg, "trace-gc", "streaming", "dapper-h", horizon,
                Engine::Tick);
    expectIdentical(event, tick);
}

/** Multi-program mixes (different trace per benign core + an attacker)
 *  must also be bit-identical across engines. */
TEST(SchedulerEquivalenceMultiprog, MixedTracesMatchAcrossEngines)
{
    const SysConfig cfg = smallCfg();
    const Tick horizon = 300000;
    const std::vector<std::string> mix = {"trace-stream", "trace-ptrchase",
                                          "trace-stencil"};
    const AttackInfo &attack =
        AttackRegistry::instance().at("cache-thrash");
    const TrackerInfo &tracker = TrackerRegistry::instance().at("hydra");
    const RunResult event =
        runOnce(cfg, mix, attack, tracker, horizon, Engine::Event);
    const RunResult tick =
        runOnce(cfg, mix, attack, tracker, horizon, Engine::Tick);
    expectIdentical(event, tick);
}

/** Longer horizon crossing a tREFW window boundary with mitigations. */
TEST(SchedulerEquivalenceWindow, EventMatchesTickAcrossWindows)
{
    SysConfig cfg = smallCfg();
    const Tick horizon = cfg.tREFW() + cfg.tREFW() / 4;
    const RunResult event = runOnce(cfg, "510.parest", "refresh", "comet",
                                    horizon, Engine::Event);
    const RunResult tick = runOnce(cfg, "510.parest", "refresh", "comet",
                                   horizon, Engine::Tick);
    expectIdentical(event, tick);
}

} // namespace
} // namespace dapper
