/**
 * @file
 * Full-system integration tests: wiring, IPC sanity, attack impact,
 * tracker protection end to end, energy accounting, and the experiment
 * harness. Horizons are kept short (fractions of a scaled window) so the
 * suite stays fast; the bench binaries run the full-length experiments.
 */

#include <gtest/gtest.h>

#include "src/sim/runner.hh"

namespace dapper {
namespace {

SysConfig
fastCfg()
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 32.0;
    return cfg;
}

TEST(Integration, BaselineIpcIsSane)
{
    SysConfig cfg = fastCfg();
    const RunResult r = runOnce(cfg, "456.hmmer", "none", "none", 500000);
    // Compute-bound: IPC must approach the 4-wide limit.
    EXPECT_GT(r.benignIpcMean, 2.5);
    EXPECT_LE(r.benignIpcMean, 4.0);

    const RunResult m = runOnce(cfg, "429.mcf", "none", "none", 500000);
    EXPECT_GT(m.benignIpcMean, 0.1);
    EXPECT_LT(m.benignIpcMean, 1.5); // Memory-bound.
}

TEST(Integration, AttackerReducesBenignPerformance)
{
    SysConfig cfg = fastCfg();
    const RunResult base = runOnce(cfg, "429.mcf", "none", "none", 500000);
    const RunResult attacked =
        runOnce(cfg, "429.mcf", "refresh", "none", 500000);
    EXPECT_LT(attacked.benignIpcMean, base.benignIpcMean);
}

TEST(Integration, UnprotectedSystemAccumulatesDamage)
{
    SysConfig cfg = fastCfg();
    const RunResult r =
        runOnce(cfg, "456.hmmer", "refresh", "none", cfg.tREFW() / 2);
    // Half a window of hammering: ground truth shows deep damage.
    EXPECT_GT(r.maxDamage, static_cast<std::uint32_t>(cfg.nRH) / 2);
}

TEST(Integration, DapperHPreventsRowHammerUnderAttack)
{
    SysConfig cfg = fastCfg();
    const RunResult r =
        runOnce(cfg, "456.hmmer", "refresh", "dapper-h",
                cfg.tREFW() + cfg.tREFW() / 2);
    EXPECT_EQ(r.rhViolations, 0u);
    EXPECT_LT(r.maxDamage, static_cast<std::uint32_t>(cfg.nRH));
    EXPECT_GT(r.mitigations, 0u);
}

TEST(Integration, DapperHBitVectorNeutralizesStreaming)
{
    SysConfig cfg = fastCfg();
    const RunResult r =
        runOnce(cfg, "456.hmmer", "streaming", "dapper-h", cfg.tREFW());
    EXPECT_EQ(r.rhViolations, 0u);
    EXPECT_EQ(r.mitigations, 0u); // The filter absorbs the sweep.
}

TEST(Integration, HydraAttackGeneratesCounterTraffic)
{
    SysConfig cfg = fastCfg();
    const RunResult r =
        runOnce(cfg, "429.mcf", "hydra-rcc", "hydra", cfg.tREFW() / 2);
    EXPECT_GT(r.counterTraffic, 1000u);
}

TEST(Integration, CometAttackForcesBulkResets)
{
    SysConfig cfg = fastCfg();
    const RunResult r =
        runOnce(cfg, "429.mcf", "comet-rat", "comet", cfg.tREFW());
    EXPECT_GT(r.bulkResets, 0u);
}

TEST(Integration, StartReservesHalfTheLlc)
{
    SysConfig cfg = fastCfg();
    AddressMapper mapper(cfg);
    std::vector<std::unique_ptr<TraceGen>> gens;
    for (int i = 0; i < cfg.numCores; ++i)
        gens.push_back(std::make_unique<BenignGen>(
            findWorkload("429.mcf"), cfg, i, 7));
    System sys(cfg, TrackerRegistry::instance().at("start"), std::move(gens));
    EXPECT_EQ(sys.llc().reservedWays(), cfg.llcWays / 2);
    System plain(cfg, TrackerRegistry::instance().at("none"), [] {
        SysConfig c;
        c.timeScale = 32.0;
        std::vector<std::unique_ptr<TraceGen>> g;
        for (int i = 0; i < c.numCores; ++i)
            g.push_back(std::make_unique<BenignGen>(
                findWorkload("429.mcf"), c, i, 7));
        return g;
    }());
    EXPECT_EQ(plain.llc().reservedWays(), 0);
}

TEST(Integration, EnergyAccumulatesAndMitigationCostsShow)
{
    SysConfig cfg = fastCfg();
    const RunResult base =
        runOnce(cfg, "429.mcf", "none", "none", cfg.tREFW());
    const RunResult attacked =
        runOnce(cfg, "429.mcf", "refresh", "dapper-s", cfg.tREFW());
    EXPECT_GT(base.energyNj, 0.0);
    EXPECT_GT(attacked.energyNj, base.energyNj * 0.5);
    EXPECT_GT(attacked.mitigations, 0u);
}

TEST(Integration, RunnerBaselineConventions)
{
    Runner runner;
    const Scenario base = Scenario()
                              .config(fastCfg())
                              .workload("429.mcf")
                              .attack("refresh")
                              .horizon(400000);
    const double vsIdle =
        runner.normalized(Scenario(base).baseline(Baseline::NoAttack));
    EXPECT_LT(vsIdle, 1.0); // The attack itself costs bandwidth.
    const double vsAttack =
        runner.normalized(Scenario(base).baseline(Baseline::SameAttack));
    EXPECT_NEAR(vsAttack, 1.0, 1e-9); // Identical run by construction.
}

TEST(Integration, DeterministicAcrossRuns)
{
    SysConfig cfg = fastCfg();
    const RunResult a = runOnce(cfg, "ycsb-a", "refresh", "dapper-h", 300000);
    const RunResult b = runOnce(cfg, "ycsb-a", "refresh", "dapper-h", 300000);
    EXPECT_EQ(a.benignIpcMean, b.benignIpcMean);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.activations, b.activations);
}

TEST(Integration, EightChannelConfigRuns)
{
    SysConfig cfg = fastCfg();
    cfg.channels = 8;
    const RunResult r =
        runOnce(cfg, "429.mcf", "cache-thrash", "none", 300000);
    EXPECT_GT(r.benignIpcMean, 0.0);
}

TEST(Integration, DrfmVariantBlocksMoreThanVrr)
{
    SysConfig cfg = fastCfg();
    const RunResult vrr =
        runOnce(cfg, "429.mcf", "refresh", "dapper-h", cfg.tREFW());
    const RunResult drfm =
        runOnce(cfg, "429.mcf", "refresh", "dapper-h-drfmsb", cfg.tREFW());
    // Same-bank DRFM penalizes eight banks per mitigation: performance
    // can only be equal or worse.
    EXPECT_LE(drfm.benignIpcMean, vrr.benignIpcMean * 1.02);
}

} // namespace
} // namespace dapper
