/**
 * @file
 * Workload population and generator tests: the 57-application table,
 * suite membership, generator determinism and statistical targets, and
 * the attack generators' address patterns.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/workload/attack_registry.hh"
#include "src/workload/benign.hh"

namespace dapper {
namespace {

TEST(WorkloadTable, PopulationMatchesPaper)
{
    EXPECT_EQ(workloadTable().size(), 57u);
    EXPECT_EQ(workloadsInSuite("SPEC2K6").size(), 23u);
    EXPECT_EQ(workloadsInSuite("SPEC2K17").size(), 18u);
    EXPECT_EQ(workloadsInSuite("TPC").size(), 4u);
    EXPECT_EQ(workloadsInSuite("Hadoop").size(), 3u);
    EXPECT_EQ(workloadsInSuite("MediaBench").size(), 3u);
    EXPECT_EQ(workloadsInSuite("YCSB").size(), 6u);
    EXPECT_EQ(workloadsInSuite("All").size(), 57u);
}

TEST(WorkloadTable, NamesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const auto &w : workloadTable()) {
        EXPECT_TRUE(names.insert(w.name).second) << w.name;
        EXPECT_EQ(findWorkload(w.name).name, w.name);
    }
    EXPECT_THROW(findWorkload("no-such-benchmark"), std::invalid_argument);
}

TEST(WorkloadTable, MemoryIntensiveOutliersPresent)
{
    // The paper's attack-sensitive workloads must be high-RBMPKI.
    EXPECT_GT(findWorkload("429.mcf").rbmpki(), 10.0);
    EXPECT_GT(findWorkload("510.parest").rbmpki(), 10.0);
    EXPECT_LT(findWorkload("456.hmmer").rbmpki(), 2.0);
    EXPECT_LT(findWorkload("511.povray").rbmpki(), 2.0);
}

TEST(WorkloadTable, RepresentativeSubsetSpansSuites)
{
    const auto reps = representativeWorkloads();
    std::set<std::string> suites;
    for (const auto &name : reps)
        suites.insert(findWorkload(name).suite);
    EXPECT_EQ(suites.size(), 6u);
}

TEST(BenignGenerator, DeterministicPerSeed)
{
    SysConfig cfg;
    BenignGen a(findWorkload("429.mcf"), cfg, 0, 42);
    BenignGen b(findWorkload("429.mcf"), cfg, 0, 42);
    BenignGen c(findWorkload("429.mcf"), cfg, 0, 43);
    bool anyDiff = false;
    for (int i = 0; i < 1000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        const TraceRecord rc = c.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
        anyDiff = anyDiff || ra.addr != rc.addr;
    }
    EXPECT_TRUE(anyDiff);
}

TEST(BenignGenerator, BubblesMatchMpki)
{
    SysConfig cfg;
    BenignGen gen(findWorkload("429.mcf"), cfg, 0, 1);
    // mcf: 55 MPKI => ~17 bubbles per access.
    const TraceRecord rec = gen.next();
    EXPECT_NEAR(rec.bubbles, 1000.0 / 55.0 - 1.0, 1.0);
}

TEST(BenignGenerator, WriteFractionApproximatelyMet)
{
    SysConfig cfg;
    const WorkloadParams &params = findWorkload("470.lbm"); // 45% writes.
    BenignGen gen(params, cfg, 0, 1);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += gen.next().isWrite ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / n, params.writeFrac, 0.02);
}

TEST(BenignGenerator, AddressesStayInBounds)
{
    SysConfig cfg;
    BenignGen gen(findWorkload("ycsb-a"), cfg, 3, 9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(gen.next().addr, cfg.totalBytes());
}

TEST(BenignGenerator, CoresUseDisjointSlices)
{
    SysConfig cfg;
    BenignGen g0(findWorkload("456.hmmer"), cfg, 0, 1);
    BenignGen g1(findWorkload("456.hmmer"), cfg, 1, 1);
    std::set<std::uint64_t> a0;
    std::set<std::uint64_t> a1;
    for (int i = 0; i < 3000; ++i) {
        a0.insert(g0.next().addr >> 6);
        a1.insert(g1.next().addr >> 6);
    }
    int shared = 0;
    for (std::uint64_t line : a0)
        shared += a1.count(line) ? 1 : 0;
    EXPECT_LT(shared, 20);
}

class AttackPatternTest : public ::testing::Test
{
  protected:
    AttackPatternTest() : mapper_(cfg_) {}

    std::unique_ptr<TraceGen>
    make(const char *attack) const
    {
        return AttackRegistry::instance().at(attack).make(cfg_, mapper_, 1);
    }

    SysConfig cfg_;
    AddressMapper mapper_{cfg_};
};

TEST_F(AttackPatternTest, HydraRccTargetsOneRccSet)
{
    auto gen = make("hydra-rcc");
    std::set<int> rowsMod128;
    std::set<int> banks;
    for (int i = 0; i < 256; ++i) {
        const DramAddress d = mapper_.decode(gen->next().addr);
        rowsMod128.insert(d.row % 128);
        banks.insert(d.bank);
    }
    EXPECT_EQ(rowsMod128.size(), 1u); // All conflict in one RCC set.
    EXPECT_EQ(banks.size(), 32u);     // Spread across banks.
}

TEST_F(AttackPatternTest, StreamingCoversManyRows)
{
    auto gen = make("streaming");
    std::set<std::uint64_t> rows;
    for (int i = 0; i < 50000; ++i) {
        const TraceRecord rec = gen->next();
        EXPECT_TRUE(rec.bypassLlc);
        const DramAddress d = mapper_.decode(rec.addr);
        rows.insert((static_cast<std::uint64_t>(d.channel) << 40) |
                    (static_cast<std::uint64_t>(d.rank) << 32) |
                    (static_cast<std::uint64_t>(d.bank) << 24) |
                    static_cast<std::uint64_t>(d.row));
    }
    EXPECT_EQ(rows.size(), 50000u); // Never repeats within the sweep.
}

TEST_F(AttackPatternTest, CometRatCyclesExactly192Rows)
{
    auto gen = make("comet-rat");
    std::set<std::uint64_t> unique;
    for (int i = 0; i < 2000; ++i) {
        const DramAddress d = mapper_.decode(gen->next().addr);
        unique.insert((static_cast<std::uint64_t>(d.channel) << 40) |
                      (static_cast<std::uint64_t>(d.bank) << 24) |
                      static_cast<std::uint64_t>(d.row));
    }
    EXPECT_EQ(unique.size(), 2u * 192u); // 192 rows per channel.
}

TEST_F(AttackPatternTest, RefreshAttackAlternatesTwoRowsPerBank)
{
    auto gen = make("refresh");
    std::map<int, std::set<int>> rowsPerBank;
    for (int i = 0; i < 4096; ++i) {
        const DramAddress d = mapper_.decode(gen->next().addr);
        if (d.channel == 0 && d.rank == 0)
            rowsPerBank[d.bank].insert(d.row);
    }
    EXPECT_EQ(rowsPerBank.size(), 8u); // 8 banks per rank.
    for (const auto &[bank, rows] : rowsPerBank)
        EXPECT_EQ(rows.size(), 2u); // Two alternating rows each.
}

TEST_F(AttackPatternTest, CacheThrashStaysCached)
{
    auto gen = make("cache-thrash");
    std::set<std::uint64_t> lines;
    for (int i = 0; i < 100000; ++i) {
        const TraceRecord rec = gen->next();
        EXPECT_FALSE(rec.bypassLlc);
        lines.insert(rec.addr >> 6);
    }
    // Sweeps a 4x-LLC-sized region: every access within the first sweep
    // touches a fresh line.
    const std::uint64_t sweep = 4 * cfg_.llcBytes / 64;
    EXPECT_EQ(lines.size(), std::min<std::uint64_t>(100000, sweep));
}

TEST_F(AttackPatternTest, EveryAttackButNoneBuilds)
{
    for (const AttackInfo *info : AttackRegistry::instance().entries()) {
        EXPECT_FALSE(info->name.empty());
        EXPECT_EQ(make(info->name.c_str()) == nullptr, info->isNone())
            << info->name;
    }
}

} // namespace
} // namespace dapper
