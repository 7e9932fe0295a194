/**
 * @file
 * Remaining unit coverage: RNG, stats helpers, energy model, building
 * every registered tracker, Graphene, and the PrIDE/PARA command-variant
 * plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <unordered_map>

#include "src/common/cat_table.hh"
#include "src/common/flat_map.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/energy/energy_model.hh"
#include "src/rh/graphene.hh"
#include "src/rh/registry.hh"

namespace dapper {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(1);
    Rng b(1);
    Rng c(2);
    bool diff = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        diff = diff || va != c.next();
    }
    EXPECT_TRUE(diff);
}

TEST(Rng, BelowIsInRangeAndCoversIt)
{
    Rng rng(3);
    std::map<std::uint64_t, int> histogram;
    for (int i = 0; i < 10000; ++i)
        ++histogram[rng.below(7)];
    EXPECT_EQ(histogram.size(), 7u);
    for (const auto &[value, count] : histogram) {
        EXPECT_LT(value, 7u);
        EXPECT_GT(count, 1000); // Roughly uniform.
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 40000; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / 40000.0, 0.5, 0.01);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 40000; ++i)
        hits += rng.chance(0.125) ? 1 : 0;
    EXPECT_NEAR(hits / 40000.0, 0.125, 0.01);
}

// The LLC's MSHR table: randomized differential against
// std::unordered_map, exercising collision chains and backward-shift
// deletion at the table's occupancy bound.
TEST(FlatMap64, MatchesUnorderedMapUnderRandomOps)
{
    const std::size_t maxEntries = 64;
    FlatMap64<int> flat(maxEntries);
    std::unordered_map<std::uint64_t, int> ref;
    Rng rng(0xf1a7u);

    for (int op = 0; op < 200000; ++op) {
        // Small key space (and a clustered one) to force collisions.
        const std::uint64_t key = rng.chance(0.5)
                                      ? rng.below(96)
                                      : 0x1000 + rng.below(96) * 8192;
        const double dice = rng.uniform();
        if (dice < 0.45) {
            if (ref.count(key) == 0 && ref.size() < maxEntries) {
                flat.insert(key, static_cast<int>(op));
                ref.emplace(key, static_cast<int>(op));
            }
        } else if (dice < 0.75) {
            const bool erased = ref.erase(key) == 1;
            EXPECT_EQ(flat.erase(key), erased) << "op " << op;
        } else {
            int *v = flat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
            if (v != nullptr) {
                ASSERT_EQ(*v, it->second) << "op " << op;
            }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    // Every surviving key is still reachable.
    for (const auto &[key, value] : ref) {
        int *v = flat.find(key);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, value);
    }
}

// Graphene's per-bank CAT: randomized differential against a
// std::unordered_map count table over interleaved insert / increment /
// decrement-to-floor / evict / clear streams (the op mix
// GrapheneTracker::onActivation and onRefreshWindow generate). Victim
// *identity* is pinned separately by the tie-break oracle below; here
// every eviction is checked for Misra-Gries legality (the removed key
// was at or below the floor) and everything else for exact agreement.
TEST(CatTable, MatchesUnorderedMapUnderRandomOps)
{
    const std::size_t maxEntries = 32;
    CatTable cat(maxEntries);
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    Rng rng(0xca7u);
    std::uint32_t spill = 0;

    for (int op = 0; op < 100000; ++op) {
        // Key space ~3x capacity so full-table evictions dominate.
        const std::uint64_t key = rng.below(96);
        const double dice = rng.uniform();
        if (dice < 0.40) {
            // Activation: bump a tracked row, admit a new one, or (table
            // full) spill and try a Misra-Gries replacement.
            if (std::uint32_t *count = cat.find(key)) {
                ASSERT_EQ(ref.count(key), 1u) << "op " << op;
                ++*count;
                ++ref[key];
            } else if (cat.size() < maxEntries) {
                cat.insert(key, spill + 1);
                ref.emplace(key, spill + 1);
            } else {
                ++spill;
                if (cat.evictReplace(key, spill, spill + 1)) {
                    // Recover the victim by diffing membership, then
                    // check it was a legal Misra-Gries choice.
                    std::uint64_t victim = CatTable::kEmptyKey;
                    int gone = 0;
                    for (const auto &[k, v] : ref)
                        if (cat.find(k) == nullptr) {
                            victim = k;
                            ++gone;
                        }
                    ASSERT_EQ(gone, 1) << "op " << op;
                    ASSERT_LE(ref[victim], spill) << "op " << op;
                    ref.erase(victim);
                    ref.emplace(key, spill + 1);
                }
            }
        } else if (dice < 0.70) {
            std::uint32_t *count = cat.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(count != nullptr, it != ref.end()) << "op " << op;
            if (count != nullptr) {
                ASSERT_EQ(*count, it->second) << "op " << op;
            }
        } else if (dice < 0.72) {
            // tREFW window boundary.
            cat.clear();
            ref.clear();
            spill = 0;
        } else {
            // Mitigation: the victim-refreshed row drops to the floor.
            if (std::uint32_t *count = cat.find(key)) {
                *count = spill;
                ref[key] = spill;
            }
        }
        ASSERT_EQ(cat.size(), ref.size()) << "op " << op;
    }
    for (const auto &[key, value] : ref) {
        std::uint32_t *count = cat.find(key);
        ASSERT_NE(count, nullptr);
        EXPECT_EQ(*count, value);
    }
}

// The documented eviction contract, asserted against the layout oracle:
// walking slots from the incoming key's home bucket in table order
// (wrapping), skipping empties, the FIRST of at most kProbeLimit
// occupied slots whose count is <= the floor is the victim — and when
// no examined slot qualifies, the table must be left untouched.
TEST(CatTable, EvictionFollowsDocumentedTieBreak)
{
    Rng rng(0x7ab1eu);
    for (int round = 0; round < 2000; ++round) {
        const std::size_t maxEntries = 16;
        CatTable cat(maxEntries);
        while (cat.size() < maxEntries) {
            const std::uint64_t key = rng.below(1u << 20);
            if (cat.find(key) != nullptr)
                continue;
            cat.insert(key, static_cast<std::uint32_t>(rng.below(5)));
        }
        std::uint64_t incoming;
        do {
            incoming = rng.below(1u << 20);
        } while (cat.find(incoming) != nullptr);
        const std::uint32_t floor =
            static_cast<std::uint32_t>(rng.below(5));

        // Oracle: replay the documented walk over the raw slot views.
        std::uint64_t expected = CatTable::kEmptyKey;
        const std::size_t cap = cat.capacity();
        std::size_t i = cat.homeBucket(incoming);
        int probed = 0;
        for (std::size_t scanned = 0;
             probed < CatTable::kProbeLimit && scanned < cap;
             ++scanned, i = (i + 1) % cap) {
            if (cat.slotKey(i) == CatTable::kEmptyKey)
                continue;
            ++probed;
            if (cat.slotCount(i) <= floor) {
                expected = cat.slotKey(i);
                break;
            }
        }

        const bool evicted = cat.evictReplace(incoming, floor, floor + 1);
        ASSERT_EQ(evicted, expected != CatTable::kEmptyKey)
            << "round " << round;
        ASSERT_EQ(cat.size(), maxEntries) << "round " << round;
        if (evicted) {
            EXPECT_EQ(cat.find(expected), nullptr) << "round " << round;
            std::uint32_t *count = cat.find(incoming);
            ASSERT_NE(count, nullptr) << "round " << round;
            EXPECT_EQ(*count, floor + 1) << "round " << round;
        } else {
            EXPECT_EQ(cat.find(incoming), nullptr) << "round " << round;
        }
    }
}

TEST(Stats, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(minOf({3.0, 1.0, 2.0}), 1.0);
}

TEST(StatDictTest, PreservesInsertionOrderAndTypes)
{
    StatDict dict;
    dict.addU64("b.count", 7);
    dict.addF64("a.rate", 0.5);
    dict.addU64("c.count", 9);
    dict.addSeries("a.series", {1.0, 2.0});

    // Order is insertion order — never sorted, never map-ordered.
    ASSERT_EQ(dict.entries().size(), 3u);
    EXPECT_EQ(dict.entries()[0].name, "b.count");
    EXPECT_EQ(dict.entries()[1].name, "a.rate");
    EXPECT_EQ(dict.entries()[2].name, "c.count");

    EXPECT_EQ(dict.u64("b.count"), 7u);
    EXPECT_DOUBLE_EQ(dict.f64("a.rate"), 0.5);
    EXPECT_DOUBLE_EQ(dict.value("b.count"), 7.0);
    EXPECT_TRUE(dict.has("c.count"));
    EXPECT_FALSE(dict.has("missing"));
    EXPECT_THROW(dict.u64("missing"), std::out_of_range);
    EXPECT_THROW(dict.u64("a.rate"), std::out_of_range); // Wrong type.
    EXPECT_THROW(dict.f64("b.count"), std::out_of_range);
    ASSERT_NE(dict.findSeries("a.series"), nullptr);
    EXPECT_EQ(dict.findSeries("a.series")->values.size(), 2u);

    // Equality is layout equality: same entries in another order differ.
    StatDict reordered;
    reordered.addF64("a.rate", 0.5);
    reordered.addU64("b.count", 7);
    reordered.addU64("c.count", 9);
    reordered.addSeries("a.series", {1.0, 2.0});
    EXPECT_FALSE(dict == reordered);
}

TEST(StatWriterTest, ScopesComposeIntoDottedPrefixes)
{
    StatDict dict;
    StatWriter root(dict);
    root.u64("top", 1);
    StatWriter mem = root.scope("mem.0");
    mem.u64("reads", 2);
    StatWriter nested = mem.scope("latency");
    nested.f64("avg", 3.5);
    nested.series("histogram", {1.0});

    EXPECT_EQ(dict.u64("top"), 1u);
    EXPECT_EQ(dict.u64("mem.0.reads"), 2u);
    EXPECT_DOUBLE_EQ(dict.f64("mem.0.latency.avg"), 3.5);
    EXPECT_NE(dict.findSeries("mem.0.latency.histogram"), nullptr);
    // Scoping a child never disturbs the parent's prefix.
    mem.u64("writes", 4);
    EXPECT_EQ(dict.u64("mem.0.writes"), 4u);
}

TEST(Energy, AccumulatesPerEvent)
{
    EnergyModel energy;
    energy.addAct();
    energy.addRead(false);
    energy.addWrite(true);
    energy.addRef();
    energy.addVictimRefresh(2);
    energy.addBulkRefresh(100);
    EXPECT_DOUBLE_EQ(energy.totalNj(),
                     EnergyModel::kActPreNj + EnergyModel::kReadNj +
                         EnergyModel::kWriteNj + EnergyModel::kRefNj +
                         2 * EnergyModel::kVrrRowNj +
                         100 * EnergyModel::kRowRefreshNj);
    EXPECT_EQ(energy.counterWrites(), 1u);
    EXPECT_GT(energy.mitigationNj(), 0.0);
}

TEST(Energy, MitigationShareExcludesDemand)
{
    EnergyModel energy;
    for (int i = 0; i < 100; ++i) {
        energy.addAct();
        energy.addRead(false);
    }
    EXPECT_DOUBLE_EQ(energy.mitigationNj(), 0.0);
    energy.addVictimRefresh(2);
    EXPECT_GT(energy.mitigationNj(), 0.0);
}

TEST(TrackerEntries, EveryEntryBuildsAfterAdjustConfig)
{
    for (const TrackerInfo *info : TrackerRegistry::instance().entries()) {
        SysConfig cfg;
        info->adjustConfig(cfg);
        auto tracker = info->make(cfg, nullptr);
        if (info->isNone()) {
            EXPECT_EQ(tracker, nullptr);
            continue;
        }
        ASSERT_NE(tracker, nullptr) << info->name;
        EXPECT_FALSE(tracker->name().empty());
        EXPECT_GE(tracker->storage().sramKB, 0.0);
    }
}

TEST(TrackerEntries, VariantsAdjustConfig)
{
    const auto adjusted = [](const char *name) {
        SysConfig cfg;
        TrackerRegistry::instance().at(name).adjustConfig(cfg);
        return cfg;
    };
    EXPECT_EQ(adjusted("dapper-h-drfmsb").mitigationCmd,
              SysConfig::MitigationCmd::DrfmSb);
    EXPECT_EQ(adjusted("dapper-h-br2").blastRadius, 2);

    const SysConfig plain = adjusted("dapper-h");
    EXPECT_EQ(plain.blastRadius, 1);
    EXPECT_EQ(plain.mitigationCmd, SysConfig::MitigationCmd::Vrr);
}

TEST(TrackerEntries, OnlyStartReservesLlc)
{
    const TrackerRegistry &registry = TrackerRegistry::instance();
    EXPECT_TRUE(registry.at("start").reservesLlc);
    EXPECT_FALSE(registry.at("hydra").reservesLlc);
    EXPECT_FALSE(registry.at("dapper-h").reservesLlc);
}

TEST(Graphene, ExactTrackingMitigatesAtThreshold)
{
    SysConfig cfg;
    cfg.nRH = 500;
    GrapheneTracker tracker(cfg);
    MitigationVec out;
    int acts = 0;
    while (out.empty() && acts < cfg.nM() + 4) {
        tracker.onActivation({0, 0, 2, 4096, 0, 0}, out);
        ++acts;
    }
    ASSERT_FALSE(out.empty());
    EXPECT_LE(acts, cfg.nM());
    EXPECT_EQ(out[0].row, 4096);
}

TEST(Graphene, PerBankTablesAreIndependent)
{
    SysConfig cfg;
    cfg.nRH = 500;
    GrapheneTracker tracker(cfg);
    MitigationVec out;
    for (int i = 0; i < 100; ++i) {
        tracker.onActivation({0, 0, 2, 4096, 0, 0}, out);
        tracker.onActivation({0, 0, 3, 4096, 0, 0}, out);
    }
    EXPECT_TRUE(out.empty()); // 100 < threshold in each bank.
}

TEST(Graphene, StorageScalesWorseThanDapper)
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 1.0;
    GrapheneTracker graphene(cfg);
    SysConfig cfg2 = cfg;
    auto dapperH =
        TrackerRegistry::instance().at("dapper-h").make(cfg2, nullptr);
    // Per-bank worst-case tables dwarf DAPPER-H's shared RGCs, and the
    // CAM content is the expensive part.
    EXPECT_GT(graphene.storage().sramKB + graphene.storage().camKB,
              dapperH->storage().sramKB * 3);
    EXPECT_GT(graphene.storage().camKB, 100.0);
}

TEST(Graphene, WindowResetClears)
{
    SysConfig cfg;
    cfg.nRH = 500;
    GrapheneTracker tracker(cfg);
    MitigationVec out;
    for (int i = 0; i < 200; ++i)
        tracker.onActivation({0, 0, 2, 4096, 0, 0}, out);
    tracker.onRefreshWindow(0, out);
    out.clear();
    int acts = 0;
    while (out.empty() && acts < cfg.nM() + 4) {
        tracker.onActivation({0, 0, 2, 4096, 0, 0}, out);
        ++acts;
    }
    EXPECT_GE(acts, cfg.nM() - 2); // Full threshold again.
}

} // namespace
} // namespace dapper
