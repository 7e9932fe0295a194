/**
 * @file
 * Registry round-trip and metadata tests: every tracker/attack entry
 * resolves back to itself by name, names are unique, the built-in
 * surface (names, display names, capability metadata, order) is pinned,
 * the combo list tests/scheduler_equivalence_test.cc pins resolves, and
 * a tracker registered outside the built-in table (the "one file"
 * recipe) is a first-class citizen of the Scenario API.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/sim/runner.hh"

namespace dapper {
namespace {

TEST(TrackerRegistryTest, EveryEntryRoundTripsByName)
{
    auto &registry = TrackerRegistry::instance();
    std::set<std::string> seen;
    for (const TrackerInfo *info : registry.entries()) {
        EXPECT_TRUE(seen.insert(info->name).second)
            << "duplicate name " << info->name;
        // parse(name(x)) == x: lookup returns the same stable entry.
        EXPECT_EQ(registry.find(info->name), info);
        EXPECT_EQ(&registry.at(info->name), info);
    }
}

TEST(TrackerRegistryTest, CounterAttacksResolve)
{
    for (const TrackerInfo *info : TrackerRegistry::instance().entries())
        EXPECT_NE(AttackRegistry::instance().find(info->counterAttack),
                  nullptr)
            << info->name << " -> " << info->counterAttack;
}

TEST(TrackerRegistryTest, UnknownNameThrowsListingChoices)
{
    try {
        TrackerRegistry::instance().at("no-such-tracker");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-tracker"), std::string::npos);
        EXPECT_NE(msg.find("dapper-h"), std::string::npos);
    }
}

TEST(AttackRegistryTest, EveryEntryRoundTripsByName)
{
    auto &registry = AttackRegistry::instance();
    std::set<std::string> seen;
    for (const AttackInfo *info : registry.entries()) {
        EXPECT_TRUE(seen.insert(info->name).second)
            << "duplicate name " << info->name;
        EXPECT_EQ(registry.find(info->name), info);
        EXPECT_EQ(&registry.at(info->name), info);
    }
}

/**
 * The built-in surface, in registration order: names, display names,
 * counter-attacks and LLC reservation of every tracker, every attack
 * name, and which entry is the unprotected "none". --list output, bench
 * tables and the "unknown ... (available: ...)" errors all print from
 * these entries, so a change here is a user-visible change. Extensions
 * registered from other translation units (the test alias below) come
 * after the built-ins.
 */
TEST(RegistrySurfaceTest, BuiltinsArePinnedInOrder)
{
    struct Expected
    {
        const char *name;
        const char *displayName;
        const char *counterAttack;
        bool reservesLlc;
    };
    const Expected trackers[] = {
        {"none", "None", "none", false},
        {"para", "PARA", "none", false},
        {"para-drfmsb", "PARA-DRFMsb", "none", false},
        {"pride", "PrIDE", "none", false},
        {"pride-rfmsb", "PrIDE-RFMsb", "none", false},
        {"prac", "PRAC", "none", false},
        {"blockhammer", "BlockHammer", "none", false},
        {"hydra", "Hydra", "hydra-rcc", false},
        {"start", "START", "start-stream", true},
        {"comet", "CoMeT", "comet-rat", false},
        {"abacus", "ABACUS", "abacus-spill", false},
        {"graphene", "Graphene", "none", false},
        {"dapper-s", "DAPPER-S", "streaming", false},
        {"dapper-h", "DAPPER-H", "streaming", false},
        {"dapper-h-br2", "DAPPER-H-BR2", "streaming", false},
        {"dapper-h-drfmsb", "DAPPER-H-DRFMsb", "streaming", false},
        {"dapper-h-nobv", "DAPPER-H-noBV", "streaming", false},
    };
    const std::vector<const TrackerInfo *> entries =
        TrackerRegistry::instance().entries();
    ASSERT_GE(entries.size(), std::size(trackers));
    for (std::size_t i = 0; i < std::size(trackers); ++i) {
        const TrackerInfo &info = *entries[i];
        EXPECT_EQ(info.name, trackers[i].name) << i;
        EXPECT_EQ(info.displayName, trackers[i].displayName) << info.name;
        EXPECT_EQ(info.counterAttack, trackers[i].counterAttack)
            << info.name;
        EXPECT_EQ(info.reservesLlc, trackers[i].reservesLlc) << info.name;
    }

    const std::vector<std::string> attacks = {
        "none",         "cache-thrash", "hydra-rcc",
        "start-stream", "comet-rat",    "abacus-spill",
        "streaming",    "refresh",      "mapping-probe",
    };
    EXPECT_EQ(AttackRegistry::instance().names(), attacks);

    for (const TrackerInfo *info : entries)
        EXPECT_EQ(info->isNone(), info->name == "none") << info->name;
    for (const AttackInfo *info : AttackRegistry::instance().entries())
        EXPECT_EQ(info->isNone(), info->name == "none") << info->name;
    // A copy whose make is wrapped (the perfbench/layers.hh decorator
    // pattern) is still the unprotected system.
    TrackerInfo wrapped = TrackerRegistry::instance().at("none");
    wrapped.make = [make = wrapped.make](SysConfig &cfg, Llc *llc) {
        return make(cfg, llc);
    };
    EXPECT_TRUE(wrapped.isNone());
    SysConfig cfg;
    EXPECT_EQ(wrapped.make(cfg, nullptr), nullptr);
}

/**
 * The scheduler-equivalence suite pins these (tracker, attack) combos
 * bit-identical across engines; the registries must keep exporting
 * every one of them under these exact names so benches and CLI flags
 * can reach all pinned behavior.
 */
TEST(RegistrySyncTest, SchedulerEquivalenceComboListResolves)
{
    const char *const trackers[] = {
        "none", "hydra", "start", "dapper-h", "blockhammer",
        "para", "prac",  "abacus", "dapper-s", "comet",
    };
    const char *const attacks[] = {
        "none",      "refresh",      "hydra-rcc",
        "streaming", "start-stream", "abacus-spill",
    };
    for (const char *name : trackers)
        EXPECT_NE(TrackerRegistry::instance().find(name), nullptr) << name;
    for (const char *name : attacks)
        EXPECT_NE(AttackRegistry::instance().find(name), nullptr) << name;
}

/**
 * TrackerInfo::storage() — the path tab03 and the "tracker.storage.*"
 * stats resolve through — must report exactly what a directly-built
 * tracker reports (Table III re-derived from the registry is
 * bit-identical), and the stats export must carry the same numbers.
 */
TEST(TrackerRegistryTest, StorageViaRegistryMatchesDirectConstruction)
{
    for (const TrackerInfo *info : TrackerRegistry::instance().entries()) {
        SysConfig cfg;
        cfg.nRH = 500;
        cfg.timeScale = 1.0; // Table III quotes physical tREFW.
        const StorageEstimate viaRegistry = info->storage(cfg);
        SysConfig direct = cfg;
        info->adjustConfig(direct);
        const std::unique_ptr<Tracker> tracker =
            info->make(direct, nullptr);
        if (tracker == nullptr) { // "none": no storage at all.
            EXPECT_EQ(viaRegistry.sramKB, 0.0) << info->name;
            EXPECT_EQ(viaRegistry.camKB, 0.0) << info->name;
            continue;
        }
        const StorageEstimate fromTracker = tracker->storage();
        EXPECT_EQ(viaRegistry.sramKB, fromTracker.sramKB) << info->name;
        EXPECT_EQ(viaRegistry.camKB, fromTracker.camKB) << info->name;
        EXPECT_EQ(viaRegistry.areaMm2(), fromTracker.areaMm2())
            << info->name;

        // The default exportStats publishes the same estimate.
        StatDict dict;
        StatWriter writer(dict);
        StatWriter scoped = writer.scope("tracker");
        tracker->exportStats(scoped);
        EXPECT_EQ(dict.f64("tracker.storage.sramKB"), fromTracker.sramKB)
            << info->name;
        EXPECT_EQ(dict.f64("tracker.storage.camKB"), fromTracker.camKB)
            << info->name;
        EXPECT_EQ(dict.f64("tracker.storage.areaMm2"),
                  fromTracker.areaMm2())
            << info->name;
        EXPECT_EQ(dict.u64("tracker.mitigations"), 0u) << info->name;
    }
}

// ---------------------------------------------------------------------
// The "adding a tracker in one file" recipe: register an entry from
// this translation unit and drive it through the full Scenario API.
// The alias delegates to the DAPPER-H factory, so its results must be
// bit-identical to the built-in entry — proving an extension takes the
// exact same path as a built-in.
// ---------------------------------------------------------------------

DAPPER_REGISTER_TRACKER(testAlias, {
    .name = "test-alias-dapper-h",
    .displayName = "TestAlias",
    .reservesLlc = false,
    .counterAttack = "streaming",
    .adjustConfig = {},
    .make = TrackerRegistry::instance().at("dapper-h").make,
});

TEST(RegistryExtensionTest, OneFileTrackerRunsThroughScenarioApi)
{
    const TrackerInfo &info =
        TrackerRegistry::instance().at("test-alias-dapper-h");
    EXPECT_EQ(info.displayName, "TestAlias");
    EXPECT_FALSE(info.isNone());

    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 32.0;
    const Scenario base = Scenario()
                              .config(cfg)
                              .workload("429.mcf")
                              .attack("refresh")
                              .horizon(200000);
    Runner runner;
    const RunResult custom =
        runner.runRaw(Scenario(base).tracker("test-alias-dapper-h"));
    const RunResult builtin =
        runner.runRaw(Scenario(base).tracker("dapper-h"));
    EXPECT_EQ(custom.benignIpcMean, builtin.benignIpcMean);
    EXPECT_EQ(custom.mitigations, builtin.mitigations);
    EXPECT_EQ(custom.activations, builtin.activations);
    EXPECT_EQ(custom.energyNj, builtin.energyNj);
}

} // namespace
} // namespace dapper
