/**
 * @file
 * RowHammer security property tests: for every deterministic counting
 * tracker and for each adversarial activation pattern, drive the tracker
 * directly with an activation stream and a victim-damage model and
 * assert that no victim row accumulates N_RH disturbances within a
 * refresh window (the paper's Section II-C attack-success criterion).
 *
 * The harness mirrors what the full-system GroundTruth checker does, but
 * at tracker granularity so thousands of windows are cheap.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/rh/registry.hh"

namespace dapper {
namespace {

/** Victim-damage bookkeeping for a single (channel 0) system. */
class DamageModel
{
  public:
    explicit DamageModel(const SysConfig &cfg) : cfg_(cfg) {}

    void
    onAct(int rank, int bank, int row)
    {
        bump(rank, bank, row - 1);
        bump(rank, bank, row + 1);
    }

    void
    apply(const MitigationVec &actions)
    {
        for (const Mitigation &m : actions) {
            switch (m.kind) {
              case Mitigation::Kind::VrrRow:
              case Mitigation::Kind::DrfmSbRow:
              case Mitigation::Kind::RfmSb:
              case Mitigation::Kind::AboRfm:
                for (int d = 1; d <= std::max(1, cfg_.blastRadius); ++d) {
                    clear(m.rank, m.bank, m.row - d);
                    clear(m.rank, m.bank, m.row + d);
                }
                break;
              case Mitigation::Kind::BulkRank:
              case Mitigation::Kind::BulkChannel:
                damage_.clear();
                break;
              case Mitigation::Kind::CounterRead:
              case Mitigation::Kind::CounterWrite:
                break;
            }
        }
    }

    void windowBoundary() { damage_.clear(); }

    std::uint32_t maxDamage() const { return maxDamage_; }

  private:
    std::uint64_t
    key(int rank, int bank, int row) const
    {
        return (static_cast<std::uint64_t>(rank) << 40) |
               (static_cast<std::uint64_t>(bank) << 32) |
               static_cast<std::uint64_t>(static_cast<std::uint32_t>(row));
    }

    void
    bump(int rank, int bank, int row)
    {
        if (row < 0 || row >= cfg_.rowsPerBank)
            return;
        const std::uint32_t d = ++damage_[key(rank, bank, row)];
        maxDamage_ = std::max(maxDamage_, d);
    }

    void
    clear(int rank, int bank, int row)
    {
        damage_.erase(key(rank, bank, row));
    }

    SysConfig cfg_;
    std::map<std::uint64_t, std::uint32_t> damage_;
    std::uint32_t maxDamage_ = 0;
};

/** Adversarial activation streams at tracker granularity. */
enum class Pattern
{
    SingleRowHammer,   ///< One row, continuously.
    DoubleSided,       ///< Two aggressors around one victim.
    RefreshAttack16,   ///< The paper's 8-banks x 2-rows pattern.
    ManyRowRoundRobin, ///< 192 rows (the CoMeT attack shape).
    NewRowEveryAct,    ///< Ever-new rows (the ABACUS attack shape).
};

struct Case
{
    const char *tracker; ///< TrackerRegistry name.
    Pattern pattern;
};

/**
 * Build @p name's tracker the way System does: the entry's config
 * adjustment (DRFMsb command, blast radius 2) is applied to @p cfg
 * first, so the DamageModel built from @p cfg afterwards models the
 * same blast radius the tracker mitigates.
 */
std::unique_ptr<Tracker>
buildTracker(const char *name, SysConfig &cfg)
{
    const TrackerInfo &info = TrackerRegistry::instance().at(name);
    info.adjustConfig(cfg);
    return info.make(cfg, nullptr);
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string name =
        TrackerRegistry::instance().at(info.param.tracker).displayName;
    for (auto &ch : name)
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    switch (info.param.pattern) {
      case Pattern::SingleRowHammer: return name + "_single";
      case Pattern::DoubleSided: return name + "_double";
      case Pattern::RefreshAttack16: return name + "_refresh16";
      case Pattern::ManyRowRoundRobin: return name + "_rr192";
      case Pattern::NewRowEveryAct: return name + "_newrows";
    }
    return name;
}

class SecurityPropertyTest : public ::testing::TestWithParam<Case>
{
};

TEST_P(SecurityPropertyTest, NoVictimReachesThresholdWithinWindow)
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 16.0;
    const Case param = GetParam();
    auto tracker = buildTracker(param.tracker, cfg);
    ASSERT_NE(tracker, nullptr);

    DamageModel damage(cfg);
    MitigationVec out;

    // tRC-paced single-bank patterns or tRRD-paced multi-bank ones; run
    // three scaled windows.
    const Tick horizon = 3 * cfg.tREFW();
    Tick now = 0;
    Tick nextWindow = cfg.tREFW();
    Tick nextPeriodic = cfg.tREFI();
    std::uint64_t n = 0;

    while (now < horizon) {
        int rank = 0;
        int bank = 0;
        int row = 0;
        Tick step = cfg.tRC();
        switch (param.pattern) {
          case Pattern::SingleRowHammer:
            bank = 3;
            row = 1000 + static_cast<int>(n % 2) * 4; // Force ACTs.
            break;
          case Pattern::DoubleSided:
            bank = 3;
            row = 1000 + static_cast<int>(n % 2) * 2; // Victim at 1001.
            break;
          case Pattern::RefreshAttack16: {
            const int slot = static_cast<int>(n % 16);
            bank = slot % 8;
            row = 32768 + (slot / 8) * 2;
            step = cfg.tRRDS();
            break;
          }
          case Pattern::ManyRowRoundRobin: {
            const int slot = static_cast<int>(n % 192);
            bank = slot % 32;
            row = 16384 + (slot / 32) * 64;
            step = cfg.tRRDS();
            break;
          }
          case Pattern::NewRowEveryAct:
            bank = static_cast<int>(n % 32);
            row = static_cast<int>((n / 32) % 65536);
            step = cfg.tRRDS();
            break;
        }

        damage.onAct(rank, bank, row);
        out.clear();
        ActEvent e{0, rank, bank, row, now, 0};
        // Respect throttling (BlockHammer): a throttled ACT is delayed,
        // which in this harness means it simply happens later.
        const Tick allowed = tracker->throttleUntil(e);
        if (allowed > now) {
            now = allowed;
            e.now = now;
        }
        tracker->onActivation(e, out);
        damage.apply(out);

        if (now >= nextPeriodic) {
            nextPeriodic += cfg.tREFI();
            out.clear();
            tracker->onPeriodic(now, out);
            damage.apply(out);
        }
        if (now >= nextWindow) {
            nextWindow += cfg.tREFW();
            out.clear();
            tracker->onRefreshWindow(now, out);
            damage.apply(out);
            damage.windowBoundary();
        }
        now += step;
        ++n;
    }

    EXPECT_LT(damage.maxDamage(), static_cast<std::uint32_t>(cfg.nRH))
        << param.tracker << " failed to prevent RowHammer";
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    const char *const trackers[] = {
        "hydra",    "comet",        "abacus", "graphene",    "dapper-s",
        "dapper-h", "dapper-h-br2", "prac",   "blockhammer",
    };
    const Pattern patterns[] = {
        Pattern::SingleRowHammer, Pattern::DoubleSided,
        Pattern::RefreshAttack16, Pattern::ManyRowRoundRobin,
        Pattern::NewRowEveryAct,
    };
    for (const char *t : trackers)
        for (Pattern p : patterns)
            cases.push_back({t, p});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTrackers, SecurityPropertyTest,
                         ::testing::ValuesIn(allCases()), caseName);

/** N_RH sweep for the paper's own trackers. */
class DapperThresholdTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DapperThresholdTest, DapperHSafeAcrossThresholds)
{
    SysConfig cfg;
    cfg.nRH = GetParam();
    cfg.timeScale = 16.0;
    auto tracker = buildTracker("dapper-h", cfg);
    DamageModel damage(cfg);
    MitigationVec out;

    Tick now = 0;
    Tick nextWindow = cfg.tREFW();
    std::uint64_t n = 0;
    while (now < 2 * cfg.tREFW()) {
        const int slot = static_cast<int>(n % 16);
        const int bank = slot % 8;
        const int row = 32768 + (slot / 8) * 2;
        damage.onAct(0, bank, row);
        out.clear();
        tracker->onActivation({0, 0, bank, row, now, 0}, out);
        damage.apply(out);
        if (now >= nextWindow) {
            nextWindow += cfg.tREFW();
            out.clear();
            tracker->onRefreshWindow(now, out);
            damage.windowBoundary();
        }
        now += cfg.tRRDS();
        ++n;
    }
    EXPECT_LT(damage.maxDamage(), static_cast<std::uint32_t>(cfg.nRH));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DapperThresholdTest,
                         ::testing::Values(125, 250, 500, 1000, 2000,
                                           4000));

} // namespace
} // namespace dapper
