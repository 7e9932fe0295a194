/**
 * @file
 * Low-level experiment primitive shared by Runner and the tests: build
 * a system (3 benign copies + optional attacker, or 4 homogeneous
 * benign copies), run it, and report the raw stats — the paper's
 * measurement protocol (DESIGN.md §3).
 *
 * Experiments should normally go through the declarative layer
 * (Scenario / ScenarioGrid / Runner in src/sim/scenario.hh and
 * src/sim/runner.hh), which resolves trackers and attacks by registry
 * name and owns baseline caching. runOnce stays public as the
 * stateless, seed-pure primitive the Runner and the equivalence tests
 * build on.
 */

#ifndef DAPPER_SIM_EXPERIMENT_HH
#define DAPPER_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "src/common/config.hh"
#include "src/common/stats.hh"
#include "src/rh/registry.hh"
#include "src/sim/system.hh"
#include "src/workload/attack_registry.hh"
#include "src/workload/benign.hh"

namespace dapper {

/**
 * One simulation outcome.
 *
 * The typed fields are the stable high-traffic subset benches print
 * from; `stats` is the full hierarchical telemetry export (every
 * component's counters plus the tREFI probe series, see
 * src/common/stats.hh and src/sim/README.md "Telemetry contract").
 * runOnce asserts the typed fields consistent with their stat
 * counterparts, so the two views can never drift apart.
 */
struct RunResult
{
    std::vector<double> coreIpc; ///< Per core.
    double benignIpcMean = 0.0;  ///< Geomean over benign cores.
    std::uint64_t mitigations = 0;
    std::uint64_t bulkResets = 0;
    std::uint64_t counterTraffic = 0;
    std::uint64_t activations = 0;
    std::uint32_t maxDamage = 0;
    std::uint64_t rhViolations = 0;
    double energyNj = 0.0;
    /// Ordered hierarchical stat export ("core.0.ipc", "llc.misses",
    /// "mem.1.p99ReadLatency", "tracker.mitigations", "series.ipc", ...).
    StatDict stats;
};

/** Default simulated horizon: two (scaled) refresh windows. */
Tick defaultHorizon(const SysConfig &cfg);

/**
 * Which time-advance engine System uses. Event (the default) jumps to
 * the next component watermark; Tick is the per-cycle reference loop.
 * Both produce bit-identical stats (tests/scheduler_equivalence_test.cc).
 */
enum class Engine
{
    Event,
    Tick,
};

/**
 * Which insecure baseline a normalized result divides by.
 *
 * - Raw: no normalization (Runner reports the plain RunResult).
 * - NoAttack: unprotected system, no attacker (Figs. 1/3/4/5: the bars
 *   include the attack's own bandwidth cost, which is why cache
 *   thrashing shows ~0.6 there).
 * - SameAttack: unprotected system running the same attack (Figs. 9/10/
 *   12/13/16: isolates the *tracker-induced* overhead, the quantity the
 *   paper's "DAPPER-H incurs only 0.9% under Perf-Attacks" refers to).
 */
enum class Baseline
{
    Raw,
    NoAttack,
    SameAttack,
};

/**
 * Run one configuration. With the "none" attack all cores run the
 * benign workload (homogeneous); otherwise cores 0..n-2 are benign and
 * the last core runs the attack stream. Workloads are resolved through
 * WorkloadRegistry (src/workload/workload_registry.hh), so the name may
 * be any registered workload — synthetic or DTR trace replay.
 *
 * Thread-safe and seed-pure: each call builds its own System, and all
 * randomness is seeded from cfg.seed, so results are independent of the
 * calling thread and of run ordering. There is no process-global state
 * anywhere in this layer — baseline caching lives in Runner instances.
 */
RunResult runOnce(const SysConfig &cfg, const std::string &workload,
                  const AttackInfo &attack, const TrackerInfo &tracker,
                  Tick horizon = 0, Engine engine = Engine::Event);

/**
 * Multi-program variant: benign core i runs workloads[i % n]. A
 * one-element list is identical to the homogeneous overload; an empty
 * list throws. The attacker core (when the attack is not "none") is
 * unchanged — it never consumes a workload slot.
 */
RunResult runOnce(const SysConfig &cfg,
                  const std::vector<std::string> &workloads,
                  const AttackInfo &attack, const TrackerInfo &tracker,
                  Tick horizon = 0, Engine engine = Engine::Event);

/** Convenience overload: resolves @p attack and @p tracker by registry
 *  name (tests, micro benches). */
RunResult runOnce(const SysConfig &cfg, const std::string &workload,
                  const std::string &attack, const std::string &tracker,
                  Tick horizon = 0, Engine engine = Engine::Event);

} // namespace dapper

#endif // DAPPER_SIM_EXPERIMENT_HH
