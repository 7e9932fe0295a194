/**
 * @file
 * Top-level simulated system: cores, shared LLC, per-channel memory
 * controllers, one RowHammer tracker, the ground-truth safety checker,
 * and the energy model, wired per Table I of the paper.
 */

#ifndef DAPPER_SIM_SYSTEM_HH
#define DAPPER_SIM_SYSTEM_HH

#include <memory>
#include <vector>

#include "src/cache/llc.hh"
#include "src/common/config.hh"
#include "src/cpu/core.hh"
#include "src/dram/address.hh"
#include "src/energy/energy_model.hh"
#include "src/mem/controller.hh"
#include "src/rh/ground_truth.hh"
#include "src/rh/registry.hh"
#include "src/rh/tracker.hh"
#include "src/sim/probe.hh"
#include "src/sim/scheduler.hh"
#include "src/workload/trace_gen.hh"

namespace dapper {

class System
{
  public:
    /**
     * @param tracker registry entry describing the defense (capability
     *        metadata + factory); TrackerRegistry::at("none") for an
     *        unprotected system.
     * @param gens one trace generator per core (ownership transferred).
     * @param attackerCore index of the attacker core (gets a deeper
     *        outstanding-request budget), or -1 for none.
     */
    System(const SysConfig &cfg, const TrackerInfo &tracker,
           std::vector<std::unique_ptr<TraceGen>> gens,
           int attackerCore = -1);

    /**
     * Advance the whole system to @p horizon ticks with the event-driven
     * scheduler: time jumps to the minimum of the component next-event
     * watermarks (see src/sim/scheduler.hh) instead of visiting every
     * tick. Produces bit-identical stats to runReference().
     */
    void run(Tick horizon);

    /**
     * Reference tick-by-tick advance (the pre-scheduler loop): every
     * component is ticked on every core cycle. Kept as the equivalence
     * oracle for the event-driven engine; much slower.
     */
    void runReference(Tick horizon);

    double
    ipc(int core) const
    {
        return now_ > 0 ? static_cast<double>(cores_[core]->retired()) /
                              static_cast<double>(now_)
                        : 0.0;
    }

    Tick now() const { return now_; }
    const SysConfig &config() const { return cfg_; }
    Tracker *tracker() { return tracker_.get(); }
    const Tracker *tracker() const { return tracker_.get(); }
    GroundTruth &groundTruth() { return *groundTruth_; }
    const GroundTruth &groundTruth() const { return *groundTruth_; }
    EnergyModel &energy() { return energy_; }
    const EnergyModel &energy() const { return energy_; }
    Llc &llc() { return *llc_; }
    const Llc &llc() const { return *llc_; }
    MemController &controller(int channel)
    {
        return *controllers_[static_cast<std::size_t>(channel)];
    }
    const MemController &controller(int channel) const
    {
        return *controllers_[static_cast<std::size_t>(channel)];
    }
    Core &core(int idx) { return *cores_[static_cast<std::size_t>(idx)]; }
    const Core &core(int idx) const
    {
        return *cores_[static_cast<std::size_t>(idx)];
    }
    const AddressMapper &mapper() const { return mapper_; }

    /**
     * Attach a read-only tREFI-cadence observer (src/sim/probe.hh).
     * Non-owning; the probe must outlive run()/runReference(). Both
     * engines fire probes at identical ticks, and attaching one never
     * changes simulation results.
     */
    void attachProbe(Probe *probe) { probes_.push_back(probe); }

    /**
     * Export the full telemetry tree in fixed registration order:
     * sys.*, core.<i>.*, llc.*, mem.<ch>.*, tracker.*, energy.*, gt.*.
     * Deterministic layout — no map iteration anywhere on this path —
     * so equal systems produce entry-for-entry equal dicts (the
     * engine-equivalence and thread-invariance tests compare whole
     * dicts).
     */
    void exportStats(StatWriter &w) const;

  private:
    void applySystemMitigations(const MitigationVec &actions, Tick now);
    /** Periodic tracker hook + tREFW window boundary, shared by both
     *  engines; fires when due at @p t. */
    void serviceDeadlines(Tick t);

    SysConfig cfg_;
    AddressMapper mapper_;
    EnergyModel energy_;
    std::unique_ptr<GroundTruth> groundTruth_;
    std::unique_ptr<Tracker> tracker_;
    std::vector<std::unique_ptr<MemController>> controllers_;
    std::unique_ptr<Llc> llc_;
    std::vector<std::unique_ptr<TraceGen>> gens_;
    std::vector<std::unique_ptr<Core>> cores_;
    /// Raw views of cores_/controllers_ for the hot event loop.
    std::vector<Core *> coreRaw_;
    std::vector<MemController *> mcRaw_;
    Tick now_ = 0;
    Tick nextWindowAt_;
    Tick nextPeriodicAt_;
    Tick periodicStep_;
    /// Probe cadence: one (scaled) tREFI. Advanced whether or not any
    /// probe is attached, so the event engine's visited-tick schedule
    /// does not depend on probe presence.
    Tick nextSeriesAt_;
    Tick trefiStep_;
    std::vector<Probe *> probes_;
    MitigationVec scratch_;
    WakeHub wakeHub_;
};

} // namespace dapper

#endif // DAPPER_SIM_SYSTEM_HH
