/**
 * @file
 * Outside-in layer instrumentation for the benchmark: forwarding
 * decorators around the two interfaces a caller of System can reach
 * (TraceGen and Tracker), and an in-memory span log written out as
 * trace-event JSON.
 *
 * Both decorators count the calls they forward and read the clock
 * around each one. The traced pass uses them; the plain pass, which the
 * end-to-end metrics come from, uses neither.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/rh/registry.hh"
#include "src/rh/tracker.hh"
#include "src/workload/trace_gen.hh"

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Calls through one wrapped boundary and the host time inside them. */
struct CallAcc
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    CallAcc &
    operator+=(const CallAcc &o)
    {
        calls += o.calls;
        ns += o.ns;
        return *this;
    }
};

/** Run @p fn, charging one call and its duration to @p acc. */
template <typename Fn>
inline auto
charge(CallAcc &acc, Fn &&fn)
{
    ++acc.calls;
    const std::int64_t t0 = nowNs();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc.ns += nowNs() - t0;
    } else {
        auto result = fn();
        acc.ns += nowNs() - t0;
        return result;
    }
}

/**
 * Instructions one core was handed (bubbles + 1 per record) and the
 * sizes of the last two records, which bound how many of them the core
 * may still hold unretired.
 */
struct GenTally
{
    std::uint64_t handed = 0;
    std::uint64_t lastCost = 0;
    std::uint64_t prevCost = 0;

    void
    add(const dapper::TraceRecord &rec)
    {
        const std::uint64_t cost = std::uint64_t{rec.bubbles} + 1;
        handed += cost;
        prevCost = lastCost;
        lastCost = cost;
    }

    /**
     * Fewest instructions the core can have retired: everything handed
     * out except one reorder window and one record pulled ahead of
     * admission. A record larger than the window is admitted alone into
     * an empty one, so the window term is the larger of the two.
     */
    std::uint64_t
    minRetired(int robEntries) const
    {
        const std::uint64_t held =
            std::max<std::uint64_t>(static_cast<std::uint64_t>(robEntries),
                                    prevCost) +
            lastCost;
        return handed > held ? handed - held : 0;
    }
};

/** TraceGen decorator: times calls into one shared accumulator and
 *  tallies the core's instructions. */
class TimedGen : public dapper::TraceGen
{
  public:
    TimedGen(std::unique_ptr<dapper::TraceGen> inner, CallAcc *acc,
             GenTally *tally)
        : inner_(std::move(inner)), acc_(acc), tally_(tally)
    {
    }

    dapper::TraceRecord
    next() override
    {
        const dapper::TraceRecord rec =
            charge(*acc_, [this] { return inner_->next(); });
        tally_->add(rec);
        return rec;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<dapper::TraceGen> inner_;
    CallAcc *acc_;
    GenTally *tally_;
};

/** Calls into each Tracker hook. */
struct TrackerCalls
{
    CallAcc act;
    CallAcc throttle;
    CallAcc periodic;
    CallAcc window;

    CallAcc
    total() const
    {
        CallAcc t = act;
        t += throttle;
        t += periodic;
        t += window;
        return t;
    }
};

/**
 * Tracker decorator. Tracker::mitigations() is not virtual and both
 * TrefiSeriesProbe and the result path read it, so the decorator copies
 * the inner tracker's count after every forwarded hook; exportStats is
 * forwarded whole, so the stat dict is the inner tracker's own.
 */
class TimedTracker : public dapper::Tracker
{
  public:
    TimedTracker(std::unique_ptr<dapper::Tracker> inner, TrackerCalls *calls)
        : inner_(std::move(inner)), calls_(calls)
    {
        sync();
    }

    void
    onActivation(const dapper::ActEvent &event,
                 dapper::MitigationVec &out) override
    {
        charge(calls_->act, [&] { inner_->onActivation(event, out); });
        sync();
    }

    void
    onRefreshWindow(dapper::Tick now, dapper::MitigationVec &out) override
    {
        charge(calls_->window, [&] { inner_->onRefreshWindow(now, out); });
        sync();
    }

    void
    onPeriodic(dapper::Tick now, dapper::MitigationVec &out) override
    {
        charge(calls_->periodic, [&] { inner_->onPeriodic(now, out); });
        sync();
    }

    dapper::Tick
    throttleUntil(const dapper::ActEvent &event) override
    {
        const dapper::Tick at = charge(
            calls_->throttle, [&] { return inner_->throttleUntil(event); });
        sync();
        return at;
    }

    dapper::Tick actExtraTicks() const override
    {
        return inner_->actExtraTicks();
    }
    dapper::StorageEstimate storage() const override
    {
        return inner_->storage();
    }
    std::string name() const override { return inner_->name(); }
    void exportStats(dapper::StatWriter &w) const override
    {
        inner_->exportStats(w);
    }

  private:
    void sync() { mitigations_ = inner_->mitigations(); }

    std::unique_ptr<dapper::Tracker> inner_;
    TrackerCalls *calls_;
};

/** Copy of @p info whose factory wraps the registered one. */
inline dapper::TrackerInfo
timedTracker(const dapper::TrackerInfo &info, TrackerCalls *calls)
{
    dapper::TrackerInfo wrapped = info;
    wrapped.make = [make = info.make, calls](dapper::SysConfig &cfg,
                                             dapper::Llc *llc)
        -> std::unique_ptr<dapper::Tracker> {
        std::unique_ptr<dapper::Tracker> inner = make(cfg, llc);
        if (!inner)
            return nullptr;
        return std::make_unique<TimedTracker>(std::move(inner), calls);
    };
    return wrapped;
}

/** One completed span; `args` is a pre-rendered JSON object body. */
struct Span
{
    std::string name;
    int op = 0;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    std::string args;
};

/** Spans kept in memory and written once, when the run ends. */
class SpanLog
{
  public:
    void
    add(std::string name, int op, std::int64_t startNs, std::int64_t endNs,
        std::string args = {})
    {
        spans_.push_back(
            {std::move(name), op, startNs, endNs - startNs, std::move(args)});
    }

    /** Trace-event JSON ("X" complete events, microseconds), one track
     *  per operation; a trace viewer nests spans by time. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
        for (const Span &s : spans_)
            base = std::min(base, s.startNs);
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"op\":%d%s%s}}",
                         i == 0 ? "" : ",", s.name.c_str(), s.op + 1,
                         static_cast<double>(s.startNs - base) / 1e3,
                         static_cast<double>(s.durNs) / 1e3, s.op,
                         s.args.empty() ? "" : ",", s.args.c_str());
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
