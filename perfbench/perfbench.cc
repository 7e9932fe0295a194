/**
 * @file
 * Benchmark binary: runs one named workload as a sequence of
 * seeded operations in one process on one simulation thread, checks
 * every operation's outputs, and prints one JSON object per line on
 * stdout (operations, run-level checks, timer calibration, end of run).
 * perfbench/run.py builds this binary, hands it the generated inputs
 * (the operation seeds) and turns its records into metrics.
 *
 * One operation is what a caller of the simulator does for one
 * scenario: resolve the registries, build the generators and a System,
 * attach the tREFI series probe, advance System::run in fixed chunks of
 * kChunkTrefis tREFIs to the horizon, export the stats and check them.
 *
 *   dapper_perfbench --workload NAME --op-seed N [--op-seed N ...]
 *                    --seconds S --trace 0|1 [--trace-out FILE]
 *
 * --trace 0 runs the plain pass only (the end-to-end metrics); --trace 1
 * interleaves plain and traced operations, so the traced pass's per-layer
 * host times and its overhead come from the same process.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "layers.hh"
#include "src/common/stats.hh"
#include "src/dram/address.hh"
#include "src/sim/experiment.hh"
#include "src/sim/probe.hh"
#include "src/sim/system.hh"
#include "src/trace/replay.hh"
#include "src/workload/attack_registry.hh"
#include "src/workload/workload_registry.hh"

namespace {

using namespace dapper;
using perfbench::CallAcc;
using perfbench::GenTally;
using perfbench::nowNs;
using perfbench::SpanLog;
using perfbench::TrackerCalls;

/** One benchmark workload: a fixed scenario of the paper. */
struct WorkloadSpec
{
    const char *name;
    const char *tracker;
    int nRH;
    const char *attack;
    /// Benign core i runs benign[i % size] (runOnce's multi-program rule).
    std::vector<std::string> benign;
};

const WorkloadSpec kWorkloads[] = {
    // Headline Perf-Attack case: DAPPER-H at N_RH = 500 against the
    // mapping-agnostic refresh attack on core 3 (Sec. V-E, Fig. 10).
    {"perf_attack", "dapper-h", 500, "refresh",
     {"429.mcf", "510.parest", "tpcc64"}},
    // LLC-resident trace replay: core and cache bound, controller idle.
    {"trace_mix", "dapper-h", 500, "none",
     {"trace-gc", "trace-stencil", "trace-ptrchase", "trace-stream"}},
    // BlockHammer at the ultra-low end of Fig. 14: store-heavy benign
    // mix whose activations get throttled.
    {"throttle_writes", "blockhammer", 125, "none",
     {"519.lbm", "470.lbm", "ycsb-a"}},
};

/**
 * The DTR files behind the checked-in trace workloads
 * (src/trace/trace_workloads.cc). The benchmark opens them itself so
 * that every operation's set-up pays for the mmap and frame validation
 * a fresh process pays, instead of hitting sharedTraceReader's cache;
 * the same-program check against runOnce proves the replay identical.
 */
const std::pair<const char *, const char *> kTraceFiles[] = {
    {"trace-gc", "gc_heavy.dtr"},
    {"trace-stencil", "stencil.dtr"},
    {"trace-ptrchase", "ptrchase.dtr"},
    {"trace-stream", "stream.dtr"},
};

/// Chunk length in tREFIs: 256 full chunks per two-window horizon.
constexpr Tick kChunkTrefis = 64;
/// Chunks of the engine-equivalence prefix (1/32 of the horizon).
constexpr Tick kPrefixChunks = 8;
/// Minimum number of measured rounds, whatever --seconds says.
constexpr int kMinRounds = 2;

enum class Pass
{
    Plain,  ///< No decorators: what a caller of the simulator runs.
    Traced, ///< Timed decorators and spans (per-layer pass).
};

const char *
passName(Pass pass)
{
    switch (pass) {
      case Pass::Plain: return "plain";
      case Pass::Traced: return "traced";
    }
    return "?";
}

struct OpResult
{
    std::vector<std::string> errors;
    double setupS = 0.0;
    double gensS = 0.0;
    double systemS = 0.0;
    double runS = 0.0;
    Tick ticks = 0;
    Tick chunkTicks = 0;
    std::vector<double> chunkS;
    double benignIpc = 0.0;
    StatDict stats;
    CallAcc next;
    TrackerCalls tracker;
    std::vector<GenTally> tallies;
};

SysConfig
makeConfig(const WorkloadSpec &w, std::uint64_t seed)
{
    SysConfig cfg;
    cfg.nRH = w.nRH;
    cfg.seed = seed;
    return cfg;
}

std::unique_ptr<TraceGen>
benignGen(const WorkloadInfo &info, const SysConfig &cfg, int core,
          std::uint64_t seed)
{
    if (!info.isTrace)
        return info.make(cfg, core, seed);
    for (const auto &[name, file] : kTraceFiles)
        if (info.name == name)
            return std::make_unique<TraceReplayGen>(
                std::make_shared<const TraceReader>(traceDir() + "/" + file),
                info.name, core, seed);
    throw std::invalid_argument("no DTR file known for '" + info.name +
                                "'");
}

/** 64-bit FNV-1a over a stat dict's names, types and value bits. */
std::uint64_t
dictHash(const StatDict &d)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    };
    for (const StatEntry &e : d.entries()) {
        mix(e.name.data(), e.name.size());
        mix(&e.type, sizeof e.type);
        mix(&e.u64, sizeof e.u64);
        mix(&e.f64, sizeof e.f64);
    }
    for (const StatSeries &s : d.series()) {
        mix(s.name.data(), s.name.size());
        for (double v : s.values)
            mix(&v, sizeof v);
    }
    return h;
}

/** Per-chunk span arguments: calls and host time through each
 *  wrapped boundary during the chunk. */
std::string
chunkArgs(std::size_t chunk, const CallAcc &next, const CallAcc &tracker)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "\"chunk\":%zu,\"next_calls\":%llu,\"next_ns\":%lld,"
                  "\"tracker_calls\":%llu,\"tracker_ns\":%lld",
                  chunk, static_cast<unsigned long long>(next.calls),
                  static_cast<long long>(next.ns),
                  static_cast<unsigned long long>(tracker.calls),
                  static_cast<long long>(tracker.ns));
    return buf;
}

CallAcc
operator-(CallAcc a, const CallAcc &b)
{
    a.calls -= b.calls;
    a.ns -= b.ns;
    return a;
}

/**
 * Run one operation. @p horizon 0 means runOnce's default horizon.
 * Checks that need no reference run land in result.errors: the
 * security guarantee on every pass, and on the traced pass the ACT
 * count and the retired-instruction bounds.
 */
OpResult
runOp(const WorkloadSpec &w, std::uint64_t seed, Pass pass, Tick horizon,
      Engine engine, int opIndex, SpanLog *log)
{
    OpResult r;
    const bool traced = pass == Pass::Traced;

    const std::int64_t t0 = nowNs();
    const TrackerInfo &tracker = TrackerRegistry::instance().at(w.tracker);
    const AttackInfo &attack = AttackRegistry::instance().at(w.attack);
    std::vector<const WorkloadInfo *> infos;
    for (const std::string &name : w.benign)
        infos.push_back(&WorkloadRegistry::instance().at(name));
    const SysConfig cfg = makeConfig(w, seed);
    if (horizon == 0)
        horizon = defaultHorizon(cfg);

    // Generators exactly as runOnce builds them (same seeds and order).
    const AddressMapper mapper(cfg);
    std::vector<std::unique_ptr<TraceGen>> gens;
    int attackerCore = -1;
    if (traced)
        r.tallies.resize(static_cast<std::size_t>(cfg.numCores));
    for (int i = 0; i < cfg.numCores; ++i) {
        std::unique_ptr<TraceGen> gen;
        if (!attack.isNone() && i == cfg.numCores - 1) {
            attackerCore = i;
            gen = attack.make(cfg, mapper, cfg.seed + 777);
        } else {
            gen = benignGen(*infos[static_cast<std::size_t>(i) % infos.size()],
                            cfg, i, cfg.seed + 13);
        }
        if (traced)
            gen = std::make_unique<perfbench::TimedGen>(
                std::move(gen), &r.next,
                &r.tallies[static_cast<std::size_t>(i)]);
        gens.push_back(std::move(gen));
    }
    const std::int64_t tg = nowNs();

    std::optional<TrackerInfo> wrapped;
    if (traced)
        wrapped = perfbench::timedTracker(tracker, &r.tracker);
    const std::int64_t tw = nowNs();
    System sys(cfg, traced ? *wrapped : tracker, std::move(gens),
               attackerCore);
    TrefiSeriesProbe probe;
    sys.attachProbe(&probe);
    const std::int64_t ts = nowNs();
    // The wrapper copy is decorator plumbing, not simulator set-up.
    r.gensS = static_cast<double>(tg - t0) * 1e-9;
    r.systemS = static_cast<double>(ts - tw) * 1e-9;
    r.setupS = r.gensS + r.systemS;

    r.chunkTicks = kChunkTrefis * cfg.tREFI();
    std::int64_t runNs = 0;
    for (Tick end = r.chunkTicks;; end += r.chunkTicks) {
        const Tick stop = std::min(end, horizon);
        const CallAcc nextBefore = r.next;
        const CallAcc trackerBefore = r.tracker.total();
        const std::int64_t c0 = nowNs();
        if (engine == Engine::Tick)
            sys.runReference(stop);
        else
            sys.run(stop);
        const std::int64_t c1 = nowNs();
        runNs += c1 - c0;
        r.chunkS.push_back(static_cast<double>(c1 - c0) * 1e-9);
        if (log != nullptr)
            log->add("sim.run", opIndex, c0, c1,
                     chunkArgs(r.chunkS.size() - 1, r.next - nextBefore,
                               r.tracker.total() - trackerBefore));
        if (stop == horizon)
            break;
    }
    r.runS = static_cast<double>(runNs) * 1e-9;
    r.ticks = sys.now();
    if (log != nullptr) {
        log->add("setup.gens", opIndex, t0, tg);
        log->add("setup.system", opIndex, tw, ts);
        log->add("op", opIndex, t0, nowNs());
    }

    StatWriter writer(r.stats);
    sys.exportStats(writer);
    probe.exportStats(writer);
    std::vector<double> benign;
    for (int i = 0; i < cfg.numCores; ++i)
        if (i != attackerCore)
            benign.push_back(std::max(1e-9, sys.ipc(i)));
    r.benignIpc = geomean(benign);

    // Security: the deterministic guarantee, judged by GroundTruth.
    const std::uint64_t violations = r.stats.u64("gt.violations");
    const std::uint64_t maxDamage = r.stats.u64("gt.maxDamage");
    if (violations != 0)
        r.errors.push_back("security: gt.violations = " +
                           std::to_string(violations));
    if (maxDamage >= static_cast<std::uint64_t>(w.nRH))
        r.errors.push_back("security: gt.maxDamage " +
                           std::to_string(maxDamage) + " >= N_RH " +
                           std::to_string(w.nRH));

    if (traced) {
        // Both hooks sit in the non-counter-operation branch of
        // MemController::issue, so every tracked ACT is a GroundTruth ACT.
        const std::uint64_t gtActs = r.stats.u64("gt.activations");
        if (r.tracker.act.calls != gtActs)
            r.errors.push_back(
                "act-count: onActivation calls " +
                std::to_string(r.tracker.act.calls) +
                " != gt.activations " + std::to_string(gtActs));
        for (int i = 0; i < cfg.numCores; ++i) {
            const GenTally &t = r.tallies[static_cast<std::size_t>(i)];
            const std::uint64_t retired = sys.core(i).retired();
            if (retired > t.handed || retired < t.minRetired(cfg.robEntries))
                r.errors.push_back(
                    "retired: core " + std::to_string(i) + " retired " +
                    std::to_string(retired) + " outside [" +
                    std::to_string(t.minRetired(cfg.robEntries)) + ", " +
                    std::to_string(t.handed) + "]");
        }
    }
    return r;
}

/** First difference between two dicts, or "" when identical. */
std::string
dictDiff(const StatDict &a, const StatDict &b)
{
    if (a == b)
        return "";
    const std::size_t n = std::min(a.entries().size(), b.entries().size());
    for (std::size_t i = 0; i < n; ++i)
        if (!(a.entries()[i] == b.entries()[i]))
            return "stat " + a.entries()[i].name + " differs";
    if (a.entries().size() != b.entries().size())
        return "stat count differs";
    const std::size_t m = std::min(a.series().size(), b.series().size());
    for (std::size_t i = 0; i < m; ++i)
        if (!(a.series()[i] == b.series()[i]))
            return "series " + a.series()[i].name + " differs";
    return "series count differs";
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

void
printCall(const char *key, const CallAcc &a)
{
    std::printf(",\"%s\":[%llu,%lld]", key,
                static_cast<unsigned long long>(a.calls),
                static_cast<long long>(a.ns));
}

void
printOp(const OpResult &r, Pass pass, int round, std::uint64_t seed,
        bool withStats)
{
    std::printf("{\"kind\":\"op\",\"pass\":\"%s\",\"round\":%d,"
                "\"seed\":%llu,\"errors\":[",
                passName(pass), round, static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < r.errors.size(); ++i) {
        if (i > 0)
            std::putchar(',');
        printJsonString(r.errors[i]);
    }
    std::printf("],\"setup_s\":%.9f,\"gens_s\":%.9f,\"system_s\":%.9f,"
                "\"run_s\":%.9f,\"ticks\":%llu,\"chunk_ticks\":%llu,"
                "\"benign_ipc\":%.17g,\"dict_hash\":\"%016llx\"",
                r.setupS, r.gensS, r.systemS, r.runS,
                static_cast<unsigned long long>(r.ticks),
                static_cast<unsigned long long>(r.chunkTicks), r.benignIpc,
                static_cast<unsigned long long>(dictHash(r.stats)));
    printCall("next", r.next);
    printCall("tracker_act", r.tracker.act);
    printCall("tracker_throttle", r.tracker.throttle);
    printCall("tracker_periodic", r.tracker.periodic);
    printCall("tracker_window", r.tracker.window);
    if (pass == Pass::Traced) {
        std::printf(",\"chunk_s\":[");
        for (std::size_t i = 0; i < r.chunkS.size(); ++i)
            std::printf("%s%.9f", i == 0 ? "" : ",", r.chunkS[i]);
        std::printf("]");
    }
    if (withStats) {
        std::printf(",\"stats\":{");
        bool first = true;
        for (const StatEntry &e : r.stats.entries()) {
            std::printf("%s\"%s\":", first ? "" : ",", e.name.c_str());
            if (e.type == StatEntry::Type::U64)
                std::printf("%llu", static_cast<unsigned long long>(e.u64));
            else
                std::printf("%.17g", e.f64);
            first = false;
        }
        std::printf("}");
    }
    std::printf("}\n");
    std::fflush(stdout);
}

void
printCheck(const char *name, std::uint64_t seed, const std::string &error)
{
    std::printf("{\"kind\":\"check\",\"name\":\"%s\",\"seed\":%llu,"
                "\"ok\":%s,\"detail\":",
                name, static_cast<unsigned long long>(seed),
                error.empty() ? "true" : "false");
    printJsonString(error);
    std::printf("}\n");
    std::fflush(stdout);
}

/**
 * Cost of one timed region, measured the way the decorators take it:
 * `empty_ns` is what an empty region reports (each recorded duration
 * over-reports by this much), `call_ns` what one region costs the
 * caller in total. Median of five calibrations.
 */
std::pair<double, double>
calibrateTimer()
{
    constexpr int kCalls = 1 << 20;
    std::vector<double> empty, call;
    for (int rep = 0; rep < 5; ++rep) {
        CallAcc acc;
        const std::int64_t a = nowNs();
        for (int i = 0; i < kCalls; ++i)
            perfbench::charge(acc, [] {});
        const std::int64_t b = nowNs();
        empty.push_back(static_cast<double>(acc.ns) / kCalls);
        call.push_back(static_cast<double>(b - a) / kCalls);
    }
    std::sort(empty.begin(), empty.end());
    std::sort(call.begin(), call.end());
    return {empty[2], call[2]};
}

[[noreturn]] void
usage(const char *argv0, const std::string &error)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload NAME --op-seed N "
                 "[--op-seed N ...] --seconds S --trace 0|1 "
                 "[--trace-out FILE]\nworkloads:",
                 argv0, error.c_str(), argv0);
    for (const WorkloadSpec &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseU64(const char *argv0, const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage(argv0, std::string("bad value for ") + flag + ": " + text);
    return v;
}

int
benchMain(int argc, char **argv)
{
    const WorkloadSpec *workload = nullptr;
    std::vector<std::uint64_t> seeds;
    double seconds = -1.0;
    int trace = -1;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], "missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (w.name == std::string(value))
                    workload = &w;
            if (workload == nullptr)
                usage(argv[0], std::string("unknown workload ") + value);
        } else if (flag == "--op-seed") {
            seeds.push_back(parseU64(argv[0], "--op-seed", value));
        } else if (flag == "--seconds") {
            seconds = static_cast<double>(
                parseU64(argv[0], "--seconds", value));
        } else if (flag == "--trace") {
            trace = static_cast<int>(parseU64(argv[0], "--trace", value));
        } else if (flag == "--trace-out") {
            traceOut = value;
        } else {
            usage(argv[0], "unknown flag " + flag);
        }
    }
    if (workload == nullptr || seeds.empty() || seconds < 0 ||
        (trace != 0 && trace != 1))
        usage(argv[0], "--workload, --op-seed, --seconds and --trace "
                       "are required");
    const WorkloadSpec &w = *workload;

    // Run-level checks, before anything is timed, on a short prefix of
    // every operation: the tick engine, runOnce and (without a traced
    // pass) the counting decorators must all give the plain pass's dict.
    const AttackInfo &attack = AttackRegistry::instance().at(w.attack);
    const TrackerInfo &tracker = TrackerRegistry::instance().at(w.tracker);
    for (std::uint64_t seed : seeds) {
        const SysConfig cfg = makeConfig(w, seed);
        const Tick prefix = kPrefixChunks * kChunkTrefis * cfg.tREFI();
        const OpResult event =
            runOp(w, seed, Pass::Plain, prefix, Engine::Event, 0, nullptr);
        const OpResult tick =
            runOp(w, seed, Pass::Plain, prefix, Engine::Tick, 0, nullptr);
        printCheck("engine-equivalence", seed,
                   dictDiff(event.stats, tick.stats));

        const RunResult once = runOnce(cfg, w.benign, attack, tracker, prefix);
        std::string error = dictDiff(event.stats, once.stats);
        if (event.benignIpc != once.benignIpcMean)
            error += (error.empty() ? "" : "; ") +
                     std::string("benign IPC differs");
        printCheck("same-program-prefix", seed, error);

        if (trace == 0) {
            // The plain pass carries no decorators, so the ACT-count and
            // retired-instruction checks run on a traced prefix.
            const OpResult traced = runOp(w, seed, Pass::Traced, prefix,
                                          Engine::Event, 0, nullptr);
            error = dictDiff(traced.stats, event.stats);
            for (const std::string &e : traced.errors)
                error += (error.empty() ? "" : "; ") + e;
            printCheck("traced-prefix", seed, error);
        }
    }

    // Reference dict per seed: runOnce's own over the whole horizon for
    // the first seed, the first plain operation's for the others. Every
    // later operation of the seed, traced or not, must reproduce it.
    std::vector<std::optional<RunResult>> reference(seeds.size());
    reference[0] = runOnce(makeConfig(w, seeds[0]), w.benign, attack, tracker);

    SpanLog log;
    if (trace == 1) {
        const auto [emptyNs, callNs] = calibrateTimer();
        std::printf("{\"kind\":\"timer\",\"empty_ns\":%.4f,"
                    "\"call_ns\":%.4f}\n",
                    emptyNs, callNs);
    }

    // Measured rounds: every round runs the same operations, so a
    // check that fails does so in every round.
    const std::int64_t start = nowNs();
    int opIndex = 0;
    for (int round = 0;; ++round) {
        for (std::size_t s = 0; s < seeds.size(); ++s) {
            std::vector<Pass> passes{Pass::Plain};
            if (trace == 1)
                passes = round % 2 == 0
                             ? std::vector<Pass>{Pass::Plain, Pass::Traced}
                             : std::vector<Pass>{Pass::Traced, Pass::Plain};
            for (Pass pass : passes) {
                OpResult r = runOp(w, seeds[s], pass, 0, Engine::Event,
                                   opIndex++,
                                   pass == Pass::Traced ? &log : nullptr);
                if (!reference[s]) {
                    reference[s].emplace();
                    reference[s]->stats = r.stats;
                    reference[s]->benignIpcMean = r.benignIpc;
                }
                const char *what = s == 0 ? "same-program: differs from "
                                            "runOnce: "
                                          : "repeat: differs from the "
                                            "first operation: ";
                const std::string diff =
                    dictDiff(r.stats, reference[s]->stats);
                if (!diff.empty())
                    r.errors.push_back(what + diff);
                if (r.benignIpc != reference[s]->benignIpcMean)
                    r.errors.push_back(std::string(what) + "benign IPC");
                printOp(r, pass, round, seeds[s], round == 0);
            }
        }
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        if (round + 1 >= kMinRounds && elapsed >= seconds)
            break;
    }

    if (trace == 1 && !traceOut.empty() && !log.write(traceOut)) {
        std::fprintf(stderr, "cannot write %s\n", traceOut.c_str());
        return 1;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("{\"kind\":\"end\",\"peak_rss_kb\":%ld}\n", usage.ru_maxrss);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dapper_perfbench: %s\n", e.what());
        return 1;
    }
}
