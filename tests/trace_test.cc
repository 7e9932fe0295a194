/**
 * @file
 * DTR trace subsystem tests: codec round-trips, the reader's
 * immutable-artifact rejection semantics (torn tails, checksum /
 * magic / version violations), WorkloadRegistry integration, the
 * seed-purity contract of trace replay (seeds move only the start
 * offset), and the differential capture-vs-live contract: a DTR file
 * captured from a synthetic generator replays bit-identically to the
 * live generator, on both engines.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/journal.hh"
#include "src/sim/experiment.hh"
#include "src/trace/dtr.hh"
#include "src/trace/replay.hh"
#include "src/workload/workload_registry.hh"

namespace dapper {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "dapper_trace_test_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A deterministic, structurally varied record stream. */
std::vector<TraceRecord>
sampleRecords(std::size_t n)
{
    std::vector<TraceRecord> out;
    out.reserve(n);
    std::uint64_t addr = 0x1000;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.bubbles = static_cast<std::uint32_t>((i * 7) % 97);
        rec.isWrite = i % 3 == 0;
        rec.bypassLlc = i % 11 == 0;
        // Deltas in both directions, including large jumps.
        if (i % 5 == 0)
            addr += 0x40;
        else if (i % 5 == 1)
            addr -= 0x1000;
        else
            addr += (i % 13) << 12;
        rec.addr = addr;
        out.push_back(rec);
    }
    return out;
}

std::string
writeSample(const std::string &path, const std::vector<TraceRecord> &recs,
            std::uint64_t baseSeed = 0, std::uint32_t perBlock = 64)
{
    TraceWriter writer(path, "sample", baseSeed, perBlock);
    for (const TraceRecord &rec : recs)
        writer.append(rec);
    writer.close();
    return path;
}

// ---------------------------------------------------------------------
// Codec primitives.
// ---------------------------------------------------------------------

TEST(DtrCodec, VarintRoundTripsEdgeValues)
{
    const std::uint64_t values[] = {0,      1,          0x7F,
                                    0x80,   0x3FFF,     0x4000,
                                    1u << 20, ~0ull >> 1, ~0ull};
    for (const std::uint64_t v : values) {
        std::string buf;
        dtrPutVarint(buf, v);
        const unsigned char *p =
            reinterpret_cast<const unsigned char *>(buf.data());
        const unsigned char *end = p + buf.size();
        EXPECT_EQ(dtrGetVarint(p, end), v);
        EXPECT_EQ(p, end) << "undershot encoding of " << v;
    }
}

TEST(DtrCodec, VarintRejectsTruncationAndOverflow)
{
    // Continuation bit set but the stream ends.
    const unsigned char truncated[] = {0x80, 0x80};
    const unsigned char *p = truncated;
    EXPECT_THROW(dtrGetVarint(p, truncated + sizeof truncated), DtrError);
    // 11 bytes = 70 payload bits: exceeds u64.
    const unsigned char tooWide[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                     0xFF, 0xFF, 0xFF, 0xFF, 0x01};
    p = tooWide;
    EXPECT_THROW(dtrGetVarint(p, tooWide + sizeof tooWide), DtrError);
}

TEST(DtrCodec, ZigzagRoundTripsExtremes)
{
    const std::int64_t values[] = {0, 1, -1, 64, -64, INT64_MAX,
                                   INT64_MIN};
    for (const std::int64_t v : values)
        EXPECT_EQ(dtrZigzagDecode(dtrZigzagEncode(v)), v);
    // Small magnitudes encode small: the property delta encoding needs.
    EXPECT_EQ(dtrZigzagEncode(0), 0u);
    EXPECT_EQ(dtrZigzagEncode(-1), 1u);
    EXPECT_EQ(dtrZigzagEncode(1), 2u);
}

// ---------------------------------------------------------------------
// Writer / reader round trip.
// ---------------------------------------------------------------------

TEST(DtrRoundTrip, EveryFieldOfEveryRecordSurvives)
{
    const auto recs = sampleRecords(1000);
    const std::string path =
        writeSample(tempPath("roundtrip.dtr"), recs, 42, 64);

    TraceReader reader(path);
    EXPECT_EQ(reader.name(), "sample");
    EXPECT_EQ(reader.baseSeed(), 42u);
    EXPECT_EQ(reader.recordCount(), recs.size());
    // 1000 records at 64/block: 15 full blocks + a 40-record tail.
    EXPECT_EQ(reader.blockCount(), 16u);

    TraceReader::Cursor cursor(reader);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const TraceRecord got = cursor.next();
        EXPECT_EQ(got.addr, recs[i].addr) << "record " << i;
        EXPECT_EQ(got.bubbles, recs[i].bubbles) << "record " << i;
        EXPECT_EQ(got.isWrite, recs[i].isWrite) << "record " << i;
        EXPECT_EQ(got.bypassLlc, recs[i].bypassLlc) << "record " << i;
    }
    // The stream wraps: the next record is record 0 again.
    EXPECT_EQ(cursor.index(), 0u);
    EXPECT_EQ(cursor.next().addr, recs[0].addr);
    std::remove(path.c_str());
}

TEST(DtrRoundTrip, CursorSeeksToAnyIndexAndWraps)
{
    const auto recs = sampleRecords(300);
    const std::string path =
        writeSample(tempPath("seek.dtr"), recs, 0, 32);
    TraceReader reader(path);
    for (const std::uint64_t start : {0ull, 1ull, 31ull, 32ull, 33ull,
                                      299ull, 300ull, 451ull}) {
        TraceReader::Cursor cursor(reader, start);
        for (std::size_t k = 0; k < 40; ++k) {
            const std::size_t want = (start + k) % recs.size();
            EXPECT_EQ(cursor.next().addr, recs[want].addr)
                << "start " << start << " step " << k;
        }
    }
    std::remove(path.c_str());
}

TEST(DtrRoundTrip, EmptyTraceLoadsButCannotIterate)
{
    const std::string path = tempPath("empty.dtr");
    TraceWriter writer(path, "nothing", 7);
    writer.close();
    TraceReader reader(path);
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_EQ(reader.blockCount(), 0u);
    EXPECT_THROW(TraceReader::Cursor cursor(reader), DtrError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rejection semantics: a DTR file loads exactly or not at all.
// ---------------------------------------------------------------------

TEST(DtrRejection, TornTailIsRejected)
{
    const std::string path =
        writeSample(tempPath("torn.dtr"), sampleRecords(500));
    const std::string whole = slurp(path);
    // Any truncation — mid-frame-header or mid-payload — must throw.
    for (const std::size_t keep :
         {whole.size() - 1, whole.size() - 7, whole.size() / 2}) {
        spit(path, whole.substr(0, keep));
        EXPECT_THROW(TraceReader reader(path), DtrError)
            << "kept " << keep << " of " << whole.size();
    }
    std::remove(path.c_str());
}

TEST(DtrRejection, BitflipAnywhereIsRejected)
{
    const std::string path =
        writeSample(tempPath("flip.dtr"), sampleRecords(200));
    const std::string whole = slurp(path);
    // Flip one bit in the header payload, a data payload, and a CRC.
    for (const std::size_t at :
         {std::size_t{20}, whole.size() / 2, whole.size() - 3}) {
        std::string bad = whole;
        bad[at] = static_cast<char>(bad[at] ^ 0x10);
        spit(path, bad);
        EXPECT_THROW(TraceReader reader(path), DtrError)
            << "flipped byte " << at;
    }
    // Unmodified bytes still load (the harness itself is sound).
    spit(path, whole);
    EXPECT_NO_THROW(TraceReader reader(path));
    std::remove(path.c_str());
}

TEST(DtrRejection, WrongMagicAndMissingHeaderAreRejected)
{
    const std::string path = tempPath("magic.dtr");
    spit(path, "this is not a trace file, not even close........");
    EXPECT_THROW(TraceReader reader(path), DtrError);
    spit(path, ""); // Empty file: no header block.
    EXPECT_THROW(TraceReader reader(path), DtrError);
    std::remove(path.c_str());
    EXPECT_THROW(TraceReader reader(tempPath("enoent.dtr")),
                 std::runtime_error);
}

TEST(DtrRejection, UnsupportedVersionIsRejected)
{
    // Craft a well-framed header whose version field is from the
    // future; the CRC is valid, so only the version check can fire.
    ByteWriter payload;
    payload.putU32(kDtrVersion + 1);
    payload.putU64(0);
    payload.putU64(0);
    payload.putU32(0);
    payload.putString("future");
    const std::string path = tempPath("version.dtr");
    spit(path, encodeDtrBlock(DtrBlock::Header, payload.take()));
    try {
        TraceReader reader(path);
        FAIL() << "future version accepted";
    } catch (const DtrError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(DtrRejection, HeaderAccountingMismatchIsRejected)
{
    // A valid header claiming one record, but no data blocks follow.
    ByteWriter payload;
    payload.putU32(kDtrVersion);
    payload.putU64(0);
    payload.putU64(1); // recordCount lie.
    payload.putU32(0);
    payload.putString("liar");
    const std::string path = tempPath("accounting.dtr");
    spit(path, encodeDtrBlock(DtrBlock::Header, payload.take()));
    EXPECT_THROW(TraceReader reader(path), DtrError);
    std::remove(path.c_str());
}

TEST(DtrRejection, DataBeforeHeaderAndDuplicateHeaderAreRejected)
{
    const std::string path =
        writeSample(tempPath("order.dtr"), sampleRecords(10), 0, 4);
    const std::string whole = slurp(path);
    // Header frame length: reparse its frame header to find the split.
    const std::uint32_t headerLen =
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(whole[5])) |
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(whole[6])) << 8 |
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(whole[7])) << 16 |
        static_cast<std::uint32_t>(
            static_cast<unsigned char>(whole[8])) << 24;
    const std::string header = whole.substr(0, 13 + headerLen);
    const std::string rest = whole.substr(13 + headerLen);
    spit(path, rest + header); // Data first.
    EXPECT_THROW(TraceReader reader(path), DtrError);
    spit(path, header + header + rest); // Two headers.
    EXPECT_THROW(TraceReader reader(path), DtrError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// WorkloadRegistry.
// ---------------------------------------------------------------------

TEST(WorkloadRegistryTest, SyntheticPopulationAndTracesShareOneNamespace)
{
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    // The full synthetic population is registered...
    EXPECT_GE(reg.names().size(), 57u + 4u);
    const WorkloadInfo &mcf = reg.at("429.mcf");
    EXPECT_FALSE(mcf.isTrace);
    // ...alongside the checked-in trace workloads.
    const WorkloadInfo &gc = reg.at("trace-gc");
    EXPECT_TRUE(gc.isTrace);
    EXPECT_THROW(reg.at("no-such-workload"), std::invalid_argument);
}

TEST(WorkloadRegistryTest, PlusIsReservedForPerCoreLists)
{
    WorkloadInfo info;
    info.name = "a+b";
    info.make = [](const SysConfig &, int, std::uint64_t)
        -> std::unique_ptr<TraceGen> { return nullptr; };
    EXPECT_THROW(WorkloadRegistry::instance().add(std::move(info)),
                 std::invalid_argument);
}

TEST(WorkloadRegistryTest, EnsureTraceIsIdempotentAndLazy)
{
    // The file does not exist — registration must still succeed
    // (factories open lazily); only make() touches the filesystem.
    const std::string path = tempPath("lazy_missing.dtr");
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    const WorkloadInfo &a = reg.ensureTrace(path);
    const WorkloadInfo &b = reg.ensureTrace(path);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.name, "dtr:" + path);
    EXPECT_TRUE(a.isTrace);
    EXPECT_THROW(a.make(SysConfig{}, 0, 1), std::runtime_error);
}

// ---------------------------------------------------------------------
// Replay seed purity.
// ---------------------------------------------------------------------

TEST(TraceReplay, SeedMovesOnlyTheStartOffsetNeverContent)
{
    const auto recs = sampleRecords(512);
    const std::string path =
        writeSample(tempPath("purity.dtr"), recs, 99, 64);
    auto reader = sharedTraceReader(path);

    // Exact replay when the factory seed equals the capture seed.
    TraceReplayGen exact(reader, "purity", 2, 99);
    EXPECT_EQ(exact.startIndex(), 0u);
    EXPECT_EQ(exact.next().addr, recs[0].addr);

    // Any other seed: a deterministic rotation of the same content.
    for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
        for (const int core : {0, 1, 3}) {
            TraceReplayGen gen(reader, "purity", core, seed);
            const std::uint64_t start =
                traceStartIndex(*reader, core, seed);
            EXPECT_EQ(gen.startIndex(), start);
            for (std::size_t k = 0; k < 64; ++k) {
                const TraceRecord got = gen.next();
                const TraceRecord &want =
                    recs[(start + k) % recs.size()];
                ASSERT_EQ(got.addr, want.addr)
                    << "seed " << seed << " core " << core << " step "
                    << k;
                ASSERT_EQ(got.bubbles, want.bubbles);
                ASSERT_EQ(got.isWrite, want.isWrite);
            }
        }
    }
    // Distinct cores get distinct offsets (they share content, not
    // phase — the multi-core analogue of BenignGen's core offsets).
    EXPECT_NE(traceStartIndex(*reader, 0, 7),
              traceStartIndex(*reader, 1, 7));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Differential: captured DTR vs the live generator.
// ---------------------------------------------------------------------

void
expectIdenticalRuns(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
    for (std::size_t i = 0; i < a.coreIpc.size(); ++i)
        EXPECT_EQ(a.coreIpc[i], b.coreIpc[i]) << "core " << i;
    EXPECT_EQ(a.benignIpcMean, b.benignIpcMean);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.energyNj, b.energyNj);
    // Everything, not just the headline numbers: per-component
    // counters and probe series must match bit for bit.
    EXPECT_TRUE(a.stats == b.stats);
}

TEST(TraceDifferential, CapturedTraceReplaysBitIdenticalToLiveGenerator)
{
    SysConfig cfg;
    cfg.nRH = 500;
    cfg.timeScale = 32.0;
    const Tick horizon = 200000;
    const std::string workload = "462.libquantum";

    const RunResult live = runOnce(cfg, workload, "none", "dapper-h", horizon,
                                   Engine::Event);

    // Capture each core's stream with the exact runOnce seeding; size
    // the captures off the live run's own consumption so replay never
    // wraps before the horizon.
    WorkloadRegistry &reg = WorkloadRegistry::instance();
    const WorkloadInfo &info = reg.at(workload);
    std::vector<std::string> traceNames;
    std::vector<std::string> paths;
    for (int core = 0; core < cfg.numCores; ++core) {
        const std::uint64_t reads = live.stats.u64(
            "core." + std::to_string(core) + ".memReads");
        const std::uint64_t records = reads * 2 + 4096;
        const std::string path = tempPath(
            "differential_core" + std::to_string(core) + ".dtr");
        auto gen = info.make(cfg, core, cfg.seed + 13);
        TraceWriter writer(path, workload, cfg.seed + 13);
        for (std::uint64_t n = 0; n < records; ++n)
            writer.append(gen->next());
        writer.close();
        traceNames.push_back(reg.ensureTrace(path).name);
        paths.push_back(path);
    }

    // Replay: factory seed (cfg.seed + 13) == each trace's baseSeed, so
    // every core starts at record 0 — the exact-replay contract.
    const AttackInfo &none = AttackRegistry::instance().at("none");
    const TrackerInfo &dapperH = TrackerRegistry::instance().at("dapper-h");
    const RunResult replayEvent = runOnce(cfg, traceNames, none, dapperH,
                                          horizon, Engine::Event);
    expectIdenticalRuns(live, replayEvent);

    // And the tick engine agrees with all of it.
    const RunResult replayTick = runOnce(cfg, traceNames, none, dapperH,
                                         horizon, Engine::Tick);
    expectIdenticalRuns(live, replayTick);

    for (const std::string &path : paths)
        std::remove(path.c_str());
}

} // namespace
} // namespace dapper
