/**
 * @file
 * Tests for the common utilities: rng, stats, bit helpers, config
 * validation, malloc registry, UVM, graph generation.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "common/sim_error.hh"
#include "common/bitutils.hh"
#include "common/thread_pool.hh"
#include "core/metrics.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "config/presets.hh"
#include "mem/uvm.hh"
#include "runtime/malloc_registry.hh"
#include "workloads/graph_gen.hh"

namespace ladm
{
namespace
{

TEST(BitUtils, CeilDivRoundUp)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(roundUp(4095, 4096), 4096u);
    EXPECT_EQ(roundUp(4096, 4096), 4096u);
    EXPECT_EQ(roundDown(4097, 4096), 4096u);
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(96));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(37), 37u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(2);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ZipfIsSkewed)
{
    Rng rng(3);
    uint64_t low = 0;
    for (int i = 0; i < 10000; ++i)
        low += rng.nextZipf(1000, 1.5) < 10 ? 1 : 0;
    // A skewed distribution concentrates mass at small values.
    EXPECT_GT(low, 3000u);
}

TEST(Stats, CountersAndAverages)
{
    StatGroup g("test");
    g.counter("hits") += 5;
    ++g.counter("hits");
    g.average("lat").sample(10);
    g.average("lat").sample(20);
    EXPECT_EQ(g.get("hits"), 6u);
    EXPECT_EQ(g.get("absent"), 0u);
    EXPECT_DOUBLE_EQ(g.average("lat").mean(), 15.0);
    g.reset();
    EXPECT_EQ(g.get("hits"), 0u);
}

TEST(Stats, Histogram)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(1000); // overflow bucket
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(99), 1u); // out-of-range reads overflow
    EXPECT_EQ(h.totalSamples(), 4u);
}

TEST(Config, PresetsAreValid)
{
    presets::multiGpu4x4().validate();
    presets::monolithic256().validate();
    presets::multiGpuFlat(4, 90).validate();
    presets::mcmRing(4, 1400).validate();
    presets::dgx4().validate();
}

TEST(Config, NodeGeometry)
{
    const auto c = presets::multiGpu4x4();
    EXPECT_EQ(c.numNodes(), 16);
    EXPECT_EQ(c.totalSms(), 256);
    EXPECT_EQ(c.nodeOfSm(0), 0);
    EXPECT_EQ(c.nodeOfSm(255), 15);
    EXPECT_EQ(c.gpuOfNode(7), 1);
    EXPECT_EQ(c.chipletOfNode(7), 3);
    EXPECT_EQ(c.nodeOf(1, 3), 7);
}

TEST(ConfigDeathTest, BadConfigThrows)
{
    auto c = presets::multiGpu4x4();
    c.pageSize = 1000; // not a power of two
    try {
        c.validate();
        FAIL() << "validate() accepted a non-power-of-two page size";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_NE(std::string(e.what()).find("pageSize"),
                  std::string::npos);
    }
}

TEST(MallocRegistry, AssignsDisjointPageAlignedRanges)
{
    MallocRegistry reg(4096);
    const Addr a = reg.mallocManaged(1, 100, "a");
    const Addr b = reg.mallocManaged(2, 1 << 20, "b");
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_EQ(reg.byPc(1).name, "a");
    EXPECT_EQ(reg.byAddr(a)->mallocPc, 1u);
    EXPECT_EQ(reg.byAddr(b + 12345)->mallocPc, 2u);
    // Guard gaps are unmapped.
    EXPECT_EQ(reg.byAddr(a + 200000), nullptr);
    EXPECT_EQ(reg.totalBytes(), 100u + (1 << 20));
}

TEST(MallocRegistryDeathTest, DuplicatePcThrows)
{
    MallocRegistry reg;
    reg.mallocManaged(1, 100, "a");
    EXPECT_THROW(reg.mallocManaged(1, 100, "b"), SimError);
}

TEST(Uvm, FirstTouchPlacesAndCharges)
{
    PageTable pt(4096);
    Uvm uvm(30000);
    Cycles stall = 0;
    EXPECT_EQ(uvm.touch(pt, 0x5000, 3, stall), 3);
    EXPECT_EQ(stall, 30000u);
    EXPECT_EQ(uvm.faults(), 1u);
    // Second touch is a plain translation.
    EXPECT_EQ(uvm.touch(pt, 0x5000, 7, stall), 3);
    EXPECT_EQ(stall, 0u);
    EXPECT_EQ(uvm.faults(), 1u);
}

TEST(GraphGen, UniformDegrees)
{
    const auto g = makeUniformGraph(1000, 8, 1);
    EXPECT_EQ(g.numVertices, 1000);
    EXPECT_EQ(g.numEdges(), 8000);
    for (int64_t v = 0; v < 1000; ++v) {
        EXPECT_EQ(g.degree(v), 8);
        for (int64_t e = g.rowPtr[v]; e < g.rowPtr[v + 1]; ++e) {
            EXPECT_GE(g.colIdx[e], 0);
            EXPECT_LT(g.colIdx[e], 1000);
        }
    }
}

TEST(GraphGen, PowerLawIsSkewedButBounded)
{
    const auto g = makePowerLawGraph(10000, 8, 1.2, 7);
    EXPECT_EQ(g.numVertices, 10000);
    // Mean degree lands near the target.
    const double mean = static_cast<double>(g.numEdges()) / 10000;
    EXPECT_GT(mean, 4.0);
    EXPECT_LT(mean, 16.0);
    int64_t max_deg = 0;
    for (int64_t v = 0; v < 10000; ++v) {
        EXPECT_GE(g.degree(v), 1);
        max_deg = std::max(max_deg, g.degree(v));
    }
    EXPECT_GT(max_deg, 16); // a heavy tail exists
}

TEST(GraphGen, DeterministicPerSeed)
{
    const auto a = makePowerLawGraph(1000, 8, 1.2, 9);
    const auto b = makePowerLawGraph(1000, 8, 1.2, 9);
    EXPECT_EQ(a.rowPtr, b.rowPtr);
    EXPECT_EQ(a.colIdx, b.colIdx);
}

/** FNV-1a over the values widened to int64 (little-endian bytes). */
template <typename V>
uint64_t
widenedDigest(const std::vector<V> &values)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const V x : values) {
        const uint64_t w = static_cast<uint64_t>(static_cast<int64_t>(x));
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

struct GraphGolden
{
    int64_t vertices;
    int64_t avgDegree;
    double alpha; ///< < 0: uniform generator
    uint64_t seed;
    int64_t edges;
    uint64_t rowPtrDigest;
    uint64_t colIdxDigest;
};

// Digests of graphs generated by the per-draw formulas (64-bit colIdx,
// nextBounded/nextZipf recomputing their per-domain terms every draw).
// Any change to a synthesized graph -- draw order, rejection threshold,
// std::pow operands -- shows up here.
constexpr GraphGolden kGraphGolden[] = {
    {1000, 8, -1, 0xBF5BF5, 8000, 0x0b5222e2041dfb40ULL,
     0xf9a79e38707a2a4eULL},
    {12345, 8, -1, 0xBF5BF5, 98760, 0xbbb5175f7609d119ULL,
     0xfbd2b3f0e6815c0cULL},
    {16384, 8, -1, 0xBF5BF5, 131072, 0xb471e68e2fa8ae37ULL,
     0x448762d95e85cd3fULL},
    {1000, 8, 0.0, 0xACCE55, 7547, 0x9794995db31e0fb7ULL,
     0xb64f39fb8cb5134cULL},
    {1000, 8, 1.0, 0xACCE55, 7779, 0x3019da51e99e70e3ULL,
     0xfc9f3d99abb27a19ULL},
    {1000, 8, 0.8, 0xACCE55, 7749, 0x53b620909a5e1c0aULL,
     0x01cb47333dbec2efULL},
    {1000, 8, 1.2, 0xACCE55, 7811, 0x6292527a20ae06a7ULL,
     0x0e983ee8f4fab093ULL},
    {12345, 8, 0.0, 0xACCE55, 93322, 0x16b0d01a220d60f6ULL,
     0x250782bee08e617fULL},
    {12345, 8, 1.0, 0xACCE55, 96208, 0xc2277320e6f5a05bULL,
     0xe6261e21cfc943a8ULL},
    {12345, 8, 0.8, 0xACCE55, 95465, 0x5eb7f004cbffdabeULL,
     0xaee8533ad8d2b073ULL},
    {12345, 8, 1.2, 0xACCE55, 96149, 0xfb7a4fe1a81a0073ULL,
     0x7ee768472612be81ULL},
    {16384, 8, 0.0, 0xACCE55, 123899, 0x5e15202a538095ceULL,
     0x67fb9408275b11efULL},
    {16384, 8, 1.0, 0xACCE55, 127687, 0x241e880061801a97ULL,
     0xb33cadfa2f32c0a3ULL},
    {16384, 8, 0.8, 0xACCE55, 126761, 0x3e6f0c78ebb80ea3ULL,
     0x8203d22cacb5737dULL},
    {16384, 8, 1.2, 0xACCE55, 127736, 0xdf8c9d5578f528a1ULL,
     0x337878997c2c550dULL},
    // The full-scale (scale 1.0) inputs of PageRank, BFS-relax, SSSP and
    // SpMV-jds (workloads/irregular_workloads.cc).
    {256 * 1024, 8, 1.2, 0xACCE55, 2041361, 0x0d91c855d5c720baULL,
     0x1f5aa3aadfb94039ULL},
    {512 * 1024, 8, -1, 0xBF5BF5, 4194304, 0xbd5ac5b27f6e6f85ULL,
     0x8947fb10939dbe8eULL},
    {256 * 1024, 16, 1.1, 0x555B, 4124976, 0x6a356329c2cceb9bULL,
     0x45dc1d1468d1b3b1ULL},
    {128 * 1024, 16, 0.8, 0x5B3D, 2057327, 0xdec43fb431860bbbULL,
     0x624dfe8b868a618aULL},
};

TEST(GraphGen, GoldenDigestsMatchPerDrawFormulas)
{
    for (const GraphGolden &c : kGraphGolden) {
        SCOPED_TRACE(testing::Message()
                     << "vertices=" << c.vertices << " alpha=" << c.alpha);
        const CsrGraph g =
            c.alpha < 0
                ? makeUniformGraph(c.vertices, c.avgDegree, c.seed)
                : makePowerLawGraph(c.vertices, c.avgDegree, c.alpha,
                                    c.seed);
        EXPECT_EQ(g.numEdges(), c.edges);
        EXPECT_EQ(widenedDigest(g.rowPtr), c.rowPtrDigest);
        EXPECT_EQ(widenedDigest(g.colIdx), c.colIdxDigest);
    }
}

TEST(GraphGen, RefusesVertexIdsBeyondInt32BeforeAllocating)
{
    // 2^31 vertices is the first count whose ids do not fit colIdx. At
    // 2^61 the rowPtr allocation alone would throw std::length_error, so
    // a SimError proves the guard runs before anything is allocated.
    const int64_t first_bad =
        static_cast<int64_t>(std::numeric_limits<int32_t>::max()) + 1;
    for (const int64_t v : {first_bad, int64_t{1} << 61}) {
        EXPECT_THROW(makeUniformGraph(v, 8, 1), SimError);
        EXPECT_THROW(makePowerLawGraph(v, 8, 1.2, 1), SimError);
    }
}

/** Rng::nextBounded before the rejection threshold was hoisted. */
uint64_t
perDrawBounded(Rng &rng, uint64_t bound)
{
    if (bound <= 1)
        return 0;
    const uint64_t threshold = -bound % bound;
    for (;;) {
        uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

/** Rng::nextZipf before n^(1-alpha) and 1/(1-alpha) were hoisted. */
uint64_t
perDrawZipf(Rng &rng, uint64_t n, double alpha)
{
    if (n <= 1)
        return 0;
    if (alpha <= 0.0)
        return perDrawBounded(rng, n);
    const double u = rng.nextDouble();
    const double exponent = 1.0 - alpha;
    double v;
    if (std::abs(exponent) < 1e-9) {
        v = std::pow(static_cast<double>(n), u);
    } else {
        const double hi = std::pow(static_cast<double>(n), exponent);
        v = std::pow(u * (hi - 1.0) + 1.0, 1.0 / exponent);
    }
    uint64_t idx = static_cast<uint64_t>(v) - 1;
    return idx >= n ? n - 1 : idx;
}

constexpr uint64_t kDrawBounds[] = {
    0, 1, 2, 3, 1000, uint64_t{1} << 18, uint64_t{1} << 19,
    (uint64_t{1} << 63) + 1};

TEST(Rng, UniformIndexMatchesPerDrawFormulaDrawForDraw)
{
    for (const uint64_t bound : kDrawBounds) {
        SCOPED_TRACE(testing::Message() << "bound=" << bound);
        Rng ref(bound ^ 0x5eed), hoisted(bound ^ 0x5eed),
            wrapped(bound ^ 0x5eed);
        const UniformIndex pick(bound);
        for (int i = 0; i < 20000; ++i) {
            const uint64_t want = perDrawBounded(ref, bound);
            ASSERT_EQ(pick(hoisted), want) << "draw " << i;
            ASSERT_EQ(wrapped.nextBounded(bound), want) << "draw " << i;
        }
        // The streams consumed the same raw values.
        const uint64_t tail = ref.next();
        EXPECT_EQ(hoisted.next(), tail);
        EXPECT_EQ(wrapped.next(), tail);
    }
}

TEST(Rng, ZipfIndexMatchesPerDrawFormulaDrawForDraw)
{
    for (const uint64_t n : kDrawBounds) {
        for (const double alpha : {-1.0, 0.0, 0.8, 1.0, 1.1, 1.2, 1.5}) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " alpha=" << alpha);
            Rng ref(n + 7), hoisted(n + 7), wrapped(n + 7);
            const ZipfIndex pick(n, alpha);
            for (int i = 0; i < 5000; ++i) {
                const uint64_t want = perDrawZipf(ref, n, alpha);
                ASSERT_EQ(pick(hoisted), want) << "draw " << i;
                ASSERT_EQ(wrapped.nextZipf(n, alpha), want)
                    << "draw " << i;
            }
            const uint64_t tail = ref.next();
            EXPECT_EQ(hoisted.next(), tail);
            EXPECT_EQ(wrapped.next(), tail);
        }
    }
}

TEST(Metrics, CsvRowMatchesHeaderArity)
{
    RunMetrics m;
    m.workload = "w";
    m.policy = "p";
    m.system = "s";
    m.scheduler = "sched";
    m.cycles = 123;
    const std::string header = csvHeader();
    const std::string row = csvRow(m);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_NE(row.find("w,p,s,sched"), std::string::npos);
    EXPECT_NE(row.find("123"), std::string::npos);
}

TEST(ErrCode, StableValuesAndMnemonics)
{
    // Wire/journal contract: these values may never change.
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::Ok), 0u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::BadConfig), 100u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::ParseError), 102u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::IoError), 200u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::CorruptFrame), 201u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::Busy), 301u);
    EXPECT_EQ(static_cast<uint32_t>(ErrCode::DeadlineExceeded), 302u);
    EXPECT_STREQ(toString(ErrCode::Busy), "BUSY");
    EXPECT_STREQ(toString(ErrCode::ParseError), "PARSE_ERROR");
    EXPECT_STREQ(toString(ErrCode::DeadlineExceeded),
                 "DEADLINE_EXCEEDED");
}

TEST(ErrCode, WireDecodeWhitelistsKnownValues)
{
    EXPECT_EQ(errCodeFromWire(301), ErrCode::Busy);
    EXPECT_EQ(errCodeFromWire(0), ErrCode::Ok);
    // A newer peer's unknown code degrades to RemoteError, never an
    // out-of-enum value.
    EXPECT_EQ(errCodeFromWire(9999), ErrCode::RemoteError);
}

TEST(ErrCode, SimErrorDerivesCodeFromKindOrDiagnostic)
{
    const SimError from_kind(SimError::Kind::Io, "disk gone");
    EXPECT_EQ(from_kind.code(), ErrCode::IoError);
    const SimError from_diag(
        SimError::Kind::Io, "bad frame",
        {{"f", "v", "c", "h", ErrCode::CorruptFrame}});
    EXPECT_EQ(from_diag.code(), ErrCode::CorruptFrame);
    // The rendered diagnostic carries the stable mnemonic.
    EXPECT_NE(std::string(from_diag.what()).find("CORRUPT_FRAME"),
              std::string::npos);
}

TEST(ThreadPool, BoundedTrySubmitShedsWhenFull)
{
    ThreadPool pool(1, 2);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    // Occupy the single worker...
    ASSERT_TRUE(pool.trySubmit([&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
    }));
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // ...then fill the queue to capacity.
    ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    // Queue full: the admission-control signal.
    EXPECT_FALSE(pool.trySubmit([&] { ++ran; }));
    EXPECT_EQ(pool.queueDepth(), 2u);
    release = true;
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, BoundedSubmitBlocksUntilSpace)
{
    ThreadPool pool(1, 1);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    ASSERT_TRUE(pool.submit([&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
    }));
    while (pool.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(pool.submit([&] { ++ran; })); // fills the queue
    // This submit must block until the first task drains, then land.
    std::thread blocked([&] {
        EXPECT_TRUE(pool.submit([&] { ++ran; }));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ran.load(), 0); // still parked
    release = true;
    blocked.join();
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, DrainRunsAdmittedWorkAndRefusesNew)
{
    ThreadPool pool(2, 8);
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(pool.submit([&] { ++ran; }));
    pool.drain();
    EXPECT_EQ(ran.load(), 6);
    EXPECT_TRUE(pool.draining());
    // Post-drain the pool refuses everything, both politely and not.
    EXPECT_FALSE(pool.submit([&] { ++ran; }));
    EXPECT_FALSE(pool.trySubmit([&] { ++ran; }));
    EXPECT_EQ(ran.load(), 6);
}

TEST(ThreadPool, UnboundedStaysUnbounded)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

} // namespace
} // namespace ladm
