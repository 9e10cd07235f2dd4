/**
 * @file
 * Tests for the NUMA memory path: local vs remote service, caching,
 * MSHR merging, RTWICE/RONCE insertion, UVM first touch, traffic
 * classes, and the kernel-boundary flush. The AccessGolden pins fix
 * every block of the access path -- fault injection, page migration,
 * host memory, latency attribution and the heatmap included -- to the
 * values the path produced before it was reworked.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/policy_bundle.hh"
#include "mem/placement.hh"
#include "obs/attribution.hh"
#include "obs/heatmap.hh"
#include "runtime/malloc_registry.hh"
#include "sim/gpu_system.hh"
#include "sim/memory_system.hh"
#include "telemetry/session.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest() : cfg_(presets::multiGpu4x4()), mem_(cfg_) {}

    /** First SM of a node. */
    SmId
    smOf(NodeId n) const
    {
        return n * cfg_.smsPerChiplet;
    }

    SystemConfig cfg_;
    MemorySystem mem_;
};

TEST_F(MemorySystemTest, LocalAccessStaysOnNode)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    const Cycles t = mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(mem_.fetchLocal(), 1u);
    EXPECT_EQ(mem_.fetchRemote(), 0u);
    EXPECT_EQ(mem_.network().interNodeBytes(), 0u);
}

TEST_F(MemorySystemTest, RemoteAccessCrossesFabric)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_EQ(mem_.fetchLocal(), 0u);
    EXPECT_EQ(mem_.fetchRemote(), 1u);
    EXPECT_GT(mem_.network().interNodeBytes(), 0u);
    EXPECT_DOUBLE_EQ(mem_.offChipFraction(), 1.0);
}

TEST_F(MemorySystemTest, RemoteIsSlowerThanLocal)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.pageTable().place(0x20000, 4096, 9);
    const Cycles local = mem_.access(0, smOf(2), 0x10000, false);
    const Cycles remote = mem_.access(0, smOf(2), 0x20000, false);
    EXPECT_GT(remote, local);
}

TEST_F(MemorySystemTest, SecondAccessHitsL1)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    const Cycles t2 = mem_.access(t1, smOf(2), 0x10000, false);
    EXPECT_EQ(t2, t1 + cfg_.l1LatencyCycles);
    EXPECT_EQ(mem_.l1Hits(), 1u);
    EXPECT_EQ(mem_.fetchRemote(), 1u); // no refetch
}

TEST_F(MemorySystemTest, PeerSmHitsSharedL2)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    // A different SM on the same node finds it in the node's L2.
    const Cycles t2 = mem_.access(t1, smOf(2) + 1, 0x10000, false);
    EXPECT_LT(t2 - t1, 300u);
    EXPECT_EQ(mem_.fetchRemote(), 1u);
}

TEST_F(MemorySystemTest, MshrMergesConcurrentMisses)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    // Another SM on the same node asks while the fetch is in flight.
    const Cycles t2 = mem_.access(1, smOf(2) + 3, 0x10000, false);
    EXPECT_EQ(t2, t1);
    EXPECT_EQ(mem_.mshrMerges(), 1u);
    EXPECT_EQ(mem_.fetchRemote(), 1u);
}

TEST_F(MemorySystemTest, FirstTouchMapsUnplacedPage)
{
    EXPECT_FALSE(mem_.pageTable().isMapped(0x50000));
    mem_.access(0, smOf(5), 0x50000, false);
    EXPECT_EQ(mem_.pageTable().lookup(0x50000), 5);
    EXPECT_EQ(mem_.uvmFaults(), 1u);
    EXPECT_EQ(mem_.fetchLocal(), 1u);
}

TEST_F(MemorySystemTest, PageFaultCostIsCharged)
{
    auto cfg = presets::multiGpu4x4();
    cfg.pageFaultCycles = 30000;
    MemorySystem mem(cfg);
    mem.pageTable().place(0x10000, 4096, 0);
    const Cycles mapped = mem.access(0, 0, 0x10000, false);
    const Cycles faulted = mem.access(0, 0, 0x90000, false);
    EXPECT_GE(faulted, mapped + 30000);
}

TEST_F(MemorySystemTest, RTwiceCachesAtHome)
{
    mem_.setInsertPolicy(L2InsertPolicy::RTwice);
    mem_.pageTable().place(0x10000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_TRUE(mem_.l2(9).probe(0x10000));
    EXPECT_TRUE(mem_.l2(2).probe(0x10000));
}

TEST_F(MemorySystemTest, ROnceBypassesHomeL2)
{
    mem_.setInsertPolicy(L2InsertPolicy::ROnce);
    mem_.pageTable().place(0x10000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_FALSE(mem_.l2(9).probe(0x10000));
    EXPECT_TRUE(mem_.l2(2).probe(0x10000)); // requester side still caches
}

TEST_F(MemorySystemTest, ROnceStillCachesLocalTraffic)
{
    mem_.setInsertPolicy(L2InsertPolicy::ROnce);
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.access(0, smOf(2), 0x10000, false);
    EXPECT_TRUE(mem_.l2(2).probe(0x10000));
}

TEST_F(MemorySystemTest, TrafficClassAccounting)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.pageTable().place(0x20000, 4096, 9);
    mem_.access(0, smOf(2), 0x10000, false); // LOCAL-LOCAL at node 2
    mem_.access(0, smOf(2), 0x20000, false); // LOCAL-REMOTE at 2,
                                             // REMOTE-LOCAL at 9
    EXPECT_EQ(mem_.classAccesses(TrafficClass::LocalLocal), 1u);
    EXPECT_EQ(mem_.classAccesses(TrafficClass::LocalRemote), 1u);
    EXPECT_EQ(mem_.classAccesses(TrafficClass::RemoteLocal), 1u);
}

TEST_F(MemorySystemTest, FlushDropsCaches)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    Cycles t = mem_.access(0, smOf(2), 0x10000, false);
    mem_.flushCaches();
    EXPECT_FALSE(mem_.l2(2).probe(0x10000));
    mem_.access(t + 10000, smOf(2), 0x10000, false);
    EXPECT_EQ(mem_.fetchLocal(), 2u); // refetched after the flush
}

TEST_F(MemorySystemTest, WritesAreWriteThroughL1)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    mem_.access(0, smOf(2), 0x10000, true);
    mem_.access(1000, smOf(2), 0x10000, true);
    // Both writes reach the L2 level (no L1 write hits).
    EXPECT_EQ(mem_.l1Accesses(), 0u);
    EXPECT_GE(mem_.l2(2).accesses(), 2u);
}

// Regression: the requester-side L2 allocation decision must see the
// *resolved* home, not the pre-fault page-table lookup. With remote
// caching off and first-touch pages interleaved across nodes, a cold
// access whose page homes remotely used to slip into the requester's
// (memory-side) L2 because the pre-fault lookup returned "unmapped".
TEST_F(MemorySystemTest, ColdRemoteFirstTouchRespectsMemorySideL2)
{
    auto cfg = presets::multiGpu4x4();
    cfg.remoteCachingL2 = false;
    cfg.uvmFirstTouchInterleave = true;
    MemorySystem mem(cfg);

    // Page 0x50 homes at 0x50 % 16 == node 0; touch it from node 2.
    const Addr addr = 0x50000;
    EXPECT_FALSE(mem.pageTable().isMapped(addr));
    mem.access(0, smOf(2), addr, false);

    EXPECT_EQ(mem.pageTable().lookup(addr), 0);
    EXPECT_EQ(mem.fetchRemote(), 1u);
    // Memory-side L2: only the home may hold the line.
    EXPECT_FALSE(mem.l2(2).probe(addr));
    EXPECT_TRUE(mem.l2(0).probe(addr)); // RTWICE caches at home
}

// Regression: resetStats() must drop the outstanding-miss (MSHR) maps.
// A completion time recorded before the reset used to satisfy merges in
// the next measurement window, handing out a stale (huge) timestamp.
TEST_F(MemorySystemTest, ResetStatsDropsPendingMisses)
{
    mem_.pageTable().place(0x10000, 4096, 9);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false);
    ASSERT_GT(t1, 300u); // the remote fetch is genuinely in flight

    mem_.resetStats();

    // A different SM asks "while the old fetch would still be in
    // flight". The L2 line survives the reset, so this must be a cheap
    // L2 hit -- not a merge against the previous window's completion.
    const Cycles t2 = mem_.access(1, smOf(2) + 3, 0x10000, false);
    EXPECT_EQ(mem_.mshrMerges(), 0u);
    EXPECT_LT(t2, t1);
}

// Regression: resetStats() used to skip the bandwidth servers entirely,
// leaking the previous window's bytes into the next one; the naive fix
// (full reset()) would instead warp every link back to idle mid-run.
// The split contract: counters restart at zero, occupancy survives.
TEST_F(MemorySystemTest, ResetStatsClearsBytesButKeepsLinksBusy)
{
    mem_.pageTable().place(0x10000, 1 << 20, 9);
    for (int i = 0; i < 64; ++i)
        mem_.access(0, smOf(2), 0x10000 + static_cast<Addr>(i) * 4096,
                    false);
    ASSERT_GT(mem_.network().interNodeBytes(), 0u);
    ASSERT_EQ(mem_.fetchRemote(), 64u);

    mem_.resetStats();

    // Statistics restart at zero...
    EXPECT_EQ(mem_.fetchLocal(), 0u);
    EXPECT_EQ(mem_.fetchRemote(), 0u);
    EXPECT_EQ(mem_.network().interNodeBytes(), 0u);

    // ...but the fabric is still occupied: the same remote access on a
    // fresh machine is faster than one queued behind the backlog.
    MemorySystem fresh(cfg_);
    fresh.pageTable().place(0x10000, 1 << 20, 9);
    const Cycles behind = mem_.access(0, smOf(2), 0xF0000, false);
    const Cycles idle = fresh.access(0, smOf(2), 0xF0000, false);
    EXPECT_GT(behind, idle);
}

// Regression: a write used to skip the L1 entirely (write-through
// no-allocate), leaving a previously-read copy of the sector stale. The
// write must invalidate the matching L1 sector so the next read refetches.
TEST_F(MemorySystemTest, WriteInvalidatesL1Sector)
{
    mem_.pageTable().place(0x10000, 4096, 2);
    const Cycles t1 = mem_.access(0, smOf(2), 0x10000, false); // fills L1
    mem_.access(t1, smOf(2), 0x10000, true);                   // must drop it
    mem_.access(t1 + 1000, smOf(2), 0x10000, false);           // refetch
    EXPECT_EQ(mem_.l1Hits(), 0u);
    EXPECT_EQ(mem_.l1Accesses(), 2u); // writes don't count as L1 accesses
}

TEST_F(MemorySystemTest, MonolithicNeverGoesOffChip)
{
    auto cfg = presets::monolithic256();
    MemorySystem mem(cfg);
    placeContiguousChunks(mem.pageTable(), 0, 1 << 20, allNodes(1), 0);
    for (Addr a = 0; a < (1 << 20); a += 4096)
        mem.access(0, static_cast<SmId>(a / 4096 % 256), a, false);
    EXPECT_EQ(mem.fetchRemote(), 0u);
    EXPECT_EQ(mem.network().interNodeBytes(), 0u);
}

TEST_F(MemorySystemTest, CompletionIsMonotoneWithIssueTime)
{
    mem_.pageTable().place(0, 1 << 20, 9);
    Cycles prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycles now = static_cast<Cycles>(i);
        const Cycles done =
            mem_.access(now, smOf(2), static_cast<Addr>(i) * 32, false);
        EXPECT_GE(done, now);
        // Completions of same-cost accesses never regress in time.
        EXPECT_GE(done + 2000, prev);
        prev = done;
    }
}

// --- golden pins --------------------------------------------------------

/** FNV-1a of @p n bytes at @p p, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 0x100000001b3ull;
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** One workload at scale 0.25 on the serial loop, as a CSV row. */
std::string
goldenRow(SystemConfig cfg, const char *workload = "VecAdd",
          Policy policy = Policy::BaselineRr)
{
    ::unsetenv("LADM_SHARDS");
    cfg.shards = 1;
    auto w = workloads::makeWorkload(workload, 0.25);
    return csvRow(runExperiment(*w, policy, cfg));
}

TEST(AccessGolden, DirectReplayPinsCyclesAndState)
{
    // Random reads and writes from every SM over pages that are half
    // placed round-robin and half left to first touch, through 64 KB
    // L2s: dirty remote lines are evicted all the time, so writebacks,
    // UVM faults and TLB fills all land in the pinned image.
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.l2SizePerChiplet = 64 * 1024;
    MemorySystem mem(cfg);
    const Bytes page = cfg.pageSize;
    constexpr int kPages = 512;
    for (int p = 0; p < kPages; p += 2)
        mem.pageTable().place(static_cast<Addr>(p) * page, page,
                              static_cast<NodeId>(p / 2 % cfg.numNodes()));

    std::mt19937_64 rng(16);
    uint64_t h = kFnvBasis;
    Cycles now = 0;
    for (int i = 0; i < 200000; ++i) {
        now += rng() % 4;
        const auto sm = static_cast<SmId>(rng() % cfg.totalSms());
        const Addr addr = rng() % (kPages * page);
        const bool write = rng() % 3 == 0;
        const Cycles done = mem.access(now, sm, addr, write);
        h = fnv1a(h, &done, sizeof done);
    }
    serial::Writer w;
    w.beginSection(1);
    w.io(mem);
    w.endSection();
    const std::string image = w.finish(0);

    EXPECT_EQ(h, 7768478924889547668u);
    EXPECT_EQ(fnv1a(kFnvBasis, image.data(), image.size()),
              11591807470638735206u);
    EXPECT_EQ(mem.writebackSectors(), 124343u);
    EXPECT_EQ(mem.uvmFaults(), 256u);
    EXPECT_EQ(mem.fetchRemote(), 186264u);
}

TEST(AccessGolden, FailedChipletRehomedRow)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.faultSpec = "chiplet:5:fail@0";
    EXPECT_EQ(goldenRow(cfg),
              "VecAdd,baseline-rr,multi-gpu-4x4,baseline-rr,RTWICE,48660,"
              "2560,122880,40960,8640,114240,92.9688,4871680,3701632,0,0,"
              "3000,0,8640,114240,114240,0,0,0,60,0,0,0,0,0,0,0,0,0,0,0,0,"
              "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,");
}

TEST(AccessGolden, FailedChipletObliviousRow)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.faultSpec = "chiplet:5:fail@0";
    cfg.faultDegradation = false;
    EXPECT_EQ(goldenRow(cfg),
              "VecAdd,baseline-rr,multi-gpu-4x4,baseline-rr,RTWICE,51220,"
              "2560,122880,40960,7680,115200,93.75,4656384,3702272,0,0,"
              "3000,0,7680,115200,115200,0,0,0,0,7680,0,0,0,0,0,0,0,0,0,0,"
              "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,");
}

TEST(AccessGolden, PageMigrationRow)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.pageMigration = true;
    cfg.migrationThreshold = 8;
    EXPECT_EQ(goldenRow(cfg, "PageRank"),
              "PageRank,baseline-rr,multi-gpu-4x4,baseline-rr,RTWICE,83148,"
              "512,992769,1.1035e+06,63376,130393,67.293,16590312,7780440,"
              "0.260404,0.697733,175.596,0,172368,464335,130393,0.632322,"
              "0.719183,0.707814,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
              "0,0,0,0,0,0,0,0,0,0,0,");
}

TEST(AccessGolden, OversubscribedHostMemoryRow)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.hbmCapacityPerNode = 64 * 1024;
    EXPECT_EQ(goldenRow(cfg),
              "VecAdd,baseline-rr,multi-gpu-4x4,baseline-rr,RTWICE,1338115,"
              "2560,122880,40960,7680,115200,93.75,4656384,3702272,0,0,"
              "3000,0,7680,115200,115200,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
              "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,");
}

class AccessGoldenObs : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::session().resetForTest();
        TelemetryOptions opts;
        opts.obsAttribution = true;
        opts.obsHeatmap = true;
        telemetry::session().configure(opts);
    }
    void TearDown() override { telemetry::session().resetForTest(); }
};

TEST_F(AccessGoldenObs, AttributionAndHeatmap)
{
    const SystemConfig cfg = presets::multiGpu4x4();
    EXPECT_EQ(goldenRow(cfg, "PageRank", Policy::BatchFt),
              "PageRank,batch+ft,multi-gpu-4x4,batch-ft,RTWICE,33884,512,"
              "992769,1.1035e+06,77773,123993,61.4539,4959720,3889440,"
              "0.231469,0.725822,182.843,693,239039,412434,123993,0.674643,"
              "0.699363,0.912495,0,0,28,28,28,3.55175,562.714,646.943,"
              "124.94,211.314,235.063,261.359,1946.94,2569.22,7142.63,"
              "24058.4,25785.3,437.335,1668.58,2421.82,831.778,16352,"
              "24183.3,0,0,0,0,0,0,203.606,12226.5,23323,");

    // The same launch on a machine kept alive to read the observers.
    auto w = workloads::makeWorkload("PageRank", 0.25);
    GpuSystem sys(cfg);
    MallocRegistry reg(cfg.pageSize);
    w->allocateAll(reg);
    auto bundle = makeBundle(Policy::BatchFt);
    const LaunchPlan plan =
        bundle->prepare(w->kernel(), w->dims(), w->argPcs(), reg,
                        sys.mem().pageTable(), cfg);
    auto trace = w->makeTrace(reg);
    sys.runKernel(w->dims(), *trace,
                  plan.scheduler->assign(w->dims(), cfg, sys.now()),
                  plan.policy, /*flush_caches=*/true);

    obs::Observer *ob = sys.observer();
    ASSERT_NE(ob, nullptr);
    std::string buckets;
    for (size_t c = 0; c < obs::kNumLatComponents; ++c) {
        const LogHistogram hist = ob->attribution()->machineHist(
            static_cast<obs::LatComponent>(c));
        buckets +=
            std::string(toString(static_cast<obs::LatComponent>(c))) + ":";
        for (size_t b = 0; b < LogHistogram::kNumBuckets; ++b)
            if (hist.bucketCount(b))
                buckets += std::to_string(b) + "=" +
                           std::to_string(hist.bucketCount(b)) + ",";
        buckets += " ";
    }
    EXPECT_EQ(buckets,
              "l1:5=992769, xbar:1=213233,2=58574,3=14283,4=6094,5=4153,"
              "6=9248,7=16464,8=67977,9=89004,10=38328, l2:7=527480,"
              "8=123993, ring:7=8203,8=5119,9=2699,10=5783,11=4011,12=942,"
              " gpu_link:9=22905,10=7520,11=2267,12=5268,13=14329,14=22800,"
              "15=22147, dram:8=31730,9=17762,10=31166,11=5614,12=2351,"
              " mshr_wait:1=54,2=92,3=230,4=674,5=973,6=2147,7=4408,8=9420,"
              "9=23503,10=22815,11=7901,12=6071,13=11065,14=16638,15=5510,"
              " fault_stall: other: total:5=229855,6=1152,7=1764,8=446294,"
              "9=59955,10=86598,11=53876,12=17898,13=24680,14=42759,"
              "15=27938, ");
    uint64_t nodes_h = kFnvBasis;
    for (NodeId n = 0; n < cfg.numNodes(); ++n) {
        for (size_t c = 0; c < obs::kNumLatComponents; ++c) {
            const LogHistogram &hist = ob->attribution()->nodeHist(
                n, static_cast<obs::LatComponent>(c));
            for (size_t b = 0; b < LogHistogram::kNumBuckets; ++b) {
                const uint64_t v = hist.bucketCount(b);
                nodes_h = fnv1a(nodes_h, &v, sizeof v);
            }
        }
    }
    EXPECT_EQ(nodes_h, 4012753203850162804u);
    const std::vector<uint64_t> &matrix = ob->heatmap()->matrix();
    EXPECT_EQ(fnv1a(kFnvBasis, matrix.data(),
                    matrix.size() * sizeof(uint64_t)),
              2175829505501116326u);
    EXPECT_EQ(ob->heatmap()->totalFetches(), 201766u);
}

} // namespace
} // namespace ladm
