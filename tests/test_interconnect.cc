/**
 * @file
 * Tests for bandwidth servers, links, and the fabric in every topology.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/bandwidth_server.hh"
#include "common/serial.hh"
#include "config/presets.hh"
#include "interconnect/network.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{
namespace
{

TEST(BandwidthServer, ServiceRate)
{
    BandwidthServer s(32.0, 0); // 32 B/cycle
    // 10 transfers of 320B issued at t=0: each occupies 10 cycles.
    Cycles total = 0;
    for (int i = 0; i < 10; ++i)
        total = s.transfer(0, 320);
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(s.totalBytes(), 3200u);
    EXPECT_EQ(s.busyCycles(), 100u);
}

TEST(BandwidthServer, FixedLatencyAdds)
{
    BandwidthServer s(32.0, 50);
    EXPECT_EQ(s.transfer(0, 32), 0u + 1 + 50);
}

TEST(BandwidthServer, FractionalAccumulation)
{
    BandwidthServer s(64.0, 0); // 32B = 0.5 cycles
    // 8 sector transfers = 4 busy cycles total, not 0 and not 8.
    Cycles last = 0;
    for (int i = 0; i < 8; ++i)
        last = s.transfer(0, 32);
    EXPECT_EQ(s.busyCycles(), 4u);
    EXPECT_EQ(last, 4u);
}

TEST(BandwidthServer, IdleIsFree)
{
    BandwidthServer s(32.0, 0);
    s.transfer(0, 3200); // busy till 100
    // A transfer issued long after the backlog drains pays no queue.
    EXPECT_EQ(s.book(1000, 32), 1u);
}

TEST(BandwidthServer, MonotoneBookingQueues)
{
    BandwidthServer s(32.0, 0);
    EXPECT_EQ(s.book(0, 320), 10u);
    // Issued at t=5, must wait until the first transfer's slot ends.
    EXPECT_EQ(s.book(5, 320), 5u + 10);
}

// Regression: a measurement-window boundary must clear the byte/busy
// counters WITHOUT warping the server's availability back to cycle 0.
// Before resetStats() was split out of reset(), a window reset either
// left the previous window's bytes in the counters or let the next
// transfer start in the past on a still-occupied link.
TEST(BandwidthServer, ResetStatsPreservesTimingState)
{
    BandwidthServer s(32.0, 0);
    s.book(0, 3200); // occupies the server until cycle 100
    ASSERT_EQ(s.nextFree(), 100u);
    ASSERT_EQ(s.totalBytes(), 3200u);

    s.resetStats();
    EXPECT_EQ(s.totalBytes(), 0u);
    EXPECT_EQ(s.busyCycles(), 0u);
    EXPECT_EQ(s.nextFree(), 100u); // the backlog did not vanish

    // A transfer issued at cycle 0 still queues behind the backlog.
    EXPECT_EQ(s.book(0, 32), 100u + 1);
    EXPECT_EQ(s.totalBytes(), 32u); // only the new window's bytes
}

TEST(BandwidthServer, ResetClears)
{
    BandwidthServer s(32.0, 7);
    s.transfer(0, 6400);
    s.reset();
    EXPECT_EQ(s.totalBytes(), 0u);
    EXPECT_EQ(s.nextFree(), 0u);
    EXPECT_EQ(s.transfer(0, 32), 1u + 7);
}

/** A flat ring of @p nodes with per-direction segment bandwidth
 *  @p seg_bpc bytes/cycle and hop latency @p hop. */
SystemConfig
ringConfig(int nodes, double seg_bpc, Cycles hop)
{
    SystemConfig cfg = presets::mcmRing(nodes, 2.0 * seg_bpc);
    cfg.clockGhz = 1.0; // GB/s == bytes/cycle
    cfg.ringHopLatencyCycles = hop;
    return cfg;
}

TEST(RingNetwork, ShortestDirection)
{
    // 8-node ring, generous bandwidth so only hop latency matters.
    auto ring = makeNetwork(ringConfig(8, 1e9, /*hop=*/10));
    EXPECT_EQ(ring->routeDelay(0, 0, 0, 32), 0u);
    EXPECT_EQ(ring->routeDelay(0, 0, 1, 32), 10u);
    EXPECT_EQ(ring->routeDelay(0, 0, 4, 32), 40u); // either way: 4 hops
    EXPECT_EQ(ring->routeDelay(0, 0, 7, 32), 10u); // counter-clockwise
    EXPECT_EQ(ring->routeDelay(0, 6, 1, 32), 30u); // wraps
}

TEST(RingNetwork, SegmentContention)
{
    auto ring = makeNetwork(ringConfig(4, 32.0, 0));
    // Saturate segment 0->1 with 100 transfers of 320B.
    Cycles last = 0;
    for (int i = 0; i < 100; ++i)
        last = ring->routeDelay(0, 0, 1, 320);
    EXPECT_EQ(last, 1000u);
    // The opposite direction is unaffected.
    EXPECT_EQ(ring->routeDelay(0, 1, 0, 320), 10u);
}

TEST(Network, MonolithicNeverRoutes)
{
    const auto cfg = presets::monolithic256();
    auto net = makeNetwork(cfg);
    EXPECT_EQ(net->routeDelay(0, 0, 0, 32), 0u);
    EXPECT_EQ(net->interNodeBytes(), 0u);
}

TEST(Network, CrossbarCountsBytes)
{
    auto cfg = presets::multiGpuFlat(4, 90.0);
    auto net = makeNetwork(cfg);
    net->routeDelay(0, 0, 1, 32);
    net->routeDelay(0, 2, 3, 32);
    net->routeDelay(0, 1, 1, 999); // local: not counted
    EXPECT_EQ(net->interNodeBytes(), 64u);
    EXPECT_EQ(net->interGpuBytes(), 64u); // flat: every node is a GPU
}

TEST(Network, HierarchicalDistinguishesGpuCrossings)
{
    const auto cfg = presets::multiGpu4x4();
    auto net = makeNetwork(cfg);
    // Nodes 0 and 1 share GPU 0.
    net->routeDelay(0, 0, 1, 32);
    EXPECT_EQ(net->interNodeBytes(), 32u);
    EXPECT_EQ(net->interGpuBytes(), 0u);
    // Nodes 0 and 4 are on different GPUs.
    net->routeDelay(0, 0, 4, 32);
    EXPECT_EQ(net->interNodeBytes(), 64u);
    EXPECT_EQ(net->interGpuBytes(), 32u);
}

TEST(Network, HierarchicalIntraGpuIsCheaper)
{
    const auto cfg = presets::multiGpu4x4();
    auto net = makeNetwork(cfg);
    const Cycles intra = net->routeDelay(0, 0, 1, 32);
    const Cycles inter = net->routeDelay(0, 0, 5, 32);
    EXPECT_LT(intra, inter);
}

TEST(Network, BandwidthScalingMatters)
{
    // Fig. 4's premise: more link bandwidth, less queueing delay.
    auto slow_cfg = presets::multiGpuFlat(4, 90.0);
    auto fast_cfg = presets::multiGpuFlat(4, 360.0);
    auto slow = makeNetwork(slow_cfg);
    auto fast = makeNetwork(fast_cfg);
    Cycles t_slow = 0, t_fast = 0;
    for (int i = 0; i < 1000; ++i) {
        t_slow = std::max(t_slow, slow->routeDelay(0, 0, 1, 128));
        t_fast = std::max(t_fast, fast->routeDelay(0, 0, 1, 128));
    }
    EXPECT_GT(t_slow, 3 * t_fast);
}

TEST(Network, ResetZeroesCounters)
{
    const auto cfg = presets::multiGpu4x4();
    auto net = makeNetwork(cfg);
    net->routeDelay(0, 0, 9, 32);
    net->resetStats();
    EXPECT_EQ(net->interNodeBytes(), 0u);
    EXPECT_EQ(net->interGpuBytes(), 0u);
    EXPECT_EQ(net->switchBytes(), 0u);
}

// Regression: a cross-GPU transfer scaled (and counted) both ring legs
// even when a leg had no hop, so a transfer leaving GPU 0 from its port
// chiplet counted a crossing of GPU 0's severed ring it never rode.
TEST(Network, SeveredRingCountsOnlyTraversedLegs)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.faultSpec = "ring:0:sever@0";
    auto net = makeNetwork(cfg);
    net->routeDelay(0, 0, 4, 32); // port chiplet to port chiplet
    EXPECT_EQ(net->severedCrossings(), 0u);
    net->routeDelay(0, 4, 0, 32);
    EXPECT_EQ(net->severedCrossings(), 0u);
    net->routeDelay(0, 4, 5, 32); // GPU 1's healthy ring
    EXPECT_EQ(net->severedCrossings(), 0u);
    net->routeDelay(0, 1, 4, 32); // rides GPU 0's ring to its port
    EXPECT_EQ(net->severedCrossings(), 1u);
    net->routeDelay(0, 0, 2, 32); // inside GPU 0
    EXPECT_EQ(net->severedCrossings(), 2u);
}

// The PDES lookahead the fabric derives from its own structure, pinned
// to the values the per-topology switch in SystemConfig used to give.
TEST(Network, MinCrossNodeLatencyPerPreset)
{
    EXPECT_EQ(makeNetwork(presets::multiGpu4x4())->minCrossNodeLatency(),
              32u);
    EXPECT_EQ(makeNetwork(presets::monolithic256())->minCrossNodeLatency(),
              0u);
    EXPECT_EQ(
        makeNetwork(presets::multiGpuFlat(4, 90.0))->minCrossNodeLatency(),
        128u);
    EXPECT_EQ(
        makeNetwork(presets::mcmRing(4, 1400.0))->minCrossNodeLatency(),
        16u);
    EXPECT_EQ(makeNetwork(presets::dgx4())->minCrossNodeLatency(), 128u);
}

// --- golden route/state/registry digests -----------------------------------
//
// Values computed on the per-topology class hierarchy this fabric
// replaced, before any change to it: every delay, byte total, checkpoint
// byte and registry gauge must stay bit-identical.

uint64_t
fnv1a(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

struct GoldenDigest
{
    uint64_t delays;
    Bytes interNode;
    Bytes interGpu;
    uint64_t state;
    uint64_t registry;
    size_t gauges;
};

/**
 * Route a fixed 10k-transfer sequence (non-decreasing issue times,
 * uniform src/dst including src == dst, five payload sizes) and digest
 * the fabric: delay sequence, byte totals, checkpoint bytes, and every
 * registry gauge read at the final cycle.
 */
GoldenDigest
digestNetwork(const SystemConfig &cfg)
{
    auto net = makeNetwork(cfg);
    const int nodes = cfg.numNodes();
    static constexpr Bytes kSizes[] = {8, 32, 64, 128, 4096};
    uint64_t x = 0x9e3779b97f4a7c15ull;
    auto draw = [&x] {
        x += 0x9e3779b97f4a7c15ull;
        uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    GoldenDigest g{};
    g.delays = kFnvBasis;
    Cycles now = 0;
    for (int i = 0; i < 10000; ++i) {
        now += draw() % 4;
        const auto src = static_cast<NodeId>(draw() % nodes);
        const auto dst = static_cast<NodeId>(draw() % nodes);
        const Bytes bytes = kSizes[draw() % 5];
        const uint64_t d = net->routeDelay(now, src, dst, bytes);
        g.delays = fnv1a(g.delays, &d, sizeof d);
    }
    g.interNode = net->interNodeBytes();
    g.interGpu = net->interGpuBytes();

    serial::Writer w;
    w.beginSection(1);
    w.io(*net);
    w.endSection();
    const std::string img = w.finish(0);
    g.state = fnv1a(kFnvBasis, img.data(), img.size());

    telemetry::StatRegistry reg;
    net->registerStats(reg, [now] { return now; });
    g.registry = kFnvBasis;
    reg.visit([&g](const std::string &path, double v, StatKind kind) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "=%.17g/%d\n", v,
                      static_cast<int>(kind));
        g.registry = fnv1a(g.registry, path.data(), path.size());
        g.registry = fnv1a(g.registry, buf, std::strlen(buf));
        ++g.gauges;
    });
    return g;
}

void
expectDigest(const SystemConfig &cfg, const GoldenDigest &want)
{
    const GoldenDigest got = digestNetwork(cfg);
    EXPECT_EQ(got.delays, want.delays);
    EXPECT_EQ(got.interNode, want.interNode);
    EXPECT_EQ(got.interGpu, want.interGpu);
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.registry, want.registry);
    EXPECT_EQ(got.gauges, want.gauges);
}

TEST(NetworkGolden, Crossbar)
{
    expectDigest(presets::multiGpuFlat(4, 90.0),
                 {16661607476069260877ull, 6494488, 6494488,
                  31236861426318963ull, 3072321037267430511ull, 26});
}

TEST(NetworkGolden, Ring)
{
    expectDigest(presets::mcmRing(4, 1400.0),
                 {4763820194309696228ull, 6494488, 0,
                  1174914656650561611ull, 15524252319471096961ull, 26});
}

TEST(NetworkGolden, Hierarchical)
{
    expectDigest(presets::multiGpu4x4(),
                 {1619333732775602107ull, 8086824, 6443456,
                  7504572432705117901ull, 17263095619976255718ull, 123});
}

TEST(NetworkGolden, Monolithic)
{
    expectDigest(presets::monolithic256(),
                 {11206546370022952229ull, 0, 0, 2301680729983983057ull,
                  8234748532686769525ull, 2});
}

TEST(NetworkGolden, HierarchicalSeveredLink)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.faultSpec = "link:0-1:sever@0";
    expectDigest(cfg, {16109657061639611902ull, 8086824, 6443456,
                       10653635705776516712ull, 2760736546442160841ull,
                       124});
}

TEST(NetworkGolden, HierarchicalDegradedRing)
{
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.faultSpec = "ring:1:0.5@0";
    expectDigest(cfg, {17430305025665291800ull, 8086824, 6443456,
                       7737975995430024687ull, 8271348044323358978ull,
                       124});
}

} // namespace
} // namespace ladm
