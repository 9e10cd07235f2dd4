/**
 * @file
 * Tests for GpuSystem-level behaviour: the running clock across kernel
 * launches, boundary flushes, hierarchical network accounting, and the
 * size bound on the per-node outstanding-miss tables.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "config/presets.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/policy_bundle.hh"
#include "interconnect/network.hh"
#include "runtime/malloc_registry.hh"
#include "sched/kernel_wide.hh"
#include "sim/gpu_system.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

class TinyTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId tb, int warp, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= 4)
            return false;
        out.push_back({static_cast<Addr>(tb) * 4096 +
                           static_cast<Addr>(step) * 32,
                       false});
        return true;
    }
};

TEST(GpuSystem, ClockAccumulatesAcrossKernels)
{
    const auto cfg = presets::multiGpu4x4();
    GpuSystem sys(cfg);
    sys.mem().pageTable().place(0, 1 << 26, 0);

    LaunchDims dims;
    dims.grid = {64, 1};
    dims.block = {128, 1};
    dims.loopTrips = 4;
    KernelWideScheduler sched;
    TinyTrace t1, t2;
    const auto a =
        sys.runKernel(dims, t1, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice);
    EXPECT_EQ(sys.now(), a.endCycle);
    const auto b =
        sys.runKernel(dims, t2, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice);
    EXPECT_GE(b.startCycle, a.endCycle);
    EXPECT_GT(b.endCycle, a.endCycle);
    EXPECT_EQ(sys.now(), b.endCycle);
}

TEST(GpuSystem, BoundaryFlushForcesRefetch)
{
    const auto cfg = presets::multiGpu4x4();
    GpuSystem sys(cfg);
    sys.mem().pageTable().place(0, 1 << 26, 0);
    LaunchDims dims;
    dims.grid = {16, 1};
    dims.block = {128, 1};
    dims.loopTrips = 4;
    KernelWideScheduler sched;
    TinyTrace t1, t2, t3;
    sys.runKernel(dims, t1, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice);
    const uint64_t after_first = sys.mem().fetchLocal();
    // Flushed relaunch refetches everything...
    sys.runKernel(dims, t2, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice, /*flush_caches=*/true);
    EXPECT_EQ(sys.mem().fetchLocal(), 2 * after_first);
    // ...an unflushed one hits warm caches.
    sys.runKernel(dims, t3, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice, /*flush_caches=*/false);
    EXPECT_LT(sys.mem().fetchLocal(), 3 * after_first);
}

TEST(HierarchicalNet, SwitchBytesCountOnlyGpuCrossings)
{
    auto net = makeNetwork(presets::multiGpu4x4());
    net->routeDelay(0, 0, 1, 32);  // same GPU: ring only
    EXPECT_EQ(net->switchBytes(), 0u);
    net->routeDelay(0, 0, 5, 32);  // cross GPU
    net->routeDelay(0, 15, 2, 64); // cross GPU
    EXPECT_EQ(net->switchBytes(), 96u);
}

/**
 * The per-node MSHR tables are swept down to the in-flight work the
 * node's warp slots can generate, so a full multiGpu4x4 run keeps every
 * table within mshrCapacityBound() (32768 slots, 512 KB) on both the
 * serial and the sharded access paths. The sweep only drops entries
 * that can never merge again, so the run's metrics are the same under
 * any sweep floor; they are pinned here.
 */
TEST(GpuSystem, MshrTablesStayWithinInFlightBound)
{
    const struct
    {
        int shards;
        const char *metrics;
    } cases[] = {
        {1, "VecAdd,baseline-rr,multi-gpu-4x4,baseline-rr,RTWICE,72748,"
            "10240,491520,163840,30720,460800,93.75,20173184,16060800,0,0,"
            "3000,0,30720,460800,460800"},
        {4, "VecAdd,baseline-rr,multi-gpu-4x4,baseline-rr,RTWICE,69521,"
            "10240,491520,163840,30720,460800,93.75,20201472,15968256,0,0,"
            "3000,0,30720,460800,460800"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE("shards " + std::to_string(c.shards));
        SystemConfig cfg = presets::multiGpu4x4();
        cfg.shards = c.shards;

        auto w = workloads::makeWorkload("VecAdd", 1.0);
        const RunMetrics m = runExperiment(*w, Policy::BaselineRr, cfg);
        EXPECT_EQ(csvRow(m).rfind(c.metrics, 0), 0u) << csvRow(m);

        // The same single launch, driven step by step so the machine
        // is still there to inspect afterwards.
        w = workloads::makeWorkload("VecAdd", 1.0);
        GpuSystem sys(cfg);
        MallocRegistry reg(cfg.pageSize);
        w->allocateAll(reg);
        auto bundle = makeBundle(Policy::BaselineRr);
        const LaunchPlan plan =
            bundle->prepare(w->kernel(), w->dims(), w->argPcs(), reg,
                            sys.mem().pageTable(), cfg);
        auto trace = w->makeTrace(reg);
        std::vector<std::unique_ptr<TraceSource>> extra;
        std::vector<TraceSource *> shard_traces;
        for (int s = 1; s < sys.engineShards(); ++s) {
            extra.push_back(w->makeTrace(reg));
            shard_traces.push_back(extra.back().get());
        }
        const KernelRunStats k = sys.runKernel(
            w->dims(), *trace,
            plan.scheduler->assign(w->dims(), cfg, sys.now()), plan.policy,
            /*flush_caches=*/true, shard_traces);
        EXPECT_EQ(k.cycles(), m.cycles);

        const MemorySystem &mem = sys.mem();
        EXPECT_EQ(mem.mshrCapacityBound(), 32768u);
        for (NodeId n = 0; n < cfg.numNodes(); ++n)
            EXPECT_LE(mem.mshrCapacity(n), mem.mshrCapacityBound())
                << "node " << n;
    }
}

TEST(GpuSystem, DgxPresetGeometry)
{
    const auto cfg = presets::dgx4();
    EXPECT_EQ(cfg.numNodes(), 4);
    EXPECT_EQ(cfg.totalSms(), 320);
    EXPECT_EQ(cfg.topology, Topology::Crossbar);
    GpuSystem sys(cfg); // constructible and validated
    EXPECT_EQ(sys.now(), 0u);
}

} // namespace
} // namespace ladm
