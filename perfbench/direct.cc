#include "direct.hh"

#include <cstring>
#include <memory>

#include "common/sim_error.hh"
#include "runtime/malloc_registry.hh"
#include "sim/gpu_system.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace ladm;

int
SpanLog::begin(uint32_t cell, const char *name, int parent)
{
    Span s;
    s.cell = cell;
    s.name = name;
    s.parent = parent;
    s.startNs = nowNs();
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

double
SpanLog::seconds(const char *name) const
{
    int64_t ns = 0;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

void
SpanLog::writeTraceEvents(std::ostream &os, int pass, bool &first) const
{
    for (const Span &s : spans_) {
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << pass
           << ",\"ts\":" << static_cast<double>(s.startNs) * 1e-3
           << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) * 1e-3
           << ",\"args\":{\"cell\":" << s.cell << ",\"parent\":" << s.parent
           << "}}";
        first = false;
    }
}

const std::vector<const char *> &
setupSpanNames()
{
    static const std::vector<const char *> names = {
        "workloads.make", "sim.system_build",     "workloads.allocate",
        "core.prepare",   "workloads.make_trace", "sched.assign"};
    return names;
}

bool
TimedTrace::warpStep(TbId tb, int warp, int64_t step,
                     std::vector<MemAccess> &out)
{
    ++calls;
    if (!timed_ && !record_)
        return inner_.warpStep(tb, warp, step, out);
    const int64_t t0 = timed_ ? nowNs() : 0;
    const bool more = inner_.warpStep(tb, warp, step, out);
    if (timed_)
        ns += nowNs() - t0;
    if (record_ && more) {
        AccessStream &r = *record_;
        const uint16_t sm = r.tbSm[static_cast<size_t>(tb)];
        for (const MemAccess &a : out) {
            if (r.accesses.size() >= r.cap)
                break;
            r.accesses.push_back({a.addr, r.steps, sm, a.write});
        }
        ++r.steps;
    }
    return more;
}

DirectResult
runCellDirect(const Cell &c, const DirectOptions &o)
{
    const SystemConfig &cfg = c.cfg;
    SpanLog *log = o.spans;
    ScopedSpan cell_span(log, o.cellId, "cell", -1);
    const int parent = cell_span.id();

    DirectResult r;
    std::unique_ptr<Workload> w;
    {
        ScopedSpan s(log, o.cellId, "workloads.make", parent);
        w = workloads::makeWorkload(c.workload, c.scale);
    }
    auto bundle = makeBundle(c.policy);
    std::unique_ptr<GpuSystem> sys_owner;
    {
        ScopedSpan s(log, o.cellId, "sim.system_build", parent);
        sys_owner = std::make_unique<GpuSystem>(cfg);
    }
    GpuSystem &sys = *sys_owner;
    MallocRegistry reg(cfg.pageSize);
    {
        ScopedSpan s(log, o.cellId, "workloads.allocate", parent);
        w->allocateAll(reg);
    }
    LaunchPlan plan;
    {
        ScopedSpan s(log, o.cellId, "core.prepare", parent);
        plan = bundle->prepare(w->kernel(), w->dims(), w->argPcs(), reg,
                               sys.mem().pageTable(), cfg);
    }
    ladm_require(plan.scheduler, "policy bundle produced no scheduler");
    ++sys.registry().group("sched").counter("decisions." +
                                             plan.scheduler->name());
    std::unique_ptr<TraceSource> trace;
    std::vector<std::unique_ptr<TraceSource>> extra;
    {
        ScopedSpan s(log, o.cellId, "workloads.make_trace", parent);
        trace = w->makeTrace(reg);
        for (int i = 1; i < sys.engineShards(); ++i)
            extra.push_back(w->makeTrace(reg));
    }
    std::vector<std::vector<TbId>> queues;
    {
        ScopedSpan s(log, o.cellId, "sched.assign", parent);
        queues = plan.scheduler->assign(w->dims(), cfg, sys.now());
    }
    if (o.setupOnly)
        return r;

    if (o.record) {
        ladm_require(sys.engineShards() == 1,
                     "recording needs a serial cell");
        o.record->tbSm.assign(static_cast<size_t>(w->dims().numTbs()), 0);
        for (size_t n = 0; n < queues.size(); ++n)
            for (size_t i = 0; i < queues[n].size(); ++i)
                o.record->tbSm[static_cast<size_t>(queues[n][i])] =
                    static_cast<uint16_t>(
                        n * static_cast<size_t>(cfg.smsPerChiplet) +
                        i % static_cast<size_t>(cfg.smsPerChiplet));
    }
    std::vector<std::unique_ptr<TimedTrace>> timed;
    timed.push_back(std::make_unique<TimedTrace>(*trace, o.timeWarpSteps,
                                                 o.record));
    std::vector<TraceSource *> shard_traces;
    for (auto &t : extra) {
        timed.push_back(
            std::make_unique<TimedTrace>(*t, o.timeWarpSteps, nullptr));
        shard_traces.push_back(timed.back().get());
    }

    KernelRunStats ks;
    {
        ScopedSpan s(log, o.cellId, "sim.run_kernel", parent);
        const int64_t t0 = nowNs();
        ks = sys.runKernel(w->dims(), *timed[0], queues, plan.policy,
                           /*flush_caches=*/true, shard_traces);
        r.runKernelNs = nowNs() - t0;
    }
    for (const auto &t : timed) {
        r.warpStepCalls += t->calls;
        r.warpStepNs += t->ns;
    }
    if (o.record)
        o.record->cycles = ks.cycles();

    // RunMetrics exactly as runExperiment() fills them for one launch.
    const MemorySystem &mem = sys.mem();
    RunMetrics &m = r.m;
    m.workload = w->name();
    m.policy = bundle->name();
    m.system = cfg.name;
    m.scheduler = plan.scheduler->name();
    m.insertPolicy = plan.policy;
    m.cycles = ks.cycles();
    m.tbCount = static_cast<uint64_t>(ks.tbCount);
    m.warpSteps = ks.warpSteps;
    m.sectorAccesses = ks.sectorAccesses;
    m.warpInstrs = ks.warpInstrs;
    m.fetchLocal = mem.fetchLocal();
    m.fetchRemote = mem.fetchRemote();
    m.nodeFetchLocal.resize(cfg.numNodes(), 0);
    m.nodeFetchRemote.resize(cfg.numNodes(), 0);
    for (NodeId n = 0; n < cfg.numNodes(); ++n) {
        const std::string node = "node" + std::to_string(n);
        m.nodeFetchLocal[n] = static_cast<uint64_t>(
            sys.registry().value(node + ".mem.fetch_local").value_or(0.0));
        m.nodeFetchRemote[n] = static_cast<uint64_t>(
            sys.registry().value(node + ".mem.fetch_remote").value_or(0.0));
    }
    m.offChipPct = mem.offChipFraction() * 100.0;
    m.interNodeBytes = mem.network().interNodeBytes();
    m.interGpuBytes = mem.network().interGpuBytes();
    m.l1HitRate = mem.l1Accesses() ? static_cast<double>(mem.l1Hits()) /
                                         mem.l1Accesses()
                                   : 0.0;
    m.l2HitRate = mem.l2Accesses() ? static_cast<double>(mem.l2Hits()) /
                                         mem.l2Accesses()
                                   : 0.0;
    const double kilo_instr = ks.warpInstrs / 1000.0;
    m.l2Mpki = kilo_instr > 0.0
                   ? (mem.fetchLocal() + mem.fetchRemote()) / kilo_instr
                   : 0.0;
    m.uvmFaults = mem.uvmFaults();
    m.rehomedPages = mem.rehomedPages();
    m.failedNodeAccesses = mem.failedNodeAccesses();
    for (int k = 0; k < kNumTrafficClasses; ++k) {
        const auto tc = static_cast<TrafficClass>(k);
        m.classAccesses[k] = mem.classAccesses(tc);
        m.classHitRate[k] = m.classAccesses[k]
                                ? static_cast<double>(mem.classHits(tc)) /
                                      m.classAccesses[k]
                                : 0.0;
    }

    r.l1Hits = mem.l1Hits();
    r.l1Accesses = mem.l1Accesses();
    r.l2Hits = mem.l2Hits();
    r.l2Accesses = mem.l2Accesses();
    r.mshrMerges = mem.mshrMerges();

    const telemetry::StatRegistry &st = sys.registry();
    r.pdesShards = st.value("engine.pdes.shards").value_or(0.0);
    r.pdesWindows = st.value("engine.pdes.windows").value_or(0.0);
    r.pdesDeferredOps = st.value("engine.pdes.deferred_ops").value_or(0.0);
    for (int s = 0; s < static_cast<int>(r.pdesShards); ++s)
        r.pdesBarrierWaitNs +=
            st.value("engine.pdes.shard" + std::to_string(s) +
                     ".barrier_wait_ns")
                .value_or(0.0);
    r.fallback = sys.engine().pdesFallback();
    return r;
}

} // namespace perfbench
