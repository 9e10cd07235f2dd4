#include "replay.hh"

#include <algorithm>
#include <memory>

#include "cache/cache.hh"
#include "common/bandwidth_server.hh"
#include "interconnect/network.hh"
#include "mem/address.hh"
#include "runtime/malloc_registry.hh"
#include "sim/event_queue.hh"
#include "sim/memory_system.hh"
#include "sim/mshr_table.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace ladm;

namespace
{

/** Keeps the replayed results observable so no loop is optimised away. */
volatile uint64_t g_sink = 0;

/** Completion delay the MSHR replay gives every miss it inserts. */
constexpr Cycles kMissCycles = 400;

/** The MSHR sweep floor MemorySystem uses. */
constexpr size_t kSweepFloor = size_t{1} << 16;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Time @p body (which runs @p ops operations on a fresh instance made
 * by @p make) @p repeats times; median nanoseconds per operation.
 */
template <typename Make, typename Body>
double
nsPerOp(int repeats, size_t ops, Make make, Body body)
{
    std::vector<double> samples;
    for (int r = 0; r < repeats; ++r) {
        auto inst = make();
        const int64_t t0 = nowNs();
        g_sink = g_sink + body(*inst);
        const int64_t t1 = nowNs();
        samples.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(std::max<size_t>(ops, 1)));
    }
    return median(samples);
}

/** A MemorySystem whose page table holds @p c's placement. */
struct PlacedMemory
{
    std::unique_ptr<Workload> workload;
    MallocRegistry reg;
    std::unique_ptr<MemorySystem> mem;

    explicit PlacedMemory(const Cell &c)
        : workload(workloads::makeWorkload(c.workload, c.scale)),
          reg(c.cfg.pageSize), mem(std::make_unique<MemorySystem>(c.cfg))
    {
        workload->allocateAll(reg);
        auto bundle = makeBundle(c.policy);
        const LaunchPlan plan = bundle->prepare(
            workload->kernel(), workload->dims(), workload->argPcs(), reg,
            mem->pageTable(), c.cfg);
        mem->setInsertPolicy(plan.policy);
    }
};

} // namespace

LayerCosts
replayLayers(const Cell &c, const AccessStream &stream, int repeats)
{
    const SystemConfig &cfg = c.cfg;
    const std::vector<AccessStream::Access> &acc = stream.accesses;
    const size_t n = acc.size();
    LayerCosts out;
    if (n == 0)
        return out;

    std::vector<Cycles> stamp(n);
    const uint64_t steps = std::max<uint64_t>(stream.steps, 1);
    for (size_t i = 0; i < n; ++i)
        stamp[i] = static_cast<Cycles>(
            static_cast<unsigned __int128>(acc[i].step) * stream.cycles /
            steps);
    auto nodeOf = [&](size_t i) {
        return static_cast<NodeId>(acc[i].sm / cfg.smsPerChiplet);
    };

    // MemorySystem::access: the whole per-access path.
    out.memAccessNs = nsPerOp(
        repeats, n, [&] { return std::make_unique<PlacedMemory>(c); },
        [&](PlacedMemory &pm) {
            uint64_t s = 0;
            for (size_t i = 0; i < n; ++i)
                s += pm.mem->access(stamp[i], acc[i].sm, acc[i].addr,
                                    acc[i].write);
            return s;
        });

    // PageTable::lookup on the table prepare filled (plus the first-touch
    // faults one replay resolved).
    auto last = std::make_unique<PlacedMemory>(c);
    for (size_t i = 0; i < n; ++i)
        last->mem->access(stamp[i], acc[i].sm, acc[i].addr, acc[i].write);
    const PageTable &pt = last->mem->pageTable();
    out.pageLookupNs = nsPerOp(
        repeats, n, [&] { return std::make_unique<int>(0); },
        [&](int &) {
            uint64_t s = 0;
            for (size_t i = 0; i < n; ++i)
                s += pt.lookup(acc[i].addr);
            return s;
        });

    // Network::routeDelay on the recorded requester -> home pairs.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::vector<Cycles> pairStamp;
    for (size_t i = 0; i < n; ++i) {
        const NodeId home = pt.lookupNoFill(acc[i].addr);
        if (home == kInvalidNode)
            continue;
        pairs.emplace_back(nodeOf(i), home);
        pairStamp.push_back(stamp[i]);
    }
    out.routeNs = nsPerOp(
        repeats, pairs.size(), [&] { return makeNetwork(cfg); },
        [&](Network &net) {
            uint64_t s = 0;
            for (size_t i = 0; i < pairs.size(); ++i)
                s += net.routeDelay(pairStamp[i], pairs[i].first,
                                     pairs[i].second, kSectorSize);
            return s;
        });
    last.reset();

    // BandwidthServer::book on one inter-GPU link.
    out.bwBookNs = nsPerOp(
        repeats, n,
        [&] {
            return std::make_unique<BandwidthServer>(
                cfg.bytesPerCycle(cfg.interGpuLinkGBs),
                cfg.switchLatencyCycles);
        },
        [&](BandwidthServer &srv) {
            uint64_t s = 0;
            for (size_t i = 0; i < n; ++i)
                s += srv.book(stamp[i], kSectorSize);
            return s;
        });

    // L1s: reads allocate, writes invalidate (write-through, as in
    // MemorySystem). An untimed pass first collects what reaches the L2s.
    auto makeL1s = [&] {
        auto v = std::make_unique<std::vector<SectoredCache>>();
        v->reserve(cfg.totalSms());
        for (int s = 0; s < cfg.totalSms(); ++s)
            v->emplace_back(cfg.l1SizePerSm, cfg.l1Assoc, "l1");
        return v;
    };
    std::vector<size_t> toL2;
    {
        auto l1 = makeL1s();
        for (size_t i = 0; i < n; ++i) {
            SectoredCache &l = (*l1)[acc[i].sm];
            if (acc[i].write) {
                l.invalidateSector(acc[i].addr);
                toL2.push_back(i);
            } else if (l.access(acc[i].addr, false, true) !=
                       AccessResult::Hit) {
                toL2.push_back(i);
            }
        }
    }
    out.l1AccessNs = nsPerOp(
        repeats, n, makeL1s, [&](std::vector<SectoredCache> &l1) {
            uint64_t s = 0;
            for (size_t i = 0; i < n; ++i) {
                SectoredCache &l = l1[acc[i].sm];
                if (acc[i].write)
                    s += l.invalidateSector(acc[i].addr);
                else
                    s += static_cast<uint64_t>(
                        l.access(acc[i].addr, false, true));
            }
            return s;
        });

    // Requester-side L2s, fed with the L1 miss stream.
    auto makeL2s = [&] {
        auto v = std::make_unique<std::vector<SectoredCache>>();
        v->reserve(cfg.numNodes());
        for (int k = 0; k < cfg.numNodes(); ++k)
            v->emplace_back(cfg.l2SizePerChiplet, cfg.l2Assoc, "l2");
        return v;
    };
    uint64_t l2_hits = 0, l2_accesses = 0;
    out.l2AccessNs = nsPerOp(
        repeats, toL2.size(), makeL2s,
        [&](std::vector<SectoredCache> &l2) {
            uint64_t s = 0;
            for (const size_t i : toL2)
                s += static_cast<uint64_t>(l2[nodeOf(i)].access(
                    acc[i].addr, acc[i].write, true));
            l2_hits = l2_accesses = 0;
            for (const SectoredCache &k : l2) {
                l2_hits += k.hits();
                l2_accesses += k.accesses();
            }
            return s;
        });
    out.l2HitRatio = l2_accesses ? static_cast<double>(l2_hits) /
                                       static_cast<double>(l2_accesses)
                                 : 0.0;

    // MshrTable: one locate per access, then a merge or an insert with
    // MemorySystem's amortised expiry sweep.
    struct Mshrs
    {
        std::vector<MshrTable> tables;
        std::vector<size_t> sweepAt;
    };
    out.mshrUpsertNs = nsPerOp(
        repeats, n,
        [&] {
            auto m = std::make_unique<Mshrs>();
            m->tables.resize(cfg.numNodes());
            m->sweepAt.assign(cfg.numNodes(), kSweepFloor);
            return m;
        },
        [&](Mshrs &m) {
            uint64_t merges = 0;
            for (size_t i = 0; i < n; ++i) {
                const NodeId node = nodeOf(i);
                const Addr sector = sectorBase(acc[i].addr);
                const Cycles now = stamp[i];
                MshrTable &t = m.tables[node];
                const MshrTable::Ref ref = t.locate(sector);
                if (ref.found && t.readyAt(ref) > now) {
                    ++merges;
                    continue;
                }
                if (t.size() >= m.sweepAt[node]) {
                    t.sweepExpired(now);
                    m.sweepAt[node] = std::max(2 * t.size(), kSweepFloor);
                    t.insert(sector, now + kMissCycles);
                } else {
                    t.insertAt(ref, sector, now + kMissCycles);
                }
            }
            return merges;
        });

    // EventQueue: every access retires one warp event and schedules the
    // warp's next one, on the heap the serial engine uses.
    const size_t warps = std::min(
        n, static_cast<size_t>(cfg.totalSms()) * cfg.warpSlotsPerSm);
    out.eventQueueNs = nsPerOp(
        repeats, n,
        [&] {
            auto q = std::make_unique<EventQueue>(EventQueue::Mode::Heap);
            for (size_t i = 0; i < warps; ++i)
                q->push(stamp[i], static_cast<uint32_t>(i));
            return q;
        },
        [&](EventQueue &q) {
            uint64_t s = 0;
            for (size_t i = 0; i < n; ++i) {
                const WarpEvent e = q.pop();
                s += e.warp;
                q.push(std::max(e.time, stamp[i]) + 1 +
                           ((acc[i].addr >> 5) & 127),
                       e.warp);
            }
            return s;
        });
    return out;
}

} // namespace perfbench
