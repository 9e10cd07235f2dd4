/**
 * @file
 * MemorySystem: the full NUMA memory path of the simulated machine.
 *
 * Request flow (dynamic shared L2 with remote caching, after Milic [51]):
 *
 *   SM --L1--> chiplet crossbar --> local L2 partition
 *        hit: done
 *        miss: translate (UVM first-touch may fault) -> home node
 *              home == local:  local HBM
 *              home != local:  request over fabric -> home L2
 *                              (insertion policy: RTWICE caches it,
 *                               RONCE bypasses) -> home HBM on miss
 *                              -> data response back over fabric
 *
 * Timing is computed forward through bandwidth servers at issue; the
 * caller (the execution engine) is handed the completion cycle. All the
 * traffic accounting for Figs. 10/11 lives here, on one access path
 * that both event loops drive: the serial loop through an immediate
 * lane, the sharded PDES loop through one deferred lane per node (see
 * "the access path" below).
 */

#ifndef LADM_SIM_MEMORY_SYSTEM_HH
#define LADM_SIM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/insertion_policy.hh"
#include "cache/traffic_class.hh"
#include "common/bandwidth_server.hh"
#include "common/types.hh"
#include "config/system_config.hh"
#include "interconnect/network.hh"
#include "mem/dram.hh"
#include "mem/host_memory.hh"
#include "mem/migration.hh"
#include "mem/page_table.hh"
#include "mem/uvm.hh"
#include "sim/mshr_table.hh"

namespace ladm
{

namespace obs
{
class LatencyAttribution;
class LocalityHeatmap;
} // namespace obs

class MemorySystem
{
  public:
    explicit MemorySystem(const SystemConfig &cfg);

    // --- the access path ---------------------------------------------------
    //
    // access(lane, ...) is the one body of L1 -> crossbar -> MSHR ->
    // translate -> requester L2 -> local HBM or remote fetch. Three of
    // its steps cross nodes: a dirty victim's writeback, a remote fetch,
    // and translating an unmapped page (the UVM first touch mutates the
    // page table). An *immediate* lane (the serial loop's) runs them on
    // the spot, in global issue order; a *deferred* lane (one per node
    // in the sharded PDES loop) queues them as ShardOps, which
    // executeShardOps() runs in the engine's serial barrier section in
    // a canonical order independent of the shard count.

    enum class ShardOpKind : uint8_t
    {
        RemoteFetch,  ///< requester-L2 miss homed on another node
        Untranslated, ///< unmapped page: defer from translation onward
        Writeback,    ///< fire-and-forget dirty eviction to a remote home
    };

    /** One cross-node operation of the access path. */
    struct ShardOp
    {
        Cycles time = 0;  ///< issue cycle (monotone within a lane)
        uint64_t seq = 0; ///< issue order within the lane
        Addr addr = 0;
        NodeId node = 0; ///< requester
        NodeId home = kInvalidNode;
        ShardOpKind kind = ShardOpKind::RemoteFetch;
        bool write = false;
        Cycles partial = 0; ///< node-local delay accrued before deferral
        Bytes bytes = 0;    ///< writeback payload
        Cycles done = 0;    ///< completion cycle, filled when it runs
    };

    /** Sentinel "no deferred op" value in ShardAccess::op. */
    static constexpr uint32_t kShardNoOp = 0xFFFFFFFFu;

    /** access() result: either a completion cycle or an op index. */
    struct ShardAccess
    {
        Cycles done = 0;
        uint32_t op = kShardNoOp;
        bool deferred() const { return op != kShardNoOp; }
    };

    /**
     * Access lane. An immediate lane keeps no state. A deferred lane
     * holds this window's outbox of ops plus an in-window merge map
     * (same-sector accesses within one window join the op already in
     * flight, MSHR style); the engine owns one per node, and only that
     * node's shard thread may touch it between barriers.
     */
    struct AccessLane
    {
        bool immediate = false;
        uint64_t seq = 0;
        std::vector<ShardOp> ops;
        std::unordered_map<Addr, uint32_t> inflight;

        void
        clearWindow()
        {
            ops.clear();
            inflight.clear();
        }
    };

    /**
     * Issue a sector access from SM @p sm at cycle @p now on @p lane.
     * On a deferred lane this touches only the requesting node's state
     * (L1, crossbar, MSHR table, L2 partition, DRAM channels and a
     * read-only translation), so shard threads may call it concurrently
     * as long as each lane has exactly one caller and no serial-phase
     * code runs simultaneously; anything cross-node returns an op index.
     * An immediate lane always returns the completion cycle.
     */
    ShardAccess access(AccessLane &lane, Cycles now, SmId sm, Addr addr,
                       bool write);

    /**
     * Issue a sector access on the immediate lane.
     * @return completion cycle of the access.
     */
    Cycles
    access(Cycles now, SmId sm, Addr addr, bool write)
    {
        return access(immediate_, now, sm, addr, write).done;
    }

    /**
     * Serial barrier phase: sort this window's deferred ops from every
     * lane into canonical (time, requester node, issue seq) order and
     * execute them, filling each op's completion cycle. The canonical
     * order makes the result independent of how nodes were grouped into
     * shards.
     */
    void executeShardOps(std::vector<ShardOp *> &ops);

    /**
     * Name of the first feature deferred lanes cannot model, or nullptr
     * when there is none. Fault injection, page migration and
     * host-memory oversubscription mutate cross-node state inline, and
     * the latency/heatmap observers record into shared tables, so those
     * features run only on the immediate lane. Drives the engine's
     * structured fallback diagnostic so a silently-serial run is
     * explainable.
     */
    const char *
    shardIncompatibleReason() const
    {
        if (chipletFaults_)
            return "fault injection (faultSpec)";
        if (cfg_.pageMigration)
            return "reactive page migration (pageMigration)";
        if (host_)
            return "host-memory oversubscription (hbmCapacityPerNode)";
        if (obsLat_)
            return "latency attribution observer (--obs-attribution)";
        if (obsHeat_)
            return "locality heatmap observer (--obs-heatmap)";
        return nullptr;
    }

    /** Set the L2 insertion policy for the next kernel (CRB decision). */
    void setInsertPolicy(L2InsertPolicy p) { policy_ = p; }
    L2InsertPolicy insertPolicy() const { return policy_; }

    /**
     * Kernel-boundary software coherence: invalidate every L1 and L2 and
     * drop outstanding-miss tracking (the inter-kernel locality loss the
     * paper attributes to [51]'s scheme).
     */
    void flushCaches();

    /**
     * Invariant check at a drain point (end of kernel, end of run): no
     * outstanding miss may complete after @p now, and no mapped page may
     * home outside the machine. A violation here means an MSHR entry
     * leaked past the cycle every warp supposedly retired at -- the
     * engine handed out a completion time nobody waited for.
     * @throws InvariantViolation listing the leaked sectors.
     */
    void checkDrained(Cycles now) const;

    /**
     * Test hook: plant an in-flight miss (sector @p addr on @p node
     * completing at @p readyAt) so tests can prove checkDrained() catches
     * a leak. Never called by the simulator itself.
     */
    void debugInjectPending(NodeId node, Addr addr, Cycles readyAt);

    /** The page table placement policies write into. */
    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }

    // --- statistics ---------------------------------------------------------
    /** Requester-side L2 misses served by local HBM. */
    uint64_t fetchLocal() const;
    /** Requester-side L2 misses that crossed a chiplet boundary. */
    uint64_t fetchRemote() const;
    /** Per-node variants: misses issued by node @p n's SMs. */
    uint64_t fetchLocal(NodeId n) const { return fetchLocal_[n]; }
    uint64_t fetchRemote(NodeId n) const { return fetchRemote_[n]; }
    /** Fraction [0,1] of fetches that left the node (Fig. 10 metric). */
    double offChipFraction() const;

    /**
     * Publish the whole memory path into the hierarchical registry:
     * per-node groups ("node3.l2", "node3.mem", "node3.l1", "node3.xbar"),
     * machine-wide aggregates ("mem.*", "uvm.*", traffic classes), the
     * interconnect ("net.*"), and derived formulas (off-chip fraction,
     * hit rates, link utilization when @p now is provided). Pull-based:
     * registration has no effect on simulation speed.
     */
    void registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now = {});

    /**
     * Arm the observability hooks (obs::Observer's pillars). Either may
     * be null; with both null every hook on the access path reduces to
     * one untaken inline branch (the TraceEmitter discipline).
     */
    void
    attachObserver(obs::LatencyAttribution *lat, obs::LocalityHeatmap *heat)
    {
        obsLat_ = lat;
        obsHeat_ = heat;
    }

    uint64_t l2Accesses() const;
    uint64_t l2Hits() const;
    uint64_t l2SectorMisses() const;
    uint64_t l1Hits() const { return sumCtr(&NodeCounters::l1Hits); }
    uint64_t l1Accesses() const
    {
        return sumCtr(&NodeCounters::l1Accesses);
    }
    uint64_t uvmFaults() const { return uvm_.faults(); }
    uint64_t mshrMerges() const
    {
        return sumCtr(&NodeCounters::mshrMerges);
    }
    Cycles delayXbar() const { return sumCtr(&NodeCounters::delayXbar); }
    Cycles delayNet() const { return sumCtr(&NodeCounters::delayNet); }
    Cycles delayDram() const { return sumCtr(&NodeCounters::delayDram); }
    uint64_t writebackSectors() const
    {
        return sumCtr(&NodeCounters::writebackSectors);
    }

    /** Per-traffic-class L2 accesses / hits (Fig. 11). */
    uint64_t classAccesses(TrafficClass c) const
    {
        uint64_t v = 0;
        for (const NodeCounters &n : ctr_)
            v += n.clsAcc[static_cast<int>(c)];
        return v;
    }
    uint64_t classHits(TrafficClass c) const
    {
        uint64_t v = 0;
        for (const NodeCounters &n : ctr_)
            v += n.clsHit[static_cast<int>(c)];
        return v;
    }

    /** Slots allocated by @p node's outstanding-miss table. */
    size_t mshrCapacity(NodeId node) const
    {
        return pending_[node].capacity();
    }
    /**
     * Upper bound on mshrCapacity() while at most the sweep floor's
     * worth of misses is in flight at each sweep: the watermark then
     * stays within twice the floor, and the table grows only to the
     * power of two whose 3/4 load limit holds that (32768 slots, 512 KB
     * on multiGpu4x4).
     */
    size_t
    mshrCapacityBound() const
    {
        return std::bit_ceil((8 * sweepFloor_ + 2) / 3);
    }

    const Network &network() const { return *net_; }
    const SectoredCache &l2(NodeId n) const { return l2_[n]; }
    /** Aggregate DRAM accesses / busy cycles over a node's channels. */
    uint64_t dramAccesses(NodeId n) const;
    Cycles dramBusyCycles(NodeId n) const;
    uint64_t pageMigrations() const { return migration_.migrations(); }
    uint64_t hostDemandFaults() const
    {
        return host_ ? host_->demandFaults() : 0;
    }
    uint64_t hostPrefetches() const
    {
        return host_ ? host_->prefetches() : 0;
    }
    uint64_t hostEvictions() const
    {
        return host_ ? host_->evictions() : 0;
    }

    // --- fault injection ----------------------------------------------------
    /** Pages rescued off failed chiplets (faultDegradation on). */
    uint64_t rehomedPages() const
    {
        return sumCtr(&NodeCounters::rehomedPages);
    }
    /** Accesses that crawled to a failed home (faultDegradation off). */
    uint64_t failedNodeAccesses() const
    {
        return sumCtr(&NodeCounters::failedNodeAccesses);
    }

    /**
     * Reset all statistics and the outstanding-miss (MSHR) tracking --
     * a completion time from a previous measurement window must not
     * satisfy merges in the next one. Cache *contents* survive.
     */
    void resetStats();

    /**
     * Checkpoint the whole memory path -- page table, UVM, caches, DRAM
     * channels, crossbars, fabric, MSHR tables, per-node counters
     * (snapshot/component_state.cc). Must be called at an engine safe
     * point (no access in flight).
     */
    template <class Ar> void io(Ar &ar);

  private:
    /**
     * Per-requesting-node statistics. Splitting the aggregates by node
     * (indexed by the requester, summed by the getters) keeps the
     * sharded engine's parallel phases free of shared counter writes;
     * the cache-line alignment stops shards from false-sharing
     * neighbours. Serial results are bit-identical: integer sums are
     * order-independent.
     */
    struct alignas(64) NodeCounters
    {
        Cycles delayXbar = 0;
        Cycles delayNet = 0;
        Cycles delayDram = 0;
        uint64_t l1Hits = 0;
        uint64_t l1Accesses = 0;
        uint64_t mshrMerges = 0;
        uint64_t writebackSectors = 0;
        uint64_t rehomedPages = 0;
        uint64_t failedNodeAccesses = 0;
        std::array<uint64_t, kNumTrafficClasses> clsAcc{};
        std::array<uint64_t, kNumTrafficClasses> clsHit{};
    };

    template <typename T>
    T
    sumCtr(T NodeCounters::*member) const
    {
        T v = 0;
        for (const NodeCounters &n : ctr_)
            v += n.*member;
        return v;
    }

    /** What access() knows about an L1 miss once its MSHR is probed. */
    struct Miss
    {
        Cycles now = 0;
        NodeId node = 0;
        Addr addr = 0;
        bool write = false;
        Cycles delay = 0; ///< node-local delay so far (L1 + crossbar)
        Cycles xbar = 0;  ///< crossbar share of delay, for attribution
        MshrTable::Ref mshr{0, false}; ///< the sector's slot in node's table
    };
    /**
     * The access path from translation onward: fault injection,
     * requester L2, victim writeback, migration, host residency and the
     * local or remote fetch. Deferred @p lane queues an unmapped page's
     * miss and every remote fetch instead of running them. Always
     * inlined: as a separate call it cost the serial loop about 6% of
     * its warp-steps/sec on the lasp and first-touch baskets.
     */
    [[gnu::always_inline]] inline ShardAccess missPath(AccessLane &lane,
                                                       const Miss &m);

    /** Fabric and DRAM cycles of a remote fetch (home L2 latency aside). */
    struct RemoteLeg
    {
        Cycles net = 0;
        Cycles dram = 0;
    };
    /**
     * Op executors, one per kind, each filling op.done: an immediate
     * lane calls them where it creates the op, executeShardOps() at the
     * barrier. A fetch inserts its MSHR entry at @p mshr, the op's slot
     * in its requester's table located with no intervening mutation.
     * RemoteFetch returns the fetch's fabric and DRAM cycles.
     */
    RemoteLeg
    execRemoteFetch(ShardOp &op, MshrTable::Ref mshr)
    {
        const RemoteLeg leg =
            fetchRemote(op.time, op.node, op.home, op.addr, op.write);
        op.done = op.time + op.partial + leg.net + cfg_.l2LatencyCycles +
                  leg.dram;
        insertPending(op.node, mshr, op.addr, op.time, op.done);
        return leg;
    }
    /** Writeback: fire-and-forget fabric and home DRAM booking. */
    void
    execWriteback(ShardOp &op)
    {
        net_->routeDelay(op.time, op.node, op.home, op.bytes);
        dramFor(op.home, op.addr).book(op.time, op.bytes);
        op.done = op.time;
    }

    /**
     * Queue @p op on deferred @p lane. Later same-sector accesses of the
     * window join a fetch (see inflight).
     */
    ShardAccess
    defer(AccessLane &lane, ShardOp op)
    {
        op.seq = lane.seq++;
        const auto idx = static_cast<uint32_t>(lane.ops.size());
        lane.ops.push_back(op);
        if (op.kind != ShardOpKind::Writeback)
            lane.inflight.emplace(op.addr, idx);
        return {0, idx};
    }

    /**
     * Home of @p addr's page, kInvalidNode when unmapped. An immediate
     * lane fills the translation TLB; a deferred one only reads it.
     */
    NodeId
    translate(const AccessLane &lane, Addr addr) const
    {
        return lane.immediate ? pageTable_.lookup(addr)
                              : pageTable_.lookupNoFill(addr);
    }

    /** Early-out inline: the overwhelmingly common clean case is free. */
    void
    evict(AccessLane &lane, Cycles now, NodeId node, const EvictInfo &ev)
    {
        if (!ev.evicted || ev.dirtyMask == 0)
            return;
        writeBack(lane, now, node, ev);
    }
    /** Book a dirty victim's writeback at its home (a Writeback op when
     *  the home is remote). */
    void writeBack(AccessLane &lane, Cycles now, NodeId node,
                   const EvictInfo &ev);

    /**
     * Requester-side L2 probe, counted by traffic class: the dynamic
     * shared L2 [51] caches whatever its own SMs touch; without remote
     * caching it only holds local-homed lines (memory-side L2). The
     * caller disposes of the victim left in @p ev.
     */
    bool
    requesterL2Hit(NodeId node, NodeId home, Addr addr, bool write,
                   EvictInfo &ev)
    {
        const bool alloc = cfg_.remoteCachingL2 || home == node;
        const bool hit =
            l2_[node].access(addr, write, alloc, &ev) == AccessResult::Hit;
        countClass(node, home, node, hit);
        return hit;
    }

    /** Count and fetch a local-homed sector; returns the DRAM delay. */
    Cycles
    fetchLocalDram(Cycles now, NodeId node, Addr addr)
    {
        ++fetchLocal_[node];
        const Cycles d = dramFor(node, addr).book(now, kSectorSize);
        ctr_[node].delayDram += d;
        return d;
    }

    /**
     * Remote fetch of a sector homed at @p home: request leg, home L2,
     * home DRAM on a miss, response leg. Counts the home-side traffic
     * class and the node's fabric/DRAM delays; the caller counts the
     * fetch itself.
     */
    RemoteLeg fetchRemote(Cycles now, NodeId node, NodeId home, Addr addr,
                          bool write);
    /**
     * Record a miss on @p addr completing at @p done in @p node's
     * outstanding-miss table, at the slot @p ref located with no
     * intervening mutation. Expired entries are dead weight, so once
     * the table reaches its watermark it is swept at @p now first; the
     * next watermark doubles from whatever survived, so a table full of
     * still-in-flight entries cannot trigger an O(n) scan per access.
     */
    void
    insertPending(NodeId node, MshrTable::Ref ref, Addr addr, Cycles now,
                  Cycles done)
    {
        MshrTable &pend = pending_[node];
        if (pend.size() >= pendingSweepAt_[node]) {
            pend.sweepExpired(now);
            pendingSweepAt_[node] =
                std::max<size_t>(2 * pend.size(), sweepFloor_);
            pend.insert(addr, done); // the sweep invalidated the Ref
        } else {
            pend.insertAt(ref, addr, done);
        }
    }

    void
    countClass(NodeId origin, NodeId home, NodeId here, bool hit)
    {
        const int c = static_cast<int>(classifyTraffic(origin, home, here));
        ++ctr_[origin].clsAcc[c];
        if (hit)
            ++ctr_[origin].clsHit[c];
    }

    /**
     * Cold helper: decompose a completed access of @p total cycles for
     * attribution. @p home is kInvalidNode for an access that ended
     * before translation (no traffic class); a component left at zero
     * is one the access never touched.
     */
    void obsAccess(NodeId node, NodeId home, Cycles total, Cycles xbar = 0,
                   Cycles wait = 0, Cycles fault = 0, Cycles l2 = 0,
                   Cycles ring = 0, Cycles link = 0, Cycles dram = 0);

    const SystemConfig cfg_;
    PageTable pageTable_;
    Uvm uvm_;
    /** The serial loop's lane (made immediate by the constructor); also
     *  the context the barrier phase executes deferred ops in. */
    AccessLane immediate_;

    /**
     * Channel-interleave at line granularity with a spreading hash. The
     * channel count is hoisted to a member and, when a power of two (the
     * default), the modulo reduces to a mask -- identical arithmetic.
     */
    Dram &
    dramFor(NodeId node, Addr addr)
    {
        const uint64_t line = addr / kLineSize;
        const uint64_t h = line ^ (line >> 7);
        const size_t chan = static_cast<size_t>(
            dramChanMask_ ? (h & dramChanMask_)
                          : (h % static_cast<uint64_t>(dramChannels_)));
        return dram_[static_cast<size_t>(node) * dramChannels_ + chan];
    }

    std::vector<SectoredCache> l1_;     // per SM
    std::vector<SectoredCache> l2_;     // per node
    std::vector<Dram> dram_;            // per node x channel
    std::vector<BandwidthServer> xbar_; // per node SM<->L2 crossbar
    MigrationEngine migration_;
    std::unique_ptr<HostMemory> host_; // oversubscription model (opt.)
    std::unique_ptr<Network> net_;
    L2InsertPolicy policy_ = L2InsertPolicy::RTwice;
    /** Fast-path gate: faultSpec has chiplet failures to police. */
    bool chipletFaults_ = false;

    /** Outstanding-miss table per node: sector -> data-ready cycle. */
    std::vector<MshrTable> pending_;
    /**
     * Sweep floor for the outstanding-miss tables: a node's table is
     * swept of expired entries once it reaches this size. Expired
     * entries can never satisfy a merge (`now` is monotone), so the
     * floor is pure performance policy. It is the node's in-flight
     * ceiling for coalesced traffic -- every warp slot on its SMs with
     * warpPipelineDepth steps of one line each outstanding (12288
     * sectors on multiGpu4x4) -- so the table stays within
     * mshrCapacityBound() and its probes in the host's L2. Never below
     * kMinSweepFloor, so the tiny machines tests build do not sweep
     * every few accesses.
     */
    size_t sweepFloor_ = 0;
    static constexpr size_t kMinSweepFloor = 1024;
    /** Per-node size watermark for the amortized pending-table sweep. */
    std::vector<size_t> pendingSweepAt_;
    /** nodeOfSm() hoisted into a table, built once per topology. */
    std::vector<NodeId> smNode_;
    /** max(1, cfg.dramChannelsPerChiplet), hoisted for dramFor(). */
    int dramChannels_ = 1;
    /** dramChannels_ - 1 when it is a power of two, else 0 (slow path). */
    uint64_t dramChanMask_ = 0;

    /** Control-message size for remote read requests / write acks. */
    static constexpr Bytes kCtrlBytes = 8;

    /** Per-requesting-node fetch counts (index = NodeId). */
    std::vector<uint64_t> fetchLocal_;
    std::vector<uint64_t> fetchRemote_;
    /** Per-requesting-node counters; getters sum across nodes. */
    std::vector<NodeCounters> ctr_;

    /** Observability pillars, armed by attachObserver (null = off). */
    obs::LatencyAttribution *obsLat_ = nullptr;
    obs::LocalityHeatmap *obsHeat_ = nullptr;
};

} // namespace ladm

#endif // LADM_SIM_MEMORY_SYSTEM_HH
