/**
 * @file
 * Network: the inter-node fabric joining NUMA nodes (chiplets).
 *
 * Every topology is the two-level fabric of Fig. 1 with some levels
 * removed: nodes sit in ring groups, and a switch joins the groups.
 *
 *  - Hierarchical: one group of chipletsPerGpu nodes per GPU, joined by
 *    an NVSwitch-like crossbar.
 *  - Crossbar (flat NVSwitch multi-GPU): one node per group, switch.
 *  - Ring (flat MCM-GPU package): one group holding every node, no
 *    switch.
 *  - Monolithic: one node; it never routes.
 *
 * A ring group of n >= 2 nodes is bi-directional, with one link per
 * segment and direction (cw segment i: node i -> i+1, ccw segment i:
 * node i -> i-1, both mod n). Per-direction segment bandwidth is half
 * the quoted per-GPU ring figure. A ring leg takes the shorter
 * direction (clockwise on a tie) and pays the hop latency per segment.
 * Each group owns one egress and one ingress switch port of the
 * inter-GPU link bandwidth, attached at ring position 0.
 *
 * A route inside a group is its ring leg alone. A route between groups
 * rides the source ring to the port chiplet, books the source egress
 * and destination ingress ports, pays the switch latency, then rides
 * the destination ring to the home chiplet. Every hop is booked at the
 * issue time (see the BandwidthServer ordering contract).
 *
 * All links live in one table, in checkpoint order: for each group its
 * cw then ccw segments, then every egress port, then every ingress
 * port. Statistics, checkpoints and resets are single loops over it.
 *
 * All byte accounting for the paper's off-chip-traffic results lives
 * here: interNodeBytes counts every chiplet-boundary crossing,
 * interGpuBytes the subset that also crosses a GPU boundary.
 */

#ifndef LADM_INTERCONNECT_NETWORK_HH
#define LADM_INTERCONNECT_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "check/fault_plan.hh"
#include "common/types.hh"
#include "config/system_config.hh"
#include "interconnect/link.hh"
#include "telemetry/trace.hh"

namespace ladm
{

namespace telemetry
{
class StatRegistry;
}


class Network
{
  public:
    /** @throws SimError when cfg.faultSpec does not parse. */
    explicit Network(const SystemConfig &cfg);

    /**
     * Reserve the path from @p src to @p dst for @p bytes issued at
     * @p now.
     *
     * @return the traversal delay (0 when src == dst).
     */
    Cycles routeDelay(Cycles now, NodeId src, NodeId dst, Bytes bytes);

    Bytes interNodeBytes() const { return interNodeBytes_; }
    Bytes interGpuBytes() const { return interGpuBytes_; }
    /** Bytes that entered the switch (the egress ports' totals). */
    Bytes switchBytes() const;

    /**
     * Conservative-PDES lookahead: the minimum fixed latency any
     * cross-node transfer pays -- the smaller of the ring hop latency
     * (when a ring has >= 2 nodes) and the switch latency (when there
     * are >= 2 groups), or 0 when nothing routes. An event issued at
     * cycle t cannot affect another node before t + lookahead, so
     * shards may run a window of that width without synchronizing.
     */
    Cycles minCrossNodeLatency() const;

    /** The active fault-injection plan (empty when cfg.faultSpec is). */
    const check::FaultPlan &faultPlan() const { return plan_; }
    /** Transfers that insisted on crossing a severed link or ring. */
    uint64_t severedCrossings() const { return severedCrossings_; }

    /**
     * Publish fabric statistics into @p reg under "net": the
     * boundary-crossing byte totals, every link's byte/busy counters
     * and, when @p now is provided, link-utilization formulas (busy
     * cycles / elapsed cycles).
     */
    void registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now = {}) const;

    /**
     * Clear byte accounting (boundary-crossing totals and per-link
     * counters) while preserving every link's timing state; see
     * BandwidthServer::resetStats().
     */
    void resetStats();

    /** Checkpoint the byte totals, then every link in table order. */
    template <class Ar> void io(Ar &ar);

  private:
    /** A node's place in the fabric, hoisted out of the hot path. */
    struct Place
    {
        int group; ///< ring group (its GPU, or its node on a crossbar)
        int pos;   ///< position in the group's ring
        GpuId gpu;
    };

    /** Ring position hosting a group's switch ports. */
    static constexpr int kPortPos = 0;

    Cycles ringLeg(Cycles now, int group, int from, int to, Bytes bytes);
    Bytes faultScaled(Bytes bytes, double factor);
    void traceTransfer(Cycles now, Cycles delay, NodeId src, NodeId dst,
                       Bytes bytes);

    const check::FaultPlan plan_;
    /** Process-wide trace emitter, fetched once instead of per call. */
    telemetry::TraceEmitter &tr_;
    const bool faulted_;
    std::vector<Place> place_;    // per node
    std::vector<GpuId> portGpu_;  // per group: the GPU its ports serve
    std::vector<Link> links_;
    int ringSize_ = 1;            // nodes per group
    int numGroups_ = 1;
    size_t egressBase_ = 0;       // links_ index of group 0's egress
    size_t ingressBase_ = 0;      // links_ index of group 0's ingress
    Cycles hopLatency_;
    Cycles switchLatency_;
    Bytes interNodeBytes_ = 0;
    Bytes interGpuBytes_ = 0;
    uint64_t severedCrossings_ = 0;
};

/** Build the fabric for cfg.topology. */
std::unique_ptr<Network> makeNetwork(const SystemConfig &cfg);

} // namespace ladm

#endif // LADM_INTERCONNECT_NETWORK_HH
