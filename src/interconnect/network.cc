#include "interconnect/network.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "telemetry/stat_registry.hh"

namespace ladm
{

Network::Network(const SystemConfig &cfg)
    : plan_(check::FaultPlan::parse(cfg.faultSpec)),
      tr_(telemetry::tracer()), faulted_(!plan_.empty()),
      hopLatency_(cfg.ringHopLatencyCycles),
      switchLatency_(cfg.switchLatencyCycles)
{
    const int nodes = cfg.numNodes();
    bool switched = false;
    switch (cfg.topology) {
      case Topology::Crossbar:
        switched = true;
        break;
      case Topology::Ring:
        ringSize_ = nodes;
        break;
      case Topology::Hierarchical:
        ringSize_ = cfg.chipletsPerGpu;
        switched = true;
        break;
      case Topology::Monolithic:
        break;
    }
    numGroups_ = nodes / ringSize_;

    place_.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n)
        place_.push_back({n / ringSize_, n % ringSize_, cfg.gpuOfNode(n)});
    for (int g = 0; g < numGroups_; ++g)
        portGpu_.push_back(cfg.gpuOfNode(g * ringSize_));

    // Names: "ring.cw3" on the flat ring, "gpu1.ring.cw3" inside a GPU;
    // "xbar.egress2" per node on the flat crossbar, "gpu1.egress" per
    // GPU on the two-level fabric.
    const bool per_gpu = cfg.topology == Topology::Hierarchical;
    auto group_name = [per_gpu](int g) {
        return per_gpu ? "gpu" + std::to_string(g) + "." : std::string();
    };
    if (ringSize_ >= 2) {
        const double seg_bpc =
            cfg.bytesPerCycle(cfg.interChipletRingGBs) / 2.0;
        for (int g = 0; g < numGroups_; ++g) {
            for (const char *dir : {"ring.cw", "ring.ccw"}) {
                for (int i = 0; i < ringSize_; ++i) {
                    links_.emplace_back(group_name(g) + dir +
                                            std::to_string(i),
                                        seg_bpc, 0);
                }
            }
        }
    }
    egressBase_ = links_.size();
    ingressBase_ = egressBase_ + (switched ? numGroups_ : 0);
    if (switched) {
        const double port_bpc = cfg.bytesPerCycle(cfg.interGpuLinkGBs);
        for (const char *dir : {"egress", "ingress"}) {
            for (int g = 0; g < numGroups_; ++g) {
                links_.emplace_back(per_gpu ? group_name(g) + dir
                                            : std::string("xbar.") + dir +
                                                  std::to_string(g),
                                    port_bpc, 0);
            }
        }
    }
}

/**
 * Ride group @p group's ring from position @p from to @p to. A ring
 * fault ("ring:<group>") scales the payload of a leg that crosses at
 * least one segment, which is equivalent to scaling every booked
 * segment; an empty leg neither books nor counts a severed crossing.
 * Inline, ahead of routeDelay: the out-of-line call cost a route ~5%.
 */
inline Cycles
Network::ringLeg(Cycles now, int group, int from, int to, Bytes bytes)
{
    if (from == to)
        return 0;
    if (faulted_)
        bytes = faultScaled(bytes, plan_.ringFactor(now, group));
    const int n = ringSize_;
    Link *cw = &links_[static_cast<size_t>(group) * 2 * n];
    Link *ccw = cw + n;
    // Hops going clockwise; from and to are both in [0, n), so a single
    // conditional add replaces the modulo.
    int fwd = to - from;
    if (fwd < 0)
        fwd += n;
    const int bwd = n - fwd;
    Cycles delay = 0;
    int idx = from;
    if (fwd <= bwd) {
        for (int i = 0; i < fwd; ++i) {
            delay += cw[idx].book(now, bytes) + hopLatency_;
            if (++idx == n)
                idx = 0;
        }
    } else {
        for (int i = 0; i < bwd; ++i) {
            delay += ccw[idx].book(now, bytes) + hopLatency_;
            if (--idx < 0)
                idx += n;
        }
    }
    return delay;
}

Cycles
Network::routeDelay(Cycles now, NodeId src, NodeId dst, Bytes bytes)
{
    if (src == dst)
        return 0;
    const Place s = place_[src];
    const Place d = place_[dst];
    interNodeBytes_ += bytes;
    if (s.gpu != d.gpu)
        interGpuBytes_ += bytes;

    Cycles delay;
    if (s.group == d.group) {
        delay = ringLeg(now, s.group, s.pos, d.pos, bytes);
    } else {
        delay = ringLeg(now, s.group, s.pos, kPortPos, bytes);
        // Egress and ingress share the inter-GPU link's fault; on the
        // flat crossbar the ports are per node, so a GPU-pair link fault
        // degrades both endpoints' ports.
        Bytes link_bytes = bytes;
        if (faulted_) {
            link_bytes = faultScaled(
                bytes, plan_.interGpuFactor(now, portGpu_[s.group],
                                            portGpu_[d.group]));
        }
        delay += links_[egressBase_ + s.group].book(now, link_bytes);
        delay += links_[ingressBase_ + d.group].book(now, link_bytes);
        delay += switchLatency_;
        delay += ringLeg(now, d.group, kPortPos, d.pos, bytes);
    }
    if (tr_.enabled() && tr_.sampleTick())
        traceTransfer(now, delay, src, dst, bytes);
    return delay;
}

/**
 * Apply a fault-plan bandwidth factor to a transfer: a link serving
 * fraction f of its lanes takes 1/f as long, i.e. behaves as if the
 * payload were bytes/f. Severed (f == 0) clamps to
 * check::kSeveredResidualFactor and counts the crossing, keeping the
 * fault-oblivious ablation finite instead of dividing by zero.
 */
Bytes
Network::faultScaled(Bytes bytes, double factor)
{
    if (factor >= 1.0)
        return bytes;
    if (factor <= 0.0) {
        ++severedCrossings_;
        factor = check::kSeveredResidualFactor;
    } else if (factor < check::kSeveredResidualFactor) {
        factor = check::kSeveredResidualFactor;
    }
    return static_cast<Bytes>(static_cast<double>(bytes) / factor);
}

Bytes
Network::switchBytes() const
{
    Bytes total = 0;
    for (size_t i = egressBase_; i < ingressBase_; ++i)
        total += links_[i].bytesSent();
    return total;
}

Cycles
Network::minCrossNodeLatency() const
{
    constexpr Cycles kNone = std::numeric_limits<Cycles>::max();
    Cycles lat = ringSize_ >= 2 ? hopLatency_ : kNone;
    if (numGroups_ >= 2)
        lat = std::min(lat, switchLatency_);
    return lat == kNone ? 0 : lat;
}

void
Network::registerStats(telemetry::StatRegistry &reg,
                       std::function<Cycles()> now) const
{
    reg.gauge("net.inter_node_bytes",
              [this] { return static_cast<double>(interNodeBytes_); },
              StatKind::Counter);
    reg.gauge("net.inter_gpu_bytes",
              [this] { return static_cast<double>(interGpuBytes_); },
              StatKind::Counter);
    if (faulted_) {
        reg.gauge("net.fault.severed_crossings",
                  [this] {
                      return static_cast<double>(severedCrossings_);
                  },
                  StatKind::Counter);
    }
    for (const Link &l : links_)
        l.registerStats(reg, "net", now);
    // Only the two-level fabric reports its switch share: rings feed
    // the ports there, so it differs from inter_node_bytes.
    if (ringSize_ >= 2 && ingressBase_ > egressBase_) {
        reg.formula("net.switch_bytes",
                    [this] { return static_cast<double>(switchBytes()); });
    }
}

void
Network::resetStats()
{
    interNodeBytes_ = 0;
    interGpuBytes_ = 0;
    for (Link &l : links_)
        l.resetStats();
}

void
Network::traceTransfer(Cycles now, Cycles delay, NodeId src, NodeId dst,
                       Bytes bytes)
{
    // Formatted in place: GCC 12 flags the literal + std::string
    // concatenations this replaced with a false -Wrestrict.
    char thread[32];
    std::snprintf(thread, sizeof thread, "from node%d", src);
    char name[32];
    std::snprintf(name, sizeof name, "n%d->n%d", src, dst);
    char args[48];
    std::snprintf(args, sizeof args, "{\"bytes\": %llu}",
                  static_cast<unsigned long long>(bytes));
    tr_.processName(telemetry::kPidInterconnect, "interconnect");
    tr_.threadName(telemetry::kPidInterconnect, src, thread);
    tr_.complete("net", name, telemetry::kPidInterconnect, src, now,
                 now + delay, args);
}

std::unique_ptr<Network>
makeNetwork(const SystemConfig &cfg)
{
    return std::make_unique<Network>(cfg);
}

} // namespace ladm
