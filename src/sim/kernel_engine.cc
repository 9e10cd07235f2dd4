#include "sim/kernel_engine.hh"

#include <array>

#include "check/invariants.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "obs/timeline.hh"
#include "sim/engine_internal.hh"
#include "sim/event_queue.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace.hh"

namespace ladm
{

using engine_detail::Lane;
using engine_detail::WarpState;

namespace
{

const char *
loopName(bool sharded)
{
    return sharded ? "sharded PDES" : "serial";
}

} // namespace

const char *
toString(KernelEngine::PdesFallback fb)
{
    switch (fb) {
    case KernelEngine::PdesFallback::None:
        return "none";
    case KernelEngine::PdesFallback::Tracing:
        return "event tracing (--trace-out) is serial-only";
    case KernelEngine::PdesFallback::MemoryIncompatible:
        return "memory feature incompatible with sharding";
    case KernelEngine::PdesFallback::MissingShardTraces:
        return "fewer per-shard trace instances than shards";
    case KernelEngine::PdesFallback::ZeroLookahead:
        return "zero cross-node latency leaves no conservative window";
    }
    return "unknown";
}

void
KernelEngine::noteFallback(PdesFallback fb, const char *detail)
{
    fallback_ = fb;
    fallbackDetail_ = detail ? detail : toString(fb);
    const unsigned bit = 1u << static_cast<int>(fb);
    if (fallbackWarned_ & bit)
        return;
    fallbackWarned_ |= bit;
    ladm_warn("engine: ", cfg_.resolvedShards(),
              " PDES shards requested but this run uses the serial "
              "loop: ",
              fallbackDetail_,
              " [engine.pdes.fallback_reason=",
              static_cast<int>(fb), "]");
}

KernelEngine::KernelEngine(const SystemConfig &cfg, MemorySystem &mem)
    : cfg_(cfg), mem_(mem)
{
    smNode_.resize(cfg_.totalSms());
    for (SmId s = 0; s < cfg_.totalSms(); ++s)
        smNode_[s] = cfg_.nodeOfSm(s);
    maxShards_ = cfg_.resolvedShards();
    lookahead_ = mem_.network().minCrossNodeLatency();
    if (lookahead_ == 0 && maxShards_ > 1) {
        // No cross-node latency = no conservative window.
        maxShards_ = 1;
        noteFallback(PdesFallback::ZeroLookahead, nullptr);
    }
    pdesBarrierNs_.assign(static_cast<size_t>(maxShards_), 0);
}

void
KernelEngine::registerStats(telemetry::StatRegistry &reg)
{
    const StatKind acc = StatKind::Counter;
    reg.gauge("engine.kernels",
              [this] { return static_cast<double>(kernelsRun_); }, acc);
    reg.gauge("engine.warp_steps",
              [this] { return static_cast<double>(warpStepsTotal_); },
              acc);
    reg.gauge("engine.sector_accesses",
              [this] {
                  return static_cast<double>(sectorAccessesTotal_);
              },
              acc);
    reg.gauge("engine.tbs_dispatched",
              [this] {
                  return static_cast<double>(tbsDispatchedTotal_);
              },
              acc);
    // Bucket width 8 cycles x 32 buckets spans [0, 256); slower steps
    // (remote fetches, DRAM queueing) land in the overflow bucket.
    stepLatencyHist_ =
        &reg.group("engine").histogram("step_latency", 8, 32);

    // Fallback diagnostic: registered whenever sharding was *requested*
    // (even when the ctor already clamped it away), so a silently-serial
    // run is explainable from its stats dump.
    if (cfg_.resolvedShards() > 1) {
        reg.gauge("engine.pdes.fallback_reason", [this] {
            return static_cast<double>(static_cast<int>(fallback_));
        });
    }

    // PDES shard counters exist only when the sharded loop can run, so
    // serial runs keep an unchanged stat namespace.
    if (maxShards_ > 1) {
        reg.gauge("engine.pdes.shards",
                  [this] { return static_cast<double>(maxShards_); });
        reg.gauge("engine.pdes.windows",
                  [this] { return static_cast<double>(pdesWindows_); },
                  acc);
        reg.gauge("engine.pdes.deferred_ops",
                  [this] {
                      return static_cast<double>(pdesDeferredOps_);
                  },
                  acc);
        reg.gauge("engine.pdes.late_events",
                  [this] {
                      return static_cast<double>(pdesLateEvents_);
                  },
                  acc);
        for (size_t s = 0; s < pdesBarrierNs_.size(); ++s) {
            reg.gauge("engine.pdes.shard" + std::to_string(s) +
                          ".barrier_wait_ns",
                      [this, s] {
                          return static_cast<double>(pdesBarrierNs_[s]);
                      },
                      acc);
        }
    }
}

KernelRunStats
KernelEngine::run(const LaunchDims &dims, TraceSource &trace,
                  const std::vector<std::vector<TbId>> &node_queues,
                  Cycles start,
                  const std::vector<TraceSource *> &shard_traces,
                  bool resume)
{
    const int num_nodes = cfg_.numNodes();
    if (static_cast<int>(node_queues.size()) != num_nodes) {
        throw InvariantViolation(
            "scheduler produced " + std::to_string(node_queues.size()) +
            " node queues for " + std::to_string(num_nodes) + " nodes");
    }

    const int warps_per_tb =
        static_cast<int>(ceilDiv(dims.threadsPerTb(), cfg_.warpSize));
    ladm_require(warps_per_tb <= cfg_.warpSlotsPerSm,
                 "threadblock needs ", warps_per_tb,
                 " warps but an SM has only ", cfg_.warpSlotsPerSm,
                 " slots");

    int64_t assigned = 0;
    for (const auto &q : node_queues)
        assigned += static_cast<int64_t>(q.size());
    if (assigned != dims.numTbs()) {
        throw InvariantViolation(
            "scheduler assigned " + std::to_string(assigned) +
            " TBs, launch has " + std::to_string(dims.numTbs()));
    }

    // TB-dispatch conservation (opt-in): every TB of the launch must
    // appear exactly once across the node queues -- a duplicate executes
    // twice and a hole hangs the launch's dependents.
    const bool check_on = check::enabled();
    if (check_on) {
        std::vector<uint8_t> seen(dims.numTbs(), 0);
        std::vector<Diagnostic> diags;
        for (const auto &q : node_queues) {
            for (const TbId tb : q) {
                if (tb < 0 || tb >= dims.numTbs()) {
                    diags.push_back({"scheduler.queue",
                                     "tb " + std::to_string(tb),
                                     "TB id outside [0, " +
                                         std::to_string(dims.numTbs()) +
                                         ")",
                                     "scheduler emitted a bogus id"});
                } else if (seen[tb]++) {
                    diags.push_back({"scheduler.queue",
                                     "tb " + std::to_string(tb),
                                     "TB scheduled more than once",
                                     "it would execute twice"});
                }
            }
        }
        if (diags.size() < 8) {
            for (TbId tb = 0; tb < dims.numTbs(); ++tb) {
                if (!seen[tb]) {
                    diags.push_back({"scheduler.queue",
                                     "tb " + std::to_string(tb),
                                     "TB never scheduled",
                                     "the launch would hang waiting for "
                                     "it"});
                    if (diags.size() >= 8)
                        break;
                }
            }
        }
        if (!diags.empty()) {
            throw InvariantViolation(
                "TB dispatch not a permutation of the launch",
                std::move(diags));
        }
    }

    ladm_require(!resume || (ckpt_ && ckpt_->restorePending()),
                 "engine resume requested with no restore armed");

    // Sharded conservative-PDES loop -- only when configured for >1
    // shard AND this run needs none of the serial-only machinery: event
    // tracing (the tracer sink is single-threaded), shard-incompatible
    // memory features (see MemorySystem::shardIncompatibleReason()),
    // and a private trace instance per extra shard (warpStep scratch
    // buffers are per-object). Anything short of that runs the
    // bit-exact serial reference below.
    if (maxShards_ > 1) {
        if (telemetry::tracer().enabled()) {
            noteFallback(PdesFallback::Tracing, nullptr);
        } else if (const char *why = mem_.shardIncompatibleReason()) {
            noteFallback(PdesFallback::MemoryIncompatible, why);
        } else if (static_cast<int>(shard_traces.size()) + 1 <
                   maxShards_) {
            noteFallback(PdesFallback::MissingShardTraces, nullptr);
        } else {
            fallback_ = PdesFallback::None;
            fallbackDetail_.clear();
            return runSharded(dims, trace, shard_traces, node_queues,
                              start, resume);
        }
    }

    std::vector<int> tb_warps_left(dims.numTbs(), 0);
    auto &tr = telemetry::tracer();
    const bool tracing = tr.enabled();
    // TB dispatch cycles, kept only while tracing (retire closes the span).
    std::vector<Cycles> tb_start;
    if (tracing)
        tb_start.assign(dims.numTbs(), 0);
    // A warp step this much slower than pure compute counts as a stall
    // interval worth showing on the timeline.
    const Cycles stall_floor = cfg_.computeGapCycles + 32;

    // One heap-mode lane over every node: the heap's tie order depends
    // only on the (time, warp) push sequence, which a single all-node
    // lane with one warp pool reproduces exactly.
    Lane ln({cfg_, dims, node_queues, smNode_, tb_warps_left,
             tracing ? tb_start.data() : nullptr},
            0, num_nodes, EventQueue::Mode::Heap, start, stepLatencyHist_);
    const std::vector<Lane *> lanes{&ln};

    std::vector<MemAccess> buf;
    /** Last processed event's cycle: the current safe-point time. */
    Cycles cur = start;

    // Checkpoint image, written at a safe point (top of the loop, before
    // the pop: the queue is consistent and no access is in flight).
    auto save = [&](serial::Writer &w) {
        io(w, /*sharded=*/false, cur, tb_warps_left, lanes);
    };

    if (resume)
        io(ckpt_->reader(), /*sharded=*/false, cur, tb_warps_left, lanes);
    else
        ln.admitAll(start);

    // No-progress watchdog (opt-in, see Lane::stalled): turns a hang
    // into a structured abort with the machine state.
    const uint64_t watchdog_limit = check_on ? check::watchdogLimit() : 0;

    while (!ln.pq.empty()) {
        // Safe point: between two events the queue is consistent and no
        // access is in flight. One untaken null check when
        // checkpointing is off.
        if (ckpt_ && ckpt_->pending(cur)) {
            if (ckpt_->capture(cur, save))
                throw snapshot::Interrupted(ckpt_->outPath(), cur);
        }
        const WarpEvent ev = ln.pq.pop();
        cur = ev.time;
        const WarpState &w = ln.warps[ev.warp];

        // Timeline sampling: event times are globally monotone, so one
        // compare per event is enough to hit every window boundary.
        if (timeline_)
            timeline_->maybeTick(ev.time);

        if (check_on && ln.stalled(ev.time, watchdog_limit)) {
            if (ckpt_) {
                // Re-file the popped event so the dumped image is a
                // consistent safe point, then leave a replayable
                // post-mortem checkpoint beside the telemetry dump.
                ln.pq.push(ev.time, ev.warp);
                ckpt_->postMortem(cur, save);
            }
            throw ln.noProgress();
        }

        buf.clear();
        if (!trace.warpStep(w.tb, w.warpInTb, w.step, buf)) {
            const TbId tb = w.tb;
            const SmId sm = w.sm;
            const Cycles fin = ln.retire(ev.warp, ev.time);
            if (tracing && tb_warps_left[tb] == 0) {
                tr.complete("tb", "tb" + std::to_string(tb),
                            telemetry::kPidNodeBase + smNode_[sm], sm,
                            tb_start[tb], fin);
            }
            continue;
        }

        Cycles done = ev.time;
        for (const auto &a : buf)
            done = std::max(done, mem_.access(ev.time, w.sm, a.addr,
                                              a.write));
        if (tracing && done - ev.time >= stall_floor && tr.sampleTick()) {
            tr.complete("stall", "warp_stall",
                        telemetry::kPidNodeBase + smNode_[w.sm], w.sm,
                        ev.time, done,
                        "{\"cycles\":" + std::to_string(done - ev.time) +
                            "}");
        }
        ln.noteIssue(buf.size());
        ln.completeStep(ev.warp, ev.time, done);
        // The cumulative gauges advance per step, not per kernel, so a
        // mid-kernel timeline window sees live progress instead of a
        // stale end-of-last-kernel total.
        sectorAccessesTotal_ += buf.size();
        ++warpStepsTotal_;
    }

    return finishRun(dims, trace, start, tb_warps_left, lanes);
}

KernelRunStats
KernelEngine::finishRun(const LaunchDims &dims, const TraceSource &trace,
                        Cycles start, const std::vector<int> &tb_warps_left,
                        const std::vector<Lane *> &lanes)
{
    if (check::enabled()) {
        // Dispatch conservation at drain: every queue fully consumed and
        // every TB's warps retired. A shortfall means admit() starved --
        // a resident-limit accounting bug, not a workload property.
        std::vector<Diagnostic> diags;
        Cycles end = start;
        for (const Lane *ln : lanes) {
            end = std::max(end, ln->endCycle);
            for (size_t i = 0; i < ln->cursor.size(); ++i) {
                const NodeId n = ln->nodeLo + static_cast<NodeId>(i);
                const size_t queued = (*ln->spec.nodeQueues)[n].size();
                if (ln->cursor[i] != queued) {
                    diags.push_back(
                        {"node" + std::to_string(n) + ".queue",
                         std::to_string(ln->cursor[i]) + " of " +
                             std::to_string(queued) + " dispatched",
                         "TB queue not drained at kernel end",
                         "an SM stopped pulling work while TBs remained"});
                }
            }
        }
        for (TbId tb = 0; tb < dims.numTbs() && diags.size() < 8; ++tb) {
            if (tb_warps_left[tb] != 0) {
                diags.push_back(
                    {"tb" + std::to_string(tb),
                     std::to_string(tb_warps_left[tb]) + " warps left",
                     "threadblock never fully retired",
                     "warp retirement accounting leaked"});
            }
        }
        if (!diags.empty()) {
            throw InvariantViolation(
                "kernel ended with undispatched or unretired "
                "threadblocks",
                std::move(diags));
        }
        mem_.checkDrained(end);
    }

    KernelRunStats stats;
    stats.startCycle = start;
    stats.endCycle = start;
    stats.tbCount = dims.numTbs();
    for (const Lane *ln : lanes) {
        stats.warpSteps += ln->warpSteps;
        stats.sectorAccesses += ln->sectorAccesses;
        stats.totalStepLatency += ln->totalStepLatency;
        stats.maxStepLatency =
            std::max(stats.maxStepLatency, ln->maxStepLatency);
        stats.endCycle = std::max(stats.endCycle, ln->endCycle);
        // A lane that sampled privately folds in now (sums are
        // order-independent); the serial lane sampled live.
        if (stepLatencyHist_ && ln->hist == &ln->ownHist)
            stepLatencyHist_->merge(ln->ownHist);
    }
    stats.warpInstrs =
        static_cast<double>(stats.warpSteps) * trace.instrsPerStep();
    ++kernelsRun_;
    tbsDispatchedTotal_ += static_cast<uint64_t>(stats.tbCount);
    return stats;
}

// kEngine section: loop kind, cumulative counters, the safe-point time,
// the per-TB warp counts, then every lane. Restore reproduces it
// verbatim -- the queues' internal layout in particular, since
// equal-time pop order is behavior-relevant. The Checkpointer frames
// the section when writing.
template <class Ar>
void
KernelEngine::io(Ar &ar, bool sharded, Cycles &at,
                 std::vector<int> &tb_warps_left,
                 const std::vector<Lane *> &lanes)
{
    if constexpr (Ar::kLoading)
        ar.openSection(snapshot::kEngine);
    bool image_sharded = sharded;
    ar.u8(image_sharded);
    if constexpr (Ar::kLoading) {
        if (image_sharded != sharded) {
            throw SimError(
                SimError::Kind::Config, "checkpoint state mismatch",
                {{"checkpoint.engine", loopName(image_sharded),
                  std::string("the checkpoint was written by the ") +
                      loopName(image_sharded) +
                      " loop but this run resolves to the " +
                      loopName(sharded) + " loop",
                  "resume with the same --shards / tracing setup that "
                  "produced the checkpoint"}});
        }
    }
    ar.u64(kernelsRun_);
    ar.u64(warpStepsTotal_);
    ar.u64(sectorAccessesTotal_);
    ar.u64(tbsDispatchedTotal_);
    ar.u64(pdesWindows_);
    ar.u64(pdesDeferredOps_);
    ar.u64(pdesLateEvents_);
    // Wall-clock observability; restored so the gauge stays monotone,
    // but inherently not comparable across interrupted/uninterrupted
    // runs (docs/robustness.md).
    ar.vec(pdesBarrierNs_);
    // The barrier gauges index by original shard count; never let a
    // (fingerprint-colliding) image change the vector's length.
    if constexpr (Ar::kLoading)
        pdesBarrierNs_.resize(static_cast<size_t>(maxShards_), 0);
    ar.u64(at);
    ar.vec(tb_warps_left);
    ar.count(lanes.size(), "engine lanes");
    for (Lane *ln : lanes)
        ar.io(*ln);
    if constexpr (Ar::kLoading) {
        ckpt_->finishRestore();
        ckpt_->noteResumed(at);
    }
}

template void KernelEngine::io(serial::Writer &, bool, Cycles &,
                               std::vector<int> &,
                               const std::vector<Lane *> &);
template void KernelEngine::io(serial::Reader &, bool, Cycles &,
                               std::vector<int> &,
                               const std::vector<Lane *> &);

namespace engine_detail
{

LaneSpec::LaneSpec(const SystemConfig &cfg, const LaunchDims &dims,
                   const std::vector<std::vector<TbId>> &node_queues,
                   const std::vector<NodeId> &sm_node,
                   std::vector<int> &tb_warps_left, Cycles *tb_start)
    : nodeQueues(&node_queues), smNode(sm_node.data()),
      numSms(cfg.totalSms()), tbWarpsLeft(tb_warps_left.data()),
      tbStart(tb_start),
      warpsPerTb(
          static_cast<int>(ceilDiv(dims.threadsPerTb(), cfg.warpSize))),
      maxResidentTbs(cfg.maxResidentTbsPerSm),
      warpSlotsPerSm(cfg.warpSlotsPerSm),
      depth(std::clamp(cfg.warpPipelineDepth, 1, 4)),
      gap(cfg.computeGapCycles)
{
}

Lane::Lane(const LaneSpec &spec_in, NodeId node_lo, NodeId node_hi,
           EventQueue::Mode mode, Cycles start, Histogram *live_hist)
    : spec(spec_in), nodeLo(node_lo),
      cursor(static_cast<size_t>(node_hi - node_lo), 0),
      pq(mode, std::max<Cycles>(spec_in.gap, 1)), endCycle(start),
      watchdogTime(start), ownHist(8, 32),
      hist(live_hist ? live_hist : &ownHist)
{
    // SM ids are numbered node-major (SystemConfig::nodeOfSm).
    const NodeId *first = spec.smNode, *last = first + spec.numSms;
    smLo = static_cast<SmId>(std::lower_bound(first, last, node_lo) - first);
    const auto hi = std::lower_bound(first, last, node_hi) - first;
    sms.assign(static_cast<size_t>(hi - smLo),
               SmState{0, spec.warpSlotsPerSm});
}

InvariantViolation
Lane::noProgress() const
{
    size_t dispatched = 0, queued = 0;
    for (size_t i = 0; i < cursor.size(); ++i) {
        dispatched += cursor[i];
        queued += (*spec.nodeQueues)[nodeLo + i].size();
    }
    return InvariantViolation(
        "engine made no progress for " + std::to_string(watchdogStuck) +
            " events on node(s) " + std::to_string(nodeLo) + ".." +
            std::to_string(nodeLo + cursor.size() - 1) + " (hung kernel?)",
        {{"engine.cycle", std::to_string(watchdogTime),
          "simulated time stopped advancing",
          "raise LADM_CHECK_WATCHDOG if the kernel is "
          "legitimately this dense"},
         {"engine.live_warps",
          std::to_string(warps.size() - freeWarps.size()),
          "warps still in flight at the stuck cycle",
          "check the trace source's retire condition"},
         {"engine.tbs_dispatched",
          std::to_string(dispatched) + " of " + std::to_string(queued),
          "threadblocks handed to SMs so far",
          "undispatched TBs are waiting on the stuck ones"}});
}

template <class Ar>
void
Lane::io(Ar &ar)
{
    ar.vec(cursor, "lane TB cursors");
    ar.vec(sms, "lane SMs");
    ar.u8(hasHeld);
    ar.u64(held.time);
    ar.u32(held.warp);
    ar.vec(warps);
    ar.vec(freeWarps);
    ar.u64(warpSteps);
    ar.u64(sectorAccesses);
    ar.u64(totalStepLatency);
    ar.u64(maxStepLatency);
    ar.u64(endCycle);
    ar.u64(lateEvents);
    ar.io(ownHist);
    ar.io(pq);
}

} // namespace engine_detail

} // namespace ladm
