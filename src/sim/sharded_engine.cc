/**
 * @file
 * The sharded conservative-PDES kernel event loop.
 *
 * The serial loop (kernel_engine.cc) drives one heap-mode lane over the
 * whole machine, with MemorySystem's immediate access lane. This loop
 * instead partitions the machine by NUMA node: each node gets its own
 * lane (sim/engine_internal.hh: the same TB admit, warp retire and step
 * completion, over a calendar event queue) plus a deferred
 * MemorySystem::AccessLane, and lanes are grouped onto worker threads
 * ("shards") by sched/shard_map.hh. Threads synchronize on conservative
 * time windows (classic PDES): no cross-node transfer completes in less
 * than the minimum cross-node link latency L, so every lane may
 * simulate [W, W+L) without seeing the others. The access body is the
 * serial loop's (MemorySystem::access); only its cross-node steps are
 * deferred, and executed in a canonical shard-count-independent order
 * at the window barrier (MemorySystem::executeShardOps); the steps that
 * waited on them resolve right after, in the same window. The invariant
 * suite runs here too: a no-progress watchdog per lane, and the drain
 * check both loops share.
 *
 * Window loop, two barriers per window:
 *
 *   parallel P: each lane runs its events with time < W_end
 *               (node-exclusive state only -- lock-free)
 *   barrier A (serial): execute deferred cross-node ops, fold stats,
 *               tick the timeline
 *   parallel R: each lane resolves its deferred steps and schedules
 *               their successor events
 *   barrier B (serial): W_end' = max(W_end, min over lane heads) + L,
 *               or terminate when every lane is drained
 *
 * Timestamps stay honest throughout: a deferred op executes with its
 * original issue cycle, and a successor event scheduled below W_end
 * (possible, because a deferred step's completion may land early in
 * the window) simply runs in the NEXT window with its true timestamp.
 * Such "late" events give bandwidth servers a slightly different --
 * but equally valid -- simultaneity order than the serial engine, the
 * same class of divergence as the calendar queue's FIFO tie order; the
 * skew is bounded by one window. Results are therefore not bit-equal
 * to the serial heap reference, but they ARE bit-equal across shard
 * counts: every per-lane decision is lane-sequential and every
 * cross-lane decision is made in canonical node order, so grouping
 * lanes onto 2 or 4 threads cannot change any outcome. See
 * docs/performance.md.
 */

#include <algorithm>
#include <chrono>
#include <memory>

#include "check/invariants.hh"
#include "common/spin_barrier.hh"
#include "common/thread_pool.hh"
#include "obs/timeline.hh"
#include "sched/shard_map.hh"
#include "sim/engine_internal.hh"
#include "sim/event_queue.hh"
#include "sim/kernel_engine.hh"
#include "snapshot/snapshot.hh"

namespace ladm
{

namespace
{

using engine_detail::kNoEvent;
using engine_detail::Lane;
using engine_detail::WarpState;

/** A step that issued deferred ops and waits for them at the barrier. */
struct Waiter
{
    uint32_t warp;
    Cycles time;    ///< issue cycle of the step
    Cycles done;    ///< max completion of its inline (non-deferred) part
    uint32_t opOff; ///< first index into PdesLane::waiterOps
    uint32_t opCnt;
};

/**
 * One NUMA node's lane plus its deferral machinery. Between barriers,
 * exactly one shard thread touches a lane; the barriers' acquire/release
 * ordering covers every cross-phase read (see common/spin_barrier.hh).
 * The queue runs in Calendar mode: FIFO among equal times is
 * reproducible under the re-held insertion below, and per-lane queues
 * are what the calendar's dense-timestamp assumption wants.
 */
struct PdesLane : Lane
{
    using Lane::Lane;

    MemorySystem::AccessLane mlane;
    /** The invariant suite's watchdog stopped this lane. */
    bool hung = false;
    std::vector<Waiter> waiters;
    std::vector<uint32_t> waiterOps;
    std::vector<MemAccess> buf;
};

} // namespace

KernelRunStats
KernelEngine::runSharded(const LaunchDims &dims, TraceSource &trace,
                         const std::vector<TraceSource *> &shard_traces,
                         const std::vector<std::vector<TbId>> &node_queues,
                         Cycles start, bool resume)
{
    const int num_nodes = cfg_.numNodes();
    const int num_shards = maxShards_;
    const ShardMap map = buildShardMap(cfg_, num_shards);

    std::vector<int> tb_warps_left(dims.numTbs(), 0);
    const engine_detail::LaneSpec spec(cfg_, dims, node_queues, smNode_,
                                       tb_warps_left, nullptr);
    std::vector<std::unique_ptr<PdesLane>> pdes_lanes;
    std::vector<Lane *> lanes;
    for (NodeId n = 0; n < num_nodes; ++n) {
        pdes_lanes.push_back(std::make_unique<PdesLane>(
            spec, n, n + 1, EventQueue::Mode::Calendar, start, nullptr));
        lanes.push_back(pdes_lanes.back().get());
    }

    // No-progress watchdog (opt-in, see Lane::stalled), per lane: a
    // hung lane never reaches its window end, so it must stop itself.
    const bool check_on = check::enabled();
    const uint64_t watchdog_limit = check_on ? check::watchdogLimit() : 0;

    // Phase P: run one lane up to (exclusive) the window end. A lane the
    // watchdog stops keeps its event held: resolve() re-files it, so
    // the lane is at a safe point when the run ends at the barrier.
    auto processWindow = [&](PdesLane &ln, TraceSource &tr, Cycles wend) {
        for (;;) {
            ln.hold();
            if (ln.headTime() >= wend)
                break;
            if (check_on && ln.stalled(ln.held.time, watchdog_limit)) {
                ln.hung = true;
                break;
            }
            const WarpEvent ev = ln.held;
            ln.hasHeld = false;
            const WarpState &w = ln.warps[ev.warp];

            ln.buf.clear();
            if (!tr.warpStep(w.tb, w.warpInTb, w.step, ln.buf)) {
                ln.retire(ev.warp, ev.time);
                continue;
            }

            ln.noteIssue(ln.buf.size());
            Cycles done = ev.time;
            const auto op_off =
                static_cast<uint32_t>(ln.waiterOps.size());
            for (const auto &a : ln.buf) {
                const MemorySystem::ShardAccess r = mem_.access(
                    ln.mlane, ev.time, w.sm, a.addr, a.write);
                if (r.deferred())
                    ln.waiterOps.push_back(r.op);
                else
                    done = std::max(done, r.done);
            }
            const auto op_cnt =
                static_cast<uint32_t>(ln.waiterOps.size()) - op_off;
            if (op_cnt == 0)
                ln.completeStep(ev.warp, ev.time, done);
            else
                ln.waiters.push_back(
                    {ev.warp, ev.time, done, op_off, op_cnt});
        }
    };

    // Phase R: finish this window's deferred steps, then re-normalize
    // the held slot (a resolved step's successor may undercut it).
    auto resolve = [&](PdesLane &ln, Cycles wend) {
        for (const Waiter &wt : ln.waiters) {
            Cycles done = wt.done;
            for (uint32_t i = 0; i < wt.opCnt; ++i) {
                const uint32_t op = ln.waiterOps[wt.opOff + i];
                done = std::max(done, ln.mlane.ops[op].done);
            }
            if (ln.completeStep(wt.warp, wt.time, done) < wend)
                ++ln.lateEvents;
        }
        ln.waiters.clear();
        ln.waiterOps.clear();
        ln.mlane.clearWindow();
        if (ln.hasHeld) {
            ln.pq.push(ln.held.time, ln.held.warp);
            ln.hasHeld = false;
        }
        ln.hold();
    };

    // Shared window state: written only inside barrier serial sections,
    // read by every shard after the release -- the barrier's ordering
    // makes these plain fields race-free.
    Cycles window_end = 0;
    bool run_windows = false;

    // Checkpoint image of the sharded loop, written only inside the
    // window-advance barrier's serial section (serial_b): every lane is
    // quiescent there -- resolve() cleared the waiters and the shard
    // lane's deferred-op outbox, and re-normalized the held slot -- so
    // per-lane state is closed. window_end is serialized post-advance:
    // the restored run's next window must batch deferred ops exactly as
    // the uninterrupted run's would.
    auto save = [&](serial::Writer &w) {
        io(w, /*sharded=*/true, window_end, tb_warps_left, lanes);
    };

    if (resume) {
        io(ckpt_->reader(), /*sharded=*/true, window_end, tb_warps_left,
           lanes);
        // Mid-kernel checkpoints are only taken while events remain.
        run_windows = true;
    } else {
        // Serial setup: initial admission and the first window bound.
        Cycles min_head = kNoEvent;
        for (Lane *ln : lanes) {
            ln->admitAll(start);
            ln->hold();
            min_head = std::min(min_head, ln->headTime());
        }
        if (min_head != kNoEvent) {
            window_end = min_head + lookahead_;
            run_windows = true;
        }
    }

    // The cumulative totals already include each restored lane's
    // mid-kernel progress, so the bases subtract it back out (zero on a
    // fresh run): serial_a re-derives the totals as base + lane sums.
    uint64_t lane_ws = 0, lane_sa = 0, lane_late = 0;
    for (const Lane *ln : lanes) {
        lane_ws += ln->warpSteps;
        lane_sa += ln->sectorAccesses;
        lane_late += ln->lateEvents;
    }
    const uint64_t ws_base = warpStepsTotal_ - lane_ws;
    const uint64_t sa_base = sectorAccessesTotal_ - lane_sa;
    const uint64_t late_base = pdesLateEvents_ - lane_late;

    bool interrupted = false;
    Cycles interrupted_at = 0;
    const PdesLane *hung = nullptr;

    if (run_windows) {
        bool finished = false;
        std::vector<MemorySystem::ShardOp *> all_ops;

        SpinBarrier bar_a(static_cast<uint32_t>(num_shards));
        SpinBarrier bar_b(static_cast<uint32_t>(num_shards));

        auto serial_a = [&] {
            all_ops.clear();
            for (auto &ln : pdes_lanes)
                for (auto &op : ln->mlane.ops)
                    all_ops.push_back(&op);
            mem_.executeShardOps(all_ops);
            pdesDeferredOps_ += all_ops.size();
            ++pdesWindows_;
            uint64_t ws = 0, sa = 0;
            for (const Lane *ln : lanes) {
                ws += ln->warpSteps;
                sa += ln->sectorAccesses;
            }
            warpStepsTotal_ = ws_base + ws;
            sectorAccessesTotal_ = sa_base + sa;
            if (timeline_)
                timeline_->maybeTick(window_end);
        };

        auto serial_b = [&] {
            // Checkpoint timestamp: the boundary the lanes just drained
            // to. The serialized image still carries the *advanced*
            // window_end computed below, so the restored run partitions
            // deferred ops into the same windows as this one would.
            const Cycles boundary = window_end;
            Cycles head = kNoEvent;
            uint64_t late = 0;
            for (const Lane *ln : lanes) {
                head = std::min(head, ln->headTime());
                late += ln->lateEvents;
            }
            pdesLateEvents_ = late_base + late;
            if (head == kNoEvent)
                finished = true;
            else
                window_end = std::max(window_end, head) + lookahead_;
            for (const auto &ln : pdes_lanes) {
                if (ln->hung && !hung)
                    hung = ln.get();
            }
            if (hung) {
                // Watchdog: end the run here and leave a replayable
                // post-mortem checkpoint; the violation is thrown on the
                // caller thread once the pool drains.
                finished = true;
                if (ckpt_)
                    ckpt_->postMortem(boundary, save);
            } else if (ckpt_ && !finished && ckpt_->pending(boundary)) {
                if (ckpt_->capture(boundary, save)) {
                    // Stop requested: end the window loop on every
                    // shard; the unwinding throw happens on the caller
                    // thread after the pool drains (workers must not
                    // throw).
                    interrupted = true;
                    interrupted_at = boundary;
                    finished = true;
                }
            }
        };

        auto shardLoop = [&](int s) {
            TraceSource &tr =
                s == 0 ? trace
                       : *shard_traces[static_cast<size_t>(s - 1)];
            const auto &my_nodes =
                map.nodesOfShard[static_cast<size_t>(s)];
            uint64_t wait_ns = 0;
            using clock = std::chrono::steady_clock;
            for (;;) {
                const Cycles wend = window_end;
                for (const NodeId n : my_nodes)
                    processWindow(*pdes_lanes[static_cast<size_t>(n)], tr,
                                  wend);
                const auto t0 = clock::now();
                bar_a.arriveAndWait(serial_a);
                const auto t1 = clock::now();
                for (const NodeId n : my_nodes)
                    resolve(*pdes_lanes[static_cast<size_t>(n)], wend);
                const auto t2 = clock::now();
                bar_b.arriveAndWait(serial_b);
                const auto t3 = clock::now();
                wait_ns += static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        (t1 - t0) + (t3 - t2))
                        .count());
                if (finished)
                    break;
            }
            pdesBarrierNs_[static_cast<size_t>(s)] += wait_ns;
        };

        // Workers must not throw (ThreadPool contract) and cannot: all
        // input validation ran in run() before dispatch, the loop body
        // allocates only through vectors sized by the workload, and the
        // watchdog and the checkpoint stop only flag the run to end.
        ThreadPool pool(num_shards - 1);
        for (int s = 1; s < num_shards; ++s)
            pool.submit([&shardLoop, s] { shardLoop(s); });
        shardLoop(0);
        pool.wait();
    }

    if (hung)
        throw hung->noProgress();
    if (interrupted)
        throw snapshot::Interrupted(ckpt_->outPath(), interrupted_at);

    return finishRun(dims, trace, start, tb_warps_left, lanes);
}

} // namespace ladm
