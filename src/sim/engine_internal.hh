/**
 * @file
 * The lane: the one warp/TB state machine both kernel event loops
 * drive. A lane is a slice of one launch: a contiguous range of NUMA
 * nodes and their SMs, a TB dispatch cursor per node, the resident
 * warps, their event queue, and the run stats of the steps it executed.
 * The serial loop (sim/kernel_engine.cc) drives one heap-mode lane over
 * the whole machine; the sharded PDES loop (sim/sharded_engine.cc) one
 * calendar-mode lane per node. Internal to the engine -- nothing
 * outside sim/ should include this.
 */

#ifndef LADM_SIM_ENGINE_INTERNAL_HH
#define LADM_SIM_ENGINE_INTERNAL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/sim_error.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace ladm
{

struct LaunchDims;
struct SystemConfig;

namespace engine_detail
{

constexpr Cycles kNoEvent = std::numeric_limits<Cycles>::max();

struct WarpState
{
    TbId tb = 0;
    int warpInTb = 0;
    SmId sm = 0;
    int64_t step = 0;
    /** Completion times of the last in-flight steps (pipeline window). */
    std::array<Cycles, 4> doneRing{};
};

struct SmState
{
    int residentTbs = 0;
    int freeWarpSlots = 0;
};

/** Launch facts shared by every lane of one run(). */
struct LaneSpec
{
    LaneSpec(const SystemConfig &cfg, const LaunchDims &dims,
             const std::vector<std::vector<TbId>> &node_queues,
             const std::vector<NodeId> &sm_node,
             std::vector<int> &tb_warps_left, Cycles *tb_start);

    const std::vector<std::vector<TbId>> *nodeQueues;
    const NodeId *smNode; ///< nodeOfSm() table
    SmId numSms;
    /** Warps left per TB; only the lane owning a TB's node touches it. */
    int *tbWarpsLeft;
    /** Dispatch cycle per TB, kept only while tracing (else null). */
    Cycles *tbStart;
    int warpsPerTb;
    int maxResidentTbs;
    int warpSlotsPerSm;
    int depth; ///< warp pipeline depth, clamped to [1, 4]
    Cycles gap;
};

/**
 * io() is valid only at a safe point, where no step of the lane waits
 * on memory. Lanes never move: @p live_hist, or the lane's own
 * histogram when null, receives every step latency.
 */
struct alignas(64) Lane
{
    /** Cover nodes [@p node_lo, @p node_hi); their SMs are contiguous. */
    Lane(const LaneSpec &spec, NodeId node_lo, NodeId node_hi,
         EventQueue::Mode mode, Cycles start, Histogram *live_hist);
    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    /** Fill @p sm with TBs from its node's queue while they fit. */
    void
    admit(SmId sm, Cycles now)
    {
        const NodeId node = spec.smNode[sm];
        const auto &q = (*spec.nodeQueues)[static_cast<size_t>(node)];
        size_t &pos = cursor[static_cast<size_t>(node - nodeLo)];
        SmState &st = sms[static_cast<size_t>(sm - smLo)];
        while (st.residentTbs < spec.maxResidentTbs &&
               st.freeWarpSlots >= spec.warpsPerTb && pos < q.size()) {
            const TbId tb = q[pos++];
            if (spec.tbStart)
                spec.tbStart[tb] = now;
            ++st.residentTbs;
            st.freeWarpSlots -= spec.warpsPerTb;
            spec.tbWarpsLeft[tb] = spec.warpsPerTb;
            for (int w = 0; w < spec.warpsPerTb; ++w) {
                uint32_t slot;
                if (!freeWarps.empty()) {
                    slot = freeWarps.back();
                    freeWarps.pop_back();
                } else {
                    slot = static_cast<uint32_t>(warps.size());
                    warps.emplace_back();
                }
                warps[slot] = WarpState{tb, w, sm, 0, {}};
                pq.push(now, slot);
            }
        }
    }

    /** Initial admission on every SM of the lane, in SM order. */
    void
    admitAll(Cycles now)
    {
        for (size_t i = 0; i < sms.size(); ++i)
            admit(smLo + static_cast<SmId>(i), now);
    }

    /**
     * Warp @p slot ran out of steps at @p ev_time. Pipelined steps may
     * still be outstanding, so the warp is done only when the newest
     * completion lands: returns that cycle. The slot is freed, and when
     * it was its TB's last warp the SM pulls the next TB.
     */
    Cycles
    retire(uint32_t slot, Cycles ev_time)
    {
        const WarpState &w = warps[slot];
        Cycles fin = ev_time;
        for (const Cycles d : w.doneRing)
            fin = std::max(fin, d);
        const SmId sm = w.sm;
        SmState &st = sms[static_cast<size_t>(sm - smLo)];
        ++st.freeWarpSlots;
        freeWarps.push_back(slot);
        if (--spec.tbWarpsLeft[w.tb] == 0) {
            --st.residentTbs;
            admit(sm, fin);
        }
        endCycle = std::max(endCycle, fin);
        return fin;
    }

    /** Count one issued step of @p n sector accesses. */
    void noteIssue(size_t n) { ++warpSteps; sectorAccesses += n; }

    /**
     * The step warp @p slot issued at @p ev_time completed at @p done.
     * A warp may run `depth` loop iterations ahead of the oldest
     * outstanding one: the next step issues once the step `depth`
     * iterations back has completed (scoreboard dependence), but no
     * earlier than the compute gap after this issue. Schedules that
     * successor and returns its cycle.
     */
    Cycles
    completeStep(uint32_t slot, Cycles ev_time, Cycles done)
    {
        WarpState &w = warps[slot];
        const Cycles lat = done - ev_time;
        totalStepLatency += lat;
        maxStepLatency = std::max(maxStepLatency, lat);
        hist->sample(lat);
        w.doneRing[static_cast<size_t>(w.step % spec.depth)] = done;
        const Cycles dep =
            w.doneRing[static_cast<size_t>((w.step + 1) % spec.depth)];
        ++w.step;
        const Cycles next = std::max(ev_time + spec.gap, dep + spec.gap);
        pq.push(next, slot);
        return next;
    }

    /** Fill an empty held slot with the earliest queued event. */
    void
    hold()
    {
        if (!hasHeld && !pq.empty()) {
            held = pq.pop();
            hasHeld = true;
        }
    }

    /** Time of the held event, kNoEvent when none is held. */
    Cycles headTime() const { return hasHeld ? held.time : kNoEvent; }

    /**
     * No-progress watchdog of the invariant suite: a healthy kernel
     * advances simulated time within a bounded number of events (every
     * warp's next wake-up moves forward by at least the compute gap).
     * A trace that never retires combined with a zero gap spins at one
     * cycle forever. Feed every event time @p t of the lane; true once
     * more than @p limit events ran without time advancing.
     */
    bool
    stalled(Cycles t, uint64_t limit)
    {
        if (t > watchdogTime) {
            watchdogTime = t;
            watchdogStuck = 0;
            return false;
        }
        return ++watchdogStuck > limit;
    }

    /** The watchdog's structured abort, with the lane's state. */
    InvariantViolation noProgress() const;

    /** Checkpoint image of the lane's state (not its spec). */
    template <class Ar> void io(Ar &ar);

    LaneSpec spec;
    NodeId nodeLo = 0;
    SmId smLo = 0;
    /** Dispatch position in each covered node's TB queue. */
    std::vector<size_t> cursor;
    std::vector<SmState> sms; ///< indexed by sm - smLo

    EventQueue pq;
    /**
     * One-slot lookahead for the sharded loop's window bound
     * (EventQueue has no peek); the serial loop never holds.
     */
    bool hasHeld = false;
    WarpEvent held{0, 0};

    std::vector<WarpState> warps;
    std::vector<uint32_t> freeWarps;

    // Run stats of this launch, folded into KernelRunStats at the end.
    uint64_t warpSteps = 0;
    uint64_t sectorAccesses = 0;
    Cycles totalStepLatency = 0;
    Cycles maxStepLatency = 0;
    Cycles endCycle = 0;
    /** Sharded only: successors scheduled below their window's end. */
    uint64_t lateEvents = 0;
    /** stalled()'s state: the newest event time, events run at it. */
    Cycles watchdogTime = 0;
    uint64_t watchdogStuck = 0;
    Histogram ownHist;
    Histogram *hist;
};

} // namespace engine_detail
} // namespace ladm

#endif // LADM_SIM_ENGINE_INTERNAL_HH
