/**
 * @file
 * io() definitions for every checkpointable simulator component,
 * gathered in one translation unit so the checkpoint format has a single
 * home: reading this file top to bottom walks the kMemory / kRegistry
 * payload byte for byte.
 *
 * Each component describes its state once, in
 * `template <class Ar> void io(Ar &ar)`: with a serial::Writer the body
 * writes every field, with a serial::Reader it reads them back in the
 * same order, so save and load cannot drift apart. The verbs name the
 * wire width (common/serial.hh); work that only a load does -- range
 * checks, unpacking, index rebuilds -- sits under
 * `if constexpr (Ar::kLoading)`. The bodies are instantiated for both
 * archives at the bottom of this file, so the component headers carry
 * only a declaration.
 *
 * Conventions:
 *
 *  - Configuration-derived members (sizes, associativities, latencies,
 *    bucket widths) are NOT serialized; the config fingerprint in the
 *    header guarantees the restoring run derives identical values. Where
 *    cheap, a count is written anyway and checked on load (count(), or
 *    vec() with a name) so a fingerprint collision surfaces as a
 *    SimError, not memory stomping.
 *  - Structs with padding (WarpEvent, TlbEntry, ...) and packed words
 *    (cache way state) are serialized field-wise; vec() memcpys only
 *    padding-free elements, and refuses others at compile time.
 *  - Hash maps are written in iteration order. That order is not
 *    deterministic, but it is never behavior-relevant: both maps here
 *    (page exceptions, migration streaks) are key-probed only, and the
 *    restored map answers every probe identically.
 */

#include <algorithm>
#include <string>

#include "cache/cache.hh"
#include "common/serial.hh"
#include "common/stats.hh"
#include "interconnect/network.hh"
#include "mem/dram.hh"
#include "mem/migration.hh"
#include "mem/page_table.hh"
#include "mem/uvm.hh"
#include "obs/timeline.hh"
#include "sim/event_queue.hh"
#include "sim/memory_system.hh"
#include "sim/mshr_table.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

// --- common/bandwidth_server.hh --------------------------------------------

template <class Ar>
void
BandwidthServer::io(Ar &ar)
{
    ar.u64(nextFree_);
    ar.f64(fracBusy_);
    ar.u64(totalBytes_);
    ar.u64(busyCycles_);
}

// --- common/stats.hh --------------------------------------------------------

template <class Ar>
void
Counter::io(Ar &ar)
{
    ar.u64(value_);
}

template <class Ar>
void
Average::io(Ar &ar)
{
    ar.f64(sum_);
    ar.u64(count_);
}

template <class Ar>
void
Histogram::io(Ar &ar)
{
    ar.u64(bucketWidth_);
    ar.vec(buckets_);
    ar.u64(overflow_);
    ar.u64(total_);
    ar.f64(sum_);
    ar.u64(max_);
}

template <class Ar>
void
LogHistogram::io(Ar &ar)
{
    for (uint64_t &b : buckets_)
        ar.u64(b);
    ar.u64(total_);
    ar.f64(sum_);
    ar.u64(min_);
    ar.u64(max_);
}

template <class Ar>
void
StatGroup::io(Ar &ar)
{
    // Loading merges: lazily-registered entries are re-created, and
    // entries the restoring process registered but the checkpoint lacks
    // keep their fresh (zero) state.
    ar.map(counters_, [&](Counter &c) { ar.io(c); });
    ar.map(averages_, [&](Average &a) { ar.io(a); });
    ar.map(histograms_, [&](Histogram &h) { ar.io(h); });
    ar.map(logHistograms_, [&](LogHistogram &h) { ar.io(h); });
}

// --- telemetry/stat_registry.hh --------------------------------------------

namespace telemetry
{

template <class Ar>
void
Snapshot::io(Ar &ar)
{
    if constexpr (Ar::kLoading)
        values.clear();
    ar.map(values, [&](Sample &s) {
        ar.f64(s.value);
        ar.u8(s.kind);
    });
}

template <class Ar>
void
StatRegistry::io(Ar &ar)
{
    ar.map(
        groups_, [&](StatGroup &g) { ar.io(g); },
        [&](const std::string &path) -> StatGroup & { return group(path); });
}

} // namespace telemetry

// --- obs/timeline.hh --------------------------------------------------------

namespace obs
{

template <class Ar>
void
Timeline::io(Ar &ar)
{
    ar.count(paths_.size(), "timeline paths");
    ar.u64(windowCycles_);
    ar.u64(windowStart_);
    ar.u64(nextAt_);
    ar.u64(merges_);
    ar.u8(finished_);
    ar.vec(lastVals_);
    ar.size(windows_);
    for (TimelineWindow &win : windows_) {
        ar.u64(win.start);
        ar.u64(win.end);
        ar.vec(win.delta);
    }
}

} // namespace obs

// --- sim/event_queue.hh -----------------------------------------------------

template <class Ar>
void
EventQueue::io(Ar &ar)
{
    const bool calendar = mode_ == Mode::Calendar;
    bool image_calendar = calendar;
    ar.u8(image_calendar);
    if constexpr (Ar::kLoading)
        ar.expect(image_calendar, calendar, "event queue mode");
    ar.u64(size_);
    // The heap vector's STRUCTURAL order (not just its multiset of
    // events) is serialized: equal-time pops follow the array layout.
    ar.size(heap_);
    for (WarpEvent &e : heap_) {
        ar.u64(e.time);
        ar.u32(e.warp);
    }
    if (!calendar)
        return;
    ar.u64(cursor_);
    ar.u64(yearStart_);
    ar.u64(inYear_);
    ar.u64(seq_);
    auto entry = [&](Entry &e) {
        ar.u64(e.time);
        ar.u64(e.seq);
        ar.u32(e.warp);
    };
    ar.size(overflow_);
    for (Entry &e : overflow_)
        entry(e);
    ar.count(buckets_.size(), "calendar buckets");
    for (auto &b : buckets_) {
        ar.size(b);
        for (Entry &e : b)
            entry(e);
    }
}

// --- sim/mshr_table.hh ------------------------------------------------------

template <class Ar>
void
MshrTable::io(Ar &ar)
{
    ar.vec(slots_);
    ar.u64(mask_);
    ar.u32(shift_);
    ar.u64(size_);
    ar.u64(gen_);
    if constexpr (Ar::kLoading) {
        genBase_ = gen_ << kGenShift;
        if (slots_.empty() || (slots_.size() & mask_) != 0)
            ar.mismatch("MSHR table geometry");
    }
}

// --- cache/cache.hh ---------------------------------------------------------

// Way-major byte layout, independent of the packed in-memory sets:
// every tag in (set, way) order, then per way u8 valid, u8 dirty,
// u64 lastUse.

template <class Ar>
void
SectoredCache::io(Ar &ar)
{
    std::vector<Addr> tags(numSets_ * assoc_);
    if constexpr (!Ar::kLoading) {
        for (size_t set = 0; set < numSets_; ++set)
            std::copy_n(setAt(set), assoc_, tags.begin() + set * assoc_);
    }
    ar.vec(tags, "cache ways");
    for (size_t set = 0; set < numSets_; ++set) {
        if constexpr (Ar::kLoading)
            std::copy_n(tags.begin() + set * assoc_, assoc_, setAt(set));
        uint64_t *const way = setAt(set) + assoc_;
        for (int i = 0; i < assoc_; ++i) {
            uint64_t valid = way[i] & kValidMask;
            uint64_t dirty = (way[i] >> kSectorsPerLine) & kValidMask;
            uint64_t last_use = way[i] >> kUseShift;
            ar.u8(valid);
            ar.u8(dirty);
            ar.u64(last_use);
            if constexpr (Ar::kLoading) {
                if ((valid | dirty) > kValidMask ||
                    last_use >> (64 - kUseShift) != 0)
                    ar.mismatch("cache way state");
                way[i] = last_use << kUseShift |
                         dirty << kSectorsPerLine | valid;
            }
        }
    }
    ar.u64(useClock_);
    ar.u64(accesses_);
    ar.u64(hits_);
    ar.u64(sectorMisses_);
    ar.u64(lineMisses_);
    ar.u64(bypasses_);
}

// --- mem/page_table.hh ------------------------------------------------------

template <class Ar>
void
PageTable::io(Ar &ar)
{
    if constexpr (Ar::kLoading) {
        segments_.clear();
        exceptions_.clear();
    }
    ar.u64(gen_);
    ar.map(segments_, [&](Segment &s) {
        ar.u64(s.end);
        ar.u64(s.anchor);
        ar.u64(s.gen);
        ar.u8(s.kind);
        ar.u32(s.node);
        ar.u64(s.granule);
        ar.vec(s.nodes);
    });
    ar.map(exceptions_, [&](PageExc &e) {
        ar.u32(e.node);
        ar.u64(e.gen);
    });
    // The TLB and its counters ride along: they are published stats, so
    // a cold-TLB restore would diverge from the uninterrupted run.
    for (TlbEntry &e : tlb_) {
        ar.u64(e.tag);
        ar.u32(e.node);
    }
    ar.u64(tlbHits_);
    ar.u64(tlbMisses_);
    ar.u64(tlbFlushes_);
}

// --- mem/dram.hh, mem/uvm.hh, mem/migration.hh ------------------------------

template <class Ar>
void
Dram::io(Ar &ar)
{
    ar.io(server_);
    ar.u64(accesses_);
}

template <class Ar>
void
Uvm::io(Ar &ar)
{
    ar.u64(faults_);
}

template <class Ar>
void
MigrationEngine::io(Ar &ar)
{
    if constexpr (Ar::kLoading)
        streaks_.clear();
    ar.map(streaks_, [&](Streak &s) {
        ar.u32(s.node);
        ar.u32(s.count);
    });
    ar.u64(migrations_);
}

// --- interconnect ----------------------------------------------------------

template <class Ar>
void
Link::io(Ar &ar)
{
    ar.io(server_);
}

template <class Ar>
void
Network::io(Ar &ar)
{
    ar.u64(interNodeBytes_);
    ar.u64(interGpuBytes_);
    ar.u64(severedCrossings_);
    for (Link &l : links_)
        ar.io(l);
}

// --- sim/memory_system.hh ---------------------------------------------------

template <class Ar>
void
MemorySystem::io(Ar &ar)
{
    ar.io(pageTable_);
    ar.io(uvm_);
    ar.count(l1_.size(), "L1 caches");
    for (SectoredCache &c : l1_)
        ar.io(c);
    ar.count(l2_.size(), "L2 caches");
    for (SectoredCache &c : l2_)
        ar.io(c);
    ar.count(dram_.size(), "DRAM channels");
    for (Dram &d : dram_)
        ar.io(d);
    ar.count(xbar_.size(), "crossbars");
    for (BandwidthServer &b : xbar_)
        ar.io(b);
    ar.io(migration_);
    ar.io(*net_);
    ar.u8(policy_);
    ar.count(pending_.size(), "MSHR tables");
    for (MshrTable &t : pending_)
        ar.io(t);
    ar.vec(pendingSweepAt_);
    ar.vec(fetchLocal_);
    ar.vec(fetchRemote_);
    ar.count(ctr_.size(), "node counters");
    for (NodeCounters &c : ctr_) {
        ar.u64(c.delayXbar);
        ar.u64(c.delayNet);
        ar.u64(c.delayDram);
        ar.u64(c.l1Hits);
        ar.u64(c.l1Accesses);
        ar.u64(c.mshrMerges);
        ar.u64(c.writebackSectors);
        ar.u64(c.rehomedPages);
        ar.u64(c.failedNodeAccesses);
        for (uint64_t &v : c.clsAcc)
            ar.u64(v);
        for (uint64_t &v : c.clsHit)
            ar.u64(v);
    }
}

#define LADM_IO_BOTH(T)                                                     \
    template void T::io(serial::Writer &);                                 \
    template void T::io(serial::Reader &)

LADM_IO_BOTH(BandwidthServer);
LADM_IO_BOTH(Counter);
LADM_IO_BOTH(Average);
LADM_IO_BOTH(Histogram);
LADM_IO_BOTH(LogHistogram);
LADM_IO_BOTH(StatGroup);
LADM_IO_BOTH(telemetry::Snapshot);
LADM_IO_BOTH(telemetry::StatRegistry);
LADM_IO_BOTH(obs::Timeline);
LADM_IO_BOTH(EventQueue);
LADM_IO_BOTH(MshrTable);
LADM_IO_BOTH(SectoredCache);
LADM_IO_BOTH(PageTable);
LADM_IO_BOTH(Dram);
LADM_IO_BOTH(Uvm);
LADM_IO_BOTH(MigrationEngine);
LADM_IO_BOTH(Link);
LADM_IO_BOTH(Network);
LADM_IO_BOTH(MemorySystem);

#undef LADM_IO_BOTH

} // namespace ladm
