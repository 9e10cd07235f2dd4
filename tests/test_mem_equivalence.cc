/**
 * @file
 * Differential tests pinning the hot-path rebuild to the historical
 * implementations it replaced:
 *
 *  - the segmented PageTable (+ home-translation TLB) against the old
 *    byte-interval run map, re-implemented here verbatim as the
 *    reference model and driven with randomized placement histories
 *    (bulk uniform, Eq. 1 stride interleave, row-blocked strips,
 *    first-touch exceptions, migration streaks, fault re-homes);
 *  - the open-addressed MshrTable against the unordered_map it
 *    replaced, including collision chains, backward-shift deletion,
 *    expiry sweeps, and the O(1) generation-stamped clear (with
 *    generation wrap-around);
 *  - the packed set-major SectoredCache against the way-major tag +
 *    per-way metadata arrays it replaced, down to checkpoint bytes;
 *  - the EventQueue's two modes against the std::priority_queue the
 *    engine historically used.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "mem/address.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/mshr_table.hh"

namespace ladm
{
namespace
{

// ---------------------------------------------------------------------------
// Reference model: the pre-overhaul interval-map page table. This is the
// exact insertion/carve/lookup logic the simulator shipped with before
// the segmented table, kept here as the semantic oracle.
// ---------------------------------------------------------------------------
class RunMapReference
{
  public:
    explicit RunMapReference(Bytes page_size) : pageSize_(page_size) {}

    void
    place(Addr addr, Bytes size, NodeId node)
    {
        if (size == 0)
            return;
        placeAligned(roundDown(addr, pageSize_),
                     roundUp(addr + size, pageSize_), node);
    }

    void
    placeSubPage(Addr addr, Bytes size, NodeId node)
    {
        if (size == 0)
            return;
        placeAligned(roundDown(addr, kSectorSize),
                     roundUp(addr + size, kSectorSize), node);
    }

    /** The loop of place() calls the bulk-placement APIs replaced. */
    void
    placeStrideInterleave(Addr base, Bytes size,
                          const std::vector<NodeId> &nodes, Bytes granule,
                          Bytes round)
    {
        const Addr start = roundDown(base, round);
        const Addr end = roundUp(base + size, round);
        size_t k = 0;
        for (Addr a = start; a < end; a += granule, ++k)
            placeAligned(a, std::min<Addr>(a + granule, end),
                         nodes[k % nodes.size()]);
    }

    void
    placeRowBlocked(Addr base, Bytes row_bytes,
                    const std::vector<NodeId> &row_nodes,
                    Bytes total_bytes)
    {
        const size_t rows = row_nodes.size();
        Addr end = base + static_cast<Bytes>(rows) * row_bytes;
        if (total_bytes)
            end = roundUp(base + total_bytes, pageSize_);
        for (size_t r = 0; r < rows; ++r) {
            const Addr lo = base + static_cast<Bytes>(r) * row_bytes;
            Addr hi = lo + row_bytes;
            if (r + 1 == rows)
                hi = std::max<Addr>(hi, end); // residue joins last row
            if (lo >= end)
                break;
            placeAligned(lo, std::min<Addr>(hi, end), row_nodes[r]);
        }
    }

    NodeId
    lookup(Addr addr) const
    {
        auto it = runs_.upper_bound(addr);
        if (it == runs_.begin())
            return kInvalidNode;
        --it;
        return addr < it->second.end ? it->second.node : kInvalidNode;
    }

  private:
    struct Run
    {
        Addr end;
        NodeId node;
    };

    void
    carve(Addr start, Addr end)
    {
        auto it = runs_.lower_bound(start);
        if (it != runs_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end > start) {
                Run old = prev->second;
                prev->second.end = start;
                if (old.end > end)
                    runs_.emplace(end, Run{old.end, old.node});
            }
        }
        while (it != runs_.end() && it->first < end) {
            if (it->second.end > end) {
                Run tail{it->second.end, it->second.node};
                it = runs_.erase(it);
                runs_.emplace(end, tail);
                break;
            }
            it = runs_.erase(it);
        }
    }

    void
    placeAligned(Addr start, Addr end, NodeId node)
    {
        carve(start, end);
        auto next = runs_.lower_bound(start);
        if (next != runs_.end() && next->first == end &&
            next->second.node == node) {
            end = next->second.end;
            runs_.erase(next);
        }
        if (!runs_.empty()) {
            auto prev = runs_.upper_bound(start);
            if (prev != runs_.begin()) {
                --prev;
                if (prev->second.end == start &&
                    prev->second.node == node) {
                    prev->second.end = end;
                    return;
                }
            }
        }
        runs_.emplace(start, Run{end, node});
    }

    Bytes pageSize_;
    std::map<Addr, Run> runs_;
};

constexpr Bytes kPage = 4096;
constexpr int kNodes = 16;

/** Probe both tables at @p addr; lookup twice so the second hit comes
 *  from the TLB and must agree with the table walk that filled it. */
void
expectSameHome(const PageTable &pt, const RunMapReference &ref, Addr addr)
{
    const NodeId want = ref.lookup(addr);
    ASSERT_EQ(pt.lookup(addr), want) << "addr " << addr;
    ASSERT_EQ(pt.lookup(addr), want) << "TLB re-probe at " << addr;
}

TEST(MemEquivalence, RandomizedPlacementHistories)
{
    Rng rng(0xfeedface);
    for (int round = 0; round < 8; ++round) {
        PageTable pt(kPage);
        RunMapReference ref(kPage);

        // A handful of "allocations" the ops land in, as in real runs.
        const Addr arena = 1ull << 21;
        std::vector<Addr> bases;
        for (int a = 0; a < 6; ++a)
            bases.push_back(arena * (a + 1));

        std::vector<Addr> touched; // sample pool for probes
        for (int op = 0; op < 300; ++op) {
            const Addr base = bases[rng.nextBounded(bases.size())];
            const Addr off = rng.nextBounded(256) * kPage;
            const NodeId node =
                static_cast<NodeId>(rng.nextBounded(kNodes));
            switch (rng.nextBounded(6)) {
            case 0: { // bulk uniform placement
                const Bytes sz = (1 + rng.nextBounded(64)) * kPage;
                pt.place(base + off, sz, node);
                ref.place(base + off, sz, node);
                break;
            }
            case 1: { // single-page op: first-touch / migration /
                      // fault re-home (all land in the overlay)
                pt.place(base + off + rng.nextBounded(kPage), 1, node);
                ref.place(base + off, kPage, node);
                break;
            }
            case 2: { // Eq. 1 stride interleave
                std::vector<NodeId> lst;
                const size_t n = 1 + rng.nextBounded(kNodes);
                for (size_t i = 0; i < n; ++i)
                    lst.push_back(static_cast<NodeId>(
                        rng.nextBounded(kNodes)));
                const Bytes granule =
                    kPage << rng.nextBounded(3); // 1/2/4 pages
                const Bytes sz = (1 + rng.nextBounded(64)) * kPage;
                pt.placeStrideInterleave(base + off, sz, lst, granule);
                ref.placeStrideInterleave(base + off, sz, lst, granule,
                                          kPage);
                break;
            }
            case 3: { // CODA-style sub-page interleave
                std::vector<NodeId> lst;
                const size_t n = 1 + rng.nextBounded(4);
                for (size_t i = 0; i < n; ++i)
                    lst.push_back(static_cast<NodeId>(
                        rng.nextBounded(kNodes)));
                const Bytes granule = kSectorSize
                                      << rng.nextBounded(3);
                const Bytes sz =
                    (1 + rng.nextBounded(64)) * kSectorSize;
                pt.placeStrideInterleaveSubPage(base + off, sz, lst,
                                                granule);
                ref.placeStrideInterleave(base + off, sz, lst, granule,
                                          kSectorSize);
                break;
            }
            case 4: { // row-blocked strips
                std::vector<NodeId> rowsN;
                const size_t rows = 1 + rng.nextBounded(8);
                for (size_t i = 0; i < rows; ++i)
                    rowsN.push_back(static_cast<NodeId>(
                        rng.nextBounded(kNodes)));
                const Bytes row_bytes =
                    (1 + rng.nextBounded(8)) * kPage;
                const Bytes total =
                    rng.nextBounded(2)
                        ? 0
                        : rows * row_bytes + rng.nextBounded(row_bytes);
                pt.placeRowBlocked(base + off, row_bytes, rowsN, total);
                ref.placeRowBlocked(base + off, row_bytes, rowsN,
                                    total);
                break;
            }
            case 5: { // sub-page co-placement
                const Bytes sz =
                    (1 + rng.nextBounded(32)) * kSectorSize;
                const Addr a =
                    base + off + rng.nextBounded(kPage / 2);
                pt.placeSubPage(a, sz, node);
                ref.placeSubPage(a, sz, node);
                break;
            }
            }
            touched.push_back(base + off);

            // Spot-probe around the op just applied (edges + interior).
            for (int p = 0; p < 8; ++p) {
                const Addr probe =
                    base + off + rng.nextBounded(70 * kPage);
                expectSameHome(pt, ref, probe);
            }
        }

        // Dense final sweep over everything any op touched.
        for (const Addr t : touched)
            for (Addr a = t; a < t + 70 * kPage; a += kSectorSize)
                expectSameHome(pt, ref, a);
    }
}

TEST(MemEquivalence, TlbInvalidatedByEveryMutationKind)
{
    PageTable pt(kPage);
    pt.place(0, 64 * kPage, 1);
    ASSERT_EQ(pt.lookup(5 * kPage), 1); // fills the TLB

    pt.place(5 * kPage, 1, 2); // page-exception overwrite
    EXPECT_EQ(pt.lookup(5 * kPage), 2);

    pt.placeStrideInterleave(4 * kPage, 4 * kPage, {3, 4}, kPage);
    EXPECT_EQ(pt.lookup(4 * kPage), 3);
    EXPECT_EQ(pt.lookup(5 * kPage), 4);
    EXPECT_EQ(pt.lookup(6 * kPage), 3);

    pt.placeRowBlocked(4 * kPage, kPage, {5, 6});
    EXPECT_EQ(pt.lookup(4 * kPage), 5);
    EXPECT_EQ(pt.lookup(5 * kPage), 6);

    ASSERT_EQ(pt.lookup(7 * kPage), 4); // interleave tail, via TLB
    pt.placeSubPage(7 * kPage, kSectorSize, 7);
    EXPECT_EQ(pt.lookup(7 * kPage), 7);

    pt.clear();
    EXPECT_EQ(pt.lookup(5 * kPage), kInvalidNode);
}

// ---------------------------------------------------------------------------
// MshrTable vs the unordered_map it replaced.
// ---------------------------------------------------------------------------

TEST(MshrEquivalence, RandomizedOpsMatchUnorderedMap)
{
    Rng rng(0xdecafbad);
    MshrTable t;
    std::unordered_map<Addr, Cycles> ref;
    Cycles now = 0;

    // Key pool small enough to force heavy reuse (overwrite paths) and
    // large enough to force several grows past kMinCapacity.
    std::vector<Addr> keys;
    for (int i = 0; i < 4000; ++i)
        keys.push_back((rng.next() & ((1ull << 40) - 1)) & ~Addr{31});

    for (int op = 0; op < 60000; ++op) {
        const Addr k = keys[rng.nextBounded(keys.size())];
        switch (rng.nextBounded(8)) {
        case 0:
        case 1:
        case 2: { // insert / overwrite
            const Cycles ready = now + 1 + rng.nextBounded(500);
            t.insert(k, ready);
            ref[k] = ready;
            break;
        }
        case 3: { // the hot-path locate -> insertAt pair
            const MshrTable::Ref r = t.locate(k);
            auto it = ref.find(k);
            ASSERT_EQ(r.found, it != ref.end());
            if (r.found) {
                ASSERT_EQ(t.readyAt(r), it->second);
            }
            const Cycles ready = now + 1 + rng.nextBounded(500);
            t.insertAt(r, k, ready);
            ref[k] = ready;
            break;
        }
        case 4: { // erase (backward-shift deletion)
            t.erase(k);
            ref.erase(k);
            break;
        }
        case 5: { // find
            const Cycles *got = t.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end());
            if (got) {
                ASSERT_EQ(*got, it->second);
            }
            break;
        }
        case 6: { // expiry sweep at an advancing clock
            now += rng.nextBounded(200);
            t.sweepExpired(now);
            for (auto it = ref.begin(); it != ref.end();) {
                if (it->second <= now)
                    it = ref.erase(it);
                else
                    ++it;
            }
            break;
        }
        case 7: { // occasional kernel-boundary clear
            if (rng.nextBounded(100) == 0) {
                t.clear();
                ref.clear();
            }
            break;
        }
        }
        ASSERT_EQ(t.size(), ref.size()) << "op " << op;
    }

    // Full-content comparison via forEach.
    std::map<Addr, Cycles> got, want(ref.begin(), ref.end());
    t.forEach([&](Addr a, Cycles c) { got[a] = c; });
    EXPECT_EQ(got, want);
}

TEST(MshrEquivalence, GenerationClearSurvivesWrapAround)
{
    MshrTable t;
    // 70000 clears crosses the 16-bit generation wrap at least once.
    for (int i = 0; i < 70000; ++i) {
        t.insert(32 * static_cast<Addr>(i % 97), 1000 + i);
        t.insert(32 * static_cast<Addr>((i % 97) + 1000), 2000 + i);
        t.clear();
        ASSERT_TRUE(t.empty());
        ASSERT_EQ(t.find(32 * static_cast<Addr>(i % 97)), nullptr);
    }
    // Still a working table after the wrap.
    t.insert(64, 7);
    t.insert(96, 9);
    ASSERT_NE(t.find(64), nullptr);
    EXPECT_EQ(*t.find(64), 7u);
    ASSERT_NE(t.find(96), nullptr);
    EXPECT_EQ(*t.find(96), 9u);
    EXPECT_EQ(t.find(128), nullptr);
}

TEST(MshrEquivalence, CollisionChainsCompactOnErase)
{
    // Dense sequential sectors guarantee probe-chain overlap at the
    // minimum capacity; erasing from the middle of chains exercises the
    // backward-shift compaction against the reference.
    MshrTable t;
    std::unordered_map<Addr, Cycles> ref;
    for (Addr a = 0; a < 700 * 32; a += 32) {
        t.insert(a, a + 1);
        ref[a] = a + 1;
    }
    Rng rng(7);
    for (int i = 0; i < 650; ++i) {
        const Addr victim = 32 * rng.nextBounded(700);
        t.erase(victim);
        ref.erase(victim);
        for (int p = 0; p < 16; ++p) {
            const Addr k = 32 * rng.nextBounded(700);
            const Cycles *got = t.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << k;
            if (got) {
                ASSERT_EQ(*got, it->second);
            }
        }
    }
    EXPECT_EQ(t.size(), ref.size());
}

// ---------------------------------------------------------------------------
// Reference model: the way-major SectoredCache the packed set-major one
// replaced -- a dense tag array plus a parallel array of padded per-way
// {valid, dirty, lastUse} records, with the same set hash and the same
// checkpoint byte layout.
// ---------------------------------------------------------------------------
class WayMajorCacheReference
{
  public:
    WayMajorCacheReference(Bytes size, int assoc)
        : assoc_(assoc), numSets_(size / (assoc * kLineSize)),
          tags_(numSets_ * assoc, kNoLine), meta_(numSets_ * assoc)
    {
    }

    AccessResult
    access(Addr addr, bool is_write, bool allocate, EvictInfo *evict)
    {
        ++accesses_;
        ++useClock_;
        const Addr line = lineBase(addr);
        const uint8_t sbit = sectorBit(addr);
        const size_t base = setIndex(line) * assoc_;
        for (int i = 0; i < assoc_; ++i) {
            if (tags_[base + i] != line)
                continue;
            WayMeta &w = meta_[base + i];
            w.lastUse = useClock_;
            if (w.valid & sbit) {
                if (is_write)
                    w.dirty |= sbit;
                ++hits_;
                return AccessResult::Hit;
            }
            ++sectorMisses_;
            if (allocate) {
                w.valid |= sbit;
                if (is_write)
                    w.dirty |= sbit;
            } else {
                ++bypasses_;
            }
            return AccessResult::SectorMiss;
        }
        ++lineMisses_;
        if (!allocate) {
            ++bypasses_;
            return AccessResult::Miss;
        }
        int victim = 0;
        for (int i = 0; i < assoc_; ++i) {
            if (tags_[base + i] == kNoLine) {
                victim = i;
                break;
            }
            if (meta_[base + i].lastUse < meta_[base + victim].lastUse)
                victim = i;
        }
        WayMeta &w = meta_[base + victim];
        if (tags_[base + victim] != kNoLine && evict) {
            evict->evicted = true;
            evict->lineAddr = tags_[base + victim];
            evict->dirtyMask = w.dirty;
        }
        tags_[base + victim] = line;
        w = {sbit, static_cast<uint8_t>(is_write ? sbit : 0), useClock_};
        return AccessResult::Miss;
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = lineBase(addr);
        const size_t base = setIndex(line) * assoc_;
        for (int i = 0; i < assoc_; ++i)
            if (tags_[base + i] == line)
                return (meta_[base + i].valid & sectorBit(addr)) != 0;
        return false;
    }

    bool
    invalidateSector(Addr addr)
    {
        const Addr line = lineBase(addr);
        const uint8_t sbit = sectorBit(addr);
        const size_t base = setIndex(line) * assoc_;
        for (int i = 0; i < assoc_; ++i) {
            if (tags_[base + i] != line)
                continue;
            WayMeta &w = meta_[base + i];
            const bool present = (w.valid & sbit) != 0;
            w.valid &= static_cast<uint8_t>(~sbit);
            w.dirty &= static_cast<uint8_t>(~sbit);
            if (w.valid == 0) {
                tags_[base + i] = kNoLine;
                w = WayMeta{};
            }
            return present;
        }
        return false;
    }

    uint64_t
    invalidateRange(Addr lo, Addr hi)
    {
        uint64_t dropped = 0;
        for (Addr line = lineBase(lo); line < hi; line += kLineSize) {
            const size_t base = setIndex(line) * assoc_;
            for (int i = 0; i < assoc_; ++i) {
                if (tags_[base + i] != line)
                    continue;
                dropped += __builtin_popcount(meta_[base + i].valid);
                tags_[base + i] = kNoLine;
                meta_[base + i] = WayMeta{};
                break;
            }
        }
        return dropped;
    }

    uint64_t
    invalidateAll()
    {
        uint64_t dirty = 0;
        for (size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kNoLine)
                dirty += __builtin_popcount(meta_[i].dirty);
            tags_[i] = kNoLine;
            meta_[i] = WayMeta{};
        }
        return dirty;
    }

    void
    io(serial::Writer &w) const
    {
        w.vec(tags_);
        for (const WayMeta &m : meta_) {
            w.u8(m.valid);
            w.u8(m.dirty);
            w.u64(m.lastUse);
        }
        w.u64(useClock_);
        w.u64(accesses_);
        w.u64(hits_);
        w.u64(sectorMisses_);
        w.u64(lineMisses_);
        w.u64(bypasses_);
    }

    uint64_t accesses_ = 0, hits_ = 0, sectorMisses_ = 0,
             lineMisses_ = 0, bypasses_ = 0;

  private:
    static constexpr Addr kNoLine = ~Addr{0};

    struct WayMeta
    {
        uint8_t valid = 0;
        uint8_t dirty = 0;
        uint64_t lastUse = 0;
    };

    static uint8_t
    sectorBit(Addr addr)
    {
        return static_cast<uint8_t>(
            1u << ((addr - lineBase(addr)) / kSectorSize));
    }

    size_t
    setIndex(Addr line_addr) const
    {
        const uint64_t line = line_addr / kLineSize;
        const uint64_t n = numSets_;
        uint64_t h = line;
        h ^= line / n;
        h ^= line / (n * n);
        h ^= h >> 17;
        return static_cast<size_t>(h % n);
    }

    int assoc_;
    size_t numSets_;
    std::vector<Addr> tags_;
    std::vector<WayMeta> meta_;
    uint64_t useClock_ = 0;
};

template <typename Cache>
std::string
checkpointBytes(const Cache &c)
{
    serial::Writer w;
    w.beginSection(1);
    w.io(c);
    w.endSection();
    return w.finish(0);
}

/**
 * Drive the packed cache and the way-major reference with one random
 * op stream and require identical results, eviction reports, counters
 * and checkpoint bytes throughout. Halfway through, the packed cache is
 * replaced by one restored from its own checkpoint, so loading is
 * held to the same stream.
 */
void
expectCacheMatchesWayMajor(Bytes size, int assoc, uint64_t seed)
{
    SCOPED_TRACE("size " + std::to_string(size) + " assoc " +
                 std::to_string(assoc));
    Rng rng(seed);
    auto got = std::make_unique<SectoredCache>(size, assoc, "packed");
    WayMajorCacheReference ref(size, assoc);

    // A line pool about three times the capacity keeps every set under
    // eviction pressure while still re-touching resident lines; a few
    // far-away lines exercise the high tag bits.
    const uint64_t lines = 3 * size / kLineSize + 1;
    auto randomAddr = [&] {
        Addr line = rng.nextBounded(lines) * kLineSize;
        if (rng.nextBounded(16) == 0)
            line += Addr{1} << 40;
        return line + rng.nextBounded(kLineSize);
    };

    constexpr int kOps = 40000;
    for (int op = 0; op < kOps; ++op) {
        const Addr addr = randomAddr();
        switch (rng.nextBounded(16)) {
        case 0:
            ASSERT_EQ(got->probe(addr), ref.probe(addr)) << "op " << op;
            break;
        case 1:
        case 2:
            ASSERT_EQ(got->invalidateSector(addr),
                      ref.invalidateSector(addr))
                << "op " << op;
            break;
        case 3: {
            const Addr hi = addr + rng.nextBounded(4 * kLineSize);
            ASSERT_EQ(got->invalidateRange(addr, hi),
                      ref.invalidateRange(addr, hi))
                << "op " << op;
            break;
        }
        case 4:
            if (rng.nextBounded(500) == 0) {
                ASSERT_EQ(got->invalidateAll(), ref.invalidateAll())
                    << "op " << op;
            }
            break;
        default: {
            const bool write = rng.nextBounded(2) != 0;
            const bool allocate = rng.nextBounded(4) != 0;
            EvictInfo eg, er;
            ASSERT_EQ(got->access(addr, write, allocate, &eg),
                      ref.access(addr, write, allocate, &er))
                << "op " << op;
            ASSERT_EQ(eg.evicted, er.evicted) << "op " << op;
            ASSERT_EQ(eg.lineAddr, er.lineAddr) << "op " << op;
            ASSERT_EQ(eg.dirtyMask, er.dirtyMask) << "op " << op;
            break;
        }
        }
        if (op % 1000 == 0 || op == kOps - 1) {
            ASSERT_EQ(checkpointBytes(*got), checkpointBytes(ref))
                << "op " << op;
        }
        if (op == kOps / 2) {
            serial::Reader r(checkpointBytes(*got));
            r.openSection(1);
            got = std::make_unique<SectoredCache>(size, assoc, "restored");
            r.io(*got);
        }
    }
    EXPECT_EQ(got->accesses(), ref.accesses_);
    EXPECT_EQ(got->hits(), ref.hits_);
    EXPECT_EQ(got->sectorMisses(), ref.sectorMisses_);
    EXPECT_EQ(got->lineMisses(), ref.lineMisses_);
    EXPECT_EQ(got->bypasses(), ref.bypasses_);
}

TEST(CacheEquivalence, PackedSetsMatchWayMajorReference)
{
    expectCacheMatchesWayMajor(64 * 1024, 4, 1);   // the L1 geometry
    expectCacheMatchesWayMajor(1 << 20, 16, 2);    // the L2 geometry
    expectCacheMatchesWayMajor(2 * 1 * kLineSize, 1, 3); // direct mapped
    expectCacheMatchesWayMajor(3 * 3 * kLineSize, 3, 4); // 3 sets, odd
    expectCacheMatchesWayMajor(8 * 5 * kLineSize, 5, 5); // set > 1 line
}

// ---------------------------------------------------------------------------
// EventQueue: heap mode must pop exactly like std::priority_queue;
// calendar mode must pop the same times with FIFO tie order.
// ---------------------------------------------------------------------------

TEST(EventQueueEquivalence, HeapModeMatchesPriorityQueue)
{
    Rng rng(42);
    EventQueue q(EventQueue::Mode::Heap);
    std::priority_queue<WarpEvent, std::vector<WarpEvent>,
                        std::greater<WarpEvent>>
        ref;
    uint32_t warp = 0;
    for (int i = 0; i < 5000; ++i) {
        if (!ref.empty() && rng.nextBounded(3) == 0) {
            const WarpEvent want = ref.top();
            ref.pop();
            const WarpEvent got = q.pop();
            ASSERT_EQ(got.time, want.time);
            // Tie order among equal times is the heap's to choose, but
            // both sides run the same algorithm on the same history, so
            // the popped warp must also agree.
            ASSERT_EQ(got.warp, want.warp);
        } else {
            const Cycles time = rng.nextBounded(1000);
            q.push(time, warp);
            ref.push(WarpEvent{time, warp});
            ++warp;
        }
    }
    while (!ref.empty()) {
        const WarpEvent want = ref.top();
        ref.pop();
        const WarpEvent got = q.pop();
        ASSERT_EQ(got.time, want.time);
        ASSERT_EQ(got.warp, want.warp);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueEquivalence, CalendarModePopsSameTimesFifoWithinTies)
{
    Rng rng(43);
    EventQueue q(EventQueue::Mode::Calendar, 4);
    std::multimap<Cycles, uint32_t> ref; // FIFO within a key
    uint32_t warp = 0;
    Cycles floor = 0; // calendar requires non-decreasing pop times
    for (int i = 0; i < 5000; ++i) {
        if (!ref.empty() && rng.nextBounded(3) == 0) {
            const auto it = ref.begin();
            const WarpEvent got = q.pop();
            ASSERT_EQ(got.time, it->first);
            ASSERT_EQ(got.warp, it->second); // FIFO among equal times
            floor = it->first;
            ref.erase(it);
        } else {
            const Cycles time = floor + rng.nextBounded(64);
            q.push(time, warp);
            ref.emplace(time, warp);
            ++warp;
        }
    }
    while (!ref.empty()) {
        const auto it = ref.begin();
        const WarpEvent got = q.pop();
        ASSERT_EQ(got.time, it->first);
        ASSERT_EQ(got.warp, it->second);
        ref.erase(it);
    }
    EXPECT_TRUE(q.empty());
}

// Year-boundary audit regression. The calendar's horizon is one "year"
// of kNumBuckets * width cycles: a push at exactly yearStart + yearSpan
// must take the overflow heap (the bucket it would hash to belongs to
// the CURRENT year's time slice), while yearStart + yearSpan - 1 files
// directly into the last bucket; overflow entries migrate in when their
// year starts. The two conditions (`>= span` to overflow, `< span` to
// migrate) are complementary -- an off-by-one in either direction
// misfiles boundary events a whole year early or late. This test hugs
// the boundary from both sides across several year wraps, comparing the
// calendar against heap mode (same pop times) and against a FIFO
// multimap (calendar's stricter tie order).
TEST(EventQueueEquivalence, CalendarYearBoundaryMatchesHeapReference)
{
    Rng rng(44);
    const Cycles width = 4;
    const Cycles year = width * 1024; // kNumBuckets buckets per year
    EventQueue cal(EventQueue::Mode::Calendar, width);
    EventQueue heap(EventQueue::Mode::Heap);
    std::multimap<Cycles, uint32_t> ref; // FIFO within a key
    uint32_t warp = 0;
    Cycles floor = 0;

    const auto popAll = [&]() {
        const auto it = ref.begin();
        const WarpEvent c = cal.pop();
        const WarpEvent h = heap.pop();
        ASSERT_EQ(c.time, it->first);
        ASSERT_EQ(c.warp, it->second); // calendar is FIFO among ties
        ASSERT_EQ(h.time, it->first);  // heap agrees on times only
        floor = it->first;
        ref.erase(it);
    };

    for (int y = 1; y <= 6; ++y) {
        const Cycles boundary = static_cast<Cycles>(y) * year;
        for (int i = 0; i < 256; ++i) {
            Cycles t;
            switch (rng.nextBounded(4)) {
            case 0:
                t = boundary; // exactly yearStart + yearSpan
                break;
            case 1:
                t = boundary - 1; // last slot of the closing year
                break;
            case 2: // just past the horizon
                t = boundary + rng.nextBounded(2 * width);
                break;
            default: // just inside it
                t = boundary - 1 - rng.nextBounded(2 * width);
                break;
            }
            t = std::max(t, floor);
            cal.push(t, warp);
            heap.push(t, warp);
            ref.emplace(t, warp);
            ++warp;
            if (rng.nextBounded(3) == 0)
                popAll();
        }
        // Drain completely so the next cluster starts from an empty
        // queue a whole year ahead (the bucket-scan fast-forward path).
        while (!ref.empty())
            popAll();
        ASSERT_TRUE(cal.empty());
        ASSERT_TRUE(heap.empty());
    }
}

} // namespace
} // namespace ladm
