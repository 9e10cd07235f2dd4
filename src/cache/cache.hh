/**
 * @file
 * Sectored set-associative cache.
 *
 * Matches the NVIDIA-style organization Accel-Sim models: 128-byte lines
 * tracked by tag, filled at 32-byte sector granularity. A lookup can
 * therefore end three ways: full hit, sector miss (tag resident, sector
 * absent -> fetch one sector), or line miss (allocate a victim way).
 *
 * The cache is purely functional; timing (hit latency, bank/crossbar
 * occupancy) is applied by the owning simulator component. Insertion is a
 * per-access decision so the NUMA policies (RTWICE / RONCE bypassing) can
 * be expressed by the caller.
 */

#ifndef LADM_CACHE_CACHE_HH
#define LADM_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <new>
#include <string>

#include "common/types.hh"
#include "mem/address.hh"

namespace ladm
{

namespace telemetry
{
class StatRegistry;
}


/** Outcome of one cache lookup. */
enum class AccessResult
{
    Hit,        ///< tag and sector both present
    SectorMiss, ///< tag present, requested sector absent
    Miss,       ///< tag absent
};

/** Eviction side-effects of an allocating access. */
struct EvictInfo
{
    bool evicted = false;     ///< a valid victim line was displaced
    Addr lineAddr = 0;        ///< victim's line base address
    uint8_t dirtyMask = 0;    ///< victim's dirty sectors (bit per sector)
};

class SectoredCache
{
  public:
    /**
     * @param size  total capacity in bytes
     * @param assoc ways per set
     * @param name  stat prefix
     */
    SectoredCache(Bytes size, int assoc, std::string name);

    /**
     * Look up @p addr (any byte address; the containing 32B sector is
     * accessed). Defined inline below: the L1/L2 lookups dominate the
     * simulator's per-access cost, so they must inline into the caller.
     *
     * @param is_write  writes set the sector dirty bit
     * @param allocate  on a miss, whether to insert (false = bypass)
     * @param evict     optional out-param describing a displaced victim
     */
    AccessResult access(Addr addr, bool is_write, bool allocate,
                        EvictInfo *evict = nullptr);

    /** True iff addr's sector is currently present (no LRU update). */
    bool probe(Addr addr) const;

    /**
     * Hint the CPU to pull @p addr's tag set into cache ahead of an
     * access() -- lets the miss latency overlap earlier work (e.g. the
     * L1 lookup in front of an L2). No architectural effect.
     */
    void prefetchSet(Addr addr) const;

    /**
     * Drop @p addr's sector if present (write-invalidate of the
     * write-through L1s: a write must not leave a stale copy behind).
     * Not counted as an access; a line left with no valid sectors is
     * freed.
     *
     * @return true iff the sector was present.
     */
    bool invalidateSector(Addr addr);

    /**
     * Drop every sector of every line overlapping [lo, hi) -- the
     * whole-page invalidation the fault-degradation rescue needs when a
     * page leaves a failed chiplet. Not counted as accesses.
     * @return number of sectors dropped (valid, not just dirty).
     */
    uint64_t invalidateRange(Addr lo, Addr hi);

    /**
     * Invalidate everything (kernel-boundary software coherence of [51]).
     * @return number of dirty sectors dropped (writeback traffic).
     */
    uint64_t invalidateAll();

    // --- statistics ---------------------------------------------------------
    uint64_t accesses() const { return accesses_; }
    uint64_t hits() const { return hits_; }
    uint64_t sectorMisses() const { return sectorMisses_; }
    uint64_t lineMisses() const { return lineMisses_; }
    uint64_t bypasses() const { return bypasses_; }
    double hitRate() const
    {
        return accesses_ ? static_cast<double>(hits_) / accesses_ : 0.0;
    }

    void resetStats();

    /**
     * Publish this cache's counters (plus a derived hit-rate formula)
     * into @p reg under dotted @p path, e.g. "node3.l2". Pull-based: no
     * cost on the access path; the registry must not outlive the cache.
     */
    void registerStats(telemetry::StatRegistry &reg,
                       const std::string &path) const;

    size_t numSets() const { return numSets_; }
    int assoc() const { return assoc_; }

    /** Checkpoint tags/metadata/LRU clock (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    static constexpr int kSectorsPerLine =
        static_cast<int>(kLineSize / kSectorSize);

    /**
     * Sentinel for an empty way. Line base addresses are kLineSize-
     * aligned, so the all-ones address can never collide with one --
     * validity folds into the tag itself.
     */
    static constexpr Addr kNoLine = ~Addr{0};

    /**
     * A way's state other than its tag, packed into one word:
     * lastUse << kUseShift | dirty << kSectorsPerLine | valid (a bit
     * per sector in each mask). lastUse is unique per cache -- every
     * access stamps at most one way with a fresh clock value -- so
     * comparing whole words orders ways exactly by LRU age.
     */
    static constexpr int kUseShift = 2 * kSectorsPerLine;
    static constexpr uint64_t kValidMask = (1u << kSectorsPerLine) - 1;
    static constexpr uint64_t kFlagMask = (1u << kUseShift) - 1;
    static constexpr uint64_t
    dirtyBits(uint64_t sbit)
    {
        return sbit << kSectorsPerLine;
    }

    /** Host cache-line size every set is aligned and padded to. */
    static constexpr size_t kHostLine = 64;

    struct AlignedDelete
    {
        void
        operator()(uint64_t *p) const
        {
            ::operator delete[](p, std::align_val_t{kHostLine});
        }
    };

    size_t setIndex(Addr line_addr) const;

    /** First word of set @p set: its assoc_ tags, then assoc_ way words. */
    uint64_t *
    setAt(size_t set) const
    {
        return sets_.get() + set * setWords_;
    }

    std::string name_;
    int assoc_;
    size_t numSets_ = 0;
    /**
     * Set-major and packed: each set is one contiguous, host-line-
     * aligned run of setWords_ words -- the tags the lookup scans, then
     * one packed state word per way -- so a 4-way L1 set is exactly one
     * 64-byte host line and a 16-way L2 set four.
     */
    std::unique_ptr<uint64_t[], AlignedDelete> sets_;
    /** 2 * assoc_ rounded up to a whole number of host lines. */
    size_t setWords_ = 0;
    /** log2(numSets_) when it is a power of two, else -1 (slow path). */
    int setShift_ = -1;
    uint64_t setMask_ = 0;
    uint64_t useClock_ = 0;

    uint64_t accesses_ = 0;
    uint64_t hits_ = 0;
    uint64_t sectorMisses_ = 0;
    uint64_t lineMisses_ = 0;
    uint64_t bypasses_ = 0;
};

// --- hot path, inline ------------------------------------------------------

inline size_t
SectoredCache::setIndex(Addr line_addr) const
{
    // XOR-folded set hash (as GPUs and Accel-Sim use): without it,
    // column-strided access patterns whose row pitch is a power of two
    // concentrate into a few sets and conflict-thrash pathologically.
    uint64_t line = line_addr / kLineSize;
    uint64_t h = line;
    if (setShift_ >= 0) {
        // numSets_ is a power of two (the common case): identical
        // arithmetic with the divisions strength-reduced to shifts.
        h ^= line >> setShift_;
        h ^= line >> (2 * setShift_);
        h ^= h >> 17;
        return static_cast<size_t>(h & setMask_);
    }
    const size_t n = numSets_;
    h ^= line / n;
    h ^= line / (static_cast<uint64_t>(n) * n);
    h ^= h >> 17;
    return static_cast<size_t>(h % n);
}

inline void
SectoredCache::prefetchSet(Addr addr) const
{
    __builtin_prefetch(setAt(setIndex(lineBase(addr))));
}

inline AccessResult
SectoredCache::access(Addr addr, bool is_write, bool allocate,
                      EvictInfo *evict)
{
    ++accesses_;
    ++useClock_;

    const Addr line = lineBase(addr);
    const int sector = static_cast<int>((addr - line) / kSectorSize);
    const uint64_t sbit = uint64_t{1} << sector;
    uint64_t *const tags = setAt(setIndex(line));
    uint64_t *const way = tags + assoc_;
    const uint64_t stamp = useClock_ << kUseShift;

    for (int i = 0; i < assoc_; ++i) {
        if (tags[i] == line) {
            uint64_t w = (way[i] & kFlagMask) | stamp;
            if (w & sbit) {
                if (is_write)
                    w |= dirtyBits(sbit);
                way[i] = w;
                ++hits_;
                return AccessResult::Hit;
            }
            // Tag hit, sector absent: fill just the sector.
            ++sectorMisses_;
            if (allocate)
                w |= is_write ? sbit | dirtyBits(sbit) : sbit;
            else
                ++bypasses_;
            way[i] = w;
            return AccessResult::SectorMiss;
        }
    }

    ++lineMisses_;
    if (!allocate) {
        ++bypasses_;
        return AccessResult::Miss;
    }

    // Pick the LRU victim (preferring an invalid way).
    int victim = 0;
    for (int i = 0; i < assoc_; ++i) {
        if (tags[i] == kNoLine) {
            victim = i;
            break;
        }
        if (way[i] < way[victim])
            victim = i;
    }
    if (tags[victim] != kNoLine && evict) {
        evict->evicted = true;
        evict->lineAddr = tags[victim];
        evict->dirtyMask =
            static_cast<uint8_t>((way[victim] >> kSectorsPerLine) &
                                 kValidMask);
    }
    tags[victim] = line;
    way[victim] = stamp | (is_write ? sbit | dirtyBits(sbit) : sbit);
    return AccessResult::Miss;
}

inline bool
SectoredCache::probe(Addr addr) const
{
    const Addr line = lineBase(addr);
    const int sector = static_cast<int>((addr - line) / kSectorSize);
    const uint64_t sbit = uint64_t{1} << sector;
    const uint64_t *const tags = setAt(setIndex(line));
    for (int i = 0; i < assoc_; ++i) {
        if (tags[i] == line)
            return (tags[assoc_ + i] & sbit) != 0;
    }
    return false;
}

inline bool
SectoredCache::invalidateSector(Addr addr)
{
    const Addr line = lineBase(addr);
    const int sector = static_cast<int>((addr - line) / kSectorSize);
    const uint64_t sbit = uint64_t{1} << sector;
    uint64_t *const tags = setAt(setIndex(line));
    for (int i = 0; i < assoc_; ++i) {
        if (tags[i] != line)
            continue;
        uint64_t &w = tags[assoc_ + i];
        const bool present = (w & sbit) != 0;
        w &= ~(sbit | dirtyBits(sbit));
        if ((w & kValidMask) == 0) {
            tags[i] = kNoLine;
            w = 0;
        }
        return present;
    }
    return false;
}

} // namespace ladm

#endif // LADM_CACHE_CACHE_HH
