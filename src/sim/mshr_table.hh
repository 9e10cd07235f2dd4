/**
 * @file
 * MshrTable: the per-node outstanding-miss table (sector address ->
 * data-ready cycle) behind MSHR merging.
 *
 * One probe of this table sits on every L1-missing access, so it is an
 * open-addressed, power-of-two hash table with linear probing and
 * backward-shift deletion (no tombstones: a delete compacts the probe
 * chain, so load never degrades from churn). Fibonacci hashing spreads
 * the sector-aligned keys.
 *
 * A slot's 64-bit tag packs a 16-bit generation above the 48-bit key
 * (addr + 1, so a zeroed slot can never match): a slot is live only if
 * its generation matches the table's. That makes clear() -- called at
 * every kernel-boundary cache flush -- O(1): bump the generation and
 * every resident entry becomes logically empty in place. The allocation
 * is retained at its high-water mark (bounded by kRetainCapacity), so a
 * table that ballooned during one kernel neither re-pays the grow/rehash
 * doubling ladder on the next one nor zeroes megabytes per flush. Peak
 * memory is unchanged -- the table reached that size while live anyway.
 *
 * Semantically this is exactly the unordered_map it replaces: find /
 * upsert / erase / size / clear plus an expiry sweep, and the owner
 * (MemorySystem) keeps the amortized sweep-watermark policy unchanged.
 */

#ifndef LADM_SIM_MSHR_TABLE_HH
#define LADM_SIM_MSHR_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ladm
{


class MshrTable
{
  public:
    MshrTable() { reset(kMinCapacity); }

    /** Data-ready cycle of an in-flight miss on @p addr, or nullptr. */
    Cycles *
    find(Addr addr)
    {
        const uint64_t tag = genBase_ | (addr + 1);
        for (size_t i = indexOf(addr);; i = (i + 1) & mask_) {
            if (slots_[i].tag == tag)
                return &slots_[i].ready;
            if (emptySlot(i))
                return nullptr;
        }
    }

    /**
     * Hint the CPU to pull @p addr's home slot into cache ahead of the
     * locate() that follows -- the table outgrows the host's L1, so the
     * probe can miss there; this hides that latency behind the L1
     * lookup. No architectural effect.
     */
    void
    prefetch(Addr addr) const
    {
        __builtin_prefetch(&slots_[indexOf(addr)]);
    }

    /**
     * Position handle from locate(): either the slot holding the key or
     * the empty slot terminating its probe chain. Valid only until the
     * next mutation (insert / erase / sweep / clear / grow).
     */
    struct Ref
    {
        size_t index;
        bool found;
    };

    /** Single-probe lookup whose result can later feed insertAt(). */
    Ref
    locate(Addr addr)
    {
        const uint64_t tag = genBase_ | (addr + 1);
        for (size_t i = indexOf(addr);; i = (i + 1) & mask_) {
            if (slots_[i].tag == tag)
                return {i, true};
            if (emptySlot(i))
                return {i, false};
        }
    }

    /** Completion cycle at a located slot (@p r must have found set). */
    Cycles readyAt(Ref r) const { return slots_[r.index].ready; }

    /**
     * Insert or overwrite @p addr using a Ref from locate() with no
     * intervening mutation -- the second probe of a find-then-insert
     * pair collapses into a slot store. Equivalent to insert(): an
     * overwrite reuses the found slot (same home bucket, so probe
     * chains stay intact), a fresh key fills the chain-ending empty
     * slot; only a load-factor grow falls back to a full re-probe.
     */
    void
    insertAt(Ref r, Addr addr, Cycles ready)
    {
        assert((addr >> kGenShift) == 0 && "address exceeds tag space");
        if (r.found) {
            slots_[r.index].ready = ready;
            return;
        }
        if ((size_ + 1) * 4 > slots_.size() * 3) { // load factor 3/4
            grow();
            insert(addr, ready);
            return;
        }
        slots_[r.index] = Slot{genBase_ | (addr + 1), ready};
        ++size_;
    }

    /** Insert or overwrite the completion cycle for @p addr. */
    void
    insert(Addr addr, Cycles ready)
    {
        assert((addr >> kGenShift) == 0 && "address exceeds tag space");
        if ((size_ + 1) * 4 > slots_.size() * 3) // load factor 3/4
            grow();
        const uint64_t tag = genBase_ | (addr + 1);
        for (size_t i = indexOf(addr);; i = (i + 1) & mask_) {
            if (slots_[i].tag == tag) {
                slots_[i].ready = ready;
                return;
            }
            if (emptySlot(i)) {
                slots_[i] = Slot{tag, ready};
                ++size_;
                return;
            }
        }
    }

    /** Remove @p addr if present, compacting its probe chain. */
    void
    erase(Addr addr)
    {
        const uint64_t tag = genBase_ | (addr + 1);
        for (size_t i = indexOf(addr);; i = (i + 1) & mask_) {
            if (slots_[i].tag == tag) {
                eraseSlot(i);
                return;
            }
            if (emptySlot(i))
                return;
        }
    }

    /** Drop every entry whose completion cycle is at or before @p now. */
    void
    sweepExpired(Cycles now)
    {
        // Backward-shift deletion can pull a later chain member into the
        // just-erased slot, so the cursor only advances when the slot
        // under it survives.
        for (size_t i = 0; i < slots_.size();) {
            if (!emptySlot(i) && slots_[i].ready <= now)
                eraseSlot(i);
            else
                ++i;
        }
    }

    /** Visit every (addr, ready) entry; @p f must not mutate the table. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_)
            if ((s.tag >> kGenShift) == gen_)
                f(static_cast<Addr>((s.tag & kAddrMask) - 1), s.ready);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots allocated (a power of two); invisible to lookups. */
    size_t capacity() const { return slots_.size(); }

    void
    clear()
    {
        // O(1): advancing the generation orphans every resident entry
        // in place. The allocation is retained (up to kRetainCapacity)
        // so the next kernel neither re-pays the grow ladder nor zeroes
        // the array. Capacity is invisible to lookups, so this is pure
        // performance policy.
        if (slots_.size() > kRetainCapacity) {
            reset(kRetainCapacity);
        } else if (++gen_ > kMaxGen) {
            gen_ = 1;
            std::fill(slots_.begin(), slots_.end(), Slot{});
        }
        genBase_ = static_cast<uint64_t>(gen_) << kGenShift;
        size_ = 0;
    }

    /** Checkpoint the slot array verbatim (snapshot/component_state.cc). */
    template <class Ar> void io(Ar &ar);

  private:
    struct Slot
    {
        uint64_t tag = 0; ///< gen << 48 | (addr + 1); stale gen = empty
        Cycles ready = 0;
    };

    static constexpr size_t kMinCapacity = 1024; // power of two
    /** clear() keeps the allocation up to this many slots (32 MiB). */
    static constexpr size_t kRetainCapacity = size_t{1} << 21;
    static constexpr int kGenShift = 48;
    static constexpr uint64_t kAddrMask =
        (uint64_t{1} << kGenShift) - 1;
    static constexpr uint64_t kMaxGen = 0xFFFF;

    /** Live slots carry the current generation in their top tag bits. */
    bool
    emptySlot(size_t i) const
    {
        return (slots_[i].tag >> kGenShift) != gen_;
    }

    size_t
    indexOf(Addr addr) const
    {
        // Fibonacci hashing: multiply by 2^64/phi and keep the top bits.
        const uint64_t h = (addr >> 5) * UINT64_C(0x9E3779B97F4A7C15);
        return static_cast<size_t>(h >> shift_) & mask_;
    }

    void
    reset(size_t capacity)
    {
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        shift_ = 1;
        while ((size_t(1) << (64 - shift_)) > capacity)
            ++shift_;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const uint64_t old_gen = gen_;
        reset(old.size() * 2);
        size_ = 0;
        for (const Slot &s : old)
            if ((s.tag >> kGenShift) == old_gen)
                insert(static_cast<Addr>((s.tag & kAddrMask) - 1),
                       s.ready);
    }

    /** Backward-shift delete of the occupied slot at @p i. */
    void
    eraseSlot(size_t i)
    {
        size_t hole = i;
        for (size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
            if (emptySlot(j))
                break;
            // j's natural position; move it into the hole iff the hole
            // lies within its probe path (cyclic distance test).
            const size_t nat = indexOf(
                static_cast<Addr>((slots_[j].tag & kAddrMask) - 1));
            if (((j - nat) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    int shift_ = 0;
    size_t size_ = 0;
    /** Current generation, >= 1 (a zeroed slot's gen 0 is never live). */
    uint64_t gen_ = 1;
    uint64_t genBase_ = uint64_t{1} << kGenShift;
};

} // namespace ladm

#endif // LADM_SIM_MSHR_TABLE_HH
