#include "cache/cache.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "mem/address.hh"
#include "telemetry/stat_registry.hh"

namespace ladm
{

void
SectoredCache::registerStats(telemetry::StatRegistry &reg,
                             const std::string &path) const
{
    const StatKind acc = StatKind::Counter;
    reg.gauge(path + ".accesses",
              [this] { return static_cast<double>(accesses_); }, acc);
    reg.gauge(path + ".hits",
              [this] { return static_cast<double>(hits_); }, acc);
    reg.gauge(path + ".sector_misses",
              [this] { return static_cast<double>(sectorMisses_); }, acc);
    reg.gauge(path + ".line_misses",
              [this] { return static_cast<double>(lineMisses_); }, acc);
    reg.gauge(path + ".bypasses",
              [this] { return static_cast<double>(bypasses_); }, acc);
    reg.formula(path + ".hit_rate", [this] { return hitRate(); });
}

SectoredCache::SectoredCache(Bytes size, int assoc, std::string name)
    : name_(std::move(name)), assoc_(assoc)
{
    ladm_assert(assoc >= 1, "associativity must be >= 1");
    Bytes set_bytes = static_cast<Bytes>(assoc) * kLineSize;
    ladm_assert(size >= set_bytes && size % set_bytes == 0,
                "cache '", name_, "': size ", size,
                " not a multiple of assoc*line");
    numSets_ = size / set_bytes;
    constexpr size_t line_words = kHostLine / sizeof(uint64_t);
    setWords_ = static_cast<size_t>(
        roundUp(2 * static_cast<uint64_t>(assoc_), line_words));
    const size_t words = numSets_ * setWords_;
    sets_.reset(static_cast<uint64_t *>(::operator new[](
        words * sizeof(uint64_t), std::align_val_t{kHostLine})));
    std::fill_n(sets_.get(), words, uint64_t{0});
    for (size_t set = 0; set < numSets_; ++set)
        std::fill_n(setAt(set), assoc_, kNoLine);
    if (isPowerOfTwo(numSets_)) {
        int shift = 0;
        while ((size_t(1) << shift) < numSets_)
            ++shift;
        // The shift fast path must reproduce the division hash exactly;
        // line/(n*n) == line >> 2*shift only while 2*shift < 64.
        if (2 * shift < 64) {
            setShift_ = shift;
            setMask_ = numSets_ - 1;
        }
    }
}

uint64_t
SectoredCache::invalidateRange(Addr lo, Addr hi)
{
    uint64_t dropped = 0;
    for (Addr line = lineBase(lo); line < hi; line += kLineSize) {
        uint64_t *const tags = setAt(setIndex(line));
        for (int i = 0; i < assoc_; ++i) {
            if (tags[i] != line)
                continue;
            dropped += static_cast<uint64_t>(
                __builtin_popcountll(tags[assoc_ + i] & kValidMask));
            tags[i] = kNoLine;
            tags[assoc_ + i] = 0;
            break;
        }
    }
    return dropped;
}

uint64_t
SectoredCache::invalidateAll()
{
    uint64_t dirty = 0;
    for (size_t set = 0; set < numSets_; ++set) {
        uint64_t *const tags = setAt(set);
        for (int i = 0; i < assoc_; ++i) {
            if (tags[i] != kNoLine) {
                dirty += static_cast<uint64_t>(__builtin_popcountll(
                    (tags[assoc_ + i] >> kSectorsPerLine) & kValidMask));
            }
            tags[i] = kNoLine;
            tags[assoc_ + i] = 0;
        }
    }
    return dirty;
}

void
SectoredCache::resetStats()
{
    accesses_ = 0;
    hits_ = 0;
    sectorMisses_ = 0;
    lineMisses_ = 0;
    bypasses_ = 0;
}

} // namespace ladm
