/**
 * @file
 * Per-layer ledger: replay one cell's recorded access stream through a
 * fresh instance of each hot-path layer in isolation and report host
 * nanoseconds per operation.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include "basket.hh"
#include "direct.hh"

namespace perfbench
{

struct LayerCosts
{
    double memAccessNs = 0.0;   ///< MemorySystem::access
    double l1AccessNs = 0.0;    ///< SectoredCache::access, per-SM L1s
    double l2AccessNs = 0.0;    ///< SectoredCache::access, per-node L2s
    double l2HitRatio = 0.0;    ///< hits / accesses of the L2 replay
    double pageLookupNs = 0.0;  ///< PageTable::lookup
    double routeNs = 0.0;       ///< Network::routeDelay
    double bwBookNs = 0.0;      ///< BandwidthServer::book
    double mshrUpsertNs = 0.0;  ///< MshrTable locate + insert
    double eventQueueNs = 0.0;  ///< EventQueue pop + push
};

/**
 * Replay @p stream, recorded from cell @p c, through each layer
 * @p repeats times (a fresh instance every time) and keep the median
 * cost per operation. Cycle stamps spread the recorded warp steps
 * evenly over the cell's simulated length, so they never decrease.
 */
LayerCosts replayLayers(const Cell &c, const AccessStream &stream,
                        int repeats);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
