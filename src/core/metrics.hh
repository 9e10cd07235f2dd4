/**
 * @file
 * RunMetrics: everything the paper's figures report about one run.
 */

#ifndef LADM_CORE_METRICS_HH
#define LADM_CORE_METRICS_HH

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "cache/insertion_policy.hh"
#include "cache/traffic_class.hh"
#include "common/types.hh"
#include "obs/attribution.hh"
#include "obs/observer.hh"

namespace ladm
{

struct RunMetrics
{
    std::string workload;
    std::string policy;
    std::string system;
    std::string scheduler;
    L2InsertPolicy insertPolicy = L2InsertPolicy::RTwice;

    Cycles cycles = 0;
    uint64_t tbCount = 0;
    uint64_t warpSteps = 0;
    uint64_t sectorAccesses = 0;
    double warpInstrs = 0.0;

    /** Requester-side L2 misses served locally / remotely. */
    uint64_t fetchLocal = 0;
    uint64_t fetchRemote = 0;
    /** Per-node breakdown of the above (index = NodeId). */
    std::vector<uint64_t> nodeFetchLocal;
    std::vector<uint64_t> nodeFetchRemote;
    /** Percent of fetches leaving the chiplet (Fig. 10 metric). */
    double offChipPct = 0.0;
    Bytes interNodeBytes = 0;
    Bytes interGpuBytes = 0;

    double l1HitRate = 0.0;
    double l2HitRate = 0.0;
    /** Requester-side L2 sector misses per kilo warp instruction. */
    double l2Mpki = 0.0;
    uint64_t uvmFaults = 0;

    /** Per-traffic-class L2 accesses and hit rates (Fig. 11). */
    std::array<uint64_t, kNumTrafficClasses> classAccesses{};
    std::array<double, kNumTrafficClasses> classHitRate{};

    /** Fault injection: pages rescued off failed chiplets / crawl hits. */
    uint64_t rehomedPages = 0;
    uint64_t failedNodeAccesses = 0;

    /**
     * Per-component access-latency summaries (machine-wide), filled only
     * when the run had latency attribution armed (--obs-attribution);
     * all-zero otherwise. Indexed by obs::LatComponent.
     */
    bool hasLatency = false;
    std::array<obs::LatSummary, obs::kNumLatComponents> latency{};

    /**
     * Non-empty when the run failed: the error's one-line report. A
     * sweep running --continue-on-error records the failure here and in
     * the CSV/JSON sinks instead of dying.
     */
    std::string error;

    bool failed() const { return !error.empty(); }

    /** The sweep journal's binary image (core/sweep_journal.cc). */
    template <class Ar> void io(Ar &ar);

    /** Performance of this run relative to @p baseline (cycles ratio). */
    double
    speedupOver(const RunMetrics &baseline) const
    {
        return cycles ? static_cast<double>(baseline.cycles) / cycles
                      : 0.0;
    }
};

std::ostream &operator<<(std::ostream &os, const RunMetrics &m);

/** Column header matching csvRow(), for machine-readable results. */
std::string csvHeader();

/** One comma-separated row of every metric. */
std::string csvRow(const RunMetrics &m);

/**
 * Arithmetic mean of @p values. An empty input is a degenerate sample,
 * not an arithmetic error: returns 0.0 (with a warning) instead of the
 * 0/0 NaN that would silently poison every downstream aggregate.
 */
double mean(const std::vector<double> &values);

/**
 * Geometric mean of @p values (the paper's cross-workload aggregate).
 * Empty input returns 0.0 with a warning; non-positive entries are
 * skipped with a warning (log of a non-positive value is undefined)
 * rather than turning the whole aggregate into NaN.
 */
double geomean(const std::vector<double> &values);

} // namespace ladm

#endif // LADM_CORE_METRICS_HH
