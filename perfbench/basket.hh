/**
 * @file
 * The benchmark's workloads: four fixed baskets of (Table IV workload,
 * policy, machine) cells, the seeded held-out variant of each, and the
 * checks and digest applied to every cell's simulated statistics.
 */

#ifndef PERFBENCH_BASKET_HH
#define PERFBENCH_BASKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/system_config.hh"
#include "core/metrics.hh"
#include "core/policy_bundle.hh"

namespace perfbench
{

/** One simulation: a workload at a scale, under a policy, on a machine. */
struct Cell
{
    std::string workload;
    ladm::Policy policy = ladm::Policy::Ladm;
    double scale = 1.0;
    ladm::SystemConfig cfg;

    /** "VecAdd@4/ladm" style label for reports. */
    std::string label() const;
};

/** Which cells a workload runs. */
enum class BasketKind
{
    Canonical, ///< the fixed simperf basket (the tracked trajectory)
    HeldOut,   ///< same size and Table IV classes, workloads drawn by seed
};

/**
 * The cells of @p workload. The canonical basket ignores @p seed; the
 * held-out basket replaces every cell's workload by one drawn with
 * @p seed from the same Table IV locality class, keeping its policy,
 * scale multiplier and machine.
 *
 * @throws std::invalid_argument for an unknown workload name
 */
std::vector<Cell> makeBasket(const std::string &workload, BasketKind kind,
                             uint64_t seed);

/** Seeded permutation of [0, n): the order a pass runs its cells in. */
std::vector<size_t> passOrder(size_t n, uint64_t seed);

/**
 * The simulated statistics of one cell as a full-precision text row
 * (doubles in hex-float form), so two runs compare bit for bit.
 */
std::string simulatedRow(const ladm::RunMetrics &m);

/**
 * Digest of a basket's rows in canonical cell order, folded to 53 bits
 * so it survives a round trip through a JSON number.
 */
double basketDigest(const std::vector<std::string> &rows);

/**
 * Conservation checks on one cell's simulated statistics.
 * @return empty when they hold, else a description of the first failure
 */
std::string checkMetrics(const ladm::RunMetrics &m, int64_t num_tbs);

} // namespace perfbench

#endif // PERFBENCH_BASKET_HH
