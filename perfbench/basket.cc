#include "basket.hh"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "config/presets.hh"

namespace perfbench
{

namespace
{

/**
 * Table IV's locality classes (the section labels of Figs. 9/10). Kept
 * here rather than shared with bench/ so the benchmark depends only on
 * the library's public headers.
 */
const std::vector<std::pair<std::string, std::vector<std::string>>> &
localityClasses()
{
    static const std::vector<std::pair<std::string, std::vector<std::string>>>
        classes = {
            {"NL",
             {"VecAdd", "SRAD", "HS", "ScalarProd", "BLK", "Histo-final",
              "Reduction-k6", "Hotspot3D"}},
            {"RCL",
             {"CONV", "Histo-main", "FWT-k2", "SQ-GEMM", "Alexnet-FC-2",
              "VGGnet-FC-2", "Resnet-50-FC", "LSTM-1", "LSTM-2", "TRA"}},
            {"ITL",
             {"PageRank", "BFS-relax", "SSSP", "Random-loc",
              "Kmeans-noTex", "SpMV-jds"}},
            {"Unclassified", {"B+tree", "LBM", "StreamCluster"}},
        };
    return classes;
}

const std::vector<std::string> &
classMembers(const std::string &workload)
{
    for (const auto &[name, members] : localityClasses())
        for (const std::string &m : members)
            if (m == workload)
                return members;
    throw std::invalid_argument("workload not in Table IV: " + workload);
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** 64-bit FNV-1a, continuing from @p h. */
uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Slot
{
    const char *workload;
    double scale;
};

struct BasketDef
{
    const char *name;
    ladm::Policy policy;
    int shards;
    std::vector<Slot> slots;
};

/**
 * The bench_simperf baskets, unchanged so the throughput trajectory
 * carries over. Every cell but the pdes ones pins shards=1 so the
 * LADM_SHARDS environment variable cannot make them multi-threaded.
 */
const std::vector<BasketDef> &
basketDefs()
{
    static const std::vector<BasketDef> defs = {
        {"interleaved",
         ladm::Policy::BaselineRr,
         1,
         {{"VecAdd", 1.0},
          {"ScalarProd", 1.0},
          {"CONV", 1.0},
          {"SQ-GEMM", 1.0}}},
        {"lasp",
         ladm::Policy::Ladm,
         1,
         {{"VecAdd", 1.0},
          {"SRAD", 1.0},
          {"SQ-GEMM", 1.0},
          {"LSTM-2", 1.0},
          {"PageRank", 1.0}}},
        {"first-touch",
         ladm::Policy::BatchFt,
         1,
         {{"VecAdd", 1.0}, {"CONV", 1.0}, {"BFS-relax", 1.0}}},
        {"pdes",
         ladm::Policy::Ladm,
         4,
         {{"VecAdd", 4.0},
          {"ScalarProd", 4.0},
          {"CONV", 1.0},
          {"SRAD", 4.0}}},
    };
    return defs;
}

} // namespace

std::string
Cell::label() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s@%g/%s", workload.c_str(), scale,
                  ladm::toString(policy));
    return buf;
}

std::vector<Cell>
makeBasket(const std::string &workload, BasketKind kind, uint64_t seed)
{
    for (const BasketDef &d : basketDefs()) {
        if (workload != d.name)
            continue;
        uint64_t state = seed;
        std::vector<Cell> cells;
        for (const Slot &s : d.slots) {
            Cell c;
            c.workload = s.workload;
            if (kind == BasketKind::HeldOut) {
                const std::vector<std::string> &members =
                    classMembers(s.workload);
                c.workload = members[splitmix64(state) % members.size()];
            }
            c.policy = d.policy;
            c.scale = s.scale;
            c.cfg = ladm::presets::multiGpu4x4();
            c.cfg.shards = d.shards;
            cells.push_back(std::move(c));
        }
        return cells;
    }
    throw std::invalid_argument("unknown workload: " + workload);
}

std::vector<size_t>
passOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    uint64_t state = seed ^ 0x5eedull;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[splitmix64(state) % i]);
    return order;
}

std::string
simulatedRow(const ladm::RunMetrics &m)
{
    std::string row;
    auto add = [&row](const char *fmt, auto v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, v);
        row += buf;
    };
    row += m.workload + ',' + m.policy + ',' + m.system + ',' +
           m.scheduler + ',' + ladm::toString(m.insertPolicy);
    for (const uint64_t v :
         {static_cast<uint64_t>(m.cycles), m.tbCount, m.warpSteps,
          m.sectorAccesses, m.fetchLocal, m.fetchRemote,
          static_cast<uint64_t>(m.interNodeBytes),
          static_cast<uint64_t>(m.interGpuBytes), m.uvmFaults,
          m.rehomedPages, m.failedNodeAccesses})
        add(",%" PRIu64, v);
    for (const double v :
         {m.warpInstrs, m.offChipPct, m.l1HitRate, m.l2HitRate, m.l2Mpki})
        add(",%a", v);
    for (const uint64_t v : m.nodeFetchLocal)
        add(",%" PRIu64, v);
    for (const uint64_t v : m.nodeFetchRemote)
        add(",%" PRIu64, v);
    for (const uint64_t v : m.classAccesses)
        add(",%" PRIu64, v);
    for (const double v : m.classHitRate)
        add(",%a", v);
    return row;
}

double
basketDigest(const std::vector<std::string> &rows)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &r : rows)
        h = fnv1a(r + '\n', h);
    return static_cast<double>(h & ((uint64_t{1} << 53) - 1));
}

std::string
checkMetrics(const ladm::RunMetrics &m, int64_t num_tbs)
{
    auto sum = [](const std::vector<uint64_t> &v) {
        uint64_t s = 0;
        for (const uint64_t x : v)
            s += x;
        return s;
    };
    if (m.failed())
        return "run failed: " + m.error;
    if (m.warpSteps == 0 || m.sectorAccesses == 0 || m.cycles == 0)
        return "no work simulated";
    if (static_cast<int64_t>(m.tbCount) != num_tbs)
        return "ran " + std::to_string(m.tbCount) + " of " +
               std::to_string(num_tbs) + " threadblocks";
    if (sum(m.nodeFetchLocal) != m.fetchLocal ||
        sum(m.nodeFetchRemote) != m.fetchRemote)
        return "per-node fetches do not sum to the machine totals";
    if (!(m.offChipPct >= 0.0 && m.offChipPct <= 100.0) ||
        !(m.l1HitRate >= 0.0 && m.l1HitRate <= 1.0) ||
        !(m.l2HitRate >= 0.0 && m.l2HitRate <= 1.0))
        return "a rate is outside [0, 1]";
    return {};
}

} // namespace perfbench
