#include "workloads/graph_gen.hh"

#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sim_error.hh"

namespace ladm
{

namespace
{

/** Checked before any allocation; vertex ids must fit CsrGraph::colIdx. */
void
requireGraphShape(int64_t vertices, int64_t avg_degree)
{
    ladm_assert(vertices > 0 && avg_degree > 0, "bad graph parameters");
    ladm_require(vertices <= std::numeric_limits<int32_t>::max(),
                 "graph of ", vertices,
                 " vertices exceeds the int32 vertex-id range");
}

/** Fill colIdx with neighbours drawn uniformly from [0, vertices). */
void
drawNeighbours(CsrGraph &g, Rng &rng)
{
    const UniformIndex pick(static_cast<uint64_t>(g.numVertices));
    for (auto &c : g.colIdx)
        c = static_cast<int32_t>(pick(rng));
}

} // namespace

CsrGraph
makePowerLawGraph(int64_t vertices, int64_t avg_degree, double alpha,
                  uint64_t seed)
{
    requireGraphShape(vertices, avg_degree);
    Rng rng(seed);
    CsrGraph g;
    g.numVertices = vertices;
    g.rowPtr.resize(vertices + 1, 0);

    // Draw degrees from a bounded Zipf and rescale to hit the target mean.
    std::vector<int32_t> deg(vertices);
    const ZipfIndex degree(static_cast<uint64_t>(avg_degree) * 16 + 1,
                           alpha);
    uint64_t total = 0;
    for (int64_t v = 0; v < vertices; ++v) {
        deg[v] = static_cast<int32_t>(degree(rng)) + 1;
        total += deg[v];
    }
    const double ratio =
        static_cast<double>(avg_degree) * vertices / total;
    int64_t edges = 0;
    for (int64_t v = 0; v < vertices; ++v) {
        int64_t d = static_cast<int64_t>(deg[v] * ratio);
        if (d < 1)
            d = 1;
        g.rowPtr[v + 1] = g.rowPtr[v] + d;
        edges += d;
    }

    g.colIdx.resize(edges);
    drawNeighbours(g, rng);
    return g;
}

CsrGraph
makeUniformGraph(int64_t vertices, int64_t avg_degree, uint64_t seed)
{
    requireGraphShape(vertices, avg_degree);
    Rng rng(seed);
    CsrGraph g;
    g.numVertices = vertices;
    g.rowPtr.resize(vertices + 1);
    for (int64_t v = 0; v <= vertices; ++v)
        g.rowPtr[v] = v * avg_degree;
    g.colIdx.resize(vertices * avg_degree);
    drawNeighbours(g, rng);
    return g;
}

} // namespace ladm
