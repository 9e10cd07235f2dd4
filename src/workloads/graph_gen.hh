/**
 * @file
 * Synthetic graph / sparse-matrix generation for the irregular workloads.
 *
 * The paper's graph inputs (Pannotia / Lonestar datasets) are replaced by
 * deterministic synthetic CSR structures: power-law out-degree graphs
 * (scale-free, like the road/web/citation inputs) and uniform-degree
 * graphs. Only the CSR *shape* matters to LADM -- it drives the
 * data-dependent access streams the ITL cache policies act on.
 */

#ifndef LADM_WORKLOADS_GRAPH_GEN_HH
#define LADM_WORKLOADS_GRAPH_GEN_HH

#include <cstdint>
#include <vector>

namespace ladm
{

/** Compressed-sparse-row adjacency structure. */
struct CsrGraph
{
    int64_t numVertices = 0;
    std::vector<int64_t> rowPtr; ///< size numVertices + 1
    /** Size numEdges(). 32-bit vertex ids, like the modelled 4-byte
     *  colidx array: both generators throw SimError, before allocating,
     *  for more than INT32_MAX vertices. */
    std::vector<int32_t> colIdx;

    int64_t numEdges() const { return rowPtr.empty() ? 0 : rowPtr.back(); }
    int64_t degree(int64_t v) const { return rowPtr[v + 1] - rowPtr[v]; }
};

/**
 * Scale-free graph: out-degrees follow a truncated power law with skew
 * @p alpha around mean @p avg_degree; neighbours drawn uniformly.
 */
CsrGraph makePowerLawGraph(int64_t vertices, int64_t avg_degree,
                           double alpha, uint64_t seed);

/** Uniform-degree graph (every vertex has exactly avg_degree edges). */
CsrGraph makeUniformGraph(int64_t vertices, int64_t avg_degree,
                          uint64_t seed);

} // namespace ladm

#endif // LADM_WORKLOADS_GRAPH_GEN_HH
