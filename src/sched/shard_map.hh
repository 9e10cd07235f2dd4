/**
 * @file
 * ShardMap: NUMA node -> PDES shard assignment for the sharded kernel
 * engine.
 *
 * The conservative-PDES engine (sim/sharded_engine.cc) partitions the
 * machine's NUMA nodes across worker threads ("shards"). The partition
 * must be (a) contiguous -- node-adjacent chiplets share a package
 * ring, so keeping them on one shard keeps that traffic out of the
 * cross-shard barrier -- and (b) balanced within one node, so no shard
 * becomes the straggler every window waits on. `node i -> shard
 * i * shards / nodes` gives both, and is a pure function of the config,
 * so every run (and every shard count) agrees on who owns what.
 */

#ifndef LADM_SCHED_SHARD_MAP_HH
#define LADM_SCHED_SHARD_MAP_HH

#include <vector>

#include "common/types.hh"
#include "config/system_config.hh"

namespace ladm
{

struct ShardMap
{
    int shards = 1;
    /** shardOfNode[n] = shard owning NUMA node n. */
    std::vector<int> shardOfNode;
    /** nodesOfShard[s] = the (contiguous, ascending) nodes shard s owns. */
    std::vector<std::vector<NodeId>> nodesOfShard;
};

/**
 * Build the node->shard partition for @p shards shards (clamped to
 * [1, cfg.numNodes()]). Every shard owns at least one node.
 */
ShardMap buildShardMap(const SystemConfig &cfg, int shards);

} // namespace ladm

#endif // LADM_SCHED_SHARD_MAP_HH
