/**
 * @file
 * The benchmark's workloads. Each runs its open and closed phases
 * (plus, when traced, the probe phase) and returns the metrics.
 *
 *  - chat_churn and rag_longdoc (local.cpp) drive the full local
 *    serving path: SessionCache over a spilling ShardStore, a
 *    BatchScheduler, and the engine.
 *  - remote_fanout (remote.cpp) drives one session whose shards live
 *    on shard_worker processes, through AttentionEngine into a
 *    RemoteShardCoordinator.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <string>

#include "common.hpp"

namespace perfbench {

/** Engine lanes for the local workloads: the driver thread is one of
 *  them, and 3 gave steadier tails than 4 on a 4-core host. */
std::size_t localLanes();

bool isLocalWorkload(const std::string &name);
bool isRemoteWorkload(const std::string &name);

RunOutcome runLocal(const Options &options);
RunOutcome runRemote(const Options &options);

/** Provenance block: host, compiler, kernel table, lanes, workers. */
Json provenanceJson(std::size_t lanes, std::size_t workers);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
