/**
 * @file
 * Process-sharded fleet populations.
 *
 * One simulator process tops out well below the 10⁶-server tier
 * ROADMAP item 1 targets: a single address space accumulates page
 * tables, allocator metadata and telemetry for the whole population,
 * and a single process is limited to one machine's worth of cores.
 * runShardedFleet() splits the population into contiguous server
 * ranges and forks one worker process per range. Each child runs an
 * ordinary Fleet over its range (sampling the *full* population's
 * configs so every shard consumes the identical seed stream), then
 * streams its results back over a pipe using the serde layer:
 * per-server scans, merged OnlineHistogram sinks, fault-counter
 * deltas, captured span events and checkpoint manifest entries.
 *
 * The parent drains the pipes in shard order and merges — scans
 * concatenate in server order, sinks merge commutatively, fault
 * deltas fold into the ambient injector, span events are published
 * in server order (names re-interned, since pointers cannot cross a
 * process boundary), and manifest entries from every shard are
 * written as the one manifest a single-process run would have
 * produced. The result is bit-identical to an unsharded run: same
 * scans, same streamed quantiles, same fault counters, same manifest
 * bytes (pinned by tests/test_fleet_scale.cc with every fault site
 * armed). The only observable difference is that the children's
 * main-thread `fleet.*` phase spans die with the child processes —
 * per-server span streams survive intact.
 *
 * fork() is used without exec: children inherit the sampled
 * environment and the span stream counter, so no state needs to be
 * re-marshalled on the way in. Call with no live threads (Fleet
 * joins its executor before returning, so back-to-back runs are
 * safe).
 */

#ifndef CTG_FLEET_SHARDING_HH
#define CTG_FLEET_SHARDING_HH

#include <cstdint>
#include <vector>

#include "fleet/fleet.hh"

namespace ctg
{

/** Per-shard resource accounting, reported by each worker process. */
struct ShardStats
{
    /** Server range [begin, end) this shard simulated. */
    unsigned begin = 0;
    unsigned end = 0;
    /** Wall-clock milliseconds of the shard's Fleet::run. */
    double wallMs = 0.0;
    /** Peak resident-set size of the shard process (bytes). */
    std::uint64_t peakRssBytes = 0;
};

/** Merged results of a sharded fleet run. */
struct ShardRunResult
{
    /** Per-server scans in server order across all shards; empty
     * when the run was invoked with includeScans = false (the
     * 10⁶-tier path, where materializing O(servers) scans in the
     * parent defeats the point of streaming sinks). */
    std::vector<ServerScan> scans;
    /** Merged streaming sinks (empty unless Config::streamScans). */
    Fleet::ScanSinks sinks;
    /** One entry per shard, in shard (= server range) order. */
    std::vector<ShardStats> shards;
    /** Wall-clock milliseconds of the whole sharded run, fork to
     * final merge. */
    double wallMs = 0.0;
};

/**
 * Run `config`'s population split across `shards` worker processes
 * (clamped to [1, servers]; 1 runs in-process with no fork). Throws
 * FatalError if a shard process dies or returns a malformed result
 * stream — a lost shard cannot be patched over without silently
 * changing the population.
 */
ShardRunResult runShardedFleet(const Fleet::Config &config,
                               unsigned shards,
                               bool includeScans = true);

} // namespace ctg

#endif // CTG_FLEET_SHARDING_HH
