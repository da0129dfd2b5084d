/**
 * @file
 * The fleet workloads. A run holds `populations` fixed populations;
 * each batch runs the next one in turn, so every population repeats
 * through the run and the runner can take each one's least disturbed
 * repeat. A population is two fig11-shaped halves, one under
 * "vanilla" and one under "contiguitas", each sampled from its own
 * seed, run either in this process on a worker pool (Fleet::run) or
 * forked into shards (runShardedFleet). The traced replay drives the
 * last batch's sampled server configs one at a time through Server's
 * public calls, so each layer call gets a span.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "base/env_config.hh"
#include "base/rng.hh"
#include "base/stat_registry.hh"
#include "bench_workload.hh"
#include "fleet/fleet.hh"
#include "fleet/sharding.hh"
#include "timed_policy.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace ctg;

// ServerScan holds only 8-byte fields, so it has no padding and
// memcmp is a byte-equality test.
static_assert(sizeof(ServerScan) ==
              sizeof(double) * (4 + 4 + 3 + 1 + 2) +
                  sizeof(std::uint64_t) * (numAllocSources + 2));

namespace
{

/** Per-layer counters the traced run sums over servers: metric name
 * and the registry-name suffix it collects (every allocator's buddy
 * counters match the `buddy.` suffixes). */
const std::pair<const char *, const char *> layerCounters[] = {
    {"kernel.contig_index.resync_calls",
     ".kernel.contig_index.resync_calls"},
    {"kernel.contig_index.frames_rescanned",
     ".kernel.contig_index.frames_rescanned"},
    {"kernel.alloc_retries", ".kernel.alloc_retries"},
    {"kernel.direct_reclaims", ".kernel.direct_reclaims"},
    {"kernel.direct_compactions", ".kernel.direct_compactions"},
    {"kernel.compact.migrated", ".kernel.compact.migrated"},
    {"mem.buddy.alloc_calls", ".buddy.alloc_calls"},
    {"mem.buddy.failed_allocs", ".buddy.failed_allocs"},
    {"ctg.region.expansions", ".ctg.region.expansions"},
    {"ctg.region.shrinks", ".ctg.region.shrinks"},
};

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void
hashSink(Digest &digest, Values &values, const std::string &prefix,
         const OnlineHistogram &sink)
{
    const double stats[] = {double(sink.count()), sink.mean(),
                            sink.min(),           sink.max(),
                            sink.quantile(0.1),   sink.quantile(0.5),
                            sink.quantile(0.9)};
    for (const double v : stats)
        digest.f64(v);
    values.emplace_back(prefix + ".mean", sink.mean());
    values.emplace_back(prefix + ".p50", sink.quantile(0.5));
}

/** The outputs of one policy half of a batch. */
struct HalfOutcome
{
    std::vector<ServerScan> scans;
    Fleet::ScanSinks sinks;
    std::vector<ShardStats> shards;
    double shardRunWallMs = 0.0;
};

class FleetWorkload final : public BenchWorkload
{
  public:
    explicit FleetWorkload(const BenchConfig &c)
        : shards_(static_cast<unsigned>(c.u64("shards")))
    {
        populations_.resize(c.u64("populations"));
        for (std::size_t p = 0; p < populations_.size(); ++p) {
            for (const char *policy : {"vanilla", "contiguitas"}) {
                // Only the fields that describe the population; every
                // A/B knob stays at its default.
                Fleet::Config fc;
                fc.servers =
                    static_cast<unsigned>(c.u64("servers_per_policy"));
                fc.memBytes = c.u64("mem_mb") << 20;
                fc.policy.name = policy;
                fc.minUptimeSec = c.num("min_uptime_s");
                fc.maxUptimeSec = c.num("max_uptime_s");
                fc.minIntensity = c.num("min_intensity");
                fc.maxIntensity = c.num("max_intensity");
                fc.prefragmentFrac = c.num("prefragment_frac");
                fc.coarseStep = c.u64("coarse_step") != 0;
                fc.threads = static_cast<unsigned>(c.u64("threads"));
                fc.seed = c.u64(std::string(policy) + "_seed_" +
                                std::to_string(p));
                fc.streamScans = true;
                populations_[p].push_back({policy, fc, nullptr});
                // The in-process path reuses one Fleet (and its shared
                // tables) across batches; shards build theirs after
                // fork.
                if (shards_ <= 1)
                    populations_[p].back().fleet =
                        std::make_unique<Fleet>(fc);
            }
        }
        if (populations_.empty())
            throw std::runtime_error("populations must be at least 1");
    }

    std::uint64_t
    batchOps() const override
    {
        const std::vector<Half> &halves = populations_[0];
        return halves.size() * std::uint64_t{halves[0].config.servers};
    }

    BatchResult
    runBatch() override
    {
        BatchResult r;
        r.population = next_++ % populations_.size();
        std::vector<Half> &halves = populations_[r.population];
        std::vector<HalfOutcome> outs(halves.size());
        const double w0 = monoSec();
        const double c0 = cpuSec();
        for (std::size_t h = 0; h < halves.size(); ++h) {
            Half &half = halves[h];
            if (half.fleet != nullptr) {
                outs[h].scans = half.fleet->run();
            } else {
                ShardRunResult run = runShardedFleet(half.config, shards_);
                outs[h].scans = std::move(run.scans);
                outs[h].sinks = std::move(run.sinks);
                outs[h].shards = std::move(run.shards);
                outs[h].shardRunWallMs = run.wallMs;
            }
        }
        r.wallSec = monoSec() - w0;
        r.cpuSec = cpuSec() - c0;

        Digest digest;
        double shardOverheadMs = 0.0;
        double imbalance = 0.0;
        for (std::size_t h = 0; h < halves.size(); ++h) {
            HalfOutcome &out = outs[h];
            if (halves[h].fleet != nullptr)
                out.sinks = halves[h].fleet->scanSinks();
            for (const ServerScan &scan : out.scans)
                digest.bytes(&scan, sizeof(scan));
            const std::string p = halves[h].policy;
            hashSink(digest, r.values, p + ".free_contiguity_2m",
                     out.sinks.freeContiguity2m);
            hashSink(digest, r.values, p + ".unmovable_blocks_2m",
                     out.sinks.unmovableBlocks2m);
            hashSink(digest, r.values, p + ".unmovable_page_ratio",
                     out.sinks.unmovablePageRatio);
            hashSink(digest, r.values, p + ".uptime_sec",
                     out.sinks.uptimeSec);
            if (!out.shards.empty()) {
                double maxMs = 0.0;
                double sumMs = 0.0;
                for (const ShardStats &s : out.shards) {
                    maxMs = std::max(maxMs, s.wallMs);
                    sumMs += s.wallMs;
                }
                shardOverheadMs += out.shardRunWallMs - maxMs;
                imbalance += maxMs / (sumMs / double(out.shards.size())) /
                             double(halves.size());
            }
        }
        r.digest = digest.hex();
        // Paper shape (Figure 11): confinement keeps the share of
        // 2 MB blocks holding unmovable pages below stock Linux's.
        r.shapeOk = outs[1].sinks.unmovableBlocks2m.mean() <
                    outs[0].sinks.unmovableBlocks2m.mean();
        if (shards_ > 1) {
            r.values.emplace_back("fleet.shard_overhead_ms",
                                  shardOverheadMs);
            r.values.emplace_back("fleet.shard_imbalance", imbalance);
        } else {
            const double threads = halves[0].fleet->lastRunThreads();
            r.values.emplace_back("fleet.worker_utilisation",
                                  r.cpuSec / (r.wallSec * threads));
        }
        lastPopulation_ = r.population;
        lastScans_.clear();
        for (HalfOutcome &out : outs)
            lastScans_.push_back(std::move(out.scans));
        return r;
    }

    TraceResult
    runTraced(const BatchResult &) override
    {
        installTimedPolicies();
        Tracer::instance().enable();
        TraceResult t;
        std::map<std::string, double> counters;
        const double w0 = monoSec();
        {
            const SpanScope batch("fleet.traced_batch");
            const std::vector<Half> &halves = populations_[lastPopulation_];
            for (std::size_t h = 0; h < halves.size(); ++h) {
                const SpanScope population("fleet.population", "half",
                                           static_cast<std::int64_t>(h));
                const Fleet fleet(halves[h].config);
                const std::vector<Server::Config> configs =
                    sampleConfigs(fleet);
                for (std::size_t i = 0; i < configs.size(); ++i) {
                    const ServerScan scan =
                        driveServer(configs[i], i, counters);
                    const ServerScan &ref = lastScans_.at(h).at(i);
                    if (std::memcmp(&scan, &ref, sizeof(scan)) != 0)
                        ++t.mismatches;
                }
            }
        }
        t.wallSec = monoSec() - w0;
        t.values = tracerValues();
        for (const auto &[name, suffix] : layerCounters)
            t.values.emplace_back(name, counters[name]);
        return t;
    }

  private:
    struct Half
    {
        const char *policy;
        Fleet::Config config;
        std::unique_ptr<Fleet> fleet;
    };

    /** Fleet::run's pre-sampling of every server config, replayed
     * from the same seed; the traced ≡ untraced check fails if the
     * two ever drift apart. */
    static std::vector<Server::Config>
    sampleConfigs(const Fleet &fleet)
    {
        static const WorkloadKind kinds[] = {
            WorkloadKind::Web,    WorkloadKind::CacheA,
            WorkloadKind::CacheB, WorkloadKind::CI,
            WorkloadKind::Nginx,  WorkloadKind::Memcached,
        };
        const Fleet::Config &fc = fleet.config();
        const Server::Config base = fleet.baseServerConfig();
        std::vector<Server::Config> configs(fc.servers, base);
        Rng rng(fc.seed);
        for (Server::Config &sc : configs) {
            sc.kind = kinds[rng.below(std::size(kinds))];
            sc.intensity = fc.minIntensity +
                           rng.uniform() *
                               (fc.maxIntensity - fc.minIntensity);
            sc.prefragment = rng.chance(fc.prefragmentFrac);
            sc.uptimeSec = fc.minUptimeSec +
                           rng.uniform() *
                               (fc.maxUptimeSec - fc.minUptimeSec);
            sc.seed = rng.next();
        }
        return configs;
    }

    /** Server::runSegment's stepping rule (no sampler, no auditor),
     * one span per workload step. */
    static void
    runSegment(Server &server, const Server::Config &sc, double seconds)
    {
        if (seconds <= 0.0)
            return;
        if (!sc.coarseStep.value_or(sim::EnvConfig::fromEnv().coarseStep)) {
            const SpanScope step("workloads.step");
            server.workload().runFor(seconds, sc.stepSec);
            return;
        }
        double remaining = seconds;
        while (remaining > 0.0) {
            const double dt =
                server.kernel().policy().hasPendingMaintenance()
                    ? std::min(sc.stepSec, remaining)
                    : remaining;
            {
                const SpanScope step("workloads.step");
                server.workload().runFor(dt, dt);
            }
            remaining -= dt;
        }
    }

    /** Server::run() taken apart into its public calls. The
     * pretreatment runs from outside, so the server is built with
     * prefragment off and the Fragmenter — whose sprinkled pages
     * must stay allocated — lives until the server is torn down. */
    static ServerScan
    driveServer(Server::Config sc, std::size_t index,
                std::map<std::string, double> &counters)
    {
        const SpanScope span("fleet.server", "server",
                             static_cast<std::int64_t>(index));
        const bool prefragment = sc.prefragment;
        sc.prefragment = false;
        std::optional<Server> server;
        std::optional<Fragmenter> fragmenter;
        {
            const SpanScope boot("fleet.server_boot");
            server.emplace(sc);
        }
        if (prefragment) {
            const SpanScope frag("workloads.fragmenter");
            fragmenter.emplace(server->kernel(), Fragmenter::Config{},
                               sc.seed ^ 0xf7a6);
            fragmenter->run();
        }
        {
            const SpanScope start("workloads.start");
            server->workload().start();
        }
        runSegment(*server, sc, sc.uptimeSec);
        runSegment(*server, sc, sc.extraUptimeSec);
        ServerScan scan;
        {
            const SpanScope scanSpan("mem.scan");
            scan = server->scan();
        }
        {
            const SpanScope read("bench.read_counters");
            StatRegistry registry;
            server->attachTelemetry(registry, nullptr, "server");
            sumLayerCounters(registry, counters);
        }
        {
            const SpanScope teardown("fleet.server_teardown");
            fragmenter.reset();
            server.reset();
        }
        return scan;
    }

    unsigned shards_;
    /** Each population's two policy halves. */
    std::vector<std::vector<Half>> populations_;
    /** Population the next runBatch() runs. */
    std::size_t next_ = 0;
    /** Population and per-half scans of the last runBatch(), in
     * server order. */
    std::size_t lastPopulation_ = 0;
    std::vector<std::vector<ServerScan>> lastScans_;
};

} // namespace

void
sumLayerCounters(const StatRegistry &registry,
                 std::map<std::string, double> &sums)
{
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const Stat &stat = registry.at(i);
        for (const auto &[name, suffix] : layerCounters) {
            if (endsWith(stat.name(), suffix))
                sums[name] += stat.value();
        }
    }
}

Values
tracerValues()
{
    const Tracer &tracer = Tracer::instance();
    const HotTotals &totals = tracer.totals();
    Values values;
    for (std::size_t k = 0; k < numHot; ++k) {
        const std::string stem = hotName(static_cast<Hot>(k));
        values.emplace_back(stem + ".ms", double(totals.ns[k]) / 1e6);
        values.emplace_back(stem + ".calls", double(totals.calls[k]));
    }
    const auto allocCalls =
        double(totals.calls[static_cast<std::size_t>(Hot::PolicyAlloc)]);
    values.emplace_back("policy.alloc.fail_ratio",
                        allocCalls > 0.0
                            ? double(tracer.allocFails()) / allocCalls
                            : 0.0);
    return values;
}

std::unique_ptr<BenchWorkload>
makeFleetWorkload(const BenchConfig &config)
{
    return std::make_unique<FleetWorkload>(config);
}

} // namespace perfbench
