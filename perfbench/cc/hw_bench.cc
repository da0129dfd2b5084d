/**
 * @file
 * The hw-interference workload: the Section 5.3 loop of
 * bench/sec53_interference.cc. memcached serves a fixed batch of
 * requests on one HwSystem while Contiguitas-HW migrates its
 * unmovable networking buffers in the background. Every batch boots
 * a fresh kernel and a fresh HwSystem, so the modelled caches start
 * empty; the boot is set-up and only the request loop is timed.
 */

#include <map>

#include "base/stat_registry.hh"
#include "bench_workload.hh"
#include "contiguitas/policy_registry.hh"
#include "hw/system.hh"
#include "kernel/addrspace.hh"
#include "timed_policy.hh"
#include "tracer.hh"
#include "workloads/access_gen.hh"

namespace perfbench
{

using namespace ctg;

namespace
{

struct HwParams
{
    std::uint64_t memBytes;
    std::uint64_t dataBytes;
    std::uint64_t codeBytes;
    double zipfTheta;
    unsigned bufferPages;
    std::uint64_t requests;
    unsigned opsPerRequest;
    unsigned dmaPerRequest;
    unsigned payloadReads;
    double migrationsPerSec;
    ChwMode mode;
    std::uint64_t streamSeed;
    std::uint64_t dmaSeed;
};

/** One booted server: kernel, touched address space, networking
 * buffer pool behind the IOMMU, and cold hardware. */
struct System
{
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<AddressSpace> space;
    std::unique_ptr<PageTables> dmaTables;
    std::vector<Vpn> buffers;
    std::unique_ptr<HwSystem> hw;
    std::unique_ptr<AccessStream> stream;
    std::unique_ptr<Rng> rng;
};

struct ServeResult
{
    double totalCycles = 0.0;
    std::uint64_t migrations = 0;
};

std::unique_ptr<System>
boot(const HwParams &p)
{
    const SpanScope setup("hw.setup");
    auto sys = std::make_unique<System>();
    KernelConfig kc;
    kc.memBytes = p.memBytes;
    kc.kernelTextBytes = std::uint64_t{4} << 20;
    kc.thpEnabled = false;
    {
        const SpanScope span("kernel.boot");
        // Built by registry name, so the traced run's timed "vanilla"
        // entry sees the boot, touch and buffer allocations.
        PolicyRegistry::Entry entry;
        if (!PolicyRegistry::instance().find("vanilla", &entry))
            fatal("policy 'vanilla' is not registered");
        sys->kernel = std::make_unique<Kernel>(
            kc, [&entry](Kernel &kernel) {
                return entry.make(kernel, PolicyConfig{});
            });
    }
    Kernel &kernel = *sys->kernel;
    AccessProfile profile = makeAccessProfile(WorkloadKind::Memcached);
    profile.dataBytes = p.dataBytes;
    profile.codeBytes = p.codeBytes;
    profile.dataZipfTheta = p.zipfTheta;
    sys->space = std::make_unique<AddressSpace>(kernel, 1);
    const Addr heap = sys->space->mmap(profile.dataBytes);
    const Addr code = sys->space->mmap(profile.codeBytes);
    {
        const SpanScope span("kernel.touch_range");
        sys->space->touchRange(heap, profile.dataBytes);
        sys->space->touchRange(code, profile.codeBytes);
    }
    {
        const SpanScope span("hw.buffer_pool");
        sys->dmaTables = std::make_unique<PageTables>(kernel);
        for (unsigned i = 0; i < p.bufferPages; ++i) {
            AllocRequest req;
            req.order = 0;
            req.mt = MigrateType::Unmovable;
            req.source = AllocSource::Networking;
            const Pfn pfn = kernel.allocPages(req);
            if (pfn == invalidPfn)
                fatal("buffer pool allocation %u failed", i);
            const Vpn vpn = 0x100000 + i;
            sys->dmaTables->map(vpn, pfn, 0);
            sys->buffers.push_back(vpn);
        }
    }
    {
        const SpanScope span("hw.boot");
        sys->hw = std::make_unique<HwSystem>();
        sys->stream = std::make_unique<AccessStream>(profile, heap, code,
                                                     p.streamSeed);
        sys->rng = std::make_unique<Rng>(p.dmaSeed);
    }
    return sys;
}

/** The request loop, one span per request; the per-access hw calls
 * are folded into it. */
ServeResult
serve(System &sys, const HwParams &p)
{
    const SpanScope serveSpan("hw.serve");
    HwSystem &hw = *sys.hw;
    Kernel &kernel = *sys.kernel;
    PageTables &dma = *sys.dmaTables;
    Rng &rng = *sys.rng;
    const double ghz = hw.config().ghz;
    const unsigned cores = hw.config().cores;
    double nextMigration =
        p.migrationsPerSec > 0 ? ghz * 1e9 / p.migrationsPerSec : 1e300;
    ServeResult result;

    for (std::uint64_t r = 0; r < p.requests; ++r) {
        const SpanScope request("hw.request");
        const auto core = static_cast<CoreId>(r % cores);
        for (unsigned op = 0; op < p.opsPerRequest; ++op) {
            bool isWrite = false;
            const Addr addr = sys.stream->nextData(&isWrite);
            const HotScope timed(Hot::HwCoreAccess);
            const auto res = hw.coreAccess(core, addr,
                                           sys.space->pageTables(),
                                           isWrite, r);
            result.totalCycles += static_cast<double>(res.latency) + 10;
        }
        for (unsigned d = 0; d < p.dmaPerRequest; ++d) {
            const Vpn vpn = sys.buffers[rng.below(sys.buffers.size())];
            const bool write = rng.chance(0.5);
            const HotScope timed(Hot::HwIommuDma);
            const auto res =
                hw.iommu().dmaAccess(pfnToAddr(vpn), dma, write, r);
            result.totalCycles += static_cast<double>(res.latency);
        }
        for (unsigned d = 0; d < p.payloadReads; ++d) {
            const Vpn vpn = sys.buffers[rng.below(sys.buffers.size())];
            const Translation tr = dma.translate(vpn);
            if (!tr.valid)
                continue;
            const Addr line = rng.below(linesPerPage) * lineBytes;
            const HotScope timed(Hot::HwMemAccess);
            const auto res =
                hw.mem().access(core, pfnToAddr(tr.pfn) + line, false);
            result.totalCycles += static_cast<double>(res.latency);
        }
        {
            const HotScope timed(Hot::HwDrain);
            hw.drain(static_cast<Tick>(result.totalCycles));
        }
        if (result.totalCycles < nextMigration)
            continue;
        nextMigration += ghz * 1e9 / p.migrationsPerSec;
        const Vpn vpn = sys.buffers[rng.below(sys.buffers.size())];
        const Translation tr = dma.translate(vpn);
        if (!tr.valid || hw.chw().migrating(tr.pfn))
            continue;
        AllocRequest req;
        req.order = 0;
        req.mt = MigrateType::Unmovable;
        req.source = AllocSource::Networking;
        const Pfn dst = kernel.allocPages(req);
        if (dst == invalidPfn)
            continue;
        const HotScope timed(Hot::HwMigrate);
        hw.shootdown().contiguitasMigrate(
            0, vpn, dma, dst, p.mode, hw.chw(),
            [&kernel, src = tr.pfn](MigrationTiming) {
                kernel.freePages(src);
            });
        hw.iommu().queueInvalidate(vpn);
        ++result.migrations;
    }
    {
        const HotScope timed(Hot::HwDrain);
        hw.drain();
    }
    return result;
}

/** Modelled hardware counters, summed over cores where per-core. */
std::map<std::string, double>
hwCounters(const HwSystem &hw)
{
    StatRegistry registry;
    hw.regStats(StatGroup(registry, "hw"));
    std::map<std::string, double> c;
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const Stat &stat = registry.at(i);
        const std::string &name = stat.name();
        if (name.size() > 10 && name.compare(0, 7, "hw.core") == 0 &&
            name.compare(name.size() - 10, 10, ".mmu.walks") == 0) {
            c["hw.mmu.walks"] += stat.value();
        } else {
            c[name] = stat.value();
        }
    }
    return c;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

class HwWorkload final : public BenchWorkload
{
  public:
    explicit HwWorkload(const BenchConfig &c)
        : p_{c.u64("mem_mb") << 20,
             c.u64("data_mb") << 20,
             c.u64("code_mb") << 20,
             c.num("zipf_theta"),
             static_cast<unsigned>(c.u64("buffer_pages")),
             c.u64("requests"),
             static_cast<unsigned>(c.u64("ops_per_request")),
             static_cast<unsigned>(c.u64("dma_per_request")),
             static_cast<unsigned>(c.u64("payload_reads")),
             c.num("migrations_per_sec"),
             c.u64("cacheable") != 0 ? ChwMode::Cacheable
                                     : ChwMode::Noncacheable,
             c.u64("stream_seed"),
             c.u64("dma_seed")},
          sys_(boot(p_))
    {}

    std::uint64_t batchOps() const override { return p_.requests; }

    BatchResult
    runBatch() override
    {
        // Every batch starts from a freshly booted, cold system; the
        // boot is set-up, not part of the timed loop.
        if (sys_ == nullptr)
            sys_ = boot(p_);
        BatchResult r;
        const double w0 = monoSec();
        const double c0 = cpuSec();
        const ServeResult served = serve(*sys_, p_);
        r.wallSec = monoSec() - w0;
        r.cpuSec = cpuSec() - c0;
        const auto c = hwCounters(*sys_->hw);
        r.digest = digestOf(served, c);
        r.values = {{"cycles_per_request",
                     served.totalCycles / double(p_.requests)},
                    {"migrations", double(served.migrations)}};
        // Paper shape (Section 5.3): migrations complete while the
        // requests are served.
        r.shapeOk = served.migrations > 0 &&
                    c.at("hw.chw.migrations_completed") ==
                        double(served.migrations);
        sys_.reset();
        return r;
    }

    TraceResult
    runTraced(const BatchResult &untraced) override
    {
        installTimedPolicies();
        Tracer::instance().enable();
        TraceResult t;
        ServeResult served;
        {
            const SpanScope batch("hw.traced_batch");
            sys_ = boot(p_);
            // Like the untraced batch, only the request loop is timed.
            const double w0 = monoSec();
            served = serve(*sys_, p_);
            t.wallSec = monoSec() - w0;
        }
        const auto c = hwCounters(*sys_->hw);
        t.mismatches = digestOf(served, c) == untraced.digest ? 0 : 1;
        t.values = tracerValues();
        const double accesses = c.at("hw.mem_hierarchy.accesses");
        t.values.emplace_back("hw.mem_hierarchy.accesses", accesses);
        t.values.emplace_back(
            "hw.l1_hit_ratio",
            ratio(c.at("hw.mem_hierarchy.l1_hits"), accesses));
        t.values.emplace_back(
            "hw.l2_hit_ratio",
            ratio(c.at("hw.mem_hierarchy.l2_hits"), accesses));
        t.values.emplace_back(
            "hw.llc_hit_ratio",
            ratio(c.at("hw.mem_hierarchy.llc_hits"), accesses));
        t.values.emplace_back("hw.mmu.walks", c.at("hw.mmu.walks"));
        t.values.emplace_back(
            "hw.iommu.iotlb_hit_ratio",
            ratio(c.at("hw.iommu.iotlb_hits"), c.at("hw.iommu.accesses")));
        t.values.emplace_back("hw.chw.migrations_completed",
                              c.at("hw.chw.migrations_completed"));
        // Host time of the request loop per modelled memory access.
        t.values.emplace_back("hw.host_ns_per_sim_access",
                              ratio(untraced.wallSec * 1e9, accesses));

        StatRegistry registry;
        const StatGroup group(registry, "hw");
        sys_->kernel->regStats(group.group("kernel"));
        sys_->kernel->policy().regStats(group);
        std::map<std::string, double> counters;
        sumLayerCounters(registry, counters);
        for (const auto &[name, value] : counters)
            t.values.emplace_back(name, value);
        sys_.reset();
        return t;
    }

  private:
    /** Digest of the modelled outputs: cycles, migrations and every
     * hardware counter. */
    static std::string
    digestOf(const ServeResult &served,
             const std::map<std::string, double> &counters)
    {
        Digest d;
        d.f64(served.totalCycles);
        d.u64(served.migrations);
        for (const auto &[name, value] : counters) {
            d.bytes(name.data(), name.size());
            d.f64(value);
        }
        return d.hex();
    }

    HwParams p_;
    std::unique_ptr<System> sys_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeHwWorkload(const BenchConfig &config)
{
    return std::make_unique<HwWorkload>(config);
}

} // namespace perfbench
