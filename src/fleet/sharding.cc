#include "fleet/sharding.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "base/host_mem.hh"
#include "base/logging.hh"
#include "base/serde.hh"
#include "base/span_trace.hh"
#include "sim/fault_injector.hh"
#include "sim/snapshot.hh"

namespace ctg
{

namespace
{

/** Section ids of the child → parent result stream. */
enum ShardSection : std::uint32_t
{
    SecHeader = 0x53484452,   // "SHDR"
    SecScans = 0x5343414e,    // "SCAN"
    SecSinks = 0x53494e4b,    // "SINK"
    SecFaults = 0x464c5453,   // "FLTS"
    SecSpans = 0x53504e53,    // "SPNS"
    SecManifest = 0x4d414e46, // "MANF"
    SecGauges = 0x47415547,   // "GAUG"
};

constexpr std::uint32_t shardStreamMagic = 0x43544748; // "CTGH"
constexpr std::uint32_t shardFormatVersion = 2;

void
writeFully(int fd, const std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t wrote = ::write(fd, data, len);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            // The parent is gone; nothing useful left to do but
            // die — the parent's waitpid sees the failure.
            std::fprintf(stderr,
                         "ctg shard: result write failed: %s\n",
                         std::strerror(errno));
            ::_exit(1);
        }
        data += wrote;
        len -= static_cast<std::size_t>(wrote);
    }
}

std::vector<std::uint8_t>
readAll(int fd)
{
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[1u << 16];
    for (;;) {
        const ssize_t got = ::read(fd, chunk, sizeof(chunk));
        if (got < 0) {
            if (errno == EINTR)
                continue;
            throw FatalError(std::string("shard pipe read failed: ") +
                             std::strerror(errno));
        }
        if (got == 0)
            return buf;
        buf.insert(buf.end(), chunk, chunk + got);
    }
}

/** Intern a span name/key shipped from a shard: spans::Event stores
 * `const char *` to storage that must outlive the collector, which
 * literals guarantee in-process but serialized strings do not. The
 * pool is append-only and deliberately reachable for the process
 * lifetime. */
const char *
internSpanString(const std::string &s)
{
    static std::mutex mu;
    static std::unordered_set<std::string> pool;
    const std::lock_guard<std::mutex> lock(mu);
    return pool.insert(s).first->c_str();
}

void
putEvent(serde::Writer &out, const spans::Event &e)
{
    out.putU8(static_cast<std::uint8_t>(e.phase));
    out.putU32(static_cast<std::uint32_t>(e.flag));
    out.putString(e.name);
    out.putU64(e.id);
    out.putU64(e.parent);
    out.putU64(e.ts);
    out.putU64(static_cast<std::uint64_t>(e.tick));
    out.putU64(e.wallUs);
    out.putU32(e.stream);
    out.putU8(e.nargs);
    for (unsigned a = 0; a < e.nargs && a < spans::maxArgs; ++a) {
        out.putString(e.args[a].key);
        out.putU64(static_cast<std::uint64_t>(e.args[a].value));
    }
}

spans::Event
getEvent(serde::Reader &in)
{
    spans::Event e;
    const std::uint8_t phase = in.getU8();
    if (phase > static_cast<std::uint8_t>(
                    spans::Event::Phase::FlowEnd))
        throw serde::Error("shard: span phase out of range");
    e.phase = static_cast<spans::Event::Phase>(phase);
    e.flag = static_cast<TraceFlag>(in.getU32());
    e.name = internSpanString(in.getString());
    e.id = in.getU64();
    e.parent = in.getU64();
    e.ts = in.getU64();
    e.tick = static_cast<Tick>(in.getU64());
    e.wallUs = in.getU64();
    e.stream = in.getU32();
    e.nargs = in.getU8();
    if (e.nargs > spans::maxArgs)
        throw serde::Error("shard: span arg count out of range");
    for (unsigned a = 0; a < e.nargs; ++a) {
        e.args[a].key = internSpanString(in.getString());
        e.args[a].value =
            static_cast<std::int64_t>(in.getU64());
    }
    return e;
}

void
putSinks(serde::Writer &out, const Fleet::ScanSinks &sinks)
{
    sinks.freeContiguity2m.saveTo(out);
    sinks.unmovableBlocks2m.saveTo(out);
    sinks.unmovablePageRatio.saveTo(out);
    sinks.uptimeSec.saveTo(out);
}

Fleet::ScanSinks
getSinks(serde::Reader &in)
{
    Fleet::ScanSinks sinks;
    sinks.freeContiguity2m.loadFrom(in);
    sinks.unmovableBlocks2m.loadFrom(in);
    sinks.unmovablePageRatio.loadFrom(in);
    sinks.uptimeSec.loadFrom(in);
    return sinks;
}

/** The child side: run the shard's range and stream every result a
 * single-process merge step would have applied back to the parent.
 * Runs inside fork(); must end in _exit, never return to the
 * caller's stack. */
void
runShardChild(Fleet::Config config, unsigned shard, unsigned lo,
              unsigned hi, bool includeScans, int fd)
{
    config.rangeBegin = lo;
    config.rangeEnd = hi;
    // Per-server span streams are stashed by the fleet and shipped
    // below; the parent publishes them in server order, exactly
    // where the in-process merge step would have.
    config.captureSpans = spans::anyEnabled();

    FaultInjector &ambient = faultInjector();
    std::array<FaultInjector::SiteStats, numFaultSites> before{};
    for (unsigned s = 0; s < numFaultSites; ++s)
        before[s] = ambient.siteStats(static_cast<FaultSite>(s));

    Fleet fleet(config);
    const std::vector<ServerScan> scans = fleet.run();

    serde::Writer out;
    out.beginSection(SecHeader);
    out.putU32(shardStreamMagic);
    out.putU32(shardFormatVersion);
    out.putU32(shard);
    out.putU32(lo);
    out.putU32(hi);
    out.endSection();

    if (includeScans) {
        out.beginSection(SecScans);
        out.putPodVector(scans);
        out.endSection();
    }

    if (config.streamScans) {
        out.beginSection(SecSinks);
        putSinks(out, fleet.scanSinks());
        out.endSection();
    }

    out.beginSection(SecFaults);
    out.putU32(numFaultSites);
    for (unsigned s = 0; s < numFaultSites; ++s) {
        const FaultInjector::SiteStats &after =
            ambient.siteStats(static_cast<FaultSite>(s));
        out.putU64(after.evaluations - before[s].evaluations);
        out.putU64(after.fires - before[s].fires);
    }
    out.endSection();

    if (config.captureSpans) {
        std::vector<std::vector<spans::Event>> perServer =
            fleet.takeCapturedSpans();
        out.beginSection(SecSpans);
        out.putU64(perServer.size());
        for (const std::vector<spans::Event> &events : perServer) {
            out.putU64(events.size());
            for (const spans::Event &e : events)
                putEvent(out, e);
        }
        out.endSection();
    }

    if (!config.checkpointDir.empty()) {
        const std::vector<snap::ManifestEntry> entries =
            fleet.takePendingManifestEntries();
        out.beginSection(SecManifest);
        out.putU64(entries.size());
        for (const snap::ManifestEntry &entry : entries) {
            out.putU32(entry.server);
            out.putString(entry.file);
            out.putU64(entry.bytes);
            out.putU32(entry.crc);
        }
        out.endSection();
    }

    out.beginSection(SecGauges);
    out.putDouble(fleet.lastRunWallMs());
    out.putU64(peakRssBytes());
    out.endSection();

    writeFully(fd, out.bytes().data(), out.bytes().size());
    ::close(fd);
}

/** Everything the parent decodes from one shard's stream. */
struct ShardPayload
{
    unsigned lo = 0;
    unsigned hi = 0;
    std::vector<ServerScan> scans;
    Fleet::ScanSinks sinks;
    std::vector<std::vector<spans::Event>> spans;
    std::vector<snap::ManifestEntry> manifestEntries;
    ShardStats stats;
};

ShardPayload
decodeShard(const std::vector<std::uint8_t> &blob, unsigned shard,
            unsigned expectLo, unsigned expectHi)
{
    ShardPayload payload;
    serde::Reader in(blob);
    bool sawHeader = false;
    bool sawGauges = false;
    while (!in.atEnd()) {
        serde::Reader::Section section = in.nextSection();
        serde::Reader &p = section.payload;
        switch (section.id) {
          case SecHeader: {
            if (p.getU32() != shardStreamMagic ||
                p.getU32() != shardFormatVersion)
                throw serde::Error("shard: bad stream magic");
            if (p.getU32() != shard)
                throw serde::Error("shard: index mismatch");
            payload.lo = p.getU32();
            payload.hi = p.getU32();
            if (payload.lo != expectLo || payload.hi != expectHi)
                throw serde::Error("shard: range mismatch");
            sawHeader = true;
            break;
          }
          case SecScans:
            payload.scans = p.getPodVector<ServerScan>();
            break;
          case SecSinks:
            payload.sinks = getSinks(p);
            break;
          case SecFaults: {
            if (p.getU32() != numFaultSites)
                throw serde::Error("shard: fault site count skew");
            FaultInjector &ambient = faultInjector();
            for (unsigned s = 0; s < numFaultSites; ++s) {
                FaultInjector::SiteStats delta;
                delta.evaluations = p.getU64();
                delta.fires = p.getU64();
                ambient.absorbSiteStats(static_cast<FaultSite>(s),
                                        delta);
            }
            break;
          }
          case SecSpans: {
            const std::uint64_t servers = p.getU64();
            payload.spans.resize(
                static_cast<std::size_t>(servers));
            for (std::uint64_t i = 0; i < servers; ++i) {
                const std::uint64_t count = p.getU64();
                std::vector<spans::Event> &events =
                    payload.spans[static_cast<std::size_t>(i)];
                events.reserve(static_cast<std::size_t>(count));
                for (std::uint64_t e = 0; e < count; ++e)
                    events.push_back(getEvent(p));
            }
            break;
          }
          case SecManifest: {
            const std::uint64_t count = p.getU64();
            payload.manifestEntries.reserve(
                static_cast<std::size_t>(count));
            for (std::uint64_t e = 0; e < count; ++e) {
                snap::ManifestEntry entry;
                entry.server = p.getU32();
                entry.file = p.getString();
                entry.bytes = p.getU64();
                entry.crc = p.getU32();
                payload.manifestEntries.push_back(
                    std::move(entry));
            }
            break;
          }
          case SecGauges:
            payload.stats.wallMs = p.getDouble();
            payload.stats.peakRssBytes = p.getU64();
            sawGauges = true;
            break;
          default:
            throw serde::Error("shard: unknown section");
        }
    }
    if (!sawHeader || !sawGauges)
        throw serde::Error("shard: stream missing sections");
    payload.stats.begin = payload.lo;
    payload.stats.end = payload.hi;
    return payload;
}

} // namespace

ShardRunResult
runShardedFleet(const Fleet::Config &config, unsigned shards,
                bool includeScans)
{
    Fleet::Config cfg = config;
    cfg.applyEnvOverlay();
    if (cfg.rangeBegin != 0 || cfg.rangeEnd != 0)
        fatal("runShardedFleet owns the shard range fields");
    if (shards == 0)
        shards = 1;
    if (shards > cfg.servers)
        shards = cfg.servers != 0 ? cfg.servers : 1;

    const auto wallStart = std::chrono::steady_clock::now();

    if (shards <= 1) {
        ShardRunResult result;
        Fleet fleet(cfg);
        std::vector<ServerScan> scans = fleet.run();
        if (includeScans)
            result.scans = std::move(scans);
        result.sinks = fleet.scanSinks();
        ShardStats stats;
        stats.begin = 0;
        stats.end = cfg.servers;
        stats.wallMs = fleet.lastRunWallMs();
        stats.peakRssBytes = peakRssBytes();
        result.shards.push_back(stats);
        result.wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wallStart)
                .count();
        return result;
    }

    const bool spansOn = spans::anyEnabled();

    struct Child
    {
        pid_t pid = -1;
        int fd = -1;
        unsigned lo = 0;
        unsigned hi = 0;
    };
    std::vector<Child> children;
    children.reserve(shards);

    for (unsigned s = 0; s < shards; ++s) {
        // Even split; the first (servers % shards) shards take one
        // extra server.
        const unsigned lo = static_cast<unsigned>(
            (static_cast<std::uint64_t>(cfg.servers) * s) / shards);
        const unsigned hi = static_cast<unsigned>(
            (static_cast<std::uint64_t>(cfg.servers) * (s + 1)) /
            shards);
        int fds[2];
        if (::pipe(fds) != 0)
            throw FatalError(std::string("shard pipe failed: ") +
                             std::strerror(errno));
        // Flush before fork so buffered output is not duplicated
        // into the children.
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        if (pid < 0)
            throw FatalError(std::string("shard fork failed: ") +
                             std::strerror(errno));
        if (pid == 0) {
            ::close(fds[0]);
            // Earlier shards' read ends are inherited; they are
            // read ends only (the parent closed every write end it
            // held), so they cannot hold a sibling's pipe open.
            int code = 0;
            try {
                runShardChild(cfg, s, lo, hi, includeScans,
                              fds[1]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "ctg shard %u failed: %s\n",
                             s, e.what());
                code = 1;
            }
            // _exit, not exit: the child must not run the parent's
            // atexit hooks (span export, stdio teardown) a second
            // time.
            ::_exit(code);
        }
        ::close(fds[1]);
        Child child;
        child.pid = pid;
        child.fd = fds[0];
        child.lo = lo;
        child.hi = hi;
        children.push_back(child);
    }

    // Every child reserved the population's span streams from the
    // counter value it inherited at fork; advance the parent's
    // counter identically so later fleets in this process cannot
    // collide with the tracks the shards used.
    const std::uint32_t streamBase =
        spansOn ? spans::reserveStreams(cfg.servers) : 0;
    (void)streamBase;

    ShardRunResult result;
    if (includeScans)
        result.scans.reserve(cfg.servers);
    std::vector<snap::ManifestEntry> manifestEntries;

    // Drain and merge in shard (= server) order. The parent never
    // writes to a child, so reading each pipe to EOF cannot
    // deadlock; later children block in write() until their turn.
    for (unsigned s = 0; s < shards; ++s) {
        Child &child = children[s];
        std::vector<std::uint8_t> blob;
        std::string readError;
        try {
            blob = readAll(child.fd);
        } catch (const FatalError &e) {
            readError = e.what();
        }
        ::close(child.fd);
        int status = 0;
        while (::waitpid(child.pid, &status, 0) < 0) {
            if (errno != EINTR)
                throw FatalError(
                    std::string("shard waitpid failed: ") +
                    std::strerror(errno));
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw FatalError(
                "shard " + std::to_string(s) +
                " (servers [" + std::to_string(child.lo) + ", " +
                std::to_string(child.hi) + ")) died with status " +
                std::to_string(status));
        if (!readError.empty())
            throw FatalError(readError);

        ShardPayload payload;
        try {
            payload = decodeShard(blob, s, child.lo, child.hi);
        } catch (const serde::Error &e) {
            throw FatalError("shard " + std::to_string(s) +
                             " result stream invalid: " + e.what());
        }
        if (includeScans) {
            if (payload.scans.size() != child.hi - child.lo)
                throw FatalError("shard " + std::to_string(s) +
                                 " returned wrong scan count");
            result.scans.insert(result.scans.end(),
                                payload.scans.begin(),
                                payload.scans.end());
        }
        if (cfg.streamScans)
            result.sinks.merge(payload.sinks);
        for (std::vector<spans::Event> &events : payload.spans) {
            if (!events.empty())
                spans::publish(std::move(events));
        }
        manifestEntries.insert(
            manifestEntries.end(),
            std::make_move_iterator(payload.manifestEntries.begin()),
            std::make_move_iterator(payload.manifestEntries.end()));
        result.shards.push_back(payload.stats);
    }

    // One manifest for the whole population, written by the parent
    // in server order — the snap.manifest_skew probes land on the
    // parent's ambient injector exactly as in a single-process run.
    if (!cfg.checkpointDir.empty()) {
        snap::Manifest manifest;
        manifest.fleetFingerprint = fleetConfigFingerprint(cfg);
        manifest.entries = std::move(manifestEntries);
        snap::writeManifest(cfg.checkpointDir, manifest);
    }

    result.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wallStart)
                        .count();
    return result;
}

} // namespace ctg
