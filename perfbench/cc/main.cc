/**
 * @file
 * Benchmark program. It receives one generated workload config
 * (run.py writes it from the workload name and seed) and prints JSON
 * lines on stdout:
 *
 *   every mode      sets up, then prints {"kind":"ready","ready_s":...}
 *                    (CLOCK_MONOTONIC seconds);
 *   --mode setup     exits there;
 *   --mode measure   runs closed batches until at least
 *                    --min-batches ran and --seconds elapsed; one
 *                    {"kind":"batch",...} line per batch, then
 *                    {"kind":"end"};
 *   --mode trace     --min-batches untraced batches (the last is
 *                    the reference), then the traced replay of the
 *                    same batch; writes the spans to --trace-out and
 *                    prints {"kind":"trace",...}.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench_workload.hh"
#include "tracer.hh"

extern char **environ;

using namespace perfbench;

namespace
{

void
printBatch(const BatchResult &r, std::uint64_t ops,
           const std::string &error)
{
    JsonLine line;
    line.str("kind", "batch")
        .num("population", double(r.population))
        .num("ops", double(ops))
        .num("wall_s", r.wallSec)
        .num("cpu_s", r.cpuSec)
        .str("digest", r.digest)
        .num("shape_ok", r.shapeOk ? 1 : 0)
        .str("error", error);
    for (const auto &[key, value] : r.values)
        line.num(key, value);
    line.print();
}

/** Run one batch; a throw is reported as a failed batch. */
bool
batch(BenchWorkload &workload, BatchResult *out)
{
    try {
        *out = workload.runBatch();
        printBatch(*out, workload.batchOps(), "");
        return true;
    } catch (const std::exception &e) {
        printBatch(BatchResult{}, workload.batchOps(), e.what());
        return false;
    }
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --config FILE --mode "
                 "setup|measure|trace [--seconds S] [--min-batches N] "
                 "[--trace-out FILE]\n");
    return 2;
}

/** Everything after the command line; throws on bad input. */
int
run(const std::string &configPath, const std::string &mode,
    double seconds, unsigned minBatches, const std::string &traceOut)
{
    if (mode != "setup" && mode != "measure" &&
        (mode != "trace" || traceOut.empty()))
        return usage();
    const BenchConfig config = BenchConfig::load(configPath);
    const std::string &name = config.str("workload");
    std::unique_ptr<BenchWorkload> workload;
    if (name == "fleet-mixed" || name == "fleet-steady")
        workload = makeFleetWorkload(config);
    else if (name == "hw-interference")
        workload = makeHwWorkload(config);
    else
        throw std::runtime_error("unknown workload " + name);

    JsonLine().str("kind", "ready").num("ready_s", monoSec()).print();
    if (mode == "setup")
        return 0;

    const double start = monoSec();
    BatchResult untraced;
    bool ok = true;
    for (unsigned n = 0;
         ok && (n < minBatches || monoSec() - start < seconds); ++n)
        ok = batch(*workload, &untraced);
    if (mode == "measure") {
        JsonLine().str("kind", "end").print();
        return 0;
    }
    if (!ok)
        return 0;

    const TraceResult t = workload->runTraced(untraced);
    const bool written = Tracer::instance().writeChromeJson(traceOut);
    JsonLine line;
    line.str("kind", "trace")
        .num("mismatches", double(t.mismatches))
        .num("trace_written", written ? 1 : 0)
        .num("trace.traced_wall_ms", t.wallSec * 1e3)
        .num("trace.untraced_wall_ms", untraced.wallSec * 1e3)
        .num("trace.untraced_cpu_ms", untraced.cpuSec * 1e3)
        .num("host.peak_rss_mb", peakRssMb());
    for (const auto &[key, value] : t.values)
        line.num(key, value);
    line.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string configPath;
    std::string mode;
    std::string traceOut;
    double seconds = 0.0;
    unsigned minBatches = 1;
    if (argc % 2 == 0)
        return usage();
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string flag = argv[i];
            const std::string value = argv[i + 1];
            if (flag == "--config")
                configPath = value;
            else if (flag == "--mode")
                mode = value;
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--min-batches")
                minBatches = static_cast<unsigned>(std::stoul(value));
            else if (flag == "--trace-out")
                traceOut = value;
            else
                return usage();
        }
    } catch (const std::exception &) {
        return usage();
    }
    if (configPath.empty() || mode.empty())
        return usage();

    // The population is fixed by the config alone: any CTG_* knob
    // would silently change what is measured.
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "CTG_", 4) == 0) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         *env);
            return 2;
        }
    }

    try {
        return run(configPath, mode, seconds, minBatches, traceOut);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
