/**
 * @file
 * One benchmark workload: constructing it is the set-up; runBatch()
 * is the timed operation, one closed batch of a fixed size; and
 * runTraced() replays the same batch outside-in under the tracer.
 */

#ifndef PERFBENCH_BENCH_WORKLOAD_HH
#define PERFBENCH_BENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace ctg
{
class StatRegistry;
} // namespace ctg

namespace perfbench
{

using Values = std::vector<std::pair<std::string, double>>;

struct BatchResult
{
    /** Host wall and CPU seconds of the timed operation alone. */
    double wallSec = 0.0;
    double cpuSec = 0.0;
    /** Which of the run's fixed inputs the batch ran; batches of one
     * population repeat the same work. */
    std::size_t population = 0;
    /** Digest of every simulated output of the batch. */
    std::string digest;
    /** False when the paper-shape check failed. */
    bool shapeOk = true;
    /** Output summary and untraced per-layer readings. */
    Values values;
};

struct TraceResult
{
    /** Outputs that differed from the untraced batch's. */
    std::uint64_t mismatches = 0;
    /** Host wall seconds of the traced replay. */
    double wallSec = 0.0;
    /** Counters and folded hot-call totals (span times are derived
     * from the trace file by run.py). */
    Values values;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;
    /** Operations one batch attempts: servers (fleet) or requests
     * (hw). */
    virtual std::uint64_t batchOps() const = 0;
    virtual BatchResult runBatch() = 0;
    /** Trace the same batch; `untraced` is a runBatch() result. */
    virtual TraceResult runTraced(const BatchResult &untraced) = 0;
};

std::unique_ptr<BenchWorkload> makeFleetWorkload(const BenchConfig &config);
std::unique_ptr<BenchWorkload> makeHwWorkload(const BenchConfig &config);

/** Hot-call totals from the tracer (`<stem>.ms`, `<stem>.calls`)
 * plus `policy.alloc.fail_ratio`, as per-layer metrics. */
Values tracerValues();

/** Add the per-layer kernel, allocator and region counters found in
 * a server or kernel stat tree to `sums`, by metric name. */
void sumLayerCounters(const ctg::StatRegistry &registry,
                      std::map<std::string, double> &sums);

} // namespace perfbench

#endif // PERFBENCH_BENCH_WORKLOAD_HH
