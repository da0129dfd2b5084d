/**
 * @file
 * Outside-in layer tracer for the benchmark's traced run.
 *
 * The benchmark records one span around each call it makes into a
 * layer (server boot, fragmenter, workload step, scan, hw request,
 * ...). Hot calls — policy hooks and per-access hw calls — are far
 * too many for one span each, so they are folded into count and
 * nanosecond accumulators on the innermost open span and on
 * process-wide totals. Spans stay in memory until the run writes
 * them out as Chrome trace_event JSON (tools/check_spans.py format:
 * balanced B/E, span_id/parent_span links, strictly increasing
 * timestamps on the one track).
 *
 * The tracer is off unless enabled; every scope below is then one
 * predictable branch.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Calls folded into accumulators instead of getting their own span. */
enum class Hot : unsigned
{
    PolicyAlloc,
    PolicyFree,
    PolicyTick,
    PolicyPin,
    HwCoreAccess,
    HwIommuDma,
    HwMemAccess,
    HwDrain,
    HwMigrate,
    Count
};

inline constexpr std::size_t numHot = static_cast<std::size_t>(Hot::Count);

/** Metric stem of a hot call ("policy.alloc", "hw.core_access", ...). */
const char *hotName(Hot hot);

/** Nanoseconds and calls per hot call kind. */
struct HotTotals
{
    std::array<std::uint64_t, numHot> ns{};
    std::array<std::uint64_t, numHot> calls{};
};

class Tracer
{
  public:
    /** The process-wide tracer (the traced run is single-threaded). */
    static Tracer &instance();

    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }

    /** Open a span nested in the innermost open one. */
    void beginSpan(const char *name, const char *argKey = nullptr,
                   std::int64_t argValue = 0);
    void endSpan();

    /**
     * Bracket one hot call. Hot calls may nest (a policy tick that
     * migrates pages re-enters alloc); each kind is charged its self
     * time, so the accumulators never count a nanosecond twice.
     */
    void hotBegin();
    void hotEnd(Hot hot);

    /** One policy alloc returned invalidPfn. */
    void countAllocFail() { ++allocFails_; }

    const HotTotals &totals() const { return totals_; }
    std::uint64_t allocFails() const { return allocFails_; }

    /** Write every recorded span as Chrome trace_event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Event
    {
        const char *name;
        const char *argKey;
        std::int64_t argValue;
        std::int64_t tsNs;
        std::uint32_t id;
        std::uint32_t parent;
        bool begin;
    };
    struct HotFrame
    {
        std::int64_t startNs;
        std::int64_t childNs;
    };

    /** Monotonic ns since the tracer's epoch, strictly increasing
     * across events so the one track never repeats a timestamp. */
    std::int64_t stamp();

    bool enabled_ = false;
    std::int64_t epochNs_ = 0;
    std::int64_t lastNs_ = -1;
    std::vector<Event> events_;
    /** Per-span folded hot totals, indexed by span id - 1. */
    std::vector<HotTotals> folded_;
    struct OpenSpan
    {
        std::uint32_t id;
        const char *name;
    };
    std::vector<OpenSpan> open_;
    std::vector<HotFrame> hotStack_;
    HotTotals totals_;
    std::uint64_t allocFails_ = 0;
};

/** RAII span; no-op while the tracer is off. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, const char *argKey = nullptr,
                       std::int64_t argValue = 0)
        : on_(Tracer::instance().enabled())
    {
        if (on_)
            Tracer::instance().beginSpan(name, argKey, argValue);
    }
    ~SpanScope()
    {
        if (on_)
            Tracer::instance().endSpan();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    bool on_;
};

/** RAII hot-call bracket; no-op while the tracer is off. */
class HotScope
{
  public:
    explicit HotScope(Hot hot)
        : hot_(hot), on_(Tracer::instance().enabled())
    {
        if (on_)
            Tracer::instance().hotBegin();
    }
    ~HotScope()
    {
        if (on_)
            Tracer::instance().hotEnd(hot_);
    }
    HotScope(const HotScope &) = delete;
    HotScope &operator=(const HotScope &) = delete;

  private:
    Hot hot_;
    bool on_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
