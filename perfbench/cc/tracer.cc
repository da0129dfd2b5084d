#include "tracer.hh"

#include <chrono>
#include <cstdio>

namespace perfbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

const char *
hotName(Hot hot)
{
    static const char *const names[numHot] = {
        "policy.alloc",   "policy.free",    "policy.tick",
        "policy.pin",     "hw.core_access", "hw.iommu_dma",
        "hw.mem_access",  "hw.drain",       "hw.migrate",
    };
    return names[static_cast<std::size_t>(hot)];
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::int64_t
Tracer::stamp()
{
    if (lastNs_ < 0)
        epochNs_ = nowNs();
    std::int64_t t = nowNs() - epochNs_;
    if (t <= lastNs_)
        t = lastNs_ + 1;
    lastNs_ = t;
    return t;
}

void
Tracer::beginSpan(const char *name, const char *argKey,
                  std::int64_t argValue)
{
    folded_.emplace_back();
    const auto id = static_cast<std::uint32_t>(folded_.size());
    const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
    events_.push_back(
        {name, argKey, argValue, stamp(), id, parent, true});
    open_.push_back({id, name});
}

void
Tracer::endSpan()
{
    const OpenSpan span = open_.back();
    open_.pop_back();
    events_.push_back(
        {span.name, nullptr, 0, stamp(), span.id, 0, false});
}

void
Tracer::hotBegin()
{
    hotStack_.push_back({nowNs(), 0});
}

void
Tracer::hotEnd(Hot hot)
{
    const HotFrame frame = hotStack_.back();
    hotStack_.pop_back();
    const std::int64_t elapsed = nowNs() - frame.startNs;
    const auto self =
        static_cast<std::uint64_t>(elapsed - frame.childNs);
    if (!hotStack_.empty())
        hotStack_.back().childNs += elapsed;
    const auto k = static_cast<std::size_t>(hot);
    totals_.ns[k] += self;
    ++totals_.calls[k];
    if (!open_.empty()) {
        HotTotals &span = folded_[open_.back().id - 1];
        span.ns[k] += self;
        ++span.calls[k];
    }
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (const Event &e : events_) {
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,"
                     "\"pid\":1,\"tid\":1,\"args\":{",
                     first ? "" : ",\n", e.name, e.begin ? "B" : "E",
                     static_cast<double>(e.tsNs) / 1000.0);
        first = false;
        if (e.begin) {
            std::fprintf(out, "\"span_id\":%u,\"parent_span\":%u",
                         e.id, e.parent);
            if (e.argKey != nullptr)
                std::fprintf(out, ",\"%s\":%lld", e.argKey,
                             static_cast<long long>(e.argValue));
        } else {
            // Folded hot calls of this span: "<stem>.ns"/".calls".
            const HotTotals &f = folded_[e.id - 1];
            bool firstArg = true;
            for (std::size_t k = 0; k < numHot; ++k) {
                if (f.calls[k] == 0)
                    continue;
                const char *stem = hotName(static_cast<Hot>(k));
                std::fprintf(out,
                             "%s\"%s.ns\":%llu,\"%s.calls\":%llu",
                             firstArg ? "" : ",", stem,
                             static_cast<unsigned long long>(f.ns[k]),
                             stem,
                             static_cast<unsigned long long>(
                                 f.calls[k]));
                firstArg = false;
            }
        }
        std::fprintf(out, "}}");
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

} // namespace perfbench
