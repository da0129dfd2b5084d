#include "base/trace.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdlib>
#include <utility>

#include "base/env_config.hh"
#include "base/logging.hh"

namespace ctg
{
namespace trace
{

std::atomic<std::uint32_t> mask_{0};

namespace
{

struct FlagEntry
{
    TraceFlag flag;
    const char *name;
};

constexpr FlagEntry flagTable[] = {
    {TraceFlag::Buddy, "Buddy"},
    {TraceFlag::Compaction, "Compaction"},
    {TraceFlag::Migrate, "Migrate"},
    {TraceFlag::Shootdown, "Shootdown"},
    {TraceFlag::ChwEngine, "ChwEngine"},
    {TraceFlag::Region, "Region"},
    {TraceFlag::Fleet, "Fleet"},
    {TraceFlag::Kernel, "Kernel"},
    {TraceFlag::Tlb, "Tlb"},
    {TraceFlag::Faults, "Faults"},
};

std::FILE *sink_ = nullptr;      //!< non-owning; stderr when null
std::FILE *ownedSink_ = nullptr; //!< file opened by openFileSink
/**
 * Tick source of the simulation driving this thread. thread_local so
 * parallel fleet workers each observe the event queue of the server
 * they are running, never a sibling's (which would both race and
 * leak the work-stealing schedule into captured span timestamps).
 */
thread_local std::function<Tick()> tickSource_;

/** Buffer of the innermost active ThreadCapture on this thread. */
thread_local std::string *captureBuffer_ = nullptr;

std::FILE *
sink()
{
    return sink_ != nullptr ? sink_ : stderr;
}

/** One-time CTG_TRACE / CTG_TRACE_FILE pickup. */
struct EnvInit
{
    EnvInit()
    {
        const sim::EnvConfig env = sim::EnvConfig::fromEnv();
        if (!env.traceFile.empty())
            openFileSink(env.traceFile.c_str());
        if (!env.traceSpec.empty())
            setFromString(env.traceSpec.c_str());
    }
};

const EnvInit envInit_;

} // namespace

void
enable(TraceFlag flag)
{
    mask_.fetch_or(static_cast<std::uint32_t>(flag),
                   std::memory_order_relaxed);
}

void
disable(TraceFlag flag)
{
    mask_.fetch_and(~static_cast<std::uint32_t>(flag),
                    std::memory_order_relaxed);
}

void
enableAll()
{
    for (const FlagEntry &e : flagTable)
        enable(e.flag);
}

void
disableAll()
{
    mask_.store(0, std::memory_order_relaxed);
}

void
setFromString(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t end = spec.find_first_of(", ", pos);
        const std::string tok =
            spec.substr(pos, end == std::string::npos ? std::string::npos
                                                      : end - pos);
        pos = end == std::string::npos ? spec.size() : end + 1;
        if (tok.empty())
            continue;
        if (tok == "All") {
            enableAll();
            continue;
        }
        TraceFlag flag;
        if (flagFromName(tok, &flag))
            enable(flag);
        else
            warn("unknown trace flag '%s' ignored", tok.c_str());
    }
}

const char *
flagName(TraceFlag flag)
{
    for (const FlagEntry &e : flagTable) {
        if (e.flag == flag)
            return e.name;
    }
    return "?";
}

std::uint32_t
allFlagsMask()
{
    std::uint32_t mask = 0;
    for (const FlagEntry &e : flagTable)
        mask |= static_cast<std::uint32_t>(e.flag);
    return mask;
}

bool
flagFromName(const std::string &name, TraceFlag *out)
{
    for (const FlagEntry &e : flagTable) {
        if (name == e.name) {
            *out = e.flag;
            return true;
        }
    }
    return false;
}

void
setSink(std::FILE *new_sink)
{
    if (ownedSink_ != nullptr) {
        std::fclose(ownedSink_);
        ownedSink_ = nullptr;
    }
    sink_ = new_sink;
}

bool
openFileSink(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn_once("cannot open trace file '%s'; keeping current sink",
                  path.c_str());
        return false;
    }
    setSink(f);
    ownedSink_ = f;
    return true;
}

void
setTickSource(std::function<Tick()> source)
{
    tickSource_ = std::move(source);
}

void
clearTickSource()
{
    tickSource_ = nullptr;
}

Tick
currentTick()
{
    return tickSource_ ? tickSource_() : 0;
}

void
print(TraceFlag flag, const char *fmt, ...)
{
    char head[48];
    if (tickSource_) {
        std::snprintf(head, sizeof(head), "%12" PRIu64 ": %s: ",
                      tickSource_(), flagName(flag));
    } else {
        std::snprintf(head, sizeof(head), "%s: ", flagName(flag));
    }

    // A null format prints the bare record head, like an empty one.
    const char *const body = fmt != nullptr ? fmt : "";
    std::va_list args;
    va_start(args, fmt);
    if (captureBuffer_ != nullptr) {
        char stack[512];
        std::va_list copy;
        va_copy(copy, args);
        const int need =
            std::vsnprintf(stack, sizeof(stack), body, copy);
        va_end(copy);
        captureBuffer_->append(head);
        if (need >= 0 &&
            static_cast<std::size_t>(need) < sizeof(stack)) {
            captureBuffer_->append(stack);
        } else if (need >= 0) {
            std::string big(static_cast<std::size_t>(need) + 1,
                            '\0');
            std::vsnprintf(big.data(), big.size(), body, args);
            big.resize(static_cast<std::size_t>(need));
            captureBuffer_->append(big);
        }
        captureBuffer_->push_back('\n');
    } else {
        std::FILE *out = sink();
        std::fputs(head, out);
        std::vfprintf(out, body, args);
        std::fputc('\n', out);
    }
    va_end(args);
}

void
emitRaw(const std::string &text)
{
    if (text.empty())
        return;
    if (captureBuffer_ != nullptr) {
        captureBuffer_->append(text);
        return;
    }
    std::fwrite(text.data(), 1, text.size(), sink());
}

ThreadCapture::ThreadCapture()
    : prev_(captureBuffer_)
{
    captureBuffer_ = &buffer_;
}

ThreadCapture::~ThreadCapture()
{
    captureBuffer_ = prev_;
}

std::string
ThreadCapture::take()
{
    std::string out = std::move(buffer_);
    buffer_.clear();
    return out;
}

} // namespace trace
} // namespace ctg
