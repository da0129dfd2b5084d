/**
 * @file
 * Shared plumbing of the benchmark program: the generated-config
 * reader, host clocks and resource usage, an output digest, and the
 * JSON-line writer the Python runner parses.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench
{

/** `key = value` lines written by run.py; '#' starts a comment. */
class BenchConfig
{
  public:
    static BenchConfig
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read config " + path);
        BenchConfig config;
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t hash = line.find('#');
            if (hash != std::string::npos)
                line.resize(hash);
            const std::size_t eq = line.find('=');
            if (eq == std::string::npos)
                continue;
            config.values_[trim(line.substr(0, eq))] =
                trim(line.substr(eq + 1));
        }
        return config;
    }

    const std::string &
    str(const std::string &key) const
    {
        const auto it = values_.find(key);
        if (it == values_.end())
            throw std::runtime_error("config lacks '" + key + "'");
        return it->second;
    }
    double num(const std::string &key) const { return std::stod(str(key)); }
    std::uint64_t
    u64(const std::string &key) const
    {
        return std::stoull(str(key), nullptr, 0);
    }

  private:
    static std::string
    trim(const std::string &s)
    {
        const std::size_t b = s.find_first_not_of(" \t\r");
        const std::size_t e = s.find_last_not_of(" \t\r");
        return b == std::string::npos ? "" : s.substr(b, e - b + 1);
    }

    std::map<std::string, std::string> values_;
};

/** CLOCK_MONOTONIC seconds (comparable with Python's monotonic). */
inline double
monoSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process and its reaped children
 * (shard workers). */
inline double
cpuSec()
{
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        struct rusage ru = {};
        getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec +
                                     ru.ru_stime.tv_usec) * 1e-6;
    }
    return total;
}

/** Peak RSS in MiB: the larger of this process's and its largest
 * reaped child's high-water mark. */
inline double
peakRssMb()
{
    long kb = 0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        struct rusage ru = {};
        getrusage(who, &ru);
        kb = std::max(kb, ru.ru_maxrss);
    }
    return static_cast<double>(kb) / 1024.0;
}

/** FNV-1a over the bit patterns of the simulated outputs. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One flat JSON object, printed as a single stdout line. Keys are
 * metric-style names and need no escaping. */
class JsonLine
{
  public:
    JsonLine &
    num(const std::string &key, double v)
    {
        if (!std::isfinite(v))
            return raw(key, "null");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }
    JsonLine &
    str(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (const char c : v)
            quoted += (c == '"' || c == '\\') ? '\''
                      : (static_cast<unsigned char>(c) < 0x20) ? ' '
                                                               : c;
        return raw(key, quoted + "\"");
    }
    void
    print() const
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    JsonLine &
    raw(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + key + "\":" + value;
        return *this;
    }

    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
