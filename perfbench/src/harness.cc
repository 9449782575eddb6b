#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/resource.h>

namespace pb {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
timeOnce(const std::function<void()> &fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
lowDecile(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value at or above 10% of the sample.
    const size_t rank = (v.size() + 9) / 10;
    return v[rank - 1];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6));
    return 0.0;
}

void
Tally::record(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

bool
check(bool ok, const char *what)
{
    if (!ok)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    return ok;
}

double
passSeconds(double seconds, int minPasses,
            const std::function<bool()> &pass, Tally &tally)
{
    std::vector<double> times;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(times.size()) < minPasses ||
           secondsSince(start) < seconds) {
        bool ok = false;
        times.push_back(timeOnce([&] { ok = pass(); }));
        tally.record(ok);
    }
    std::fprintf(stderr, "perfbench: pass seconds");
    for (const double t : times)
        std::fprintf(stderr, " %.4f", t);
    std::fprintf(stderr, "\n");
    return lowDecile(times);
}

std::string
renderResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted()
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        // %.17g keeps every digit the measurement has.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

void
Digest::add(const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

} // namespace pb
