/**
 * @file
 * Timing, checking and reporting shared by every perfbench workload and
 * layer probe. Host wall-clock here is the benchmark's measurement,
 * never simulation state.
 */

#ifndef INCEPTIONN_PERFBENCH_HARNESS_H
#define INCEPTIONN_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Host seconds one call of @p fn takes. */
double timeOnce(const std::function<void()> &fn);

/** Median of @p v (mean of the middle pair for an even count). */
double median(std::vector<double> v);

/**
 * 10th percentile of @p v (nearest rank). On a shared host, load from
 * elsewhere only ever adds time to a pass, so a low quantile estimates
 * the work's own cost; unlike the minimum, one lucky pass cannot set it.
 */
double lowDecile(std::vector<double> v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Current resident set of this process, KiB. */
double currentRssKb();

/** A deliberately broken input, to show that a check fires. */
enum class Inject {
    None,
    CodecBitFlip, ///< flip one payload bit of the captured-gradient wire
    LpBytes,      ///< expect one block too many from the closed form
};

/** Operations attempted and failed; a failed check fails its operation. */
class Tally
{
  public:
    /** Record one operation whose checks returned @p ok. */
    void record(bool ok);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Print "check failed: <what>" to stderr when @p ok is false; returns
 * @p ok so checks chain with &&.
 */
bool check(bool ok, const char *what);

/**
 * Run @p pass repeatedly for at least @p seconds of measured time and at
 * least @p minPasses times, recording each pass (its return value is its
 * check) in @p tally, and print every pass time on stderr. Returns the
 * low decile of the host seconds of one pass.
 */
double passSeconds(double seconds, int minPasses,
                   const std::function<bool()> &pass, Tally &tally);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string renderResult(const Tally &tally,
                         const std::vector<Metric> &metrics);

/** FNV-1a over raw bytes, for digests of simulated outputs. */
class Digest
{
  public:
    void add(const void *data, size_t bytes);

    template <typename T>
    void
    add(const T &value)
    {
        add(&value, sizeof(T));
    }

    template <typename T>
    void
    addAll(std::span<const T> values)
    {
        add(values.data(), values.size_bytes());
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // namespace pb

#endif // INCEPTIONN_PERFBENCH_HARNESS_H
