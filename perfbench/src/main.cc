/**
 * @file
 * perfbench: runs one named workload in this process and prints one JSON
 * result line on stdout.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--inject codec-bitflip|lp-bytes]
 *
 * --trace 0 times the workload: set-up, one checked warm-up pass, then
 * checked passes for S seconds; run_s is the low decile (10th
 * percentile) of the pass times. --trace 1 runs the layer probes
 * instead. Both print the warm-up pass's digest of simulated outputs on
 * stderr, so runs can be compared for identity.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "layers.h"
#include "sim/thread_pool.h"
#include "workloads.h"

namespace {

/** Timed passes per run, whatever --seconds allows. */
constexpr int kMinPasses = 5;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    pb::Inject inject = pb::Inject::None;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--inject codec-bitflip|lp-bytes]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const std::string value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0)
            o.workload = value;
        else if (std::strcmp(flag, "--seed") == 0)
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (std::strcmp(flag, "--seconds") == 0)
            o.seconds = std::strtod(value.c_str(), nullptr);
        else if (std::strcmp(flag, "--trace") == 0)
            o.trace = value == "1";
        else if (std::strcmp(flag, "--inject") == 0 && value == "codec-bitflip")
            o.inject = pb::Inject::CodecBitFlip;
        else if (std::strcmp(flag, "--inject") == 0 && value == "lp-bytes")
            o.inject = pb::Inject::LpBytes;
        else
            usage("unknown flag or value");
    }
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    const auto &names = pb::workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("unknown workload");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const pb::Clock::time_point start = pb::Clock::now();
    const Options opts = parse(argc, argv);
    // Fixed width: nothing here reads INC_THREADS. The LP workloads run
    // their scheduler on a private pool of LpCollective::kWidth.
    inc::setGlobalThreadCount(1);

    pb::Tally tally;
    std::vector<pb::Metric> metrics;
    if (opts.trace)
        metrics = pb::runLayerProbes(opts.seed, tally);

    const std::unique_ptr<pb::Workload> w =
        pb::makeWorkload(opts.workload, opts.seed, opts.inject);
    const double setup_s = pb::secondsSince(start);
    tally.record(w->warmup());
    std::fprintf(stderr, "perfbench: %s seed %llu digest %016llx\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed),
                 static_cast<unsigned long long>(w->digest()));

    if (!opts.trace) {
        const double run_s = pb::passSeconds(
            opts.seconds, kMinPasses, [&] { return w->pass(); }, tally);
        metrics = {{"run_s", run_s, "s"},
                   {"setup_s", setup_s, "s"},
                   {"peak_rss_mb", pb::peakRssMb(), "MiB"}};
    }
    bool measured = true;
    for (const pb::Metric &m : metrics)
        measured &= pb::check(std::isfinite(m.value) && m.value > 0.0,
                              m.name.c_str());
    if (!measured)
        tally.record(false);
    std::printf("%s\n", pb::renderResult(tally, metrics).c_str());
    return 0;
}
