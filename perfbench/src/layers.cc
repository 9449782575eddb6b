#include "layers.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "comm/codec_zoo.h"
#include "core/compressed_stream.h"
#include "net/lp_fabric.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "sim/random.h"
#include "workloads.h"

namespace pb {

namespace {

// Repetitions per probe; each probe reports the median.
constexpr int kCodecReps = 7;
constexpr int kFwdBwdReps = 21;
constexpr int kTrainReps = 5;
constexpr int kLpReps = 5;
constexpr int kSimReps = 3;

double
megabytesPerSecond(size_t values, double seconds)
{
    return static_cast<double>(values) * sizeof(float) / 1e6 / seconds;
}

bool
sameFloats(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Resident KiB per host of one live ring fabric after its run. */
double
lpRssPerHostKb(uint64_t seed, Tally &tally)
{
    const inc::Topology topo = lpTopology();
    const inc::LpCollectiveConfig cfg =
        lpConfig(inc::LpAlgorithm::Ring, seed);
    const double before = currentRssKb();
    inc::LpFabric fabric(topo, inc::LpFabricConfig{}, LpCollective::kWidth);
    const inc::LpAllreduceResult r = inc::runLpAllreduce(fabric, cfg);
    const double after = currentRssKb();
    tally.record(check(r.finish > 0, "LP ring finishes"));
    return (after - before) / topo.hosts;
}

/** Codec, stream, kernel, model and training probes (train_hdc_b10). */
void
trainProbes(uint64_t seed, Tally &tally, std::vector<Metric> &out)
{
    const inc::InceptionnZooCodec b10(10);
    TrainHdc coded(seed, &b10);
    tally.record(coded.warmup());
    const std::vector<float> &g = coded.capturedGradient();
    const size_t n = g.size();

    std::vector<float> kernel = g;
    std::vector<double> t;
    for (int r = 0; r < kCodecReps; ++r) {
        kernel = g;
        t.push_back(timeOnce([&] { b10.scalar().roundtrip(kernel); }));
    }
    const double kernel_s = median(t);

    std::vector<uint8_t> wire;
    std::vector<float> decoded(n);
    std::vector<double> te, td;
    bool ok = true;
    for (int r = 0; r < kCodecReps; ++r) {
        te.push_back(timeOnce([&] { wire = b10.encode(g); }));
        td.push_back(timeOnce([&] { ok &= b10.decode(wire, decoded); }));
    }
    tally.record(check(ok && sameFloats(decoded, kernel),
                       "zoo codec round-trip matches the kernel"));
    out.push_back({"comm.codec_encode_MBps", megabytesPerSecond(n, median(te)),
                   "MB/s"});
    out.push_back({"comm.codec_decode_MBps", megabytesPerSecond(n, median(td)),
                   "MB/s"});

    inc::CompressedStream stream;
    te.clear();
    td.clear();
    for (int r = 0; r < kCodecReps; ++r) {
        te.push_back(timeOnce(
            [&] { stream = inc::encodeStream(b10.scalar(), g); }));
        td.push_back(timeOnce(
            [&] { inc::decodeStream(b10.scalar(), stream, decoded); }));
    }
    tally.record(check(sameFloats(decoded, kernel),
                       "stream round-trip matches the kernel"));
    out.push_back({"core.stream_encode_MBps",
                   megabytesPerSecond(n, median(te)), "MB/s"});
    out.push_back({"core.stream_decode_MBps",
                   megabytesPerSecond(n, median(td)), "MB/s"});
    out.push_back({"core.kernel_roundtrip_MBps",
                   megabytesPerSecond(n, kernel_s), "MB/s"});

    // One forward + backward of one replica on one batch.
    inc::Model model = inc::buildHdc();
    inc::Rng rng(seed);
    model.init(rng);
    inc::SyntheticDigits digits(256, seed, true, 0.35f, 3);
    inc::MinibatchSampler sampler(digits, 16, seed);
    const inc::Batch batch = sampler.next();
    inc::SoftmaxCrossEntropy loss;
    double loss_value = 0.0;
    t.clear();
    for (int r = 0; r < kFwdBwdReps; ++r)
        t.push_back(timeOnce([&] {
            model.zeroGrads();
            loss_value = loss.forward(model.forward(batch.x, true),
                                      batch.labels);
            model.backward(loss.backward());
        }));
    tally.record(check(std::isfinite(loss_value), "HDC loss is finite"));
    out.push_back({"nn.hdc_fwd_bwd_ms", 1e3 * median(t), "ms"});

    TrainHdc plain(seed, nullptr);
    bool plain_ok = plain.warmup();
    t.clear();
    for (int r = 0; r < kTrainReps; ++r)
        t.push_back(timeOnce([&] { plain_ok &= plain.pass(); }));
    tally.record(plain_ok);
    out.push_back({"distrib.train_nocodec_s", median(t), "s"});
}

/** Host seconds of @p reps runs of @p lp at @p width, each checked. */
double
lpPassSeconds(const LpCollective &lp, int width, Tally &tally)
{
    std::vector<double> t;
    bool ok = true;
    for (int r = 0; r < kLpReps; ++r) {
        uint64_t delivered = 0;
        inc::LpAllreduceResult res;
        t.push_back(timeOnce([&] { res = lp.run(width, &delivered); }));
        ok &= lp.checkRun(res, delivered);
    }
    tally.record(ok);
    return median(t);
}

/** Scheduler event / round rates and the width-2 speedup. */
void
lpProbes(uint64_t seed, Tally &tally, std::vector<Metric> &out)
{
    LpCollective ring(inc::LpAlgorithm::Ring, seed);
    LpCollective star(inc::LpAlgorithm::Star, seed);
    tally.record(ring.warmup());
    tally.record(star.warmup());
    const double ring1 = lpPassSeconds(ring, 1, tally);
    const double ring2 = lpPassSeconds(ring, LpCollective::kWidth, tally);
    const double star1 = lpPassSeconds(star, 1, tally);
    const double star2 = lpPassSeconds(star, LpCollective::kWidth, tally);
    const inc::LpAllreduceResult &rr = ring.reference();
    const inc::LpAllreduceResult &sr = star.reference();
    std::fprintf(stderr,
                 "perfbench: LP pass seconds, width 1 / %d: ring %.4f / "
                 "%.4f (%llu events, %llu rounds), star %.4f / %.4f "
                 "(%llu events, %llu rounds)\n",
                 LpCollective::kWidth, ring1, ring2,
                 static_cast<unsigned long long>(rr.events),
                 static_cast<unsigned long long>(rr.rounds), star1, star2,
                 static_cast<unsigned long long>(sr.events),
                 static_cast<unsigned long long>(sr.rounds));
    const double events = static_cast<double>(rr.events);
    const double rounds = static_cast<double>(sr.rounds);
    out.push_back({"sim.lp_events", events, "count"});
    out.push_back({"sim.lp_events_per_s", events / ring2, "1/s"});
    out.push_back({"sim.lp_rounds", rounds, "count"});
    out.push_back({"sim.lp_rounds_per_s", rounds / star2, "1/s"});
    out.push_back({"sim.lp_width2_speedup",
                   (ring1 + star1) / (ring2 + star2), "ratio"});
}

/** Packet-network training rates, the lossless share and retransmits. */
void
simProbes(uint64_t seed, Tally &tally, std::vector<Metric> &out)
{
    SimLossy sim(seed);
    tally.record(sim.warmup());
    const inc::ExchangeAlgorithm wa = inc::ExchangeAlgorithm::WorkerAggregator;
    const inc::ExchangeAlgorithm ring = inc::ExchangeAlgorithm::Ring;
    inc::SimTrainerResult lossy_wa, lossy_ring;
    std::vector<double> t_wa, t_ring, t_lossless;
    bool ok = true;
    for (int r = 0; r < kSimReps; ++r) {
        t_wa.push_back(timeOnce([&] { lossy_wa = sim.run(wa, true); }));
        t_ring.push_back(timeOnce([&] { lossy_ring = sim.run(ring, true); }));
        ok &= sim.checkPair(lossy_wa, lossy_ring);
        t_lossless.push_back(timeOnce([&] {
            (void)sim.run(wa, false);
            (void)sim.run(ring, false);
        }));
    }
    tally.record(ok);
    out.push_back({"distrib.sim_s_per_host_s_wa",
                   lossy_wa.totalSeconds / median(t_wa), "s/s"});
    out.push_back({"distrib.sim_s_per_host_s_ring",
                   lossy_ring.totalSeconds / median(t_ring), "s/s"});
    out.push_back({"distrib.sim_lossless_host_s", median(t_lossless), "s"});
    out.push_back({"net.retransmits",
                   static_cast<double>(lossy_wa.retransmits +
                                       lossy_ring.retransmits),
                   "count"});
}

} // namespace

std::vector<Metric>
runLayerProbes(uint64_t seed, Tally &tally)
{
    // First, while the heap is still small, so the resident-set delta
    // is the fabric's own.
    const double rss_per_host = lpRssPerHostKb(seed, tally);
    std::vector<Metric> out;
    trainProbes(seed, tally, out);
    lpProbes(seed, tally, out);
    out.push_back({"net.lp_rss_per_host_kb", rss_per_host, "KiB"});
    simProbes(seed, tally, out);
    return out;
}

} // namespace pb
