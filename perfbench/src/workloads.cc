#include "workloads.h"

#include <cmath>
#include <cstring>

#include "comm/codec_zoo.h"
#include "core/codec.h"
#include "net/lp_fabric.h"
#include "nn/model_zoo.h"
#include "sim/random.h"

namespace pb {

namespace {

// ---- train_hdc_b10 ------------------------------------------------------
// The Fig. 4 synthetic-digits task (heavy noise, wide jitter).
constexpr size_t kTrainSamples = 4000;
constexpr size_t kTestSamples = 1000;
constexpr float kDigitNoise = 0.35f;
constexpr int kDigitShift = 3;
constexpr size_t kBatchPerNode = 16;
constexpr int kTrainNodes = 4;
// Warm-up steps: the loss of one step's batches is noisy, and only after
// about ten steps from a fresh model is it reliably below ln 10.
constexpr uint64_t kWarmupSteps = 16;

// ---- LP workloads ---------------------------------------------------------
// k = 10 gives 250 hosts: rounds big enough (ring) for the scheduler's
// per-event and fabric-hop cost to dominate, passes short enough
// (~0.1-0.3 s) for a median over many passes per run.
constexpr int kFatTreeK = 10;
constexpr double kLinkBitsPerSecond = 10e9;
constexpr inc::Tick kLinkLatency = 2 * inc::kMicrosecond;
// Ring: ~200 KB blocks (one segment each); star: 38 segments a message.
constexpr uint64_t kRingBytes = 50ull * 1000 * 1000;
constexpr uint64_t kStarBytes = 20ull * 1000 * 1000;

// ---- sim_lossy_alexnet --------------------------------------------------
constexpr int kSimWorkers = 4;
constexpr uint64_t kSimIterations = 1;
constexpr double kLossRate = 0.01;

/** Seed-dependent gradient size: never crosses a segment boundary. */
uint64_t
lpBytes(uint64_t base, uint64_t seed)
{
    return base + 8 * (inc::mix64(seed) % 1009);
}

/** Ticks to serialize @p bytes at kLinkBitsPerSecond (floor). */
inc::Tick
wireTicks(uint64_t bytes)
{
    const unsigned __int128 bits = static_cast<unsigned __int128>(bytes) * 8;
    return static_cast<inc::Tick>(
        bits * inc::kSecond /
        static_cast<unsigned __int128>(kLinkBitsPerSecond));
}

void
digestLp(Digest &d, const inc::LpAllreduceResult &r, uint64_t delivered)
{
    d.addAll(std::span<const inc::Tick>(r.hostDone));
    d.add(r.finish);
    d.add(r.events);
    d.add(r.rounds);
    d.add(delivered);
}

void
digestSim(Digest &d, const inc::SimTrainerResult &r)
{
    d.add(r.totalSeconds);
    d.add(r.gradientExchangeSeconds);
    d.add(r.retransmits);
    d.add(r.packetsDropped);
}

} // namespace

inc::Topology
lpTopology()
{
    return inc::fatTreeTopology(kFatTreeK, kLinkBitsPerSecond, kLinkLatency);
}

inc::LpCollectiveConfig
lpConfig(inc::LpAlgorithm algorithm, uint64_t seed)
{
    inc::LpCollectiveConfig cfg;
    cfg.algorithm = algorithm;
    cfg.gradientBytes =
        lpBytes(algorithm == inc::LpAlgorithm::Ring ? kRingBytes : kStarBytes,
                seed);
    return cfg;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "train_hdc_b10", "lp_fattree_ring", "lp_fattree_star",
        "sim_lossy_alexnet"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Inject inject)
{
    if (name == "train_hdc_b10") {
        // The codec outlives the trainer that points at it.
        static const inc::InceptionnZooCodec b10(10);
        return std::make_unique<TrainHdc>(seed, &b10, inject);
    }
    if (name == "lp_fattree_ring")
        return std::make_unique<LpCollective>(inc::LpAlgorithm::Ring, seed,
                                              inject);
    if (name == "lp_fattree_star")
        return std::make_unique<LpCollective>(inc::LpAlgorithm::Star, seed,
                                              inject);
    if (name == "sim_lossy_alexnet")
        return std::make_unique<SimLossy>(seed);
    return nullptr;
}

// ---- TrainHdc ---------------------------------------------------------------

TrainHdc::TrainHdc(uint64_t seed, const inc::GradientCodec *codec,
                   Inject inject)
    : codec_(codec), inject_(inject), seed_(seed),
      train_(kTrainSamples, 2 * seed + 1, true, kDigitNoise, kDigitShift),
      test_(kTestSamples, 2 * seed + 2, true, kDigitNoise, kDigitShift)
{
}

std::unique_ptr<inc::FuncTrainer>
TrainHdc::makeTrainer() const
{
    inc::FuncTrainerConfig cfg;
    cfg.nodes = kTrainNodes;
    cfg.batchPerNode = kBatchPerNode;
    cfg.exchange = inc::FuncExchange::Ring;
    cfg.compressionPoint = inc::CompressionPoint::AtSource;
    cfg.zooCodec = codec_;
    cfg.sgd.learningRate = 0.05;
    cfg.sgd.lrDecayEvery = 0;
    cfg.sgd.clipGradNorm = 5.0;
    cfg.seed = seed_;
    return std::make_unique<inc::FuncTrainer>(&inc::buildHdc, train_, test_,
                                              cfg);
}

const std::vector<float> &
TrainHdc::capturedGradient() const
{
    return trainer_->gradientTrace().entries().front().gradient;
}

bool
TrainHdc::checkPass()
{
    return check(std::isfinite(trainer_->lastMeanLoss()),
                 "training loss is finite") &&
           check(trainer_->replicaDivergence() == 0.0,
                 "ring all-reduce leaves every replica identical");
}

bool
TrainHdc::checkCodec(const std::vector<float> &g) const
{
    std::vector<uint8_t> wire = codec_->encode(g);
    if (inject_ == Inject::CodecBitFlip)
        wire[wire.size() / 2] ^= 0x10;
    std::vector<float> out(g.size());
    if (!check(codec_->decode(wire, out), "codec decodes its own wire"))
        return false;
    // The scalar kernel is the reference the wire round-trip must match.
    std::vector<float> kernel = g;
    inc::InceptionnCodec(10).roundtrip(kernel);
    const double bound = std::ldexp(1.0, -10);
    bool within = true, exact = true;
    for (size_t i = 0; i < g.size(); ++i) {
        within &= std::abs(static_cast<double>(g[i]) - out[i]) <= bound;
        if (std::abs(g[i]) >= 1.0f)
            exact &= std::memcmp(&g[i], &out[i], sizeof(float)) == 0;
    }
    return check(within, "|g - decode(encode(g))| <= 2^-10") &&
           check(exact, "values with |g| >= 1 come back exact") &&
           check(std::memcmp(kernel.data(), out.data(),
                             out.size() * sizeof(float)) == 0,
                 "wire round-trip matches the scalar kernel");
}

bool
TrainHdc::warmup()
{
    trainer_ = makeTrainer();
    trainer_->captureGradientsAt({0});
    trainer_->train(kWarmupSteps);
    const double loss = trainer_->lastMeanLoss();
    Digest d;
    d.add(loss);
    digest_ = d.value();
    const bool codec_ok =
        codec_ == nullptr || checkCodec(capturedGradient());
    // Loss, not accuracy: topKAccuracy counts NaN rows as hits.
    return check(std::isfinite(loss) && loss < std::log(10.0),
                 "final training loss is finite and below ln 10") &&
           checkPass() && codec_ok;
}

bool
TrainHdc::pass()
{
    trainer_.reset(); // one set of replicas alive at a time
    trainer_ = makeTrainer();
    trainer_->train(kTrainStepsPerPass);
    return checkPass();
}

// ---- LpCollective -------------------------------------------------------------

LpCollective::LpCollective(inc::LpAlgorithm algorithm, uint64_t seed,
                           Inject inject)
    : inject_(inject), topo_(lpTopology()),
      config_(lpConfig(algorithm, seed))
{
    const bool ring = algorithm == inc::LpAlgorithm::Ring;
    const uint64_t n = static_cast<uint64_t>(topo_.hosts);
    const uint64_t b = config_.gradientBytes;
    const uint64_t chunk = (b + n - 1) / n;
    if (ring) {
        // 2(N-1) steps, each moving one ceil(B/N) block per host.
        expectedBytes_ = 2 * (n - 1) * n * chunk;
        finishLowerBound_ =
            2 * (n - 1) * (config_.perMessageOverhead + wireTicks(chunk));
    } else {
        // N-1 gradients in and N-1 weight copies out of the aggregator,
        // every gradient through the aggregator's one link.
        expectedBytes_ = 2 * (n - 1) * b;
        finishLowerBound_ = (n - 1) * wireTicks(b);
    }
    if (inject_ == Inject::LpBytes)
        expectedBytes_ += ring ? chunk : b;
}

inc::LpAllreduceResult
LpCollective::run(int width, uint64_t *delivered) const
{
    inc::LpFabric fabric(topo_, inc::LpFabricConfig{}, width);
    inc::LpAllreduceResult r = inc::runLpAllreduce(fabric, config_);
    *delivered = fabric.deliveredBytes();
    return r;
}

bool
LpCollective::checkRun(const inc::LpAllreduceResult &r,
                       uint64_t delivered) const
{
    return check(delivered == expectedBytes_,
                 "delivered bytes match the collective's closed form") &&
           check(r.finish >= finishLowerBound_,
                 "finish is no earlier than the schedule's lower bound") &&
           check(r.hostDone == reference_.hostDone &&
                     r.finish == reference_.finish,
                 "hostDone and finish identical at widths 1 and 2");
}

bool
LpCollective::warmup()
{
    uint64_t delivered = 0;
    reference_ = run(1, &delivered);
    const inc::LpAllreduceResult r = run(kWidth, &delivered);
    Digest d;
    digestLp(d, r, delivered);
    digest_ = d.value();
    return checkRun(r, delivered);
}

bool
LpCollective::pass()
{
    uint64_t delivered = 0;
    const inc::LpAllreduceResult r = run(kWidth, &delivered);
    return checkRun(r, delivered);
}

// ---- SimLossy -------------------------------------------------------------------

SimLossy::SimLossy(uint64_t seed) : seed_(seed) {}

inc::SimTrainerResult
SimLossy::run(inc::ExchangeAlgorithm algorithm, bool lossy) const
{
    inc::SimTrainerConfig cfg;
    cfg.workload = inc::alexNetWorkload();
    cfg.workers = kSimWorkers;
    cfg.algorithm = algorithm;
    cfg.iterations = kSimIterations;
    if (lossy) {
        cfg.faultInjection.enabled = true;
        cfg.faultInjection.faults.seed = inc::mix64(seed_);
        cfg.faultInjection.faults.defaultLink.loss =
            inc::LossKind::Bernoulli;
        cfg.faultInjection.faults.defaultLink.lossRate = kLossRate;
    }
    return inc::runSimTraining(cfg);
}

bool
SimLossy::checkPair(const inc::SimTrainerResult &wa,
                    const inc::SimTrainerResult &ring) const
{
    return check(wa.totalSeconds >= losslessWa_.totalSeconds,
                 "lossy WA is no faster than lossless WA") &&
           check(ring.totalSeconds >= losslessRing_.totalSeconds,
                 "lossy ring is no faster than lossless ring") &&
           check(ring.gradientExchangeSeconds < wa.gradientExchangeSeconds,
                 "ring exchanges faster than WA (Fig. 12 ordering)");
}

bool
SimLossy::warmup()
{
    losslessWa_ = run(inc::ExchangeAlgorithm::WorkerAggregator, false);
    losslessRing_ = run(inc::ExchangeAlgorithm::Ring, false);
    const inc::SimTrainerResult wa =
        run(inc::ExchangeAlgorithm::WorkerAggregator, true);
    const inc::SimTrainerResult ring = run(inc::ExchangeAlgorithm::Ring, true);
    Digest d;
    digestSim(d, wa);
    digestSim(d, ring);
    digest_ = d.value();
    return check(losslessRing_.gradientExchangeSeconds <
                     losslessWa_.gradientExchangeSeconds,
                 "lossless ring exchanges faster than lossless WA") &&
           checkPair(wa, ring);
}

bool
SimLossy::pass()
{
    return checkPair(run(inc::ExchangeAlgorithm::WorkerAggregator, true),
                     run(inc::ExchangeAlgorithm::Ring, true));
}

} // namespace pb
