/**
 * @file
 * The four benchmark workloads. Each constructor is the workload's
 * set-up: it builds the inputs, models and topologies, and nothing else.
 * warmup() makes the reference outputs the checks compare against and
 * runs the first, untimed pass; pass() runs one timed pass of the
 * workload's fixed work and returns whether its outputs passed every
 * check.
 */

#ifndef INCEPTIONN_PERFBENCH_WORKLOADS_H
#define INCEPTIONN_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/gradient_codec.h"
#include "comm/lp_collectives.h"
#include "data/synthetic_digits.h"
#include "distrib/func_trainer.h"
#include "distrib/sim_trainer.h"
#include "harness.h"
#include "net/topology.h"

namespace pb {

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Reference outputs, then the first pass: untimed, checked; its
     * outputs make digest(). Call once, before pass().
     */
    virtual bool warmup() = 0;
    /** One timed pass; true when every check on its outputs held. */
    virtual bool pass() = 0;
    /** Hash of the warm-up pass's simulated outputs. */
    uint64_t digest() const { return digest_; }

  protected:
    uint64_t digest_ = 0;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build (set up) the named workload, one of workloadNames(). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, Inject inject);

/** The LP workloads' fat tree, built at set-up. */
inc::Topology lpTopology();

/** The LP workloads' collective for @p algorithm and @p seed. */
inc::LpCollectiveConfig lpConfig(inc::LpAlgorithm algorithm, uint64_t seed);

/** Training steps in one train_hdc_b10 pass. */
constexpr uint64_t kTrainStepsPerPass = 2;

/**
 * train_hdc_b10: FuncTrainer on the full HDC model over a 4-node
 * in-memory ring, with a zoo codec applied at source (or none, for the
 * no-codec layer probe), clipped SGD, thread width 1. Every pass builds
 * fresh replicas from the seed and trains them, so every pass does the
 * same work: the codec's cost depends on the gradients, which shrink as
 * training goes on.
 */
class TrainHdc final : public Workload
{
  public:
    /** @param codec zoo codec at source; nullptr trains without one. */
    TrainHdc(uint64_t seed, const inc::GradientCodec *codec,
             Inject inject = Inject::None);

    bool warmup() override;
    bool pass() override;

    /** Node 0's local gradient from the warm-up's first step. */
    const std::vector<float> &capturedGradient() const;

  private:
    std::unique_ptr<inc::FuncTrainer> makeTrainer() const;
    /** Loss finite; replicas identical. */
    bool checkPass();
    bool checkCodec(const std::vector<float> &g) const;

    const inc::GradientCodec *codec_;
    Inject inject_;
    uint64_t seed_;
    inc::SyntheticDigits train_;
    inc::SyntheticDigits test_;
    std::unique_ptr<inc::FuncTrainer> trainer_;
};

/**
 * lp_fattree_ring / lp_fattree_star: runLpAllreduce over a k-ary fat
 * tree on LpFabric. Every pass builds a fresh fabric from the set-up
 * topology and runs the collective at the workload's scheduler width.
 */
class LpCollective final : public Workload
{
  public:
    static constexpr int kWidth = 2;

    LpCollective(inc::LpAlgorithm algorithm, uint64_t seed,
                 Inject inject = Inject::None);

    bool warmup() override;
    bool pass() override;

    /** One run on a fresh fabric at @p width; *delivered gets its bytes. */
    inc::LpAllreduceResult run(int width, uint64_t *delivered) const;

    /** Closed-form bytes, lower bound and width-1 identity checks. */
    bool checkRun(const inc::LpAllreduceResult &r,
                  uint64_t delivered) const;

    /** The width-1 reference run made by warmup(). */
    const inc::LpAllreduceResult &reference() const { return reference_; }

  private:
    Inject inject_;
    inc::Topology topo_;
    inc::LpCollectiveConfig config_;
    uint64_t expectedBytes_ = 0;
    inc::Tick finishLowerBound_ = 0;
    inc::LpAllreduceResult reference_; ///< width-1 run, from warmup()
};

/**
 * sim_lossy_alexnet: runSimTraining on the AlexNet-class workload with 4
 * workers, worker-aggregator then ring, 1% Bernoulli loss on every link
 * and reliable transport.
 */
class SimLossy final : public Workload
{
  public:
    explicit SimLossy(uint64_t seed);

    bool warmup() override;
    bool pass() override;

    inc::SimTrainerResult run(inc::ExchangeAlgorithm algorithm,
                              bool lossy) const;

    /** Lossy runs no faster than lossless; ring faster than WA. */
    bool checkPair(const inc::SimTrainerResult &wa,
                   const inc::SimTrainerResult &ring) const;

  private:
    uint64_t seed_;
    inc::SimTrainerResult losslessWa_;   ///< reference, from warmup()
    inc::SimTrainerResult losslessRing_; ///< reference, from warmup()
};

} // namespace pb

#endif // INCEPTIONN_PERFBENCH_WORKLOADS_H
