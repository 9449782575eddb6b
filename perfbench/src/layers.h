/**
 * @file
 * The traced run: probes that time each layer through its public entry
 * points (comm, core, nn, distrib, sim, net) on the workloads' own
 * inputs. Every probe's outputs are checked, and one probe is one
 * operation in the tally.
 */

#ifndef INCEPTIONN_PERFBENCH_LAYERS_H
#define INCEPTIONN_PERFBENCH_LAYERS_H

#include <cstdint>
#include <vector>

#include "harness.h"

namespace pb {

/** Every per-layer metric of BENCHMARK.json, in its order. */
std::vector<Metric> runLayerProbes(uint64_t seed, Tally &tally);

} // namespace pb

#endif // INCEPTIONN_PERFBENCH_LAYERS_H
