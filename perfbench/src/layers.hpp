// The traced run's layer probes: fixed-size, seeded measurements of each
// layer through its public functions, identical on every workload.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

/// Runs every probe, prints the stage tables, and sets the per-layer
/// metrics the probes own.  Returns the number of probe results that
/// disagreed with their reference.
std::uint64_t run_layer_probes(std::uint64_t seed, const std::string& work_dir,
                               Tracer& tracer, Metrics& out);

}  // namespace perfbench
