// The three closed-loop workloads.  One client thread issues op i + 1 only
// after op i returns; only replay_dense fans an op out over a 2-lane pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct OpResult {
  std::uint64_t draws = 0;  ///< winners returned
  std::uint64_t bids = 0;   ///< sum of the active count k over the draws
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the seeded inputs; called once, untimed, before any set-up.
  virtual void generate() = 0;
  /// Builds every library object the ops use from the inputs as they
  /// stand, dropping the previous ones first.  Returns the nanoseconds spent
  /// in the library calls (setup_s); dropping the old objects is not
  /// counted.  The loop repeats it every setup_every() ops; it never
  /// changes the inputs.
  [[nodiscard]] virtual std::uint64_t setup() = 0;
  [[nodiscard]] virtual std::uint64_t setup_every() const = 0;
  /// Hash of the inputs a fresh setup and the first ops hand to the library.
  [[nodiscard]] virtual std::uint64_t input_hash() const = 0;
  /// Generates op i's inputs; outside the timed region.
  virtual void prepare(std::uint64_t i) = 0;
  /// Op i; the timed region of the loop.  Library failures propagate as exceptions.
  virtual OpResult run(std::uint64_t i, Tracer& tracer) = 0;
  /// Checks op i against the reference when it is sampled; returns the
  /// number of ops found wrong.
  virtual std::uint64_t check(std::uint64_t i) = 0;
  /// Nanoseconds for one unit of `host` work run on every thread an op
  /// runs on, until the last is done (see Tally::quiet_windows in main.cpp).
  [[nodiscard]] virtual std::uint64_t probe_host(HostProbe& host) { return host.time_ns(); }
  /// Ops in one pass of the traced run.
  [[nodiscard]] virtual std::uint64_t pass_ops() const = 0;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
