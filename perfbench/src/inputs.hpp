// Seeded input generators.  Every input the library sees is built here,
// from the run seed, outside the timed region; the same seed yields the same
// inputs (pinned by the input hash the benchmark prints).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/wheel_set.hpp"
#include "harness.hpp"

namespace perfbench {

/// gen_sparse: one wheel of n = 2^20 items, exactly 1% positive with
/// Pareto(1.5) values; each generation moves 10% of the positives to fresh
/// positions with fresh values.
class SparseGenerator {
 public:
  static constexpr std::size_t kItems = std::size_t{1} << 20;
  static constexpr std::size_t kPositives = kItems / 100;
  static constexpr std::size_t kMovesPerGeneration = kPositives / 10;

  struct Change {
    std::uint32_t index = 0;
    double value = 0.0;
  };

  explicit SparseGenerator(std::uint64_t seed);

  /// Generation 0.
  [[nodiscard]] const std::vector<double>& initial() const noexcept {
    return initial_;
  }
  /// Generation 0, moved out so the caller's wheel is the only copy.
  [[nodiscard]] std::vector<double> take_initial() noexcept { return std::move(initial_); }
  /// The next generation's changes, to be applied in order.
  void next(std::vector<Change>& out);

 private:
  InputRng rng_;
  std::vector<double> initial_;
  std::vector<std::uint32_t> positives_;
  std::vector<std::uint8_t> occupied_;
};

/// replay_dense: a fixed all-positive wheel of n = 2^14 Pareto(1.5) values.
[[nodiscard]] std::vector<double> dense_fitness(std::uint64_t seed);

/// Arena shape and traffic of the multi-tenant workloads.  Wheel sizes
/// follow a fixed 100-slot pattern (wheel w has size pattern[w % 100]) and
/// wheel w is the w-th most popular under Zipf(1): the seed moves values,
/// zeros and traffic, never which wheel sizes are hot, so the cost of a tick
/// is a property of the workload rather than of the seed.
class ArenaGenerator {
 public:
  struct Update {
    std::uint32_t wheel = 0;
    std::uint32_t item = 0;
    double value = 0.0;
    bool flip = false;  ///< zero <-> positive membership change
  };

  /// `size_mix` lists (size, slots out of 100).
  ArenaGenerator(std::uint64_t seed, std::size_t wheels,
                 std::span<const std::pair<std::size_t, std::size_t>> size_mix);

  [[nodiscard]] std::size_t wheels() const noexcept { return offsets_.size() - 1; }
  [[nodiscard]] std::span<const double> wheel(std::size_t w) const noexcept {
    return {values_.data() + offsets_[w], offsets_[w + 1] - offsets_[w]};
  }
  [[nodiscard]] std::size_t positives(std::size_t w) const noexcept {
    return positives_[w];
  }

  /// One point update on a Zipf-chosen wheel: 10% flip membership (never
  /// emptying a wheel), the rest give a positive item a fresh value.  The
  /// generator's own copy of the arena tracks the change.
  Update next_update();
  /// One request on a Zipf-chosen wheel for 1..4 draws.
  lrb::core::WheelSet::DrawRequest next_request();

  /// Hash of the arena as it stands.
  void hash_into(InputHash& h) const;

 private:
  double fresh_value();
  std::size_t zipf_wheel();
  std::size_t find_item(std::size_t w, bool positive);

  InputRng rng_;
  std::vector<std::size_t> offsets_;
  std::vector<double> values_;
  std::vector<std::size_t> positives_;
  std::vector<double> zipf_cdf_;
};

/// tenant_churn: K = 50 000 wheels, 60% n=8, 30% n=64, 9% n=512, 1% n=4096.
[[nodiscard]] ArenaGenerator tenant_arena(std::uint64_t seed, std::size_t wheels);
/// The persist probe's journaled arena: 75% n=8, 25% n=64.
[[nodiscard]] ArenaGenerator journal_arena(std::uint64_t seed, std::size_t wheels);

}  // namespace perfbench
