#include "inputs.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// Pareto(alpha = 1.5) on [1, inf): heavy-tailed fitness.
double pareto(InputRng& rng) { return std::pow(1.0 - rng.unit(), -1.0 / 1.5); }

}  // namespace

SparseGenerator::SparseGenerator(std::uint64_t seed)
    : rng_(derive_seed(seed, 1)), initial_(kItems, 0.0), occupied_(kItems, 0) {
  positives_.reserve(kPositives);
  while (positives_.size() < kPositives) {
    const auto i = static_cast<std::uint32_t>(rng_.below(kItems));
    if (occupied_[i]) continue;
    occupied_[i] = 1;
    positives_.push_back(i);
    initial_[i] = pareto(rng_);
  }
}

void SparseGenerator::next(std::vector<Change>& out) {
  out.clear();
  for (std::size_t m = 0; m < kMovesPerGeneration; ++m) {
    const std::size_t slot = rng_.below(kPositives);
    std::uint32_t to = 0;
    do {
      to = static_cast<std::uint32_t>(rng_.below(kItems));
    } while (occupied_[to]);
    const std::uint32_t from = positives_[slot];
    occupied_[from] = 0;
    occupied_[to] = 1;
    positives_[slot] = to;
    out.push_back({from, 0.0});
    out.push_back({to, pareto(rng_)});
  }
}

std::vector<double> dense_fitness(std::uint64_t seed) {
  InputRng rng(derive_seed(seed, 2));
  std::vector<double> f(std::size_t{1} << 14);
  for (double& x : f) x = pareto(rng);
  return f;
}

ArenaGenerator::ArenaGenerator(
    std::uint64_t seed, std::size_t wheels,
    std::span<const std::pair<std::size_t, std::size_t>> size_mix)
    : rng_(derive_seed(seed, 3)) {
  // The size pattern is a constant of the workload: a fixed shuffle of the
  // mix's 100 slots, independent of the run seed.
  std::vector<std::size_t> pattern;
  for (const auto& [size, slots] : size_mix) pattern.insert(pattern.end(), slots, size);
  InputRng fixed(0x5eed5eed5eed5eedULL);
  for (std::size_t i = pattern.size(); i > 1; --i) {
    std::swap(pattern[i - 1], pattern[fixed.below(i)]);
  }

  offsets_.reserve(wheels + 1);
  offsets_.push_back(0);
  positives_.reserve(wheels);
  for (std::size_t w = 0; w < wheels; ++w) {
    const std::size_t n = pattern[w % pattern.size()];
    std::size_t pos = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool zero = rng_.unit() < 0.25;
      values_.push_back(zero ? 0.0 : fresh_value());
      pos += zero ? 0 : 1;
    }
    // Tenants always hold a positive entry: drawing from an empty wheel is
    // a caller error, not a workload.
    if (pos == 0) {
      values_[offsets_.back()] = fresh_value();
      pos = 1;
    }
    positives_.push_back(pos);
    offsets_.push_back(values_.size());
  }

  zipf_cdf_.resize(wheels);
  double acc = 0.0;
  for (std::size_t w = 0; w < wheels; ++w) {
    acc += 1.0 / static_cast<double>(w + 1);
    zipf_cdf_[w] = acc;
  }
  for (double& c : zipf_cdf_) c /= acc;
}

double ArenaGenerator::fresh_value() {
  // Log-uniform over 1e-150 .. 1e150, unclamped.
  return std::pow(10.0, -150.0 + 300.0 * rng_.unit());
}

std::size_t ArenaGenerator::zipf_wheel() {
  const double u = rng_.unit();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - zipf_cdf_.begin()),
                               zipf_cdf_.size() - 1);
}

std::size_t ArenaGenerator::find_item(std::size_t w, bool positive) {
  const std::span<const double> v = wheel(w);
  const std::size_t start = rng_.below(v.size());
  for (std::size_t j = 0; j < v.size(); ++j) {
    const std::size_t i = (start + j) % v.size();
    if ((v[i] > 0.0) == positive) return i;
  }
  return start;  // unreachable: callers ask only for a state the wheel holds
}

ArenaGenerator::Update ArenaGenerator::next_update() {
  const std::size_t w = zipf_wheel();
  const std::size_t n = offsets_[w + 1] - offsets_[w];
  Update u;
  u.wheel = static_cast<std::uint32_t>(w);
  u.flip = rng_.unit() < 0.10;
  bool to_positive = false;
  if (u.flip) {
    if (positives_[w] == n) {
      to_positive = false;
    } else if (positives_[w] == 1) {
      to_positive = true;
    } else {
      to_positive = rng_.unit() < 0.5;
    }
    u.item = static_cast<std::uint32_t>(find_item(w, !to_positive));
    u.value = to_positive ? fresh_value() : 0.0;
    positives_[w] += to_positive ? 1 : 0;
    positives_[w] -= to_positive ? 0 : 1;
  } else {
    u.item = static_cast<std::uint32_t>(find_item(w, true));
    u.value = fresh_value();
  }
  values_[offsets_[w] + u.item] = u.value;
  return u;
}

lrb::core::WheelSet::DrawRequest ArenaGenerator::next_request() {
  const std::size_t w = zipf_wheel();
  return {w, 1 + static_cast<std::size_t>(rng_.below(4))};
}

void ArenaGenerator::hash_into(InputHash& h) const {
  h.add_all(offsets_);
  h.add_all(values_);
}

namespace {
constexpr std::pair<std::size_t, std::size_t> kTenantMix[] = {
    {8, 60}, {64, 30}, {512, 9}, {4096, 1}};
constexpr std::pair<std::size_t, std::size_t> kJournalMix[] = {{8, 75}, {64, 25}};
}  // namespace

ArenaGenerator tenant_arena(std::uint64_t seed, std::size_t wheels) {
  return ArenaGenerator(seed, wheels, kTenantMix);
}

ArenaGenerator journal_arena(std::uint64_t seed, std::size_t wheels) {
  return ArenaGenerator(seed, wheels, kJournalMix);
}

}  // namespace perfbench
