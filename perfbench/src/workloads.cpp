#include "workloads.hpp"

#include <optional>
#include <unordered_map>

#include "core/batch.hpp"
#include "core/deterministic.hpp"
#include "core/logarithmic_bidding.hpp"
#include "core/wheel_set.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "inputs.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/xoshiro256.hpp"

namespace perfbench {
namespace {

using lrb::core::WheelSet;

constexpr std::size_t kParents = 128;  ///< draws per op on the one-wheel workloads
constexpr std::uint64_t kHashOps = 8;  ///< ops covered by the input hash

void hash_update(InputHash& h, const ArenaGenerator::Update& u) {
  h.add(u.wheel);
  h.add(u.item);
  h.add(u.value);
}
void hash_request(InputHash& h, const WheelSet::DrawRequest& r) {
  h.add(r.wheel);
  h.add(r.draws);
}

// --- gen_sparse: a GA generation loop over one sparse wheel ---------------
class GenSparse final : public Workload {
 public:
  explicit GenSparse(std::uint64_t seed) : seed_(seed) {}

  void generate() override {
    gen_.emplace(seed_);
    fitness_ = gen_->take_initial();
    engine_ = lrb::rng::Xoshiro256StarStar(derive_seed(seed_, 11));
  }

  // No library object outlives a generation, so set-up is one generation's
  // parents: kernel build and draws on the wheel as it stands, on a copy of
  // the engine so the op stream does not depend on the set-ups.
  std::uint64_t setup() override {
    lrb::rng::Xoshiro256StarStar engine = engine_;
    const std::uint64_t t0 = now_ns();
    winners_ = lrb::core::batch_select(std::span<const double>(fitness_), kParents, engine);
    return now_ns() - t0;
  }
  std::uint64_t setup_every() const override { return 64; }

  std::uint64_t input_hash() const override {
    SparseGenerator g(seed_);
    InputHash h;
    h.add_all(g.initial());
    h.add(derive_seed(seed_, 11));
    std::vector<SparseGenerator::Change> changes;
    for (std::uint64_t i = 0; i < kHashOps; ++i) {
      g.next(changes);
      for (const auto& c : changes) {
        h.add(c.index);
        h.add(c.value);
      }
    }
    return h.value();
  }

  void prepare(std::uint64_t) override {
    gen_->next(changes_);
    before_ = engine_;
  }

  OpResult run(std::uint64_t, Tracer& tracer) override {
    for (const auto& c : changes_) fitness_[c.index] = c.value;
    {
      auto s = tracer.span("core.batch_select");
      winners_ = lrb::core::batch_select(std::span<const double>(fitness_),
                                         kParents, engine_);
    }
    return {kParents, kParents * SparseGenerator::kPositives};
  }

  // Reference: kParents select_bidding calls on a copy of the engine taken
  // before the op; winners and the engine state afterwards must both match.
  std::uint64_t check(std::uint64_t i) override {
    if (i % 512 != 0) return 0;
    lrb::rng::Xoshiro256StarStar ref = before_;
    bool ok = winners_.size() == kParents;
    for (std::size_t t = 0; ok && t < kParents; ++t) {
      ok = lrb::core::select_bidding(std::span<const double>(fitness_), ref) ==
           winners_[t];
    }
    return ok && ref == engine_ ? 0 : 1;
  }

  std::uint64_t pass_ops() const override { return 64; }

 private:
  std::uint64_t seed_;
  std::optional<SparseGenerator> gen_;
  std::vector<double> fitness_;
  std::vector<SparseGenerator::Change> changes_;
  lrb::rng::Xoshiro256StarStar engine_;
  lrb::rng::Xoshiro256StarStar before_;
  std::vector<std::size_t> winners_;
};

// --- replay_dense: reproducible replay on a dense wheel, 2-lane pool ------
class ReplayDense final : public Workload {
 public:
  explicit ReplayDense(std::uint64_t seed) : seed_(seed) {}

  void generate() override {
    fitness_ = dense_fitness(seed_);
    base_seed_ = derive_seed(seed_, 12);
  }

  // Set-up is the pool plus its first batch (the seed before op 0's), so a
  // lane's start-up cost shows where a caller would meet it.
  std::uint64_t setup() override {
    pool_.reset();
    const std::uint64_t t0 = now_ns();
    pool_ = std::make_unique<lrb::parallel::ThreadPool>(2);
    winners_ = lrb::core::batch_select_deterministic(
        *pool_, std::span<const double>(fitness_), kParents, base_seed_ - 1);
    return now_ns() - t0;
  }
  std::uint64_t setup_every() const override { return 64; }

  std::uint64_t input_hash() const override {
    InputHash h;
    h.add_all(dense_fitness(seed_));
    h.add(derive_seed(seed_, 12));
    return h.value();
  }

  void prepare(std::uint64_t) override {}

  OpResult run(std::uint64_t i, Tracer& tracer) override {
    auto s = tracer.span("core.batch_select_deterministic");
    winners_ = lrb::core::batch_select_deterministic(
        *pool_, std::span<const double>(fitness_), kParents, base_seed_ + i);
    return {kParents, kParents * fitness_.size()};
  }

  // References: the P = 4 distributed bidder over the whole batch, and the
  // unfiltered serial DeterministicBidder on two of its draws.
  std::uint64_t check(std::uint64_t i) override {
    if (i % 16 != 0) return 0;
    if (!shards_) {
      shards_.emplace(std::span<const double>(fitness_), std::size_t{4});
    }
    lrb::dist::DeterministicDistributedBidder dist_bidder(base_seed_ + i);
    bool ok = dist_bidder.select_batch(*shards_, kParents).indices == winners_;
    lrb::core::DeterministicBidder serial(base_seed_ + i);
    for (std::uint64_t t : {std::uint64_t{0}, i % kParents}) {
      serial.seek(t);
      ok = ok && serial.select(std::span<const double>(fitness_)) == winners_[t];
    }
    return ok ? 0 : 1;
  }

  // The op's time is its slower lane's, so the probe runs on two lanes.
  std::uint64_t probe_host(HostProbe& host) override { return pair_.time_ns(host); }

  std::uint64_t pass_ops() const override { return 128; }

 private:
  std::uint64_t seed_;
  PairProbe pair_;
  std::uint64_t base_seed_ = 0;
  std::vector<double> fitness_;
  std::unique_ptr<lrb::parallel::ThreadPool> pool_;
  std::optional<lrb::dist::ShardedFitness> shards_;
  std::vector<std::size_t> winners_;
};

// --- tenant_churn: multi-tenant serving, writes beside reads ---------------
class TenantChurn final : public Workload {
 public:
  static constexpr std::size_t kWheels = 50'000;
  static constexpr std::size_t kUpdates = 512;
  static constexpr std::size_t kRequests = 2048;

  explicit TenantChurn(std::uint64_t seed) : seed_(seed) {}

  void generate() override { gen_.emplace(tenant_arena(seed_, kWheels)); }

  // A rebuilt arena restarts every wheel's cursor at 0; the checks follow
  // the live cursors.
  std::uint64_t setup() override {
    ws_.reset();
    const std::uint64_t t0 = now_ns();
    ws_.emplace(derive_seed(seed_, 13));
    for (std::size_t w = 0; w < kWheels; ++w) (void)ws_->add_wheel(gen_->wheel(w));
    return now_ns() - t0;
  }
  std::uint64_t setup_every() const override { return 1024; }

  std::uint64_t input_hash() const override {
    ArenaGenerator g = tenant_arena(seed_, kWheels);
    InputHash h;
    g.hash_into(h);
    h.add(derive_seed(seed_, 13));
    for (std::uint64_t i = 0; i < kHashOps; ++i) {
      for (std::size_t u = 0; u < kUpdates; ++u) hash_update(h, g.next_update());
      for (std::size_t r = 0; r < kRequests; ++r) hash_request(h, g.next_request());
    }
    return h.value();
  }

  void prepare(std::uint64_t i) override {
    updates_.clear();
    requests_.clear();
    for (std::size_t u = 0; u < kUpdates; ++u) updates_.push_back(gen_->next_update());
    draws_ = 0;
    bids_ = 0;
    for (std::size_t r = 0; r < kRequests; ++r) {
      const WheelSet::DrawRequest q = gen_->next_request();
      requests_.push_back(q);
      draws_ += q.draws;
      bids_ += q.draws * gen_->positives(q.wheel);
    }
    cursors_.clear();
    if (sampled(i)) {
      for (const auto& q : requests_) cursors_.try_emplace(q.wheel, ws_->cursor(q.wheel));
    }
  }

  OpResult run(std::uint64_t, Tracer& tracer) override {
    {
      auto s = tracer.span("core.wheelset.update");
      for (const auto& u : updates_) ws_->update(u.wheel, u.item, u.value);
    }
    {
      auto s = tracer.span("core.wheelset.draw_batch");
      winners_.clear();
      ws_->draw_batch_into(requests_, winners_);
    }
    return {draws_, bids_};
  }

  // Reference: a standalone DeterministicDrawKernel per requested wheel at
  // the wheel's seed and cursor.
  std::uint64_t check(std::uint64_t i) override {
    if (!sampled(i)) return 0;
    bool ok = winners_.size() == draws_;
    std::size_t pos = 0;
    for (const auto& q : requests_) {
      if (!ok) break;
      const lrb::core::DeterministicDrawKernel kernel(ws_->wheel_values(q.wheel));
      for (std::size_t d = 0; ok && d < q.draws; ++d) {
        const std::uint64_t t = cursors_[q.wheel]++;
        ok = kernel.draw_one(ws_->seed(q.wheel), t) == winners_[pos++];
      }
    }
    return ok ? 0 : 1;
  }

  std::uint64_t pass_ops() const override { return 128; }

 private:
  static bool sampled(std::uint64_t i) { return i % 16 == 0; }

  std::uint64_t seed_;
  std::optional<ArenaGenerator> gen_;
  std::optional<WheelSet> ws_;
  std::vector<ArenaGenerator::Update> updates_;
  std::vector<WheelSet::DrawRequest> requests_;
  std::uint64_t draws_ = 0;
  std::uint64_t bids_ = 0;
  std::unordered_map<std::size_t, std::uint64_t> cursors_;
  std::vector<std::size_t> winners_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "gen_sparse") return std::make_unique<GenSparse>(seed);
  if (name == "replay_dense") return std::make_unique<ReplayDense>(seed);
  if (name == "tenant_churn") return std::make_unique<TenantChurn>(seed);
  return nullptr;
}

}  // namespace perfbench
