#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/batch.hpp"
#include "core/bid_filter.hpp"
#include "core/deterministic.hpp"
#include "core/draw_many.hpp"
#include "core/wheel_set.hpp"
#include "dist/selection.hpp"
#include "dist/sharding.hpp"
#include "inputs.hpp"
#include "parallel/thread_pool.hpp"
#include "persist/draw_log.hpp"
#include "persist/journal.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lrb::core::WheelSet;
using lrb::core::bid_filter::RecordScan;

constexpr int kReps = 7;
/// The block of DrawManyKernel and DeterministicDrawKernel, and the tile of
/// WheelSet: stages are timed at the size the kernels run them.
constexpr std::size_t kBlock = 256;
constexpr std::size_t kTile = 2048;
constexpr std::size_t kParents = 128;

volatile std::uint64_t g_sink = 0;

/// Keeps the compiler from dropping stores into a scratch buffer.
inline void clobber(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

template <class Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(t));
}

/// Cost of one now_ns() pair, subtracted from stage intervals timed inline.
double clock_overhead_ns() {
  std::vector<double> d;
  for (int i = 0; i < 1001; ++i) {
    const std::uint64_t a = now_ns();
    d.push_back(static_cast<double>(now_ns() - a));
  }
  return median(std::move(d));
}

/// One kernel's cost broken into its stages, all in ns per bid.
struct KernelTable {
  const char* kernel = "";
  double total = 0.0;  ///< the real kernel
  std::vector<std::pair<const char*, double>> stages;
  double floor = 0.0;  ///< ns per word of the kernel's bit source

  [[nodiscard]] double stage_sum() const {
    double s = 0.0;
    for (const auto& st : stages) s += st.second;
    return s;
  }
  [[nodiscard]] double residual_frac() const { return (total - stage_sum()) / total; }
  [[nodiscard]] double floor_ratio() const { return total / floor; }

  void print() const {
    for (const auto& [name, ns] : stages) {
      std::printf("layer  %-9s %-14s %9.4f ns/bid  %6.1f%%\n", kernel, name, ns,
                  100.0 * ns / total);
    }
    std::printf("layer  %-9s %-14s %9.4f ns/bid  %6.1f%%\n", kernel, "residual",
                total - stage_sum(), 100.0 * residual_frac());
    std::printf("layer  %-9s %-14s %9.4f ns/bid  floor ratio %.3f\n", kernel,
                "kernel total", total, floor_ratio());
  }
};

/// The positive items of a wheel packed as the kernels pack them.
struct Packed {
  std::vector<std::uint64_t> index;
  std::vector<double> f;
  std::vector<double> inv;
};

Packed pack(std::span<const double> fitness) {
  Packed p;
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    if (!(fitness[i] > 0.0)) continue;
    p.index.push_back(i);
    p.f.push_back(fitness[i]);
    p.inv.push_back(lrb::core::bid_filter::bound_reciprocal(fitness[i]));
  }
  return p;
}

/// Times every entry kReps times, round-robin, so a change in the host's
/// speed during the probe touches the kernel total and each stage alike;
/// returns each entry's median in ns.
std::vector<double> interleaved_median_ns(const std::vector<std::function<void()>>& fns) {
  std::vector<std::vector<double>> t(fns.size());
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      fns[i]();
      t[i].push_back(static_cast<double>(now_ns() - t0));
    }
  }
  std::vector<double> out;
  for (auto& v : t) out.push_back(median(std::move(v)));
  return out;
}

/// The u / ub blocks of real draws, recorded so the scan stage can be
/// replayed alone.  fill(c, start, bits, len) produces the bits of block
/// `start` of recorded draw c.
struct Capture {
  std::size_t k = 0;
  std::size_t nb = 0;
  std::size_t draws = 0;
  std::vector<double> u, ub, bmax;

  template <class Fill>
  Capture(const Packed& p, std::size_t captured, Fill&& fill)
      : k(p.f.size()),
        nb((k + kBlock - 1) / kBlock),
        draws(captured),
        u(captured * k),
        ub(captured * k),
        bmax(captured * nb) {
    const lrb::simd::Ops& ops = lrb::simd::ops();
    alignas(64) std::uint64_t bits[kBlock];
    for (std::size_t c = 0; c < draws; ++c) {
      for (std::size_t b = 0; b < nb; ++b) {
        const std::size_t s = b * kBlock;
        const std::size_t len = std::min(kBlock, k - s);
        fill(c, s, bits, len);
        ops.fill_u01_from_bits(bits, &u[c * k + s], len);
        bmax[c * nb + b] =
            ops.bound_pass(&u[c * k + s], p.inv.data() + s, &ub[c * k + s], len);
      }
    }
  }

  /// The kernels' filtered argmax over recorded draw c; returns the
  /// winner's position in the packed active set.
  [[nodiscard]] std::size_t replay(const Packed& p, std::size_t c) const {
    RecordScan race;
    for (std::size_t b = 0; b < nb; ++b) {
      if (race.skip_chunk(bmax[c * nb + b])) continue;
      const std::size_t s = b * kBlock;
      race.scan(&u[c * k + s], &ub[c * k + s], p.f.data() + s, s, std::min(kBlock, k - s));
    }
    return race.best_pos;
  }
};

/// Stage model of a kernel that draws in 256-item blocks.  Entry 0 of
/// `fns` is the real kernel's `draws` draws and entry 1 its bit source over
/// the same blocks; the u01, bound and scan stages are appended here.
/// Returns ns per bid: total, source, u01, bound, scan.
std::vector<double> block_stages(const Packed& p, std::size_t draws, const Capture& cap,
                                 std::vector<std::function<void()>> fns) {
  const lrb::simd::Ops& ops = lrb::simd::ops();
  const std::size_t k = p.f.size();
  alignas(64) std::uint64_t bits[kBlock];
  alignas(64) double u[kBlock];
  alignas(64) double ub[kBlock];
  for (std::size_t j = 0; j < kBlock; ++j) bits[j] = j * 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  std::size_t sink = 0;
  fns.push_back([&] {
    for (std::size_t d = 0; d < draws; ++d) {
      for (std::size_t s = 0; s < k; s += kBlock) {
        ops.fill_u01_from_bits(bits, u, std::min(kBlock, k - s));
        clobber(u);
      }
    }
  });
  fns.push_back([&] {
    for (std::size_t d = 0; d < draws; ++d) {
      for (std::size_t s = 0; s < k; s += kBlock) {
        acc += ops.bound_pass(u, p.inv.data() + s, ub, std::min(kBlock, k - s));
      }
    }
  });
  fns.push_back([&] {
    for (std::size_t c = 0; c < cap.draws; ++c) sink += cap.replay(p, c);
  });
  std::vector<double> ns = interleaved_median_ns(fns);
  g_sink = g_sink + sink + (acc < 0.0 ? 1 : 0);
  const double items = static_cast<double>(draws * k);
  for (std::size_t i = 0; i + 1 < ns.size(); ++i) ns[i] /= items;
  ns.back() /= static_cast<double>(cap.draws * k);
  return ns;
}

// --- DrawManyKernel over the gen_sparse wheel ------------------------------
KernelTable probe_stream(std::span<const double> fitness, std::uint64_t seed,
                         std::uint64_t& wrong, Metrics& out) {
  constexpr std::size_t kDraws = 32;
  constexpr std::size_t kCaptured = 4;
  const Packed p = pack(fitness);
  const std::size_t k = p.f.size();

  std::vector<double> builds;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    const lrb::core::DrawManyKernel probe(fitness);
    builds.push_back(static_cast<double>(now_ns() - t0));
    g_sink = g_sink + probe.active_count();
  }
  out.set("core.build_us", median(builds) * 1e-3, "us");

  // The replayed scan must pick the real kernel's winners from the same
  // engine words.
  lrb::rng::Xoshiro256StarStar capture(seed + 1);
  lrb::rng::Xoshiro256StarStar reference = capture;
  lrb::core::DrawManyKernel kernel(fitness);
  const Capture cap(p, kCaptured,
                    [&](std::size_t, std::size_t, std::uint64_t* b, std::size_t len) {
                      lrb::rng::fill_bits(capture, std::span<std::uint64_t>(b, len));
                    });
  for (std::size_t c = 0; c < kCaptured; ++c) {
    if (p.index[cap.replay(p, c)] != kernel.draw_one(reference)) ++wrong;
  }

  lrb::rng::Xoshiro256StarStar gen(seed);
  alignas(64) std::uint64_t bits[kBlock];
  std::size_t sink = 0;
  const std::vector<double> ns = block_stages(
      p, kDraws, cap,
      {[&] {
         for (std::size_t d = 0; d < kDraws; ++d) sink += kernel.draw_one(gen);
       },
       [&] {
         for (std::size_t d = 0; d < kDraws; ++d) {
           for (std::size_t s = 0; s < k; s += kBlock) {
             lrb::rng::fill_bits(gen, std::span<std::uint64_t>(bits, std::min(kBlock, k - s)));
             clobber(bits);
           }
         }
       }});
  g_sink = g_sink + sink;

  KernelTable t;
  t.kernel = "stream";
  t.total = ns[0];
  t.stages = {{"fill.xoshiro", ns[1]}, {"u01", ns[2]}, {"bound_pass", ns[3]}, {"scan", ns[4]}};
  t.floor = ns[1];
  out.set("rng.xoshiro_fill.ns_per_word", ns[1], "ns");
  out.set("simd.u01.ns_per_item", ns[2], "ns");
  out.set("simd.bound_pass.ns_per_item", ns[3], "ns");
  out.set("core.scan.ns_per_item", ns[4], "ns");
  return t;
}

// --- DeterministicDrawKernel over the replay_dense wheel -------------------
KernelTable probe_det(std::span<const double> fitness, std::uint64_t seed,
                      std::uint64_t& wrong, Metrics& out) {
  constexpr std::size_t kDraws = 32;
  constexpr std::size_t kCaptured = 8;
  const lrb::simd::Ops& ops = lrb::simd::ops();
  const Packed p = pack(fitness);
  const std::size_t k = p.f.size();

  const lrb::core::DeterministicDrawKernel kernel(fitness);
  const Capture cap(p, kCaptured,
                    [&](std::size_t c, std::size_t s, std::uint64_t* b, std::size_t len) {
                      ops.philox_bits_streams(seed, c, p.index.data() + s, b, len);
                    });
  for (std::size_t c = 0; c < kCaptured; ++c) {
    if (p.index[cap.replay(p, c)] != kernel.draw_one(seed, c)) ++wrong;
  }

  alignas(64) std::uint64_t bits[kBlock];
  std::size_t sink = 0;
  const std::vector<double> ns = block_stages(
      p, kDraws, cap,
      {[&] {
         for (std::size_t d = 0; d < kDraws; ++d) sink += kernel.draw_one(seed, d);
       },
       [&] {
         for (std::size_t d = 0; d < kDraws; ++d) {
           for (std::size_t s = 0; s < k; s += kBlock) {
             ops.philox_bits_streams(seed, d, p.index.data() + s, bits,
                                     std::min(kBlock, k - s));
             clobber(bits);
           }
         }
       }});
  g_sink = g_sink + sink;

  KernelTable t;
  t.kernel = "det";
  t.total = ns[0];
  t.stages = {{"fill.philox", ns[1]}, {"u01", ns[2]}, {"bound_pass", ns[3]}, {"scan", ns[4]}};
  t.floor = ns[1];
  out.set("rng.philox_streams.ns_per_word", ns[1], "ns");
  return t;
}

// --- WheelSet tile engine over a tenant_churn-shaped arena -----------------
KernelTable probe_wheelset(std::uint64_t seed, std::uint64_t& wrong, Metrics& out) {
  constexpr std::size_t kWheels = 10'000;
  constexpr std::size_t kRequests = 2048;
  constexpr std::size_t kUpdateTicks = 8;
  constexpr std::size_t kUpdates = 512;
  const lrb::simd::Ops& ops = lrb::simd::ops();
  ArenaGenerator gen = tenant_arena(seed, kWheels);
  WheelSet ws(derive_seed(seed, 21));
  for (std::size_t w = 0; w < kWheels; ++w) (void)ws.add_wheel(gen.wheel(w));

  // The arena's packed active sets, as WheelSet keeps them.
  std::vector<std::size_t> aoff(kWheels + 1, 0), k_of(kWheels);
  std::vector<std::uint64_t> wseed(kWheels), a_stream;
  std::vector<double> a_f, a_inv;
  for (std::size_t w = 0; w < kWheels; ++w) {
    const Packed p = pack(ws.wheel_values(w));
    k_of[w] = p.f.size();
    wseed[w] = ws.seed(w);
    a_stream.insert(a_stream.end(), p.index.begin(), p.index.end());
    a_f.insert(a_f.end(), p.f.begin(), p.f.end());
    a_inv.insert(a_inv.end(), p.inv.begin(), p.inv.end());
    aoff[w + 1] = a_f.size();
  }
  std::vector<WheelSet::DrawRequest> requests;
  double bids = 0.0;
  for (std::size_t r = 0; r < kRequests; ++r) {
    requests.push_back(gen.next_request());
    bids += static_cast<double>(requests.back().draws * k_of[requests.back().wheel]);
  }
  const auto rewind = [&] {
    for (const auto& q : requests) ws.seek(q.wheel, 0);
  };

  KernelTable t;
  t.kernel = "wheelset";
  std::vector<std::size_t> winners;
  std::vector<double> totals;

  // Stage replica of the tile engine: pack keys, keyed Philox, u01, bound,
  // then the probe-first filtered argmax per chunk.  Each stage is timed
  // per 2048-item tile, net of the clock's own cost; each repetition times
  // the real batch first, so host drift touches both alike.
  struct Chunk {
    std::size_t wheel, abs, pos0, begin, len;
    bool closes;
  };
  const double clock = clock_overhead_ns();
  std::vector<std::uint64_t> t_seed(kTile), t_ctr(kTile), t_stream(kTile), bits(kTile);
  std::vector<double> t_inv(kTile), u(kTile), ub(kTile);
  std::vector<Chunk> chunks;
  std::vector<std::vector<double>> stage_ns(5);
  std::vector<std::size_t> replica;
  for (int r = 0; r < kReps; ++r) {
    rewind();
    winners.clear();
    const std::uint64_t t0 = now_ns();
    ws.draw_batch_into(requests, winners);
    totals.push_back(static_cast<double>(now_ns() - t0));

    std::vector<std::uint64_t> cursor(kWheels, 0);
    double acc[5] = {0, 0, 0, 0, 0};
    std::size_t ri = 0, di = 0, done = 0;
    std::uint64_t tcur = 0;
    RecordScan race;
    replica.clear();
    for (;;) {
      const std::uint64_t c0 = now_ns();
      std::size_t pos = 0;
      chunks.clear();
      while (pos < kTile && ri < requests.size()) {
        const std::size_t w = requests[ri].wheel;
        const std::size_t k = k_of[w];
        if (done == 0) tcur = cursor[w]++;
        const std::size_t take = std::min(k - done, kTile - pos);
        std::fill_n(t_seed.data() + pos, take, wseed[w]);
        std::fill_n(t_ctr.data() + pos, take, tcur);
        std::memcpy(t_stream.data() + pos, a_stream.data() + aoff[w] + done, take * 8);
        std::memcpy(t_inv.data() + pos, a_inv.data() + aoff[w] + done, take * 8);
        chunks.push_back({w, aoff[w] + done, done, pos, take, done + take == k});
        pos += take;
        done += take;
        if (done == k) {
          done = 0;
          if (++di == requests[ri].draws) {
            di = 0;
            ++ri;
          }
        }
      }
      if (pos == 0) break;
      const std::uint64_t c1 = now_ns();
      ops.philox_bits_keyed(t_seed.data(), t_ctr.data(), t_stream.data(), bits.data(), pos);
      const std::uint64_t c2 = now_ns();
      ops.fill_u01_from_bits(bits.data(), u.data(), pos);
      const std::uint64_t c3 = now_ns();
      (void)ops.bound_pass(u.data(), t_inv.data(), ub.data(), pos);
      const std::uint64_t c4 = now_ns();
      for (const Chunk& ch : chunks) {
        if (!race.found) {
          std::size_t pm = 0;
          for (std::size_t j = 1; j < ch.len; ++j) {
            if (ub[ch.begin + j] > ub[ch.begin + pm]) pm = j;
          }
          race.probe(u[ch.begin + pm], a_f[ch.abs + pm], ch.pos0 + pm);
          ub[ch.begin + pm] = -std::numeric_limits<double>::infinity();
        }
        race.scan(u.data() + ch.begin, ub.data() + ch.begin, a_f.data() + ch.abs,
                  ch.pos0, ch.len);
        if (ch.closes) {
          replica.push_back(a_stream[aoff[ch.wheel] + race.best_pos]);
          race = RecordScan{};
        }
      }
      const std::uint64_t c5 = now_ns();
      const std::uint64_t marks[6] = {c0, c1, c2, c3, c4, c5};
      for (int s = 0; s < 5; ++s) {
        acc[s] += std::max(0.0, static_cast<double>(marks[s + 1] - marks[s]) - clock);
      }
    }
    for (int s = 0; s < 5; ++s) stage_ns[s].push_back(acc[s] / bids);
  }
  t.total = median(totals) / bids;
  if (replica != winners) ++wrong;
  const char* names[5] = {"pack", "fill.philox_k", "u01", "bound_pass", "scan"};
  for (int s = 0; s < 5; ++s) t.stages.emplace_back(names[s], median(stage_ns[s]));
  t.floor = t.stages[1].second;
  out.set("rng.philox_keyed.ns_per_word", t.floor, "ns");
  out.set("core.wheelset.draw_ns_per_bid", t.total, "ns");

  // Point updates: the tenant_churn write stream, 512 per tick.
  std::vector<double> per_update;
  std::uint64_t flips = 0;
  for (std::size_t tick = 0; tick < kUpdateTicks; ++tick) {
    std::vector<ArenaGenerator::Update> ups;
    for (std::size_t i = 0; i < kUpdates; ++i) ups.push_back(gen.next_update());
    const std::uint64_t t0 = now_ns();
    for (const auto& up : ups) ws.update(up.wheel, up.item, up.value);
    per_update.push_back(static_cast<double>(now_ns() - t0) / kUpdates);
    for (const auto& up : ups) flips += up.flip ? 1 : 0;
  }
  out.set("core.wheelset.update_ns", median(per_update), "ns");
  out.set("core.wheelset.flip_frac",
          static_cast<double>(flips) / static_cast<double>(kUpdateTicks * kUpdates),
          "fraction");
  return t;
}

// --- ThreadPool and the simulated distributed backend ----------------------
void probe_pool_and_dist(std::span<const double> dense, std::uint64_t seed,
                         std::uint64_t& wrong, Metrics& out) {
  lrb::parallel::ThreadPool pool(2);
  constexpr int kCalls = 2000;
  const double dispatch = median_ns(kReps, [&] {
    for (int i = 0; i < kCalls; ++i) {
      pool.parallel_for(2, [](lrb::parallel::Range, std::size_t) {});
    }
  }) / kCalls;
  out.set("parallel.pool.dispatch_us", dispatch * 1e-3, "us");

  std::vector<double> serial, pooled;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    const std::uint64_t t0 = now_ns();
    const auto a = lrb::core::batch_select_deterministic(dense, kParents, s);
    const std::uint64_t t1 = now_ns();
    const auto b = lrb::core::batch_select_deterministic(pool, dense, kParents, s);
    const std::uint64_t t2 = now_ns();
    serial.push_back(static_cast<double>(t1 - t0));
    pooled.push_back(static_cast<double>(t2 - t1));
    if (a != b) ++wrong;
  }
  out.set("parallel.pool.efficiency",
          median(serial) / (median(pooled) * static_cast<double>(pool.lanes())),
          "fraction");

  const lrb::dist::ShardedFitness shards(dense, 4);
  lrb::dist::DeterministicDistributedBidder bidder(seed);
  const lrb::dist::BatchDrawResult r = bidder.select_batch(shards, kParents);
  if (r.indices != lrb::core::batch_select_deterministic(dense, kParents, seed)) ++wrong;
  const double draws = static_cast<double>(kParents);
  out.set("dist.rounds_per_batch", static_cast<double>(r.comm.rounds), "count");
  out.set("dist.messages_per_draw", static_cast<double>(r.comm.messages) / draws, "count");
  out.set("dist.words_per_draw", static_cast<double>(r.comm.words) / draws, "count");
  out.set("dist.critical_path_words_per_draw",
          static_cast<double>(r.comm.critical_path_words) / draws, "count");
}

// --- Durability: the draw log, checkpoints and resume ----------------------
void probe_persist(std::uint64_t seed, const std::string& dir, std::uint64_t& wrong,
                   Metrics& out) {
  namespace persist = lrb::persist;
  constexpr std::size_t kWheels = 2'000;
  constexpr std::size_t kRecords = 64;
  constexpr std::size_t kGroups = 8;
  const persist::DrawLogConfig config{persist::FlushPolicy::kBatch, kRecords};
  fs::remove_all(dir);
  fs::create_directories(dir);
  ArenaGenerator gen = journal_arena(seed, kWheels);
  InputRng mix(derive_seed(seed, 22));
  WheelSet ws(derive_seed(seed, 23));
  for (std::size_t w = 0; w < kWheels; ++w) (void)ws.add_wheel(gen.wheel(w));

  std::vector<persist::Record> records;
  std::vector<std::uint64_t> stream;
  std::optional<persist::WheelJournal> journal(
      persist::WheelJournal::create(dir, std::move(ws), config));
  const auto group = [&] {
    for (std::size_t r = 0; r < kRecords; ++r) {
      if (mix.unit() < 0.125) {
        const ArenaGenerator::Update u = gen.next_update();
        journal->update(u.wheel, u.item, u.value);
        records.emplace_back(persist::WheelUpdateRecord{u.wheel, u.item, u.value});
      } else {
        const WheelSet::DrawRequest q = gen.next_request();
        std::vector<std::uint64_t> w = journal->draw(q.wheel, q.draws);
        stream.insert(stream.end(), w.begin(), w.end());
        records.emplace_back(persist::WheelDrawRecord{q.wheel, std::move(w)});
      }
    }
  };
  const std::string log = persist::WheelJournal::log_path(dir);
  const auto log0 = fs::file_size(log);
  for (std::size_t g = 0; g < kGroups; ++g) group();
  out.set("persist.bytes_per_record",
          static_cast<double>(fs::file_size(log) - log0) /
              static_cast<double>(kGroups * kRecords),
          "B");

  std::vector<double> checkpoints;
  for (int r = 0; r < 3; ++r) {
    group();
    const std::uint64_t t0 = now_ns();
    journal->checkpoint();
    checkpoints.push_back(static_cast<double>(now_ns() - t0));
  }
  out.set("persist.checkpoint_ms", median(checkpoints) * 1e-6, "ms");
  out.set("persist.snapshot_bytes",
          static_cast<double>(fs::file_size(persist::WheelJournal::snapshot_path(dir))),
          "B");

  journal.reset();
  std::vector<double> resumes;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t t0 = now_ns();
    const persist::ResumedWheelJournal resumed = persist::WheelJournal::resume(dir, config);
    resumes.push_back(static_cast<double>(now_ns() - t0));
    if (resumed.winners != stream) ++wrong;
  }
  out.set("persist.resume_ms", median(resumes) * 1e-6, "ms");

  // The log writer alone: unsynced appends of the same records, and the
  // fsync that closes each 64-record group.
  std::vector<double> appends, syncs;
  {
    persist::DrawLogWriter writer(dir + "/append.log",
                                  {persist::FlushPolicy::kNone, kRecords});
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (std::size_t r = 0; r < kRecords; ++r) {
        const std::uint64_t t0 = now_ns();
        writer.append(records[g * kRecords + r]);
        appends.push_back(static_cast<double>(now_ns() - t0));
      }
      const std::uint64_t t0 = now_ns();
      writer.sync();
      syncs.push_back(static_cast<double>(now_ns() - t0));
    }
  }
  out.set("persist.append_us", median(appends) * 1e-3, "us");
  out.set("persist.sync_us", median(syncs) * 1e-3, "us");
  fs::remove_all(dir);
}

}  // namespace

std::uint64_t run_layer_probes(std::uint64_t seed, const std::string& work_dir,
                               Tracer& tracer, Metrics& out) {
  std::uint64_t wrong = 0;
  const std::uint64_t probe_seed = derive_seed(seed, 20);
  std::vector<KernelTable> tables;
  {
    auto s = tracer.span("probe.stream_kernel");
    const SparseGenerator sparse(seed);
    tables.push_back(probe_stream(sparse.initial(), probe_seed, wrong, out));
  }
  const std::vector<double> dense = dense_fitness(seed);
  {
    auto s = tracer.span("probe.det_kernel");
    tables.push_back(probe_det(dense, probe_seed, wrong, out));
  }
  {
    auto s = tracer.span("probe.wheelset");
    tables.push_back(probe_wheelset(seed, wrong, out));
  }
  {
    auto s = tracer.span("probe.pool_dist");
    probe_pool_and_dist(dense, probe_seed, wrong, out);
  }
  {
    auto s = tracer.span("probe.persist");
    probe_persist(seed, work_dir + "/persist-probe", wrong, out);
  }
  for (const KernelTable& t : tables) {
    t.print();
    const std::string base = std::string("core.kernel.") + t.kernel;
    if (std::string(t.kernel) != "wheelset") out.set(base + ".ns_per_bid", t.total, "ns");
    out.set(base + ".residual_frac", t.residual_frac(), "fraction");
    out.set(base + ".floor_ratio", t.floor_ratio(), "ratio");
  }
  return wrong;
}

}  // namespace perfbench
