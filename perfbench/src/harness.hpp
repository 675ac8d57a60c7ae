// Shared pieces of the benchmark program: the clock, the in-memory span
// recorder, order statistics, the input hash and the metric table.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Input generator engine.  The benchmark draws its inputs from its own
/// SplitMix64 rather than the library's engines, so a change to lrb::rng can
/// never change what the workloads feed the library.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform on [0, 1).
  double unit() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform on [0, bound).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(unit() * static_cast<double>(bound));
  }

 private:
  std::uint64_t state_;
};

/// Stream `stream` of the run seed: independent input streams per purpose.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) noexcept {
  InputRng r(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  return r.next();
}

/// FNV-1a over the raw bytes of the generated inputs.
class InputHash {
 public:
  void add_bytes(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  template <class T>
  void add(const T& v) noexcept { add_bytes(&v, sizeof v); }
  template <class T>
  void add_all(const std::vector<T>& v) noexcept {
    add(v.size());
    add_bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A fixed unit of host work, timed between ops outside the timed region:
/// dependent loads around a random 2 MiB ring (the shared cache's speed)
/// and a chain of integer multiplies (the core's), about equal in time.  It
/// never calls the library, so windows it marks as quiet are chosen by the
/// host's state, not by the program's cost.
class HostProbe {
 public:
  HostProbe();
  /// Nanoseconds for one unit of probe work.
  std::uint64_t time_ns() noexcept;

 private:
  static constexpr std::size_t kSlots = (std::size_t{2} << 20) / sizeof(std::uint32_t);
  static constexpr std::size_t kLoads = 256;
  static constexpr std::size_t kMixes = 16'000;
  std::vector<std::uint32_t> ring_;
  std::uint32_t at_ = 0;
  std::uint64_t mix_ = 1;
};

/// The host probe on two lanes, for an op that forks onto a second thread:
/// the caller and a helper thread of the benchmark's own each run one
/// HostProbe unit at once, and the time runs until both are done.  Like a
/// two-lane op, it is slowed by a lane that wakes late or shares a core.
class PairProbe {
 public:
  PairProbe();
  ~PairProbe();
  PairProbe(const PairProbe&) = delete;
  PairProbe& operator=(const PairProbe&) = delete;
  /// Nanoseconds until both lanes have run one unit; `mine` is the caller's.
  std::uint64_t time_ns(HostProbe& mine);

 private:
  void helper_loop();

  HostProbe theirs_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t round_ = 0;
  std::uint64_t done_ = 0;
  bool stop_ = false;
  std::thread helper_;
};

/// One recorded span: a call into a layer, or one op of the closed loop.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t op = 0;      ///< op id shared by every span of one op
};

/// In-memory span recorder.  Disabled, a scope costs one branch; enabled,
/// it costs two clock reads and a push.  Spans are written out only at exit.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, std::int32_t idx) noexcept : t_(t), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }

   private:
    Tracer* t_;
    std::int32_t idx_;
  };

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return Scope(nullptr, -1);
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, current_, op_});
    current_ = idx;
    return Scope(this, idx);
  }

  /// Per name: (total duration, total self time, count), where self time is
  /// the span minus the time its direct children cover.
  struct Rollup {
    std::string name;
    double total_ns = 0;
    double self_ns = 0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::vector<Rollup> rollup() const;

  /// Chrome trace-event JSON ("X" events, µs) with the provenance as
  /// metadata; at most `max_spans` events are written.
  bool write(const std::string& path, const std::string& provenance_json,
             std::size_t max_spans) const;

 private:
  void close(std::int32_t idx) noexcept {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(idx)].parent;
  }

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// Value at quantile q in [0, 1] of `v`, interpolating between order statistics.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// The tail percentile a sample of `n` supports: 99 when at least ten
/// samples lie beyond it, else the highest of the fallbacks that does.
[[nodiscard]] inline double supported_tail_percentile(std::size_t n) noexcept {
  for (double p : {99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

/// Named metrics in print order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Item>& items() const noexcept { return items_; }

 private:
  std::vector<Item> items_;
};

}  // namespace perfbench
