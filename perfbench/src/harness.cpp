#include "harness.hpp"

#include <fstream>

namespace perfbench {

HostProbe::HostProbe() : ring_(kSlots) {
  // One cycle through every slot in a shuffled order, from a fixed seed.
  std::vector<std::uint32_t> order(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) order[i] = static_cast<std::uint32_t>(i);
  InputRng rng(0x9b0be5eedULL);
  for (std::size_t i = kSlots - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
  for (std::size_t i = 0; i < kSlots; ++i) ring_[order[i]] = order[(i + 1) % kSlots];
}

std::uint64_t HostProbe::time_ns() noexcept {
  const std::uint64_t t0 = now_ns();
  std::uint32_t at = at_;
  for (std::size_t k = 0; k < kLoads; ++k) at = ring_[at];
  at_ = at;
  std::uint64_t x = mix_;
  for (std::size_t k = 0; k < kMixes; ++k) x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ULL;
  mix_ = x | 1;
  return now_ns() - t0;
}

PairProbe::PairProbe() : helper_([this] { helper_loop(); }) {}

PairProbe::~PairProbe() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  helper_.join();
}

std::uint64_t PairProbe::time_ns(HostProbe& mine) {
  const std::uint64_t t0 = now_ns();
  std::uint64_t round = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    round = ++round_;
  }
  cv_.notify_all();
  (void)mine.time_ns();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_ == round; });
  return now_ns() - t0;
}

void PairProbe::helper_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::uint64_t seen = 0;;) {
    cv_.wait(lock, [&] { return stop_ || round_ != seen; });
    if (stop_) return;
    seen = round_;
    lock.unlock();
    (void)theirs_.time_ns();
    lock.lock();
    done_ = seen;
    cv_.notify_all();
  }
}

std::vector<Tracer::Rollup> Tracer::rollup() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<Rollup> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Rollup& r) { return r.name == s.name; });
    if (it == out.end()) {
      out.push_back({s.name, 0.0, 0.0, 0});
      it = out.end() - 1;
    }
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    it->total_ns += d;
    it->self_ns += d - child_ns[i];
    it->count += 1;
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& provenance_json,
                   std::size_t max_spans) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"metadata\": " << provenance_json << ",\n\"traceEvents\": [\n";
  const std::size_t n = std::min(max_spans, spans_.size());
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%d}}%s\n",
                  s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.op), s.parent,
                  i + 1 < n ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
