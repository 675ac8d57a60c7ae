// lrb_perfbench: runs one workload as a closed loop and prints every metric
// by name with its unit, then one JSON result line.
//
//   lrb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--git <describe>] [--inputs-only]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// alternates untraced and traced passes of a fixed op count (the traced
// overhead), then runs the layer probes (layers.hpp); spans are kept in
// memory and written to <work-dir>/trace-<workload>.json at exit.
// --inputs-only prints the input hash and exits.  The exit code is 0 when
// every op succeeded and every checked op matched its reference.
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "layers.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"
#if defined(LRB_OBS_ENABLED)
#include "obs/registry.hpp"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inputs_only = false;
  std::string work_dir = ".bench_work";
  std::string git = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "lrb_perfbench: %s\nusage: lrb_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--git <describe>] "
               "[--inputs-only]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--inputs-only") {
      a.inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--work-dir") {
        a.work_dir = v;
      } else if (k == "--git") {
        a.git = v;
      } else {
        usage(("unknown option " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char s[49] = {};
  std::memcpy(s, regs, 48);
  std::string m(s);
  m.erase(0, m.find_first_not_of(' '));
  return m;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string provenance(const Args& a, std::uint64_t input_hash) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(input_hash));
  return std::string("{") + "\"git\": \"" + json_escape(a.git) + "\", \"compiler\": \"" +
         json_escape(PERFBENCH_COMPILER) + "\", \"flags\": \"" +
         json_escape(PERFBENCH_FLAGS) + "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
         "\", \"lrb_native\": \"" + PERFBENCH_LRB_NATIVE + "\", \"simd\": \"" +
         lrb::simd::target_name() + "\", \"cpu\": \"" + json_escape(cpu_model()) +
         "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": \"" + a.workload + "\", \"seed\": " + std::to_string(a.seed) +
         ", \"input_hash\": \"" + hash + "\"}";
}

/// High-water resident set of this process image.  VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across execve, so it would report the launching
/// process's peak whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Restarts VmHWM at the current resident set, so the peak excludes the
/// input generators' transient buffers.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The library's own counters, read at op boundaries in the traced run.
struct LibCounters {
  std::uint64_t log_evals = 0;
  std::uint64_t alias = 0;
  std::uint64_t bidding = 0;

  static LibCounters read() {
    LibCounters c;
#if defined(LRB_OBS_ENABLED)
    auto& reg = lrb::obs::Registry::global();
    static auto& stream = reg.counter("lrb_core_log_evals_total");
    static auto& det = reg.counter("lrb_core_det_log_evals_total");
    static auto& wheels = reg.counter("lrb_wheelset_log_evals_total");
    static auto& alias = reg.counter("lrb_core_crossover_alias_total");
    static auto& bidding = reg.counter("lrb_core_crossover_bidding_total");
    c.log_evals = stream.value() + det.value() + wheels.value();
    c.alias = alias.value();
    c.bidding = bidding.value();
#endif
    return c;
  }
};

/// Totals of a run of ops.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t threw = 0;
  std::uint64_t wrong = 0;
  std::uint64_t draws = 0;
  std::uint64_t bids = 0;
  double ns = 0.0;  ///< sum of op latencies
  std::vector<double> latency_ns;
  std::vector<double> host_ns;    ///< Workload::probe_host after each op
  std::vector<OpResult> results;  ///< per op, zero for an op that threw
  LibCounters counts;  ///< counter deltas (traced ops only)

  std::vector<double> setup_ns;       ///< set-ups repeated in the loop
  std::vector<std::size_t> setup_op;  ///< index of the op before each

  /// The run is cut into kWindows consecutive windows of equal op count,
  /// and the metrics keep the quieter half of them: those with the lowest
  /// median Workload::probe_host time.  On a shared host a neighbour's busy
  /// spell slows every op it overlaps.  The probe never runs the program,
  /// so the kept windows hold a fair share of every program cost, even one
  /// that lands on a few ops only.  Returns, per window, whether it is kept.
  [[nodiscard]] std::vector<bool> quiet_windows() const {
    std::vector<std::pair<double, std::size_t>> windows;
    for (std::size_t w = 0; w < kWindows; ++w) {
      if (window_begin(w) == window_begin(w + 1)) continue;
      const auto b = host_ns.begin();
      windows.emplace_back(
          median(std::vector<double>(b + static_cast<std::ptrdiff_t>(window_begin(w)),
                                     b + static_cast<std::ptrdiff_t>(window_begin(w + 1)))),
          w);
    }
    std::sort(windows.begin(), windows.end());
    std::vector<bool> keep(kWindows, false);
    for (std::size_t k = 0; k < (windows.size() + 1) / 2; ++k) keep[windows[k].second] = true;
    return keep;
  }

  /// The ops of the kept windows.
  [[nodiscard]] std::vector<std::size_t> quiet_ops() const {
    const std::vector<bool> keep = quiet_windows();
    std::vector<std::size_t> ops;
    for (std::size_t i = 0; i < latency_ns.size(); ++i) {
      if (keep[window_of(i)]) ops.push_back(i);
    }
    return ops;
  }

  /// The set-ups repeated in the kept windows (each belongs to the window
  /// of the op before it), or every one if none falls in a kept window.
  [[nodiscard]] std::vector<double> quiet_setups() const {
    const std::vector<bool> keep = quiet_windows();
    std::vector<double> out;
    for (std::size_t j = 0; j < setup_ns.size(); ++j) {
      if (keep[window_of(setup_op[j])]) out.push_back(setup_ns[j]);
    }
    return out.empty() ? setup_ns : out;
  }

  [[nodiscard]] std::size_t window_begin(std::size_t w) const {
    return latency_ns.size() * w / kWindows;
  }
  [[nodiscard]] std::size_t window_of(std::size_t op) const {
    std::size_t w = op * kWindows / latency_ns.size();
    while (w + 1 < kWindows && window_begin(w + 1) <= op) ++w;
    return w;
  }
  static constexpr std::size_t kWindows = 50;
};

/// Runs ops [first, first + count) -- or, with count == 0, until `seconds`
/// of wall time have passed -- as a closed loop.  With `setups`, the
/// workload is set up again after every Workload::setup_every() ops.
std::uint64_t run_ops(Workload& w, Tracer& tracer, HostProbe& host, std::uint64_t first,
                      std::uint64_t count, double seconds, bool setups, Tally& t) {
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t i = first;
  for (; count != 0 ? i < first + count : now_ns() - start < budget; ++i) {
    w.prepare(i);
    tracer.set_op(i);
    bool ok = true;
    OpResult r;
    LibCounters before;
    LibCounters after;
    const std::uint64_t t0 = now_ns();
    {
      auto op = tracer.span("op");
      if (tracer.enabled()) before = LibCounters::read();
      try {
        r = w.run(i, tracer);
      } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "op %llu threw: %s\n", static_cast<unsigned long long>(i),
                     e.what());
      }
      if (tracer.enabled()) after = LibCounters::read();
    }
    const std::uint64_t dt = now_ns() - t0;
    ++t.attempted;
    t.latency_ns.push_back(static_cast<double>(dt));
    t.host_ns.push_back(static_cast<double>(w.probe_host(host)));
    t.results.push_back(ok ? r : OpResult{});
    t.ns += static_cast<double>(dt);
    t.counts.log_evals += after.log_evals - before.log_evals;
    t.counts.alias += after.alias - before.alias;
    t.counts.bidding += after.bidding - before.bidding;
    if (!ok) {
      ++t.threw;
      continue;
    }
    t.draws += r.draws;
    t.bids += r.bids;
    try {
      t.wrong += w.check(i);
    } catch (const std::exception& e) {
      ++t.wrong;
      std::fprintf(stderr, "check of op %llu threw: %s\n",
                   static_cast<unsigned long long>(i), e.what());
    }
    if (setups && (i + 1) % w.setup_every() == 0) {
      t.setup_ns.push_back(static_cast<double>(w.setup()));
      t.setup_op.push_back(t.latency_ns.size() - 1);
    }
  }
  return i;
}

void print_metrics(const Metrics& m) {
  for (const auto& it : m.items()) {
    std::printf("%-36s %16.6g %s\n", it.name.c_str(), it.value, it.unit.c_str());
  }
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const Metrics& m) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  bool first = true;
  for (const auto& it : m.items()) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", it.name.c_str(), it.value, it.unit.c_str());
    s += buf;
    first = false;
  }
  return s + "}}";
}

constexpr std::uint64_t kWarmupOps = 2;

int run(const Args& a) {
  const std::string run_dir = a.work_dir + "/run-" + std::to_string(getpid());
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) usage(("unknown workload " + a.workload).c_str());

  const std::uint64_t input_hash = w->input_hash();
  const std::string prov = provenance(a, input_hash);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  std::printf("provenance %s\n", prov.c_str());
  std::printf("input_hash %016llx\n", static_cast<unsigned long long>(input_hash));
  if (a.inputs_only) return 0;
  std::filesystem::create_directories(run_dir);

  Tracer tracer;
  HostProbe host;
  Metrics m;
  Tally warm;
  w->generate();
  reset_peak_rss();
  const auto first_setup_ns = static_cast<double>(w->setup());
  std::uint64_t next = run_ops(*w, tracer, host, 0, kWarmupOps, 0.0, false, warm);

  std::uint64_t attempted = warm.attempted;
  std::uint64_t failed = warm.threw + warm.wrong;
  if (!a.trace) {
    Tally t;
    run_ops(*w, tracer, host, next, 0, a.seconds, true, t);
    attempted += t.attempted;
    failed += t.threw + t.wrong;
    const std::vector<std::size_t> quiet = t.quiet_ops();
    double ns = 0.0;
    double draws = 0.0;
    double bids = 0.0;
    std::vector<double> lat;
    std::vector<double> quiet_host;
    for (std::size_t i : quiet) {
      lat.push_back(t.latency_ns[i]);
      quiet_host.push_back(t.host_ns[i]);
      ns += t.latency_ns[i];
      draws += static_cast<double>(t.results[i].draws);
      bids += static_cast<double>(t.results[i].bids);
    }
    const double pct = supported_tail_percentile(lat.size());
    m.set("draws_per_s", draws / (ns * 1e-9), "1/s");
    m.set("ns_per_bid", ns / bids, "ns");
    // A run too short to repeat a set-up reports the first one.
    const std::vector<double> setups =
        t.setup_ns.empty() ? std::vector<double>{first_setup_ns} : t.quiet_setups();
    m.set("setup_s", median(setups) * 1e-9, "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    print_metrics(m);
    Metrics extra;
    extra.set("op_p50_us", quantile(lat, 0.5) * 1e-3, "us");
    extra.set("op_p99_us", quantile(lat, pct / 100.0) * 1e-3, "us");
    extra.set("op_samples", static_cast<double>(lat.size()), "count");
    extra.set("ops_run", static_cast<double>(t.latency_ns.size()), "count");
    extra.set("all_ops_p50_us", quantile(t.latency_ns, 0.5) * 1e-3, "us");
    extra.set("all_ops_ns_per_bid", t.ns / static_cast<double>(t.bids), "ns");
    extra.set("setup_samples", static_cast<double>(setups.size()), "count");
    extra.set("all_setups_s", t.setup_ns.empty() ? first_setup_ns * 1e-9 : median(t.setup_ns) * 1e-9, "s");
    extra.set("host_probe_ns", median(t.host_ns), "ns");
    extra.set("quiet_host_probe_ns", median(quiet_host), "ns");
    extra.set("op_tail_percentile", pct, "percentile");
    extra.set("failed_frac",
              static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
              "fraction");
    print_metrics(extra);
  } else {
    // Alternating passes from one continuing state: untraced, traced, ...
    // The first traced pass always covers the same ops, so its counts are
    // exact and repeat for a seed.
    const std::uint64_t pass = w->pass_ops();
    Tally plain, first, traced;
    const std::uint64_t start = now_ns();
    for (int p = 0; p == 0 || now_ns() - start < static_cast<std::uint64_t>(a.seconds * 1e9);
         ++p) {
      tracer.set_enabled(false);
      next = run_ops(*w, tracer, host, next, pass, 0.0, false, plain);
      tracer.set_enabled(true);
      next = run_ops(*w, tracer, host, next, pass, 0.0, false, p == 0 ? first : traced);
    }
    for (const Tally* t : {&plain, &first, &traced}) {
      attempted += t->attempted;
      failed += t->threw + t->wrong;
    }

    const double plain_rate = static_cast<double>(plain.draws) / plain.ns;
    const double traced_rate =
        static_cast<double>(first.draws + traced.draws) / (first.ns + traced.ns);
    const LibCounters& c = first.counts;
    failed += run_layer_probes(a.seed, run_dir, tracer, m);
    m.set("core.log_evals_per_draw",
          static_cast<double>(c.log_evals) / static_cast<double>(first.draws), "count");
    m.set("core.filter_skip_frac",
          1.0 - static_cast<double>(c.log_evals) / static_cast<double>(first.bids),
          "fraction");
    m.set("core.crossover.alias_frac",
          c.alias + c.bidding == 0
              ? 0.0
              : static_cast<double>(c.alias) / static_cast<double>(c.alias + c.bidding),
          "fraction");
    m.set("trace.overhead_frac", plain_rate / traced_rate - 1.0, "fraction");
    double op_total = 0.0;
    double op_self = 0.0;
    for (const auto& r : tracer.rollup()) {
      std::printf("span   %-34s count %8llu  total %12.3f ms  self %12.3f ms\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ns * 1e-6, r.self_ns * 1e-6);
      if (r.name == "op") {
        op_total = r.total_ns;
        op_self = r.self_ns;
      }
    }
    m.set("trace.op_self_frac", op_self / op_total, "fraction");
    print_metrics(m);
    const std::string path = a.work_dir + "/trace-" + a.workload + ".json";
    if (!tracer.write(path, prov, 200'000)) {
      std::fprintf(stderr, "lrb_perfbench: cannot write %s\n", path.c_str());
    }
  }
  w.reset();
  std::filesystem::remove_all(run_dir);

  failed = std::min(failed, attempted);
  std::printf("%s\n", result_json(failed == 0, attempted, failed, m).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrb_perfbench: %s\n", e.what());
    return 1;
  }
}
