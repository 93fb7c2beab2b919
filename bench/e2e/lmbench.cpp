// lmbench — the end-to-end benchmark harness (README.md beside this file).
//
//   lmbench --workload W --seed S --seconds D --trace 0|1
//
// One process runs one workload, so peak RSS and process-wide state (the
// native-kernel registry, the flight recorder) never leak between them.
//
// --trace 0 sets the workload up kSetupReps times (setup_s is the median),
// then runs a closed loop with one caller thread for D seconds, and longer
// if a program has not had the 100 calls p90 needs: each round calls every
// program once, in an order drawn from the seed. Every call's output is
// checked against workloads::reference outside the timer. Times are scaled
// to the reference host by readings of a fixed mix of work (host_speed.h).
// --trace 1 runs the same set-up and then the traced pass (layers.cpp).
//
// Output: a "# env {...}" line, one "workload metric value unit" line per
// metric, and last the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).
#include "lmbench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "host_speed.h"

namespace lmbench {

using lm::runtime::Placement;

namespace {

constexpr int kSetupReps = 9;
/// The least calls per program that give p90 ten samples beyond it.
constexpr uint64_t kMinCalls = 100;
/// Float results may differ from the reference in the last bits once a
/// device re-associates a reduction; integers and bits compare exactly.
constexpr double kRelTol = 1e-5;

const lm::workloads::Workload& find(
    const std::vector<lm::workloads::Workload>& suite, const char* name) {
  for (const auto& w : suite) {
    if (w.name == name) return w;
  }
  throw std::logic_error(std::string("no workload program ") + name);
}

/// E5 problem sizes (bench/bench_gpu_speedup.cpp).
size_t e5_size(const std::string& name) {
  if (name == "nbody") return 448;
  if (name == "matmul") return 4900;
  if (name == "mandelbrot") return 12288;
  if (name == "blackscholes") return 16384;
  if (name == "conv1d") return 32768;
  return size_t{1} << 18;
}

/// User + system CPU time of this process (all threads), seconds.
double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workloads, set-up and calls
// ---------------------------------------------------------------------------

std::unique_ptr<Bench> make_bench(const std::string& name, uint64_t seed) {
  using lm::workloads::gpu_suite;
  using lm::workloads::pipeline_suite;
  auto bench = std::make_unique<Bench>();
  Bench& b = *bench;
  b.name = name;
  auto add = [&](const lm::workloads::Workload& w, Placement placement,
                 size_t n) {
    Program p;
    p.w = &w;
    p.placement = placement;
    p.n = n;
    p.args = w.make_args(n, seed);
    p.expected = w.reference(p.args);
    b.programs.push_back(std::move(p));
  };
  if (name == "stream-cpu") {
    add(find(pipeline_suite(), "intpipe"), Placement::kCpuOnly, 1u << 15);
    add(find(pipeline_suite(), "crc8pipe"), Placement::kCpuOnly, 1u << 12);
    add(find(pipeline_suite(), "bitpipe"), Placement::kCpuOnly, 1u << 15);
  } else if (name == "offload-local") {
    lm::workloads::register_native_kernels();
    for (const auto& w : gpu_suite()) add(w, Placement::kAuto, e5_size(w.name));
    add(find(pipeline_suite(), "intpipe"), Placement::kFpgaOnly, 1u << 12);
    add(find(pipeline_suite(), "crc8pipe"), Placement::kFpgaOnly, 1u << 10);
    add(find(pipeline_suite(), "bitpipe"), Placement::kFpgaOnly, 1u << 12);
  } else if (name == "oneshot") {
    // Like `lmc file.lime --run`: no native kernels are registered.
    b.oneshot = true;
    for (const auto& w : gpu_suite()) add(w, Placement::kAdaptive, 256);
    for (const auto& w : pipeline_suite()) add(w, Placement::kAdaptive, 256);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return bench;
}

namespace {

std::unique_ptr<lm::runtime::CompiledProgram> compile_checked(
    const Program& p) {
  auto cp = lm::runtime::compile(p.w->lime_source);
  if (!cp->ok()) {
    throw std::runtime_error(p.w->name + " failed to compile:\n" +
                             cp->diags.to_string());
  }
  return cp;
}

}  // namespace

SetupTimes set_up(Bench& b) {
  for (Program& p : b.programs) {
    p.rt.reset();
    p.cp.reset();
  }

  SetupTimes t;
  const auto t_all = Clock::now();
  if (!b.oneshot) {
    for (Program& p : b.programs) {
      const auto t0 = Clock::now();
      p.cp = compile_checked(p);
      t.compile_s += seconds_since(t0);
    }
    for (Program& p : b.programs) {
      lm::runtime::RuntimeConfig rc;
      rc.placement = p.placement;
      const auto t0 = Clock::now();
      p.rt = std::make_unique<lm::runtime::LiquidRuntime>(*p.cp, rc);
      t.runtime_s += seconds_since(t0);
    }
  }
  const auto t_warm = Clock::now();
  for (Program& p : b.programs) {
    CallResult r = timed_call(b, p);
    if (!r.ok) {
      throw std::runtime_error("warm-up call of " + p.w->name +
                               " failed: " + r.error);
    }
  }
  t.warmup_s = seconds_since(t_warm);
  t.total_s = seconds_since(t_all);
  return t;
}

CallResult timed_call(Bench& b, Program& p, const Hook& before,
                      const Hook& after) {
  CallResult r;
  try {
    if (b.oneshot) {
      const auto t0 = Clock::now();
      auto cp = compile_checked(p);
      const auto t1 = Clock::now();
      lm::runtime::RuntimeConfig rc;
      rc.placement = p.placement;
      auto rt = std::make_unique<lm::runtime::LiquidRuntime>(*cp, rc);
      const auto t2 = Clock::now();
      if (before) before(*rt);
      const auto t3 = Clock::now();
      r.out = rt->call(p.w->entry, p.args);
      const auto t4 = Clock::now();
      if (after) after(*rt);
      const auto t5 = Clock::now();
      rt.reset();
      cp.reset();
      const auto t6 = Clock::now();
      auto s = [](Clock::time_point a, Clock::time_point z) {
        return std::chrono::duration<double>(z - a).count();
      };
      r.compile_s = s(t0, t1);
      r.construct_s = s(t1, t2);
      r.call_s = s(t3, t4);
      r.teardown_s = s(t5, t6);
      // One interval around the request, minus the hooks.
      r.wall_s = s(t0, t6) - s(t2, t3) - s(t4, t5);
    } else {
      if (before) before(*p.rt);
      const auto t0 = Clock::now();
      r.out = p.rt->call(p.w->entry, p.args);
      r.call_s = r.wall_s = seconds_since(t0);
      if (after) after(*p.rt);
    }
    r.ok = lm::workloads::results_match(r.out, p.expected, kRelTol);
    if (!r.ok) r.error = "result differs from the reference";
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  return r;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

void shuffle(std::vector<size_t>& order, lm::SplitMix64& rng) {
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

// ---------------------------------------------------------------------------
// The timed window
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of unsorted samples (q in [0,1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

struct ProgramWindow {
  std::vector<double> latency_s;
  double busy_s = 0;
  double cpu_s = 0;
  uint64_t calls = 0;
  uint64_t failed = 0;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Runs the closed loop for `seconds`, or longer until every program had
/// kMinCalls calls, and appends the end-to-end metrics.
///
/// Every time is divided by the host slowdown, the median of one
/// read_host_slowdown() per round, and every rate multiplied by it. So the
/// metrics read as if measured on the reference host, and a run that lands
/// in a slow period of a shared host reads like one that does not. Each
/// also appears unscaled, as `<name>_raw`.
void run_window(Bench& b, uint64_t seed, double seconds,
                std::vector<Metric>* out, uint64_t* attempted,
                uint64_t* failed) {
  std::vector<ProgramWindow> win(b.programs.size());
  std::vector<size_t> order(b.programs.size());
  std::iota(order.begin(), order.end(), 0);
  lm::SplitMix64 rng(seed ^ 0x6c6d62656e6368ULL);

  // Peak RSS is read after a fixed amount of work, kMinCalls rounds, so a
  // runtime that keeps memory per request cannot look worse for serving
  // more requests in the same window.
  double rss_mb = 0;
  std::vector<double> slowdowns;
  const auto t_start = Clock::now();
  for (uint64_t round = 0;
       round < kMinCalls || seconds_since(t_start) < seconds; ++round) {
    shuffle(order, rng);
    for (size_t i : order) {
      Program& p = b.programs[i];
      ProgramWindow& w = win[i];
      const double c0 = process_cpu_s();
      CallResult r = timed_call(b, p);
      const double c1 = process_cpu_s();
      ++w.calls;
      if (!r.ok) {
        if (w.failed++ == 0) {
          std::fprintf(stderr, "lmbench: %s: %s\n", p.w->name.c_str(),
                       r.error.c_str());
        }
        continue;
      }
      w.latency_s.push_back(r.wall_s);
      w.busy_s += r.wall_s;
      w.cpu_s += c1 - c0;
    }
    if (round + 1 == kMinCalls) rss_mb = peak_rss_mb();
    slowdowns.push_back(read_host_slowdown());
  }
  const double window_s = seconds_since(t_start);
  const double slowdown = median(slowdowns);

  std::vector<double> eps, p50, p90, cpu_ns;
  uint64_t calls = 0, fails = 0;
  for (size_t i = 0; i < b.programs.size(); ++i) {
    const Program& p = b.programs[i];
    const ProgramWindow& w = win[i];
    calls += w.calls;
    fails += w.failed;
    const double good = static_cast<double>(w.latency_s.size());
    if (good == 0) continue;
    const double elems = good * static_cast<double>(p.n);
    eps.push_back(elems / w.busy_s);
    p50.push_back(percentile(w.latency_s, 0.5) * 1e3);
    p90.push_back(percentile(w.latency_s, 0.9) * 1e3);
    cpu_ns.push_back(w.cpu_s / elems * 1e9);
    const std::string prog = "prog." + p.w->name;
    out->push_back({prog + ".eps", eps.back() * slowdown, "elements/s"});
    out->push_back({prog + ".latency_p50_ms", p50.back() / slowdown, "ms"});
    out->push_back({prog + ".latency_p90_ms", p90.back() / slowdown, "ms"});
    out->push_back({prog + ".calls", static_cast<double>(w.calls), "count"});
  }
  auto report = [&](const std::string& name, double raw, const char* unit,
                    bool rate) {
    out->push_back({name, rate ? raw * slowdown : raw / slowdown, unit});
    out->push_back({name + "_raw", raw, unit});
  };
  report("throughput_eps", geomean(eps), "elements/s", true);
  report("latency_p50_ms", geomean(p50), "ms", false);
  report("latency_p90_ms", geomean(p90), "ms", false);
  report("cpu_ns_per_elem", geomean(cpu_ns), "ns", false);
  out->push_back({"host_slowdown", slowdown, "x"});
  out->push_back({"peak_rss_mb", rss_mb, "MiB"});
  out->push_back({"failed_frac",
                  static_cast<double>(fails) / static_cast<double>(calls),
                  "fraction"});
  out->push_back({"window_s", window_s, "s"});
  *attempted = calls;
  *failed = fails;
}

/// The end-to-end metrics the result object carries (BENCHMARK.json); the
/// other window metrics appear only as lines. The traced pass's metrics all
/// go into the result object.
const char* const kEndToEnd[] = {"setup_s",        "throughput_eps",
                                 "latency_p50_ms", "latency_p90_ms",
                                 "cpu_ns_per_elem", "peak_rss_mb"};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: lmbench --workload "
               "stream-cpu|offload-local|oneshot\n"
               "               --seed S --seconds D --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace lmbench

int main(int argc, char** argv) {
  using namespace lmbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required: the run length is BENCHMARK.json's
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        seed = std::stoull(v);
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace = std::stoi(v);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || trace < 0 || trace > 1 || !(seconds > 0)) {
    return usage();
  }

  const char* commit = std::getenv("LMBENCH_COMMIT");
  std::printf(
      "# env {\"commit\":\"%s\",\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"nproc\":%u,\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d}\n",
      commit ? commit : "unknown", LMBENCH_BUILD_TYPE, LMBENCH_COMPILER,
      std::thread::hardware_concurrency(), workload.c_str(),
      static_cast<unsigned long long>(seed), json_number(seconds).c_str(),
      trace);
  std::fflush(stdout);

  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  bool valid = false;
  try {
    std::unique_ptr<Bench> bench = make_bench(workload, seed);
    Bench& b = *bench;
    // Each set-up is scaled by a host reading taken right after it: a
    // reading seconds away tracks a set-up this short less well.
    std::vector<SetupTimes> reps;
    std::vector<double> setup_scaled;
    for (int i = 0; i < kSetupReps; ++i) {
      reps.push_back(set_up(b));
      setup_scaled.push_back(reps.back().total_s / read_host_slowdown());
    }
    auto med = [&](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : reps) v.push_back(t.*field);
      return median(v);
    };
    const SetupTimes setup{
        med(&SetupTimes::compile_s), med(&SetupTimes::runtime_s),
        med(&SetupTimes::warmup_s), med(&SetupTimes::total_s)};
    if (trace == 0) {
      metrics.push_back({"setup_s", median(setup_scaled), "s"});
      metrics.push_back({"setup_s_raw", setup.total_s, "s"});
      run_window(b, seed, seconds, &metrics, &attempted, &failed);
      valid = true;
    } else {
      valid = traced_pass(b, seed, setup, &metrics, &attempted, &failed);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lmbench: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }

  bool finite = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "lmbench: %s is not finite\n", m.name.c_str());
      finite = false;
      continue;
    }
    std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }

  std::string body;
  auto emit = [&](const Metric& m) {
    if (!std::isfinite(m.value)) return;
    if (!body.empty()) body += ',';
    body += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  };
  for (const Metric& m : metrics) {
    const bool e2e = std::find(std::begin(kEndToEnd), std::end(kEndToEnd),
                               m.name) != std::end(kEndToEnd);
    if (trace == 1 || e2e) emit(m);
  }
  const bool correct = valid && finite && failed == 0 && attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), body.c_str());
  return 0;
}
