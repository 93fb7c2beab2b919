// The traced pass: per-layer metrics for one workload (README.md,
// "Per-layer metrics").
//
// After the same set-up as the timed window, every program gets kRounds
// untraced and kRounds traced calls, interleaved. Each traced call installs
// a fresh obs::TraceRecorder, so no per-thread buffer reaches its cap; the
// spans the program already emits and the runtime's counters are read back
// through public calls only. Direct-timing probes then time single layers
// in isolation. Nothing here adds instrumentation to the program.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "lime/frontend.h"
#include "lime/type.h"
#include "lmbench.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/trace.h"
#include "runtime/executor.h"
#include "runtime/fifo.h"
#include "serde/batch.h"

namespace lmbench {

using lm::bc::Value;
using lm::runtime::LiquidRuntime;

namespace {

constexpr int kRounds = 20;
constexpr int kCompileReps = 5;
constexpr int kPoolReps = 30;
constexpr int kSerdeReps = 200;
constexpr int kRttReps = 200;
constexpr size_t kFifoElems = size_t{1} << 20;
constexpr size_t kSerdeElems = 4096;
/// Input elements each filter is timed on in the interpreter probe.
constexpr size_t kFilterElems = 4096;
/// Largest reconciliation residual a valid pass may show.
constexpr double kMaxResidual = 0.05;

/// Attribution categories (obs/attribution.h) and their metric names. A
/// compute category carries the device's cost label ("compute:gpu/opencl"),
/// so categories match by prefix.
const std::pair<const char*, const char*> kCategories[] = {
    {"compute:cpu", "attr.compute_cpu_share"},
    {"compute:gpu", "attr.compute_gpu_share"},
    {"compute:fpga", "attr.compute_fpga_share"},
    {"serde", "attr.serde_share"},
    {"queue-wait", "attr.queue_wait_share"},
    {"fifo-blocked", "attr.fifo_blocked_share"},
    {"sched", "attr.sched_share"},
};

/// What the traced calls observed, summed over the pass.
struct Ledger {
  uint64_t calls = 0;
  uint64_t elements = 0;
  double call_us = 0;
  double substitute_us = 0;
  double graph_us = 0;
  double outside_us = 0;
  /// Span time that fell outside the call it belongs to.
  double overrun_us = 0;
  double launch_us = 0;
  uint64_t launches = 0, launch_items = 0;
  double rtl_us = 0;
  uint64_t rtl_batches = 0, rtl_elems = 0;
  uint64_t drains = 0, drain_elems = 0;
  std::map<std::string, double> category_us;
  double attr_wall_us = 0;
  uint64_t graphs = 0;
  std::map<std::string, uint64_t> counters;
  uint64_t fifo_high_water = 0;
  uint64_t dropped = 0;
  /// oneshot: the request wall and the sum of its timed parts.
  double request_wall_s = 0, request_parts_s = 0;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// An unsigned field of a span's pre-rendered JSON args ("key":123).
uint64_t arg_u64(const std::string& args, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const size_t at = args.find(pat);
  if (at == std::string::npos) return 0;
  return std::strtoull(args.c_str() + at + pat.size(), nullptr, 10);
}

void read_spans(const lm::obs::TraceRecorder& rec, const CallResult& r,
                Ledger& l) {
  double sub = 0, graph = 0;
  for (const lm::obs::TraceEvent& e : rec.events()) {
    if (e.phase != lm::obs::TraceEvent::Phase::kComplete) continue;
    const std::string& n = e.name;
    if (n == "substitute") {
      sub += e.dur_us;
    } else if (n == "graph.run") {
      graph += e.dur_us;
    } else if (starts_with(n, "launch:")) {
      l.launch_us += e.dur_us;
      ++l.launches;
      l.launch_items += arg_u64(e.args, "items");
    } else if (starts_with(n, "rtl:")) {
      l.rtl_us += e.dur_us;
      ++l.rtl_batches;
      l.rtl_elems += arg_u64(e.args, "elements");
    } else if (starts_with(n, "drain:")) {
      ++l.drains;
      l.drain_elems += arg_u64(e.args, "elements");
    }
  }
  const double call_us = r.call_s * 1e6;
  const double outside = call_us - sub - graph;
  l.call_us += call_us;
  l.substitute_us += sub;
  l.graph_us += graph;
  l.outside_us += std::max(0.0, outside);
  l.overrun_us += std::max(0.0, -outside);
}

template <typename F>
double median_time_s(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// lmdev child
// ---------------------------------------------------------------------------

/// An lmdev child process serving one Lime source over loopback. The child
/// dies with this process (PR_SET_PDEATHSIG) and is reaped by stop().
class LmdevChild {
 public:
  LmdevChild() = default;
  ~LmdevChild() { stop(); }
  LmdevChild(const LmdevChild&) = delete;
  LmdevChild& operator=(const LmdevChild&) = delete;

  /// Spawns lmdev on `lime_path` and waits for its endpoint line.
  void start(const std::string& lime_path);
  /// SIGTERM + waitpid. Idempotent.
  void stop();
  const std::string& endpoint() const { return endpoint_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string endpoint_;
};

/// Writes intpipe's Lime source under the build directory for an lmdev
/// child to serve; returns the path.
std::string intpipe_source_file() {
  const std::string path = std::string(LMBENCH_WORK_DIR) + "/intpipe.lime";
  std::ofstream out(path);
  out << lm::workloads::pipeline_suite().front().lime_source;
  if (!out) throw std::runtime_error("cannot write " + path);
  return path;
}

void LmdevChild::start(const std::string& lime_path) {
  stop();
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  const char* exe = LMBENCH_LMDEV;
  const char* path = lime_path.c_str();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(1);
    dup2(fds[1], STDOUT_FILENO);
    execl(exe, exe, path, "--quiet", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  // lmdev always prints "lmdev: serving N artifact(s) on HOST:PORT".
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = left > 0 ? poll(&pfd, 1, static_cast<int>(left)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    char buf[256];
    const ssize_t got = ready > 0 ? read(out_fd_, buf, sizeof buf) : 0;
    if (got <= 0) {
      stop();
      throw std::runtime_error("lmdev did not report its endpoint");
    }
    line.append(buf, static_cast<size_t>(got));
  }
  const size_t at = line.find(" on ");
  if (at == std::string::npos) {
    stop();
    throw std::runtime_error("unexpected lmdev output: " + line);
  }
  endpoint_ = line.substr(at + 4, line.find('\n', at) - at - 4);
}

void LmdevChild::stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
  endpoint_.clear();
}

// ---------------------------------------------------------------------------
// Direct-timing probes
// ---------------------------------------------------------------------------

/// lime.frontend_ms, compile.{midend,gpu,fpga}_ms: means over the
/// workload's programs of the median compile time under each backend set.
void compile_probes(const Bench& b, std::vector<Metric>* out) {
  std::vector<double> fe, mid, gpu, fpga;
  for (const Program& p : b.programs) {
    const std::string& src = p.w->lime_source;
    auto compile_with = [&](bool g, bool f) {
      lm::runtime::CompileOptions o;
      o.enable_gpu = g;
      o.enable_fpga = f;
      return median_time_s(kCompileReps,
                           [&] { (void)lm::runtime::compile(src, o); });
    };
    const double t_fe = median_time_s(
        kCompileReps, [&] { (void)lm::lime::compile_source(src); });
    const double t_none = compile_with(false, false);
    fe.push_back(t_fe * 1e3);
    mid.push_back((t_none - t_fe) * 1e3);
    gpu.push_back((compile_with(true, false) - t_none) * 1e3);
    fpga.push_back((compile_with(false, true) - t_none) * 1e3);
  }
  out->push_back({"lime.frontend_ms", mean(fe), "ms"});
  out->push_back({"compile.midend_ms", mean(mid), "ms"});
  out->push_back({"compile.gpu_ms", mean(gpu), "ms"});
  out->push_back({"compile.fpga_ms", mean(fpga), "ms"});
}

/// Construct + destroy an executor with the default (nproc) workers.
double pool_start_us() {
  return median_time_s(kPoolReps, [] {
           lm::runtime::Executor::Options o;
           lm::runtime::Executor ex(o);
         }) *
         1e6;
}

/// ns per element through a ValueFifo of the runtime's default capacity,
/// one producer thread and one consumer thread.
double fifo_handoff_ns(bool batch) {
  using lm::runtime::FifoSignal;
  lm::runtime::ValueFifo fifo(lm::runtime::RuntimeConfig{}.fifo_capacity);
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (size_t i = 0; i < kFifoElems; ++i) {
      Value v = Value::i32(static_cast<int32_t>(i & 0xffff));
      while (fifo.try_push(v) == FifoSignal::kWouldBlock) {
        std::this_thread::yield();
      }
    }
    fifo.finish();
  });
  uint64_t sum = 0, got = 0;
  std::vector<Value> buf;
  for (;;) {
    buf.clear();
    FifoSignal s;
    if (batch) {
      s = fifo.try_pop_batch(fifo.capacity(), &buf);
    } else {
      buf.emplace_back();
      s = fifo.try_pop(&buf.back());
    }
    if (s == FifoSignal::kWouldBlock) {
      std::this_thread::yield();
      continue;
    }
    if (s != FifoSignal::kOk) break;
    for (const Value& v : buf) sum += static_cast<uint64_t>(v.as_i32());
    got += buf.size();
  }
  producer.join();
  const double s = seconds_since(t0);
  uint64_t want = 0;
  for (size_t i = 0; i < kFifoElems; ++i) want += i & 0xffff;
  if (got != kFifoElems || sum != want) {
    throw std::runtime_error("FIFO probe lost or corrupted elements");
  }
  return s / static_cast<double>(kFifoElems) * 1e9;
}

/// ns per byte to pack / unpack 4096-element i32 and f32 batches.
void serde_probes(std::vector<Metric>* out) {
  double pack_s = 0, unpack_s = 0, bytes = 0;
  for (bool f32 : {false, true}) {
    const lm::lime::TypeRef t =
        f32 ? lm::lime::Type::float_() : lm::lime::Type::int_();
    std::vector<Value> elems;
    for (size_t i = 0; i < kSerdeElems; ++i) {
      elems.push_back(f32 ? Value::f32(static_cast<float>(i) * 0.5f)
                          : Value::i32(static_cast<int32_t>(i)));
    }
    const std::vector<uint8_t> packed = lm::serde::pack_batch(elems, t);
    if (!lm::serde::unpack_batch(packed, t).back().equals(elems.back())) {
      throw std::runtime_error("serde probe round trip differs");
    }
    pack_s += median_time_s(kSerdeReps,
                            [&] { (void)lm::serde::pack_batch(elems, t); });
    unpack_s += median_time_s(
        kSerdeReps, [&] { (void)lm::serde::unpack_batch(packed, t); });
    bytes += static_cast<double>(packed.size());
  }
  out->push_back({"serde.pack_ns_per_byte", pack_s / bytes * 1e9, "ns/B"});
  out->push_back({"serde.unpack_ns_per_byte", unpack_s / bytes * 1e9, "ns/B"});
}

/// Round trip of a one-element batch to an lmdev child serving intpipe.
double rtt_us() {
  const auto& intpipe = lm::workloads::pipeline_suite().front();
  LmdevChild server;
  server.start(intpipe_source_file());
  auto cp = lm::runtime::compile(intpipe.lime_source);
  std::string host;
  uint16_t port = 0;
  lm::net::parse_endpoint(server.endpoint(), &host, &port);
  lm::net::RemoteSession session(host, port,
                                 lm::net::program_fingerprint(cp->store));
  std::string task;
  for (const lm::net::ArtifactListing& l : session.list()) {
    if (l.device == lm::runtime::DeviceKind::kGpu && l.arity == 1) {
      task = l.task_id;
      break;
    }
  }
  if (task.empty()) throw std::runtime_error("lmdev serves no GPU artifact");
  const std::vector<Value> one = {Value::i32(7)};
  const std::vector<uint8_t> batch =
      lm::serde::pack_batch(one, lm::lime::Type::int_());
  auto round_trip = [&] {
    (void)session.process(task, lm::runtime::DeviceKind::kGpu, batch);
  };
  for (int i = 0; i < 10; ++i) round_trip();
  return median_time_s(kRttReps, round_trip) * 1e6;
}

/// interp.filter_call_ns per (program, filter), and per graph program the
/// summed filter time per element, from the interpreter alone.
void filter_probes(const Bench& b, std::vector<double>* per_filter_ns,
                   std::vector<double>* per_program_ns) {
  for (const Program& p : b.programs) {
    auto cp = lm::runtime::compile(p.w->lime_source);
    std::vector<int> filters;
    for (const auto& g : cp->graphs.graphs) {
      for (const auto& node : g.nodes) {
        if (node.kind == lm::ir::TaskNodeInfo::Kind::kFilter) {
          filters.push_back(cp->bytecode->index_of(node.task_id));
        }
      }
    }
    if (filters.empty()) {
      per_program_ns->push_back(-1);  // a map/reduce program: no filters
      continue;
    }
    LiquidRuntime rt(*cp);
    const lm::bc::ArrayValue& input = *p.args.front().as_array();
    std::vector<Value> stream;
    for (size_t i = 0; i < std::min(input.size(), kFilterElems); ++i) {
      stream.push_back(lm::bc::array_get(input, i));
    }
    double sum_ns = 0;
    for (int idx : filters) {
      if (idx < 0) throw std::runtime_error("filter method not in bytecode");
      std::vector<Value> next;
      next.reserve(stream.size());
      const auto t0 = Clock::now();
      for (const Value& v : stream) {
        next.push_back(rt.interpreter().call(idx, {v}));
      }
      const double ns =
          seconds_since(t0) / static_cast<double>(stream.size()) * 1e9;
      per_filter_ns->push_back(ns);
      sum_ns += ns;
      stream = std::move(next);
    }
    per_program_ns->push_back(sum_ns);
  }
}

void print_reconciliation(const Bench& b, const Ledger& l,
                          double request_residual, double call_residual,
                          double graph_residual) {
  std::printf("# reconciliation: %s (%llu traced calls, %llu graphs)\n",
              b.name.c_str(), static_cast<unsigned long long>(l.calls),
              static_cast<unsigned long long>(l.graphs));
  std::printf("#   %-44s %12s %12s %9s\n", "row", "parts (ms)", "wall (ms)",
              "residual");
  if (b.oneshot) {
    std::printf("#   %-44s %12.3f %12.3f %8.2f%%\n",
                "request = compile+construct+call+teardown",
                l.request_parts_s * 1e3, l.request_wall_s * 1e3,
                request_residual * 100);
  }
  std::printf("#   %-44s %12.3f %12.3f %8.2f%%\n",
              "call = substitute+graph.run+outside",
              (l.substitute_us + l.graph_us + l.outside_us) / 1e3,
              l.call_us / 1e3, call_residual * 100);
  double cat_us = 0;
  for (const auto& [name, us] : l.category_us) cat_us += us;
  std::printf("#   %-44s %12.3f %12.3f %8.2f%%\n", "graph.run = sum of categories",
              cat_us / 1e3, l.attr_wall_us / 1e3, graph_residual * 100);
  for (const auto& [name, us] : l.category_us) {
    std::printf("#     %-42s %12.3f %12s %8.1f%%\n", name.c_str(), us / 1e3,
                "", ratio(us, l.attr_wall_us) * 100);
  }
}

}  // namespace

bool traced_pass(Bench& b, uint64_t seed, const SetupTimes& setup,
                 std::vector<Metric>* out, uint64_t* attempted,
                 uint64_t* failed) {
  // Recorders outlive the runtimes: a runtime's tasks and threads may still
  // hold a pointer they read while a recorder was installed.
  std::vector<std::unique_ptr<lm::obs::TraceRecorder>> recorders;
  Ledger l;
  // The runtime's counters and attributions, read around each traced call.
  std::map<std::string, uint64_t> counters0;
  size_t attributions0 = 0;
  const Hook before = [&](LiquidRuntime& rt) {
    counters0 = rt.metrics().snapshot();
    attributions0 = rt.attributions().size();
  };
  const Hook after = [&](LiquidRuntime& rt) {
    // Read while the call's recorder is still installed: attributions()
    // resolves pending graphs against the installed recorder.
    const std::vector<lm::obs::Attribution> atts = rt.attributions();
    for (size_t i = attributions0; i < atts.size(); ++i) {
      ++l.graphs;
      l.attr_wall_us += atts[i].wall_us;
      for (const auto& c : atts[i].categories) l.category_us[c.name] += c.us;
    }
    for (const auto& [name, v] : rt.metrics().snapshot()) {
      if (name == "fifo.high_water") {
        l.fifo_high_water = std::max(l.fifo_high_water, v);
      } else {
        l.counters[name] += v - counters0[name];
      }
    }
  };
  std::vector<std::vector<double>> plain(b.programs.size()),
      traced(b.programs.size());
  std::vector<size_t> order(b.programs.size());
  std::iota(order.begin(), order.end(), 0);
  lm::SplitMix64 rng(seed ^ 0x7472616365ULL);
  uint64_t calls = 0, fails = 0;

  for (int round = 0; round < kRounds; ++round) {
    shuffle(order, rng);
    for (size_t i : order) {
      Program& p = b.programs[i];
      for (int k = 0; k < 2; ++k) {
        const bool trace_this = (k == 0) == (round % 2 == 0);
        ++calls;
        if (!trace_this) {
          CallResult r = timed_call(b, p);
          if (!r.ok) {
            ++fails;
            continue;
          }
          plain[i].push_back(r.call_s);
          l.request_wall_s += r.wall_s;
          l.request_parts_s +=
              r.compile_s + r.construct_s + r.call_s + r.teardown_s;
          continue;
        }
        recorders.push_back(std::make_unique<lm::obs::TraceRecorder>());
        lm::obs::TraceRecorder& rec = *recorders.back();
        rec.install();
        CallResult r = timed_call(b, p, before, after);
        rec.uninstall();
        l.dropped += rec.dropped_events();
        if (!r.ok) {
          ++fails;
          std::fprintf(stderr, "lmbench: traced %s: %s\n", p.w->name.c_str(),
                       r.error.c_str());
          continue;
        }
        traced[i].push_back(r.call_s);
        ++l.calls;
        l.elements += p.n;
        read_spans(rec, r, l);
      }
    }
  }

  std::vector<double> filter_ns, program_filter_ns;
  filter_probes(b, &filter_ns, &program_filter_ns);
  std::vector<double> overhead_ns, trace_ratio;
  for (size_t i = 0; i < b.programs.size(); ++i) {
    if (plain[i].empty() || traced[i].empty()) continue;
    const double plain_s = median(plain[i]);
    trace_ratio.push_back(median(traced[i]) / plain_s);
    if (program_filter_ns[i] >= 0) {
      overhead_ns.push_back(plain_s / static_cast<double>(b.programs[i].n) *
                                1e9 -
                            program_filter_ns[i]);
    }
  }

  auto counter = [&](const char* name) {
    auto it = l.counters.find(name);
    return it == l.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double kelems = static_cast<double>(l.elements) / 1e3;
  double cat_us = 0;
  for (const auto& [name, us] : l.category_us) cat_us += us;
  const double coverage = ratio(cat_us, l.attr_wall_us);

  out->push_back({"setup.compile_s", setup.compile_s, "s"});
  out->push_back({"setup.runtime_s", setup.runtime_s, "s"});
  out->push_back({"setup.warmup_s", setup.warmup_s, "s"});
  compile_probes(b, out);
  out->push_back({"runtime.substitute_us",
                  ratio(l.substitute_us, static_cast<double>(l.calls)), "us"});
  out->push_back({"runtime.candidates_per_graph",
                  ratio(counter("runtime.candidates_profiled"),
                        counter("runtime.graphs_executed")),
                  "count"});
  out->push_back({"runtime.outside_graph_us",
                  ratio(l.outside_us, static_cast<double>(l.calls)), "us"});
  out->push_back({"executor.pool_start_us", pool_start_us(), "us"});
  for (const char* c : {"steps", "parks", "wakeups", "steals"}) {
    out->push_back({std::string("executor.") + c + "_per_kelem",
                    ratio(counter((std::string("executor.") + c).c_str()),
                          kelems),
                    "count"});
  }
  out->push_back({"fifo.handoff_ns", fifo_handoff_ns(false), "ns"});
  out->push_back({"fifo.batch_handoff_ns", fifo_handoff_ns(true), "ns"});
  out->push_back({"fifo.high_water", static_cast<double>(l.fifo_high_water),
                  "count"});
  out->push_back({"interp.filter_call_ns", mean(filter_ns), "ns"});
  out->push_back({"runtime.overhead_ns_per_elem", mean(overhead_ns), "ns"});
  for (const auto& [category, metric] : kCategories) {
    double us = 0;
    for (const auto& [name, t] : l.category_us) {
      if (starts_with(name, category)) us += t;
    }
    out->push_back({metric, ratio(us, l.attr_wall_us), "fraction"});
  }
  out->push_back({"attr.coverage", coverage, "fraction"});
  out->push_back({"gpu.launch_us",
                  ratio(l.launch_us, static_cast<double>(l.launches)), "us"});
  out->push_back({"gpu.ns_per_elem",
                  ratio(l.launch_us * 1e3, static_cast<double>(l.launch_items)),
                  "ns"});
  out->push_back({"rtl.us_per_batch",
                  ratio(l.rtl_us, static_cast<double>(l.rtl_batches)), "us"});
  out->push_back({"rtl.ns_per_elem",
                  ratio(l.rtl_us * 1e3, static_cast<double>(l.rtl_elems)),
                  "ns"});
  serde_probes(out);
  out->push_back({"marshal.bytes_per_elem",
                  ratio(counter("marshal.bytes_to_device") +
                            counter("marshal.bytes_from_device"),
                        static_cast<double>(l.drain_elems)),
                  "B"});
  out->push_back({"marshal.elems_per_batch",
                  ratio(static_cast<double>(l.drain_elems),
                        static_cast<double>(l.drains)),
                  "count"});
  out->push_back({"net.rtt_us", rtt_us(), "us"});
  out->push_back({"obs.trace_overhead_pct", (geomean(trace_ratio) - 1) * 100,
                  "%"});
  out->push_back({"trace.dropped_events", static_cast<double>(l.dropped),
                  "count"});

  const double request_residual =
      b.oneshot ? std::abs(l.request_wall_s - l.request_parts_s) /
                      l.request_wall_s
                : 0;
  const double call_residual = ratio(l.overrun_us, l.call_us);
  const double graph_residual = std::abs(coverage - 1);
  print_reconciliation(b, l, request_residual, call_residual, graph_residual);

  bool valid = true;
  auto require = [&](bool ok, const std::string& why) {
    if (!ok) {
      std::fprintf(stderr, "lmbench: traced pass invalid: %s\n", why.c_str());
      valid = false;
    }
  };
  require(l.dropped == 0, std::to_string(l.dropped) + " trace events dropped");
  require(l.graphs > 0, "no graph was attributed");
  require(graph_residual <= kMaxResidual,
          "attribution coverage " + std::to_string(coverage));
  require(call_residual <= kMaxResidual,
          "call residual " + std::to_string(call_residual));
  require(request_residual <= kMaxResidual,
          "request residual " + std::to_string(request_residual));

  for (Program& p : b.programs) {
    p.rt.reset();
    p.cp.reset();
  }
  *attempted = calls;
  *failed = fails;
  return valid;
}

}  // namespace lmbench
