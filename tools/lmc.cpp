// lmc — the Liquid Metal command-line compiler and runner.
//
// Compiles a Lime source file through the full Fig. 2 toolchain and
// optionally dumps artifacts or runs an entry point under a chosen
// placement policy.
//
// Usage:
//   lmc program.lime                        compile, list artifacts
//   lmc program.lime --emit=opencl          dump the OpenCL artifacts
//   lmc program.lime --emit=verilog         dump the Verilog artifacts
//   lmc program.lime --emit=bytecode        dump the bytecode disassembly
//   lmc program.lime --emit=graphs          dump discovered task graphs
//   lmc program.lime --run C.m --ints 1,2,3 [--placement auto|cpu|gpu|fpga|adaptive]
//   lmc program.lime --run C.m --floats 1.5,2.5
//   lmc program.lime --run C.m --bits 100
//   lmc program.lime --run C.m --ints .. --trace=out.json --metrics
//   lmc program.lime --run C.m --ints .. --report[=json]
//   lmc program.lime --analyze[=json]       static analysis report (LM codes)
//   lmc program.lime --static-cost          static per-(task, device) cost table
//   lmc program.lime --strict               fail (exit 1) on any warning
//
// --analyze runs the whole-program static analyzer (definite assignment,
// effect/isolation verification, task-graph hazards, FIFO deadlock proofs —
// DESIGN.md §S11, §13) and prints every finding with its stable LM code in
// deterministic order, followed by the per-device suitability notes (LM401/
// 402 exclusions, LM403 demotions). Exit status is 1 when errors are
// present (or, under --strict, any warning). Every kernel-IR program and
// netlist is validated before a simulated device runs it (DESIGN.md §8).
// --analyze=json emits one object: {"diagnostics": [...], "deadlock":
// [per-graph capacity verdicts with per-edge minimal safe capacities],
// "static_costs": [...]} — check.sh mines "deadlock" for the
// minimal-capacity differential soak.
//
// --static-cost prints the abstract-interpretation cost table
// (cost_estimate.h): predicted µs per element for every (task, device)
// pair, including fused segments. --fifo-capacity=N makes both the
// deadlock verifier and the runtime use capacity N. --no-calibration makes
// --placement adaptive skip the measuring prefix and place purely on the
// static seeds (the cold-start path; decisions log source=static).
//
// --trace records the run as Chrome-trace JSON (open in chrome://tracing
// or https://ui.perfetto.dev): per-task execution spans, substitution
// decisions with candidate scores, GPU launches, FPGA cycle counts, FIFO
// high-water counters. --metrics prints the runtime counter summary.
//
// --report prints the end-of-run performance report (per-task × per-device
// batch counts and latency percentiles, marshaled bytes, substitution and
// re-substitution history, dropped-trace-event counts); --report=json
// emits the same as a JSON document. --resub enables mid-run drift
// re-substitution under --placement adaptive.
//
// --explain runs the critical-path attribution engine (DESIGN.md §12)
// over the executed graphs and prints, per run, the top critical-path
// contributors, a category breakdown that sums to the wall time, and
// per-device utilization. --explain=json emits the same as JSON (one
// {"attributions":[..]} object); under a nonzero --sched-seed the JSON is
// the structural (timing-free) rendering, byte-identical across replays
// of the same seed. --explain works without --trace: lmc installs a
// recorder internally for the run.
//
// The flight recorder is always on; when a task faults (or a drift swap
// fires) the last events per thread are dumped as Chrome-trace JSON to
// lm-flight.json (--flight=<path> to move it, --flight=none to disable).
// Bare output filenames land under $LM_OUTPUT_DIR (default: the build
// tree), not the invoking CWD — see util/output_path.h.
//
// The --run input becomes a single value-array argument (int[[]]/float[[]]
// /bit[[]]) — the calling convention of every workload entry point in this
// repository.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cache/artifact_cache.h"
#include "net/attach.h"
#include "net/client.h"
#include "net/compile_client.h"
#include "net/scraper.h"
#include "net/telemetry_http.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"
#include "runtime/repository.h"
#include "util/output_path.h"
#include "util/strings.h"

namespace {

using namespace lm;

int usage() {
  std::cerr << "usage: lmc <file.lime> [--emit=opencl|verilog|bytecode|graphs]\n"
               "           [--run Class.method (--ints a,b,.. | --floats a,b,..\n"
               "            | --bits 0101..)] [--placement auto|cpu|gpu|fpga|adaptive]\n"
               "           [--no-gpu] [--no-fpga] [--quiet]\n"
               "           [--trace=<file.json>] [--metrics]\n"
               "           [--report[=json]] [--explain[=json]] [--resub]\n"
               "           [--flight=<file.json>|none]\n"
               "           [--analyze[=json]] [--strict] [--static-cost]\n"
               "           [--fifo-capacity=N] [--no-calibration]\n"
               "           [--remote=host:port[,host:port..]] [--device-batch=N]\n"
               "           [--telemetry-port=N] [--workers=N] [--sched-seed=S]\n"
               "           [--cache[=off|ro|rw]] [--cache-dir=<dir>]\n"
               "           [--compile-from=host:port]\n"
               "       lmc --fleet=host:port,.. --fleet-snapshot[=json]\n"
               "           [--slo=<rules-file>] [--fleet-interval=ms]\n";
  return 2;
}

runtime::Placement parse_placement(const std::string& s, bool* ok) {
  *ok = true;
  if (s == "auto") return runtime::Placement::kAuto;
  if (s == "cpu") return runtime::Placement::kCpuOnly;
  if (s == "gpu") return runtime::Placement::kGpuOnly;
  if (s == "fpga") return runtime::Placement::kFpgaOnly;
  if (s == "adaptive") return runtime::Placement::kAdaptive;
  *ok = false;
  return runtime::Placement::kAuto;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path;
  std::string emit;
  std::string emit_dir;
  std::string run_entry;
  std::string ints_arg, floats_arg, bits_arg;
  runtime::Placement placement = runtime::Placement::kAuto;
  runtime::CompileOptions copts;
  bool quiet = false;
  std::string trace_path;
  bool want_metrics = false;
  std::string report_mode;                    // "", "text" or "json"
  std::string explain_mode;                   // "", "text" or "json"
  std::string flight_path = "lm-flight.json";  // "" disables dumping
  bool enable_resub = false;
  std::string analyze_mode;  // "", "text" or "json"
  bool strict = false;
  bool static_cost = false;
  int64_t fifo_capacity = 0;  // 0 → defaults (compiler and runtime)
  bool no_calibration = false;
  std::vector<std::string> remote_endpoints;
  size_t device_batch = 0;  // 0 → RuntimeConfig default
  int telemetry_port = -1;  // <0 → exporter off; 0 → ephemeral port
  size_t workers = 0;       // 0 → hardware concurrency
  uint64_t sched_seed = 0;  // 0 → threaded; nonzero → deterministic replay
  std::string compile_from;  // empty → no compile service
  std::vector<std::string> fleet_endpoints;
  bool fleet_snapshot = false;
  int fleet_interval_ms = 200;
  std::string slo_path;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "lmc: " << what << " needs a value\n";
        exit(2);
      }
      return argv[++i];
    };
    if (a.rfind("--emit=", 0) == 0) {
      emit = a.substr(7);
    } else if (a == "--run") {
      run_entry = next("--run");
    } else if (a == "--ints") {
      ints_arg = next("--ints");
    } else if (a == "--floats") {
      floats_arg = next("--floats");
    } else if (a == "--bits") {
      bits_arg = next("--bits");
    } else if (a == "--placement") {
      bool ok;
      placement = parse_placement(next("--placement"), &ok);
      if (!ok) return usage();
    } else if (a == "--emit-dir") {
      emit_dir = next("--emit-dir");
    } else if (a == "--no-gpu") {
      copts.enable_gpu = false;
    } else if (a == "--no-fpga") {
      copts.enable_fpga = false;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
    } else if (a == "--trace") {
      trace_path = next("--trace");
    } else if (a == "--metrics") {
      want_metrics = true;
    } else if (a == "--report") {
      report_mode = "text";
    } else if (a.rfind("--report=", 0) == 0) {
      report_mode = a.substr(9);
      if (report_mode != "text" && report_mode != "json") {
        std::cerr << "lmc: --report takes 'text' or 'json'\n";
        return usage();
      }
    } else if (a == "--explain") {
      explain_mode = "text";
    } else if (a.rfind("--explain=", 0) == 0) {
      explain_mode = a.substr(10);
      if (explain_mode != "text" && explain_mode != "json") {
        std::cerr << "lmc: --explain takes 'text' or 'json'\n";
        return usage();
      }
    } else if (a.rfind("--flight=", 0) == 0) {
      flight_path = a.substr(9);
      if (flight_path == "none") flight_path.clear();
    } else if (a.rfind("--flight-path=", 0) == 0) {
      flight_path = a.substr(14);
      if (flight_path == "none") flight_path.clear();
    } else if (a == "--resub") {
      enable_resub = true;
    } else if (a == "--analyze") {
      analyze_mode = "text";
    } else if (a.rfind("--analyze=", 0) == 0) {
      analyze_mode = a.substr(10);
      if (analyze_mode != "text" && analyze_mode != "json") {
        std::cerr << "lmc: --analyze takes 'text' or 'json'\n";
        return usage();
      }
    } else if (a == "--strict") {
      strict = true;
    } else if (a == "--static-cost") {
      static_cost = true;
    } else if (a.rfind("--fifo-capacity=", 0) == 0) {
      fifo_capacity = std::stoll(a.substr(16));
    } else if (a == "--no-calibration") {
      no_calibration = true;
    } else if (a.rfind("--remote=", 0) == 0) {
      for (const auto& ep : split(a.substr(9), ',')) {
        if (!ep.empty()) remote_endpoints.push_back(ep);
      }
    } else if (a.rfind("--device-batch=", 0) == 0) {
      device_batch = static_cast<size_t>(std::stoul(a.substr(15)));
    } else if (a.rfind("--telemetry-port=", 0) == 0) {
      telemetry_port = static_cast<int>(std::stoul(a.substr(17)));
    } else if (a.rfind("--workers=", 0) == 0) {
      workers = static_cast<size_t>(std::stoul(a.substr(10)));
    } else if (a.rfind("--sched-seed=", 0) == 0) {
      sched_seed = std::stoull(a.substr(13));
    } else if (a == "--cache") {
      copts.cache.mode = cache::CacheMode::kReadWrite;
    } else if (a.rfind("--cache=", 0) == 0) {
      auto m = cache::parse_cache_mode(a.substr(8));
      if (!m) {
        std::cerr << "lmc: --cache takes 'off', 'ro' or 'rw'\n";
        return usage();
      }
      copts.cache.mode = *m;
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      copts.cache.dir = a.substr(12);
    } else if (a.rfind("--compile-from=", 0) == 0) {
      compile_from = a.substr(15);
    } else if (a.rfind("--fleet=", 0) == 0) {
      fleet_endpoints = net::split_endpoint_list(a.substr(8));
    } else if (a == "--fleet-snapshot" || a == "--fleet-snapshot=json") {
      fleet_snapshot = true;
    } else if (a.rfind("--fleet-interval=", 0) == 0) {
      fleet_interval_ms = std::max(10, std::atoi(a.c_str() + 17));
    } else if (a.rfind("--slo=", 0) == 0) {
      slo_path = a.substr(6);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "lmc: unknown flag " << a << "\n";
      return usage();
    } else {
      path = a;
    }
  }

  // Fleet snapshot mode is standalone: no .lime source, no compile — just
  // the scrape-merge-judge cycle against live endpoints, JSON on stdout.
  // CI and the future balancer both consume this.
  if (fleet_snapshot) {
    if (fleet_endpoints.empty()) {
      std::cerr << "lmc: --fleet-snapshot needs --fleet=host:port,..\n";
      return 2;
    }
    std::vector<obs::SloRule> rules;
    if (!slo_path.empty()) {
      std::ifstream sin(slo_path);
      if (!sin) {
        std::cerr << "lmc: cannot read SLO rules: " << slo_path << "\n";
        return 2;
      }
      std::stringstream ss;
      ss << sin.rdbuf();
      std::string err;
      if (!obs::parse_slo_rules(ss.str(), &rules, &err)) {
        std::cerr << "lmc: bad SLO rules (" << slo_path << "): " << err
                  << "\n";
        return 2;
      }
    }
    obs::SloWatchdog watchdog(rules);
    net::TelemetryScraper::Options sopts;
    sopts.interval_ms = fleet_interval_ms;
    sopts.timeout_ms = std::max(250, fleet_interval_ms);
    net::FleetCheckResult result =
        net::run_fleet_check(fleet_endpoints, &watchdog, 3, sopts);
    std::cout << result.snapshot.to_json() << "\n";
    for (const obs::SloViolation& v : result.violations) {
      std::cerr << "lmc: SLO violation: " << v.endpoint << ": " << v.rule
                << " (value " << v.value << ")\n";
    }
    if (result.snapshot.up == 0) {
      std::cerr << "lmc: no endpoint up\n";
      return 1;
    }
    return result.violations.empty() ? 0 : 1;
  }

  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "lmc: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  copts.fifo_capacity = fifo_capacity;

  // --explain needs trace events even when the user didn't ask for a trace
  // file. Installed *before* compilation so cache decisions (cache-hit/
  // cache-miss/cache-store instants) land in the same trace as the run.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!trace_path.empty() || !explain_mode.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    recorder->install();
  }

  // Compile service: ask an lmdev peer for each artifact by content key
  // before compiling it locally. Strictly an accelerator — any failure
  // falls back to the local compile.
  std::unique_ptr<net::CompileServiceClient> compile_service;
  if (!compile_from.empty()) {
    std::string host;
    uint16_t port = 0;
    try {
      net::parse_endpoint(compile_from, &host, &port);
    } catch (const std::exception& e) {
      std::cerr << "lmc: bad --compile-from endpoint: " << e.what() << "\n";
      return usage();
    }
    compile_service = std::make_unique<net::CompileServiceClient>(host, port);
    copts.remote_fetch = [&compile_service](uint64_t key,
                                            const std::string& backend,
                                            const std::string& task_id) {
      return compile_service->fetch(key, backend, task_id);
    };
  }

  auto program = runtime::compile(buf.str(), copts);

  if (!analyze_mode.empty()) {
    // Fold the structured suitability decisions in as LM4xx notes so one
    // engine provides ordering and deduplication for the whole report.
    DiagnosticEngine all = program->diags;
    for (const auto& f : program->suitability) {
      all.report(Severity::kNote, f.code, f.loc,
                 std::string("[") + runtime::to_string(f.device) + "] " +
                     f.task_id + ": " + f.reason);
    }
    if (analyze_mode == "json") {
      std::ostringstream os;
      os << "{\"diagnostics\": [";
      bool first = true;
      for (const auto& d : all.sorted()) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"code\": \"" << obs::json_escape(d.code)
           << "\", \"severity\": \"" << lm::to_string(d.severity)
           << "\", \"line\": " << d.loc.line
           << ", \"col\": " << d.loc.column << ", \"message\": \""
           << obs::json_escape(d.message) << "\"}";
      }
      os << (first ? "]" : "\n]");
      os << ",\n\"deadlock\": [";
      first = true;
      for (const auto& rep : program->capacity_reports) {
        if (!first) os << ",";
        first = false;
        std::string name = rep.graph && rep.graph->enclosing
                               ? rep.graph->enclosing->qualified_name()
                               : "<graph>";
        os << "\n  {\"graph\": \"" << obs::json_escape(name)
           << "\", \"line\": " << rep.loc.line
           << ", \"proven\": " << (rep.proven ? "true" : "false")
           << ", \"configured_capacity\": " << rep.configured_capacity
           << ", \"min_safe_capacity\": " << rep.min_safe_capacity
           << ", \"edges\": [";
        for (size_t e = 0; e < rep.edges.size(); ++e) {
          if (e) os << ", ";
          os << "{\"label\": \"" << obs::json_escape(rep.edges[e].label)
             << "\", \"push\": " << rep.edges[e].push
             << ", \"pop\": " << rep.edges[e].pop
             << ", \"min_capacity\": " << rep.edges[e].min_capacity << "}";
        }
        os << "]}";
      }
      os << (first ? "]" : "\n]");
      os << ",\n\"static_costs\": [";
      first = true;
      for (const auto& est : program->static_costs.estimates) {
        if (!first) os << ",";
        first = false;
        os << "\n  {\"task\": \"" << obs::json_escape(est.task_id)
           << "\", \"device\": \"" << est.device
           << "\", \"us_per_elem\": " << est.us_per_elem
           << ", \"bounded\": " << (est.bounded ? "true" : "false")
           << ", \"ops_per_fire\": " << est.ops_per_fire << "}";
      }
      os << (first ? "]" : "\n]") << "}\n";
      std::cout << os.str();
    } else {
      std::cout << all.to_string();
    }
    if (program->diags.has_errors()) return 1;
    if (strict && program->diags.warning_count() > 0) return 1;
    return 0;
  }

  if (!program->ok()) {
    std::cerr << program->diags.to_string();
    return 1;
  }

  if (static_cost) {
    std::cout << "static cost estimates (abstract interpretation, "
                 "cost_estimate.h):\n";
    if (program->static_costs.estimates.empty()) {
      std::cout << "  (no task graphs discovered)\n";
      return 0;
    }
    std::printf("%-40s %-6s %12s %10s %9s\n", "task", "device", "us/elem",
                "ops/fire", "bounded");
    for (const auto& e : program->static_costs.estimates) {
      std::printf("%-40s %-6s %12.4f %10.1f %9s\n", e.task_id.c_str(),
                  e.device.c_str(), e.us_per_elem, e.ops_per_fire,
                  e.bounded ? "yes" : "no");
    }
    return 0;
  }
  // Warnings still surface.
  if (!quiet && program->diags.error_count() == 0 &&
      !program->diags.diagnostics().empty()) {
    std::cerr << program->diags.to_string();
  }
  if (strict && program->diags.warning_count() > 0) {
    std::cerr << "lmc: failing on warnings (--strict)\n";
    return 1;
  }

  if (!quiet) {
    for (const auto& line : program->backend_log) {
      std::cout << line << "\n";
    }
    if (program->cache) {
      std::cout << "# cache: " << program->cache->summary() << "\n";
    }
    if (compile_service) {
      std::cout << "# compile-from " << compile_service->endpoint() << ": "
                << compile_service->fetched() << " fetched, "
                << compile_service->failed() << " missed\n";
    }
  }

  if (!emit_dir.empty()) {
    auto entries = runtime::write_artifact_bundle(*program, emit_dir);
    std::cout << "wrote " << entries.size() << " artifact(s) to " << emit_dir
              << "\n";
    return 0;
  }
  if (emit == "graphs") {
    for (const auto& g : program->graphs.graphs) {
      std::cout << g.enclosing->qualified_name() << ": " << g.to_string()
                << "\n";
    }
    return 0;
  }
  if (emit == "bytecode") {
    std::cout << program->bytecode->disassemble();
    return 0;
  }
  if (emit == "opencl" || emit == "verilog") {
    auto want = emit == "opencl" ? runtime::DeviceKind::kGpu
                                 : runtime::DeviceKind::kFpga;
    for (const runtime::Artifact* a : program->store.artifacts()) {
      if (a->manifest().device != want) continue;
      std::cout << "// ==== " << a->manifest().task_id << " ====\n"
                << a->text() << "\n";
    }
    return 0;
  }
  if (!emit.empty()) {
    std::cerr << "lmc: unknown --emit kind '" << emit << "'\n";
    return usage();
  }

  if (run_entry.empty()) {
    if (!quiet) {
      for (const auto* m : program->store.manifests()) {
        std::cout << m->to_string() << "\n";
      }
    }
    return 0;
  }

  // Build the single array argument.
  std::vector<bc::Value> args;
  if (!ints_arg.empty()) {
    std::vector<int32_t> vals;
    for (const auto& s : split(ints_arg, ',')) {
      vals.push_back(static_cast<int32_t>(std::stol(s)));
    }
    args.push_back(bc::Value::array(bc::make_i32_array(std::move(vals), true)));
  } else if (!floats_arg.empty()) {
    std::vector<float> vals;
    for (const auto& s : split(floats_arg, ',')) {
      vals.push_back(std::stof(s));
    }
    args.push_back(bc::Value::array(bc::make_f32_array(std::move(vals), true)));
  } else if (!bits_arg.empty()) {
    // MSB-first, like a Lime bit literal.
    std::vector<uint8_t> vals(bits_arg.size());
    for (size_t i = 0; i < bits_arg.size(); ++i) {
      vals[i] = bits_arg[bits_arg.size() - 1 - i] == '1';
    }
    args.push_back(bc::Value::array(bc::make_bit_array(std::move(vals), true)));
  }

  flight_path = util::resolve_output_path(flight_path);

  runtime::RuntimeConfig rc;
  rc.placement = placement;
  rc.enable_resubstitution = enable_resub;
  rc.enable_calibration = !no_calibration;
  if (fifo_capacity > 0) rc.fifo_capacity = static_cast<size_t>(fifo_capacity);
  rc.flight_dump_path = flight_path;
  rc.remote_endpoints = remote_endpoints;
  if (device_batch > 0) rc.device_batch = device_batch;
  rc.worker_threads = workers;
  rc.scheduler_seed = sched_seed;
  runtime::LiquidRuntime rt(*program, rc);

  net::AttachResult att;
  if (!remote_endpoints.empty()) {
    att = net::attach_remote_devices(rt, *program);
    for (const auto& err : att.errors) {
      std::cerr << "lmc: warning: remote " << err << " (continuing local)\n";
    }
    if (!quiet && att.artifacts > 0) {
      std::cout << "# attached " << att.artifacts
                << " remote artifact(s) from ";
      for (size_t i = 0; i < att.endpoints_ok.size(); ++i) {
        std::cout << (i ? ", " : "") << att.endpoints_ok[i];
      }
      std::cout << "\n";
    }
  }

  // Live telemetry exporter: runtime counters + live FIFO/task gauges +
  // one collector and health component per attached remote session.
  // Declared after `rt`/`att` so the exporter thread stops before anything
  // it scrapes is torn down.
  obs::TelemetryHub hub;
  std::unique_ptr<net::TelemetryServer> telemetry;
  if (telemetry_port >= 0) {
    hub.add_metrics(&rt.metrics());
    hub.add_collector([&rt](std::vector<obs::GaugeSample>& out) {
      rt.collect_telemetry(out);
    });
    if (program->cache) {
      // cache.hits/misses/stores/evictions/errors plus live byte/entry
      // gauges; the cache outlives the hub (owned by the program).
      hub.add_metrics(&program->cache->metrics());
      auto pc = program->cache;
      hub.add_collector([pc](std::vector<obs::GaugeSample>& out) {
        pc->collect_telemetry(out);
      });
    }
    for (const auto& session : att.sessions) {
      hub.add_collector([session](std::vector<obs::GaugeSample>& out) {
        session->collect_telemetry(out);
      });
      hub.add_histograms([session](std::vector<obs::HistogramSample>& out) {
        session->collect_histograms(out);
      });
      hub.add_health([session](std::vector<obs::HealthComponent>& out) {
        bool up = session->alive();
        out.push_back({"remote:" + session->endpoint(), up,
                       up ? "" : "endpoint down"});
      });
    }
    net::TelemetryServer::Options topts;
    topts.port = static_cast<uint16_t>(telemetry_port);
    telemetry = std::make_unique<net::TelemetryServer>(hub, topts);
    telemetry->start();
    // Printed and flushed even under --quiet: the harness contract for
    // parsing an ephemeral port, same as lmdev's endpoint line.
    std::cout << "# telemetry on " << telemetry->endpoint() << std::endl;
  }

  try {
    bc::Value out = rt.call(run_entry, std::move(args));
    std::cout << out.to_string() << "\n";
    if (!quiet) {
      const auto& stats = rt.stats();
      for (const auto& s : stats.substitutions) {
        std::cout << "# " << s.task_ids << " -> "
                  << runtime::to_string(s.device)
                  << (s.remote ? "@" + s.endpoint : "")
                  << (s.fused ? " (fused)" : "") << "\n";
      }
      for (const auto& r : stats.resubstitutions) {
        std::cout << "# " << r.task_ids << " re-substituted "
                  << runtime::to_string(r.from) << " -> "
                  << runtime::to_string(r.to) << " at batch " << r.at_batch
                  << " (" << r.reason << ")\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "lmc: runtime error: " << e.what() << "\n";
    if (!flight_path.empty() && rt.metrics().value("flight.dumps") > 0) {
      std::cerr << "lmc: flight recorder snapshot -> " << flight_path << "\n";
    }
    return 1;
  }

  // Resolve pending critical-path attributions before the recorder goes
  // away: the analysis is lazy and reads the installed recorder's events.
  std::vector<obs::Attribution> atts;
  if (recorder && (!explain_mode.empty() || !report_mode.empty())) {
    atts = rt.attributions();
  }
  if (recorder) {
    recorder->uninstall();
    if (!trace_path.empty()) {
      std::ofstream tf(trace_path);
      if (!tf) {
        std::cerr << "lmc: cannot write " << trace_path << "\n";
        return 1;
      }
      tf << recorder->chrome_trace_json();
      if (!quiet) {
        std::cout << "# trace: " << recorder->event_count()
                  << " event(s) from " << recorder->thread_count()
                  << " thread(s) -> " << trace_path << "\n";
      }
    }
  }
  if (!explain_mode.empty()) {
    if (explain_mode == "json") {
      // Structural rendering under a deterministic seed: byte-identical
      // across replays (no durations, which real time perturbs).
      const bool structural = sched_seed != 0;
      std::string out = "{\"attributions\":[";
      for (size_t i = 0; i < atts.size(); ++i) {
        if (i) out += ',';
        out += atts[i].to_json(structural);
      }
      out += "]}";
      std::cout << out << "\n";
    } else if (atts.empty()) {
      std::cout << "# explain: no executor graph runs to attribute\n";
    } else {
      for (const auto& a : atts) std::cout << a.to_text();
    }
  }
  if (want_metrics) {
    std::cout << "# metrics: " << rt.metrics().summary() << "\n";
  }
  if (report_mode == "json") {
    std::cout << rt.report().to_json() << "\n";
  } else if (!report_mode.empty()) {
    std::cout << rt.report().to_text();
  }
  return 0;
}
