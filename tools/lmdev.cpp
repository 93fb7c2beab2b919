// lmdev — the Liquid Metal device server.
//
// Compiles a Lime source file and serves its device artifacts over TCP so
// another process's runtime can substitute them remotely (DESIGN.md §9):
//
//   lmdev program.lime                 serve on an ephemeral port
//   lmdev program.lime --port 7411     serve on a fixed port
//   lmdev program.lime --no-fpga       serve only the GPU artifacts
//   lmdev program.lime --fail-after N  crash (drop every connection) after
//                                      serving N batches — fault-injection
//                                      hook for the fallback soak tests
//   lmdev program.lime --telemetry-port N
//                                      also serve /metrics, /healthz and
//                                      /flight over HTTP on that port
//                                      (0 = ephemeral; line printed flushed)
//   lmdev program.lime --cache=rw      compile through the artifact cache;
//                                      every keyed artifact then doubles as
//                                      a compile-service entry that an
//                                      lmc --compile-from=host:port peer can
//                                      fetch by content key (DESIGN.md §14)
//
// The client must have compiled the *same* program: the hello exchange
// compares FNV-1a fingerprints over the CPU-artifact manifests and refuses
// mismatched peers. The port line below is printed (and flushed) even under
// --quiet so harnesses can parse the endpoint.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "cache/artifact_cache.h"
#include "net/server.h"
#include "net/telemetry_http.h"
#include "runtime/liquid_compiler.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int usage() {
  std::cerr << "usage: lmdev <file.lime> [--port N] [--no-gpu] [--no-fpga]\n"
               "             [--fail-after N] [--telemetry-port N] [--quiet]\n"
               "             [--cache[=off|ro|rw]] [--cache-dir=<dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lm;
  if (argc < 2) return usage();
  std::string path;
  net::DeviceServer::Options sopts;
  runtime::CompileOptions copts;
  bool quiet = false;
  int telemetry_port = -1;  // <0 → exporter off; 0 → ephemeral port

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "lmdev: " << what << " needs a value\n";
        exit(2);
      }
      return argv[++i];
    };
    if (a == "--port") {
      sopts.port = static_cast<uint16_t>(std::stoul(next("--port")));
    } else if (a == "--fail-after") {
      sopts.fail_after = std::stoull(next("--fail-after"));
    } else if (a == "--telemetry-port") {
      telemetry_port = static_cast<int>(std::stoul(next("--telemetry-port")));
    } else if (a.rfind("--telemetry-port=", 0) == 0) {
      telemetry_port = static_cast<int>(std::stoul(a.substr(17)));
    } else if (a == "--no-gpu") {
      copts.enable_gpu = false;
    } else if (a == "--no-fpga") {
      copts.enable_fpga = false;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--cache") {
      copts.cache.mode = cache::CacheMode::kReadWrite;
    } else if (a.rfind("--cache=", 0) == 0) {
      auto m = cache::parse_cache_mode(a.substr(8));
      if (!m) {
        std::cerr << "lmdev: --cache takes 'off', 'ro' or 'rw'\n";
        return usage();
      }
      copts.cache.mode = *m;
    } else if (a.rfind("--cache-dir=", 0) == 0) {
      copts.cache.dir = a.substr(12);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "lmdev: unknown flag " << a << "\n";
      return usage();
    } else {
      path = a;
    }
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::cerr << "lmdev: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  auto program = runtime::compile(buf.str(), copts);
  if (!program->ok()) {
    std::cerr << program->diags.to_string();
    return 1;
  }

  try {
    net::DeviceServer server(*program, sopts);
    server.start();
    // The endpoint line is the harness contract: printed and flushed even
    // under --quiet so a parent process can parse the ephemeral port.
    std::cout << "lmdev: serving " << server.artifact_count()
              << " artifact(s) on " << server.endpoint() << std::endl;
    if (server.compile_service_entries() > 0) {
      // Compiled with caching: every keyed artifact is also addressable
      // by content key (kArtifactGet), i.e. this lmdev doubles as a
      // compile service for lmc --compile-from.
      std::cout << "lmdev: compile service: "
                << server.compile_service_entries()
                << " artifact(s) by content key" << std::endl;
    }

    // Telemetry exporter: the server's own registry, its live gauges
    // (active connections) and the native execute-latency histogram
    // (lm_server_exec_us); health goes degraded once a --fail-after crash
    // fires.
    obs::TelemetryHub hub;
    std::unique_ptr<net::TelemetryServer> telemetry;
    if (telemetry_port >= 0) {
      hub.add_metrics(&server.metrics());
      hub.add_collector([&server](std::vector<obs::GaugeSample>& out) {
        server.collect_telemetry(out);
      });
      hub.add_histograms(
          [&server](std::vector<obs::HistogramSample>& out) {
            server.collect_histograms(out);
          });
      if (program->cache) {
        hub.add_metrics(&program->cache->metrics());
        auto pc = program->cache;
        hub.add_collector([pc](std::vector<obs::GaugeSample>& out) {
          pc->collect_telemetry(out);
        });
      }
      hub.add_health([&server](std::vector<obs::HealthComponent>& out) {
        bool up = !server.crashed();
        out.push_back(
            {"device_server", up, up ? "" : "crashed (fail-after)"});
      });
      net::TelemetryServer::Options topts;
      topts.port = static_cast<uint16_t>(telemetry_port);
      telemetry = std::make_unique<net::TelemetryServer>(hub, topts);
      telemetry->start();
      // Flushed even under --quiet: harness contract for ephemeral ports.
      std::cout << "lmdev: telemetry on " << telemetry->endpoint()
                << std::endl;
    }
    if (!quiet) {
      std::cout << "lmdev: program fingerprint " << std::hex
                << server.fingerprint() << std::dec << "\n";
      if (program->cache) {
        std::cout << "lmdev: cache: " << program->cache->summary() << "\n";
      }
      if (sopts.fail_after > 0) {
        std::cout << "lmdev: will crash after " << sopts.fail_after
                  << " batch(es)\n";
      }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (!g_stop.load() && !server.crashed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (server.crashed() && !quiet) {
      std::cout << "lmdev: crashed (fail-after) having served "
                << server.requests_served() << " batch(es)\n";
    }
    server.stop();
  } catch (const std::exception& e) {
    std::cerr << "lmdev: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
