// HTTP/1.0 front-end for the telemetry hub (ISSUE 5 tentpole §2).
//
// A deliberately small HTTP server — GET only, Connection: close, loopback
// listener — that mounts an obs::TelemetryHub on three endpoints:
//
//   GET /metrics  → Prometheus text exposition (format 0.0.4)
//   GET /healthz  → {"status":"ok"|...}; 200 when healthy, 503 degraded
//   GET /flight   → the flight recorder (TraceRecorder::flight()) as
//                   Chrome-trace JSON
//
// The split keeps the dependency arrow intact: obs renders, net serves.
// Mounted by `lmc --telemetry-port=N` (runtime side) and `tools/lmdev
// --telemetry-port=N` (device-server side); scraped by tools/lmtop, the
// tests, and the check.sh soak. Prometheus et al. speak HTTP/1.x, so any
// stock scraper can point at it directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/acceptor.h"
#include "obs/telemetry.h"

namespace lm::net {

class TelemetryServer {
 public:
  struct Options {
    /// TCP port; 0 picks an ephemeral port (read it back from port()).
    uint16_t port = 0;
    /// Per-request deadline — a wedged scraper must not pin a thread.
    int request_timeout_ms = 2000;
  };

  /// The hub must outlive the server.
  explicit TelemetryServer(const obs::TelemetryHub& hub)
      : TelemetryServer(hub, Options{}) {}
  TelemetryServer(const obs::TelemetryHub& hub, Options opts);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds 127.0.0.1, listens and spawns the accept thread. Throws
  /// TransportError when the port cannot be bound.
  void start();
  /// Stops accepting, drops connections, joins. Idempotent.
  void stop();

  uint16_t port() const { return port_; }
  const std::string& endpoint() const { return endpoint_; }
  /// Requests answered so far (any status).
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void serve(Socket& sock);
  /// Routes one request: fills `body` (cleared first) and returns the
  /// status line ingredients. `body` is a recycled scratch string so the
  /// steady-state scrape path reuses capacity instead of allocating.
  struct Route {
    int status;
    const char* reason;
    const char* content_type;
  };
  Route respond(const std::string& request_line, std::string& body);
  std::string acquire_scratch();
  void release_scratch(std::string&& s);

  const obs::TelemetryHub& hub_;
  Options opts_;
  uint16_t port_ = 0;
  std::string endpoint_;
  std::atomic<uint64_t> requests_{0};
  /// Retired body-scratch strings; capped. Response framing itself goes
  /// through serde::wire_pool(), so a warm scraper holds both counters
  /// flat (telemetry_test pins this).
  std::mutex scratch_mu_;
  std::vector<std::string> scratch_;
  /// Last, so it stops (and joins every serve thread) first.
  Acceptor acceptor_{[this](Socket& sock) { serve(sock); }};
};

/// Minimal HTTP/1.0 GET for lmtop, the tests and the benches — the repo
/// adds no curl dependency. Returns the status code and fills *body.
/// Throws TransportError on connect/transport failure or a response that
/// is not HTTP.
int http_get(const std::string& host, uint16_t port, const std::string& path,
             std::string* body, int timeout_ms = 2000);

}  // namespace lm::net
