// RemoteSession: the client side of the remote-device transport.
//
// One session per endpoint, shared by every RemoteArtifact proxying to it.
// Provides:
//   * one data path — process_async() hands each batch to the session's
//     poll loop, which pipelines every exchange down one connection;
//     process() is a thin waiter on it (issue, wait, take);
//   * per-request deadlines — every exchange (send + receive, however many
//     syscalls) shares one deadline per attempt;
//   * retry with reconnect — a transport failure discards the connection
//     and retries the request on a freshly dialed one (artifacts are pure
//     functions of their input batch, so at-least-once re-execution is
//     safe); after the last attempt the endpoint is marked down;
//   * exponential-backoff dialing — reconnect attempts back off
//     10ms → 20ms → … → backoff_max_ms;
//   * heartbeat liveness — a background thread pings the endpoint on a
//     pooled connection of its own, so a ping never queues behind a data
//     batch; after `heartbeat_misses` consecutive failures the endpoint is
//     marked down and requests fail fast with TransportError instead of
//     waiting out a full request timeout. A later successful ping revives
//     it. The blocking pool also serves list().
//
// Failures always surface as lm::TransportError — the one exception type
// the runtime's drain loop converts into bytecode fallback.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace lm::net {

/// The server answered with a kError frame: the transport works but the
/// request itself failed (unknown artifact, fingerprint mismatch, artifact
/// fault). Still a TransportError — the runtime's fallback path catches the
/// base type — but never retried, since a deterministic failure would just
/// fail again.
class RemoteError : public TransportError {
 public:
  explicit RemoteError(const std::string& what) : TransportError(what) {}
};

class PollLoop;

/// A pending asynchronous exchange (RemoteSession::process_async). The
/// poll thread fills the fields and then fires the submission's on_done
/// callback exactly once; afterwards any thread ordered after that
/// callback resolves the exchange with RemoteSession::take().
struct PendingRpc {
  std::exception_ptr error;  // set on transport failure, else null
  Frame reply;
  std::chrono::steady_clock::time_point t0{};  // write start
  std::chrono::steady_clock::time_point t1{};  // reply arrival
};

struct SessionOptions {
  int connect_timeout_ms = 2000;
  /// Deadline for one full request/response exchange. The default is
  /// generous because the server runs cycle-accurate simulators; tests
  /// that provoke timeouts dial it down.
  int request_timeout_ms = 30000;
  /// Extra attempts after a failed exchange (each on a fresh connection).
  int max_retries = 1;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 500;
  int heartbeat_interval_ms = 250;
  int heartbeat_misses = 2;
  std::string client_name = "lm-client";
};

class RemoteSession {
 public:
  /// `fingerprint` is the local program_fingerprint(); the server rejects
  /// the hello when it serves a different program.
  RemoteSession(std::string host, uint16_t port, uint64_t fingerprint,
                SessionOptions opts = {},
                obs::MetricsRegistry* metrics = nullptr);
  ~RemoteSession();

  RemoteSession(const RemoteSession&) = delete;
  RemoteSession& operator=(const RemoteSession&) = delete;

  const std::string& endpoint() const { return endpoint_; }

  /// Dials (if needed) and fetches the server's artifact listing.
  std::vector<ArtifactListing> list();

  /// What the server's piggybacked telemetry said about one exchange.
  struct ExchangeInfo {
    bool has_telemetry = false;
    /// Duration of the server's "execute" span (device time under the
    /// artifact lock), µs; 0 when the request was untraced or the reply
    /// carried no spans. Feeds RemoteArtifact's server-side histogram.
    double server_execute_us = 0;
  };

  /// One batch through (task_id, device) on the server: sends the packed
  /// input batch, returns the packed output batch. Blocking: issues the
  /// exchange with process_async(), waits for it, then take()s it.
  std::vector<uint8_t> process(const std::string& task_id,
                               runtime::DeviceKind device,
                               std::span<const uint8_t> batch);

  /// Issues one exchange: encodes the request, hands it to the session's
  /// poll loop (started lazily) and returns immediately. Any number may be
  /// in flight; they pipeline down the loop's one connection. `on_done`
  /// fires exactly once — from the poll thread on completion, or inline
  /// when the endpoint is already marked down — after which take()
  /// resolves the exchange. Transport failures never throw from here; they
  /// surface from take() so callers keep one fallback path.
  std::shared_ptr<PendingRpc> process_async(const std::string& task_id,
                                            runtime::DeviceKind device,
                                            std::span<const uint8_t> batch,
                                            std::function<void()> on_done);

  /// Resolves a completed exchange: rethrows its transport failure, or
  /// validates the reply and feeds RTT/clock/telemetry, returning the
  /// packed output batch. `info`, when non-null, receives the server-side
  /// telemetry. Only call after the exchange's on_done has fired (and
  /// with ordering to that callback).
  std::vector<uint8_t> take(PendingRpc& rpc, ExchangeInfo* info = nullptr);

  /// Starts the background liveness pinger (idempotent).
  void start_heartbeat();
  /// Last heartbeat verdict (true until proven otherwise).
  bool alive() const { return !down_.load(std::memory_order_acquire); }

  /// Smoothed round-trip time over completed exchanges, µs (0 until the
  /// first exchange). Feeds the substitution cost model: a remote
  /// candidate's measured score inherently includes this.
  double rtt_ewma_us() const;
  const obs::LatencyHistogram& rtt_histogram() const { return rtt_hist_; }

  uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  /// NTP-midpoint estimate of (server clock − session clock), fed by every
  /// exchange including heartbeats. The *session* clock is µs since this
  /// session's construction.
  const obs::ClockOffsetEstimator& clock_offset() const { return clock_; }

  /// Live gauges for a TelemetryHub collector: RTT EWMA, liveness,
  /// reconnect/backoff state, clock offset — all labeled with the
  /// endpoint.
  void collect_telemetry(std::vector<obs::GaugeSample>& out) const;
  /// Native histogram for TelemetryHub::add_histograms: `remote.rtt_us`
  /// {endpoint} — the full RTT distribution, mergeable fleet-side.
  void collect_histograms(std::vector<obs::HistogramSample>& out) const;

 private:
  /// The poll loop drives async exchanges with the session's dial,
  /// failure-marking and metrics machinery.
  friend class PollLoop;

  /// Starts the poll thread on first use (idempotent).
  PollLoop* ensure_poll_loop();
  /// Borrows a blocking connection (list, heartbeat): pooled if
  /// available, freshly dialed otherwise.
  Socket acquire(Deadline deadline);
  void release(Socket s);
  /// Dials + hellos with exponential backoff until `deadline`.
  Socket dial(Deadline deadline);
  /// One request/response on a blocking connection.
  Frame roundtrip(Socket& s, FrameType type, std::vector<uint8_t> payload,
                  Deadline deadline);
  /// Decodes a reply's aux block: feeds the clock-offset estimator,
  /// imports server spans into the installed recorder's per-endpoint lane
  /// (aligned with this exchange's own midpoint offset) and fills `info`.
  void handle_reply_telemetry(const Frame& reply,
                              std::chrono::steady_clock::time_point t0,
                              std::chrono::steady_clock::time_point t1,
                              ExchangeInfo* info);
  double session_us(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - epoch_).count();
  }
  void heartbeat_loop();
  void note_success(double rtt_us);
  void mark_down(const std::string& why);

  std::string host_;
  uint16_t port_;
  std::string endpoint_;
  uint64_t fingerprint_;
  SessionOptions opts_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  obs::ClockOffsetEstimator clock_;

  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<bool> down_{false};
  std::atomic<int> ping_misses_{0};
  std::atomic<uint64_t> reconnects_{0};

  mutable std::mutex pool_mu_;
  std::vector<Socket> pool_;
  bool ever_connected_ = false;

  std::mutex poll_mu_;
  std::unique_ptr<PollLoop> poll_loop_;

  mutable std::mutex rtt_mu_;
  double rtt_ewma_us_ = 0;
  obs::LatencyHistogram rtt_hist_;

  std::thread heartbeat_;
  std::atomic<bool> stop_heartbeat_{false};
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;

  // Optional instrumentation (pointers cached once; registry outlives us).
  obs::MetricsRegistry::Counter* c_requests_ = nullptr;
  obs::MetricsRegistry::Counter* c_retries_ = nullptr;
  obs::MetricsRegistry::Counter* c_failures_ = nullptr;
  obs::MetricsRegistry::Counter* c_connects_ = nullptr;
  obs::MetricsRegistry::Counter* c_bytes_sent_ = nullptr;
  obs::MetricsRegistry::Counter* c_bytes_recv_ = nullptr;
  obs::MetricsRegistry::Counter* c_pings_ = nullptr;
  obs::MetricsRegistry::Counter* c_ping_failures_ = nullptr;
  obs::MetricsRegistry::Counter* c_endpoint_down_ = nullptr;
  obs::MetricsRegistry::Counter* c_heartbeat_misses_ = nullptr;
};

/// Calls `issue` with a completion callback and blocks the calling thread
/// until that callback fires (from any thread, or inline from `issue`).
/// The blocking remote calls are this wrapped around an asynchronous one.
void wait_for_completion(
    const std::function<void(std::function<void()>)>& issue);

/// Parses "host:port" (host may be a dotted quad or "localhost"). Throws
/// TransportError on malformed input.
void parse_endpoint(const std::string& spec, std::string* host,
                    uint16_t* port);

}  // namespace lm::net
