#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "net/poll_loop.h"
#include "obs/trace.h"
#include "util/byte_buffer.h"

namespace lm::net {

namespace {

std::string trace_id_hex(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Idle blocking connections kept for reuse (beyond this they are
/// closed). Only list() and heartbeat pings borrow them.
constexpr size_t kMaxIdleConnections = 4;

std::string error_message(const Frame& f) {
  try {
    ByteReader r(f.payload);
    return r.str();
  } catch (...) {
    return "(malformed error payload)";
  }
}

}  // namespace

void wait_for_completion(
    const std::function<void(std::function<void()>)>& issue) {
  // Shared with the callback, which may still be unlocking when the
  // waiter wakes and returns.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto w = std::make_shared<Waiter>();
  issue([w] {
    std::lock_guard<std::mutex> lock(w->mu);
    w->done = true;
    w->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(w->mu);
  w->cv.wait(lock, [&] { return w->done; });
}

void parse_endpoint(const std::string& spec, std::string* host,
                    uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    throw TransportError("bad endpoint '" + spec + "' (expected host:port)");
  }
  *host = spec.substr(0, colon);
  int p = 0;
  try {
    p = std::stoi(spec.substr(colon + 1));
  } catch (...) {
    p = -1;
  }
  if (p <= 0 || p > 65535) {
    throw TransportError("bad port in endpoint '" + spec + "'");
  }
  *port = static_cast<uint16_t>(p);
}

RemoteSession::RemoteSession(std::string host, uint16_t port,
                             uint64_t fingerprint, SessionOptions opts,
                             obs::MetricsRegistry* metrics)
    : host_(std::move(host)),
      port_(port),
      endpoint_(host_ + ":" + std::to_string(port_)),
      fingerprint_(fingerprint),
      opts_(std::move(opts)) {
  if (metrics) {
    c_requests_ = &metrics->counter("net.requests");
    c_retries_ = &metrics->counter("net.request_retries");
    c_failures_ = &metrics->counter("net.request_failures");
    c_connects_ = &metrics->counter("net.connects");
    c_bytes_sent_ = &metrics->counter("net.bytes_sent");
    c_bytes_recv_ = &metrics->counter("net.bytes_received");
    c_pings_ = &metrics->counter("net.pings");
    c_ping_failures_ = &metrics->counter("net.ping_failures");
    c_endpoint_down_ = &metrics->counter("net.endpoint_down");
    c_heartbeat_misses_ = &metrics->counter("net.heartbeat_misses");
  }
}

RemoteSession::~RemoteSession() {
  // Stop the poll loop first: it dials and marks the session down through
  // machinery the rest of the teardown dismantles.
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    poll_loop_.reset();
  }
  stop_heartbeat_.store(true, std::memory_order_release);
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
}

PollLoop* RemoteSession::ensure_poll_loop() {
  std::lock_guard<std::mutex> lock(poll_mu_);
  if (!poll_loop_) poll_loop_ = std::make_unique<PollLoop>(*this);
  return poll_loop_.get();
}

Socket RemoteSession::dial(Deadline deadline) {
  // The whole retry loop is bounded by connect_timeout_ms (not the caller's
  // request deadline): when connects fail *instantly* — port closed, host
  // unreachable — backing off until a 30 s request deadline would make every
  // degradation path (attach to a dead endpoint, mid-stream fallback) stall
  // for the full request timeout.
  deadline = std::min(deadline, deadline_in_ms(opts_.connect_timeout_ms));
  int backoff = opts_.backoff_initial_ms;
  for (;;) {
    try {
      Socket s = Socket::connect(host_, port_, deadline);
      // Handshake: prove both ends compiled the same program before any
      // batch crosses.
      Frame hello = roundtrip(s, FrameType::kHello,
                              encode_hello({opts_.client_name, fingerprint_}),
                              deadline);
      if (hello.type != FrameType::kHelloOk) {
        throw RemoteError(endpoint_ + ": " + error_message(hello));
      }
      if (c_connects_) c_connects_->add();
      {
        std::lock_guard<std::mutex> lock(pool_mu_);
        if (ever_connected_) {
          reconnects_.fetch_add(1, std::memory_order_relaxed);
        }
        ever_connected_ = true;
      }
      return s;
    } catch (const RemoteError&) {
      // The server answered and said no (fingerprint mismatch, protocol
      // refusal) — redialing cannot change its mind.
      throw;
    } catch (const TransportError&) {
      if (std::chrono::steady_clock::now() +
              std::chrono::milliseconds(backoff) >=
          deadline) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, opts_.backoff_max_ms);
    }
  }
}

Socket RemoteSession::acquire(Deadline deadline) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (!pool_.empty()) {
      Socket s = std::move(pool_.back());
      pool_.pop_back();
      return s;
    }
  }
  return dial(deadline);
}

void RemoteSession::release(Socket s) {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_.size() < kMaxIdleConnections) pool_.push_back(std::move(s));
  // else: s destructs, closing the surplus connection.
}

Frame RemoteSession::roundtrip(Socket& s, FrameType type,
                               std::vector<uint8_t> payload,
                               Deadline deadline) {
  Frame req;
  req.type = type;
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
    req.trace_id = rec->trace_id();  // trace context crosses the wire
  }
  req.payload = std::move(payload);
  auto t0 = std::chrono::steady_clock::now();
  write_frame(s, req, deadline);
  if (c_bytes_sent_) c_bytes_sent_->add(wire_size(req));
  Frame reply = read_frame(s, deadline);
  auto t1 = std::chrono::steady_clock::now();
  if (c_bytes_recv_) c_bytes_recv_->add(wire_size(reply));
  if (reply.request_id != req.request_id) {
    throw TransportError(endpoint_ + ": response id mismatch (got " +
                         std::to_string(reply.request_id) + ", expected " +
                         std::to_string(req.request_id) + ")");
  }
  handle_reply_telemetry(reply, t0, t1, nullptr);
  return reply;
}

void RemoteSession::handle_reply_telemetry(
    const Frame& reply, std::chrono::steady_clock::time_point t0,
    std::chrono::steady_clock::time_point t1, ExchangeInfo* info) {
  if (reply.aux.empty()) return;
  ReplyTelemetry tele;
  try {
    tele = decode_telemetry(reply.aux);
  } catch (const std::exception&) {
    return;  // telemetry is advisory; never fail an exchange over it
  }
  clock_.update(session_us(t0), session_us(t1), tele.recv_ts_us,
                tele.send_ts_us);
  if (info) {
    info->has_telemetry = true;
    for (const auto& sp : tele.spans) {
      if (sp.name == "execute") info->server_execute_us = sp.dur_us;
    }
  }
  obs::TraceRecorder* rec = obs::TraceRecorder::current();
  if (!rec || reply.trace_id != rec->trace_id() || tele.spans.empty()) {
    return;
  }
  // Import the server spans into a per-endpoint lane of the client trace,
  // shifted by *this exchange's* midpoint offset. Using the same
  // exchange's offset (not the session-best estimate) is what guarantees
  // the aligned spans nest inside [t0, t1]: the server cannot have spent
  // longer processing than the client observed round-trip (see
  // obs::ClockOffsetEstimator).
  double offset = obs::ClockOffsetEstimator::offset_from(
      rec->to_us(t0), rec->to_us(t1), tele.recv_ts_us, tele.send_ts_us);
  uint32_t lane = rec->lane("remote " + endpoint_);
  std::string id_hex = trace_id_hex(reply.trace_id);
  for (const auto& sp : tele.spans) {
    rec->complete_on(lane, "remote", "srv:" + sp.name, sp.ts_us - offset,
                     sp.dur_us,
                     obs::JsonArgs()
                         .add("endpoint", endpoint_)
                         .add("trace_id", id_hex)
                         .add("request_id", reply.request_id)
                         .str());
  }
}

std::vector<ArtifactListing> RemoteSession::list() {
  Deadline dl = deadline_in_ms(opts_.request_timeout_ms);
  Socket s = acquire(dl);
  Frame reply = roundtrip(s, FrameType::kList, {}, dl);
  if (reply.type != FrameType::kListOk) {
    throw RemoteError(endpoint_ + ": " + error_message(reply));
  }
  auto listing = decode_listing(reply.payload);
  release(std::move(s));
  return listing;
}

void RemoteSession::note_success(double rtt_us) {
  rtt_hist_.record_ns(static_cast<uint64_t>(rtt_us * 1e3));
  std::lock_guard<std::mutex> lock(rtt_mu_);
  rtt_ewma_us_ = rtt_ewma_us_ == 0 ? rtt_us
                                   : 0.75 * rtt_ewma_us_ + 0.25 * rtt_us;
  down_.store(false, std::memory_order_release);
  ping_misses_.store(0, std::memory_order_relaxed);
}

double RemoteSession::rtt_ewma_us() const {
  std::lock_guard<std::mutex> lock(rtt_mu_);
  return rtt_ewma_us_;
}

void RemoteSession::mark_down(const std::string& why) {
  bool was_down = down_.exchange(true, std::memory_order_acq_rel);
  if (!was_down) {
    if (c_endpoint_down_) c_endpoint_down_->add();
    obs::TraceRecorder::flight().instant(
        "fault", "endpoint-down",
        obs::JsonArgs().add("detail", endpoint_ + ": " + why).str());
  }
  // Pooled connections to a dead endpoint are poison; drop them so the
  // next attempt dials fresh.
  std::lock_guard<std::mutex> lock(pool_mu_);
  pool_.clear();
}

std::vector<uint8_t> RemoteSession::process(const std::string& task_id,
                                            runtime::DeviceKind device,
                                            std::span<const uint8_t> batch) {
  std::shared_ptr<PendingRpc> rpc;
  wait_for_completion([&](std::function<void()> on_done) {
    rpc = process_async(task_id, device, batch, std::move(on_done));
  });
  return take(*rpc);
}

std::shared_ptr<PendingRpc> RemoteSession::process_async(
    const std::string& task_id, runtime::DeviceKind device,
    std::span<const uint8_t> batch, std::function<void()> on_done) {
  auto rpc = std::make_shared<PendingRpc>();
  if (down_.load(std::memory_order_acquire)) {
    // Fast-fail through the pending handle, so the caller's completion
    // path is the same as for in-flight failures.
    if (c_failures_) c_failures_->add();
    rpc->error = std::make_exception_ptr(
        TransportError(endpoint_ + " is down (heartbeat)"));
    on_done();
    return rpc;
  }
  if (c_requests_) c_requests_->add();
  ProcessRequest p;
  p.task_id = task_id;
  p.device = device;
  p.batch.assign(batch.begin(), batch.end());

  auto op = std::make_unique<PollLoop::Op>();
  op->request.type = FrameType::kProcess;
  op->request.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
    op->request.trace_id = rec->trace_id();
  }
  op->request.payload = encode_process(p);
  op->encoded = encode_frame(op->request);
  op->attempts_left = 1 + std::max(0, opts_.max_retries);
  op->done = [rpc, cb = std::move(on_done)](
                 std::exception_ptr err, Frame reply,
                 std::chrono::steady_clock::time_point t0,
                 std::chrono::steady_clock::time_point t1) {
    rpc->error = err;
    rpc->reply = std::move(reply);
    rpc->t0 = t0;
    rpc->t1 = t1;
    cb();
  };
  ensure_poll_loop()->submit(std::move(op));
  return rpc;
}

std::vector<uint8_t> RemoteSession::take(PendingRpc& rpc,
                                         ExchangeInfo* info) {
  if (rpc.error) std::rethrow_exception(rpc.error);
  if (rpc.reply.type != FrameType::kProcessOk) {
    if (c_failures_) c_failures_->add();
    throw RemoteError(endpoint_ + ": " + error_message(rpc.reply));
  }
  note_success(
      std::chrono::duration<double, std::micro>(rpc.t1 - rpc.t0).count());
  // Telemetry is handled here — on the thread that collects the batch —
  // rather than on the poll thread, so span import sees that thread's
  // installed TraceRecorder.
  handle_reply_telemetry(rpc.reply, rpc.t0, rpc.t1, info);
  return std::move(rpc.reply.payload);
}

void RemoteSession::collect_telemetry(
    std::vector<obs::GaugeSample>& out) const {
  std::vector<std::pair<std::string, std::string>> labels = {
      {"endpoint", endpoint_}};
  out.emplace_back("remote.alive", alive() ? 1.0 : 0.0, labels);
  out.emplace_back("remote.rtt_ewma_us", rtt_ewma_us(), labels);
  out.emplace_back("remote.reconnects", static_cast<double>(reconnects()),
                   labels);
  out.emplace_back("remote.ping_misses",
                   static_cast<double>(
                       ping_misses_.load(std::memory_order_relaxed)),
                   labels);
  out.emplace_back("remote.clock_offset_us", clock_.offset_us(), labels);
  out.emplace_back("remote.clock_rtt_us", clock_.best_rtt_us(), labels);
  size_t idle;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    idle = pool_.size();
  }
  out.emplace_back("remote.pool_idle", static_cast<double>(idle), labels);
}

void RemoteSession::collect_histograms(
    std::vector<obs::HistogramSample>& out) const {
  out.push_back(obs::HistogramSample::from("remote.rtt_us", rtt_hist_,
                                           {{"endpoint", endpoint_}}));
}

void RemoteSession::start_heartbeat() {
  if (heartbeat_.joinable()) return;
  stop_heartbeat_.store(false, std::memory_order_release);
  heartbeat_ = std::thread([this] { heartbeat_loop(); });
}

void RemoteSession::heartbeat_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock,
                      std::chrono::milliseconds(opts_.heartbeat_interval_ms),
                      [this] {
                        return stop_heartbeat_.load(std::memory_order_acquire);
                      });
    }
    if (stop_heartbeat_.load(std::memory_order_acquire)) return;
    if (c_pings_) c_pings_->add();
    try {
      // Short deadline: a ping is tiny, so anything slower than the
      // heartbeat interval is as bad as down.
      Deadline dl = deadline_in_ms(opts_.heartbeat_interval_ms);
      Socket s = acquire(dl);
      auto t0 = std::chrono::steady_clock::now();
      Frame reply = roundtrip(s, FrameType::kPing, {}, dl);
      auto t1 = std::chrono::steady_clock::now();
      if (reply.type != FrameType::kPong) {
        throw TransportError("unexpected ping reply");
      }
      note_success(std::chrono::duration<double, std::micro>(t1 - t0).count());
      release(std::move(s));
    } catch (const TransportError& e) {
      if (c_ping_failures_) c_ping_failures_->add();
      // Counted separately from ping_failures: the exporter's
      // net.heartbeat_misses series is the "how close to being declared
      // down" signal, and it must never silently under-report.
      if (c_heartbeat_misses_) c_heartbeat_misses_->add();
      int misses = ping_misses_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (misses >= opts_.heartbeat_misses) mark_down(e.what());
    }
  }
}

}  // namespace lm::net
