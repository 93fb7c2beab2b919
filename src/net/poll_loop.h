// PollLoop: the data path of the remote transport.
//
// One poll thread per RemoteSession services every batch exchange. Ops
// arrive pre-encoded with a completion callback; the loop dials lazily
// (blocking dial + hello, then O_NONBLOCK), pipelines writes down a single
// connection, reassembles replies with FrameParser, and matches them to
// in-flight ops by request id (the server answers in request order, so one
// connection carries any number of overlapping exchanges). A runtime
// worker that issues an RPC therefore parks a *continuation*, not a
// thread: the executor keeps stepping other tasks on the same pool while
// the reply is in flight.
//
// Failure semantics (DESIGN.md §9): a connection error — hard socket
// error, malformed stream, peer EOF, or an expired per-op deadline —
// poisons the connection and charges one attempt to every op written on
// it; survivors are re-sent on a freshly dialed connection (artifacts are
// pure, so at-least-once re-execution is safe), and exhausted ops complete
// with TransportError and mark the endpoint down. A dial failure
// additionally charges the ops queued behind it: dialing is part of the
// attempt. kError replies complete normally — the caller raises
// RemoteError, and a deterministic refusal is never retried.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace lm::net {

class RemoteSession;

class PollLoop {
 public:
  /// Completion callback: fired exactly once from the poll thread, either
  /// with a reply frame (err == nullptr) or with the transport failure.
  /// t0/t1 bracket a successful exchange (write start / reply arrival).
  using Done = std::function<void(std::exception_ptr err, Frame reply,
                                  std::chrono::steady_clock::time_point t0,
                                  std::chrono::steady_clock::time_point t1)>;

  struct Op {
    Frame request;                 // request_id must already be assigned
    std::vector<uint8_t> encoded;  // encode_frame(request)
    int attempts_left = 1;         // 1 + max_retries at submission
    Done done;

    // Poll-thread state.
    Deadline deadline{};  // set when the write starts (per-attempt budget)
    std::chrono::steady_clock::time_point t0{};
    size_t written = 0;
  };

  /// Starts the poll thread. The session must outlive the loop (it owns
  /// it) — dial, mark_down and the metrics counters are borrowed from it.
  explicit PollLoop(RemoteSession& session);
  /// Fails every outstanding op ("session shutting down") and joins.
  ~PollLoop();

  PollLoop(const PollLoop&) = delete;
  PollLoop& operator=(const PollLoop&) = delete;

  /// Hands one op to the poll thread. Never blocks on the network.
  void submit(std::unique_ptr<Op> op);

 private:
  void loop();
  void flush_writes();
  void drain_reads();
  void scan_deadlines();
  /// Tears down the connection and charges an attempt to every op written
  /// on it (plus the queued ops when `charge_queued` — a dial failure).
  void fail_connection(const std::string& why, bool charge_queued);
  void fail_shutdown();
  int poll_timeout_ms() const;
  void wake();

  RemoteSession& session_;

  std::mutex mu_;
  std::deque<std::unique_ptr<Op>> incoming_;
  bool stop_ = false;
  /// Self-pipe: submit()/~PollLoop write a byte to interrupt poll().
  int wake_fds_[2] = {-1, -1};

  // Poll-thread-only state.
  Socket conn_;
  bool connected_ = false;
  std::deque<std::unique_ptr<Op>> to_write_;  // queued, not yet on the wire
  std::unique_ptr<Op> writing_;               // partially written
  std::map<uint64_t, std::unique_ptr<Op>> awaiting_;  // written, by id
  FrameParser parser_;

  std::thread thread_;  // last member: joined before the state it uses dies
};

}  // namespace lm::net
