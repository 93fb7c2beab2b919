#include "net/poll_loop.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include "net/client.h"
#include "obs/trace.h"

namespace lm::net {

PollLoop::PollLoop(RemoteSession& session) : session_(session) {
  if (::pipe(wake_fds_) != 0) {
    throw TransportError(std::string("pipe: ") + std::strerror(errno));
  }
  // Both ends nonblocking: the loop drains reads without stalling, and a
  // full pipe on the write side just means a wake is already pending.
  for (int fd : wake_fds_) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  thread_ = std::thread([this] { loop(); });
}

PollLoop::~PollLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void PollLoop::submit(std::unique_ptr<Op> op) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    incoming_.push_back(std::move(op));
  }
  wake();
}

void PollLoop::wake() {
  uint8_t b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &b, 1);
}

int PollLoop::poll_timeout_ms() const {
  Deadline d = no_deadline();
  if (writing_) d = std::min(d, writing_->deadline);
  for (const auto& [id, op] : awaiting_) d = std::min(d, op->deadline);
  if (d == no_deadline()) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  d - std::chrono::steady_clock::now())
                  .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(left, 60'000));
}

void PollLoop::loop() {
  // Lazy per-iteration naming (cheap pointer compare): the recorder is
  // installed per run, after this thread already exists.
  uint64_t named_trace = 0;
  for (;;) {
    if (obs::TraceRecorder* rec = obs::TraceRecorder::current();
        rec && rec->trace_id() != named_trace) {
      rec->set_thread_name("poll-loop");
      named_trace = rec->trace_id();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (!incoming_.empty()) {
        to_write_.push_back(std::move(incoming_.front()));
        incoming_.pop_front();
      }
      if (stop_) break;
    }
    if (!connected_ &&
        (writing_ || !to_write_.empty() || !awaiting_.empty())) {
      try {
        // Blocking dial + hello (bounded by connect_timeout_ms inside
        // dial), then flip to nonblocking for the pipelined phase.
        Socket s =
            session_.dial(deadline_in_ms(session_.opts_.connect_timeout_ms));
        s.set_nonblocking();
        conn_ = std::move(s);
        parser_.reset();
        connected_ = true;
      } catch (const TransportError& e) {
        fail_connection(e.what(), /*charge_queued=*/true);
        continue;
      }
    }
    pollfd fds[2];
    fds[0] = {wake_fds_[0], POLLIN, 0};
    nfds_t nfds = 1;
    if (connected_) {
      short ev = POLLIN;
      if (writing_ || !to_write_.empty()) ev |= POLLOUT;
      fds[1] = {conn_.fd(), ev, 0};
      nfds = 2;
    }
    int rc = ::poll(fds, nfds, poll_timeout_ms());
    if (rc < 0 && errno == EINTR) continue;
    if (fds[0].revents & POLLIN) {
      uint8_t buf[256];
      while (::read(wake_fds_[0], buf, sizeof buf) > 0) {
      }
    }
    if (connected_ && nfds == 2) {
      try {
        if (fds[1].revents & (POLLOUT | POLLERR | POLLHUP)) flush_writes();
        if (connected_ && (fds[1].revents & (POLLIN | POLLERR | POLLHUP))) {
          drain_reads();
        }
      } catch (const TransportError& e) {
        fail_connection(e.what(), /*charge_queued=*/false);
      }
    }
    scan_deadlines();
  }
  fail_shutdown();
}

void PollLoop::flush_writes() {
  for (;;) {
    if (!writing_) {
      if (to_write_.empty()) return;
      writing_ = std::move(to_write_.front());
      to_write_.pop_front();
      writing_->written = 0;
      // The attempt's deadline starts at write start: each attempt gets
      // a fresh request_timeout_ms.
      writing_->t0 = std::chrono::steady_clock::now();
      writing_->deadline = deadline_in_ms(session_.opts_.request_timeout_ms);
    }
    std::span<const uint8_t> rest(writing_->encoded);
    size_t n = conn_.send_nb(rest.subspan(writing_->written));
    if (n == 0) return;  // kernel buffer full; poll() waits for POLLOUT
    writing_->written += n;
    if (session_.c_bytes_sent_) session_.c_bytes_sent_->add(n);
    if (writing_->written == writing_->encoded.size()) {
      uint64_t id = writing_->request.request_id;
      awaiting_.emplace(id, std::move(writing_));
    }
  }
}

void PollLoop::drain_reads() {
  uint8_t buf[64 * 1024];
  for (;;) {
    bool eof = false;
    size_t n = conn_.recv_nb(buf, &eof);
    if (eof) throw TransportError("connection closed by peer");
    if (n == 0) return;  // nothing buffered; poll() waits for POLLIN
    if (session_.c_bytes_recv_) session_.c_bytes_recv_->add(n);
    parser_.feed(buf, n);
    while (auto f = parser_.next()) {
      auto it = awaiting_.find(f->request_id);
      // A miss can only be a server answering an id it was never sent on
      // this connection (poisoned predecessors never share a socket with
      // their retries); drop it rather than kill live exchanges.
      if (it == awaiting_.end()) continue;
      auto op = std::move(it->second);
      awaiting_.erase(it);
      op->done(nullptr, std::move(*f), op->t0,
               std::chrono::steady_clock::now());
    }
  }
}

void PollLoop::scan_deadlines() {
  if (!connected_) return;
  auto now = std::chrono::steady_clock::now();
  auto expired = [&](const std::unique_ptr<Op>& op) {
    return op->deadline != no_deadline() && op->deadline <= now;
  };
  bool any = writing_ && expired(writing_);
  for (const auto& [id, op] : awaiting_) any = any || expired(op);
  if (any) {
    // The server answers in order, so one stuck reply stalls everything
    // behind it: poison the whole connection and retry the written ops.
    fail_connection("request timed out", /*charge_queued=*/false);
  }
}

void PollLoop::fail_connection(const std::string& why, bool charge_queued) {
  connected_ = false;
  conn_.close();
  parser_.reset();
  std::vector<std::unique_ptr<Op>> victims;
  if (writing_) victims.push_back(std::move(writing_));
  for (auto& [id, op] : awaiting_) victims.push_back(std::move(op));
  awaiting_.clear();
  if (charge_queued) {
    for (auto& op : to_write_) victims.push_back(std::move(op));
    to_write_.clear();
  }
  for (auto& op : victims) {
    if (--op->attempts_left > 0) {
      if (session_.c_retries_) session_.c_retries_->add();
      op->written = 0;
      to_write_.push_back(std::move(op));
    } else {
      if (session_.c_failures_) session_.c_failures_->add();
      session_.mark_down(why);
      int attempts = 1 + std::max(0, session_.opts_.max_retries);
      op->done(std::make_exception_ptr(TransportError(
                   "request to " + session_.endpoint_ + " failed after " +
                   std::to_string(attempts) + " attempt(s): " + why)),
               Frame{}, {}, {});
    }
  }
}

void PollLoop::fail_shutdown() {
  std::vector<std::unique_ptr<Op>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& op : incoming_) victims.push_back(std::move(op));
    incoming_.clear();
  }
  for (auto& op : to_write_) victims.push_back(std::move(op));
  to_write_.clear();
  if (writing_) victims.push_back(std::move(writing_));
  for (auto& [id, op] : awaiting_) victims.push_back(std::move(op));
  awaiting_.clear();
  for (auto& op : victims) {
    op->done(std::make_exception_ptr(TransportError(
                 "request to " + session_.endpoint_ +
                 " abandoned: session shutting down")),
             Frame{}, {}, {});
  }
}

}  // namespace lm::net
