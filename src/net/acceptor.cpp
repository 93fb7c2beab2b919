#include "net/acceptor.h"

namespace lm::net {

uint16_t Acceptor::start(uint16_t port) {
  listener_ = std::make_unique<Listener>(port);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return listener_->port();
}

void Acceptor::accept_loop() {
  for (;;) {
    Socket s = listener_->accept();
    if (!s.valid()) return;  // listener closed
    if (stopping_.load(std::memory_order_acquire)) return;
    std::lock_guard<std::mutex> lock(mu_);
    // Reap finished connections first: each would otherwise keep its fd
    // and an unjoined thread until stop().
    std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
      if (!c->done.load(std::memory_order_acquire)) return false;
      c->th.join();
      return true;
    });
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(s);
    Conn* raw = conn.get();
    conns_.push_back(std::move(conn));
    raw->th = std::thread([this, raw] {
      handler_(raw->sock);
      // The peer reads until EOF, so end the stream here. The fd itself
      // is released when the Conn is destroyed, after this thread joined.
      raw->sock.shutdown_both();
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void Acceptor::abort() {
  stopping_.store(true, std::memory_order_release);
  if (listener_) listener_->close();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : conns_) c->sock.shutdown_both();
}

void Acceptor::stop() {
  abort();
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread is gone, so no connection can appear any more.
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    c->sock.shutdown_both();
    if (c->th.joinable()) c->th.join();
  }
}

}  // namespace lm::net
