// Acceptor: the accept, reap and stop machinery both TCP servers share
// (DeviceServer and TelemetryServer).
//
// It owns a listener, an accept thread and one thread per connection,
// which runs the server's handler on the connection's socket. When the
// handler returns, the socket is shut down; the next accept joins that
// thread and closes the socket, so a stream of short connections holds a
// bounded number of threads and fds. stop() joins whatever is left.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace lm::net {

class Acceptor {
 public:
  using Handler = std::function<void(Socket&)>;

  explicit Acceptor(Handler handler) : handler_(std::move(handler)) {}
  ~Acceptor() { stop(); }

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Binds `port` (0 picks an ephemeral one), listens and spawns the
  /// accept thread; returns the bound port. Throws TransportError when the
  /// port cannot be bound.
  uint16_t start(uint16_t port);

  /// Stops accepting and shuts every open connection down without joining:
  /// each handler's next socket call fails, so in-flight exchanges die
  /// mid-way. Safe to call from a handler.
  void abort();

  /// abort(), then joins the accept thread and every connection thread.
  /// Idempotent; never call it from a handler.
  void stop();

 private:
  struct Conn {
    Socket sock;
    std::thread th;
    /// Set by the connection thread once the handler returned; only then
    /// may the accept loop join the thread and close the socket.
    std::atomic<bool> done{false};
  };

  void accept_loop();

  const Handler handler_;
  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace lm::net
