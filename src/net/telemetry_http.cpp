#include "net/telemetry_http.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"
#include "serde/buffer_pool.h"

namespace lm::net {

namespace {

constexpr size_t kMaxRequestBytes = 8192;
constexpr size_t kMaxScratchStrings = 8;

/// Frames status line + headers + body into `out` (appended; the caller
/// hands in a cleared pooled buffer). snprintf into a stack buffer keeps
/// the header free of std::to_string temporaries.
void frame_http(int status, const char* reason, const char* content_type,
                const std::string& body, std::vector<uint8_t>& out) {
  char head[192];
  int n = std::snprintf(head, sizeof(head),
                        "HTTP/1.0 %d %s\r\nContent-Type: %s\r\n"
                        "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                        status, reason, content_type, body.size());
  out.insert(out.end(), head, head + (n < 0 ? 0 : n));
  out.insert(out.end(), body.begin(), body.end());
}

}  // namespace

TelemetryServer::TelemetryServer(const obs::TelemetryHub& hub, Options opts)
    : hub_(hub), opts_(opts) {}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::start() {
  port_ = acceptor_.start(opts_.port);
  endpoint_ = "127.0.0.1:" + std::to_string(port_);
}

void TelemetryServer::serve(Socket& sock) {
  Deadline dl = deadline_in_ms(opts_.request_timeout_ms);
  try {
    // Read until the end of the request head (blank line) or the cap; the
    // request line is all we route on.
    std::string head;
    uint8_t buf[512];
    while (head.size() < kMaxRequestBytes &&
           head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos) {
      size_t n = sock.recv_some(buf, dl);
      if (n == 0) break;  // peer closed early
      head.append(reinterpret_cast<const char*>(buf), n);
    }
    size_t eol = head.find_first_of("\r\n");
    std::string request_line =
        eol == std::string::npos ? head : head.substr(0, eol);
    // Scrape hot path: body scratch and response bytes both come from
    // pools, so a 10 Hz scraper settles into zero allocations per request
    // once warm.
    std::string body = acquire_scratch();
    Route route = respond(request_line, body);
    std::vector<uint8_t> response = serde::wire_pool().acquire();
    frame_http(route.status, route.reason, route.content_type, body,
               response);
    release_scratch(std::move(body));
    requests_.fetch_add(1, std::memory_order_relaxed);
    try {
      sock.send_all({response.data(), response.size()}, dl);
    } catch (const TransportError&) {
      serde::wire_pool().release(std::move(response));
      throw;
    }
    serde::wire_pool().release(std::move(response));
  } catch (const TransportError&) {
    // Scraper went away or wedged past the deadline: drop the connection.
  }
  // Connection: close — the acceptor ends the stream when this returns.
}

TelemetryServer::Route TelemetryServer::respond(
    const std::string& request_line, std::string& body) {
  body.clear();
  size_t sp1 = request_line.find(' ');
  size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  std::string method =
      sp1 == std::string::npos ? "" : request_line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? ""
                         : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    body = "only GET is served\n";
    return {405, "Method Not Allowed", "text/plain"};
  }
  if (size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);
  }
  if (path == "/metrics") {
    hub_.render_prometheus(body);
    return {200, "OK", "text/plain; version=0.0.4; charset=utf-8"};
  }
  if (path == "/healthz") {
    bool healthy = true;
    body = hub_.health_json(&healthy);
    body += '\n';
    return healthy
               ? Route{200, "OK", "application/json"}
               : Route{503, "Service Unavailable", "application/json"};
  }
  if (path == "/flight") {
    body = obs::TraceRecorder::flight().chrome_trace_json("telemetry-pull");
    return {200, "OK", "application/json"};
  }
  body = "no such endpoint (try /metrics, /healthz, /flight)\n";
  return {404, "Not Found", "text/plain"};
}

std::string TelemetryServer::acquire_scratch() {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (scratch_.empty()) return {};
  std::string s = std::move(scratch_.back());
  scratch_.pop_back();
  return s;
}

void TelemetryServer::release_scratch(std::string&& s) {
  if (s.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (scratch_.size() >= kMaxScratchStrings) return;
  s.clear();
  scratch_.push_back(std::move(s));
}

void TelemetryServer::stop() { acceptor_.stop(); }

int http_get(const std::string& host, uint16_t port, const std::string& path,
             std::string* body, int timeout_ms) {
  Deadline dl = deadline_in_ms(timeout_ms);
  Socket s = Socket::connect(host, port, dl);
  std::string req = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                    "\r\nConnection: close\r\n\r\n";
  s.send_all({reinterpret_cast<const uint8_t*>(req.data()), req.size()}, dl);
  std::string raw;
  uint8_t buf[4096];
  for (;;) {
    size_t n = s.recv_some(buf, dl);
    if (n == 0) break;  // Connection: close — EOF ends the response
    raw.append(reinterpret_cast<const char*>(buf), n);
    if (raw.size() > (64u << 20)) {
      throw TransportError("telemetry response too large");
    }
  }
  if (raw.compare(0, 5, "HTTP/") != 0) {
    throw TransportError("not an HTTP response from " + host + ":" +
                         std::to_string(port));
  }
  size_t sp = raw.find(' ');
  int status = 0;
  if (sp != std::string::npos) {
    status = std::atoi(raw.c_str() + sp + 1);
  }
  if (status == 0) {
    throw TransportError("malformed HTTP status line");
  }
  if (body) {
    size_t sep = raw.find("\r\n\r\n");
    size_t skip = 4;
    if (sep == std::string::npos) {
      sep = raw.find("\n\n");
      skip = 2;
    }
    *body = sep == std::string::npos ? "" : raw.substr(sep + skip);
  }
  return status;
}

}  // namespace lm::net
