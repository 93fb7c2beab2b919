// Unit tests for the remote-device transport (DESIGN.md §9): frame and
// payload codecs, endpoint parsing, the DeviceServer/RemoteSession
// exchange over loopback, pipelining, timeouts, retry/reconnect, the
// heartbeat liveness detector and fingerprint enforcement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>

#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/remote_artifact.h"
#include "net/server.h"
#include "net/socket.h"
#include "runtime/liquid_compiler.h"
#include "serde/batch.h"
#include "util/error.h"

namespace lm::net {
namespace {

using bc::Value;
using runtime::DeviceKind;

std::unique_ptr<runtime::CompiledProgram> compile_ok(
    const std::string& src, runtime::CompileOptions opts = {}) {
  auto cp = runtime::compile(src, opts);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  return cp;
}

/// A small pipeline program with GPU + FPGA artifacts for serving.
const char* kSource = R"(
  class P {
    local static int triple(int x) { return 3 * x; }
    local static int addOne(int x) { return x + 1; }
    static void drive(int[[]] in, int[] out) {
      var g = in.source(1) => ([ task triple ]) => ([ task addOne ])
        => out.<int>sink();
      g.finish();
    }
  }
)";

std::vector<uint8_t> pack_ints(const std::vector<int32_t>& xs) {
  std::vector<Value> vals;
  for (int32_t x : xs) vals.push_back(Value::i32(x));
  return serde::pack_batch(vals, lime::Type::int_());
}

std::vector<int32_t> unpack_ints(std::span<const uint8_t> wire) {
  std::vector<int32_t> out;
  for (const Value& v : serde::unpack_batch(wire, lime::Type::int_())) {
    out.push_back(v.as_i32());
  }
  return out;
}

// -- frame layer ----------------------------------------------------------

TEST(Frame, RoundTripOverLoopback) {
  Listener l(0);
  Frame sent;
  sent.type = FrameType::kProcess;
  sent.request_id = 42;
  sent.trace_id = 0xabcdef0123456789ull;
  sent.payload = {1, 2, 3, 4, 5};
  std::thread server([&] {
    Socket s = l.accept();
    ASSERT_TRUE(s.valid());
    Frame f = read_frame(s, no_deadline());
    EXPECT_EQ(f.type, FrameType::kProcess);
    EXPECT_EQ(f.request_id, 42u);
    EXPECT_EQ(f.trace_id, 0xabcdef0123456789ull);
    EXPECT_EQ(f.payload, sent.payload);
    EXPECT_TRUE(f.aux.empty());
    Frame reply;
    reply.type = FrameType::kProcessOk;
    reply.request_id = f.request_id;
    reply.trace_id = f.trace_id;
    reply.payload = {9};
    write_frame(s, reply, no_deadline());
  });
  Socket c = Socket::connect("127.0.0.1", l.port(), deadline_in_ms(2000));
  write_frame(c, sent, deadline_in_ms(2000));
  Frame reply = read_frame(c, deadline_in_ms(2000));
  EXPECT_EQ(reply.type, FrameType::kProcessOk);
  EXPECT_EQ(reply.request_id, 42u);
  EXPECT_EQ(reply.trace_id, 0xabcdef0123456789ull);
  EXPECT_EQ(reply.payload, std::vector<uint8_t>{9});
  server.join();
}

TEST(Frame, AuxBlockRoundTrips) {
  // v2: the aux-telemetry block rides behind the payload, gated on a
  // header flag, and is invisible to frames that don't carry one.
  Listener l(0);
  Frame sent;
  sent.type = FrameType::kProcessOk;
  sent.request_id = 7;
  sent.payload = {1, 2};
  sent.aux = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(wire_size(sent), kFrameHeaderSize + 2 + 4 + 4);
  std::thread server([&] {
    Socket s = l.accept();
    ASSERT_TRUE(s.valid());
    write_frame(s, sent, no_deadline());
  });
  Socket c = Socket::connect("127.0.0.1", l.port(), deadline_in_ms(2000));
  Frame got = read_frame(c, deadline_in_ms(2000));
  EXPECT_EQ(got.payload, sent.payload);
  EXPECT_EQ(got.aux, sent.aux);
  server.join();
}

TEST(Frame, RejectsUnknownFlags) {
  // Forward compatibility is explicit: a header with a flag bit we don't
  // understand is an error, not a silent skip.
  Listener l(0);
  std::thread server([&] {
    Socket s = l.accept();
    ASSERT_TRUE(s.valid());
    std::vector<uint8_t> hdr;
    auto w32 = [&](uint32_t v) {
      for (int i = 0; i < 4; ++i) hdr.push_back((v >> (8 * i)) & 0xff);
    };
    w32(kFrameMagic);
    hdr.push_back(kProtocolVersion);
    hdr.push_back(static_cast<uint8_t>(FrameType::kProcess));
    hdr.push_back(0x02);  // flags: an undefined bit
    hdr.push_back(0);
    for (int i = 0; i < 8; ++i) hdr.push_back(0);  // request id
    for (int i = 0; i < 8; ++i) hdr.push_back(0);  // trace id
    w32(0);
    s.send_all(hdr, no_deadline());
  });
  Socket c = Socket::connect("127.0.0.1", l.port(), deadline_in_ms(2000));
  EXPECT_THROW(read_frame(c, deadline_in_ms(2000)), TransportError);
  server.join();
}

TEST(Frame, RejectsBadMagic) {
  Listener l(0);
  std::thread server([&] {
    Socket s = l.accept();
    ASSERT_TRUE(s.valid());
    // An HTTP-looking peer, not an lmdev one.
    const char* junk = "GET / HTTP/1.1\r\n\r\n___padding___";
    s.send_all(std::span<const uint8_t>(
                   reinterpret_cast<const uint8_t*>(junk), 20),
               no_deadline());
  });
  Socket c = Socket::connect("127.0.0.1", l.port(), deadline_in_ms(2000));
  EXPECT_THROW(read_frame(c, deadline_in_ms(2000)), TransportError);
  server.join();
}

TEST(Frame, RejectsOversizedPayloadDeclaration) {
  Listener l(0);
  std::thread server([&] {
    Socket s = l.accept();
    ASSERT_TRUE(s.valid());
    // Valid header but a payload length beyond kMaxPayload.
    std::vector<uint8_t> hdr;
    auto w32 = [&](uint32_t v) {
      for (int i = 0; i < 4; ++i) hdr.push_back((v >> (8 * i)) & 0xff);
    };
    w32(kFrameMagic);
    hdr.push_back(kProtocolVersion);
    hdr.push_back(static_cast<uint8_t>(FrameType::kProcess));
    hdr.push_back(0);
    hdr.push_back(0);  // flags
    for (int i = 0; i < 8; ++i) hdr.push_back(0);  // request id
    for (int i = 0; i < 8; ++i) hdr.push_back(0);  // trace id
    w32(kMaxPayload + 1);
    s.send_all(hdr, no_deadline());
  });
  Socket c = Socket::connect("127.0.0.1", l.port(), deadline_in_ms(2000));
  EXPECT_THROW(read_frame(c, deadline_in_ms(2000)), TransportError);
  server.join();
}

/// A 28-byte frame header with the given fields, little-endian.
std::vector<uint8_t> frame_header(uint32_t magic, uint8_t version,
                                  uint16_t flags, uint32_t payload_len) {
  std::vector<uint8_t> hdr;
  auto put = [&](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) hdr.push_back((v >> (8 * i)) & 0xff);
  };
  put(magic, 4);
  put(version, 1);
  put(static_cast<uint8_t>(FrameType::kProcess), 1);
  put(flags, 2);
  put(0, 8);  // request id
  put(0, 8);  // trace id
  put(payload_len, 4);
  return hdr;
}

// FrameParser, the client's decoder, applies read_frame's header checks:
// the Frame.Rejects* headers, a version mismatch and an oversized aux
// block all throw instead of waiting for bytes.
TEST(FrameParser, RejectsEveryBadHeader) {
  std::vector<uint8_t> big_aux =
      frame_header(kFrameMagic, kProtocolVersion, kFlagAuxTelemetry, 0);
  for (int i = 0; i < 4; ++i) {
    big_aux.push_back(((kMaxAux + 1) >> (8 * i)) & 0xff);
  }
  const char* http = "GET / HTTP/1.1\r\n\r\n___padding_________";
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> cases = {
      {"unknown flags",
       frame_header(kFrameMagic, kProtocolVersion, 0x02, 0)},
      {"bad magic", std::vector<uint8_t>(http, http + kFrameHeaderSize)},
      {"oversized payload",
       frame_header(kFrameMagic, kProtocolVersion, 0, kMaxPayload + 1)},
      {"version mismatch",
       frame_header(kFrameMagic, kProtocolVersion + 1, 0, 0)},
      {"oversized aux", big_aux},
  };
  for (const auto& [what, bytes] : cases) {
    FrameParser p;
    p.feed(bytes.data(), bytes.size());
    EXPECT_THROW(p.next(), TransportError) << what;
  }
}

TEST(FrameParser, DecodesFramesFedOneByteAtATime) {
  Frame a;
  a.type = FrameType::kProcessOk;
  a.request_id = 7;
  a.trace_id = 0x0102030405060708ull;
  a.payload = {1, 2, 3};
  a.aux = {0xde, 0xad, 0xbe, 0xef};
  Frame b;
  b.type = FrameType::kPong;
  b.request_id = 8;
  std::vector<uint8_t> wire = encode_frame(a);
  std::vector<uint8_t> wb = encode_frame(b);
  wire.insert(wire.end(), wb.begin(), wb.end());
  FrameParser p;
  std::vector<Frame> got;
  for (uint8_t byte : wire) {
    p.feed(&byte, 1);
    while (auto f = p.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, a.type);
  EXPECT_EQ(got[0].request_id, a.request_id);
  EXPECT_EQ(got[0].trace_id, a.trace_id);
  EXPECT_EQ(got[0].payload, a.payload);
  EXPECT_EQ(got[0].aux, a.aux);
  EXPECT_EQ(got[1].type, b.type);
  EXPECT_EQ(got[1].request_id, b.request_id);
  EXPECT_TRUE(got[1].payload.empty());
  EXPECT_TRUE(got[1].aux.empty());
}

TEST(Frame, PeerDisconnectMidHeaderThrows) {
  Listener l(0);
  std::thread server([&] {
    Socket s = l.accept();
    ASSERT_TRUE(s.valid());
    uint8_t half[4] = {0x4c, 0x52, 0x4d, 0x50};  // 4 of 28 header bytes
    s.send_all(half, no_deadline());
    s.close();
  });
  Socket c = Socket::connect("127.0.0.1", l.port(), deadline_in_ms(2000));
  EXPECT_THROW(read_frame(c, deadline_in_ms(2000)), TransportError);
  server.join();
}

// -- protocol codecs ------------------------------------------------------

TEST(Protocol, HelloRoundTrip) {
  HelloRequest h{"client-x", 0xdeadbeefcafe1234ull};
  HelloRequest d = decode_hello(encode_hello(h));
  EXPECT_EQ(d.client, "client-x");
  EXPECT_EQ(d.fingerprint, 0xdeadbeefcafe1234ull);
}

TEST(Protocol, ListingRoundTrip) {
  std::vector<ArtifactListing> ls{
      {"A.f", DeviceKind::kGpu, 1, "sig-a"},
      {"seg:A.f:B.g", DeviceKind::kFpga, 2, "sig-b"},
  };
  auto d = decode_listing(encode_listing(ls));
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].task_id, "A.f");
  EXPECT_EQ(d[0].device, DeviceKind::kGpu);
  EXPECT_EQ(d[1].task_id, "seg:A.f:B.g");
  EXPECT_EQ(d[1].device, DeviceKind::kFpga);
  EXPECT_EQ(d[1].arity, 2);
  EXPECT_EQ(d[1].signature, "sig-b");
}

TEST(Protocol, ProcessRoundTrip) {
  ProcessRequest p{"A.f", DeviceKind::kGpu, {0, 1, 2, 255}};
  ProcessRequest d = decode_process(encode_process(p));
  EXPECT_EQ(d.task_id, "A.f");
  EXPECT_EQ(d.device, DeviceKind::kGpu);
  EXPECT_EQ(d.batch, (std::vector<uint8_t>{0, 1, 2, 255}));
}

TEST(Protocol, FingerprintIsDeviceConfigIndependent) {
  auto full = compile_ok(kSource);
  runtime::CompileOptions no_dev;
  no_dev.enable_gpu = false;
  no_dev.enable_fpga = false;
  auto cpu_only = compile_ok(kSource, no_dev);
  EXPECT_EQ(program_fingerprint(full->store),
            program_fingerprint(cpu_only->store));
  // ... and program-dependent.
  auto other = compile_ok(R"(
    class Q {
      local static int dbl(int x) { return 2 * x; }
      static void drive(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task dbl ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  EXPECT_NE(program_fingerprint(full->store),
            program_fingerprint(other->store));
}

TEST(Protocol, StoreListingSkipsCpuArtifacts) {
  auto cp = compile_ok(kSource);
  for (const ArtifactListing& l : store_listing(cp->store)) {
    EXPECT_NE(l.device, DeviceKind::kCpu) << l.task_id;
  }
  EXPECT_FALSE(store_listing(cp->store).empty());
}

TEST(Client, ParseEndpoint) {
  std::string host;
  uint16_t port = 0;
  parse_endpoint("127.0.0.1:8080", &host, &port);
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  parse_endpoint("localhost:1", &host, &port);
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 1);
  EXPECT_THROW(parse_endpoint("no-port-here", &host, &port), TransportError);
  EXPECT_THROW(parse_endpoint("h:not-a-number", &host, &port),
               TransportError);
  EXPECT_THROW(parse_endpoint(":9", &host, &port), TransportError);
}

// -- server/client exchange ----------------------------------------------

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = compile_ok(kSource);
    server_ = std::make_unique<DeviceServer>(*program_);
    server_->start();
  }

  SessionOptions fast_opts() {
    SessionOptions o;
    o.connect_timeout_ms = 2000;
    o.request_timeout_ms = 5000;
    o.backoff_initial_ms = 1;
    o.backoff_max_ms = 20;
    return o;
  }

  std::unique_ptr<runtime::CompiledProgram> program_;
  std::unique_ptr<DeviceServer> server_;
};

TEST_F(LoopbackTest, ListMatchesServerStore) {
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), fast_opts());
  auto listing = s.list();
  EXPECT_EQ(listing.size(), server_->artifact_count());
  ASSERT_FALSE(listing.empty());
  for (const auto& l : listing) {
    EXPECT_NE(l.device, DeviceKind::kCpu);
    EXPECT_FALSE(l.signature.empty());
  }
}

TEST_F(LoopbackTest, ProcessMatchesLocalArtifact) {
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), fast_opts());
  runtime::Artifact* local =
      program_->store.find("P.triple", DeviceKind::kGpu);
  ASSERT_NE(local, nullptr);

  std::vector<int32_t> in{1, 2, 3, 4, 5, -7};
  auto reply = s.process("P.triple", DeviceKind::kGpu, pack_ints(in));
  std::vector<int32_t> remote_out = unpack_ints(reply);

  std::vector<Value> vals;
  for (int32_t x : in) vals.push_back(Value::i32(x));
  std::vector<Value> local_out = local->process(vals);
  ASSERT_EQ(remote_out.size(), local_out.size());
  for (size_t i = 0; i < local_out.size(); ++i) {
    EXPECT_EQ(remote_out[i], local_out[i].as_i32()) << i;
  }
  EXPECT_GT(s.rtt_ewma_us(), 0.0);
  EXPECT_GE(s.rtt_histogram().count(), 1u);
}

TEST_F(LoopbackTest, PipelinedRepliesComeBackInOrder) {
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), fast_opts());
  std::vector<std::vector<uint8_t>> batches;
  for (int b = 0; b < 8; ++b) {
    batches.push_back(pack_ints({b, b + 10, b + 20}));
  }
  // Every exchange is issued before any reply is taken, so all eight are
  // in flight at once down the poll loop's one connection.
  std::vector<std::shared_ptr<PendingRpc>> rpcs;
  wait_for_completion([&](std::function<void()> all_done) {
    auto left = std::make_shared<std::atomic<size_t>>(batches.size());
    for (const auto& b : batches) {
      rpcs.push_back(s.process_async("P.triple", DeviceKind::kGpu, b,
                                     [left, all_done] {
                                       if (left->fetch_sub(1) == 1) all_done();
                                     }));
    }
  });
  std::vector<std::vector<uint8_t>> replies;
  for (auto& rpc : rpcs) replies.push_back(s.take(*rpc));
  ASSERT_EQ(replies.size(), batches.size());
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(unpack_ints(replies[static_cast<size_t>(b)]),
              (std::vector<int32_t>{3 * b, 3 * (b + 10), 3 * (b + 20)}));
  }
}

TEST_F(LoopbackTest, UnknownArtifactIsRemoteErrorNotRetried) {
  obs::MetricsRegistry metrics;
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), fast_opts(),
                  &metrics);
  EXPECT_THROW(s.process("P.nosuch", DeviceKind::kGpu, pack_ints({1})),
               RemoteError);
  EXPECT_EQ(metrics.value("net.request_retries"), 0u);
}

TEST_F(LoopbackTest, FingerprintMismatchRefused) {
  RemoteSession s("127.0.0.1", server_->port(), /*fingerprint=*/0xbad,
                  fast_opts());
  EXPECT_THROW(s.list(), RemoteError);
}

TEST_F(LoopbackTest, RetryReconnectsAfterServerDropsConnections) {
  obs::MetricsRegistry metrics;
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), fast_opts(),
                  &metrics);
  // Warm a pooled connection, then have the server drop every socket: the
  // pooled connection is dead, the retry dials a fresh one and succeeds.
  ASSERT_FALSE(s.list().empty());
  server_->stop();
  server_ = std::make_unique<DeviceServer>(*program_);
  server_->start();
  // New server, new (ephemeral) port — reuse the old port's session only
  // when the port survived; restart on the same port instead.
  RemoteSession s2("127.0.0.1", server_->port(),
                   program_fingerprint(program_->store), fast_opts(),
                   &metrics);
  auto reply = s2.process("P.triple", DeviceKind::kGpu, pack_ints({5}));
  EXPECT_EQ(unpack_ints(reply), (std::vector<int32_t>{15}));
}

TEST_F(LoopbackTest, RequestTimeoutAgainstUnresponsivePeer) {
  // A listener that accepts and then never answers.
  Listener silent(0);
  std::thread sink_thread([&] {
    Socket s = silent.accept();
    // Hold the socket open without replying until the test ends.
    if (s.valid()) std::this_thread::sleep_for(std::chrono::seconds(2));
  });
  SessionOptions o = fast_opts();
  o.connect_timeout_ms = 300;
  o.request_timeout_ms = 300;
  o.max_retries = 0;
  RemoteSession s("127.0.0.1", silent.port(), 0, o);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(s.list(), TransportError);
  auto waited = std::chrono::steady_clock::now() - t0;
  // Deadline honored: an unresponsive peer costs ~request_timeout, never
  // the full 2s the peer sleeps.
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 1.5);
  sink_thread.join();
  silent.close();
}

TEST_F(LoopbackTest, ConnectFailureFastWhenNothingListens) {
  // Grab an ephemeral port and close it so nothing listens there.
  uint16_t dead_port;
  {
    Listener probe(0);
    dead_port = probe.port();
    probe.close();
  }
  SessionOptions o = fast_opts();
  o.connect_timeout_ms = 500;
  o.request_timeout_ms = 500;
  o.max_retries = 0;
  RemoteSession s("127.0.0.1", dead_port, 0, o);
  EXPECT_THROW(s.list(), TransportError);
}

TEST_F(LoopbackTest, HeartbeatMarksEndpointDownAndProcessFailsFast) {
  obs::MetricsRegistry metrics;
  SessionOptions o = fast_opts();
  o.heartbeat_interval_ms = 20;
  o.heartbeat_misses = 2;
  o.max_retries = 0;
  o.connect_timeout_ms = 200;
  o.request_timeout_ms = 200;
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), o, &metrics);
  ASSERT_FALSE(s.list().empty());
  EXPECT_TRUE(s.alive());
  s.start_heartbeat();

  server_->abrupt_stop();
  // Two missed pings at 20ms cadence: well under a second to detect.
  for (int i = 0; i < 200 && s.alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(s.alive());
  EXPECT_GE(metrics.value("net.endpoint_down"), 1u);

  // Fast-fail: no dial, no timeout wait.
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(s.process("P.triple", DeviceKind::kGpu, pack_ints({1})),
               TransportError);
  auto waited = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  EXPECT_LT(waited, 0.1);
}

TEST_F(LoopbackTest, AbruptStopMidExchangeSurfacesTransportError) {
  SessionOptions o = fast_opts();
  o.max_retries = 0;
  o.request_timeout_ms = 1000;
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), o);
  ASSERT_FALSE(s.list().empty());
  server_->abrupt_stop();
  EXPECT_THROW(
      {
        // The pooled connection died with the server; with retries off the
        // failure surfaces (with retries on, a redial would also fail —
        // nothing accepts anymore).
        s.process("P.triple", DeviceKind::kGpu, pack_ints({1, 2, 3}));
      },
      TransportError);
  EXPECT_TRUE(server_->crashed());
}

TEST_F(LoopbackTest, FailAfterCrashesServerDeterministically) {
  server_->stop();
  DeviceServer::Options so;
  so.fail_after = 2;
  server_ = std::make_unique<DeviceServer>(*program_, so);
  server_->start();
  SessionOptions o = fast_opts();
  o.max_retries = 0;
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), o);
  EXPECT_NO_THROW(s.process("P.triple", DeviceKind::kGpu, pack_ints({1})));
  EXPECT_NO_THROW(s.process("P.triple", DeviceKind::kGpu, pack_ints({2})));
  // The crash fires on the server thread just after the second reply is
  // written, so give the flag a moment to become visible.
  for (int i = 0; i < 200 && !server_->crashed(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(server_->crashed());
  EXPECT_THROW(s.process("P.triple", DeviceKind::kGpu, pack_ints({3})),
               TransportError);
}

TEST_F(LoopbackTest, RemoteArtifactMatchesLocalProcess) {
  auto session = std::make_shared<RemoteSession>(
      "127.0.0.1", server_->port(), program_fingerprint(program_->store),
      fast_opts());
  runtime::Artifact* local =
      program_->store.find("P.triple", DeviceKind::kGpu);
  ASSERT_NE(local, nullptr);
  RemoteArtifact remote(local->manifest(), session);
  EXPECT_TRUE(remote.is_remote());
  EXPECT_EQ(remote.location(), session->endpoint());
  EXPECT_NE(remote.cost_label(),
            std::string(runtime::to_string(DeviceKind::kGpu)));

  std::vector<Value> in{Value::i32(4), Value::i32(-9), Value::i32(100)};
  std::vector<Value> r = remote.process(in);
  std::vector<Value> l = local->process(in);
  ASSERT_EQ(r.size(), l.size());
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_TRUE(r[i].equals(l[i])) << i;
  }
  EXPECT_GT(remote.transfer_stats().bytes_to_device.load(), 0u);
  EXPECT_GT(remote.transfer_stats().bytes_from_device.load(), 0u);
}

// -- pooled wire buffers --------------------------------------------------

// pack_batch into a private pool: the first batch allocates, every later
// batch reuses the retired buffer's capacity. This is the allocation-count
// contract the wire paths rely on.
TEST(BufferPool, SteadyStatePackIsAllocationFree) {
  serde::BufferPool pool;
  std::vector<Value> vals;
  for (int32_t i = 0; i < 256; ++i) vals.push_back(Value::i32(i));

  auto first = serde::pack_batch(vals, lime::Type::int_(), pool);
  auto plain = serde::pack_batch(vals, lime::Type::int_());
  EXPECT_EQ(first, plain);  // pooling never changes the bytes
  EXPECT_EQ(pool.allocations(), 1u);
  pool.release(std::move(first));

  for (int round = 0; round < 100; ++round) {
    auto wire = serde::pack_batch(vals, lime::Type::int_(), pool);
    EXPECT_EQ(wire, plain);
    pool.release(std::move(wire));
  }
  EXPECT_EQ(pool.allocations(), 1u) << "steady state must not allocate";
  EXPECT_EQ(pool.reuses(), 100u);
}

TEST(BufferPool, FreeListIsCapped) {
  serde::BufferPool pool;
  for (size_t i = 0; i < serde::BufferPool::kMaxFree + 8; ++i) {
    std::vector<uint8_t> buf(64, 0xab);
    pool.release(std::move(buf));
  }
  // Only kMaxFree buffers were kept: the next kMaxFree acquires reuse,
  // the one after that allocates.
  for (size_t i = 0; i < serde::BufferPool::kMaxFree; ++i) pool.acquire();
  EXPECT_EQ(pool.reuses(), serde::BufferPool::kMaxFree);
  pool.acquire();
  EXPECT_EQ(pool.allocations(), 1u);
}

// End to end: once the client and server have each retired one buffer per
// side, further loopback exchanges stop hitting the allocator for wire
// buffers entirely.
TEST_F(LoopbackTest, SteadyStateExchangesStopAllocatingWireBuffers) {
  RemoteSession s("127.0.0.1", server_->port(),
                  program_fingerprint(program_->store), fast_opts());
  auto exchange = [&] {
    auto reply = s.process("P.triple", DeviceKind::kGpu, pack_ints({1, 2, 3}));
    EXPECT_EQ(unpack_ints(reply), (std::vector<int32_t>{3, 6, 9}));
  };
  // Warm-up: populate the shared pool (client request + server reply
  // buffers, plus anything earlier tests left in flight).
  for (int i = 0; i < 4; ++i) exchange();
  const uint64_t allocs_before = serde::wire_pool().allocations();
  const uint64_t reuses_before = serde::wire_pool().reuses();
  for (int i = 0; i < 32; ++i) exchange();
  EXPECT_EQ(serde::wire_pool().allocations(), allocs_before)
      << "warm exchanges must recycle wire buffers, not allocate";
  EXPECT_GE(serde::wire_pool().reuses(), reuses_before + 32);
}

/// Open file descriptors of this process.
size_t open_fds() {
  size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST_F(LoopbackTest, ClosedConnectionsAreReaped) {
  // Each connection holds a socket and a serve thread until the server
  // reaps it; a server that reaps only at stop() grows by one fd per
  // connection.
  const size_t before = open_fds();
  for (int i = 0; i < 200; ++i) {
    Socket c = Socket::connect("127.0.0.1", server_->port(),
                               deadline_in_ms(2000));
  }
  // The server reaps at its next accept, once a serve thread saw its peer
  // go: a few more connections let the last of them finish.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (open_fds() > before + 8 &&
         std::chrono::steady_clock::now() < deadline) {
    Socket c = Socket::connect("127.0.0.1", server_->port(),
                               deadline_in_ms(2000));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(open_fds(), before + 8);
}

}  // namespace
}  // namespace lm::net
