// Runtime-level remote transport coverage (DESIGN.md §9).
//
// Two properties anchor the subsystem:
//
//  * Loopback differential — every workload must produce results identical
//    to the local reference when its device artifacts run out-of-process
//    (in-process DeviceServer over 127.0.0.1). Remote execution is a
//    performance/topology decision, never a semantic one — the same
//    contract the placement differential pins for local policies.
//
//  * Graceful degradation — a server that dies mid-stream must not abort
//    the program: the node swaps to its local CPU fallback, the output
//    stays exact, and the swap is visible in the decision log, the metrics
//    and the flight recorder.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/attach.h"
#include "net/server.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"
#include "tests/decision_log_test_util.h"
#include "tests/json_test_util.h"
#include "workloads/workloads.h"

namespace lm::workloads {
namespace {

using bc::Value;
using runtime::DeviceKind;
using runtime::LiquidRuntime;
using runtime::Placement;
using runtime::RuntimeConfig;

const Workload& pipeline_by_name(const std::string& name) {
  for (const auto& w : pipeline_suite()) {
    if (w.name == name) return w;
  }
  ADD_FAILURE() << "no pipeline workload named " << name;
  std::abort();
}

/// Compiles `w` twice — once for the server process-stand-in, once for the
/// client — runs the client against the server and returns the result.
/// The two CompiledPrograms never share artifact stores: every device batch
/// the client offloads really crosses the socket.
struct Loopback {
  std::unique_ptr<runtime::CompiledProgram> server_prog;
  std::unique_ptr<runtime::CompiledProgram> client_prog;
  std::unique_ptr<net::DeviceServer> server;

  explicit Loopback(const Workload& w,
                    net::DeviceServer::Options sopts = {},
                    runtime::CompileOptions client_copts = {}) {
    server_prog = runtime::compile(w.lime_source);
    EXPECT_TRUE(server_prog->ok()) << server_prog->diags.to_string();
    server = std::make_unique<net::DeviceServer>(*server_prog, sopts);
    server->start();
    client_prog = runtime::compile(w.lime_source, client_copts);
    EXPECT_TRUE(client_prog->ok()) << client_prog->diags.to_string();
  }

  RuntimeConfig remote_config() const {
    RuntimeConfig rc;
    rc.remote_endpoints = {server->endpoint()};
    return rc;
  }
};

struct Case {
  const Workload* w;
  bool is_pipeline;
};

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const auto& w : gpu_suite()) out.push_back({&w, false});
  for (const auto& w : pipeline_suite()) out.push_back({&w, true});
  return out;
}

class RemoteDifferential : public ::testing::TestWithParam<size_t> {};

// Acceptance gate: every workload, bit-identical with --remote vs local.
TEST_P(RemoteDifferential, LoopbackMatchesReference) {
  const Case c = all_cases()[GetParam()];
  const Workload& w = *c.w;
  const size_t n = w.name == "nbody" || w.name == "matmul" ? 256 : 1024;
  const uint64_t seed = 424242;
  const double tol = w.name == "sumreduce" ? 1e-5 : 0.0;

  Loopback lb(w);
  RuntimeConfig rc = lb.remote_config();
  LiquidRuntime rt(*lb.client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
  EXPECT_TRUE(att.errors.empty())
      << w.name << ": " << (att.errors.empty() ? "" : att.errors[0]);
  EXPECT_GT(att.artifacts, 0u) << w.name << " served nothing";

  Value expected = w.reference(w.make_args(n, seed));
  Value got = rt.call(w.entry, w.make_args(n, seed));
  EXPECT_TRUE(results_match(got, expected, tol))
      << w.name << " diverged over the loopback transport";

  // Pipeline workloads substitute task artifacts, and kAuto takes a
  // device's remote artifact before its local one, so at least one
  // decision must have gone out-of-process: the differential is not
  // vacuous.
  if (c.is_pipeline) {
    bool any_remote = false;
    for (const auto& s : rt.stats().substitutions) any_remote |= s.remote;
    EXPECT_TRUE(any_remote) << w.name << " never used the remote device";
    EXPECT_GT(rt.metrics().value("net.requests"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, RemoteDifferential,
    ::testing::Range<size_t>(0, all_cases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(all_cases()[info.param].w->name) +
             (all_cases()[info.param].is_pipeline ? "_pipe" : "");
    });

// The point of the transport: a host compiled with *no* device backends
// still runs its filters on an accelerator — somebody else's, over TCP.
// The fingerprint hashes only CPU manifests, so the asymmetric configs
// still recognize each other as the same program.
TEST(RemoteRuntime, ClientWithoutDeviceBackendsOffloadsRemotely) {
  const Workload& w = pipeline_by_name("intpipe");
  runtime::CompileOptions cpu_only;
  cpu_only.enable_gpu = false;
  cpu_only.enable_fpga = false;
  Loopback lb(w, {}, cpu_only);

  RuntimeConfig rc = lb.remote_config();
  LiquidRuntime rt(*lb.client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
  ASSERT_TRUE(att.errors.empty()) << att.errors[0];
  ASSERT_GT(att.artifacts, 0u);

  const size_t n = 512;
  Value expected = w.reference(w.make_args(n, 7));
  Value got = rt.call(w.entry, w.make_args(n, 7));
  EXPECT_TRUE(results_match(got, expected, 0.0));

  bool any_remote = false;
  for (const auto& s : rt.stats().substitutions) {
    if (s.remote) {
      any_remote = true;
      EXPECT_EQ(s.endpoint, lb.server->endpoint());
      EXPECT_NE(s.device, DeviceKind::kCpu);
    }
  }
  EXPECT_TRUE(any_remote);
  EXPECT_GT(lb.server->requests_served(), 0u);
}

// Graceful degradation, the acceptance fault-injection gate: the server
// crashes (deterministically, via --fail-after) mid-stream; the stream must
// complete on the local bytecode fallback with exact output, and the swap
// must be visible in the decision log, the net.remote_fallbacks counter and
// the flight recorder.
TEST(RemoteRuntime, ServerDeathMidStreamFallsBackToBytecode) {
  const Workload& w = pipeline_by_name("intpipe");
  net::DeviceServer::Options sopts;
  sopts.fail_after = 2;  // serve two batches, then drop everything
  Loopback lb(w, sopts);

  RuntimeConfig rc = lb.remote_config();
  rc.device_batch = 64;  // 1024 elements -> 16 batches per device node
  LiquidRuntime rt(*lb.client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
  ASSERT_TRUE(att.errors.empty()) << att.errors[0];
  ASSERT_GT(att.artifacts, 0u);

  const size_t n = 1024;
  Value expected = w.reference(w.make_args(n, 99));
  Value got = rt.call(w.entry, w.make_args(n, 99));

  // Exact output across the crash — not "mostly right", identical.
  EXPECT_TRUE(results_match(got, expected, 0.0));
  EXPECT_TRUE(lb.server->crashed());

  // The swap is in the decision log with the remote-failure reason.
  const auto& resubs = rt.stats().resubstitutions;
  ASSERT_GE(resubs.size(), 1u);
  bool saw_fallback = false;
  for (const auto& r : resubs) {
    if (r.reason != "remote-failure") continue;
    saw_fallback = true;
    EXPECT_EQ(r.to, DeviceKind::kCpu);
    EXPECT_GE(r.at_batch, 1u);
  }
  EXPECT_TRUE(saw_fallback);
  EXPECT_GE(rt.metrics().value("net.remote_fallbacks"), 1u);

  // The black box caught the transport fault.
  bool flight_saw_fault = false;
  for (const auto& ev : obs::TraceRecorder::flight().events()) {
    if (std::string(ev.category) == "fault" && ev.name == "remote-transport") {
      flight_saw_fault = true;
    }
  }
  EXPECT_TRUE(flight_saw_fault);
}

// An endpoint nobody listens on degrades to local execution: the attach
// collects the error instead of throwing and the run proceeds untouched.
TEST(RemoteRuntime, UnreachableEndpointDegradesToLocal) {
  const Workload& w = pipeline_by_name("intpipe");
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());

  RuntimeConfig rc;
  rc.remote_endpoints = {"127.0.0.1:1"};  // reserved port, nothing there
  LiquidRuntime rt(*cp, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *cp);
  EXPECT_EQ(att.artifacts, 0u);
  ASSERT_EQ(att.errors.size(), 1u);
  EXPECT_NE(att.errors[0].find("127.0.0.1:1"), std::string::npos);

  const size_t n = 256;
  Value expected = w.reference(w.make_args(n, 5));
  Value got = rt.call(w.entry, w.make_args(n, 5));
  EXPECT_TRUE(results_match(got, expected, 0.0));
  for (const auto& s : rt.stats().substitutions) EXPECT_FALSE(s.remote);
}

// A server hosting a *different* program is refused at attach (fingerprint
// mismatch), again as a collected error, and the run stays local.
TEST(RemoteRuntime, FingerprintMismatchIsCollectedNotFatal) {
  const Workload& server_w = pipeline_by_name("intpipe");
  auto server_prog = runtime::compile(server_w.lime_source);
  ASSERT_TRUE(server_prog->ok());
  net::DeviceServer server(*server_prog);
  server.start();

  // The client compiled something else entirely.
  const Workload& client_w = gpu_suite().front();
  auto client_prog = runtime::compile(client_w.lime_source);
  ASSERT_TRUE(client_prog->ok());

  RuntimeConfig rc;
  rc.remote_endpoints = {server.endpoint()};
  LiquidRuntime rt(*client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *client_prog);
  EXPECT_EQ(att.artifacts, 0u);
  ASSERT_EQ(att.errors.size(), 1u);
  EXPECT_NE(att.errors[0].find("fingerprint"), std::string::npos)
      << att.errors[0];

  const size_t n = 256;
  Value expected = client_w.reference(client_w.make_args(n, 3));
  Value got = rt.call(client_w.entry, client_w.make_args(n, 3));
  EXPECT_TRUE(results_match(got, expected, 1e-5));
}

// Golden decisions over the loopback, in placement_golden_test's row
// format. The §4.2 policies take the remote artifact of a device before
// the local one. Seed-ranked kAdaptive lists local artifacts only, since the
// seeds model this process's executors: it never sends the server a batch.
TEST(RemoteRuntime, GoldenDecisions) {
  const Workload& w = pipeline_by_name("intpipe");
  struct Row {
    Placement placement;
    bool calibrate;
    const char* want;
  };
  const Row rows[] = {
      {Placement::kAuto, true,
       "IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused remote "
       "src=- score=-1 | ran: "
       "seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl@<ep>"},
      {Placement::kGpuOnly, true,
       "IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused remote "
       "src=- score=-1 | ran: "
       "seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl@<ep>"},
      {Placement::kFpgaOnly, true,
       "IntPipe.scale+IntPipe.clamp+IntPipe.offset->fpga/verilog fused remote "
       "src=- score=-1 | ran: "
       "seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@fpga/verilog@<ep>"},
      {Placement::kAdaptive, false,
       "IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused "
       "src=static score=0.042 | ran: "
       "seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl"},
  };
  for (const Row& r : rows) {
    Loopback lb(w);
    RuntimeConfig rc = lb.remote_config();
    rc.placement = r.placement;
    rc.enable_calibration = r.calibrate;
    LiquidRuntime rt(*lb.client_prog, rc);
    net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
    ASSERT_TRUE(att.errors.empty()) << att.errors[0];
    ASSERT_GT(att.artifacts, 0u);

    Value expected = w.reference(w.make_args(64, 7));
    EXPECT_TRUE(results_match(rt.call(w.entry, w.make_args(64, 7)), expected,
                              0.0));
    EXPECT_EQ(lm::testing::decision_row(rt, lb.server->endpoint()), r.want)
        << "placement " << static_cast<int>(r.placement)
        << (r.calibrate ? "" : " (seed-ranked)");
    if (r.placement == Placement::kAdaptive && !r.calibrate) {
      EXPECT_EQ(lb.server->requests_served(), 0u);
    }
  }
}

// kAdaptive calibrates remote candidates over the wire like any other: the
// chosen plan (whatever the timings favored) still computes the function.
TEST(RemoteRuntime, AdaptivePlacementWithRemoteCandidatesStaysCorrect) {
  const Workload& w = pipeline_by_name("intpipe");
  Loopback lb(w);
  RuntimeConfig rc = lb.remote_config();
  rc.placement = Placement::kAdaptive;
  rc.calibration_elements = 32;
  LiquidRuntime rt(*lb.client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
  ASSERT_TRUE(att.errors.empty());
  ASSERT_GT(att.artifacts, 0u);

  const size_t n = 512;
  Value expected = w.reference(w.make_args(n, 17));
  Value got = rt.call(w.entry, w.make_args(n, 17));
  EXPECT_TRUE(results_match(got, expected, 0.0));
  // Remote candidates joined calibration (RPCs happened even if a local
  // artifact ultimately won the timings).
  EXPECT_GT(rt.metrics().value("net.requests"), 0u);
}

// kAdaptive lists a device's remote artifact before its local one, as the
// §4.2 policies do. When the prefix is too short to measure anything, the
// first candidate wins: the server's fused GPU segment.
TEST(RemoteRuntime, UnmeasuredAdaptiveTakesRemoteArtifactFirst) {
  const Workload& w = pipeline_by_name("intpipe");
  Loopback lb(w);
  RuntimeConfig rc = lb.remote_config();
  rc.placement = Placement::kAdaptive;
  rc.calibration_elements = 0;
  LiquidRuntime rt(*lb.client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
  ASSERT_TRUE(att.errors.empty()) << att.errors[0];
  ASSERT_GT(att.artifacts, 0u);

  const size_t n = 256;
  Value expected = w.reference(w.make_args(n, 19));
  Value got = rt.call(w.entry, w.make_args(n, 19));
  EXPECT_TRUE(results_match(got, expected, 0.0));
  ASSERT_EQ(rt.stats().substitutions.size(), 1u);
  const runtime::SubstitutionRecord& s = rt.stats().substitutions[0];
  EXPECT_TRUE(s.fused);
  EXPECT_TRUE(s.remote);
  EXPECT_EQ(s.device, DeviceKind::kGpu);
  EXPECT_EQ(s.source, "");
  EXPECT_GT(lb.server->requests_served(), 0u);
}

// The unified-trace differential (ISSUE 5 acceptance): with a recorder
// installed, a remote run produces ONE Chrome trace holding both the client
// rpc spans and the server-side rows the replies piggybacked — every span
// stamped with the same trace id, every server execute nested strictly
// inside the client span that caused it. Run under --fail-after so the
// property holds through fault injection too: requests the crash swallowed
// simply have no server pair, they never produce misaligned orphans.
TEST(RemoteRuntime, UnifiedTracePairsClientAndServerSpans) {
  const Workload& w = pipeline_by_name("intpipe");
  net::DeviceServer::Options sopts;
  sopts.fail_after = 6;  // crash mid-stream, after several traced exchanges
  Loopback lb(w, sopts);

  RuntimeConfig rc = lb.remote_config();
  rc.device_batch = 64;  // 1024 elements -> enough pipelined requests
  LiquidRuntime rt(*lb.client_prog, rc);
  net::AttachResult att = net::attach_remote_devices(rt, *lb.client_prog);
  ASSERT_TRUE(att.errors.empty()) << att.errors[0];
  ASSERT_GT(att.artifacts, 0u);

  obs::TraceRecorder rec;
  rec.install();
  const size_t n = 1024;
  Value expected = w.reference(w.make_args(n, 31));
  Value got = rt.call(w.entry, w.make_args(n, 31));
  rec.uninstall();
  EXPECT_TRUE(results_match(got, expected, 0.0));
  EXPECT_TRUE(lb.server->crashed());

  char want_id[24];
  std::snprintf(want_id, sizeof(want_id), "%016llx",
                static_cast<unsigned long long>(rec.trace_id()));

  lm::testing::Json doc = lm::testing::parse_or_die(rec.chrome_trace_json());
  EXPECT_EQ(doc.at("metadata").at("traceId").str, want_id);

  struct Span {
    double ts, dur;
    std::string trace_id;
    double request_id;
  };
  std::vector<Span> rpcs;
  std::map<std::string, std::vector<Span>> srv;  // name -> spans
  bool lane_named = false;
  for (const lm::testing::Json& e : doc.at("traceEvents").arr) {
    const std::string& name = e.at("name").str;
    if (e.at("ph").str == "M" && name == "thread_name" &&
        e.at("args").at("name").str == "remote " + lb.server->endpoint()) {
      lane_named = true;
    }
    if (e.at("ph").str != "X") continue;
    Span s{e.at("ts").num, e.at("dur").num, e.at("args").at("trace_id").str,
           e.at("args").at("request_id").num};
    if (name.rfind("rpc:", 0) == 0) rpcs.push_back(s);
    if (name.rfind("srv:", 0) == 0) srv[name].push_back(s);
  }
  // The remote lane exists and is labeled with the endpoint.
  EXPECT_TRUE(lane_named);
  // Several exchanges were traced before the crash; the four server-side
  // phases arrived for each of them.
  ASSERT_GE(rpcs.size(), 3u);
  const size_t n_exec = srv["srv:execute"].size();
  ASSERT_GE(n_exec, 2u);
  EXPECT_EQ(srv["srv:decode"].size(), n_exec);
  EXPECT_EQ(srv["srv:queue"].size(), n_exec);
  EXPECT_EQ(srv["srv:encode"].size(), n_exec);

  // Every span in the unified trace shares the client's trace id.
  for (const Span& s : rpcs) EXPECT_EQ(s.trace_id, want_id);
  for (const auto& [name, spans] : srv) {
    for (const Span& s : spans) EXPECT_EQ(s.trace_id, want_id);
  }

  // Pairing: each server execute nests strictly inside exactly one client
  // rpc span (the alignment guarantee), and no rpc span owns two server
  // executes. Requests the crash ate leave rpc spans with no pair — never
  // the other way round.
  std::map<size_t, int> owner_count;
  for (const Span& e : srv["srv:execute"]) {
    int owners = 0;
    for (size_t i = 0; i < rpcs.size(); ++i) {
      if (e.ts >= rpcs[i].ts && e.ts + e.dur <= rpcs[i].ts + rpcs[i].dur) {
        ++owners;
        ++owner_count[i];
      }
    }
    EXPECT_EQ(owners, 1) << "server execute at ts=" << e.ts
                         << " not nested in exactly one client rpc span";
  }
  for (const auto& [i, cnt] : owner_count) {
    EXPECT_EQ(cnt, 1) << "rpc span " << i << " owns " << cnt
                      << " server executes";
  }
  EXPECT_LE(owner_count.size(), rpcs.size());

  // The server histograms the replies piggybacked reached the report as
  // ":server" rows (LatencyHistogram::merge satellite). Summed across rows
  // they account for exactly the executes the trace saw.
  uint64_t server_batches = 0;
  for (const auto& row : rt.report().tasks) {
    if (row.device.find(":server") != std::string::npos) {
      server_batches += row.batches;
      EXPECT_GT(row.p50_us, 0.0);
    }
  }
  EXPECT_EQ(server_batches, n_exec);
}

}  // namespace
}  // namespace lm::workloads
