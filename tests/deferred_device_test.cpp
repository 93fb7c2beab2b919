// A device node whose batches complete off the executor, without sockets.
//
// Every device batch takes one path (DESIGN.md §4, §11): the node issues
// it with Artifact::process_async, parks with kRpc if it is not complete,
// and collects it once the completion wakes the task. Local artifacts
// complete at issue; remote ones complete later, from the poll thread.
// Here a test artifact stands in for the remote one, so the parked path
// runs under both schedulers — including the seeded one, whose drive()
// must wait out the external bracket instead of calling it a deadlock —
// and so does the remote-failure fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/liquid_runtime.h"
#include "util/error.h"
#include "workloads/workloads.h"

namespace lm::runtime {
namespace {

using bc::Value;

/// Stands in for a remote device: is_remote(), so kGpuOnly ranks it ahead
/// of the local GPU artifact it wraps. Each batch computes through that
/// local artifact on a helper thread and completes after a short delay,
/// off the executor, the way an RPC reply does. Batch `fail_batch`
/// (1-based; 0 for none) fails with TransportError instead.
class DeferredArtifact final : public Artifact {
 public:
  DeferredArtifact(Artifact* local, uint64_t fail_batch)
      : Artifact(local->manifest()), local_(local), fail_batch_(fail_batch) {}

  ~DeferredArtifact() override {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::thread& t : helpers_) t.join();
  }

  /// Calibration only; a device node's batches go through process_async.
  std::vector<Value> process(std::span<const Value> inputs) override {
    return local_->process(inputs);
  }

  std::unique_ptr<AsyncBatch> process_async(
      std::span<const Value> inputs, std::function<void()> on_done) override {
    auto batch = std::make_unique<Deferred>();
    Deferred* d = batch.get();
    const bool fail = issued_.fetch_add(1) + 1 == fail_batch_;
    std::lock_guard<std::mutex> lock(mu_);
    // The node keeps `inputs` and the batch alive until it collects, which
    // it does only after `done` fires.
    helpers_.emplace_back([this, d, inputs, fail, done = std::move(on_done)] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      try {
        if (fail) throw TransportError("injected transport failure");
        d->out = local_->process(inputs);
      } catch (...) {
        d->error = std::current_exception();
      }
      done();
    });
    return batch;
  }

  bool is_remote() const override { return true; }
  std::string location() const override { return "deferred"; }
  std::string cost_label() const override {
    return std::string(to_string(manifest_.device)) + "@deferred";
  }

  uint64_t issued() const { return issued_.load(); }

 private:
  struct Deferred final : AsyncBatch {
    std::vector<Value> out;
    std::exception_ptr error;
    std::vector<Value> take_results() override {
      if (error) std::rethrow_exception(error);
      return std::move(out);
    }
  };

  Artifact* local_;
  const uint64_t fail_batch_;
  std::atomic<uint64_t> issued_{0};
  std::mutex mu_;
  std::vector<std::thread> helpers_;
};

const workloads::Workload& intpipe() {
  for (const auto& w : workloads::pipeline_suite()) {
    if (w.name == "intpipe") return w;
  }
  ADD_FAILURE() << "no intpipe workload";
  std::abort();
}

struct Schedule {
  size_t workers;
  uint64_t seed;
};

std::string describe(const Schedule& s) {
  return s.seed != 0 ? "seed " + std::to_string(s.seed)
                     : std::to_string(s.workers) + " worker(s)";
}

/// Threaded with 1 and 4 workers, seeded with seeds 1-4.
std::vector<Schedule> schedules() {
  return {{1, 0}, {4, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}};
}

/// Runs intpipe under kGpuOnly with every local GPU artifact wrapped in a
/// DeferredArtifact, and checks the output against the reference at
/// tol = 0. 1024 elements in 64-element device batches: 16 batches a node.
void run_deferred(const Schedule& s, uint64_t fail_batch,
                  const std::function<void(LiquidRuntime&)>& check) {
  const workloads::Workload& w = intpipe();
  auto cp = compile(w.lime_source);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;
  rc.device_batch = 64;
  rc.worker_threads = s.workers;
  rc.scheduler_seed = s.seed;
  LiquidRuntime rt(*cp, rc);
  std::vector<const DeferredArtifact*> deferred;
  for (const ArtifactManifest* m : cp->store.manifests()) {
    if (m->device != DeviceKind::kGpu) continue;
    auto a = std::make_unique<DeferredArtifact>(
        cp->store.find(m->task_id, DeviceKind::kGpu), fail_batch);
    deferred.push_back(a.get());
    rt.add_remote_artifact(std::move(a));
  }
  ASSERT_FALSE(deferred.empty());

  const size_t n = 1024;
  Value expected = w.reference(w.make_args(n, 11));
  Value got = rt.call(w.entry, w.make_args(n, 11));
  EXPECT_TRUE(workloads::results_match(got, expected, 0.0)) << describe(s);

  bool any_remote = false;
  for (const SubstitutionRecord& r : rt.stats().substitutions) {
    any_remote |= r.remote && r.endpoint == "deferred";
  }
  EXPECT_TRUE(any_remote) << describe(s) << ": no node took the deferred path";
  uint64_t issued = 0;
  for (const DeferredArtifact* a : deferred) issued += a->issued();
  EXPECT_GE(issued, fail_batch != 0 ? fail_batch : 2) << describe(s);
  check(rt);
}

TEST(DeferredDevice, MatchesReferenceOnEveryScheduler) {
  for (const Schedule& s : schedules()) {
    run_deferred(s, /*fail_batch=*/0, [&](LiquidRuntime& rt) {
      EXPECT_TRUE(rt.stats().resubstitutions.empty()) << describe(s);
      EXPECT_EQ(rt.metrics().value("net.remote_fallbacks"), 0u)
          << describe(s);
    });
  }
}

TEST(DeferredDevice, TransportFailureFallsBackToCpu) {
  for (const Schedule& s : schedules()) {
    run_deferred(s, /*fail_batch=*/2, [&](LiquidRuntime& rt) {
      const auto& resubs = rt.stats().resubstitutions;
      ASSERT_EQ(resubs.size(), 1u) << describe(s);
      EXPECT_EQ(resubs[0].reason, "remote-failure") << describe(s);
      EXPECT_EQ(resubs[0].from, DeviceKind::kGpu) << describe(s);
      EXPECT_EQ(resubs[0].to, DeviceKind::kCpu) << describe(s);
      EXPECT_EQ(resubs[0].at_batch, 1u) << describe(s);
      EXPECT_EQ(rt.metrics().value("net.remote_fallbacks"), 1u)
          << describe(s);
    });
  }
}

}  // namespace
}  // namespace lm::runtime
