// Tests for the event-driven executor core: the task/wake state machine,
// seeded deterministic replay, worker-count observational equivalence over
// the workload suite, and the thousand-graph soak that proves N graphs
// multiplex over O(workers) OS threads instead of threads-per-task.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/executor.h"
#include "runtime/fifo.h"
#include "runtime/liquid_runtime.h"
#include "util/error.h"
#include "workloads/workloads.h"

namespace lm::runtime {
namespace {

using bc::Value;
using workloads::pipeline_suite;
using workloads::results_match;
using workloads::Workload;

/// Threads of this process right now (Linux: /proc/self/status).
int live_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

/// Completion latch for toy graphs: counts retired tasks.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  size_t count = 0;

  void arrive() {
    std::lock_guard<std::mutex> lock(mu);
    ++count;
    cv.notify_all();
  }
  void wait_for(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return count >= n; });
  }
  bool reached(size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    return count >= n;
  }
  /// False when `timeout` passes first.
  bool wait_for(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] { return count >= n; });
  }
};

/// Steps `total` times then finishes.
class CountdownTask final : public ExecTask {
 public:
  CountdownTask(int total, std::atomic<int>* steps, Latch* latch)
      : remaining_(total), steps_(steps), latch_(latch) {}

  StepResult step() override {
    steps_->fetch_add(1, std::memory_order_relaxed);
    return --remaining_ > 0 ? StepResult::kReady : StepResult::kDone;
  }
  void retired() override { latch_->arrive(); }

 private:
  int remaining_;
  std::atomic<int>* steps_;
  Latch* latch_;
};

/// Pushes 0..n-1 into `out` with the nonblocking protocol, then finishes
/// the stream.
class ProduceTask final : public ExecTask {
 public:
  ProduceTask(ValueFifo* out, int n, Latch* latch)
      : out_(out), n_(n), latch_(latch) {}

  StepResult step() override {
    while (next_ < n_) {
      Value v = Value::i32(next_);
      FifoSignal s = out_->try_push(v);
      if (s == FifoSignal::kWouldBlock) return StepResult::kBlocked;
      if (s == FifoSignal::kShutdown) return StepResult::kDone;
      ++next_;
    }
    out_->finish();
    return StepResult::kDone;
  }
  void retired() override { latch_->arrive(); }

 private:
  ValueFifo* out_;
  int next_ = 0;
  const int n_;
  Latch* latch_;
};

/// Pops from `in`, adds one, pushes to `out`.
class RelayTask final : public ExecTask {
 public:
  RelayTask(ValueFifo* in, ValueFifo* out, Latch* latch)
      : in_(in), out_(out), latch_(latch) {}

  StepResult step() override {
    for (;;) {
      if (staged_) {
        FifoSignal s = out_->try_push(*staged_);
        if (s == FifoSignal::kWouldBlock) return StepResult::kBlocked;
        if (s == FifoSignal::kShutdown) {
          in_->close();
          return StepResult::kDone;
        }
        staged_.reset();
      }
      Value v;
      switch (in_->try_pop(&v)) {
        case FifoSignal::kOk:
          staged_ = Value::i32(v.as_i32() + 1);
          break;
        case FifoSignal::kWouldBlock:
          return StepResult::kBlocked;
        case FifoSignal::kEndOfStream:
        case FifoSignal::kShutdown:
          out_->finish();
          return StepResult::kDone;
      }
    }
  }
  void retired() override { latch_->arrive(); }

 private:
  ValueFifo* in_;
  ValueFifo* out_;
  std::optional<Value> staged_;
  Latch* latch_;
};

/// Drains `in`, accumulating a sum.
class SumTask final : public ExecTask {
 public:
  SumTask(ValueFifo* in, std::atomic<int64_t>* sum, Latch* latch)
      : in_(in), sum_(sum), latch_(latch) {}

  StepResult step() override {
    for (;;) {
      Value v;
      switch (in_->try_pop(&v)) {
        case FifoSignal::kOk:
          sum_->fetch_add(v.as_i32(), std::memory_order_relaxed);
          break;
        case FifoSignal::kWouldBlock:
          return StepResult::kBlocked;
        case FifoSignal::kEndOfStream:
        case FifoSignal::kShutdown:
          return StepResult::kDone;
      }
    }
  }
  void retired() override { latch_->arrive(); }

 private:
  ValueFifo* in_;
  std::atomic<int64_t>* sum_;
  Latch* latch_;
};

// ---------------------------------------------------------------------------
// Executor state-machine unit tests
// ---------------------------------------------------------------------------

TEST(Executor, TasksRunToCompletionAcrossWorkerCounts) {
  for (size_t workers : {size_t{1}, size_t{4}}) {
    Executor::Options opts;
    opts.workers = workers;
    Executor ex(opts);
    std::atomic<int> steps{0};
    Latch latch;
    std::vector<std::unique_ptr<CountdownTask>> tasks;
    for (int i = 0; i < 32; ++i) {
      tasks.push_back(std::make_unique<CountdownTask>(10, &steps, &latch));
    }
    for (auto& t : tasks) ex.submit(t.get());
    latch.wait_for(tasks.size());
    EXPECT_EQ(steps.load(), 320);
    EXPECT_GE(ex.stats().steps, 320u);
  }
}

TEST(Executor, WakeDuringStepIsNotLost) {
  // A task that parks unless its flag is up. The flag is raised and wake()
  // fired while the task is (with high probability) mid-step: the
  // kNotified path must re-enqueue it instead of losing the event. The
  // test waits on the monotonic step counter — never on a transient
  // "currently inside step()" window that a descheduled main thread could
  // miss forever — so every timing resolves to completion: wake lands on
  // kRunning (kNotified re-enqueue) or on the parked task (plain enqueue).
  struct FlagTask final : public ExecTask {
    std::atomic<bool> flag{false};
    std::atomic<int> steps{0};
    Latch latch;

    StepResult step() override {
      steps.fetch_add(1, std::memory_order_release);
      // Dwell so the waker thread lands in the kRunning window often.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return flag.load(std::memory_order_acquire) ? StepResult::kDone
                                                  : StepResult::kBlocked;
    }
    void retired() override { latch.arrive(); }
  };

  Executor::Options opts;
  opts.workers = 2;
  Executor ex(opts);
  for (int round = 0; round < 20; ++round) {
    FlagTask t;
    ex.submit(&t);
    while (t.steps.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    t.flag.store(true, std::memory_order_release);
    ex.wake(&t);
    t.latch.wait_for(1);
  }
  SUCCEED();
}

TEST(Executor, LockFreeReadinessNeverLosesAWake) {
  // Readiness published by a plain atomic store, not under a FIFO lock (an
  // async RPC completion sets its `ready` flag this way). The waker stores
  // the flag then loads the task state inside wake(); the worker stores
  // kRunning then loads the flag inside step(). Without a full fence on
  // both sides both loads may read the old value: the wake sees a stale
  // kQueued and returns, the step sees no flag and parks, and nothing ever
  // runs the task again. A watchdog counts such lost wakes and re-wakes
  // the task to unwedge the loop.
  struct FlagTask final : public ExecTask {
    std::atomic<bool> flag{false};
    std::atomic<bool> started{false};
    Latch latch;

    StepResult step() override {
      // The first step re-queues at once, so the second one starts while
      // the waker below is mid-flight. No read-modify-write here: a locked
      // instruction would act as the very fence under test.
      if (!started.load(std::memory_order_relaxed)) {
        started.store(true, std::memory_order_release);
        return StepResult::kReady;
      }
      return flag.load(std::memory_order_acquire) ? StepResult::kDone
                                                  : StepResult::kBlocked;
    }
    void retired() override { latch.arrive(); }
  };

  Executor::Options opts;
  opts.workers = 2;
  Executor ex(opts);
  // Bounded by time as well as count, so a sanitizer build stays inside
  // the ctest TIMEOUT.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(8);
  int iterations = 0, lost = 0;
  while (iterations < 100000 && std::chrono::steady_clock::now() < deadline) {
    FlagTask t;
    ex.submit(&t);
    while (!t.started.load(std::memory_order_acquire)) {
    }
    // Sweep the waker's offset across the second step's dispatch.
    volatile int spin = 0;
    while (spin < iterations % 128) spin = spin + 1;
    t.flag.store(true, std::memory_order_release);
    ex.wake(&t);
    if (!t.latch.wait_for(1, std::chrono::milliseconds(200))) {
      ++lost;
      ex.wake(&t);
      t.latch.wait_for(1);
    }
    ++iterations;
  }
  EXPECT_EQ(lost, 0) << "over " << iterations << " iterations";
}

TEST(Executor, DeterministicDriveCompletesPipelines) {
  Executor::Options opts;
  opts.seed = 42;
  Executor ex(opts);
  ASSERT_TRUE(ex.deterministic());
  ValueFifo a(2), b(2);
  std::atomic<int64_t> sum{0};
  Latch latch;
  ProduceTask p(&a, 100, &latch);
  RelayTask r(&a, &b, &latch);
  SumTask s(&b, &sum, &latch);
  a.set_consumer_waker([&] { ex.wake(&r); });
  a.set_producer_waker([&] { ex.wake(&p); });
  b.set_consumer_waker([&] { ex.wake(&s); });
  b.set_producer_waker([&] { ex.wake(&r); });
  ex.submit(&p);
  ex.submit(&r);
  ex.submit(&s);
  ex.drive([&] { return latch.reached(3); });
  // sum of (i+1) for i in 0..99
  EXPECT_EQ(sum.load(), 5050);
}

TEST(Executor, DeterministicStallIsReportedAsDeadlock) {
  struct ForeverBlocked final : public ExecTask {
    StepResult step() override { return StepResult::kBlocked; }
  };
  Executor::Options opts;
  opts.seed = 7;
  Executor ex(opts);
  ForeverBlocked t;
  ex.submit(&t);
  EXPECT_THROW(ex.drive([] { return false; }), RuntimeError);
}

TEST(Executor, ExternalPendingDefersDeadlockVerdict) {
  // A parked task with an external completion in flight is a *wait*, not a
  // deadlock: drive() must block until the completion wakes the task.
  struct WaitTask final : public ExecTask {
    std::atomic<bool> ready{false};
    Latch latch;
    StepResult step() override {
      return ready.load(std::memory_order_acquire) ? StepResult::kDone
                                                   : StepResult::kBlocked;
    }
    void retired() override { latch.arrive(); }
  };
  Executor::Options opts;
  opts.seed = 9;
  Executor ex(opts);
  WaitTask t;
  ex.submit(&t);
  ex.note_external_begin();
  std::thread completion([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.ready.store(true, std::memory_order_release);
    ex.wake(&t);
    ex.note_external_end();
  });
  ex.drive([&] { return t.latch.reached(1); });
  completion.join();
  SUCCEED();
}

TEST(Executor, SameSeedReplaysSameSchedule) {
  // The schedule is observable through a log of task ids in step order.
  struct LogTask final : public ExecTask {
    int id;
    int remaining;
    std::vector<int>* log;
    Latch* latch;
    StepResult step() override {
      log->push_back(id);
      return --remaining > 0 ? StepResult::kReady : StepResult::kDone;
    }
    void retired() override { latch->arrive(); }
  };
  auto run = [](uint64_t seed) {
    Executor::Options opts;
    opts.seed = seed;
    Executor ex(opts);
    std::vector<int> log;
    Latch latch;
    std::vector<std::unique_ptr<LogTask>> tasks;
    for (int i = 0; i < 16; ++i) {
      auto t = std::make_unique<LogTask>();
      t->id = i;
      t->remaining = 8;
      t->log = &log;
      t->latch = &latch;
      tasks.push_back(std::move(t));
    }
    for (auto& t : tasks) ex.submit(t.get());
    ex.drive([&] { return latch.reached(16); });
    return log;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_EQ(run(123456), run(123456));
}

// ---------------------------------------------------------------------------
// Workload differentials: seeds and worker counts
// ---------------------------------------------------------------------------

Value run_pipeline(const Workload& w, size_t workers, uint64_t sched_seed,
                   size_t n) {
  auto cp = runtime::compile(w.lime_source);
  EXPECT_TRUE(cp->ok()) << w.name << ":\n" << cp->diags.to_string();
  RuntimeConfig rc;
  rc.worker_threads = workers;
  rc.scheduler_seed = sched_seed;
  LiquidRuntime rt(*cp, rc);
  return rt.call(w.entry, w.make_args(n, 20120603));
}

class SeededReplay : public ::testing::TestWithParam<size_t> {};

TEST_P(SeededReplay, EverySeedMatchesSingleWorkerGolden) {
  const Workload& w = pipeline_suite()[GetParam()];
  const size_t n = 192;
  Value golden = run_pipeline(w, 1, 0, n);
  EXPECT_TRUE(results_match(golden, w.reference(w.make_args(n, 20120603)),
                            0.0))
      << w.name << " golden vs reference";
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Value replay = run_pipeline(w, 1, seed, n);
    EXPECT_TRUE(results_match(replay, golden, 0.0))
        << w.name << " diverged under scheduler seed " << seed;
  }
}

class WorkerDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkerDifferential, WorkerCountNeverChangesResults) {
  const Workload& w = pipeline_suite()[GetParam()];
  const size_t n = 192;
  Value golden = run_pipeline(w, 1, 0, n);
  for (size_t workers : {size_t{4}, size_t{64}}) {
    Value got = run_pipeline(w, workers, 0, n);
    EXPECT_TRUE(results_match(got, golden, 0.0))
        << w.name << " diverged under " << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPipelines, SeededReplay,
    ::testing::Range<size_t>(0, pipeline_suite().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return pipeline_suite()[info.param].name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllPipelines, WorkerDifferential,
    ::testing::Range<size_t>(0, pipeline_suite().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return pipeline_suite()[info.param].name;
    });

// ---------------------------------------------------------------------------
// Thousand-graph soak
// ---------------------------------------------------------------------------

TEST(ExecutorSoak, ThousandGraphsMultiplexOverConstantThreads) {
  const int kGraphs = 1000;
  const int kElems = 20;
  const size_t kWorkers = 4;

  int baseline = live_threads();
  ASSERT_GT(baseline, 0) << "cannot read /proc/self/status";

  Executor::Options opts;
  opts.workers = kWorkers;
  Executor ex(opts);

  struct Graph {
    std::unique_ptr<ValueFifo> a, b;
    std::unique_ptr<ProduceTask> p;
    std::unique_ptr<RelayTask> r;
    std::unique_ptr<SumTask> s;
  };
  std::vector<Graph> graphs(kGraphs);
  std::atomic<int64_t> sum{0};
  Latch latch;
  for (auto& g : graphs) {
    g.a = std::make_unique<ValueFifo>(2);
    g.b = std::make_unique<ValueFifo>(2);
    g.p = std::make_unique<ProduceTask>(g.a.get(), kElems, &latch);
    g.r = std::make_unique<RelayTask>(g.a.get(), g.b.get(), &latch);
    g.s = std::make_unique<SumTask>(g.b.get(), &sum, &latch);
    g.a->set_producer_waker([&ex, t = g.p.get()] { ex.wake(t); });
    g.a->set_consumer_waker([&ex, t = g.r.get()] { ex.wake(t); });
    g.b->set_producer_waker([&ex, t = g.r.get()] { ex.wake(t); });
    g.b->set_consumer_waker([&ex, t = g.s.get()] { ex.wake(t); });
  }
  for (auto& g : graphs) {
    ex.submit(g.p.get());
    ex.submit(g.r.get());
    ex.submit(g.s.get());
  }
  // All 3000 tasks are now live on the executor. Thread count must be
  // O(workers), not O(graphs): baseline + the worker pool + slack for the
  // harness (sanitizer runtimes keep a background thread or two).
  int during = live_threads();
  EXPECT_LE(during, baseline + static_cast<int>(kWorkers) + 2)
      << "thread-per-task regression: " << during << " threads for "
      << kGraphs << " graphs";

  latch.wait_for(graphs.size() * 3);
  // Each graph sums (i+1) for i in 0..kElems-1 = 210.
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kGraphs) * 210);
  EXPECT_GE(ex.stats().steps, static_cast<uint64_t>(kGraphs) * 3);
}

TEST(ExecutorSoak, RuntimeGraphsReuseTheWorkerPool) {
  // Sequential graphs through one runtime: the executor is created once
  // and its pool serves every graph; the old scheduler spawned fresh
  // threads per task per graph.
  const Workload& w = pipeline_suite()[0];
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.worker_threads = 2;
  LiquidRuntime rt(*cp, rc);

  Value first = rt.call(w.entry, w.make_args(64, 3));
  int after_first = live_threads();
  for (int i = 0; i < 50; ++i) {
    Value again = rt.call(w.entry, w.make_args(64, 3));
    EXPECT_TRUE(results_match(again, first, 0.0)) << "iteration " << i;
  }
  int after_many = live_threads();
  EXPECT_LE(after_many, after_first)
      << "worker pool grew across sequential graphs";
  EXPECT_EQ(rt.stats().graphs_executed, 51u);
}

TEST(ExecutorSoak, BatchedStepsWakeOncePerBatch) {
  // Tasks move FIFO traffic a batch at a time, so a parked task is woken
  // about once per batch on each edge, not once per element. crc8pipe's
  // filter is slow next to its source and sink, so per-element handoff
  // would wake the sink for almost every result it pushes.
  const Workload* w = nullptr;
  for (const Workload& c : pipeline_suite()) {
    if (c.name == "crc8pipe") w = &c;
  }
  ASSERT_NE(w, nullptr);
  auto cp = runtime::compile(w->lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kCpuOnly;
  rc.worker_threads = 4;
  LiquidRuntime rt(*cp, rc);
  const size_t n = 4096;
  Value got = rt.call(w->entry, w->make_args(n, 5));
  EXPECT_TRUE(results_match(got, w->reference(w->make_args(n, 5)), 0.0));
  const double per_kelem =
      static_cast<double>(rt.metrics().value("executor.wakeups")) * 1000.0 /
      static_cast<double>(n);
  EXPECT_LE(per_kelem, 16.0);
}

}  // namespace
}  // namespace lm::runtime
