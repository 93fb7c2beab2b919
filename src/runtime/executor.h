// Event-driven executor: a fixed worker pool pulling batch-granular task
// steps from a ready queue (ROADMAP item 2 — the StarPU-shaped runtime
// core that replaces thread-per-task scheduling).
//
// Tasks are cooperative state machines: step() runs one bounded slice of
// work using only *nonblocking* operations and reports whether the task
// can continue (kReady), must wait for an external event (kBlocked), or is
// finished (kDone). Readiness events — a FIFO becoming nonempty, a remote
// reply arriving — call wake(), which re-queues a parked task. N programs
// × M tasks therefore multiplex over a constant number of OS threads, and
// an in-flight RPC parks a continuation instead of a thread.
//
// The lost-wakeup problem (task decides to park while a wake races in) is
// solved with a small per-task state machine:
//
//   kIdle ──wake──▶ kQueued ──dequeue──▶ kRunning ──step()═kBlocked──▶ kIdle
//                                          │  ▲
//                                   wake   ▼  │ step()═kReady
//                                       kNotified ─▶ kQueued (re-enqueued)
//
// wake() is idempotent and level-triggered: on a parked task it enqueues;
// on a running task it sets kNotified so the worker re-enqueues instead of
// parking. A waker may therefore fire spuriously or concurrently with the
// task's own step — the protocol absorbs both. The only obligation on the
// task is to return kBlocked *only after* a failed nonblocking attempt on
// the resource it waits for (the attempt happens under the resource's
// lock, so the resource's next state change fires the waker).
//
// Two scheduling modes share the task protocol:
//
//   * threaded (default): `workers` OS threads, each with a local ready
//     deque plus one shared injection queue; idle workers steal from
//     siblings. Wakes from a worker land on its local queue (locality);
//     wakes from outside (completion callbacks, submitting thread) land on
//     the injection queue.
//
//   * deterministic (seed != 0): no OS threads at all. Ready tasks
//     accumulate in one ordered list; drive() repeatedly picks the next
//     task with a seeded SplitMix64 and steps it to quiescence. The same
//     seed replays the same interleaving, turning schedule-dependent bugs
//     into reproducible unit tests. A stall with no external work pending
//     is reported as a deadlock instead of hanging.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace lm::runtime {

class Executor;

/// A schedulable unit of work. Owned by its graph; the executor holds raw
/// pointers, which stay valid because a graph is only destroyed after all
/// of its tasks retired (the graph's completion latch).
class ExecTask {
 public:
  enum class StepResult {
    kReady,    // made progress, wants another step (re-enqueued)
    kBlocked,  // must wait for a wake() from a readiness event
    kDone,     // finished; never stepped again
  };

  virtual ~ExecTask() = default;

  /// One bounded slice of work. Must not block on locks held across
  /// steps or on I/O — use try-operations and return kBlocked.
  virtual StepResult step() = 0;

  /// Called exactly once, after the kDone step, as the executor's last
  /// touch of the task. Typically decrements the graph's completion latch.
  virtual void retired() {}

  /// The executor this task was submitted to (nullptr before submit()).
  /// Tasks use it to wake themselves from completion callbacks and to
  /// bracket external (off-executor) work.
  Executor* executor() const { return exec_.load(std::memory_order_acquire); }

  /// Why a task is about to return kBlocked. Feeds the park annotation on
  /// the executor's "exec" trace spans, which is what lets the attribution
  /// engine redirect blocked time to the peer task that caused it.
  enum class BlockReason : uint8_t { kNone, kPop, kPush, kRpc };

  /// Gives the task a trace identity: `label` names its span row (e.g.
  /// "filter:f0"), `gid` is the owning graph's run id, `node` its position
  /// in the pipeline. Tasks without a label (raw executor tests) emit no
  /// spans and pay only two clock reads per dispatch. Call before submit().
  void set_trace_info(std::string label, uint64_t gid, int node) {
    trace_label_ = std::move(label);
    gid_ = gid;
    node_ = node;
  }
  const std::string& trace_label() const { return trace_label_; }
  uint64_t trace_gid() const { return gid_; }
  int trace_node() const { return node_; }

  /// Declares why step() is about to return kBlocked. Reset by the
  /// executor before every step; only the last call before parking counts.
  void set_block_reason(BlockReason r) { block_reason_ = r; }

 private:
  friend class Executor;
  enum State : int { kIdle, kQueued, kRunning, kNotified, kDoneState };
  std::atomic<int> state_{kIdle};
  std::atomic<Executor*> exec_{nullptr};

  // Trace identity (empty label = untraced).
  std::string trace_label_;
  uint64_t gid_ = 0;
  int node_ = -1;

  // Dispatch bookkeeping. Not atomic: every field is written either by the
  // single waker that won the kIdle→kQueued CAS (enq_tp_) or by the worker
  // currently holding the task, and read at the *next* dispatch — the
  // state-machine CAS chain plus the queue mutex provide happens-before.
  BlockReason block_reason_ = BlockReason::kNone;   // set inside step()
  BlockReason parked_reason_ = BlockReason::kNone;  // reason of last park
  std::chrono::steady_clock::time_point enq_tp_{};
  std::chrono::steady_clock::time_point last_step_end_tp_{};
  // The thread of the last step (its step counter) and that counter's value
  // right after the step.
  const uint64_t* last_thread_ = nullptr;
  uint64_t last_thread_steps_ = 0;
  // Coalesced "exec" span accumulator: consecutive dispatches on one thread
  // with no park and no other step in between merge into one span (see
  // Executor::run_task). run_trace_/run_row_: the recorder and the row of
  // the thread the span's steps ran on (run_trace_ 0 when untraced).
  bool have_run_ = false;
  uint64_t run_trace_ = 0;
  uint32_t run_row_ = 0;
  BlockReason run_park_reason_ = BlockReason::kNone;
  std::chrono::steady_clock::time_point run_park0_{};
  std::chrono::steady_clock::time_point run_enq_{};
  std::chrono::steady_clock::time_point run_start_{};
  uint64_t run_steps_ = 0;
  int64_t run_gap_ns_ = 0;
};

class Executor {
 public:
  struct Options {
    /// Worker threads; 0 → std::thread::hardware_concurrency().
    size_t workers = 0;
    /// Nonzero → deterministic virtual-scheduler mode: no OS threads,
    /// drive() serializes all task steps with this seed.
    uint64_t seed = 0;
    /// Optional instrumentation sink (steps/parks/wakeups/steals counters).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit Executor(const Options& opts);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  bool deterministic() const { return seed_ != 0; }
  size_t workers() const { return n_workers_; }
  uint64_t seed() const { return seed_; }

  /// First schedule of a task: records the owning executor, then wakes it.
  void submit(ExecTask* t);

  /// Readiness event: enqueue a parked task, or flag a running one for
  /// re-enqueue. Idempotent; safe from any thread, including completion
  /// callbacks and the task's own step(). Readiness published before the
  /// call by any atomic store, not only under a FIFO lock, is never lost:
  /// wake() and step entry are fenced, so either the step sees it or the
  /// wake sees the task running and re-queues it.
  void wake(ExecTask* t);

  /// Brackets work in flight *outside* the executor (an async RPC whose
  /// completion will wake a task). Deterministic drive() distinguishes
  /// "everything parked but a reply is coming" (wait) from "everything
  /// parked and nothing can wake us" (deadlock) with this counter. The
  /// matching note_external_end() must be called *after* the wake it
  /// delivers, so the counter covers the whole wait window.
  void note_external_begin();
  void note_external_end();

  /// Deterministic mode only: steps seeded-random ready tasks until
  /// `done()` returns true. Throws RuntimeError when every task is parked,
  /// nothing external is pending and `done()` still fails — a deadlock
  /// that would otherwise hang forever. Reentrant calls are not allowed
  /// (single-threaded by construction).
  void drive(const std::function<bool()>& done);

  struct Stats {
    uint64_t steps = 0;
    uint64_t wakeups = 0;
    uint64_t parks = 0;
    uint64_t steals = 0;
    /// Total enqueue→dispatch latency across all dispatches.
    uint64_t queue_wait_ns = 0;
  };
  Stats stats() const;

  /// Appends per-worker ready-queue depth gauges (plus the shared
  /// injection queue as worker="inject") for the telemetry plane.
  void collect_telemetry(std::vector<obs::GaugeSample>& out) const;

 private:
  void worker_loop(size_t idx);
  /// mu_ must be held. Returns the next task for worker `idx`: local
  /// queue first, then the injection queue, then steal from a sibling.
  ExecTask* dequeue_locked(size_t idx);
  /// Routes a ready task to the calling worker's local queue (when the
  /// caller is one of our workers) or the injection queue.
  void enqueue(ExecTask* t);
  /// Runs one step of a dequeued task and applies the state protocol.
  void run_task(ExecTask* t);
  /// Emits the accumulated coalesced "exec" span for a labeled task.
  void flush_exec_span(ExecTask* t);

  const uint64_t seed_;
  const size_t n_workers_;
  obs::MetricsRegistry::Counter* c_steps_ = nullptr;
  obs::MetricsRegistry::Counter* c_wakeups_ = nullptr;
  obs::MetricsRegistry::Counter* c_parks_ = nullptr;
  obs::MetricsRegistry::Counter* c_steals_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Shared injection queue (all modes; the only queue in deterministic
  /// mode, where insertion order + seeded picks define the schedule).
  std::deque<ExecTask*> inject_;
  /// Per-worker local deques (threaded mode).
  std::vector<std::deque<ExecTask*>> local_;
  std::vector<std::thread> threads_;
  size_t external_pending_ = 0;
  SplitMix64 rng_;

  // Fallback tallies when no metrics registry was supplied.
  std::atomic<uint64_t> n_steps_{0}, n_wakeups_{0}, n_parks_{0}, n_steals_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
};

}  // namespace lm::runtime
