#include "runtime/executor.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "util/error.h"

namespace lm::runtime {

namespace {
/// Identifies the worker thread (and its executor) for queue routing.
thread_local Executor* tls_exec = nullptr;
thread_local size_t tls_worker = 0;
/// Steps run on this thread, by any executor. A task's open "exec" span
/// grows only while no other step has run on its thread since its own.
thread_local uint64_t tls_steps = 0;

const char* reason_name(ExecTask::BlockReason r) {
  switch (r) {
    case ExecTask::BlockReason::kPop: return "pop";
    case ExecTask::BlockReason::kPush: return "push";
    case ExecTask::BlockReason::kRpc: return "rpc";
    case ExecTask::BlockReason::kNone: break;
  }
  return "none";
}

int64_t ns_between(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
}  // namespace

Executor::Executor(const Options& opts)
    : seed_(opts.seed),
      n_workers_(opts.seed != 0 ? 0
                 : opts.workers != 0
                     ? opts.workers
                     : std::max<size_t>(1, std::thread::hardware_concurrency())),
      rng_(opts.seed) {
  if (opts.metrics) {
    c_steps_ = &opts.metrics->counter("executor.steps");
    c_wakeups_ = &opts.metrics->counter("executor.wakeups");
    c_parks_ = &opts.metrics->counter("executor.parks");
    c_steals_ = &opts.metrics->counter("executor.steals");
  }
  local_.resize(n_workers_);
  threads_.reserve(n_workers_);
  for (size_t i = 0; i < n_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // An async completion callback (poll-loop thread) touches this object
    // right up to its note_external_end(), and its wake() may finish the
    // graph — and so trigger this destructor — *before* that end call.
    // Destruction must wait out the bracket or the callback's tail races
    // with the teardown. Every in-flight op completes or errors out under
    // its own deadline, so this wait is bounded.
    cv_.wait(lock, [&] { return external_pending_ == 0; });
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Executor::submit(ExecTask* t) {
  t->exec_.store(this, std::memory_order_release);
  wake(t);
}

void Executor::wake(ExecTask* t) {
  // Pairs with the fence after run_task's kRunning store. A waker may
  // publish readiness with a plain atomic store (no FIFO lock) and then
  // load the state here, while the worker stores kRunning and then reads
  // readiness in step(). Without a fence on both sides both loads may see
  // the old values: this wake returns on a stale kQueued, the step parks,
  // and nothing runs the task again.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (;;) {
    int s = t->state_.load(std::memory_order_acquire);
    switch (s) {
      case ExecTask::kIdle: {
        int expected = ExecTask::kIdle;
        if (t->state_.compare_exchange_weak(expected, ExecTask::kQueued,
                                            std::memory_order_acq_rel)) {
          // Attach before enqueueing: a FIFO waker can legitimately wake a
          // task its graph has wired but not yet submit()ted, and the
          // worker that dequeues it may call task->executor() immediately.
          t->exec_.store(this, std::memory_order_release);
          // Winning the CAS makes this thread the only enqueuer until the
          // next dispatch reads the stamp (under the queue mutex).
          t->enq_tp_ = std::chrono::steady_clock::now();
          if (c_wakeups_) c_wakeups_->add();
          n_wakeups_.fetch_add(1, std::memory_order_relaxed);
          enqueue(t);
          return;
        }
        break;  // raced; re-read
      }
      case ExecTask::kRunning: {
        int expected = ExecTask::kRunning;
        if (t->state_.compare_exchange_weak(expected, ExecTask::kNotified,
                                            std::memory_order_acq_rel)) {
          return;  // the worker will re-enqueue instead of parking
        }
        break;
      }
      case ExecTask::kQueued:
      case ExecTask::kNotified:
      case ExecTask::kDoneState:
        return;  // already scheduled (or finished) — wake is level-triggered
      default:
        return;
    }
  }
}

void Executor::enqueue(ExecTask* t) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tls_exec == this && tls_worker < local_.size()) {
      local_[tls_worker].push_back(t);
    } else {
      inject_.push_back(t);
    }
  }
  cv_.notify_one();
}

void Executor::note_external_begin() {
  std::lock_guard<std::mutex> lock(mu_);
  ++external_pending_;
}

void Executor::note_external_end() {
  // drive() may be waiting to re-evaluate its deadlock verdict, and
  // ~Executor waits for the bracket to close. The notify stays under the
  // lock: the waiter may destroy this object the moment mu_ is released,
  // so nothing — including the condvar — may be touched after unlock.
  std::lock_guard<std::mutex> lock(mu_);
  --external_pending_;
  cv_.notify_all();
}

void Executor::flush_exec_span(ExecTask* t) {
  t->have_run_ = false;
  obs::TraceRecorder* rec = obs::TraceRecorder::current();
  if (!rec) return;
  const double enq = rec->to_us(t->run_enq_);
  const double start = rec->to_us(t->run_start_);
  const double end = rec->to_us(t->last_step_end_tp_);
  obs::JsonArgs a;
  a.add("gid", t->gid_).add("node", t->node_);
  a.add("queue_us", start > enq ? start - enq : 0.0);
  if (t->run_park_reason_ != ExecTask::BlockReason::kNone &&
      t->run_park0_.time_since_epoch().count() != 0) {
    const double park0 = rec->to_us(t->run_park0_);
    a.add("park_us", enq > park0 ? enq - park0 : 0.0);
    a.add("reason", reason_name(t->run_park_reason_));
  }
  a.add("steps", t->run_steps_);
  if (t->run_gap_ns_ > 0) a.add("gap_us", static_cast<double>(t->run_gap_ns_) / 1e3);
  const double dur = end > start ? end - start : 0.0;
  // The span goes on the row of the thread its steps ran on, which is not
  // the calling thread when the task moved.
  if (t->run_trace_ == rec->trace_id()) {
    rec->complete_on(t->run_row_, "exec", t->trace_label_, start, dur,
                     std::move(a).str());
  } else {
    rec->complete("exec", t->trace_label_, start, dur, std::move(a).str());
  }
}

void Executor::run_task(ExecTask* t) {
  const auto dispatch_tp = std::chrono::steady_clock::now();
  const int64_t wait_ns = std::max<int64_t>(0, ns_between(t->enq_tp_, dispatch_tp));
  queue_wait_ns_.fetch_add(static_cast<uint64_t>(wait_ns),
                           std::memory_order_relaxed);
  if (!t->trace_label_.empty()) {
    // Coalesce consecutive dispatches into one "exec" span. A span flushes
    // when the task actually parked in between (so the park/queue prologue
    // is attributable), when another step ran on its thread since its last
    // one or it moved to another thread (a span covers its own thread's
    // time and nothing else), or when the queue gap is long enough to
    // matter. The gap trigger is wall-clock-dependent, so deterministic
    // replays (seed != 0) skip it — span *counts* then depend solely on the
    // schedule and byte-identical structural attribution holds.
    constexpr int64_t kCoalesceGapNs = 5000;
    const bool contiguous =
        t->last_thread_ == &tls_steps && t->last_thread_steps_ == tls_steps;
    if (t->have_run_ &&
        (!contiguous || t->parked_reason_ != ExecTask::BlockReason::kNone ||
         (seed_ == 0 && wait_ns > kCoalesceGapNs))) {
      flush_exec_span(t);
    }
    if (!t->have_run_) {
      t->have_run_ = true;
      t->run_trace_ = 0;
      if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
        t->run_trace_ = rec->trace_id();
        t->run_row_ = rec->thread_row();
      }
      t->run_park_reason_ = t->parked_reason_;
      t->run_park0_ = t->last_step_end_tp_;
      t->run_enq_ = t->enq_tp_;
      t->run_start_ = dispatch_tp;
      t->run_steps_ = 0;
      t->run_gap_ns_ = 0;
    } else {
      t->run_gap_ns_ += wait_ns;
    }
    ++t->run_steps_;
  }
  t->state_.store(ExecTask::kRunning, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);  // see wake()
  t->block_reason_ = ExecTask::BlockReason::kNone;
  ExecTask::StepResult r = t->step();
  if (c_steps_) c_steps_->add();
  n_steps_.fetch_add(1, std::memory_order_relaxed);
  t->last_step_end_tp_ = std::chrono::steady_clock::now();
  t->last_thread_ = &tls_steps;
  t->last_thread_steps_ = ++tls_steps;
  t->parked_reason_ = r == ExecTask::StepResult::kBlocked
                          ? t->block_reason_
                          : ExecTask::BlockReason::kNone;
  if (r == ExecTask::StepResult::kDone && t->have_run_) flush_exec_span(t);
  switch (r) {
    case ExecTask::StepResult::kReady:
      // A concurrent wake may have set kNotified; both mean "requeue".
      t->enq_tp_ = t->last_step_end_tp_;
      t->state_.store(ExecTask::kQueued, std::memory_order_release);
      enqueue(t);
      break;
    case ExecTask::StepResult::kBlocked: {
      int expected = ExecTask::kRunning;
      if (t->state_.compare_exchange_strong(expected, ExecTask::kIdle,
                                            std::memory_order_acq_rel)) {
        if (c_parks_) c_parks_->add();
        n_parks_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // kNotified: a wake raced the park decision — do not lose it.
        t->enq_tp_ = t->last_step_end_tp_;
        t->state_.store(ExecTask::kQueued, std::memory_order_release);
        enqueue(t);
      }
      break;
    }
    case ExecTask::StepResult::kDone:
      t->state_.store(ExecTask::kDoneState, std::memory_order_release);
      t->retired();  // must be the executor's last touch of the task
      break;
  }
}

ExecTask* Executor::dequeue_locked(size_t idx) {
  if (!local_[idx].empty()) {
    ExecTask* t = local_[idx].front();
    local_[idx].pop_front();
    return t;
  }
  if (!inject_.empty()) {
    ExecTask* t = inject_.front();
    inject_.pop_front();
    return t;
  }
  // Steal from a sibling's tail (the coldest work it has).
  for (size_t off = 1; off < local_.size(); ++off) {
    size_t victim = (idx + off) % local_.size();
    if (!local_[victim].empty()) {
      ExecTask* t = local_[victim].back();
      local_[victim].pop_back();
      if (c_steals_) c_steals_->add();
      n_steals_.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
  }
  return nullptr;
}

void Executor::worker_loop(size_t idx) {
  tls_exec = this;
  tls_worker = idx;
  // Recorders install after the pool spins up, so the thread names itself
  // lazily: once per recorder, re-checked with one atomic load per dispatch.
  uint64_t named_trace = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ExecTask* t = dequeue_locked(idx);
    if (!t) {
      if (stop_) break;
      cv_.wait(lock);
      continue;
    }
    lock.unlock();
    if (obs::TraceRecorder* rec = obs::TraceRecorder::current();
        rec != nullptr && rec->trace_id() != named_trace) {
      rec->set_thread_name("worker-" + std::to_string(idx));
      named_trace = rec->trace_id();
    }
    run_task(t);
    lock.lock();
  }
  tls_exec = nullptr;
}

void Executor::drive(const std::function<bool()>& done) {
  LM_CHECK_MSG(deterministic(), "drive() is for seeded deterministic mode");
  std::unique_lock<std::mutex> lock(mu_);
  while (!done()) {
    if (inject_.empty()) {
      if (external_pending_ == 0) {
        throw RuntimeError(
            "deterministic executor stalled: every task is parked, nothing "
            "external is pending, and the graph is not done (deadlock)");
      }
      // A completion callback will wake somebody; sleep until it does.
      cv_.wait(lock,
               [&] { return !inject_.empty() || external_pending_ == 0; });
      continue;
    }
    size_t i = rng_.next_below(inject_.size());
    ExecTask* t = inject_[i];
    inject_.erase(inject_.begin() + static_cast<long>(i));
    lock.unlock();
    run_task(t);
    lock.lock();
  }
}

Executor::Stats Executor::stats() const {
  Stats s;
  s.steps = n_steps_.load(std::memory_order_relaxed);
  s.wakeups = n_wakeups_.load(std::memory_order_relaxed);
  s.parks = n_parks_.load(std::memory_order_relaxed);
  s.steals = n_steals_.load(std::memory_order_relaxed);
  s.queue_wait_ns = queue_wait_ns_.load(std::memory_order_relaxed);
  return s;
}

void Executor::collect_telemetry(std::vector<obs::GaugeSample>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out.emplace_back(
      "executor.queue_depth", static_cast<double>(inject_.size()),
      std::vector<std::pair<std::string, std::string>>{{"worker", "inject"}});
  for (size_t i = 0; i < local_.size(); ++i) {
    out.emplace_back("executor.queue_depth",
                     static_cast<double>(local_[i].size()),
                     std::vector<std::pair<std::string, std::string>>{
                         {"worker", std::to_string(i)}});
  }
  out.emplace_back(
      "executor.workers", static_cast<double>(n_workers_),
      std::vector<std::pair<std::string, std::string>>{});
  out.emplace_back(
      "executor.queue_wait_us",
      static_cast<double>(queue_wait_ns_.load(std::memory_order_relaxed)) /
          1e3,
      std::vector<std::pair<std::string, std::string>>{});
}

}  // namespace lm::runtime
