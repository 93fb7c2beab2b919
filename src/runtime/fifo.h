// Bounded FIFO connecting tasks (§4.1: "A connect operation '=>' creates a
// FIFO queue between tasks").
//
// Two API layers share one queue:
//
//  * the blocking API (push/pop/pop_batch) — the original thread-per-task
//    interface, kept for direct users and tests;
//  * the nonblocking try-API (try_push/try_push_batch/try_pop/
//    try_pop_batch) returning FifoSignal — what executor tasks use, paired
//    with *wakers*. Tasks move a batch per call: one lock and at most one
//    wake per batch on each edge.
//
// Wakers are edge-triggered callbacks wired once before execution starts:
// the consumer waker fires on empty→nonempty, finish() and close(); the
// producer waker fires on full→not-full and close(). Combined with the
// executor's park protocol (a task may only park after a failed
// try-operation, and a wake on a running task is never lost) edges are
// sufficient: a failed try observed the state under the lock, so the next
// transition out of that state is guaranteed to fire.
//
// Shutdown ordering fix: close() now *discards* queued values and makes
// every subsequent pop fail fast with kShutdown (nullopt on the blocking
// API). Previously a closed queue still handed out buffered values, so a
// consumer blocked at shutdown could observe data after the producer side
// had been torn down — and a consumer mid-pop could hang on a queue whose
// producer would never push again. Closed means dead, in both directions,
// immediately.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "bytecode/value.h"

namespace lm::runtime {

/// Result of a nonblocking FIFO operation.
enum class FifoSignal {
  kOk,           // the operation transferred at least one value
  kWouldBlock,   // full (push) or empty-but-open (pop); park and retry
  kEndOfStream,  // pop only: producer finished and the queue drained
  kShutdown,     // the queue was closed (error unwind); stop immediately
};

/// Single-producer single-consumer in usage (the scheduler wires one writer
/// and one reader per queue), but safe for any number of threads.
class ValueFifo {
 public:
  explicit ValueFifo(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Registers the callbacks readiness edges fire. Must be wired before
  /// execution starts (reads are unsynchronized once tasks run); wakers
  /// must be idempotent and must not re-enter this FIFO.
  void set_consumer_waker(std::function<void()> w) {
    consumer_waker_ = std::move(w);
  }
  void set_producer_waker(std::function<void()> w) {
    producer_waker_ = std::move(w);
  }

  /// Nonblocking push. kOk, kWouldBlock (full) or kShutdown (closed).
  /// `v` is consumed only on kOk.
  FifoSignal try_push(bc::Value& v) {
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.size() >= capacity_) {
        mark_blocked_locked(prod_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      fire = q_.empty();
      if (fire) settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      q_.push_back(std::move(v));
      if (q_.size() > high_water_) high_water_ = q_.size();
      not_empty_.notify_one();
    }
    if (fire && consumer_waker_) consumer_waker_();
    return FifoSignal::kOk;
  }

  /// Nonblocking batch push: moves values from the front of `vals` until
  /// the queue is full and stores how many moved in `*moved`. kOk when at
  /// least one moved, kWouldBlock when the queue was full, kShutdown when
  /// closed. One lock and at most one consumer-waker fire per call; the
  /// accounting matches the equivalent run of try_push calls.
  FifoSignal try_push_batch(std::span<bc::Value> vals, size_t* moved) {
    *moved = 0;
    if (vals.empty()) return FifoSignal::kOk;
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.size() >= capacity_) {
        mark_blocked_locked(prod_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      fire = q_.empty();
      if (fire) settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      size_t n = std::min(vals.size(), capacity_ - q_.size());
      for (size_t i = 0; i < n; ++i) q_.push_back(std::move(vals[i]));
      *moved = n;
      if (q_.size() > high_water_) high_water_ = q_.size();
      not_empty_.notify_all();
    }
    if (fire && consumer_waker_) consumer_waker_();
    return FifoSignal::kOk;
  }

  /// Nonblocking pop. kOk, kWouldBlock (empty, stream open), kEndOfStream
  /// (empty, producer finished) or kShutdown (closed).
  FifoSignal try_pop(bc::Value* out) {
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.empty()) {
        if (finished_) return FifoSignal::kEndOfStream;
        mark_blocked_locked(cons_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      fire = q_.size() == capacity_;
      if (fire) settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      *out = std::move(q_.front());
      q_.pop_front();
      not_full_.notify_one();
    }
    if (fire && producer_waker_) producer_waker_();
    return FifoSignal::kOk;
  }

  /// Nonblocking batch pop: appends up to `max` values to `out`. Same
  /// signals as try_pop; kOk means at least one value was appended.
  FifoSignal try_pop_batch(size_t max, std::vector<bc::Value>* out) {
    if (max == 0) return FifoSignal::kOk;
    bool fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return FifoSignal::kShutdown;
      if (q_.empty()) {
        if (finished_) return FifoSignal::kEndOfStream;
        mark_blocked_locked(cons_blocked_since_);
        return FifoSignal::kWouldBlock;
      }
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      fire = q_.size() == capacity_;
      if (fire) settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      while (!q_.empty() && max-- > 0) {
        out->push_back(std::move(q_.front()));
        q_.pop_front();
      }
      not_full_.notify_all();
    }
    if (fire && producer_waker_) producer_waker_();
    return FifoSignal::kOk;
  }

  /// Blocks while full. Returns false if the queue was closed by the
  /// consumer (downstream failure) — the producer should stop.
  bool push(bc::Value v) {
    bool fire;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (q_.size() >= capacity_ && !closed_) {
        mark_blocked_locked(prod_blocked_since_);
      }
      not_full_.wait(lock, [&] { return q_.size() < capacity_ || closed_; });
      settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      if (closed_) return false;
      fire = q_.empty();
      if (fire) settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      q_.push_back(std::move(v));
      if (q_.size() > high_water_) high_water_ = q_.size();
      not_empty_.notify_one();
    }
    if (fire && consumer_waker_) consumer_waker_();
    return true;
  }

  /// Marks end-of-stream; consumers drain then see nullopt/kEndOfStream.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      not_empty_.notify_all();
    }
    if (consumer_waker_) consumer_waker_();
  }

  /// Blocks for the next value; nullopt at end-of-stream or shutdown.
  std::optional<bc::Value> pop() {
    bool fire;
    bc::Value v;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (q_.empty() && !finished_ && !closed_) {
        mark_blocked_locked(cons_blocked_since_);
      }
      not_empty_.wait(lock,
                      [&] { return !q_.empty() || finished_ || closed_; });
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      if (closed_ || q_.empty()) return std::nullopt;
      fire = q_.size() == capacity_;
      if (fire) settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      v = std::move(q_.front());
      q_.pop_front();
      not_full_.notify_one();
    }
    if (fire && producer_waker_) producer_waker_();
    return v;
  }

  /// Pops up to `max` values (at least 1 unless the stream ended). Blocks
  /// for the first value only — device nodes use this to batch.
  std::vector<bc::Value> pop_batch(size_t max) {
    bool fire;
    std::vector<bc::Value> out;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (q_.empty() && !finished_ && !closed_) {
        mark_blocked_locked(cons_blocked_since_);
      }
      not_empty_.wait(lock,
                      [&] { return !q_.empty() || finished_ || closed_; });
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      if (closed_) return out;
      fire = q_.size() == capacity_;
      if (fire) settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      while (!q_.empty() && out.size() < max) {
        out.push_back(std::move(q_.front()));
        q_.pop_front();
      }
      not_full_.notify_all();
    }
    if (fire && !out.empty() && producer_waker_) producer_waker_();
    return out;
  }

  /// Closes the queue (error propagation): queued values are discarded,
  /// pending and future pushes fail fast, pending and future pops observe
  /// kShutdown — a consumer blocked at shutdown can never hang on data
  /// that will not come.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      settle_blocked_locked(prod_blocked_since_, prod_blocked_ns_);
      settle_blocked_locked(cons_blocked_since_, cons_blocked_ns_);
      q_.clear();
      not_full_.notify_all();
      not_empty_.notify_all();
    }
    if (producer_waker_) producer_waker_();
    if (consumer_waker_) consumer_waker_();
  }

  size_t capacity() const { return capacity_; }

  /// Maximum queue occupancy ever observed (the §7 introspection metric:
  /// a FIFO that runs at capacity marks the producer side as the
  /// bottleneck; one that never fills marks the consumer).
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  /// Cumulative time the producer side spent blocked on a full queue (from
  /// a failed try_push / a blocking push's wait until the not-full edge).
  /// Includes any in-progress blocked window. Attribution input (§12).
  double producer_blocked_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_us_locked(prod_blocked_since_, prod_blocked_ns_);
  }
  /// Cumulative time the consumer side spent blocked on an empty-but-open
  /// queue, symmetric to producer_blocked_us().
  double consumer_blocked_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return blocked_us_locked(cons_blocked_since_, cons_blocked_ns_);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// mu_ held. Starts a blocked window unless one is already open.
  static void mark_blocked_locked(Clock::time_point& since) {
    if (since == Clock::time_point{}) since = Clock::now();
  }
  /// mu_ held. Closes an open blocked window into the accumulator.
  static void settle_blocked_locked(Clock::time_point& since,
                                    int64_t& total_ns) {
    if (since != Clock::time_point{}) {
      total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - since)
                      .count();
      since = {};
    }
  }
  static double blocked_us_locked(Clock::time_point since, int64_t total_ns) {
    if (since != Clock::time_point{}) {
      total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - since)
                      .count();
    }
    return static_cast<double>(total_ns) / 1e3;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<bc::Value> q_;
  size_t high_water_ = 0;
  bool finished_ = false;
  bool closed_ = false;
  Clock::time_point prod_blocked_since_{};
  Clock::time_point cons_blocked_since_{};
  int64_t prod_blocked_ns_ = 0;
  int64_t cons_blocked_ns_ = 0;
  /// Wired before execution, read without the lock afterwards (see
  /// set_consumer_waker).
  std::function<void()> consumer_waker_;
  std::function<void()> producer_waker_;
};

}  // namespace lm::runtime
