// Structured runtime metrics.
//
// Replaces the ad-hoc plain-integer RuntimeStats counters: every counter is
// an atomic, so executor workers, poll-loop threads and the calling thread
// can all bump metrics without synchronization bugs.
// The registry hands out stable Counter/MaxGauge pointers (instruments are
// never deallocated before the registry), so hot paths pay one relaxed
// atomic RMW per increment and never touch the name map.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace lm::obs {

class MetricsRegistry {
 public:
  /// Monotonic counter. add() is safe from any thread.
  class Counter {
   public:
    void add(uint64_t delta = 1) {
      v_.fetch_add(delta, std::memory_order_relaxed);
    }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> v_{0};
  };

  /// High-water-mark gauge: keeps the maximum observed value.
  class MaxGauge {
   public:
    void observe(uint64_t v) {
      uint64_t cur = v_.load(std::memory_order_relaxed);
      while (v > cur &&
             !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      }
    }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

   private:
    std::atomic<uint64_t> v_{0};
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates an instrument. The returned reference is stable for
  /// the registry's lifetime — call sites cache the pointer.
  Counter& counter(const std::string& name);
  MaxGauge& max_gauge(const std::string& name);

  /// Point-in-time view of every instrument (counters and gauges merged;
  /// names are unique across both kinds).
  std::map<std::string, uint64_t> snapshot() const;

  /// Same view split by instrument kind — the Prometheus exporter needs to
  /// emit honest `# TYPE` lines (counter vs gauge), which the merged
  /// snapshot cannot reconstruct.
  std::map<std::string, uint64_t> snapshot_counters() const;
  std::map<std::string, uint64_t> snapshot_gauges() const;

  /// One-line summary, sorted by name: "a=1 b=2 c=3". Zero-valued
  /// instruments are skipped unless `include_zeros`.
  std::string summary(bool include_zeros = false) const;

  /// Resets every instrument to zero (instruments stay registered, cached
  /// pointers stay valid).
  void reset();

  uint64_t value(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<MaxGauge>> gauges_;
};

}  // namespace lm::obs
