// The reference mix (host_speed.h). Its code must not change once results
// have been compared across commits with it: a change rescales every metric.
#include "host_speed.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace lmbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Each part's typical time on the reference host, a 4-vCPU Intel Xeon VM
/// (README.md, "Noise"), microseconds. They only set the scale the metrics
/// are reported in; both sides of a comparison share them.
constexpr double kRefComputeUs = 44;
constexpr double kRefAllocUs = 39;
constexpr double kRefMemoryUs = 29;
constexpr double kRefWakeUs = 260;

/// Keeps the compiler from dropping the timed work.
volatile uint64_t g_sink = 0;

/// Runs `f` twice and times the second run, microseconds.
template <typename F>
double warm_us(F&& f) {
  f();
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

void compute() {
  static const std::vector<uint32_t> buf = [] {
    std::vector<uint32_t> b(4096);
    for (size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    return b;
  }();
  uint64_t h = 1469598103934665603ull;
  for (int r = 0; r < 8; ++r) {
    for (uint32_t v : buf) h = (h ^ v) * 1099511628211ull;
  }
  g_sink = h;
}

void alloc() {
  std::map<int, std::string> m;
  for (int i = 0; i < 300; ++i) m[i * 7919 % 300] = std::string(40, 'x');
  g_sink = m.size();
}

void memory() {
  // A single random cycle through 2 MiB, so every load depends on the last.
  static const std::vector<uint32_t> next = [] {
    const size_t n = (size_t{2} << 20) / sizeof(uint32_t);
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    uint64_t s = 0x9e3779b97f4a7c15ull;
    for (size_t i = n; i > 1; --i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(perm[i - 1], perm[s % i]);
    }
    std::vector<uint32_t> nx(n);
    for (size_t i = 0; i < n; ++i) nx[perm[i]] = perm[(i + 1) % n];
    return nx;
  }();
  uint32_t p = 0;
  for (int i = 0; i < 4000; ++i) p = next[p];
  g_sink = p;
}

void wake() {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  constexpr int kTrips = 20;
  std::thread other([&] {
    for (int i = 0; i < kTrips; ++i) {
      std::unique_lock<std::mutex> l(mu);
      cv.wait(l, [&] { return turn == 1; });
      turn = 0;
      cv.notify_one();
    }
  });
  for (int i = 0; i < kTrips; ++i) {
    std::unique_lock<std::mutex> l(mu);
    turn = 1;
    cv.notify_one();
    cv.wait(l, [&] { return turn == 0; });
  }
  other.join();
}

}  // namespace

double read_host_slowdown() {
  return std::pow(warm_us(compute) / kRefComputeUs *
                      warm_us(alloc) / kRefAllocUs *
                      warm_us(memory) / kRefMemoryUs *
                      warm_us(wake) / kRefWakeUs,
                  0.25);
}

}  // namespace lmbench
