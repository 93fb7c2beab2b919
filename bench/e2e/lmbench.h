// Shared types of lmbench: the workload's programs and their
// set-up, one timed call, and the helpers both passes use.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/liquid_compiler.h"
#include "runtime/liquid_runtime.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace lmbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One program of a workload: what a call runs and what it must return.
struct Program {
  const lm::workloads::Workload* w = nullptr;
  lm::runtime::Placement placement = lm::runtime::Placement::kAuto;
  /// Stream elements one call processes.
  size_t n = 0;
  std::vector<lm::bc::Value> args;
  lm::bc::Value expected;
  /// Long-lived workloads keep one compiled program and runtime per
  /// program; `oneshot` builds both inside every request instead.
  std::unique_ptr<lm::runtime::CompiledProgram> cp;
  std::unique_ptr<lm::runtime::LiquidRuntime> rt;
};

/// Timers around one set-up, seconds.
struct SetupTimes {
  double compile_s = 0;
  double runtime_s = 0;
  double warmup_s = 0;
  double total_s = 0;
};

struct Bench {
  std::string name;
  bool oneshot = false;
  std::vector<Program> programs;
};

/// Builds the named workload's programs and inputs (not timed). Throws
/// std::invalid_argument on an unknown name.
std::unique_ptr<Bench> make_bench(const std::string& name, uint64_t seed);

/// Everything before the window: compile, runtime construction, and one
/// warm-up call per program. Tears down what a previous set-up left first.
SetupTimes set_up(Bench& b);

/// Observes the runtime a call runs on, outside every timer.
using Hook = std::function<void(lm::runtime::LiquidRuntime&)>;

/// One timed call. For `oneshot` a call is a whole request: compile, a
/// fresh runtime, the call, and the runtime's teardown.
struct CallResult {
  lm::bc::Value out;
  bool ok = false;  // returned the reference result without throwing
  std::string error;
  double wall_s = 0;
  double compile_s = 0;
  double construct_s = 0;
  double call_s = 0;
  double teardown_s = 0;
};

CallResult timed_call(Bench& b, Program& p, const Hook& before = {},
                      const Hook& after = {});

/// Fisher-Yates shuffle driven by the workload seed.
void shuffle(std::vector<size_t>& order, lm::SplitMix64& rng);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

/// A named result lmbench prints as "workload metric value unit".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The traced pass (layers.cpp): per-layer metrics and the reconciliation
/// table. Returns false when the pass is invalid (dropped events, coverage
/// outside [0.95, 1.05], a residual above 5%).
bool traced_pass(Bench& b, uint64_t seed, const SetupTimes& setup,
                 std::vector<Metric>* out, uint64_t* attempted,
                 uint64_t* failed);

}  // namespace lmbench
