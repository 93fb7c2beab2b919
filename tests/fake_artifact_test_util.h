// A scriptable stand-in for a backend artifact, injected into a compiled
// program's ArtifactStore to make calibration/drift behavior deterministic:
// it computes 3*x per firing (the conventional `scale` filter body) and can
// be told to run fast for its first N process() calls and then stall — the
// shape of a device whose calibration-time performance does not hold up
// mid-run.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/artifact.h"

namespace lm::testing {

class ScriptedArtifact final : public runtime::Artifact {
 public:
  /// `fast_calls` process() invocations run at full speed; every later call
  /// first sleeps for `slow_delay`. Pass fast_calls < 0 to never slow down.
  ScriptedArtifact(std::string task_id, runtime::DeviceKind device, int arity,
                   int fast_calls, std::chrono::microseconds slow_delay)
      : Artifact(make_manifest(std::move(task_id), device, arity)),
        fast_remaining_(fast_calls),
        slow_delay_(slow_delay) {}

  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override {
    ++calls_;
    if (fast_remaining_ > 0) {
      --fast_remaining_;
    } else if (fast_remaining_ == 0 && slow_delay_.count() > 0) {
      std::this_thread::sleep_for(slow_delay_);
    }
    size_t arity = static_cast<size_t>(manifest_.arity);
    std::vector<bc::Value> out;
    out.reserve(inputs.size() / arity);
    for (size_t i = 0; i + arity <= inputs.size(); i += arity) {
      out.push_back(bc::Value::i32(3 * inputs[i].as_i32()));
    }
    return out;
  }

  uint64_t calls() const { return calls_; }

 private:
  static runtime::ArtifactManifest make_manifest(std::string task_id,
                                                 runtime::DeviceKind device,
                                                 int arity) {
    runtime::ArtifactManifest m;
    m.task_id = std::move(task_id);
    m.device = device;
    m.arity = arity;
    return m;
  }

  int fast_remaining_;
  std::chrono::microseconds slow_delay_;
  uint64_t calls_ = 0;
};

}  // namespace lm::testing
