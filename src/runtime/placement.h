// Placement: which artifact runs a relocated task or fused segment (§4.2,
// §7).
//
// The paper's rule "prefers a larger substitution to a smaller one. It also
// favors GPU and FPGA artifacts to bytecode although that choice can be
// manually directed as well." Its §7 runtime introspection is the same
// decision fed by measurements. Both are one enumerator plus one ranking
// rule here. Only the cost source differs:
//
//  * none — kAuto, kCpuOnly, kGpuOnly, kFpgaOnly: nothing is costed, so
//    the enumeration order alone decides;
//  * measured — kAdaptive: each candidate's time on a calibration prefix
//    of the actual stream;
//  * static — kAdaptive with enable_calibration=false: the compiler's cost
//    seeds (analysis/cost_estimate.h), the cold-start path.
//
// The substitution walk in liquid_runtime.cpp finds the relocated runs,
// costs their candidates and emits the winners. This file holds the parts
// that need no runtime.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "runtime/store.h"

namespace lm::runtime {

/// Manual direction of placement (§4.2).
enum class Placement {
  kAuto,      // prefer larger, prefer accelerators (the paper's default)
  kCpuOnly,   // bytecode everywhere (the always-available baseline)
  kGpuOnly,   // substitute only GPU artifacts
  kFpgaOnly,  // substitute only FPGA artifacts
  /// §7 future work, implemented here: "runtime introspection and
  /// adaptation of the task-graph partitioning so that tasks run where
  /// they are best suited." Each candidate artifact is profiled on a
  /// prefix of the actual stream and the fastest plan wins.
  kAdaptive,
};

/// Where candidates' costs come from (see the file comment).
enum class CostSource { kNone, kMeasured, kStatic };

/// A competing artifact and what its cost source says about it.
struct Candidate {
  Artifact* artifact = nullptr;
  /// The ranking cost, in the source's unit: seconds on the calibration
  /// prefix, or seeded µs per element. Negative when the source has none.
  double cost = -1.0;
  /// The same cost per stream element, for the decision log.
  double us_per_elem = -1.0;

  bool costed() const { return cost >= 0; }
};

/// The artifacts competing for `id` (a task id or a fused segment id),
/// uncosted, in §4.2 order: GPU, then FPGA, then the local CPU artifact,
/// with a device's remote artifact before its local one. kGpuOnly and
/// kFpgaOnly drop the other accelerator; kCpuOnly lists only CPU. Static
/// costs list local artifacts only: the seeds model this process's
/// executors.
std::vector<Candidate> enumerate_candidates(const std::string& id,
                                            Placement placement,
                                            CostSource source,
                                            const ArtifactStore& local,
                                            const ArtifactStore& remote);

/// The index of the cheapest candidate that has a cost. The comparison is
/// strict, so the earlier candidate wins a tie. With no cost anywhere, the
/// first candidate. An empty list returns 0.
size_t pick_candidate(std::span<const Candidate> candidates);

/// Fuse or chain, given the fused segment's pick and each member's pick.
/// The fused segment wins unless every member has a cost and either the
/// fused pick has none or the members' costs sum to less.
bool prefer_fused(const Candidate& fused, std::span<const Candidate> members);

}  // namespace lm::runtime
