#include "runtime/placement.h"

namespace lm::runtime {

std::vector<Candidate> enumerate_candidates(const std::string& id,
                                            Placement placement,
                                            CostSource source,
                                            const ArtifactStore& local,
                                            const ArtifactStore& remote) {
  std::vector<Candidate> out;
  out.reserve(5);  // at most two per accelerator plus the CPU artifact
  auto add_accelerator = [&](DeviceKind d) {
    if (source != CostSource::kStatic) {
      if (Artifact* a = remote.find(id, d)) out.push_back({a});
    }
    if (Artifact* a = local.find(id, d)) out.push_back({a});
  };
  if (placement != Placement::kCpuOnly && placement != Placement::kFpgaOnly) {
    add_accelerator(DeviceKind::kGpu);
  }
  if (placement != Placement::kCpuOnly && placement != Placement::kGpuOnly) {
    add_accelerator(DeviceKind::kFpga);
  }
  // Bytecode across the wire is strictly worse than bytecode here, so a
  // remote CPU artifact never competes.
  if (Artifact* a = local.find(id, DeviceKind::kCpu)) out.push_back({a});
  return out;
}

size_t pick_candidate(std::span<const Candidate> candidates) {
  size_t best = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!candidates[i].costed()) continue;
    if (!candidates[best].costed() ||
        candidates[i].cost < candidates[best].cost) {
      best = i;
    }
  }
  return best;
}

bool prefer_fused(const Candidate& fused, std::span<const Candidate> members) {
  double chain = 0;
  for (const Candidate& m : members) {
    if (!m.costed()) return true;
    chain += m.cost;
  }
  return fused.costed() && fused.cost <= chain;
}

}  // namespace lm::runtime
