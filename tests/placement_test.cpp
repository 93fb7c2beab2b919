// The placement rule on synthetic costs (runtime/placement.h): the pick,
// fuse-or-chain, and the order in which candidates compete.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/placement.h"

namespace lm::runtime {
namespace {

Candidate costed(double cost) { return {nullptr, cost, cost}; }
const Candidate kUncosted{};

// -- the pick ---------------------------------------------------------------

TEST(PlacementRule, PickTakesTheCheapestCostedCandidate) {
  std::vector<Candidate> c = {costed(3), kUncosted, costed(1), costed(2)};
  EXPECT_EQ(pick_candidate(c), 2u);
}

TEST(PlacementRule, PickBreaksTiesTowardTheEarlierCandidate) {
  std::vector<Candidate> c = {kUncosted, costed(2), costed(1), costed(1)};
  EXPECT_EQ(pick_candidate(c), 2u);
  // A zero cost is a cost: it still beats the later tie.
  std::vector<Candidate> zeros = {kUncosted, costed(0), costed(0)};
  EXPECT_EQ(pick_candidate(zeros), 1u);
}

TEST(PlacementRule, PickWithoutCostsTakesTheFirstCandidate) {
  std::vector<Candidate> c = {kUncosted, kUncosted, kUncosted};
  EXPECT_EQ(pick_candidate(c), 0u);
}

// -- fuse or chain ----------------------------------------------------------

TEST(PlacementRule, FusedWinsWhenCheaper) {
  std::vector<Candidate> chain = {costed(1.5), costed(1.5)};
  EXPECT_TRUE(prefer_fused(costed(2), chain));
}

TEST(PlacementRule, ChainWinsWhenCheaper) {
  std::vector<Candidate> chain = {costed(1), costed(2)};
  EXPECT_FALSE(prefer_fused(costed(4), chain));
}

TEST(PlacementRule, TieGoesToFused) {
  std::vector<Candidate> chain = {costed(1), costed(2)};
  EXPECT_TRUE(prefer_fused(costed(3), chain));
}

TEST(PlacementRule, UncostedFusedLosesToCostedChain) {
  std::vector<Candidate> chain = {costed(1), costed(2)};
  EXPECT_FALSE(prefer_fused(kUncosted, chain));
}

TEST(PlacementRule, PartiallyCostedChainLosesToFused) {
  // The known part of the chain is cheaper, but its uncosted member could
  // cost anything: the larger substitution wins, costed or not.
  std::vector<Candidate> chain = {costed(1), kUncosted};
  EXPECT_TRUE(prefer_fused(costed(100), chain));
  EXPECT_TRUE(prefer_fused(kUncosted, chain));
}

TEST(PlacementRule, WithoutCostsPreferenceOrderDecides) {
  // §4.2: the larger substitution, on the first-listed artifact.
  std::vector<Candidate> chain = {kUncosted, kUncosted};
  EXPECT_TRUE(prefer_fused(kUncosted, chain));
  EXPECT_EQ(pick_candidate(chain), 0u);
}

// -- candidate order --------------------------------------------------------

class Stub final : public Artifact {
 public:
  Stub(const std::string& id, DeviceKind device, bool remote)
      : Artifact(make_manifest(id, device)), remote_(remote) {}
  std::vector<bc::Value> process(std::span<const bc::Value>) override {
    return {};
  }
  bool is_remote() const override { return remote_; }

 private:
  static ArtifactManifest make_manifest(const std::string& id,
                                        DeviceKind device) {
    ArtifactManifest m;
    m.task_id = id;
    m.device = device;
    return m;
  }
  bool remote_;
};

class PlacementCandidates : public ::testing::Test {
 protected:
  void SetUp() override {
    for (DeviceKind d : {DeviceKind::kCpu, DeviceKind::kFpga,
                         DeviceKind::kGpu}) {
      local_.add(std::make_unique<Stub>("T", d, false));
      // Servers never list bytecode, but a remote CPU artifact must not
      // compete even if one turns up.
      remote_.add(std::make_unique<Stub>("T", d, true));
    }
    local_.add(std::make_unique<Stub>("GpuLess", DeviceKind::kCpu, false));
    local_.add(std::make_unique<Stub>("GpuLess", DeviceKind::kFpga, false));
  }

  std::string order(const std::string& id, Placement p,
                    CostSource source = CostSource::kNone) const {
    std::string out;
    for (const Candidate& c :
         enumerate_candidates(id, p, source, local_, remote_)) {
      EXPECT_FALSE(c.costed());
      if (!out.empty()) out += " ";
      out += to_string(c.artifact->manifest().device);
      if (c.artifact->is_remote()) out += "@remote";
    }
    return out;
  }

  ArtifactStore local_;
  ArtifactStore remote_;
};

TEST_F(PlacementCandidates, AcceleratorsFirstRemoteBeforeLocal) {
  const std::string all =
      "gpu/opencl@remote gpu/opencl fpga/verilog@remote fpga/verilog "
      "cpu/bytecode";
  EXPECT_EQ(order("T", Placement::kAuto), all);
  EXPECT_EQ(order("T", Placement::kAdaptive, CostSource::kMeasured), all);
}

TEST_F(PlacementCandidates, ManualDirectionDropsOtherDevices) {
  EXPECT_EQ(order("T", Placement::kGpuOnly),
            "gpu/opencl@remote gpu/opencl cpu/bytecode");
  EXPECT_EQ(order("T", Placement::kFpgaOnly),
            "fpga/verilog@remote fpga/verilog cpu/bytecode");
  EXPECT_EQ(order("T", Placement::kCpuOnly), "cpu/bytecode");
}

TEST_F(PlacementCandidates, StaticCostsListLocalArtifactsOnly) {
  EXPECT_EQ(order("T", Placement::kAdaptive, CostSource::kStatic),
            "gpu/opencl fpga/verilog cpu/bytecode");
}

TEST_F(PlacementCandidates, MissingArtifactsAreSkipped) {
  EXPECT_EQ(order("GpuLess", Placement::kAuto), "fpga/verilog cpu/bytecode");
  EXPECT_EQ(order("GpuLess", Placement::kGpuOnly), "cpu/bytecode");
  EXPECT_EQ(order("nothing", Placement::kAuto), "");
}

}  // namespace
}  // namespace lm::runtime
