// Tests for the on-disk artifact repository (§1).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fpga/verilog_emit.h"
#include "runtime/repository.h"
#include "tests/lime_test_util.h"

namespace lm::runtime {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// The text each bundle file must hold, rebuilt from the artifact's parts:
/// the kernel's OpenCL source, the module's Verilog, the method's
/// disassembly.
std::string expected_text(const CompiledProgram& cp, const BundleEntry& e) {
  Artifact* a = cp.store.find(e.task_id, e.device);
  EXPECT_NE(a, nullptr) << e.task_id;
  if (!a) return {};
  switch (e.device) {
    case DeviceKind::kGpu:
      return dynamic_cast<GpuKernelArtifact&>(*a).program().opencl_source;
    case DeviceKind::kFpga:
      return fpga::emit_verilog(
          dynamic_cast<FpgaModuleArtifact&>(*a).filter().module());
    case DeviceKind::kCpu: {
      const bc::CompiledMethod* m = cp.bytecode->find(e.task_id);
      EXPECT_NE(m, nullptr) << e.task_id;
      if (!m) return {};
      std::string text = "// bytecode artifact for " + e.task_id + "\n";
      for (size_t pc = 0; pc < m->code.size(); ++pc) {
        text += std::to_string(pc) + ": " + bc::disassemble(m->code[pc]);
        text += "\n";
      }
      return text;
    }
  }
  return {};
}

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lm_bundle_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(RepositoryTest, WritesAllArtifactsAndManifest) {
  auto cp = compile(lime::testing::figure1_source());
  ASSERT_TRUE(cp->ok());
  auto entries = write_artifact_bundle(*cp, dir_.string());
  ASSERT_EQ(entries.size(), 3u);  // cpu + gpu + fpga for Bitflip.flip

  EXPECT_TRUE(fs::exists(dir_ / "MANIFEST"));
  EXPECT_TRUE(fs::exists(dir_ / "Bitflip_flip.cl"));
  EXPECT_TRUE(fs::exists(dir_ / "Bitflip_flip.v"));
  EXPECT_TRUE(fs::exists(dir_ / "Bitflip_flip.bc.txt"));

  // File contents are the artifact texts.
  std::ifstream cl(dir_ / "Bitflip_flip.cl");
  std::string text((std::istreambuf_iterator<char>(cl)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("__kernel"), std::string::npos);

  std::ifstream bc_file(dir_ / "Bitflip_flip.bc.txt");
  std::string bc_text((std::istreambuf_iterator<char>(bc_file)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(bc_text.find("bitflip"), std::string::npos);
}

TEST_F(RepositoryTest, FilesHoldTheArtifactTexts) {
  auto cp = compile(lime::testing::figure1_source());
  ASSERT_TRUE(cp->ok());
  auto entries = write_artifact_bundle(*cp, dir_.string());
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& e : entries) {
    std::string text = read_file(dir_ / e.filename);
    EXPECT_FALSE(text.empty()) << e.filename;
    EXPECT_EQ(text, expected_text(*cp, e)) << e.filename;
  }
}

TEST_F(RepositoryTest, FusedSegmentFilesHoldTheArtifactTexts) {
  auto cp = compile(R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      local static int offset(int x) { return x + 7; }
      static void run(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task scale ]) => ([ task offset ])
          => out.<int>sink();
        g.finish();
      }
    }
  )");
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  auto entries = write_artifact_bundle(*cp, dir_.string());
  int segment_files = 0;
  for (const auto& e : entries) {
    if (e.task_id == "seg:P.scale:P.offset") ++segment_files;
    EXPECT_EQ(read_file(dir_ / e.filename), expected_text(*cp, e))
        << e.filename;
  }
  // The fused segment has a GPU kernel and an FPGA module, no bytecode.
  EXPECT_EQ(segment_files, 2);
  EXPECT_TRUE(fs::exists(dir_ / "seg_P_scale_P_offset.cl"));
  EXPECT_TRUE(fs::exists(dir_ / "seg_P_scale_P_offset.v"));
}

TEST_F(RepositoryTest, ManifestRoundTrips) {
  auto cp = compile(lime::testing::figure1_source());
  ASSERT_TRUE(cp->ok());
  auto written = write_artifact_bundle(*cp, dir_.string());
  auto read = read_bundle_manifest(dir_.string());
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i].task_id, written[i].task_id);
    EXPECT_EQ(read[i].device, written[i].device);
    EXPECT_EQ(read[i].filename, written[i].filename);
    EXPECT_EQ(read[i].signature, written[i].signature);
  }
  // Every listed file exists.
  for (const auto& e : read) {
    EXPECT_TRUE(fs::exists(dir_ / e.filename)) << e.filename;
  }
}

TEST_F(RepositoryTest, SegmentIdsMapToSafeFilenames) {
  EXPECT_EQ(bundle_filename("seg:P.a:P.b", DeviceKind::kGpu),
            "seg_P_a_P_b.cl");
  EXPECT_EQ(bundle_filename("Bitflip.flip", DeviceKind::kFpga),
            "Bitflip_flip.v");
  EXPECT_EQ(bundle_filename("C.f", DeviceKind::kCpu), "C_f.bc.txt");
}

TEST_F(RepositoryTest, MissingManifestThrows) {
  EXPECT_THROW(read_bundle_manifest((dir_ / "nope").string()), RuntimeError);
}

TEST_F(RepositoryTest, SignatureRecordsTypesAndArity) {
  auto cp = compile(R"(
    class C {
      local static int addPair(int a, int b) { return a + b; }
      static void run(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task addPair ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  ASSERT_TRUE(cp->ok());
  auto entries = write_artifact_bundle(*cp, dir_.string());
  bool found = false;
  for (const auto& e : entries) {
    if (e.device == DeviceKind::kCpu) {
      EXPECT_EQ(e.signature, "(int, int) -> int arity=2");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace lm::runtime
