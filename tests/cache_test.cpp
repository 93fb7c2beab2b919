// Unit + robustness tests for the persistent artifact cache (DESIGN.md
// §14): content-key discipline, entry-file validation (truncation,
// corruption, version skew, backend mismatch — all must be misses, never
// crashes, never wrong bytes), LRU eviction, read-only/off semantics,
// cross-instance concurrency, codec round-trips, the warm-start
// differential, and the lmdev compile-service path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bytecode/module.h"
#include "cache/artifact_cache.h"
#include "cache/serialize.h"
#include "gpu/lowered.h"
#include "net/compile_client.h"
#include "net/server.h"
#include "runtime/liquid_runtime.h"
#include "util/error.h"
#include "workloads/workloads.h"

namespace lm::cache {
namespace {

namespace fs = std::filesystem;
using bc::Value;

/// Fresh cache directory per test, removed on teardown.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("lm-cache-test-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CacheConfig config(CacheMode mode, uint64_t max_bytes = 256ull << 20) {
    CacheConfig c;
    c.mode = mode;
    c.dir = dir_.string();
    c.max_bytes = max_bytes;
    return c;
  }

  fs::path entry_file(uint64_t key) const {
    return dir_ / "objects" / (key_hex(key) + ".art");
  }

  fs::path dir_;
};

std::vector<uint8_t> bytes_of(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// -- content keys ----------------------------------------------------------

TEST(KeyTest, DeterministicAndInputSensitive) {
  auto ir = bytes_of("canonical-ir");
  uint64_t k = artifact_key(ir, kBackendGpu);
  EXPECT_EQ(k, artifact_key(ir, kBackendGpu));
  EXPECT_NE(k, artifact_key(ir, kBackendFpga));
  auto ir2 = ir;
  ir2.back() ^= 1;
  EXPECT_NE(k, artifact_key(ir2, kBackendGpu));
  // Pinned: the key this payload had when keys still took compile flags
  // (all empty), so entries written then still hit.
  EXPECT_EQ(key_hex(k), "6cb7f7699fe4302f");
}

TEST(KeyTest, FieldBoundariesDoNotAlias) {
  // Moving a byte across the (canonical bytes | backend) boundary must
  // change the key — the separators exist exactly for this.
  EXPECT_NE(artifact_key(bytes_of("a"), "bc"),
            artifact_key(bytes_of("ab"), "c"));
  EXPECT_NE(artifact_key(bytes_of(""), "a"), artifact_key(bytes_of("a"), ""));
}

TEST(KeyTest, HexStemIsSixteenDigits) {
  std::string hex = key_hex(0xdeadbeefull);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(hex, "00000000deadbeef");
}

TEST(KeyTest, ParseCacheModeGrammar) {
  EXPECT_EQ(parse_cache_mode("off"), CacheMode::kOff);
  EXPECT_EQ(parse_cache_mode("ro"), CacheMode::kReadOnly);
  EXPECT_EQ(parse_cache_mode("rw"), CacheMode::kReadWrite);
  EXPECT_FALSE(parse_cache_mode("readwrite").has_value());
  EXPECT_FALSE(parse_cache_mode("").has_value());
}

// -- store/load semantics --------------------------------------------------

TEST_F(CacheTest, StoreThenLoadRoundTrips) {
  ArtifactCache ac(config(CacheMode::kReadWrite));
  auto payload = bytes_of("compiled artifact bytes");
  uint64_t key = artifact_key(payload, kBackendGpu);
  EXPECT_TRUE(ac.store(key, kBackendGpu, payload));
  auto got = ac.load(key, kBackendGpu);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_EQ(ac.metrics().value("cache.hits"), 1u);
  EXPECT_EQ(ac.metrics().value("cache.stores"), 1u);
  EXPECT_EQ(ac.entry_count(), 1u);
  EXPECT_GT(ac.total_bytes(), payload.size());  // header included
}

TEST_F(CacheTest, MissOnUnknownKey) {
  ArtifactCache ac(config(CacheMode::kReadWrite));
  EXPECT_FALSE(ac.load(0x1234, kBackendGpu).has_value());
  EXPECT_EQ(ac.metrics().value("cache.misses"), 1u);
  EXPECT_EQ(ac.metrics().value("cache.errors"), 0u);
}

TEST_F(CacheTest, EntriesSurviveAcrossInstances) {
  auto payload = bytes_of("durable");
  uint64_t key = artifact_key(payload, kBackendBytecode);
  {
    ArtifactCache writer(config(CacheMode::kReadWrite));
    ASSERT_TRUE(writer.store(key, kBackendBytecode, payload));
  }
  ArtifactCache reader(config(CacheMode::kReadOnly));
  EXPECT_EQ(reader.entry_count(), 1u);
  auto got = reader.load(key, kBackendBytecode);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST_F(CacheTest, ReadOnlyNeverWrites) {
  ArtifactCache ac(config(CacheMode::kReadOnly));
  EXPECT_TRUE(ac.enabled());
  EXPECT_FALSE(ac.writable());
  EXPECT_FALSE(ac.store(1, kBackendGpu, bytes_of("x")));
  EXPECT_FALSE(fs::exists(dir_ / "objects"));
}

TEST_F(CacheTest, OffModeNeverTouchesDisk) {
  ArtifactCache ac(config(CacheMode::kOff));
  EXPECT_FALSE(ac.enabled());
  EXPECT_FALSE(ac.store(1, kBackendGpu, bytes_of("x")));
  EXPECT_FALSE(ac.load(1, kBackendGpu).has_value());
  EXPECT_FALSE(fs::exists(dir_));
}

// -- robustness: every malformed entry is a miss, never a crash ------------

TEST_F(CacheTest, TruncatedEntryIsMissAndUnlinked) {
  auto payload = bytes_of("will be truncated to a stub");
  uint64_t key = artifact_key(payload, kBackendFpga);
  {
    ArtifactCache writer(config(CacheMode::kReadWrite));
    ASSERT_TRUE(writer.store(key, kBackendFpga, payload));
  }
  fs::resize_file(entry_file(key), 16);  // cuts into the header

  ArtifactCache ac(config(CacheMode::kReadWrite));
  EXPECT_FALSE(ac.load(key, kBackendFpga).has_value());
  EXPECT_GE(ac.metrics().value("cache.errors"), 1u);
  // rw mode clears the bad entry so the next store can repair it.
  EXPECT_FALSE(fs::exists(entry_file(key)));
}

TEST_F(CacheTest, CorruptedPayloadFailsChecksum) {
  auto payload = bytes_of("checksummed payload bytes");
  uint64_t key = artifact_key(payload, kBackendGpu);
  {
    ArtifactCache writer(config(CacheMode::kReadWrite));
    ASSERT_TRUE(writer.store(key, kBackendGpu, payload));
  }
  {
    // Flip the last payload byte in place: header stays intact, so only
    // the FNV checksum can catch it.
    std::fstream f(entry_file(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  ArtifactCache ac(config(CacheMode::kReadWrite));
  EXPECT_FALSE(ac.load(key, kBackendGpu).has_value());
  EXPECT_GE(ac.metrics().value("cache.errors"), 1u);
}

TEST_F(CacheTest, VersionSkewIsMiss) {
  auto payload = bytes_of("from a future toolchain");
  uint64_t key = artifact_key(payload, kBackendGpu);
  {
    ArtifactCache writer(config(CacheMode::kReadWrite));
    ASSERT_TRUE(writer.store(key, kBackendGpu, payload));
  }
  {
    // Entry layout: u32 magic | u32 format version | ... — bump the
    // version field as a format change would.
    std::fstream f(entry_file(key),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put(static_cast<char>(kCacheFormatVersion + 1));
  }
  ArtifactCache ac(config(CacheMode::kReadWrite));
  EXPECT_FALSE(ac.load(key, kBackendGpu).has_value());
  EXPECT_GE(ac.metrics().value("cache.errors"), 1u);
}

TEST_F(CacheTest, BackendMismatchIsMiss) {
  auto payload = bytes_of("gpu kernel");
  uint64_t key = artifact_key(payload, kBackendGpu);
  ArtifactCache ac(config(CacheMode::kReadWrite));
  ASSERT_TRUE(ac.store(key, kBackendGpu, payload));
  // Same key asked for as a different backend must never serve the bytes.
  // A mismatch can only mean a key collision or tampering, so rw mode
  // treats it as corruption and drops the entry; a store repairs it.
  EXPECT_FALSE(ac.load(key, kBackendFpga).has_value());
  EXPECT_GE(ac.metrics().value("cache.errors"), 1u);
  EXPECT_FALSE(fs::exists(entry_file(key)));
  ASSERT_TRUE(ac.store(key, kBackendGpu, payload));
  EXPECT_TRUE(ac.load(key, kBackendGpu).has_value());
}

TEST_F(CacheTest, ReadOnlyLeavesCorruptEntriesInPlace) {
  auto payload = bytes_of("corrupt but not mine to delete");
  uint64_t key = artifact_key(payload, kBackendGpu);
  {
    ArtifactCache writer(config(CacheMode::kReadWrite));
    ASSERT_TRUE(writer.store(key, kBackendGpu, payload));
  }
  fs::resize_file(entry_file(key), 8);
  ArtifactCache ac(config(CacheMode::kReadOnly));
  EXPECT_FALSE(ac.load(key, kBackendGpu).has_value());
  EXPECT_TRUE(fs::exists(entry_file(key)));  // ro: no unlink
}

// -- LRU eviction ----------------------------------------------------------

TEST_F(CacheTest, EvictsOldestEntriesAtCapacity) {
  // Cap fits ~4 of the 8 one-KiB entries (plus headers).
  ArtifactCache ac(config(CacheMode::kReadWrite, 4 * 1100));
  std::vector<uint64_t> keys;
  for (int i = 0; i < 8; ++i) {
    std::vector<uint8_t> payload(1024, static_cast<uint8_t>(i));
    uint64_t key = artifact_key(payload, kBackendGpu);
    keys.push_back(key);
    ASSERT_TRUE(ac.store(key, kBackendGpu, payload));
  }
  EXPECT_GT(ac.metrics().value("cache.evictions"), 0u);
  EXPECT_LE(ac.total_bytes(), 4u * 1100u);
  EXPECT_LT(ac.entry_count(), 8u);
  // The most recent store must have survived the eviction pass.
  EXPECT_TRUE(ac.load(keys.back(), kBackendGpu).has_value());
}

// -- concurrency -----------------------------------------------------------

TEST_F(CacheTest, ConcurrentInstancesAgreeOnPayloads) {
  // Multiple ArtifactCache instances over one directory stand in for
  // multiple processes: every load must return either a miss or the
  // exact payload for its key — never bytes from another key.
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint64_t> keys;
  for (int k = 0; k < kKeys; ++k) {
    payloads.push_back(std::vector<uint8_t>(
        256 + static_cast<size_t>(k) * 13, static_cast<uint8_t>(k * 7 + 1)));
    keys.push_back(artifact_key(payloads.back(), kBackendGpu));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ArtifactCache ac(config(CacheMode::kReadWrite));
      for (int round = 0; round < 40; ++round) {
        int k = (t + round) % kKeys;
        if (round % 2 == 0) {
          ac.store(keys[static_cast<size_t>(k)], kBackendGpu,
                   payloads[static_cast<size_t>(k)]);
        }
        auto got = ac.load(keys[static_cast<size_t>(k)], kBackendGpu);
        if (got && *got != payloads[static_cast<size_t>(k)]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  ArtifactCache check(config(CacheMode::kReadOnly));
  EXPECT_EQ(check.entry_count(), static_cast<uint64_t>(kKeys));
}

// -- codec round-trips -----------------------------------------------------

const char* kPipelineSource = R"(
  class P {
    local static int triple(int x) { return 3 * x; }
    local static int addOne(int x) { return x + 1; }
    static int drive(int[[]] xs) {
      int[] out = new int[xs.length];
      var g = xs.source(1) => ([ task triple ]) => ([ task addOne ])
        => out.<int>sink();
      g.finish();
      int acc = 0;
      for (int i = 0; i < out.length; i += 1) { acc = acc + out[i]; }
      return acc;
    }
  }
)";

TEST(CodecTest, BytecodeModuleRoundTripIsByteStable) {
  auto cp = runtime::compile(kPipelineSource);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  auto bytes = encode_bytecode_module(*cp->bytecode);
  auto decoded = decode_bytecode_module(bytes);
  ASSERT_NE(decoded, nullptr);
  // Re-encoding the decoded module must reproduce the exact bytes — the
  // property the store's idempotent-rename durability rule leans on.
  EXPECT_EQ(encode_bytecode_module(*decoded), bytes);
}

TEST(CodecTest, TruncatedBytecodePayloadThrows) {
  auto cp = runtime::compile(kPipelineSource);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  auto bytes = encode_bytecode_module(*cp->bytecode);
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::span<const uint8_t> head(bytes.data(), cut);
    EXPECT_THROW(decode_bytecode_module(head), lm::RuntimeError)
        << "cut=" << cut;
  }
}

TEST(CodecTest, CanonicalBytesIgnoreUnrelatedEdits) {
  // The same filter compiled inside two different programs must produce
  // identical canonical bytes (and so identical cache keys) even though
  // const-pool/method-table indices differ across the two modules.
  const char* a = R"(
    class A {
      local static int f(int x) { return x * 3 + 7; }
      static void drive(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task f ]) => out.<int>sink();
        g.finish();
      }
    }
  )";
  const char* b = R"(
    class A {
      static final int UNRELATED = 12345;
      local static int other(int x) { return x - UNRELATED; }
      local static int f(int x) { return x * 3 + 7; }
      static void drive(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task other ]) => ([ task f ])
          => out.<int>sink();
        g.finish();
      }
    }
  )";
  auto ca = runtime::compile(a);
  auto cb = runtime::compile(b);
  ASSERT_TRUE(ca->ok() && cb->ok());
  ByteWriter wa, wb;
  ASSERT_TRUE(canonical_method_bytes(*ca->bytecode, "A.f", wa));
  ASSERT_TRUE(canonical_method_bytes(*cb->bytecode, "A.f", wb));
  EXPECT_EQ(wa.bytes().size(), wb.bytes().size());
  EXPECT_TRUE(std::equal(wa.bytes().begin(), wa.bytes().end(),
                         wb.bytes().begin()));
}

// -- hostile FPGA payloads -------------------------------------------------

const workloads::Workload& crc8_workload() {
  for (const auto& w : workloads::pipeline_suite()) {
    if (w.name == "crc8pipe") return w;
  }
  throw std::invalid_argument("no crc8pipe workload");
}

struct Spoiled {
  const char* what;
  std::function<void(rtl::Module&, fpga::FpgaPortMeta&)> spoil;
};

/// An expression node built field by field, as the decoder builds one: the
/// h_* factories refuse the lies below.
std::shared_ptr<rtl::HExpr> node(rtl::HKind kind, int width) {
  auto e = std::make_shared<rtl::HExpr>();
  e->kind = kind;
  e->width = width;
  return e;
}

/// `a` shifted left by a constant of `amount_width` bits.
rtl::HExprPtr shifted_by(rtl::HExprPtr a, int amount_width) {
  auto e = node(rtl::HKind::kBinary, a->width);
  e->bin_op = rtl::HBinOp::kShl;
  e->a = std::move(a);
  e->b = node(rtl::HKind::kConst, amount_width);
  return e;
}

/// The combinational driver of `name` in `m`.
rtl::HExprPtr& driver_of(rtl::Module& m, const char* name) {
  for (rtl::CombAssign& a : m.comb) {
    if (a.target == m.find(name)) return a.expr;
  }
  throw std::invalid_argument("no driver");
}

/// A width other than `w`.
int other_width(int w) { return w == 2 ? 3 : 2; }

/// crc8's netlist and ports, each with one lie: a port that does not match
/// the netlist, an assignment to a signal the netlist does not have or may
/// not drive, or an expression node the simulator cannot evaluate.
std::vector<Spoiled> spoiled_variants() {
  using fpga::FpgaPortMeta;
  auto rename = [](rtl::Module& m, const char* from, const char* to) {
    m.signals[static_cast<size_t>(m.find(from))].name = to;
  };
  auto reads_signal = [](rtl::SigId id) {
    return [id](rtl::Module& m, FpgaPortMeta&) {
      m.seq[0].next = rtl::h_sig(id, m.seq[0].next->width);
    };
  };
  auto shift_amount_of_width = [](int width) {
    return [width](rtl::Module& m, FpgaPortMeta&) {
      m.seq[0].next = shifted_by(m.seq[0].next, width);
    };
  };
  return {
      {"unknown input", [](rtl::Module&, FpgaPortMeta& p) {
         p.in_data[0] = "noSuchPort";
       }},
      {"arity above inputs", [](rtl::Module&, FpgaPortMeta& p) {
         p.arity = 3;
       }},
      {"zero arity", [](rtl::Module&, FpgaPortMeta& p) {
         p.arity = 0;
         p.in_data.clear();
         p.in_widths.clear();
       }},
      {"widths disagree with inputs", [](rtl::Module&, FpgaPortMeta& p) {
         p.in_widths.push_back(32);
       }},
      {"input width", [](rtl::Module&, FpgaPortMeta& p) {
         p.in_widths[0] = 16;
       }},
      {"output is an input", [](rtl::Module&, FpgaPortMeta& p) {
         p.out_data = p.in_data[0];
       }},
      {"output width 200", [](rtl::Module&, FpgaPortMeta& p) {
         p.out_width = 200;
       }},
      {"output width", [](rtl::Module&, FpgaPortMeta& p) {
         p.out_width = 8;
       }},
      {"no inReady", [rename](rtl::Module& m, FpgaPortMeta&) {
         rename(m, "inReady", "inReadyX");
       }},
      {"no inTake", [rename](rtl::Module& m, FpgaPortMeta&) {
         rename(m, "inTake", "inTakeX");
       }},
      {"no outReady", [rename](rtl::Module& m, FpgaPortMeta&) {
         rename(m, "outReady", "outReadyX");
       }},
      {"zero latency", [](rtl::Module&, FpgaPortMeta& p) {
         p.latency = 0;
       }},
      {"zero initiation interval", [](rtl::Module&, FpgaPortMeta& p) {
         p.initiation_interval = 0;
       }},
      {"comb target past the signals", [](rtl::Module& m, FpgaPortMeta&) {
         m.comb[0].target = static_cast<rtl::SigId>(m.signals.size());
       }},
      {"negative seq target", [](rtl::Module& m, FpgaPortMeta&) {
         m.seq[0].target = -1;
       }},
      {"register next-value reads signal 100000", reads_signal(100000)},
      {"register next-value reads signal -7", reads_signal(-7)},
      {"inner node of width 0", shift_amount_of_width(0)},
      {"inner node of width 65", shift_amount_of_width(65)},
      {"binary operator code 99", [](rtl::Module& m, FpgaPortMeta&) {
         rtl::HExprPtr& e = driver_of(m, "inTake");
         ASSERT_EQ(e->kind, rtl::HKind::kBinary);
         auto bad = node(rtl::HKind::kBinary, e->width);
         bad->bin_op = static_cast<rtl::HBinOp>(99);
         bad->a = e->a;
         bad->b = e->b;
         e = bad;
       }},
      {"combinational driver on inReady", [](rtl::Module& m, FpgaPortMeta&) {
         m.comb.push_back({m.find("inReady"), rtl::h_const(1, 1)});
       }},
      {"top-level width mismatch", [](rtl::Module& m, FpgaPortMeta&) {
         m.seq[0].next = rtl::h_resize(
             m.seq[0].next, other_width(m.seq[0].next->width), false);
       }},
      {"binary operands differ in width", [](rtl::Module& m, FpgaPortMeta&) {
         auto bad = node(rtl::HKind::kBinary, m.seq[0].next->width);
         bad->bin_op = rtl::HBinOp::kAdd;
         bad->a = m.seq[0].next;
         bad->b = rtl::h_const(other_width(bad->a->width), 1);
         m.seq[0].next = bad;
       }},
  };
}

/// crc8's FPGA payload with one variant's lie applied.
std::vector<uint8_t> spoiled_crc8_payload(const Spoiled& bad) {
  auto cp = runtime::compile(crc8_workload().lime_source);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  auto* fa = dynamic_cast<runtime::FpgaModuleArtifact*>(
      cp->store.find("Crc8.crc8", runtime::DeviceKind::kFpga));
  EXPECT_NE(fa, nullptr);
  if (!fa) return {};
  rtl::Module module = fa->filter().module();
  fpga::FpgaPortMeta ports = fa->filter().ports();
  bad.spoil(module, ports);
  return encode_fpga_parts(module, ports);
}

TEST(CodecTest, FpgaPayloadsThatLieAboutTheNetlistAreRejected) {
  EXPECT_NO_THROW(decode_fpga_result(
      spoiled_crc8_payload({"intact", [](rtl::Module&, fpga::FpgaPortMeta&) {
                            }})));
  for (const Spoiled& bad : spoiled_variants()) {
    EXPECT_THROW(decode_fpga_result(spoiled_crc8_payload(bad)),
                 lm::RuntimeError)
        << bad.what;
  }
}

TEST(CodecTest, HostileFpgaPayloadIsAMissNotACrash) {
  // A compile service that serves crc8's netlist with a lie in it: the
  // compiler must synthesize locally, as for any miss (DESIGN.md §14).
  const workloads::Workload& w = crc8_workload();
  for (const Spoiled& bad : spoiled_variants()) {
    SCOPED_TRACE(bad.what);
    std::vector<uint8_t> payload = spoiled_crc8_payload(bad);
    runtime::CompileOptions opts;
    opts.remote_fetch = [&payload](uint64_t, const std::string& backend,
                                   const std::string&)
        -> std::optional<std::vector<uint8_t>> {
      if (backend != kBackendFpga) return std::nullopt;
      return payload;
    };
    auto cp = runtime::compile(w.lime_source, opts);
    ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
    EXPECT_NE(std::find(cp->backend_log.begin(), cp->backend_log.end(),
                        "fpga: compiled Crc8.crc8"),
              cp->backend_log.end());

    runtime::RuntimeConfig rc;
    rc.placement = runtime::Placement::kFpgaOnly;
    runtime::LiquidRuntime rt(*cp, rc);
    std::vector<Value> args = w.make_args(64, 7);
    Value got = rt.call(w.entry, args);
    EXPECT_TRUE(workloads::results_match(got, w.reference(args), 0.0));
    ASSERT_EQ(rt.stats().substitutions.size(), 1u);
    EXPECT_EQ(rt.stats().substitutions[0].device, runtime::DeviceKind::kFpga);
  }
}

// -- hostile GPU payloads --------------------------------------------------

const workloads::Workload& saxpy_workload() {
  for (const auto& w : workloads::gpu_suite()) {
    if (w.name == "saxpy") return w;
  }
  throw std::invalid_argument("no saxpy workload");
}

struct SpoiledKernel {
  const char* what;
  std::function<void(gpu::KernelProgram&)> spoil;
};

/// The first instruction of `p` with opcode `op`.
gpu::KInstr& first_of(gpu::KernelProgram& p, gpu::KOp op) {
  for (gpu::KInstr& k : p.code) {
    if (k.op == op) return k;
  }
  throw std::invalid_argument("no such instruction");
}

/// saxpy's kernel IR, each with one lie about an index, selector,
/// parameter mode or path the kernel executor trusts. Every one still
/// decodes: the codec checks only framing.
std::vector<SpoiledKernel> spoiled_kernel_variants() {
  using gpu::KOp;
  return {
      {"destination register 60000", [](gpu::KernelProgram& p) {
         p.code[0].dst = 60000;
       }},
      {"source register past num_regs", [](gpu::KernelProgram& p) {
         first_of(p, KOp::kArith).a = static_cast<uint16_t>(p.num_regs);
       }},
      {"num_regs 1", [](gpu::KernelProgram& p) { p.num_regs = 1; }},
      {"negative num_regs", [](gpu::KernelProgram& p) { p.num_regs = -1; }},
      {"constant past the pool", [](gpu::KernelProgram& p) {
         p.code[0].op = KOp::kLoadConst;
         p.code[0].a = static_cast<uint16_t>(p.consts.size());
       }},
      {"parameter past the params", [](gpu::KernelProgram& p) {
         first_of(p, KOp::kLoadParam).a =
             static_cast<uint16_t>(p.params.size());
       }},
      {"jump past the end", [](gpu::KernelProgram& p) {
         gpu::KInstr jump{KOp::kJump};
         jump.imm = static_cast<int32_t>(p.code.size()) + 2;
         p.code.insert(p.code.begin(), jump);
       }},
      {"unknown opcode", [](gpu::KernelProgram& p) {
         p.code[0].op = static_cast<KOp>(200);
       }},
      {"unknown NumType", [](gpu::KernelProgram& p) {
         first_of(p, KOp::kArith).t = static_cast<bc::NumType>(9);
       }},
      {"arith operator past kNeg", [](gpu::KernelProgram& p) {
         first_of(p, KOp::kArith).aux = 11;
       }},
      {"kArrayLen of a scalar parameter", [](gpu::KernelProgram& p) {
         first_of(p, KOp::kLoadParam).op = KOp::kArrayLen;
       }},
      {"the kRet dropped", [](gpu::KernelProgram& p) {
         ASSERT_EQ(p.code.back().op, KOp::kRet);
         p.code.pop_back();
       }},
      {"a kArith operand no path writes", [](gpu::KernelProgram& p) {
         first_of(p, KOp::kArith).a = static_cast<uint16_t>(p.num_regs++);
       }},
  };
}

/// Lies in IR that is consistent in itself, so it passes validation, about
/// the task it claims to be: the artifact built from it rejects them.
std::vector<SpoiledKernel> task_lie_variants() {
  using gpu::KOp;
  return {
      {"a parameter the task does not have", [](gpu::KernelProgram& p) {
         p.params.push_back(p.params.back());
       }},
      {"a parameter and return type the task does not have",
       [](gpu::KernelProgram& p) {
         p.params[0].type = bc::NumType::kI64;
         p.ret_type = bc::NumType::kI64;
       }},
      {"a scalar parameter declared a whole array and its length read",
       [](gpu::KernelProgram& p) {
         gpu::KInstr& load = first_of(p, KOp::kLoadParam);
         load.op = KOp::kArrayLen;
         p.params[load.a].mode = gpu::ParamMode::kWholeArray;
       }},
  };
}

/// The kernel IR payload of `task` in `w` with one variant's lie applied.
std::vector<uint8_t> spoiled_kernel_payload(const workloads::Workload& w,
                                            const std::string& task,
                                            const SpoiledKernel& bad) {
  auto cp = runtime::compile(w.lime_source);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  auto* ga = dynamic_cast<runtime::GpuKernelArtifact*>(
      cp->store.find(task, runtime::DeviceKind::kGpu));
  EXPECT_NE(ga, nullptr);
  if (!ga) return {};
  gpu::KernelProgram program = ga->program();
  bad.spoil(program);
  return encode_kernel_program(program);
}

/// saxpy's GPU payload with one variant's lie applied.
std::vector<uint8_t> spoiled_saxpy_payload(const SpoiledKernel& bad) {
  return spoiled_kernel_payload(saxpy_workload(), "Saxpy.axpy", bad);
}

TEST(CodecTest, KernelPayloadsThatLieAboutTheirIrAreRejected) {
  auto intact = decode_kernel_program(
      spoiled_saxpy_payload({"intact", [](gpu::KernelProgram&) {}}));
  EXPECT_NO_THROW(gpu::LoweredKernel{*intact});
  for (const SpoiledKernel& bad : spoiled_kernel_variants()) {
    auto program = decode_kernel_program(spoiled_saxpy_payload(bad));
    EXPECT_THROW(gpu::LoweredKernel{*program}, lm::RuntimeError) << bad.what;
  }
}

TEST(CodecTest, HostileKernelPayloadIsAMissNotACrash) {
  // A compile service that serves saxpy's kernel with a lie in its IR: the
  // compiler must compile the kernel locally, as for any miss (DESIGN.md
  // §14). The task lies lower, but take a parameter, or a type or mode,
  // their task does not have, which the artifact rejects.
  const workloads::Workload& w = saxpy_workload();
  std::vector<SpoiledKernel> variants = spoiled_kernel_variants();
  for (const SpoiledKernel& lie : task_lie_variants()) variants.push_back(lie);
  for (const SpoiledKernel& bad : variants) {
    SCOPED_TRACE(bad.what);
    std::vector<uint8_t> payload = spoiled_saxpy_payload(bad);
    runtime::CompileOptions opts;
    opts.remote_fetch = [&payload](uint64_t, const std::string& backend,
                                   const std::string&)
        -> std::optional<std::vector<uint8_t>> {
      if (backend != kBackendGpu) return std::nullopt;
      return payload;
    };
    auto cp = runtime::compile(w.lime_source, opts);
    ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
    EXPECT_NE(std::find(cp->backend_log.begin(), cp->backend_log.end(),
                        "gpu: compiled Saxpy.axpy"),
              cp->backend_log.end());

    std::vector<Value> args = w.make_args(64, 7);
    for (runtime::Placement placement :
         {runtime::Placement::kGpuOnly, runtime::Placement::kFpgaOnly}) {
      runtime::RuntimeConfig rc;
      rc.placement = placement;
      runtime::LiquidRuntime rt(*cp, rc);
      Value got = rt.call(w.entry, args);
      EXPECT_TRUE(workloads::results_match(got, w.reference(args), 0.0));
      EXPECT_EQ(rt.stats().maps_accelerated,
                placement == runtime::Placement::kGpuOnly ? 1u : 0u);
    }
  }
}

TEST(CodecTest, HostileKernelPayloadIsAMissForFpgaSynthesis) {
  // FPGA synthesis reads the same kernel IR: with the GPU backend off, a
  // served IR that fails validation or disagrees with its task is a miss,
  // and the module comes from a local compile of the kernel.
  const workloads::Workload& w = crc8_workload();
  std::vector<SpoiledKernel> variants = spoiled_kernel_variants();
  for (const SpoiledKernel& lie : task_lie_variants()) variants.push_back(lie);
  for (const SpoiledKernel& bad : variants) {
    SCOPED_TRACE(bad.what);
    std::vector<uint8_t> payload = spoiled_kernel_payload(w, "Crc8.crc8", bad);
    runtime::CompileOptions opts;
    opts.enable_gpu = false;
    opts.remote_fetch = [&payload](uint64_t, const std::string& backend,
                                   const std::string&)
        -> std::optional<std::vector<uint8_t>> {
      if (backend != kBackendGpu) return std::nullopt;
      return payload;
    };
    auto cp = runtime::compile(w.lime_source, opts);
    ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
    EXPECT_NE(std::find(cp->backend_log.begin(), cp->backend_log.end(),
                        "fpga: compiled Crc8.crc8"),
              cp->backend_log.end());

    runtime::RuntimeConfig rc;
    rc.placement = runtime::Placement::kFpgaOnly;
    runtime::LiquidRuntime rt(*cp, rc);
    std::vector<Value> args = w.make_args(64, 7);
    Value got = rt.call(w.entry, args);
    EXPECT_TRUE(workloads::results_match(got, w.reference(args), 0.0));
    ASSERT_EQ(rt.stats().substitutions.size(), 1u);
    EXPECT_EQ(rt.stats().substitutions[0].device, runtime::DeviceKind::kFpga);
  }
}

TEST(CodecTest, ServedKernelNestingTooDeeplyIsExcludedNotACrash) {
  // A valid served IR for Crc8.crc8 whose every branch on data skips to
  // its return: each branch nests in the arm of the one before, more deeply
  // than synthesis recurses.
  const workloads::Workload& w = crc8_workload();
  constexpr int kBranches = 1 << 17;
  std::vector<uint8_t> payload = spoiled_kernel_payload(
      w, "Crc8.crc8",
      {"branches nested to the end", [](gpu::KernelProgram& p) {
         gpu::KConst zero;
         p.consts = {zero};
         p.num_regs = 3;
         p.code = {{gpu::KOp::kLoadParam, 0, 0},
                   {gpu::KOp::kLoadConst, 1, 0},
                   {gpu::KOp::kCmp, 2, 0, 1,
                    static_cast<uint8_t>(gpu::CmpOp::kEq)}};
         for (int i = 0; i < kBranches; ++i) {
           p.code.push_back({gpu::KOp::kJumpIfFalse, 0, 2, 0, 0,
                             gpu::NumType::kI32, gpu::NumType::kI32,
                             3 + kBranches});
         }
         p.code.push_back({gpu::KOp::kRet, 0, 0});
       }});
  runtime::CompileOptions opts;
  opts.remote_fetch = [&payload](uint64_t, const std::string& backend,
                                 const std::string&)
      -> std::optional<std::vector<uint8_t>> {
    if (backend != kBackendGpu) return std::nullopt;
    return payload;
  };
  auto cp = runtime::compile(w.lime_source, opts);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  const auto& log = cp->backend_log;
  EXPECT_NE(std::find(log.begin(), log.end(),
                      "gpu: compiled Crc8.crc8 (cached)"),
            log.end());
  EXPECT_NE(std::find(log.begin(), log.end(),
                      "fpga: excluded Crc8.crc8 — datapath nests more than "
                      "256 branches on data"),
            log.end());
}

// -- hostile bytecode payloads ---------------------------------------------

struct SpoiledModule {
  const char* what;
  std::function<void(bc::BytecodeModule&)> spoil;
};

/// The method `name` of `m`.
bc::CompiledMethod& method_of(bc::BytecodeModule& m, const std::string& name) {
  return m.methods.at(static_cast<size_t>(m.index_of(name)));
}

/// The first instruction of `cm` with opcode `op`.
bc::Instr& first_of(bc::CompiledMethod& cm, bc::Op op) {
  for (bc::Instr& in : cm.code) {
    if (in.op == op) return in;
  }
  throw std::invalid_argument("no such instruction");
}

/// saxpy's bytecode module, each with one lie about an operand the VM uses
/// as an index or an enum. Every one is well framed.
std::vector<SpoiledModule> spoiled_module_variants() {
  using bc::Op;
  auto axpy = [](bc::BytecodeModule& m) -> bc::CompiledMethod& {
    return method_of(m, "Saxpy.axpy");
  };
  auto replace_first = [axpy](bc::Instr in) {
    return [axpy, in](bc::BytecodeModule& m) { axpy(m).code[0] = in; };
  };
  return {
      {"load from slot 1000000", [axpy](bc::BytecodeModule& m) {
         first_of(axpy(m), Op::kLoad).a = 1000000;
       }},
      {"load from slot -1", [axpy](bc::BytecodeModule& m) {
         first_of(axpy(m), Op::kLoad).a = -1;
       }},
      {"constant past the pool", [axpy](bc::BytecodeModule& m) {
         axpy(m).code[0] = {Op::kConst,
                            static_cast<int32_t>(m.const_pool.size())};
       }},
      {"jump past the end", [axpy](bc::BytecodeModule& m) {
         bc::CompiledMethod& cm = axpy(m);
         cm.code.insert(cm.code.begin(),
                        {Op::kJump, static_cast<int32_t>(cm.code.size()) + 2});
       }},
      {"call past the methods", [axpy](bc::BytecodeModule& m) {
         axpy(m).code[0] = {Op::kCall, static_cast<int32_t>(m.methods.size())};
       }},
      {"map past the methods", [](bc::BytecodeModule& m) {
         first_of(method_of(m, "Saxpy.run"), Op::kMap).a =
             static_cast<int32_t>(m.methods.size());
       }},
      {"map over 33 arguments", [](bc::BytecodeModule& m) {
         first_of(method_of(m, "Saxpy.run"), Op::kMap).b = 33;
       }},
      {"task id past the table", [axpy](bc::BytecodeModule& m) {
         axpy(m).code[0] = {Op::kMakeTask, 0, 0,
                            static_cast<int32_t>(m.task_ids.size())};
       }},
      {"unknown opcode", replace_first({static_cast<Op>(200)})},
      {"arith operator past kNeg", [axpy](bc::BytecodeModule& m) {
         first_of(axpy(m), Op::kArith).a = 11;
       }},
      {"unknown NumType", [axpy](bc::BytecodeModule& m) {
         first_of(axpy(m), Op::kArith).b = 9;
       }},
      {"compare operator past kGe", replace_first({Op::kCmp, 6, 0})},
      {"cast to an unknown NumType", replace_first({Op::kCast, 0, 6})},
      {"intrinsic past kFloor", replace_first({Op::kIntrinsic, 10, 2})},
      {"unknown element code", replace_first({Op::kNewArray, 7})},
      {"more parameters than slots", [axpy](bc::BytecodeModule& m) {
         axpy(m).num_params = axpy(m).num_slots + 1;
       }},
      {"2^20 slots", [axpy](bc::BytecodeModule& m) {
         axpy(m).num_slots = 1 << 20;
       }},
  };
}

/// saxpy's bytecode payload with one variant's lie applied.
std::vector<uint8_t> spoiled_saxpy_module(const SpoiledModule& bad) {
  auto cp = runtime::compile(saxpy_workload().lime_source);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  bc::BytecodeModule m = *cp->bytecode;
  bad.spoil(m);
  return encode_bytecode_module(m);
}

TEST(CodecTest, BytecodePayloadsThatLieAboutTheirOperandsAreRejected) {
  EXPECT_NO_THROW(decode_bytecode_module(
      spoiled_saxpy_module({"intact", [](bc::BytecodeModule&) {}})));
  for (const SpoiledModule& bad : spoiled_module_variants()) {
    EXPECT_THROW(decode_bytecode_module(spoiled_saxpy_module(bad)),
                 lm::RuntimeError)
        << bad.what;
  }
}

TEST(CodecTest, HostileBytecodePayloadIsAMissNotACrash) {
  // A compile service that serves saxpy's module with a lie in it: the
  // compiler must compile the module locally, as for any miss (DESIGN.md
  // §14), and the lie must not reach the local cache, where every later
  // run would load it again.
  const workloads::Workload& w = saxpy_workload();
  std::vector<Value> args = w.make_args(64, 7);
  const fs::path dir =
      fs::path(::testing::TempDir()) / "lm-cache-test-hostile-bytecode";
  CacheConfig cache;
  cache.mode = CacheMode::kReadWrite;
  cache.dir = dir.string();
  for (const SpoiledModule& bad : spoiled_module_variants()) {
    SCOPED_TRACE(bad.what);
    fs::remove_all(dir);
    std::vector<uint8_t> payload = spoiled_saxpy_module(bad);
    runtime::CompileOptions opts;
    opts.cache = cache;
    opts.remote_fetch = [&payload](uint64_t, const std::string& backend,
                                   const std::string&)
        -> std::optional<std::vector<uint8_t>> {
      if (backend != kBackendBytecode) return std::nullopt;
      return payload;
    };
    auto cp = runtime::compile(w.lime_source, opts);
    ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
    const auto& log = cp->backend_log;
    EXPECT_NE(std::find(log.begin(), log.end(), "cpu: bytecode module"),
              log.end());
    EXPECT_EQ(std::find(log.begin(), log.end(),
                        "cpu: bytecode module (cached)"),
              log.end());
    runtime::RuntimeConfig rc;
    rc.placement = runtime::Placement::kCpuOnly;
    {
      runtime::LiquidRuntime rt(*cp, rc);
      EXPECT_TRUE(workloads::results_match(rt.call(w.entry, args),
                                           w.reference(args), 0.0));
    }
    // The key's entry, if any, is the module compiled here, never the
    // served one.
    CacheConfig ro = cache;
    ro.mode = CacheMode::kReadOnly;
    ArtifactCache local(ro);
    std::optional<std::vector<uint8_t>> entry =
        local.load(cp->artifact_keys.at("bytecode:<program>"),
                   kBackendBytecode);
    if (entry) {
      EXPECT_NE(*entry, payload);
      EXPECT_EQ(*entry, encode_bytecode_module(*cp->bytecode));
    }
  }
  fs::remove_all(dir);
}

TEST(CodecTest, DupOnAnEmptyOperandStackThrows) {
  // The decoder checks operands, not operand-stack depth: a served module
  // whose Saxpy.axpy starts by duplicating the top of its empty stack
  // decodes, and the VM must refuse the instruction when it runs.
  const workloads::Workload& w = saxpy_workload();
  std::vector<uint8_t> payload = spoiled_saxpy_module(
      {"dup on an empty stack", [](bc::BytecodeModule& m) {
         method_of(m, "Saxpy.axpy").code[0] = {bc::Op::kDup};
       }});
  runtime::CompileOptions opts;
  opts.remote_fetch = [&payload](uint64_t, const std::string& backend,
                                 const std::string&)
      -> std::optional<std::vector<uint8_t>> {
    if (backend != kBackendBytecode) return std::nullopt;
    return payload;
  };
  auto cp = runtime::compile(w.lime_source, opts);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  const auto& log = cp->backend_log;
  EXPECT_NE(std::find(log.begin(), log.end(), "cpu: bytecode module (cached)"),
            log.end());
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kCpuOnly;
  runtime::LiquidRuntime rt(*cp, rc);
  EXPECT_ANY_THROW(rt.call(w.entry, w.make_args(64, 7)));
}

// -- warm-start differential ----------------------------------------------

int32_t run_drive(runtime::CompiledProgram& cp,
                  const std::vector<int32_t>& xs) {
  runtime::LiquidRuntime rt(cp);
  Value v = rt.call("P.drive", {Value::array(bc::make_i32_array(xs, true))});
  return v.as_i32();
}

TEST_F(CacheTest, WarmCompileServesEveryBackendWithIdenticalResults) {
  runtime::CompileOptions opts;
  opts.cache = config(CacheMode::kReadWrite);
  std::vector<int32_t> xs = {1, 2, 3, 4, 5, 6, 7, 8};

  auto cold = runtime::compile(kPipelineSource, opts);
  ASSERT_TRUE(cold->ok()) << cold->diags.to_string();
  ASSERT_NE(cold->cache, nullptr);
  EXPECT_GT(cold->cache->metrics().value("cache.stores"), 0u);
  EXPECT_FALSE(cold->artifact_keys.empty());
  int32_t cold_result = run_drive(*cold, xs);

  auto warm = runtime::compile(kPipelineSource, opts);
  ASSERT_TRUE(warm->ok()) << warm->diags.to_string();
  EXPECT_EQ(warm->cache->metrics().value("cache.misses"), 0u);
  EXPECT_GT(warm->cache->metrics().value("cache.hits"), 0u);
  EXPECT_EQ(warm->cache->metrics().value("cache.stores"), 0u);
  // Every backend line reports the cached artifact, none a fresh compile.
  for (const std::string& line : warm->backend_log) {
    if (line.rfind("cpu: ", 0) == 0 || line.rfind("gpu: ", 0) == 0 ||
        line.rfind("fpga: ", 0) == 0) {
      EXPECT_NE(line.find("(cached)"), std::string::npos) << line;
    }
  }
  // Identical artifact keys and identical observable behavior.
  EXPECT_EQ(warm->artifact_keys, cold->artifact_keys);
  EXPECT_EQ(run_drive(*warm, xs), cold_result);
}

TEST_F(CacheTest, CorruptWarmStartFallsBackToFreshCompile) {
  runtime::CompileOptions opts;
  opts.cache = config(CacheMode::kReadWrite);
  auto cold = runtime::compile(kPipelineSource, opts);
  ASSERT_TRUE(cold->ok());
  int32_t want = run_drive(*cold, {3, 1, 4, 1, 5});

  // Truncate every entry: the warm start must recompile everything and
  // still produce the same program.
  for (const auto& e : fs::directory_iterator(dir_ / "objects")) {
    fs::resize_file(e.path(), 12);
  }
  auto warm = runtime::compile(kPipelineSource, opts);
  ASSERT_TRUE(warm->ok()) << warm->diags.to_string();
  EXPECT_GT(warm->cache->metrics().value("cache.errors"), 0u);
  EXPECT_EQ(run_drive(*warm, {3, 1, 4, 1, 5}), want);
}

// -- compile service (lmdev as a remote artifact source) -------------------

TEST_F(CacheTest, CompileServiceServesArtifactsByContentKey) {
  // "lmdev": compile with a rw cache so artifact keys + payloads exist.
  runtime::CompileOptions sopts;
  sopts.cache = config(CacheMode::kReadWrite);
  auto served = runtime::compile(kPipelineSource, sopts);
  ASSERT_TRUE(served->ok());
  ASSERT_FALSE(served->artifact_keys.empty());

  net::DeviceServer server(*served);
  server.start();
  ASSERT_GT(server.compile_service_entries(), 0u);

  // "lmc --compile-from": cache off locally, every artifact fetched from
  // the peer instead of compiled.
  net::CompileServiceClient client("127.0.0.1", server.port());
  runtime::CompileOptions copts;
  copts.remote_fetch = [&client](uint64_t key, const std::string& backend,
                                 const std::string& task_id) {
    return client.fetch(key, backend, task_id);
  };
  auto fetched = runtime::compile(kPipelineSource, copts);
  ASSERT_TRUE(fetched->ok()) << fetched->diags.to_string();
  EXPECT_EQ(client.fetched(), fetched->artifact_keys.size());
  EXPECT_EQ(client.failed(), 0u);
  EXPECT_EQ(fetched->artifact_keys, served->artifact_keys);

  // Differential: remote-fetched program behaves exactly like a local one.
  auto local = runtime::compile(kPipelineSource);
  std::vector<int32_t> xs = {10, 20, 30, 40};
  EXPECT_EQ(run_drive(*fetched, xs), run_drive(*local, xs));
  server.stop();
}

TEST_F(CacheTest, CompileServiceUnavailableFallsBackToLocalCompile) {
  net::CompileServiceClient client("127.0.0.1", 1);  // nothing listens here
  runtime::CompileOptions copts;
  copts.remote_fetch = [&client](uint64_t key, const std::string& backend,
                                 const std::string& task_id) {
    return client.fetch(key, backend, task_id);
  };
  auto cp = runtime::compile(kPipelineSource, copts);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  EXPECT_EQ(client.fetched(), 0u);
  EXPECT_GT(client.failed(), 0u);
  EXPECT_EQ(run_drive(*cp, {1, 2, 3}), run_drive(*cp, {1, 2, 3}));
}

}  // namespace
}  // namespace lm::cache
