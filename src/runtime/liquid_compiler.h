// The Liquid Metal compiler driver — the full Fig. 2 toolchain.
//
// "Liquid Metal accepts a set of source files and produces artifacts for
// execution. ... The compiler frontend performs shallow optimizations and
// generates [bytecode] for executing the entire program. ... The backend
// consists of architecture-specific device compilers; currently, a GPU
// compiler and an FPGA compiler. ... Most backend compilers are under no
// obligation to compile everything. However, the CPU compiler always
// compiles the entire program."
//
// compile() runs: frontend → bytecode (whole program) → static task-graph
// discovery → kernel IR, once per relocated filter and fused segment →
// GPU backend (that IR, plus map/reduce kernels) → FPGA backend (modules
// synthesized from that IR) → artifact store population with manifests.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/cost_estimate.h"
#include "analysis/deadlock.h"
#include "bytecode/module.h"
#include "cache/artifact_cache.h"
#include "gpu/device.h"
#include "ir/task_graph.h"
#include "lime/ast.h"
#include "runtime/store.h"
#include "util/diagnostics.h"

namespace lm::runtime {

struct CompileOptions {
  bool enable_gpu = true;
  bool enable_fpga = true;
  /// Wire pre-compiled native kernels (the "vendor toolflow output") from
  /// the global registry into the GPU device for matching task ids.
  bool use_native_kernels = true;
  /// FIFO capacity the deadlock verifier (LM210–LM214) proves against;
  /// <= 0 → the runtime default. Should match RuntimeConfig::fifo_capacity
  /// when the caller overrides that.
  int64_t fifo_capacity = 0;
  /// Persistent artifact cache (off by default). In rw mode the compiler
  /// serves backend artifacts from the cache and stores fresh compiles;
  /// ro serves hits without ever writing.
  cache::CacheConfig cache;
  /// Remote compile-service hook, consulted after a local cache miss.
  /// net::fetch_artifact wires this to an lmdev endpoint — the runtime
  /// itself never depends on net. Returns the serialized payload for
  /// (key, backend), or std::nullopt to fall back to a local compile.
  std::function<std::optional<std::vector<uint8_t>>(
      uint64_t key, const std::string& backend, const std::string& task_id)>
      remote_fetch;
};

/// One structured record per backend suitability decision, for `lmc
/// --analyze` reporting (LM401 = GPU exclusion, LM402 = FPGA exclusion,
/// LM403 = effect-verifier demotion).
struct SuitabilityFinding {
  std::string code;     // LM401 / LM402 / LM403
  DeviceKind device = DeviceKind::kCpu;
  std::string task_id;
  SourceLoc loc;        // offending construct, or the method declaration
  std::string reason;
};

struct CompiledProgram {
  std::unique_ptr<lime::Program> ast;
  std::unique_ptr<bc::BytecodeModule> bytecode;
  ir::ProgramTaskGraphs graphs;
  ArtifactStore store;
  std::shared_ptr<gpu::GpuDevice> gpu_device;
  DiagnosticEngine diags;
  /// One line per backend decision: artifacts produced and exclusions with
  /// their reasons (§3's compile-time reporting).
  std::vector<std::string> backend_log;
  /// Structured per-device suitability decisions (LM4xx notes).
  std::vector<SuitabilityFinding> suitability;
  /// Tasks the effect verifier proved unsafe to relocate: no GPU/FPGA
  /// artifacts are built for them, so placement naturally falls back to
  /// bytecode (§4.2's substitution finds only the CPU artifact).
  std::unordered_set<std::string> demoted_tasks;
  /// Per-graph FIFO deadlock verdicts and minimal safe capacities
  /// (LM212's structured form, surfaced by `lmc --analyze=json`).
  std::vector<analysis::GraphCapacityReport> capacity_reports;
  /// Static per-(task, device) cost estimates; the runtime seeds its
  /// CostModelRegistry with these so cold-start placement can rank
  /// candidates before the first calibration batch.
  analysis::StaticCostModel static_costs;
  /// Content key of every cacheable artifact ("backend:task_id" → key),
  /// populated whenever caching or a remote fetcher is active. The device
  /// server exports these so compile-service clients address artifacts by
  /// key without shipping IR.
  std::map<std::string, uint64_t> artifact_keys;
  /// The cache consulted during this compile (null when off) — tools read
  /// hit/miss metrics and register telemetry collectors from it.
  std::shared_ptr<cache::ArtifactCache> cache;

  bool ok() const { return ast != nullptr && !diags.has_errors(); }
};

std::unique_ptr<CompiledProgram> compile(const std::string& source,
                                         const CompileOptions& options = {});

}  // namespace lm::runtime
