#include "runtime/liquid_compiler.h"

#include <unordered_map>
#include <unordered_set>

#include "analysis/analysis.h"
#include "bytecode/compiler.h"
#include "cache/serialize.h"
#include "fpga/synth.h"
#include "gpu/kernel_compiler.h"
#include "lime/frontend.h"
#include "util/byte_buffer.h"
#include "util/error.h"

namespace lm::runtime {

namespace {

using lime::as;
using lime::ExprKind;
using lime::StmtKind;

/// Collects every method used by a map or reduce operator anywhere in the
/// program — the GPU backend accelerates these wholesale (§2.2).
class MapMethodCollector {
 public:
  std::vector<const lime::MethodDecl*> collect(const lime::Program& p) {
    for (const auto& cls : p.classes) {
      for (const auto& m : cls->methods) {
        if (m->body) walk_stmt(*m->body);
      }
    }
    return out_;
  }

 private:
  void add(const lime::MethodDecl* m) {
    if (m && seen_.insert(m).second) out_.push_back(m);
  }

  void walk_stmt(const lime::Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& c : as<lime::BlockStmt>(s).stmts) {
          if (c) walk_stmt(*c);
        }
        return;
      case StmtKind::kExpr:
        if (as<lime::ExprStmt>(s).expr) walk_expr(*as<lime::ExprStmt>(s).expr);
        return;
      case StmtKind::kVarDecl:
        if (as<lime::VarDeclStmt>(s).init) {
          walk_expr(*as<lime::VarDeclStmt>(s).init);
        }
        return;
      case StmtKind::kIf: {
        const auto& i = as<lime::IfStmt>(s);
        walk_expr(*i.cond);
        walk_stmt(*i.then_stmt);
        if (i.else_stmt) walk_stmt(*i.else_stmt);
        return;
      }
      case StmtKind::kWhile: {
        const auto& w = as<lime::WhileStmt>(s);
        walk_expr(*w.cond);
        walk_stmt(*w.body);
        return;
      }
      case StmtKind::kFor: {
        const auto& f = as<lime::ForStmt>(s);
        if (f.init) walk_stmt(*f.init);
        if (f.cond) walk_expr(*f.cond);
        if (f.update) walk_expr(*f.update);
        walk_stmt(*f.body);
        return;
      }
      case StmtKind::kReturn:
        if (as<lime::ReturnStmt>(s).value) {
          walk_expr(*as<lime::ReturnStmt>(s).value);
        }
        return;
      default:
        return;
    }
  }

  void walk_expr(const lime::Expr& e) {
    switch (e.kind) {
      case ExprKind::kMap: {
        const auto& m = as<lime::MapExpr>(e);
        add(m.resolved);
        for (const auto& a : m.args) walk_expr(*a);
        return;
      }
      case ExprKind::kReduce: {
        const auto& r = as<lime::ReduceExpr>(e);
        add(r.resolved);
        for (const auto& a : r.args) walk_expr(*a);
        return;
      }
      case ExprKind::kUnary:
        walk_expr(*as<lime::UnaryExpr>(e).operand);
        return;
      case ExprKind::kBinary:
        walk_expr(*as<lime::BinaryExpr>(e).lhs);
        walk_expr(*as<lime::BinaryExpr>(e).rhs);
        return;
      case ExprKind::kAssign:
        walk_expr(*as<lime::AssignExpr>(e).target);
        walk_expr(*as<lime::AssignExpr>(e).value);
        return;
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        walk_expr(*t.cond);
        walk_expr(*t.then_expr);
        walk_expr(*t.else_expr);
        return;
      }
      case ExprKind::kCall: {
        const auto& c = as<lime::CallExpr>(e);
        if (c.receiver) walk_expr(*c.receiver);
        for (const auto& a : c.args) walk_expr(*a);
        return;
      }
      case ExprKind::kIndex:
        walk_expr(*as<lime::IndexExpr>(e).array);
        walk_expr(*as<lime::IndexExpr>(e).index);
        return;
      case ExprKind::kField:
        walk_expr(*as<lime::FieldExpr>(e).object);
        return;
      case ExprKind::kCast:
        walk_expr(*as<lime::CastExpr>(e).operand);
        return;
      case ExprKind::kNewArray: {
        const auto& n = as<lime::NewArrayExpr>(e);
        if (n.length) walk_expr(*n.length);
        if (n.from_array) walk_expr(*n.from_array);
        return;
      }
      case ExprKind::kRelocate:
        walk_expr(*as<lime::RelocateExpr>(e).inner);
        return;
      case ExprKind::kConnect:
        walk_expr(*as<lime::ConnectExpr>(e).lhs);
        walk_expr(*as<lime::ConnectExpr>(e).rhs);
        return;
      default:
        return;
    }
  }

  std::vector<const lime::MethodDecl*> out_;
  std::unordered_set<const lime::MethodDecl*> seen_;
};

/// One relocated filter, fused relocated segment, or map/reduce method:
/// the unit each device backend compiles.
struct Region {
  std::string id;  // the task id, or the segment id of a fused chain
  std::vector<const lime::MethodDecl*> chain;
  std::vector<std::string> members;  // the chain's task ids
};

ArtifactManifest manifest_for(const Region& r, DeviceKind device) {
  ArtifactManifest mf;
  mf.task_id = r.id;
  mf.device = device;
  for (const auto& p : r.chain.front()->params) {
    mf.param_types.push_back(p.type);
  }
  mf.return_type = r.chain.back()->return_type;
  mf.arity = static_cast<int>(r.chain.front()->params.size());
  return mf;
}

/// One backend's outcome on one region.
struct Built {
  std::unique_ptr<Artifact> artifact;  // null when the backend declined
  bool cached = false;
  std::string reason;  // why there is no artifact
  SourceLoc loc;
  /// The GPU's: the kernel IR its artifact validated, which FPGA synthesis
  /// reads after the artifact moved to the store. Null: no IR.
  const gpu::KernelProgram* program = nullptr;
};

}  // namespace

std::unique_ptr<CompiledProgram> compile(const std::string& source,
                                         const CompileOptions& options) {
  auto cp = std::make_unique<CompiledProgram>();

  // 1. Frontend (lex, parse, sema).
  lime::FrontendResult fr = lime::compile_source(source);
  cp->diags = fr.diags;
  cp->ast = std::move(fr.program);
  if (cp->diags.has_errors()) return cp;

  // Artifact cache + compile service. Lookup order on every cacheable
  // artifact: local cache → remote fetcher → compile fresh (then store in
  // rw mode). `decode` builds the artifact from a payload and throws on a
  // bad one; a payload that fails is treated exactly like a miss — the
  // cache can slow a compile down, never wrong it. A served payload reaches
  // a writable local cache only after it decoded (so the next run skips the
  // network too), never before: a hostile one must not outlive this run.
  std::shared_ptr<cache::ArtifactCache> ac;
  if (options.cache.mode != cache::CacheMode::kOff) {
    ac = std::make_shared<cache::ArtifactCache>(options.cache);
    cp->cache = ac;
  }
  const bool keyed = ac != nullptr || options.remote_fetch != nullptr;
  auto try_fetch =
      [&](uint64_t key, const std::string& backend, const std::string& task_id,
          const std::function<void(const std::vector<uint8_t>&)>& decode) {
        auto decodes = [&](const std::optional<std::vector<uint8_t>>& p) {
          if (!p) return false;
          try {
            decode(*p);
            return true;
          } catch (const std::exception&) {
            return false;
          }
        };
        if (ac && decodes(ac->load(key, backend))) return true;
        if (!options.remote_fetch) return false;
        std::optional<std::vector<uint8_t>> p =
            options.remote_fetch(key, backend, task_id);
        if (!decodes(p)) return false;
        if (ac && ac->writable()) ac->store(key, backend, *p);
        return true;
      };

  // 2. CPU backend: the whole program, unconditionally (§1, §3). The
  // module is keyed by the source text itself (the frontend is the
  // canonicalizer for everything downstream).
  bool bytecode_cached = false;
  {
    uint64_t bkey = 0;
    if (keyed) {
      std::span<const uint8_t> src(
          reinterpret_cast<const uint8_t*>(source.data()), source.size());
      bkey = cache::artifact_key(src, cache::kBackendBytecode);
      cp->artifact_keys["bytecode:<program>"] = bkey;
      bytecode_cached = try_fetch(
          bkey, cache::kBackendBytecode, "<program>",
          [&](const std::vector<uint8_t>& p) {
            cp->bytecode = cache::decode_bytecode_module(p);
          });
    }
    cp->backend_log.push_back(bytecode_cached
                                  ? "cpu: bytecode module (cached)"
                                  : "cpu: bytecode module");
    if (!cp->bytecode) {
      size_t diags_before = cp->diags.diagnostics().size();
      cp->bytecode = bc::compile_program(*cp->ast, cp->diags);
      // Only a diagnostic-free compile is cached: a warm start serves the
      // module without replaying compile-time notes, so a compile that
      // produced any must not short-circuit.
      if (ac && ac->writable() &&
          cp->diags.diagnostics().size() == diags_before) {
        ac->store(bkey, cache::kBackendBytecode,
                  cache::encode_bytecode_module(*cp->bytecode));
      }
    }
  }

  // 3. Static task-graph discovery (§3).
  cp->graphs = ir::extract_task_graphs(*cp->ast, cp->diags);
  if (cp->diags.has_errors()) return cp;

  // 3b. Whole-program static analysis: definite assignment, the
  // interprocedural effect/isolation verifier, and task-graph hazards.
  // Effect-verifier violations demote tasks to bytecode-only placement.
  {
    analysis::AnalysisOptions aopts;
    aopts.fifo_capacity = options.fifo_capacity;
    analysis::AnalysisResult ar =
        analysis::analyze_program(*cp->ast, cp->graphs, aopts);
    cp->diags.merge(ar.diags);
    cp->demoted_tasks = std::move(ar.demoted);
    cp->capacity_reports = std::move(ar.capacity_reports);
    cp->static_costs = std::move(ar.static_costs);
    if (cp->diags.has_errors()) return cp;
  }

  cp->gpu_device = std::make_shared<gpu::GpuDevice>();

  // Bytecode artifacts for every filter method appearing in any graph (the
  // guaranteed universal implementation) and every map/reduce method.
  std::unordered_set<std::string> bytecode_done;
  auto add_bytecode_artifact = [&](const lime::MethodDecl* m) {
    if (!m) return;
    std::string id = m->qualified_name();
    if (!bytecode_done.insert(id).second) return;
    int idx = cp->bytecode->index_of(id);
    LM_CHECK_MSG(idx >= 0, "no bytecode for " << id);
    cp->store.add(std::make_unique<BytecodeArtifact>(
        manifest_for({id, {m}, {id}}, DeviceKind::kCpu), *cp->bytecode, idx));
    // Per-task CPU artifacts wrap the module; when the module itself came
    // from cache, no compilation happened here either.
    cp->backend_log.push_back("cpu: compiled " + id +
                              (bytecode_cached ? " (cached)" : ""));
  };

  for (const auto& g : cp->graphs.graphs) {
    for (const auto& n : g.nodes) {
      if (n.kind == ir::TaskNodeInfo::Kind::kFilter) {
        add_bytecode_artifact(n.method);
      }
    }
  }
  MapMethodCollector collector;
  auto map_methods = collector.collect(*cp->ast);
  for (const auto* m : map_methods) add_bytecode_artifact(m);

  // 4. Device backends (§3: each autonomous, each may decline per task).
  //    A region is one relocated filter or one fused relocated segment (so
  //    "prefer larger" applies on every device); map/reduce methods are
  //    GPU-only regions. Each region is lowered to kernel IR once: the GPU
  //    runs that IR, and the FPGA synthesizes its module from it.
  std::vector<Region> regions;
  std::unordered_set<std::string> region_ids;
  auto add_region = [&](std::vector<const lime::MethodDecl*> chain) {
    Region r;
    for (const auto* m : chain) r.members.push_back(m->qualified_name());
    r.id = chain.size() == 1 ? r.members[0]
                             : ArtifactStore::segment_id(r.members);
    r.chain = std::move(chain);
    if (region_ids.insert(r.id).second) regions.push_back(std::move(r));
  };
  for (const auto* m : cp->graphs.relocated_filter_methods()) add_region({m});
  for (const auto& g : cp->graphs.graphs) {
    for (const auto& [first, last] : g.relocated_segments()) {
      std::vector<const lime::MethodDecl*> chain;
      bool demoted = false;
      for (int i = first; i <= last; ++i) {
        const ir::TaskNodeInfo& n = g.nodes[static_cast<size_t>(i)];
        chain.push_back(n.method);
        demoted |= cp->demoted_tasks.count(n.task_id) > 0;
      }
      if (chain.size() > 1 && !demoted) add_region(std::move(chain));
    }
  }
  const size_t relocated_regions = regions.size();
  for (const auto* m : map_methods) add_region({m});

  // Key of one region's artifact for `backend`, or nullopt when uncacheable.
  auto region_key = [&](const Region& r, const char* backend,
                        bool exported) -> std::optional<uint64_t> {
    if (!keyed) return std::nullopt;
    ByteWriter cb;
    if (!cache::canonical_chain_bytes(*cp->bytecode, r.members, cb)) {
      return std::nullopt;
    }
    uint64_t key = cache::artifact_key(cb.bytes(), backend);
    if (exported) cp->artifact_keys[std::string(backend) + ":" + r.id] = key;
    return key;
  };

  // One kernel IR per region, shared by both backends: served by the cache
  // or the compile service when either has it, compiled otherwise. A served
  // program is outside input (DESIGN.md §14): building its GPU artifact
  // lowers it, which runs gpu::validate, the check synthesis relies on too,
  // and a payload that fails it is a miss for both backends. With
  // the GPU disabled the artifact is built all the same, never published,
  // and the IR's cache entry is still read and written: it is the FPGA's
  // input too.
  std::unordered_map<std::string, Built> irs;
  auto lower = [&](const Region& r) -> Built& {
    auto [it, fresh] = irs.try_emplace(r.id);
    Built& ir = it->second;
    if (!fresh) return ir;
    ArtifactManifest mf = manifest_for(r, DeviceKind::kGpu);
    std::optional<uint64_t> key =
        region_key(r, cache::kBackendGpu, options.enable_gpu);
    std::unique_ptr<GpuKernelArtifact> artifact;
    if (key) {
      try_fetch(*key, cache::kBackendGpu, r.id,
                [&](const std::vector<uint8_t>& p) {
                  artifact = std::make_unique<GpuKernelArtifact>(
                      mf, cache::decode_kernel_program(p), cp->gpu_device);
                });
    }
    ir.cached = artifact != nullptr;
    if (!artifact) {
      auto kr = gpu::compile_segment_kernel(r.chain);
      if (!kr.ok()) {
        ir.reason = kr.exclusion_reason;
        ir.loc = kr.exclusion_loc;
        return ir;
      }
      if (key && ac && ac->writable()) {
        ac->store(*key, cache::kBackendGpu,
                  cache::encode_kernel_program(*kr.program));
      }
      artifact = std::make_unique<GpuKernelArtifact>(
          std::move(mf), std::move(kr.program), cp->gpu_device);
    }
    ir.program = &artifact->program();
    ir.artifact = std::move(artifact);
    return ir;
  };

  auto build_gpu = [&](const Region& r) -> Built& {
    Built& ir = lower(r);
    if (ir.artifact && options.use_native_kernels) {
      if (const auto* fn = gpu::NativeKernelRegistry::global().find(r.id)) {
        cp->gpu_device->registry().add(r.id, *fn);
      }
    }
    return ir;
  };

  // FPGA cache entries hold netlists, so a hit needs no kernel IR.
  auto build_fpga = [&](const Region& r) {
    Built b;
    std::optional<uint64_t> key = region_key(r, cache::kBackendFpga, true);
    std::optional<fpga::FpgaCompileResult> res;
    if (key) {
      try_fetch(*key, cache::kBackendFpga, r.id,
                [&](const std::vector<uint8_t>& p) {
                  res = cache::decode_fpga_result(p);
                });
    }
    b.cached = res.has_value();
    if (!res) {
      const Built& ir = lower(r);
      if (!ir.program) {
        return Built{nullptr, false, ir.reason, ir.loc};
      }
      fpga::FpgaCompileResult synth = fpga::synthesize(*ir.program);
      if (!synth.ok()) {
        b.reason = synth.exclusion_reason;
        b.loc = r.chain.front()->loc;
        return b;
      }
      if (key && ac && ac->writable()) {
        ac->store(*key, cache::kBackendFpga, cache::encode_fpga_result(synth));
      }
      res = std::move(synth);
    }
    b.artifact = std::make_unique<FpgaModuleArtifact>(
        manifest_for(r, DeviceKind::kFpga), std::move(*res));
    return b;
  };

  // Runs one backend on one region, then logs the artifact or the reason
  // it declined (LM401/LM402), and stores the artifact.
  auto publish = [&](const Region& r, DeviceKind device, auto&& build) {
    const bool gpu = device == DeviceKind::kGpu;
    const std::string tag = gpu ? "gpu: " : "fpga: ";
    const bool segment = r.chain.size() > 1;
    if (!segment && cp->demoted_tasks.count(r.id)) {
      cp->backend_log.push_back(tag + "demoted " + r.id +
                                " — effect verifier (LM110)");
      cp->suitability.push_back({"LM403", device, r.id, r.chain[0]->loc,
                                 "demoted by the effect verifier"});
      return;
    }
    // The GPU's outcome stays in `irs` for FPGA synthesis: only its
    // artifact moves to the store.
    auto&& b = build(r);
    const std::string what = (segment ? "segment " : "") + r.id;
    if (!b.artifact) {
      cp->backend_log.push_back(tag + "excluded " + what + " — " + b.reason);
      cp->suitability.push_back(
          {gpu ? "LM401" : "LM402", device, r.id, b.loc, b.reason});
      return;
    }
    cp->store.add(std::move(b.artifact));
    cp->backend_log.push_back(tag + "compiled " + (segment ? "fused " : "") +
                              what + (b.cached ? " (cached)" : ""));
  };

  if (options.enable_gpu) {
    for (const Region& r : regions) publish(r, DeviceKind::kGpu, build_gpu);
  }
  if (options.enable_fpga) {
    for (size_t i = 0; i < relocated_regions; ++i) {
      publish(regions[i], DeviceKind::kFpga, build_fpga);
    }
  }

  return cp;
}

}  // namespace lm::runtime
