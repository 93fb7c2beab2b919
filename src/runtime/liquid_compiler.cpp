#include "runtime/liquid_compiler.h"

#include <cstdlib>
#include <unordered_set>

#include "analysis/analysis.h"
#include "analysis/ir_verify.h"
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

ArtifactManifest manifest_for(const lime::MethodDecl& m, DeviceKind device) {
  ArtifactManifest mf;
  mf.task_id = m.qualified_name();
  mf.device = device;
  for (const auto& p : m.params) mf.param_types.push_back(p.type);
  mf.return_type = m.return_type;
  mf.arity = static_cast<int>(m.params.size());
  return mf;
}

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
      bkey = cache::artifact_key(src, cache::kBackendBytecode, "");
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
  const bool verify_ir = std::getenv("LM_VERIFY_IR") != nullptr;

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
        manifest_for(*m, DeviceKind::kCpu), *cp->bytecode, idx));
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

  // 4. GPU backend (§3: autonomous, may decline per task).
  if (options.enable_gpu) {
    std::unordered_set<std::string> gpu_done;
    // Compile flags that change the emitted kernel participate in the key.
    const std::string gpu_flags = verify_ir ? "verify" : "";
    auto wire_native = [&](const std::string& id) {
      if (!options.use_native_kernels) return;
      if (const auto* fn = gpu::NativeKernelRegistry::global().find(id)) {
        cp->gpu_device->registry().add(id, *fn);
      }
    };
    // Key of one task's (or chain's) kernel, or nullopt when uncacheable.
    auto gpu_key = [&](const std::vector<std::string>& roots,
                      const std::string& task_id) -> std::optional<uint64_t> {
      if (!keyed) return std::nullopt;
      ByteWriter cb;
      if (!cache::canonical_chain_bytes(*cp->bytecode, roots, cb)) {
        return std::nullopt;
      }
      uint64_t key = cache::artifact_key(cb.bytes(), cache::kBackendGpu,
                                         gpu_flags);
      cp->artifact_keys["gpu:" + task_id] = key;
      return key;
    };
    // A cached or served kernel is outside input (DESIGN.md §14): building
    // its artifact lowers it, which checks every index the executor trusts,
    // and a payload that fails any check is a miss.
    auto fetch_gpu = [&](std::optional<uint64_t> key,
                         const ArtifactManifest& mf)
        -> std::unique_ptr<GpuKernelArtifact> {
      std::unique_ptr<GpuKernelArtifact> art;
      if (key) {
        try_fetch(*key, cache::kBackendGpu, mf.task_id,
                  [&](const std::vector<uint8_t>& p) {
                    art = std::make_unique<GpuKernelArtifact>(
                        mf, cache::decode_kernel_program(p), cp->gpu_device);
                  });
      }
      return art;
    };
    auto store_gpu = [&](std::optional<uint64_t> key,
                         const gpu::KernelProgram& prog) {
      if (key && ac && ac->writable()) {
        ac->store(*key, cache::kBackendGpu, cache::encode_kernel_program(prog));
      }
    };
    auto add_gpu_kernel = [&](const lime::MethodDecl* m) {
      if (!m) return;
      std::string id = m->qualified_name();
      if (!gpu_done.insert(id).second) return;
      if (cp->demoted_tasks.count(id)) {
        cp->backend_log.push_back("gpu: demoted " + id +
                                  " — effect verifier (LM110)");
        cp->suitability.push_back({"LM403", DeviceKind::kGpu, id, m->loc,
                                   "demoted by the effect verifier"});
        return;
      }
      std::optional<uint64_t> key = gpu_key({id}, id);
      ArtifactManifest mf = manifest_for(*m, DeviceKind::kGpu);
      std::unique_ptr<GpuKernelArtifact> art = fetch_gpu(key, mf);
      const bool from_cache = art != nullptr;
      if (!art) {
        auto r = gpu::compile_kernel(*m);
        if (!r.ok()) {
          cp->backend_log.push_back("gpu: excluded " + id + " — " +
                                    r.exclusion_reason);
          cp->suitability.push_back({"LM401", DeviceKind::kGpu, id,
                                     r.exclusion_loc, r.exclusion_reason});
          return;
        }
        if (verify_ir &&
            analysis::verify_kernel(*r.program, cp->diags) > 0) {
          cp->backend_log.push_back("gpu: dropped " + id +
                                    " — kernel IR verification failed");
          return;
        }
        store_gpu(key, *r.program);
        art = std::make_unique<GpuKernelArtifact>(
            std::move(mf), std::move(r.program), cp->gpu_device);
      }
      wire_native(id);
      cp->store.add(std::move(art));
      cp->backend_log.push_back(from_cache ? "gpu: compiled " + id + " (cached)"
                                           : "gpu: compiled " + id);
    };

    // Per-filter kernels and fused segment kernels for relocated regions.
    for (const auto& g : cp->graphs.graphs) {
      for (const auto& [first, last] : g.relocated_segments()) {
        std::vector<const lime::MethodDecl*> chain;
        std::vector<std::string> ids;
        for (int i = first; i <= last; ++i) {
          chain.push_back(g.nodes[static_cast<size_t>(i)].method);
          ids.push_back(g.nodes[static_cast<size_t>(i)].task_id);
          add_gpu_kernel(g.nodes[static_cast<size_t>(i)].method);
        }
        bool seg_demoted = false;
        for (const auto& id : ids) seg_demoted |= cp->demoted_tasks.count(id) > 0;
        if (chain.size() > 1 && !seg_demoted) {
          std::string seg_id = ArtifactStore::segment_id(ids);
          if (gpu_done.insert(seg_id).second) {
            std::vector<std::string> roots;
            for (const auto* cm : chain) roots.push_back(cm->qualified_name());
            std::optional<uint64_t> key = gpu_key(roots, seg_id);
            ArtifactManifest mf;
            mf.task_id = seg_id;
            mf.device = DeviceKind::kGpu;
            for (const auto& p : chain.front()->params) {
              mf.param_types.push_back(p.type);
            }
            mf.return_type = chain.back()->return_type;
            mf.arity = static_cast<int>(chain.front()->params.size());
            std::unique_ptr<GpuKernelArtifact> art = fetch_gpu(key, mf);
            const bool from_cache = art != nullptr;
            if (!art) {
              auto r = gpu::compile_segment_kernel(chain);
              if (r.ok() && verify_ir &&
                  analysis::verify_kernel(*r.program, cp->diags) > 0) {
                cp->backend_log.push_back("gpu: dropped segment " + seg_id +
                                          " — kernel IR verification failed");
                continue;
              }
              if (!r.ok()) {
                cp->backend_log.push_back("gpu: excluded segment " + seg_id +
                                          " — " + r.exclusion_reason);
                cp->suitability.push_back({"LM401", DeviceKind::kGpu, seg_id,
                                           r.exclusion_loc,
                                           r.exclusion_reason});
                continue;
              }
              store_gpu(key, *r.program);
              art = std::make_unique<GpuKernelArtifact>(
                  std::move(mf), std::move(r.program), cp->gpu_device);
            }
            wire_native(seg_id);
            cp->store.add(std::move(art));
            cp->backend_log.push_back(
                from_cache ? "gpu: compiled fused segment " + seg_id +
                                 " (cached)"
                           : "gpu: compiled fused segment " + seg_id);
          }
        }
      }
    }
    // Map/reduce kernels.
    for (const auto* m : map_methods) add_gpu_kernel(m);
  }

  // 5. FPGA backend: one module per relocated filter, plus a fused module
  //    per relocated segment (so "prefer larger" applies on this device
  //    too).
  if (options.enable_fpga) {
    std::unordered_set<std::string> fpga_done;
    fpga::FpgaSynthOptions synth_opts;
    synth_opts.pipelined = options.fpga_pipelined;
    // Synthesis options change the emitted module, so they key the entry.
    const std::string fpga_flags =
        std::string("pipelined=") + (synth_opts.pipelined ? "1" : "0") +
        ",max_unroll=" + std::to_string(synth_opts.max_unroll) +
        (verify_ir ? ",verify" : "");
    auto fpga_key = [&](const std::vector<std::string>& roots,
                        const std::string& task_id)
        -> std::optional<uint64_t> {
      if (!keyed) return std::nullopt;
      ByteWriter cb;
      if (!cache::canonical_chain_bytes(*cp->bytecode, roots, cb)) {
        return std::nullopt;
      }
      uint64_t key = cache::artifact_key(cb.bytes(), cache::kBackendFpga,
                                         fpga_flags);
      cp->artifact_keys["fpga:" + task_id] = key;
      return key;
    };
    auto fetch_fpga = [&](std::optional<uint64_t> key, const std::string& id)
        -> std::optional<fpga::FpgaCompileResult> {
      std::optional<fpga::FpgaCompileResult> res;
      if (key) {
        try_fetch(*key, cache::kBackendFpga, id,
                  [&](const std::vector<uint8_t>& p) {
                    res = cache::decode_fpga_result(p);
                  });
      }
      return res;
    };
    auto store_fpga = [&](std::optional<uint64_t> key,
                          const fpga::FpgaCompileResult& r) {
      if (key && ac && ac->writable()) {
        ac->store(*key, cache::kBackendFpga, cache::encode_fpga_result(r));
      }
    };
    for (const auto* m : cp->graphs.relocated_filter_methods()) {
      std::string id = m->qualified_name();
      if (!fpga_done.insert(id).second) continue;
      if (cp->demoted_tasks.count(id)) {
        cp->backend_log.push_back("fpga: demoted " + id +
                                  " — effect verifier (LM110)");
        cp->suitability.push_back({"LM403", DeviceKind::kFpga, id, m->loc,
                                   "demoted by the effect verifier"});
        continue;
      }
      std::optional<uint64_t> key = fpga_key({id}, id);
      std::optional<fpga::FpgaCompileResult> res = fetch_fpga(key, id);
      const bool from_cache = res.has_value();
      if (!res) {
        auto r = fpga::synthesize_filter(*m, synth_opts);
        if (!r.ok()) {
          cp->backend_log.push_back("fpga: excluded " + id + " — " +
                                    r.exclusion_reason);
          cp->suitability.push_back({"LM402", DeviceKind::kFpga, id,
                                     r.exclusion_loc, r.exclusion_reason});
          continue;
        }
        if (verify_ir && analysis::verify_module(*r.module, cp->diags) > 0) {
          cp->backend_log.push_back("fpga: dropped " + id +
                                    " — RTL verification failed");
          continue;
        }
        store_fpga(key, r);
        res = std::move(r);
      }
      cp->store.add(std::make_unique<FpgaModuleArtifact>(
          manifest_for(*m, DeviceKind::kFpga), std::move(*res)));
      cp->backend_log.push_back(from_cache
                                    ? "fpga: compiled " + id + " (cached)"
                                    : "fpga: compiled " + id);
    }
    for (const auto& g : cp->graphs.graphs) {
      for (const auto& [first, last] : g.relocated_segments()) {
        if (last - first + 1 < 2) continue;
        std::vector<const lime::MethodDecl*> chain;
        std::vector<std::string> ids;
        for (int i = first; i <= last; ++i) {
          chain.push_back(g.nodes[static_cast<size_t>(i)].method);
          ids.push_back(g.nodes[static_cast<size_t>(i)].task_id);
        }
        std::string seg_id = ArtifactStore::segment_id(ids);
        if (!fpga_done.insert(seg_id).second) continue;
        bool seg_demoted = false;
        for (const auto& id : ids) {
          seg_demoted |= cp->demoted_tasks.count(id) > 0;
        }
        if (seg_demoted) continue;
        std::vector<std::string> roots;
        for (const auto* cm : chain) roots.push_back(cm->qualified_name());
        std::optional<uint64_t> key = fpga_key(roots, seg_id);
        std::optional<fpga::FpgaCompileResult> res = fetch_fpga(key, seg_id);
        const bool from_cache = res.has_value();
        if (!res) {
          auto r = fpga::synthesize_segment(chain, synth_opts);
          if (!r.ok()) {
            cp->backend_log.push_back("fpga: excluded segment " + seg_id +
                                      " — " + r.exclusion_reason);
            cp->suitability.push_back({"LM402", DeviceKind::kFpga, seg_id,
                                       r.exclusion_loc, r.exclusion_reason});
            continue;
          }
          if (verify_ir && analysis::verify_module(*r.module, cp->diags) > 0) {
            cp->backend_log.push_back("fpga: dropped segment " + seg_id +
                                      " — RTL verification failed");
            continue;
          }
          store_fpga(key, r);
          res = std::move(r);
        }
        ArtifactManifest mf;
        mf.task_id = seg_id;
        mf.device = DeviceKind::kFpga;
        for (const auto& p : chain.front()->params) {
          mf.param_types.push_back(p.type);
        }
        mf.return_type = chain.back()->return_type;
        mf.arity = static_cast<int>(chain.front()->params.size());
        cp->store.add(std::make_unique<FpgaModuleArtifact>(std::move(mf),
                                                           std::move(*res)));
        cp->backend_log.push_back(
            from_cache ? "fpga: compiled fused segment " + seg_id + " (cached)"
                       : "fpga: compiled fused segment " + seg_id);
      }
    }
  }

  return cp;
}

}  // namespace lm::runtime
