#include "analysis/analysis.h"

#include "analysis/effects.h"
#include "analysis/intervals.h"
#include "analysis/passes.h"

namespace lm::analysis {

AnalysisResult analyze_program(const lime::Program& program,
                               const ir::ProgramTaskGraphs& graphs,
                               const AnalysisOptions& opts) {
  AnalysisResult res;

  // One interval solve per method body: it reports LM101–LM103, and the
  // static cost model below reads its loop trip counts.
  MethodRanges ranges;
  for (const auto& cls : program.classes) {
    if (cls->name == "bit") continue;  // predefined, not user code
    for (const auto& m : cls->methods) {
      if (m->body) ranges.emplace(m.get(), analyze_ranges(*m, &res.diags));
    }
  }

  EffectMap effects = compute_effects(program);
  // All fields some method (transitively) mutates — the "written
  // elsewhere" side of LM111.
  std::unordered_set<const lime::FieldDecl*> written_anywhere;
  for (const auto& [m, s] : effects) {
    (void)m;
    for (const auto* f : s.writes) written_anywhere.insert(f);
  }

  for (const auto& cls : program.classes) {
    if (cls->name == "bit") continue;
    for (const auto& m : cls->methods) {
      if (!m->body || !m->is_pure) continue;
      auto it = effects.find(m.get());
      if (it == effects.end()) continue;
      const EffectSummary& s = it->second;

      // Sema's purity bit is signature-derived ("local"/"value"
      // guarantees); these checks prove or refute it transitively. A
      // refuted guarantee means a relocated artifact could diverge from
      // the bytecode, so the task must stay on the CPU.
      if (s.mutates_shared_state()) {
        std::string detail;
        if (!s.writes.empty()) {
          detail = "mutates field '" + (*s.writes.begin())->name + "'";
          if (s.writes.size() > 1) {
            detail += " (and " + std::to_string(s.writes.size() - 1) +
                      " more)";
          }
        } else if (s.writes_caller_array) {
          detail = "stores into a caller-supplied array";
        } else {
          detail = "calls a method whose effects are unknown";
        }
        res.diags.report(
            Severity::kWarning, "LM110", m->loc,
            "method '" + m->qualified_name() +
                "' is declared isolation-safe but transitively " + detail +
                "; demoted to bytecode-only placement");
        res.demoted.insert(m->qualified_name());
        continue;
      }

      for (const auto* f : s.reads) {
        if (written_anywhere.count(f)) {
          res.diags.report(
              Severity::kWarning, "LM111", m->loc,
              "method '" + m->qualified_name() + "' reads field '" +
                  f->name +
                  "' which other code mutates; a relocated artifact "
                  "would see a stale copy — demoted to bytecode-only "
                  "placement");
          res.demoted.insert(m->qualified_name());
          break;
        }
      }
    }
  }

  check_graph_hazards(program, graphs, effects, res.diags);

  // Deadlock proofs come after hazards so rate/arity sanity (LM204) has
  // already fired; the verifier skips graphs with non-positive rates.
  res.capacity_reports = check_deadlock(graphs, opts.fifo_capacity, res.diags);
  res.static_costs = estimate_static_costs(graphs, res.demoted, ranges);
  return res;
}

}  // namespace lm::analysis
