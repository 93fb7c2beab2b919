// Internal pass entry points shared between analysis.cpp and the
// per-analysis translation units. Not part of the public surface.
#pragma once

#include "analysis/effects.h"
#include "ir/task_graph.h"
#include "lime/ast.h"
#include "util/diagnostics.h"

namespace lm::analysis {

/// LM201–LM205: task-graph hazard detection over the whole program.
void check_graph_hazards(const lime::Program& program,
                         const ir::ProgramTaskGraphs& graphs,
                         const EffectMap& effects, DiagnosticEngine& diags);

/// Static element count of a source receiver, or -1 when unknown. A bit
/// literal carries its width; a local whose initializer is a bit literal or
/// constant-length allocation resolves through the enclosing method body.
/// Shared by the graph-hazard (LM204) and deadlock (LM213) passes.
int64_t static_source_length(const lime::Expr& recv,
                             const lime::MethodDecl* enclosing);

}  // namespace lm::analysis
