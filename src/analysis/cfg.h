// Control-flow graphs over the Lime AST — the substrate of the interval
// interpreter (src/analysis/intervals.h).
//
// One Cfg per method body. Basic blocks hold *evaluation items* in
// execution order: a variable declaration event or a bare expression
// evaluation (statement expressions, conditions, return values, loop
// updates). Control flow — if/while/for/break/continue/return — is encoded
// purely in the block edges, so analyses only need an expression-level
// transfer function.
#pragma once

#include <vector>

#include "lime/ast.h"

namespace lm::analysis {

/// One evaluation step inside a basic block.
struct CfgItem {
  /// Non-null when this item declares a local (slot becomes live; `expr`
  /// is its initializer, possibly null).
  const lime::VarDeclStmt* decl = nullptr;
  /// The expression evaluated at this step (may be null for a bare
  /// declaration without an initializer).
  const lime::Expr* expr = nullptr;
};

struct CfgBlock {
  std::vector<CfgItem> items;
  std::vector<int> succs;
  std::vector<int> preds;
};

/// Control-flow graph of one method body. Block kEntry is the unique
/// entry, kExit the unique exit (all returns and the implicit fall-off
/// edge flow there). Blocks with no predecessors other than the entry are
/// unreachable (e.g. code after `return`); forward solvers skip them.
struct Cfg {
  static constexpr int kEntry = 0;
  static constexpr int kExit = 1;

  const lime::MethodDecl* method = nullptr;
  std::vector<CfgBlock> blocks;

  /// Loop statement (WhileStmt/ForStmt) → its head block, i.e. the block
  /// that evaluates the loop condition and whose succs[0]/succs[1] are the
  /// body/exit edges. Lets range analyses attach trip-count facts back to
  /// the AST loop they were derived from. AST pre-order.
  std::vector<std::pair<const lime::Stmt*, int>> loop_heads;
};

/// Builds the CFG of `m` (which must have a body).
Cfg build_cfg(const lime::MethodDecl& m);

/// Reverse post-order over forward edges starting at the entry — the
/// iteration order under which a forward solver converges fastest.
/// Unreachable blocks are absent.
std::vector<int> reverse_post_order(const Cfg& cfg);

}  // namespace lm::analysis
