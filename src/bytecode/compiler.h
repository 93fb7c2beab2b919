// AST → bytecode compiler (the CPU backend of Fig. 2).
//
// Always compiles the entire program, guaranteeing every task has at least
// one artifact (§1). Methods that use features with no runtime
// representation in this subset (e.g. instance fields of non-enum classes,
// which cannot be constructed) are compiled to a trap that raises if ever
// invoked; this keeps the backend total without silently wrong code.
#pragma once

#include <memory>
#include <optional>

#include "bytecode/module.h"
#include "lime/ast.h"
#include "util/diagnostics.h"

namespace lm::bc {

/// Compiles a sema-checked program. Reports internal lowering restrictions
/// through `diags` as warnings; never fails on sema-clean input.
std::unique_ptr<BytecodeModule> compile_program(const lime::Program& program,
                                                DiagnosticEngine& diags);

/// NumType for a Lime scalar type (enums lower to their int ordinal).
NumType num_type_for(const lime::TypeRef& t);

/// The bytecode and kernel-IR operator for a Lime binary operator or Math
/// builtin (both compilers emit the same selectors).
ArithOp arith_for(lime::BinOp op);
CmpOp cmp_for(lime::BinOp op);
Intrinsic intrinsic_for(lime::CallExpr::Builtin b);

/// Compile-time constant evaluation over the checked AST: the constant
/// expressions of JLS §15.29 (literals, enum constants, static-final field
/// references, casts, unary, binary and conditional operators), computed
/// with the VM's operators. Shared by all backends (the device compilers
/// fold the same constants the bytecode backend does).
std::optional<Value> eval_const_expr(const lime::Expr& e);

}  // namespace lm::bc
