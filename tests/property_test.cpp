// Property-based tests: randomized differential checks of the system's
// core invariants.
//
//   * Random integer expression programs evaluate identically on the
//     bytecode VM, the GPU kernel IR, the constant folder, the RTL module
//     synthesized from that IR (when synthesis accepts it), and a C++
//     oracle with Java wrapping semantics (the "all artifacts are semantically
//     equivalent" invariant of §3, tested over a large random program
//     space).
//   * Random typed kernels (int, long, float and double operands, loops,
//     casts, comparisons and Math intrinsics) give bit-identical results
//     on the VM and the lowered GPU kernel.
//   * The RTL constant fold agrees with Java's operators (bytecode/ops.h)
//     on random int and long operands, and float Math.min/max follow Java.
//   * Every LM102/LM103 the interval engine reports on random
//     straight-line int and long code over extreme literals names the
//     out-of-range value the VM computes.
//   * The wire format round-trips arbitrary arrays of every element type.
//   * Random RTL expression DAGs over every operator, and random modules
//     with registers stepped over many cycles, simulate exactly as the
//     tree-walking reference h_eval evaluates them.
//   * Random task pipelines on the deterministic executor uphold the
//     ready-queue invariants: exactly-once in-order delivery, no step after
//     kDone, no lost wake-ups (drive() would report deadlock), and every
//     enqueued step drains even when a queue is closed mid-run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>

#include "analysis/analysis.h"
#include "bytecode/compiler.h"
#include "bytecode/interp.h"
#include "bytecode/ops.h"
#include "fpga/device.h"
#include "fpga/synth.h"
#include "gpu/device.h"
#include "gpu/kernel_compiler.h"
#include "gpu/lowered.h"
#include "ir/task_graph.h"
#include "lime/frontend.h"
#include "rtl/netlist.h"
#include "rtl/sim.h"
#include "runtime/executor.h"
#include "runtime/fifo.h"
#include "serde/wire.h"
#include "util/rng.h"

namespace lm {
namespace {

// ---------------------------------------------------------------------------
// Random integer expression programs
// ---------------------------------------------------------------------------

/// A generated expression: Lime source text plus a C++ oracle with the same
/// (wrapping, Java-style) semantics over inputs x and y.
struct GenExpr {
  std::string source;
  std::function<int32_t(int32_t, int32_t)> eval;
};

int32_t wrap_add(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) +
                              static_cast<uint32_t>(b));
}
int32_t wrap_sub(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) -
                              static_cast<uint32_t>(b));
}
int32_t wrap_mul(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) *
                              static_cast<uint32_t>(b));
}
int32_t wrap_shl(int32_t a, int32_t s) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) << (s & 31));
}

GenExpr gen_expr(SplitMix64& rng, int depth) {
  if (depth <= 0 || rng.next_below(5) == 0) {
    switch (rng.next_below(3)) {
      case 0:
        return {"x", [](int32_t x, int32_t) { return x; }};
      case 1:
        return {"y", [](int32_t, int32_t y) { return y; }};
      default: {
        auto c = static_cast<int32_t>(rng.next_range(-100, 100));
        std::string s = c < 0 ? "(0 - " + std::to_string(-c) + ")"
                              : std::to_string(c);
        return {s, [c](int32_t, int32_t) { return c; }};
      }
    }
  }
  GenExpr a = gen_expr(rng, depth - 1);
  GenExpr b = gen_expr(rng, depth - 1);
  switch (rng.next_below(10)) {
    case 0:
      return {"(" + a.source + " + " + b.source + ")",
              [=](int32_t x, int32_t y) {
                return wrap_add(a.eval(x, y), b.eval(x, y));
              }};
    case 1:
      return {"(" + a.source + " - " + b.source + ")",
              [=](int32_t x, int32_t y) {
                return wrap_sub(a.eval(x, y), b.eval(x, y));
              }};
    case 2:
      return {"(" + a.source + " * " + b.source + ")",
              [=](int32_t x, int32_t y) {
                return wrap_mul(a.eval(x, y), b.eval(x, y));
              }};
    case 3:
      return {"(" + a.source + " & " + b.source + ")",
              [=](int32_t x, int32_t y) {
                return a.eval(x, y) & b.eval(x, y);
              }};
    case 4:
      return {"(" + a.source + " | " + b.source + ")",
              [=](int32_t x, int32_t y) {
                return a.eval(x, y) | b.eval(x, y);
              }};
    case 5:
      return {"(" + a.source + " ^ " + b.source + ")",
              [=](int32_t x, int32_t y) {
                return a.eval(x, y) ^ b.eval(x, y);
              }};
    case 6:
      return {"(" + a.source + " << (" + b.source + " & 15))",
              [=](int32_t x, int32_t y) {
                return wrap_shl(a.eval(x, y), b.eval(x, y) & 15);
              }};
    case 7:
      return {"(" + a.source + " >> (" + b.source + " & 15))",
              [=](int32_t x, int32_t y) {
                return a.eval(x, y) >> (b.eval(x, y) & 15);
              }};
    case 8:
      // Guarded division: divisor forced nonzero.
      return {"(" + a.source + " / ((" + b.source + " & 7) + 1))",
              [=](int32_t x, int32_t y) {
                return a.eval(x, y) / ((b.eval(x, y) & 7) + 1);
              }};
    default: {
      GenExpr c = gen_expr(rng, depth - 1);
      return {"(" + a.source + " < " + b.source + " ? " + c.source + " : " +
                  b.source + ")",
              [=](int32_t x, int32_t y) {
                return a.eval(x, y) < b.eval(x, y) ? c.eval(x, y)
                                                   : b.eval(x, y);
              }};
    }
  }
}

/// A Lime int literal for v (MIN_VALUE has no positive literal to negate).
std::string int_literal(int32_t v) {
  if (v == INT32_MIN) return "(-2147483647 - 1)";
  return v < 0 ? "(-" + std::to_string(-v) + ")" : std::to_string(v);
}

class RandomExprDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomExprDifferential, VmKernelAndOracleAgree) {
  SplitMix64 rng(GetParam());
  GenExpr e = gen_expr(rng, 4);
  std::string src = "class G { local static int f(int x, int y) { return " +
                    e.source + "; } }";
  auto fr = lime::compile_source(src);
  ASSERT_TRUE(fr.ok()) << fr.diags.to_string() << "\nsource: " << src;

  DiagnosticEngine diags;
  auto module = bc::compile_program(*fr.program, diags);
  ASSERT_FALSE(diags.has_errors());
  bc::Interpreter vm(*module);

  const lime::MethodDecl* f = fr.program->find_class("G")->find_method("f");
  auto kernel = gpu::compile_kernel(*f);
  ASSERT_TRUE(kernel.ok()) << kernel.exclusion_reason;
  fpga::FpgaCompileResult rtl = fpga::synthesize(*kernel.program);

  // Random input pairs, exercised through every implementation; the RTL
  // module streams them all at once after the loop.
  constexpr int kTrials = 24;
  serde::CValue rtl_in = serde::CValue::make(bc::ElemCode::kI32, true,
                                             2 * kTrials);
  std::vector<int32_t> wants;
  for (int trial = 0; trial < kTrials; ++trial) {
    auto x = static_cast<int32_t>(rng.next());
    auto y = static_cast<int32_t>(rng.next());
    int32_t want = e.eval(x, y);
    rtl_in.i32s()[2 * trial] = x;
    rtl_in.i32s()[2 * trial + 1] = y;
    wants.push_back(want);

    int32_t vm_got =
        vm.call("G.f", {bc::Value::i32(x), bc::Value::i32(y)}).as_i32();
    EXPECT_EQ(vm_got, want) << "vm mismatch for " << src << " at x=" << x
                            << " y=" << y;

    serde::CValue out = serde::CValue::make(bc::ElemCode::kI32, true, 1);
    std::vector<gpu::KArg> args = {gpu::KArg::scalar_i32(x),
                                   gpu::KArg::scalar_i32(y)};
    gpu::run_kernel_range(*kernel.program, args, out, 0, 1);
    EXPECT_EQ(out.i32s()[0], want) << "kernel mismatch for " << src;

    // The constant folder: the same expression over static-final x and y
    // folds into g's one constant.
    std::string folded = "class H { static final int x = " + int_literal(x) +
                         "; static final int y = " + int_literal(y) +
                         "; static final int R = " + e.source +
                         "; static int g() { return R; } }";
    auto hr = lime::compile_source(folded);
    ASSERT_TRUE(hr.ok()) << hr.diags.to_string() << "\nsource: " << folded;
    DiagnosticEngine hdiags;
    auto hmod = bc::compile_program(*hr.program, hdiags);
    const bc::CompiledMethod& g =
        hmod->methods[static_cast<size_t>(hmod->index_of("H.g"))];
    ASSERT_EQ(g.unsupported_reason, "") << folded;
    ASSERT_EQ(g.code[0].op, bc::Op::kConst) << "not folded: " << folded;
    EXPECT_EQ(bc::Interpreter(*hmod).call("H.g", {}).as_i32(), want)
        << "folder mismatch for " << folded;
  }

  // FPGA synthesis declines division by a non-constant, the one construct
  // here without a combinational form; what it accepts must match.
  if (!rtl.ok()) {
    EXPECT_NE(rtl.exclusion_reason.find("division"), std::string::npos)
        << rtl.exclusion_reason << " for " << src;
    return;
  }
  serde::CValue out = fpga::FpgaFilter(std::move(rtl)).process(rtl_in);
  ASSERT_EQ(out.count, wants.size());
  for (size_t i = 0; i < wants.size(); ++i) {
    EXPECT_EQ(out.i32s()[i], wants[i])
        << "rtl mismatch for " << src << " at x=" << rtl_in.i32s()[2 * i]
        << " y=" << rtl_in.i32s()[2 * i + 1];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprDifferential,
                         ::testing::Range<uint64_t>(1, 33));

TEST(RandomExprFpgaCoverage, SomeSeedsSynthesize) {
  // The FPGA leg above checks only the seeds synthesis accepts.
  int synthesized = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SplitMix64 rng(seed);
    GenExpr e = gen_expr(rng, 4);
    auto fr = lime::compile_source(
        "class G { local static int f(int x, int y) { return " + e.source +
        "; } }");
    ASSERT_TRUE(fr.ok()) << fr.diags.to_string();
    auto kernel =
        gpu::compile_kernel(*fr.program->find_class("G")->find_method("f"));
    ASSERT_TRUE(kernel.ok()) << kernel.exclusion_reason;
    if (fpga::synthesize(*kernel.program).ok()) ++synthesized;
  }
  RecordProperty("synthesized_seeds", synthesized);
  EXPECT_GT(synthesized, 0);
}

// ---------------------------------------------------------------------------
// Constant facts against the VM
// ---------------------------------------------------------------------------

/// One straight-line case: locals bound to extreme literals and an int or
/// long result `v = expr`, which indexes a length-4 array and is a shift
/// amount.
struct ConstCase {
  std::string decls;  // one line of local declarations
  std::string expr;
  bool is_long = false;
  /// Shifts inside `expr`, each by a literal: (amount, operand width).
  std::vector<std::pair<int64_t, int>> inner_shifts;
};

/// Random ConstCases over MIN_VALUE, MAX_VALUE, -1, 0, 31, 32, 63 and 64
/// with + - * / % << >>, negation and casts between int and long.
class ConstCaseGen {
 public:
  explicit ConstCaseGen(SplitMix64& rng) : rng_(rng) {}

  ConstCase make() {
    ConstCase c;
    locals_.clear();
    for (int i = 0; i < 3; ++i) {
      bool is_long = rng_.next_below(2) == 1;
      std::string name = "x" + std::to_string(i);
      c.decls += (is_long ? "long " : "int ") + name + " = " +
                 literal(is_long).first + "; ";
      locals_.emplace_back(name, is_long);
    }
    shifts_ = &c.inner_shifts;
    std::tie(c.expr, c.is_long) = expr(3);
    return c;
  }

 private:
  /// Source text and value of a random extreme literal of the type.
  std::pair<std::string, int64_t> literal(bool is_long) {
    static constexpr int64_t kSmall[] = {-1, 0, 31, 32, 63, 64};
    std::string suffix = is_long ? "L" : "";
    switch (rng_.next_below(8)) {
      case 0:
        return is_long ? std::pair<std::string, int64_t>{
                             "(-9223372036854775807L - 1L)", INT64_MIN}
                       : std::pair<std::string, int64_t>{
                             "(-2147483647 - 1)", INT32_MIN};
      case 1:
        return is_long ? std::pair<std::string, int64_t>{
                             "9223372036854775807L", INT64_MAX}
                       : std::pair<std::string, int64_t>{"2147483647",
                                                         INT32_MAX};
      default: {
        int64_t v = kSmall[rng_.next_below(6)];
        return {std::to_string(v) + suffix, v};
      }
    }
  }

  /// (text, is_long) of a random expression.
  std::pair<std::string, bool> expr(int depth) {
    if (depth == 0 || rng_.next_below(4) == 0) {
      if (rng_.next_below(2) == 0) {
        return locals_[rng_.next_below(locals_.size())];
      }
      bool is_long = rng_.next_below(2) == 1;
      return {literal(is_long).first, is_long};
    }
    switch (rng_.next_below(6)) {
      case 0: {
        auto [e, is_long] = expr(depth - 1);
        return {"-(" + e + ")", is_long};
      }
      case 1: {
        bool to_long = rng_.next_below(2) == 1;
        return {std::string(to_long ? "(long) (" : "(int) (") +
                    expr(depth - 1).first + ")",
                to_long};
      }
      case 2: {
        // A shift's amount takes its operand's type.
        auto [e, is_long] = expr(depth - 1);
        auto [amount, value] = literal(is_long);
        shifts_->emplace_back(value, is_long ? 64 : 32);
        const char* op = rng_.next_below(2) == 0 ? " << " : " >> ";
        return {"(" + e + op + amount + ")", is_long};
      }
      default: {
        static constexpr const char* kOps[] = {" + ", " - ", " * ", " / ",
                                               " % "};
        auto [l, l_long] = expr(depth - 1);
        auto [r, r_long] = expr(depth - 1);
        return {"(" + l + kOps[rng_.next_below(5)] + r + ")",
                l_long || r_long};
      }
    }
  }

  SplitMix64& rng_;
  std::vector<std::pair<std::string, bool>> locals_;
  std::vector<std::pair<int64_t, int>>* shifts_ = nullptr;
};

/// The number after `prefix` in a diagnostic message.
int64_t number_after(const std::string& msg, const std::string& prefix) {
  size_t at = msg.find(prefix);
  EXPECT_NE(at, std::string::npos) << msg;
  if (at == std::string::npos) return 0;
  return std::stoll(msg.substr(at + prefix.size()));
}

// LM102 and LM103 may report only what the VM computes: every report names
// the value the VM gives that index or shift amount, which must be out of
// range, and a shift by an out-of-range literal is always reported.
TEST(ConstantFacts, EveryReportNamesTheVmValue) {
  std::vector<ConstCase> cases = {
      // Java wraps where C++ traps or overflows.
      {"long a = -9223372036854775807L - 1L;", "a / -1L", true, {}},
      {"long a = -9223372036854775807L - 1L;", "a % -1L", true, {}},
      {"long a = 9223372036854775807L;", "a * 3L", true, {}},
      {"long a = -9223372036854775807L - 1L;", "-a", true, {}},
      // j wraps to MIN_VALUE, so the index is 2, not 4294967298.
      {"int j = 2147483647 + 1;", "j + 2147483647 + 3", false, {}},
      // Out of range without wrapping: both checks must fire.
      {"int a = 31;", "a + 1", false, {}},
      {"long a = 63L;", "a + 1L", true, {}},
  };
  SplitMix64 rng(20261019);
  ConstCaseGen gen(rng);
  for (int i = 0; i < 96; ++i) cases.push_back(gen.make());

  // Per case: v<k> returns the value; u<k> uses it, one role per line.
  enum Role { kExpr, kShift, kIndex };
  std::map<uint32_t, std::pair<size_t, Role>> lines;
  std::string src = "class K {\n";
  uint32_t line = 2;
  auto emit = [&](const std::string& text, size_t k, Role role) {
    src += text + "\n";
    lines[line++] = {k, role};
  };
  for (size_t k = 0; k < cases.size(); ++k) {
    const ConstCase& c = cases[k];
    std::string t = c.is_long ? "long" : "int";
    std::string id = std::to_string(k);
    emit("  static " + t + " v" + id + "() { " + c.decls + " " + t +
             " v = " + c.expr + "; return v; }",
         k, kExpr);
    emit("  static int u" + id + "() { " + c.decls, k, kExpr);
    emit("    " + t + " v = " + c.expr + ";", k, kExpr);
    emit("    int[] arr = new int[4];", k, kExpr);
    emit("    " + t + " s = " + (c.is_long ? "1L" : "1") + " << v;", k,
         kShift);
    emit(std::string("    return arr[") + (c.is_long ? "(int) v" : "v") +
             "]; }",
         k, kIndex);
  }
  src += "}\n";

  auto fr = lime::compile_source(src);
  ASSERT_TRUE(fr.ok()) << fr.diags.to_string() << "\nsource:\n" << src;
  DiagnosticEngine diags;
  auto graphs = ir::extract_task_graphs(*fr.program, diags);
  analysis::AnalysisResult ar = analysis::analyze_program(*fr.program, graphs);
  auto module = bc::compile_program(*fr.program, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_string();
  bc::Interpreter vm(*module);

  // The VM's v per case; a case whose v divides by zero has none.
  std::vector<std::optional<int64_t>> values(cases.size());
  for (size_t k = 0; k < cases.size(); ++k) {
    try {
      bc::Value v = vm.call("K.v" + std::to_string(k), {});
      values[k] = cases[k].is_long ? v.as_i64() : v.as_i32();
    } catch (const RuntimeError&) {
    }
  }

  int final_reports = 0;
  std::vector<std::set<std::pair<int64_t, int>>> reported(cases.size());
  for (const Diagnostic& d : ar.diags.diagnostics()) {
    if (d.code != "LM102" && d.code != "LM103") continue;
    auto it = lines.find(d.loc.line);
    ASSERT_NE(it, lines.end()) << to_string(d);
    auto [k, role] = it->second;
    const ConstCase& c = cases[k];
    SCOPED_TRACE("case " + std::to_string(k) + ": " + c.decls + " v = " +
                 c.expr + "; " + to_string(d));
    if (d.code == "LM103") {
      int64_t amount = number_after(d.message, "shift amount ");
      auto width = static_cast<int>(number_after(d.message, "for a "));
      if (role == kExpr) {
        reported[k].insert({amount, width});
        continue;
      }
      ASSERT_EQ(role, kShift);
      ASSERT_TRUE(values[k].has_value());
      EXPECT_EQ(amount, *values[k]);
      EXPECT_EQ(width, c.is_long ? 64 : 32);
      EXPECT_TRUE(amount < 0 || amount >= width);
    } else {
      ASSERT_EQ(role, kIndex);
      ASSERT_TRUE(values[k].has_value());
      int64_t index = number_after(d.message, "constant index ");
      EXPECT_EQ(index, static_cast<int32_t>(*values[k]));
      EXPECT_EQ(number_after(d.message, "known length "), 4);
      EXPECT_TRUE(index < 0 || index >= 4);
    }
    ++final_reports;
  }
  for (size_t k = 0; k < cases.size(); ++k) {
    std::set<std::pair<int64_t, int>> want;
    for (const auto& [amount, width] : cases[k].inner_shifts) {
      if (amount < 0 || amount >= width) want.insert({amount, width});
    }
    EXPECT_EQ(reported[k], want) << "case " << k << ": " << cases[k].expr;
  }
  // The fixed out-of-range cases fire at least their four reports.
  EXPECT_GE(final_reports, 4);
  RecordProperty("final_reports", final_reports);
}

// ---------------------------------------------------------------------------
// Random typed kernels: the lowered kernel against the VM
// ---------------------------------------------------------------------------

enum class Ty { kInt, kLong, kFloat, kDouble };

const char* ty_name(Ty t) {
  switch (t) {
    case Ty::kInt: return "int";
    case Ty::kLong: return "long";
    case Ty::kFloat: return "float";
    case Ty::kDouble: return "double";
  }
  return "?";
}

bool integral(Ty t) { return t == Ty::kInt || t == Ty::kLong; }

/// Generates well-typed Lime expressions of a requested numeric type over a
/// set of typed variables: every operator and comparison of each type,
/// guarded division and remainder (the divisor `b | 1` is odd, so never 0
/// but sometimes -1), unmasked shift distances, casts between all four
/// types, Math.sqrt, abs, min and max, and the six comparisons of each type
/// in `?:` conditions, alone or joined by `&&`, `||`, `==` and `!=`.
class TypedExprGen {
 public:
  TypedExprGen(SplitMix64& rng, std::vector<std::pair<std::string, Ty>> vars)
      : rng_(rng), vars_(std::move(vars)) {}

  std::string gen(Ty t, int depth) {
    if (depth <= 0 || rng_.next_below(6) == 0) return leaf(t);
    auto sub = [&](Ty u) { return gen(u, depth - 1); };
    auto any_ty = [&] { return static_cast<Ty>(rng_.next_below(4)); };
    switch (rng_.next_below(13)) {
      case 0: return "(" + sub(t) + " + " + sub(t) + ")";
      case 1: return "(" + sub(t) + " - " + sub(t) + ")";
      case 2: return "(" + sub(t) + " * " + sub(t) + ")";
      case 3:
        if (integral(t)) return "(" + sub(t) + " / (" + sub(t) + " | 1))";
        return "(" + sub(t) + " / " + sub(t) + ")";
      case 4:
        if (integral(t)) return "(" + sub(t) + " % (" + sub(t) + " | 1))";
        return "(-" + sub(t) + ")";
      case 5: {
        if (!integral(t)) return "Math.sqrt(" + sub(t) + ")";
        static const char* kOps[] = {" & ", " | ", " ^ ", " << ", " >> "};
        return "(" + sub(t) + kOps[rng_.next_below(5)] + sub(t) + ")";
      }
      case 6: return "(" + compare(depth - 1) + " ? " + sub(t) + " : " +
                     sub(t) + ")";
      case 11: {
        // Compares whose results are read twice (short circuit) or
        // compared as booleans, so they are not fused with the branch.
        static const char* kJoins[] = {" && ", " || ", " == ", " != "};
        return "((" + compare(depth - 1) + ")" + kJoins[rng_.next_below(4)] +
               "(" + compare(depth - 1) + ") ? " + sub(t) + " : " + sub(t) +
               ")";
      }
      case 7:
        return "((" + std::string(ty_name(t)) + ") " + sub(any_ty()) + ")";
      case 8: return "Math.abs(" + sub(t) + ")";
      case 9: return "Math.min(" + sub(t) + ", " + sub(t) + ")";
      case 10: return "Math.max(" + sub(t) + ", " + sub(t) + ")";
      default: return "(-" + sub(t) + ")";
    }
  }

 private:
  std::string compare(int depth) {
    static const char* kCmps[] = {" == ", " != ", " < ", " <= ", " > ", " >= "};
    const auto c = static_cast<Ty>(rng_.next_below(4));
    return gen(c, depth) + kCmps[rng_.next_below(6)] + gen(c, depth);
  }

  std::string leaf(Ty t) {
    std::vector<const std::string*> same;
    for (const auto& [name, ty] : vars_) {
      if (ty == t) same.push_back(&name);
    }
    if (!same.empty() && rng_.next_below(3) != 0) {
      return *same[rng_.next_below(same.size())];
    }
    return literal(t);
  }

  std::string literal(Ty t) {
    const int64_t v = rng_.next_range(-1000, 1000);
    const std::string mag = std::to_string(v < 0 ? -v : v);
    std::string lit;
    switch (t) {
      case Ty::kInt: lit = mag; break;
      case Ty::kLong: lit = mag + "000000L"; break;
      case Ty::kFloat: lit = mag + ".25f"; break;
      case Ty::kDouble: lit = mag + ".125"; break;
    }
    return v < 0 ? "(-" + lit + ")" : lit;
  }

  SplitMix64& rng_;
  std::vector<std::pair<std::string, Ty>> vars_;
};

/// A random int, long, float or double, with the edge values now and then.
template <typename T>
T random_scalar(SplitMix64& rng) {
  using Limits = std::numeric_limits<T>;
  switch (rng.next_below(8)) {
    case 0: return Limits::lowest();
    case 1: return Limits::max();
    case 2: return static_cast<T>(rng.next_range(-2, 2));
    default: break;
  }
  if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(rng.next());
  } else {
    if (rng.next_below(8) == 0) return Limits::quiet_NaN();
    return static_cast<T>(rng.next_double() * 2e4 - 1e4);
  }
}

/// Float.floatToIntBits / Double.doubleToLongBits: the bits, with every
/// NaN collapsed to one. The sign and payload of a NaN depend on operand
/// order inside the C++ compiler's code, which Java does not observe.
uint32_t java_bits(float f) {
  return std::isnan(f) ? 0x7fc00000u : std::bit_cast<uint32_t>(f);
}
uint64_t java_bits(double d) {
  return std::isnan(d) ? 0x7ff8000000000000ull : std::bit_cast<uint64_t>(d);
}

class RandomTypedKernelDifferential
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomTypedKernelDifferential, KernelMatchesVmBitExactly) {
  SplitMix64 rng(GetParam() * 7919 + 3);
  const Ty ret = static_cast<Ty>(GetParam() % 4);
  const std::string rt = ty_name(ret);
  const std::vector<std::pair<std::string, Ty>> params = {
      {"x", Ty::kInt}, {"y", Ty::kLong}, {"u", Ty::kFloat}, {"v", Ty::kDouble}};
  auto with = [&params](std::vector<std::pair<std::string, Ty>> more) {
    more.insert(more.begin(), params.begin(), params.end());
    return more;
  };
  TypedExprGen init(rng, params);
  TypedExprGen body(rng, with({{"i", Ty::kInt}, {"acc", ret}}));
  TypedExprGen tail(rng, with({{"acc", ret}}));
  // The loop's backward jump runs the lowered form's moves and constants
  // once per iteration.
  std::string src = "class G { local static " + rt +
                    " f(int x, long y, float u, double v) { " + rt +
                    " acc = " + init.gen(ret, 2) +
                    "; for (int i = 0; i < (x & 7); i += 1) { acc = " +
                    body.gen(ret, 3) + "; } return " + tail.gen(ret, 3) +
                    "; } }";
  auto fr = lime::compile_source(src);
  ASSERT_TRUE(fr.ok()) << fr.diags.to_string() << "\nsource: " << src;
  DiagnosticEngine diags;
  auto module = bc::compile_program(*fr.program, diags);
  ASSERT_FALSE(diags.has_errors()) << src;
  bc::Interpreter vm(*module);
  auto kernel =
      gpu::compile_kernel(*fr.program->find_class("G")->find_method("f"));
  ASSERT_TRUE(kernel.ok()) << kernel.exclusion_reason << "\nsource: " << src;
  const gpu::LoweredKernel lowered(*kernel.program);

  for (int trial = 0; trial < 16; ++trial) {
    const auto x = random_scalar<int32_t>(rng);
    const auto y = random_scalar<int64_t>(rng);
    const auto u = random_scalar<float>(rng);
    const auto v = random_scalar<double>(rng);
    bc::Value want = vm.call("G.f", {bc::Value::i32(x), bc::Value::i64(y),
                                     bc::Value::f32(u), bc::Value::f64(v)});

    std::vector<gpu::KArg> args = {gpu::KArg::scalar_i32(x), {},
                                   gpu::KArg::scalar_f32(u),
                                   gpu::KArg::scalar_f64(v)};
    args[1].scalar.i64 = y;
    serde::CValue out =
        serde::CValue::make(gpu::elem_code_for(kernel.program->ret_type),
                            true, 1);
    gpu::run_kernel_range(lowered, args, out, 0, 1);

    std::string where = src + "\n at x=" + std::to_string(x) +
                        " y=" + std::to_string(y) + " u=" +
                        std::to_string(u) + " v=" + std::to_string(v);
    switch (ret) {
      case Ty::kInt: EXPECT_EQ(out.i32s()[0], want.as_i32()) << where; break;
      case Ty::kLong: EXPECT_EQ(out.i64s()[0], want.as_i64()) << where; break;
      case Ty::kFloat:
        EXPECT_EQ(java_bits(out.f32s()[0]), java_bits(want.as_f32())) << where;
        break;
      case Ty::kDouble:
        EXPECT_EQ(java_bits(out.f64s()[0]), java_bits(want.as_f64())) << where;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTypedKernelDifferential,
                         ::testing::Range<uint64_t>(1, 65));

// ---------------------------------------------------------------------------
// Wire-format round trips over random arrays of every element type
// ---------------------------------------------------------------------------

class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, RandomArraysSurvive) {
  SplitMix64 rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    bc::ArrayRef arr;
    lime::TypeRef elem;
    switch (GetParam()) {
      case 0: {
        std::vector<int32_t> v(n);
        for (auto& x : v) x = static_cast<int32_t>(rng.next());
        arr = bc::make_i32_array(std::move(v), true);
        elem = lime::Type::int_();
        break;
      }
      case 1: {
        std::vector<int64_t> v(n);
        for (auto& x : v) x = static_cast<int64_t>(rng.next());
        arr = bc::make_i64_array(std::move(v), true);
        elem = lime::Type::long_();
        break;
      }
      case 2: {
        std::vector<float> v(n);
        for (auto& x : v) x = rng.next_float() * 1e6f - 5e5f;
        arr = bc::make_f32_array(std::move(v), true);
        elem = lime::Type::float_();
        break;
      }
      case 3: {
        std::vector<double> v(n);
        for (auto& x : v) x = rng.next_double() * 1e12 - 5e11;
        arr = bc::make_f64_array(std::move(v), true);
        elem = lime::Type::double_();
        break;
      }
      case 4: {
        std::vector<uint8_t> v(n);
        for (auto& x : v) x = rng.next_bool();
        arr = bc::make_bool_array(std::move(v), true);
        elem = lime::Type::boolean();
        break;
      }
      default: {
        std::vector<uint8_t> v(n);
        for (auto& x : v) x = rng.next_bool();
        arr = bc::make_bit_array(std::move(v), true);
        elem = lime::Type::bit();
        break;
      }
    }
    bc::Value v = bc::Value::array(arr);
    auto t = lime::Type::value_array(elem);
    auto ser = serde::serializer_for(t);
    ByteWriter w;
    ser->serialize(v, w);
    EXPECT_EQ(w.size(), ser->wire_size(v));
    ByteReader r(w.bytes());
    bc::Value back = ser->deserialize(r);
    EXPECT_TRUE(r.done());
    EXPECT_TRUE(back.equals(v)) << "elem kind " << GetParam() << " n=" << n;
  }
}

std::string wire_case_name(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"i32", "i64", "f32",
                                       "f64", "boolean", "bit"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllElemTypes, WireRoundTrip, ::testing::Range(0, 6),
                         wire_case_name);

// ---------------------------------------------------------------------------
// Random RTL expression DAGs: compiled simulation == tree-walking h_eval
// ---------------------------------------------------------------------------

/// Grows a random expression DAG over every HUnOp and HBinOp. Each new node
/// draws its operands from `pool`, which holds the leaves and every node
/// built so far, so later nodes reuse earlier ones the way synthesis shares
/// subexpressions. Operands of the wrong width are resized (trunc, zext or
/// sext).
class HExprGen {
 public:
  HExprGen(SplitMix64& rng, std::vector<rtl::HExprPtr> leaves)
      : rng_(rng), pool_(std::move(leaves)) {}

  static int random_width(SplitMix64& rng) {
    static const int kWidths[] = {1, 8, 17, 32, 64};
    return kWidths[rng.next_below(5)];
  }

  /// Adds one node of `width` to the pool and returns it.
  rtl::HExprPtr grow(int width) {
    using rtl::HBinOp;
    static const HBinOp kArith[] = {
        HBinOp::kAdd, HBinOp::kSub, HBinOp::kMul, HBinOp::kAnd,
        HBinOp::kOr,  HBinOp::kXor, HBinOp::kShl, HBinOp::kShrL,
        HBinOp::kShrA};
    static const HBinOp kCompare[] = {HBinOp::kEq,  HBinOp::kNe,
                                      HBinOp::kLtS, HBinOp::kLeS,
                                      HBinOp::kGtS, HBinOp::kGeS};
    rtl::HExprPtr e;
    switch (rng_.next_below(6)) {
      case 0:
        e = rtl::h_unary(rng_.next_bool() ? rtl::HUnOp::kNot
                                          : rtl::HUnOp::kNeg,
                         operand(width));
        break;
      case 1: {  // a comparison, resized to the wanted width
        int opw = random_width(rng_);
        e = rtl::h_resize(rtl::h_binary(kCompare[rng_.next_below(6)],
                                        operand(opw), operand(opw)),
                          width, rng_.next_bool());
        break;
      }
      case 2:
        e = rtl::h_mux(operand(1), operand(width), operand(width));
        break;
      default: {
        HBinOp op = kArith[rng_.next_below(9)];
        bool shift = op == HBinOp::kShl || op == HBinOp::kShrL ||
                     op == HBinOp::kShrA;
        e = rtl::h_binary(op, operand(width),
                          shift ? distance(width) : operand(width));
        break;
      }
    }
    pool_.push_back(e);
    return e;
  }

  void add(rtl::HExprPtr leaf) { pool_.push_back(std::move(leaf)); }

  /// A pool node (or a fresh constant) resized to `width`.
  rtl::HExprPtr operand(int width) {
    if (rng_.next_below(8) == 0) return rtl::h_const(width, rng_.next());
    const rtl::HExprPtr& e = pool_[rng_.next_below(pool_.size())];
    return rtl::h_resize(e, width, rng_.next_bool());
  }

 private:
  /// Shift distances: in range, just past the width, or anything at all.
  rtl::HExprPtr distance(int width) {
    int dw = random_width(rng_);
    switch (rng_.next_below(3)) {
      case 0:
        return rtl::h_const(dw, rng_.next_below(
                                    static_cast<uint64_t>(width) + 8));
      case 1:
        return rtl::h_binary(rtl::HBinOp::kAnd, operand(dw),
                             rtl::h_const(dw, 127));
      default:
        return operand(dw);
    }
  }

  SplitMix64& rng_;
  std::vector<rtl::HExprPtr> pool_;
};

class RtlExprProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RtlExprProperty, SimulationMatchesDirectEvaluation) {
  SplitMix64 rng(GetParam() * 31 + 7);
  for (int width : {1, 8, 17, 32, 64}) {
    rtl::Module m;
    m.name = "prop";
    std::vector<rtl::SigId> inputs;
    std::vector<rtl::HExprPtr> leaves;
    for (int i = 0; i < 3; ++i) {
      int w = HExprGen::random_width(rng);
      inputs.push_back(m.add_signal("in" + std::to_string(i), w,
                                    rtl::SigKind::kInput));
      leaves.push_back(rtl::h_sig(inputs.back(), w));
    }
    HExprGen gen(rng, leaves);
    rtl::HExprPtr expr;
    for (int i = 0; i < 12; ++i) expr = gen.grow(HExprGen::random_width(rng));
    expr = gen.grow(width);
    rtl::SigId out = m.add_signal("out", expr->width, rtl::SigKind::kOutput);
    m.assign(out, expr);
    rtl::RtlSim sim(m);

    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint64_t> vals(m.signals.size(), 0);
      for (rtl::SigId in : inputs) {
        uint64_t v = rtl::mask_to_width(rng.next(), m.sig(in).width);
        sim.poke(in, v);
        vals[static_cast<size_t>(in)] = v;
      }
      uint64_t direct = rtl::h_eval(*expr, vals);
      EXPECT_EQ(sim.peek(out), direct)
          << "width " << width << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlExprProperty,
                         ::testing::Range<uint64_t>(1, 17));

/// Random modules with registers, wires and outputs over one shared DAG,
/// stepped for many cycles against a reference that settles with h_eval in
/// declaration order and latches every register from pre-edge values.
class RtlModuleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RtlModuleProperty, SteppedRegistersMatchTreeWalkReference) {
  SplitMix64 rng(GetParam() * 131 + 3);
  rtl::Module m;
  m.name = "prop_seq";
  std::vector<rtl::SigId> inputs, regs;
  std::vector<rtl::HExprPtr> leaves;
  for (int i = 0; i < 3; ++i) {
    int w = HExprGen::random_width(rng);
    inputs.push_back(
        m.add_signal("in" + std::to_string(i), w, rtl::SigKind::kInput));
    leaves.push_back(rtl::h_sig(inputs.back(), w));
  }
  for (int i = 0; i < 5; ++i) {
    // r3 and r4 share a width: they swap values every edge below.
    int w = i == 4 ? m.sig(regs[3]).width : HExprGen::random_width(rng);
    regs.push_back(m.add_signal("r" + std::to_string(i), w,
                                rtl::SigKind::kReg, rng.next()));
    leaves.push_back(rtl::h_sig(regs.back(), w));
  }
  HExprGen gen(rng, leaves);
  // Each wire joins the pool as a signal too, so later nodes read it by
  // name as well as by sharing its expression node. Nodes feeding the
  // registers come from the same pool, so comb and seq logic share nodes.
  std::vector<std::pair<rtl::SigId, rtl::HExprPtr>> comb;
  for (int i = 0; i < 6; ++i) {
    for (int k = 0; k < 4; ++k) gen.grow(HExprGen::random_width(rng));
    rtl::HExprPtr e = gen.grow(HExprGen::random_width(rng));
    rtl::SigKind kind = i % 2 ? rtl::SigKind::kOutput : rtl::SigKind::kWire;
    rtl::SigId w = m.add_signal("w" + std::to_string(i), e->width, kind);
    m.assign(w, e);
    comb.emplace_back(w, e);
    gen.add(rtl::h_sig(w, e->width));
  }
  std::vector<rtl::HExprPtr> nexts;
  for (size_t i = 0; i < regs.size(); ++i) {
    const rtl::Signal& r = m.sig(regs[i]);
    // The swap pair reads each other's pre-edge values directly.
    if (i >= 3) {
      nexts.push_back(rtl::h_sig(regs[i == 3 ? 4 : 3], r.width));
    } else {
      nexts.push_back(gen.operand(r.width));
    }
    m.assign_next(regs[i], nexts.back());
  }

  rtl::RtlSim sim(m);
  std::vector<uint64_t> ref(m.signals.size(), 0);
  for (rtl::SigId r : regs) {
    ref[static_cast<size_t>(r)] =
        rtl::mask_to_width(m.sig(r).init, m.sig(r).width);
  }
  auto settle_ref = [&] {
    for (const auto& [sig, e] : comb) {
      ref[static_cast<size_t>(sig)] = rtl::h_eval(*e, ref);
    }
  };
  for (int cycle = 0; cycle < 40; ++cycle) {
    if (cycle % 3 != 2) {  // hold the inputs now and then
      for (rtl::SigId in : inputs) {
        uint64_t v = rtl::mask_to_width(rng.next(), m.sig(in).width);
        sim.poke(in, v);
        ref[static_cast<size_t>(in)] = v;
      }
    }
    settle_ref();
    for (size_t i = 0; i < m.signals.size(); ++i) {
      ASSERT_EQ(sim.peek(static_cast<rtl::SigId>(i)), ref[i])
          << m.signals[i].name << " before edge " << cycle << " seed "
          << GetParam();
    }
    std::vector<uint64_t> latched;
    for (const auto& e : nexts) latched.push_back(rtl::h_eval(*e, ref));
    for (size_t i = 0; i < regs.size(); ++i) {
      ref[static_cast<size_t>(regs[i])] = latched[i];
    }
    settle_ref();
    sim.step(1);
    for (size_t i = 0; i < m.signals.size(); ++i) {
      ASSERT_EQ(sim.peek(static_cast<rtl::SigId>(i)), ref[i])
          << m.signals[i].name << " after edge " << cycle << " seed "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlModuleProperty,
                         ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// RTL constant fold == Java's operators (bytecode/ops.h)
// ---------------------------------------------------------------------------

/// Random operands with the edges mixed in: 0, ±1, MIN_VALUE, MAX_VALUE.
template <typename T>
T random_operand(SplitMix64& rng) {
  static const T kEdges[] = {0, 1, -1, std::numeric_limits<T>::min(),
                             std::numeric_limits<T>::max()};
  return rng.next_below(4) == 0 ? kEdges[rng.next_below(5)]
                                : static_cast<T>(rng.next());
}

/// Folds every operator synthesis lowers Java's int (T = int32_t) or long
/// (T = int64_t) operators to, at T's width, and compares with ops::.
template <typename T>
void check_rtl_fold(SplitMix64& rng) {
  using bc::ArithOp;
  using bc::CmpOp;
  using rtl::HBinOp;
  constexpr int kWidth = std::numeric_limits<T>::digits + 1;
  auto bits = [](T v) {
    return rtl::mask_to_width(static_cast<uint64_t>(v), kWidth);
  };
  static const std::pair<HBinOp, ArithOp> kArith[] = {
      {HBinOp::kAdd, ArithOp::kAdd}, {HBinOp::kSub, ArithOp::kSub},
      {HBinOp::kMul, ArithOp::kMul}, {HBinOp::kAnd, ArithOp::kAnd},
      {HBinOp::kOr, ArithOp::kOr},   {HBinOp::kXor, ArithOp::kXor}};
  static const std::pair<HBinOp, CmpOp> kCompare[] = {
      {HBinOp::kLtS, CmpOp::kLt}, {HBinOp::kLeS, CmpOp::kLe},
      {HBinOp::kGtS, CmpOp::kGt}, {HBinOp::kGeS, CmpOp::kGe}};
  for (int i = 0; i < 500; ++i) {
    T a = random_operand<T>(rng);
    T b = rng.next_below(8) == 0 ? a : random_operand<T>(rng);
    for (auto [hop, jop] : kArith) {
      EXPECT_EQ(rtl::fold_binary(hop, bits(a), bits(b), kWidth),
                bits(bc::ops::arith(jop, a, b)))
          << static_cast<int>(hop) << " width " << kWidth << ": " << a
          << ", " << b;
    }
    for (auto [hop, cop] : kCompare) {
      EXPECT_EQ(rtl::fold_binary(hop, bits(a), bits(b), kWidth),
                bc::ops::compare(cop, a, b) ? 1u : 0u)
          << static_cast<int>(hop) << " width " << kWidth << ": " << a
          << ", " << b;
    }
    // Synthesis masks the distance as Java does (synth.cpp's
    // shift_distance), then shifts in hardware.
    T d = rng.next_bool() ? static_cast<T>(rng.next_range(-8, kWidth + 8))
                          : b;
    uint64_t masked = bits(d) & (kWidth - 1);
    EXPECT_EQ(rtl::fold_binary(HBinOp::kShl, bits(a), masked, kWidth),
              bits(bc::ops::arith(ArithOp::kShl, a, d)))
        << a << " << " << d;
    EXPECT_EQ(rtl::fold_binary(HBinOp::kShrA, bits(a), masked, kWidth),
              bits(bc::ops::arith(ArithOp::kShr, a, d)))
        << a << " >> " << d;
    EXPECT_EQ(rtl::fold_unary(rtl::HUnOp::kNeg, bits(a), kWidth, kWidth),
              bits(bc::ops::arith(ArithOp::kNeg, a, a)))
        << "-" << a;
  }
}

class RtlFoldMatchesJavaOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RtlFoldMatchesJavaOps, IntAndLongOperands) {
  SplitMix64 rng(GetParam() * 613 + 11);
  check_rtl_fold<int32_t>(rng);
  check_rtl_fold<int64_t>(rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtlFoldMatchesJavaOps,
                         ::testing::Range<uint64_t>(1, 9));

template <typename T>
void check_java_min_max() {
  using bc::Intrinsic;
  using bc::ops::intrinsic;
  const T zero = 0;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  for (auto [x, y] : {std::pair{-zero, zero}, std::pair{zero, -zero}}) {
    EXPECT_TRUE(std::signbit(intrinsic(Intrinsic::kMin, x, y)));
    EXPECT_FALSE(std::signbit(intrinsic(Intrinsic::kMax, x, y)));
  }
  for (auto [x, y] : {std::pair{nan, T{1}}, std::pair{T{1}, nan}}) {
    EXPECT_TRUE(std::isnan(intrinsic(Intrinsic::kMin, x, y)));
    EXPECT_TRUE(std::isnan(intrinsic(Intrinsic::kMax, x, y)));
  }
  EXPECT_EQ(intrinsic(Intrinsic::kMin, T{-2}, T{3}), T{-2});
  EXPECT_EQ(intrinsic(Intrinsic::kMax, T{-2}, T{3}), T{3});
}

// Java's Math.min and max order -0.0 below 0.0 and propagate NaN. C's fmin
// and fmax do neither, so two executors built on them can disagree on the
// sign of Math.min(-0.0f, 0.0f).
TEST(JavaMinMax, SignedZerosAndNaN) {
  check_java_min_max<float>();
  check_java_min_max<double>();
}

// ---------------------------------------------------------------------------
// Cast matrix: every widening conversion the language allows, VM vs oracle
// ---------------------------------------------------------------------------

TEST(CastMatrix, WideningCastsAreExact) {
  struct Case {
    const char* src;
    std::function<bc::Value(bc::Value)> oracle;
    bc::Value input;
  };
  auto build_and_run = [](const std::string& src, const bc::Value& arg) {
    auto fr = lime::compile_source(src);
    EXPECT_TRUE(fr.ok()) << fr.diags.to_string();
    DiagnosticEngine d;
    auto mod = bc::compile_program(*fr.program, d);
    bc::Interpreter vm(*mod);
    return vm.call("C.f", {arg});
  };

  // int → long / float / double.
  EXPECT_EQ(build_and_run("class C { static long f(int x) { return x; } }",
                          bc::Value::i32(-123456))
                .as_i64(),
            -123456);
  EXPECT_FLOAT_EQ(
      build_and_run("class C { static float f(int x) { return x; } }",
                    bc::Value::i32(16777217))
          .as_f32(),
      16777216.0f);  // rounds: float can't hold 2^24+1
  EXPECT_DOUBLE_EQ(
      build_and_run("class C { static double f(int x) { return x; } }",
                    bc::Value::i32(INT32_MIN))
          .as_f64(),
      static_cast<double>(INT32_MIN));
  // long → double.
  EXPECT_DOUBLE_EQ(
      build_and_run("class C { static double f(long x) { return x; } }",
                    bc::Value::i64(1LL << 53))
          .as_f64(),
      static_cast<double>(1LL << 53));
  // float → double.
  EXPECT_DOUBLE_EQ(
      build_and_run("class C { static double f(float x) { return x; } }",
                    bc::Value::f32(0.1f))
          .as_f64(),
      static_cast<double>(0.1f));
  // bit → int / long.
  EXPECT_EQ(build_and_run("class C { static int f(bit b) { return b; } }",
                          bc::Value::bit(true))
                .as_i32(),
            1);
  // Explicit narrowing casts.
  EXPECT_EQ(build_and_run(
                "class C { static int f(long x) { return (int) x; } }",
                bc::Value::i64((1LL << 40) + 99))
                .as_i32(),
            static_cast<int32_t>((1LL << 40) + 99));
  EXPECT_EQ(build_and_run(
                "class C { static int f(double x) { return (int) x; } }",
                bc::Value::f64(-2.75))
                .as_i32(),
            -2);
  EXPECT_EQ(build_and_run(
                "class C { static bit f(int x) { return (bit) x; } }",
                bc::Value::i32(7))
                .as_bit(),
            true);
  // long → float rounds once: 2^62 + 2^38 + 1 is past the halfway point
  // between two floats, where a detour through double lands on the tie.
  EXPECT_EQ(build_and_run(
                "class C { static float f(long x) { return (float) x; } }",
                bc::Value::i64((1LL << 62) + (1LL << 38) + 1))
                .as_f32(),
            static_cast<float>((1LL << 62) + (1LL << 39)));
  // float or double → int or long: NaN is 0, out-of-range values saturate.
  const std::string to_int =
      "class C { static int f(float x) { return (int) x; } }";
  EXPECT_EQ(build_and_run(to_int, bc::Value::f32(NAN)).as_i32(), 0);
  EXPECT_EQ(build_and_run(to_int, bc::Value::f32(6.0e9f)).as_i32(), INT32_MAX);
  EXPECT_EQ(build_and_run(to_int, bc::Value::f32(-6.0e9f)).as_i32(),
            INT32_MIN);
  const std::string to_long =
      "class C { static long f(double x) { return (long) x; } }";
  EXPECT_EQ(build_and_run(to_long, bc::Value::f64(NAN)).as_i64(), 0);
  EXPECT_EQ(build_and_run(to_long, bc::Value::f64(INFINITY)).as_i64(),
            INT64_MAX);
  EXPECT_EQ(build_and_run(to_long, bc::Value::f64(-INFINITY)).as_i64(),
            INT64_MIN);
  // (bit) of a long is its low bit, also past double's 53-bit mantissa.
  EXPECT_EQ(build_and_run(
                "class C { static bit f(long x) { return (bit) x; } }",
                bc::Value::i64((1LL << 53) + 1))
                .as_bit(),
            true);
}

// ---------------------------------------------------------------------------
// Executor ready-queue invariants over random pipelines
// ---------------------------------------------------------------------------

namespace exec_props {

using runtime::Executor;
using runtime::ExecTask;
using runtime::FifoSignal;
using runtime::ValueFifo;
using StepResult = ExecTask::StepResult;

/// Shared instrumentation. Deterministic mode is single-threaded, so plain
/// ints suffice.
struct Probe {
  int retired = 0;         // total retired() calls
  int steps_after_done = 0;  // steps on a task that already returned kDone
};

class Stage : public ExecTask {
 public:
  Stage(Probe* probe) : probe_(probe) {}

  StepResult step() final {
    if (done_) {
      // The executor must never step a task after its kDone step.
      ++probe_->steps_after_done;
      return StepResult::kDone;
    }
    StepResult r = run();
    if (r == StepResult::kDone) done_ = true;
    return r;
  }
  void retired() final { ++probe_->retired; }

 protected:
  virtual StepResult run() = 0;
  Probe* probe_;

 private:
  bool done_ = false;
};

/// Pushes 0..n-1 then finishes the stream. Transfers at most `slice`
/// values per step so schedules interleave at value granularity.
class Source final : public Stage {
 public:
  Source(Probe* p, ValueFifo* out, int n, int slice)
      : Stage(p), out_(out), n_(n), slice_(slice) {}

  StepResult run() override {
    for (int moved = 0; moved < slice_ && next_ < n_; ++moved) {
      bc::Value v = bc::Value::i32(next_);
      FifoSignal s = out_->try_push(v);
      if (s == FifoSignal::kWouldBlock) return StepResult::kBlocked;
      if (s == FifoSignal::kShutdown) return StepResult::kDone;
      ++next_;
    }
    if (next_ < n_) return StepResult::kReady;
    out_->finish();
    return StepResult::kDone;
  }

 private:
  ValueFifo* out_;
  int next_ = 0;
  const int n_, slice_;
};

/// Pops, increments, pushes. Propagates end-of-stream downstream and
/// shutdown in both directions, like the runtime's filter tasks.
class Relay final : public Stage {
 public:
  Relay(Probe* p, ValueFifo* in, ValueFifo* out, int slice)
      : Stage(p), in_(in), out_(out), slice_(slice) {}

  StepResult run() override {
    for (int moved = 0; moved < slice_; ++moved) {
      if (staged_) {
        FifoSignal s = out_->try_push(*staged_);
        if (s == FifoSignal::kWouldBlock) return StepResult::kBlocked;
        if (s == FifoSignal::kShutdown) {
          in_->close();
          return StepResult::kDone;
        }
        staged_.reset();
      }
      bc::Value v;
      switch (in_->try_pop(&v)) {
        case FifoSignal::kOk:
          staged_ = bc::Value::i32(v.as_i32() + 1);
          break;
        case FifoSignal::kWouldBlock:
          return StepResult::kBlocked;
        case FifoSignal::kEndOfStream:
        case FifoSignal::kShutdown:
          out_->finish();
          return StepResult::kDone;
      }
    }
    return StepResult::kReady;
  }

 private:
  ValueFifo* in_;
  ValueFifo* out_;
  std::optional<bc::Value> staged_;
  const int slice_;
};

/// Drains the chain, recording what arrived.
class Sink final : public Stage {
 public:
  Sink(Probe* p, ValueFifo* in, std::vector<int32_t>* got)
      : Stage(p), in_(in), got_(got) {}

  StepResult run() override {
    for (;;) {
      bc::Value v;
      switch (in_->try_pop(&v)) {
        case FifoSignal::kOk:
          got_->push_back(v.as_i32());
          break;
        case FifoSignal::kWouldBlock:
          return StepResult::kBlocked;
        case FifoSignal::kEndOfStream:
        case FifoSignal::kShutdown:
          return StepResult::kDone;
      }
    }
  }

 private:
  ValueFifo* in_;
  std::vector<int32_t>* got_;
};

/// Fault injector: after `delay` steps, closes a queue mid-run.
class Closer final : public Stage {
 public:
  Closer(Probe* p, ValueFifo* target, int delay)
      : Stage(p), target_(target), delay_(delay) {}

  StepResult run() override {
    if (delay_-- > 0) return StepResult::kReady;
    target_->close();
    return StepResult::kDone;
  }

 private:
  ValueFifo* target_;
  int delay_;
};

struct Chain {
  std::vector<std::unique_ptr<ValueFifo>> fifos;
  std::vector<std::unique_ptr<Stage>> tasks;
  std::vector<int32_t> got;
  int relays = 0;
  int n = 0;
};

Chain build_chain(SplitMix64& rng, Probe* probe) {
  Chain c;
  c.relays = 1 + static_cast<int>(rng.next_below(4));
  c.n = static_cast<int>(rng.next_below(120));
  for (int i = 0; i < c.relays + 1; ++i) {
    c.fifos.push_back(std::make_unique<ValueFifo>(1 + rng.next_below(3)));
  }
  int slice = 1 + static_cast<int>(rng.next_below(4));
  c.tasks.push_back(
      std::make_unique<Source>(probe, c.fifos[0].get(), c.n, slice));
  for (int i = 0; i < c.relays; ++i) {
    c.tasks.push_back(std::make_unique<Relay>(
        probe, c.fifos[static_cast<size_t>(i)].get(),
        c.fifos[static_cast<size_t>(i) + 1].get(), slice));
  }
  c.tasks.push_back(
      std::make_unique<Sink>(probe, c.fifos.back().get(), &c.got));
  return c;
}

void wire_and_run(Executor& ex, Chain& c, Probe& probe, size_t extra_tasks) {
  // fifo i sits between task i (producer) and task i+1 (consumer).
  for (size_t i = 0; i < c.fifos.size(); ++i) {
    ExecTask* prod = c.tasks[i].get();
    ExecTask* cons = c.tasks[i + 1].get();
    c.fifos[i]->set_producer_waker([&ex, prod] { ex.wake(prod); });
    c.fifos[i]->set_consumer_waker([&ex, cons] { ex.wake(cons); });
  }
  for (auto& t : c.tasks) ex.submit(t.get());
  int total = static_cast<int>(c.tasks.size() + extra_tasks);
  ex.drive([&] { return probe.retired >= total; });
}

class ExecutorChainProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorChainProperty, DrainsExactlyOnceInOrder) {
  SplitMix64 rng(GetParam() * 0x9E3779B97F4A7C15ull + 1);
  for (int round = 0; round < 6; ++round) {
    Probe probe;
    Executor::Options opts;
    opts.seed = rng.next() | 1;
    Executor ex(opts);
    Chain c = build_chain(rng, &probe);
    wire_and_run(ex, c, probe, 0);

    // Every element arrives exactly once, in order, bumped once per relay.
    ASSERT_EQ(c.got.size(), static_cast<size_t>(c.n)) << "round " << round;
    for (int i = 0; i < c.n; ++i) {
      ASSERT_EQ(c.got[static_cast<size_t>(i)], i + c.relays)
          << "round " << round;
    }
    EXPECT_EQ(probe.retired, static_cast<int>(c.tasks.size()));
    EXPECT_EQ(probe.steps_after_done, 0);
  }
}

TEST_P(ExecutorChainProperty, MidRunCloseNeverLosesWakeupsOrTasks) {
  SplitMix64 rng(GetParam() * 0xD1B54A32D192ED03ull + 7);
  for (int round = 0; round < 6; ++round) {
    Probe probe;
    Executor::Options opts;
    opts.seed = rng.next() | 1;
    Executor ex(opts);
    Chain c = build_chain(rng, &probe);
    ValueFifo* victim =
        c.fifos[rng.next_below(c.fifos.size())].get();
    Closer closer(&probe, victim, static_cast<int>(rng.next_below(200)));
    ex.submit(&closer);
    // drive() returning at all is the lost-wakeup check: a consumer left
    // parked on the closed queue would stall the schedule, and the
    // deterministic executor turns that into a deadlock error.
    wire_and_run(ex, c, probe, 1);

    EXPECT_EQ(probe.retired, static_cast<int>(c.tasks.size()) + 1);
    EXPECT_EQ(probe.steps_after_done, 0);
    // Whatever did arrive is an in-order prefix: close discards queued
    // values but can neither reorder nor duplicate delivered ones.
    ASSERT_LE(c.got.size(), static_cast<size_t>(c.n));
    for (size_t i = 0; i < c.got.size(); ++i) {
      ASSERT_EQ(c.got[i], static_cast<int32_t>(i) + c.relays)
          << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorChainProperty,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace exec_props

}  // namespace
}  // namespace lm
