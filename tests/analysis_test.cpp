// Tests for the whole-program static analysis framework (DESIGN.md §S11).
//
// The fixture harness reads `// expect: LM101` comments out of the Lime
// source itself: each entry names a code that must be reported on that
// line (or `LM204@any` for diagnostics whose location is the graph root).
// The harness also fails on any *unexpected* coded warning or error, so
// every fixture doubles as a false-positive check. Notes (LM4xx) are
// informational and exempt.
//
// Beyond the fixtures: the effect-verifier demotion differential (an
// impure `local` filter must run bytecode-only and still compute the same
// function), and a zero-false-positive sweep over every shipped workload
// and example.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/cfg.h"
#include "ir/task_graph.h"
#include "lime/frontend.h"
#include "runtime/fifo.h"
#include "runtime/liquid_runtime.h"
#include "tests/lime_test_util.h"
#include "workloads/workloads.h"

namespace lm::analysis {
namespace {

using bc::Value;

// ---------------------------------------------------------------------------
// Expected-diagnostic harness
// ---------------------------------------------------------------------------

struct ExpectedDiag {
  std::string code;
  int line = 0;        // 1-based source line
  bool any_line = false;
};

/// Parses `// expect: LM101` / `// expect: LM203 LM204@any` comments.
/// Each bare code expects a diagnostic on the comment's own line; `@any`
/// drops the location constraint.
std::vector<ExpectedDiag> parse_expectations(const std::string& src) {
  std::vector<ExpectedDiag> out;
  std::istringstream in(src);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto pos = line.find("// expect:");
    if (pos == std::string::npos) continue;
    std::istringstream items(line.substr(pos + 10));
    std::string item;
    while (items >> item) {
      ExpectedDiag e;
      auto at = item.find('@');
      e.code = item.substr(0, at);
      if (at == std::string::npos) {
        e.line = lineno;
      } else if (item.substr(at + 1) == "any") {
        e.any_line = true;
      } else {
        e.line = std::stoi(item.substr(at + 1));
      }
      out.push_back(std::move(e));
    }
  }
  return out;
}

/// Every expectation must be met, and every coded warning/error must be
/// expected (notes are informational and exempt).
void check_against(const std::string& src, const DiagnosticEngine& diags) {
  auto expected = parse_expectations(src);
  ASSERT_FALSE(expected.empty()) << "fixture has no // expect: comments";
  auto matches = [](const ExpectedDiag& e, const Diagnostic& d) {
    return d.code == e.code &&
           (e.any_line || d.loc.line == static_cast<uint32_t>(e.line));
  };
  for (const auto& e : expected) {
    bool found = false;
    for (const auto& d : diags.diagnostics()) found |= matches(e, d);
    EXPECT_TRUE(found) << "missing " << e.code << " at line "
                       << (e.any_line ? std::string("<any>")
                                      : std::to_string(e.line))
                       << "; diagnostics were:\n"
                       << diags.to_string();
  }
  for (const auto& d : diags.diagnostics()) {
    if (d.severity == Severity::kNote || d.code.empty()) continue;
    bool wanted = false;
    for (const auto& e : expected) wanted |= matches(e, d);
    EXPECT_TRUE(wanted) << "unexpected diagnostic: " << to_string(d);
  }
}

/// Frontend → graph extraction → analyze_program, then check expectations.
void expect_analysis(const std::string& src) {
  auto fr = lime::testing::compile_ok(src);
  ASSERT_TRUE(fr.ok());
  DiagnosticEngine extract_diags;
  auto graphs = ir::extract_task_graphs(*fr.program, extract_diags);
  ASSERT_FALSE(extract_diags.has_errors()) << extract_diags.to_string();
  AnalysisResult ar = analyze_program(*fr.program, graphs);
  check_against(src, ar.diags);
}

// ---------------------------------------------------------------------------
// LM101–LM103: definite assignment + constant propagation
// ---------------------------------------------------------------------------

TEST(DefiniteAssignment, UseBeforeInitOnOneBranch) {
  expect_analysis(R"(
public class A {
  static int f(int n) {
    int x;
    if (n > 0) { x = 1; }
    return x;  // expect: LM101
  }
}
)");
}

TEST(DefiniteAssignment, BothBranchesAssignIsClean) {
  const char* src = R"(
public class A {
  static int f(int n) {
    int x;
    if (n > 0) { x = 1; } else { x = 2; }
    return x;
  }
}
)";
  auto fr = lime::testing::compile_ok(src);
  DiagnosticEngine gd;
  auto graphs = ir::extract_task_graphs(*fr.program, gd);
  AnalysisResult ar = analyze_program(*fr.program, graphs);
  EXPECT_EQ(ar.diags.diagnostics().size(), 0u) << ar.diags.to_string();
}

TEST(ConstantPropagation, ConstantIndexOutOfBounds) {
  expect_analysis(R"(
public class A {
  static int f() {
    int[] a = new int[3];
    a[3] = 7;      // expect: LM102
    return a[0];
  }
}
)");
}

// A branch condition and `.length` pin values too, and a freeze keeps
// its source's length.
TEST(ConstantPropagation, BranchAndLengthPinIndices) {
  expect_analysis(R"(
public class A {
  static int f(int i) {
    int[] a = new int[3];
    int[[]] b = new int[[]](a);
    if (i == 3) {
      return b[i];  // expect: LM102
    }
    return a[a.length - 1] + b[b.length];  // expect: LM102
  }
}
)");
}

TEST(ConstantPropagation, ShiftWiderThanOperand) {
  expect_analysis(R"(
public class A {
  static int f(int x) {
    return x << 32;  // expect: LM103
  }
}
)");
}

// ---------------------------------------------------------------------------
// LM110–LM111: the effect/isolation verifier
// ---------------------------------------------------------------------------

/// An impure `local` method: sema's purity rules admit it (the static
/// field is final and the element store goes through the final reference)
/// but the effect verifier must catch the mutation and demote the task.
const char* sneak_source() {
  return R"(
public class Sneak {
  static final int[] scratch = new int[1];
  local static int taint(int x) {
    scratch[0] = scratch[0] + x;
    return x + scratch[0];
  }
  static int[[]] run(int[[]] data) {
    int[] result = new int[data.length];
    var g = data.source(1) => ([ task taint ]) => result.<int>sink();
    g.finish();
    return new int[[]](result);
  }
}
)";
}

TEST(EffectVerifier, LocalMethodMutatingStaticArrayIsFlagged) {
  expect_analysis(R"(
public class Sneak {
  static final int[] scratch = new int[1];
  local static int taint(int x) {  // expect: LM110
    scratch[0] = scratch[0] + x;
    return x + scratch[0];
  }
  static int[[]] run(int[[]] data) {
    int[] result = new int[data.length];
    var g = data.source(1) => ([ task taint ]) => result.<int>sink();
    g.finish();
    return new int[[]](result);
  }
}
)");
}

TEST(EffectVerifier, PureMethodReadingFieldWrittenElsewhere) {
  expect_analysis(R"(
public class B {
  static final int[] cell = new int[1];
  local static int peek(int x) {  // expect: LM111
    return x + cell[0];
  }
  static void poke(int v) {
    cell[0] = v;
  }
}
)");
}

TEST(EffectVerifier, FreshArrayScratchIsNotAMutation) {
  const char* src = R"(
public class C {
  local static int f(int x) {
    int[] t = new int[2];
    t[0] = x;
    t[1] = t[0] + 1;
    return t[1];
  }
}
)";
  auto fr = lime::testing::compile_ok(src);
  DiagnosticEngine gd;
  auto graphs = ir::extract_task_graphs(*fr.program, gd);
  AnalysisResult ar = analyze_program(*fr.program, graphs);
  EXPECT_EQ(ar.diags.diagnostics().size(), 0u) << ar.diags.to_string();
  EXPECT_TRUE(ar.demoted.empty());
}

TEST(EffectVerifier, DemotedSetNamesTheOffendingMethod) {
  auto fr = lime::testing::compile_ok(sneak_source());
  DiagnosticEngine gd;
  auto graphs = ir::extract_task_graphs(*fr.program, gd);
  AnalysisResult ar = analyze_program(*fr.program, graphs);
  EXPECT_EQ(ar.demoted.count("Sneak.taint"), 1u);
  EXPECT_EQ(ar.demoted.size(), 1u);
}

// ---------------------------------------------------------------------------
// LM201–LM205: task-graph hazards
// ---------------------------------------------------------------------------

TEST(GraphHazards, ConstructedButNeverStarted) {
  expect_analysis(R"(
public class G {
  local static int id(int x) { return x; }
  static void run(int[[]] data) {
    int[] out = new int[4];
    var g = data.source(1) => ([ task id ]) => out.<int>sink();  // expect: LM201
  }
}
)");
}

TEST(GraphHazards, SelfConnectedGraphValue) {
  expect_analysis(R"(
public class G {
  local static int id(int x) { return x; }
  static void run(int[[]] data) {
    int[] out = new int[4];
    var g = data.source(1) => ([ task id ]) => out.<int>sink();  // expect: LM203
    g => g;  // expect: LM202
    g.finish();
  }
}
)");
}

TEST(GraphHazards, GraphValueInTwoConnections) {
  expect_analysis(R"(
public class G {
  local static int id(int x) { return x; }
  static void run(int[[]] data) {
    int[] out = new int[4];
    int[] out2 = new int[4];
    var g = data.source(1) => ([ task id ]) => out.<int>sink();  // expect: LM203
    g.finish();
    var h = g => out2.<int>sink();
    h.finish();
  }
}
)");
}

TEST(GraphHazards, SourceAndSinkShareStorage) {
  expect_analysis(R"(
public class G {
  local static int id(int x) { return x; }
  static void run() {
    int[] buf = new int[4];
    var g = buf.source(1) => ([ task id ]) => buf.<int>sink();  // expect: LM202
    g.finish();
  }
}
)");
}

TEST(GraphHazards, NonPositiveSourceRate) {
  expect_analysis(R"(
public class G {
  local static int id(int x) { return x; }
  static void run(int[[]] data) {
    int[] out = new int[4];
    var g = data.source(0) => ([ task id ]) => out.<int>sink();  // expect: LM204
    g.finish();
  }
}
)");
}

TEST(GraphHazards, FilterArityDoesNotDivideStreamLength) {
  expect_analysis(R"(
public class G {
  local static int add2(int a, int b) { return a + b; }
  static void run() {
    int[[]] src = new int[[]](new int[5]);
    int[] out = new int[4];
    var g = src.source(1) => ([ task add2 ]) => out.<int>sink();  // expect: LM204
    g.finish();
  }
}
)");
}

TEST(GraphHazards, SharedMutableFieldAcrossRelocationBrackets) {
  expect_analysis(R"(
public class G {
  static final int[] acc = new int[1];
  local static int w(int x) {  // expect: LM110
    acc[0] = x;
    return x;
  }
  local static int r(int x) {  // expect: LM111
    return x + acc[0];
  }
  static void run(int[[]] data) {
    int[] out = new int[4];
    var g = data.source(1) => ([ task w ]) => ([ task r ]) => out.<int>sink();  // expect: LM205
    g.finish();
  }
}
)");
}

// ---------------------------------------------------------------------------
// LM401/LM402: suitability findings carry locations and reasons
// ---------------------------------------------------------------------------

TEST(Suitability, ExclusionsCarrySourceLocationsAndReasons) {
  // The filter allocates an array: excluded by both device backends.
  const char* src = R"(
public class Ex {
  local static int f(int x) {
    int[] t = new int[2];
    t[0] = x;
    return t[0];
  }
  static int[[]] run(int[[]] data) {
    int[] result = new int[data.length];
    var g = data.source(1) => ([ task f ]) => result.<int>sink();
    g.finish();
    return new int[[]](result);
  }
}
)";
  auto cp = runtime::compile(src);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  bool saw_gpu = false, saw_fpga = false;
  for (const auto& f : cp->suitability) {
    if (f.code == "LM401") {
      saw_gpu = true;
      EXPECT_EQ(f.device, runtime::DeviceKind::kGpu);
    }
    if (f.code == "LM402") {
      saw_fpga = true;
      EXPECT_EQ(f.device, runtime::DeviceKind::kFpga);
    }
    EXPECT_EQ(f.task_id, "Ex.f");
    EXPECT_GT(f.loc.line, 0) << f.code << ": " << f.reason;
    EXPECT_FALSE(f.reason.empty());
  }
  EXPECT_TRUE(saw_gpu);
  EXPECT_TRUE(saw_fpga);
  // A pure fresh-array scratch is not a mutation: no demotion here.
  EXPECT_TRUE(cp->demoted_tasks.empty());
}

// ---------------------------------------------------------------------------
// Effect-verifier demotion, end to end
// ---------------------------------------------------------------------------

Value run_sneak(runtime::Placement placement,
                std::unique_ptr<runtime::CompiledProgram>* out_cp = nullptr) {
  auto cp = runtime::compile(sneak_source());
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  runtime::RuntimeConfig rc;
  rc.placement = placement;
  runtime::LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input = {1, 2, 3, 4};
  Value result =
      rt.call("Sneak.run", {Value::array(bc::make_i32_array(input, true))});
  if (out_cp) {
    // Keep the program alive for inspection; record the substitution too.
    EXPECT_EQ(rt.stats().substitutions.size(), 1u);
    if (!rt.stats().substitutions.empty()) {
      EXPECT_EQ(rt.stats().substitutions[0].device, runtime::DeviceKind::kCpu);
    }
    *out_cp = std::move(cp);
  }
  return result;
}

TEST(EffectDemotion, ImpureLocalTaskRunsBytecodeOnlyAndMatchesCpu) {
  std::unique_ptr<runtime::CompiledProgram> cp;
  Value auto_result = run_sneak(runtime::Placement::kAuto, &cp);
  ASSERT_TRUE(cp != nullptr);

  // The verifier flagged the task and the driver demoted it.
  EXPECT_EQ(cp->demoted_tasks.count("Sneak.taint"), 1u);
  bool saw_lm110 = false;
  for (const auto& d : cp->diags.diagnostics()) {
    if (d.code == "LM110") {
      saw_lm110 = true;
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
  EXPECT_TRUE(saw_lm110) << cp->diags.to_string();

  // Both backends recorded the demotion as an LM403 note finding.
  int lm403 = 0;
  for (const auto& f : cp->suitability) {
    if (f.code == "LM403" && f.task_id == "Sneak.taint") ++lm403;
  }
  EXPECT_GE(lm403, 2);

  // No accelerator artifact exists for the demoted task.
  for (const auto* a : cp->store.lookup("Sneak.taint")) {
    EXPECT_EQ(a->manifest().device, runtime::DeviceKind::kCpu);
  }

  // Differential: auto placement (which would have relocated the task had
  // it not been demoted) computes exactly what all-CPU computes. The task
  // carries order-dependent state, so equality here is meaningful.
  Value cpu_result = run_sneak(runtime::Placement::kCpuOnly);
  EXPECT_TRUE(workloads::results_match(auto_result, cpu_result, 0.0));
}

// ---------------------------------------------------------------------------
// Zero false positives over everything the repo ships
// ---------------------------------------------------------------------------

void expect_no_findings(const std::string& source, const std::string& label) {
  auto cp = runtime::compile(source);
  ASSERT_TRUE(cp->ok()) << label << ":\n" << cp->diags.to_string();
  for (const auto& d : cp->diags.diagnostics()) {
    EXPECT_EQ(d.severity, Severity::kNote)
        << label << " has a non-note finding: " << to_string(d);
  }
  EXPECT_EQ(cp->diags.warning_count(), 0) << label;
  EXPECT_TRUE(cp->demoted_tasks.empty())
      << label << " had a task demoted by the effect verifier";
}

TEST(ZeroFalsePositives, GpuSuiteIsClean) {
  for (const auto& w : workloads::gpu_suite()) {
    expect_no_findings(w.lime_source, w.name);
  }
}

TEST(ZeroFalsePositives, PipelineSuiteIsClean) {
  for (const auto& w : workloads::pipeline_suite()) {
    expect_no_findings(w.lime_source, w.name);
  }
}

TEST(ZeroFalsePositives, ShippedExamplesAreClean) {
  std::ifstream in(std::string(LM_REPO_DIR) + "/examples/bitflip.lime");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  expect_no_findings(buf.str(), "examples/bitflip.lime");
}

TEST(ZeroFalsePositives, Figure1IsClean) {
  expect_no_findings(lime::testing::figure1_source(), "figure1");
}

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

const lime::MethodDecl* find_method(const lime::Program& p,
                                    const std::string& name) {
  for (const auto& c : p.classes) {
    for (const auto& m : c->methods) {
      if (m->name == name) return m.get();
    }
  }
  return nullptr;
}

void check_cfg_well_formed(const Cfg& cfg) {
  const int n = static_cast<int>(cfg.blocks.size());
  for (int b = 0; b < n; ++b) {
    for (int s : cfg.blocks[b].succs) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, n);
      const auto& preds = cfg.blocks[s].preds;
      EXPECT_NE(std::find(preds.begin(), preds.end(), b), preds.end())
          << "edge " << b << "->" << s << " missing the reverse pred edge";
    }
  }
}

TEST(CfgBuild, StraightLineMethod) {
  auto fr = lime::testing::compile_ok(R"(
public class A {
  static int f(int x) {
    int y = x + 1;
    return y * 2;
  }
}
)");
  const auto* m = find_method(*fr.program, "f");
  ASSERT_NE(m, nullptr);
  Cfg cfg = build_cfg(*m);
  check_cfg_well_formed(cfg);
  auto rpo = reverse_post_order(cfg);
  ASSERT_FALSE(rpo.empty());
  EXPECT_EQ(rpo.front(), Cfg::kEntry);
  EXPECT_NE(std::find(rpo.begin(), rpo.end(), Cfg::kExit), rpo.end());
}

TEST(CfgBuild, BranchAndLoopShapes) {
  auto fr = lime::testing::compile_ok(R"(
public class A {
  static int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
    }
    while (acc > 100) { acc = acc / 2; }
    return acc;
  }
}
)");
  const auto* m = find_method(*fr.program, "f");
  ASSERT_NE(m, nullptr);
  Cfg cfg = build_cfg(*m);
  check_cfg_well_formed(cfg);
  // Entry, exit, loop headers/bodies, both branch arms, join blocks.
  EXPECT_GE(cfg.blocks.size(), 8u);
  auto rpo = reverse_post_order(cfg);
  EXPECT_EQ(rpo.front(), Cfg::kEntry);
  // Every block in RPO exactly once.
  std::vector<int> seen(cfg.blocks.size(), 0);
  for (int b : rpo) seen[static_cast<size_t>(b)]++;
  for (int b : rpo) EXPECT_EQ(seen[static_cast<size_t>(b)], 1);
}

TEST(CfgBuild, CodeAfterReturnIsUnreachable) {
  auto fr = lime::testing::compile_ok(R"(
public class A {
  static int f(int x) {
    return x;
    int dead = 1;
    return dead;
  }
}
)");
  const auto* m = find_method(*fr.program, "f");
  ASSERT_NE(m, nullptr);
  Cfg cfg = build_cfg(*m);
  check_cfg_well_formed(cfg);
  auto rpo = reverse_post_order(cfg);
  // The dead block is absent from RPO: fewer blocks reachable than built.
  EXPECT_LT(rpo.size(), cfg.blocks.size());
}

// ---------------------------------------------------------------------------
// Task-graph runtime edge cases (satellite: fifo + graph shapes)
// ---------------------------------------------------------------------------

TEST(FifoEdgeCases, ZeroCapacityClampsToOne) {
  runtime::ValueFifo f(0);
  EXPECT_TRUE(f.push(Value::i32(7)));  // must not deadlock
  auto v = f.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_i32(), 7);
  f.finish();
  EXPECT_FALSE(f.pop().has_value());
}

TEST(GraphEdgeCases, DisconnectedSubgraphStillWarnsAndProgramRuns) {
  // The second graph is built but never started: the analyzer warns
  // (LM201) and execution of the started graph is unaffected.
  const char* src = R"(
public class G {
  local static int twice(int x) { return 2 * x; }
  static int[[]] run(int[[]] data) {
    int[] out = new int[data.length];
    int[] orphan = new int[data.length];
    var g = data.source(1) => ([ task twice ]) => out.<int>sink();
    var dead = data.source(1) => ([ task twice ]) => orphan.<int>sink();
    g.finish();
    return new int[[]](out);
  }
}
)";
  auto cp = runtime::compile(src);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  bool saw201 = false;
  for (const auto& d : cp->diags.diagnostics()) saw201 |= d.code == "LM201";
  EXPECT_TRUE(saw201) << cp->diags.to_string();

  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kCpuOnly;
  runtime::LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input = {3, 5, 8};
  Value out =
      rt.call("G.run", {Value::array(bc::make_i32_array(input, true))});
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(bc::array_get(a, i).as_i32(), 2 * input[i]);
  }
}

}  // namespace
}  // namespace lm::analysis
