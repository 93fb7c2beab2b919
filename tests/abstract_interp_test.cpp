// Tests for the abstract-interpretation tier (DESIGN.md §13): the interval
// domain and its widening solver, loop trip counts, the static cost
// estimator and its runtime seeding, and the FIFO capacity / deadlock
// verifier (LM210–LM214).
//
// The headline property tests:
//   * Spearman rank correlation ≥ 0.8 between the static cost model and
//     measured EWMA costs across the pipeline suite's artifacts.
//   * Cold-start placement (adaptive with calibration disabled) picks the
//     same device as a warmed adaptive run on ≥ 80% of pipeline tasks.
//   * The pipeline suite computes identical results at the verifier's
//     minimal safe FIFO capacities and at the default capacity.
//   * Widening terminates quickly even on nested 10k-iteration loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/cost_estimate.h"
#include "analysis/deadlock.h"
#include "analysis/intervals.h"
#include "ir/task_graph.h"
#include "obs/cost_model.h"
#include "runtime/liquid_runtime.h"
#include "tests/lime_test_util.h"
#include "workloads/workloads.h"

namespace lm::analysis {
namespace {

using bc::Value;
using runtime::Artifact;
using runtime::DeviceKind;
using runtime::LiquidRuntime;
using runtime::Placement;
using runtime::RuntimeConfig;
using workloads::Workload;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

const lime::MethodDecl* find_method(const lime::Program& p,
                                    const std::string& cls,
                                    const std::string& m) {
  const auto* c = p.find_class(cls);
  EXPECT_NE(c, nullptr) << "no class " << cls;
  if (!c) return nullptr;
  const auto* md = c->find_method(m);
  EXPECT_NE(md, nullptr) << "no method " << cls << "." << m;
  return md;
}

/// Frontend + graph extraction + analyze_program, keeping everything the
/// AnalysisResult points into alive.
struct Analyzed {
  lime::FrontendResult fr;
  ir::ProgramTaskGraphs graphs;
  AnalysisResult result;
};

Analyzed analyze_src(const std::string& src, const AnalysisOptions& opts = {}) {
  Analyzed a{lime::testing::compile_ok(src), {}, {}};
  EXPECT_TRUE(a.fr.ok());
  DiagnosticEngine extract_diags;
  a.graphs = ir::extract_task_graphs(*a.fr.program, extract_diags);
  EXPECT_FALSE(extract_diags.has_errors()) << extract_diags.to_string();
  a.result = analyze_program(*a.fr.program, a.graphs, opts);
  return a;
}

const Diagnostic* find_code(const DiagnosticEngine& d, const std::string& c) {
  for (const auto& di : d.diagnostics()) {
    if (di.code == c) return &di;
  }
  return nullptr;
}

int count_code(const DiagnosticEngine& d, const std::string& c) {
  int n = 0;
  for (const auto& di : d.diagnostics()) n += di.code == c;
  return n;
}

// ---------------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------------

TEST(IntervalDomain, JoinMeetBasics) {
  Interval a = Interval::range(0, 10);
  Interval b = Interval::range(5, 20);
  EXPECT_EQ(join(a, b), Interval::range(0, 20));
  EXPECT_EQ(meet(a, b), Interval::range(5, 10));
  EXPECT_TRUE(meet(Interval::range(0, 1), Interval::range(5, 9)).is_bottom());
  EXPECT_EQ(join(Interval::bottom(), a), a);
  EXPECT_TRUE(meet(Interval::bottom(), a).is_bottom());
  EXPECT_EQ(join(a, Interval::top()), Interval::top());
}

TEST(IntervalDomain, WideningJumpsGrownEndpointsToInfinity) {
  Interval prev = Interval::range(0, 10);
  Interval grown = Interval::range(0, 11);
  Interval w = widen(prev, grown);
  EXPECT_EQ(w.lo, 0);
  EXPECT_EQ(w.hi, Interval::kPosInf);
  Interval shrunk_lo = widen(Interval::range(0, 10), Interval::range(-1, 10));
  EXPECT_EQ(shrunk_lo.lo, Interval::kNegInf);
  EXPECT_EQ(shrunk_lo.hi, 10);
  // Stable interval: widening is the identity.
  EXPECT_EQ(widen(prev, prev), prev);
}

TEST(IntervalDomain, ArithmeticSaturatesAndDivGuardsZero) {
  EXPECT_EQ(iv_add(Interval::range(1, 2), Interval::range(10, 20)),
            Interval::range(11, 22));
  EXPECT_EQ(iv_mul(Interval::range(-3, 2), Interval::range(4, 5)),
            Interval::range(-15, 10));
  EXPECT_EQ(iv_neg(Interval::range(-7, 3)), Interval::range(-3, 7));
  // Saturation, not wraparound.
  Interval big = iv_add(Interval::range(0, Interval::kPosInf),
                        Interval::constant(1));
  EXPECT_EQ(big.hi, Interval::kPosInf);
  // Division by a range containing zero degrades to top.
  EXPECT_TRUE(iv_div(Interval::range(10, 20), Interval::range(-1, 1)).is_top());
  EXPECT_EQ(iv_div(Interval::range(10, 21), Interval::constant(2)),
            Interval::range(5, 10));
  EXPECT_EQ(iv_min(Interval::range(0, 9), Interval::range(4, 20)),
            Interval::range(0, 9));
  EXPECT_EQ(iv_max(Interval::range(0, 9), Interval::range(4, 20)),
            Interval::range(4, 20));
  EXPECT_EQ(iv_abs(Interval::range(-5, 3)), Interval::range(0, 5));
  // An unbounded lower end may be Long.MIN_VALUE, whose abs is itself.
  EXPECT_TRUE(iv_abs(Interval::range(Interval::kNegInf, -1)).is_top());
}

// ---------------------------------------------------------------------------
// Method-level range analysis and trip counts
// ---------------------------------------------------------------------------

TEST(RangeAnalysis, StraightLineConstantsAndReturnRange) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int f() {
        int a = 4;
        int b = a * 3;
        return b + 1;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "f");
  ASSERT_NE(m, nullptr);
  RangeFacts facts = analyze_ranges(*m);
  EXPECT_TRUE(facts.converged);
  EXPECT_EQ(facts.return_range, Interval::constant(13));
}

TEST(RangeAnalysis, BranchJoinWidensReturnRange) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int f(boolean c) {
        int x = 0;
        if (c) { x = 10; } else { x = -2; }
        return x;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "f");
  ASSERT_NE(m, nullptr);
  RangeFacts facts = analyze_ranges(*m);
  EXPECT_TRUE(facts.converged);
  EXPECT_FALSE(facts.return_range.is_bottom());
  EXPECT_EQ(facts.return_range.lo, -2);
  EXPECT_EQ(facts.return_range.hi, 10);
}

// Java arithmetic wraps: inc(MAX_VALUE) and ab(MIN_VALUE) both return
// MIN_VALUE, and linc(Long.MAX_VALUE) and ldbl(Long.MAX_VALUE) are
// negative, so no return range may exclude them.
TEST(RangeAnalysis, OverflowingResultWidensToTheTypeRange) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int inc(int x) { if (x >= 0) { return x + 1; } return 0; }
      static int ab(int x) { if (x <= 0) { return Math.abs(x); } return 0; }
      static long linc(long x) { if (x >= 0) { return x + 1; } return 0; }
      static long ldbl(long x) { if (x >= 0) { return x * 2; } return 0; }
    }
  )");
  const Interval ints = Interval::range(INT32_MIN, INT32_MAX);
  for (const char* name : {"inc", "ab", "linc", "ldbl"}) {
    const auto* m = find_method(*fr.program, "C", name);
    ASSERT_NE(m, nullptr) << name;
    RangeFacts facts = analyze_ranges(*m);
    EXPECT_TRUE(facts.converged) << name;
    EXPECT_EQ(facts.return_range, name[0] == 'l' ? Interval::top() : ints)
        << name;
  }
}

TEST(RangeAnalysis, InRangeResultKeepsItsBounds) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int f(int x) {
        if (x >= 0 && x < 100) { return Math.abs(x - 50) + 1; }
        return 0;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "f");
  ASSERT_NE(m, nullptr);
  RangeFacts facts = analyze_ranges(*m);
  EXPECT_EQ(facts.return_range, Interval::range(0, 51));
}

TEST(RangeAnalysis, LiteralForLoopTripCount) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int f() {
        int acc = 0;
        for (int i = 0; i < 10; i += 1) { acc = acc + i; }
        return acc;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "f");
  ASSERT_NE(m, nullptr);
  RangeFacts facts = analyze_ranges(*m);
  ASSERT_EQ(facts.loops.size(), 1u);
  EXPECT_TRUE(facts.loops[0].bounded);
  EXPECT_EQ(facts.loops[0].max_trips, 10);
  EXPECT_EQ(facts.trips_or(facts.loops[0].stmt, -1), 10);
}

TEST(RangeAnalysis, UnknownBoundIsUnbounded) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int f(int n) {
        int acc = 0;
        int i = 0;
        while (acc >= 0) { acc = acc + n; i = i + 1; }
        return i;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "f");
  ASSERT_NE(m, nullptr);
  RangeFacts facts = analyze_ranges(*m);
  ASSERT_EQ(facts.loops.size(), 1u);
  EXPECT_FALSE(facts.loops[0].bounded);
  EXPECT_EQ(facts.trips_or(facts.loops[0].stmt, 16), 16);
}

TEST(RangeAnalysis, WideningTerminationStressNestedTenThousand) {
  // Widening must reach a fixpoint in a bounded number of block visits even
  // when iterating the loops concretely would take 10^10 steps.
  auto fr = lime::testing::compile_ok(R"(
    class C {
      static int stress() {
        int acc = 0;
        for (int i = 0; i < 10000; i += 1) {
          for (int j = 0; j < 10000; j += 1) {
            for (int k = 0; k < 100; k += 1) {
              acc = acc + 1;
            }
            acc = acc - 1;
          }
        }
        return acc;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "stress");
  ASSERT_NE(m, nullptr);
  auto t0 = std::chrono::steady_clock::now();
  RangeFacts facts = analyze_ranges(*m);
  auto t1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(facts.converged);
  // The CFG has ~a dozen blocks; the solver must not visit blocks anywhere
  // near trip-count-many times.
  EXPECT_LT(facts.solver_visits, 2000);
  EXPECT_LT(std::chrono::duration<double>(t1 - t0).count(), 2.0);
  ASSERT_EQ(facts.loops.size(), 3u);
  EXPECT_EQ(facts.loops[0].depth, 0);
  EXPECT_EQ(facts.loops[2].depth, 2);
  for (const LoopBound& lb : facts.loops) {
    EXPECT_TRUE(lb.bounded) << "loop at depth " << lb.depth;
  }
  EXPECT_EQ(facts.trips_or(facts.loops[0].stmt, -1), 10000);
  EXPECT_EQ(facts.trips_or(facts.loops[2].stmt, -1), 100);
}

// ---------------------------------------------------------------------------
// Static cost estimation
// ---------------------------------------------------------------------------

TEST(StaticCost, LoopBodiesWeightByTripCount) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      local static int one(int x) { return x + 1; }
      local static int looped(int x) {
        int acc = x;
        for (int i = 0; i < 8; i += 1) { acc = acc + i; }
        return acc;
      }
    }
  )");
  const auto* one = find_method(*fr.program, "C", "one");
  const auto* looped = find_method(*fr.program, "C", "looped");
  ASSERT_NE(one, nullptr);
  ASSERT_NE(looped, nullptr);
  OpMix m1 = count_ops(*one);
  OpMix m8 = count_ops(*looped);
  EXPECT_TRUE(m1.bounded);
  EXPECT_TRUE(m8.bounded);
  // 8 proven iterations must dominate the one-op body.
  EXPECT_GT(m8.total(), 4 * m1.total());
}

TEST(StaticCost, UnprovenLoopFallsBackToGuessAndClearsBounded) {
  auto fr = lime::testing::compile_ok(R"(
    class C {
      local static int f(int n) {
        int acc = 0;
        for (int i = 0; i < n; i += 1) { acc = acc + 1; }
        return acc;
      }
    }
  )");
  const auto* m = find_method(*fr.program, "C", "f");
  ASSERT_NE(m, nullptr);
  OpMix mix = count_ops(*m);
  EXPECT_FALSE(mix.bounded);
  EXPECT_GT(mix.total(), 0.0);
}

TEST(StaticCost, DeviceTablesRankGpuBelowCpuBelowFpga) {
  Analyzed a = analyze_src(R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      local static int offset(int x) { return x + 7; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1)
          => ([ task scale ]) => ([ task offset ])
          => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  const StaticCostModel& sc = a.result.static_costs;
  for (const char* task : {"P.scale", "P.offset"}) {
    const auto* cpu = sc.find(task, "cpu");
    const auto* gpu = sc.find(task, "gpu");
    const auto* fpga = sc.find(task, "fpga");
    ASSERT_NE(cpu, nullptr) << task;
    ASSERT_NE(gpu, nullptr) << task;
    ASSERT_NE(fpga, nullptr) << task;
    EXPECT_LT(gpu->us_per_elem, cpu->us_per_elem) << task;
    EXPECT_LT(cpu->us_per_elem, fpga->us_per_elem) << task;
    EXPECT_TRUE(cpu->bounded);
  }
  // Fused segment: shares the firing dispatch, so it must beat the summed
  // per-filter plan on the same device.
  const auto* seg = sc.find("seg:P.scale:P.offset", "gpu");
  ASSERT_NE(seg, nullptr);
  const auto* s1 = sc.find("P.scale", "gpu");
  const auto* s2 = sc.find("P.offset", "gpu");
  EXPECT_LT(seg->us_per_elem, s1->us_per_elem + s2->us_per_elem);
}

TEST(StaticCost, DemotedTasksGetNoAcceleratorRows) {
  Analyzed a = analyze_src(R"(
    class G {
      static final int[] acc = new int[1];
      local static int w(int x) {
        acc[0] = x;
        return x;
      }
      static void run(int[[]] data) {
        int[] out = new int[4];
        var g = data.source(1) => ([ task w ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  ASSERT_TRUE(a.result.demoted.count("G.w"))
      << "fixture no longer demotes G.w";
  const StaticCostModel& sc = a.result.static_costs;
  EXPECT_NE(sc.find("G.w", "cpu"), nullptr);
  EXPECT_EQ(sc.find("G.w", "gpu"), nullptr);
  EXPECT_EQ(sc.find("G.w", "fpga"), nullptr);
}

// ---------------------------------------------------------------------------
// Cost-model seeding (obs::CostEntry)
// ---------------------------------------------------------------------------

TEST(CostEntrySeeding, StaticSeedAnswersUntilFirstMeasurement) {
  obs::CostEntry e;
  EXPECT_EQ(e.source(), "none");
  EXPECT_LT(e.best_us_per_elem(), 0.0);
  e.seed_static(1.5);
  EXPECT_EQ(e.source(), "static");
  EXPECT_DOUBLE_EQ(e.best_us_per_elem(), 1.5);
  EXPECT_DOUBLE_EQ(e.static_us_per_elem(), 1.5);
  // A measurement flips the answer but never blends with the seed.
  e.record_batch(/*seconds=*/8e-6, /*elements=*/2, /*alpha=*/0.2);
  EXPECT_EQ(e.source(), "measured");
  EXPECT_DOUBLE_EQ(e.best_us_per_elem(), 4.0);
  EXPECT_DOUBLE_EQ(e.static_us_per_elem(), 1.5);
}

// ---------------------------------------------------------------------------
// Deadlock verifier: rate-graph engine
// ---------------------------------------------------------------------------

RateGraph chain(std::vector<std::pair<int64_t, int64_t>> rates) {
  RateGraph g;
  g.node_labels.resize(rates.size() + 1);
  for (size_t i = 0; i < rates.size(); ++i) {
    g.node_labels[i] = "n" + std::to_string(i);
    g.edges.push_back({static_cast<int>(i), static_cast<int>(i) + 1,
                       rates[i].first, rates[i].second});
  }
  g.node_labels.back() = "n" + std::to_string(rates.size());
  return g;
}

TEST(RateEngine, UniformChainProvenAtCapacityOne) {
  RateVerdict v = analyze_rate_graph(chain({{1, 1}, {1, 1}}), 1);
  EXPECT_TRUE(v.consistent);
  EXPECT_TRUE(v.simulated);
  EXPECT_TRUE(v.deadlock_free);
  ASSERT_EQ(v.repetitions.size(), 3u);
  EXPECT_EQ(v.repetitions, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_EQ(v.min_capacities, (std::vector<int64_t>{1, 1}));
}

TEST(RateEngine, MultiRateChainMinCapacityIsPushPlusPopMinusGcd) {
  // 3-per-fire producer into 2-per-fire consumer: min capacity 3+2-1 = 4,
  // repetitions 2:3 per hyperperiod.
  RateVerdict v = analyze_rate_graph(chain({{3, 2}}), 4);
  EXPECT_TRUE(v.consistent);
  EXPECT_TRUE(v.deadlock_free);
  EXPECT_EQ(v.repetitions, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(v.min_capacities, (std::vector<int64_t>{4}));
  // One token below the bound wedges.
  RateVerdict tight = analyze_rate_graph(chain({{3, 2}}), 3);
  EXPECT_TRUE(tight.simulated);
  EXPECT_FALSE(tight.deadlock_free);
  EXPECT_GE(tight.wedged_node, 0);
}

TEST(RateEngine, InconsistentCycleReportsLm214) {
  // A→B at 2:3 but B→A at 1:1 — no repetition vector exists.
  RateGraph g;
  g.node_labels = {"a", "b"};
  g.edges = {{0, 1, 2, 3}, {1, 0, 1, 1}};
  DiagnosticEngine diags;
  RateVerdict v = verify_rate_graph(g, 16, "cyc", {1, 1}, diags);
  EXPECT_FALSE(v.consistent);
  EXPECT_FALSE(v.inconsistent_edges.empty());
  const Diagnostic* d = find_code(diags, "LM214");
  ASSERT_NE(d, nullptr) << diags.to_string();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(diags.has_errors());
}

TEST(RateEngine, WedgedCapacityReportsLm210WithMinimalSafeCapacity) {
  DiagnosticEngine diags;
  RateVerdict v = verify_rate_graph(chain({{3, 2}}), 3, "tight", {4, 2}, diags);
  EXPECT_FALSE(v.deadlock_free);
  const Diagnostic* d = find_code(diags, "LM210");
  ASSERT_NE(d, nullptr) << diags.to_string();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("minimal safe capacity is 4"), std::string::npos)
      << d->message;
  EXPECT_EQ(d->loc.line, 4u);
}

TEST(RateEngine, HyperperiodOverBudgetDegradesToLm211) {
  // Repetitions 1 : 2^20 exceed the simulation budget; the verdict must
  // degrade to "unproven" (LM211), not stall.
  DiagnosticEngine diags;
  RateVerdict v =
      verify_rate_graph(chain({{int64_t{1} << 20, 1}}), 1 << 21, "huge",
                        {1, 1}, diags);
  EXPECT_TRUE(v.consistent);
  EXPECT_FALSE(v.simulated);
  EXPECT_FALSE(v.deadlock_free);
  const Diagnostic* d = find_code(diags, "LM211");
  ASSERT_NE(d, nullptr) << diags.to_string();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(find_code(diags, "LM210"), nullptr)
      << "an unproven graph is not a proven deadlock";
}

// ---------------------------------------------------------------------------
// Deadlock verifier: Lime task graphs (LM210–LM213)
// ---------------------------------------------------------------------------

TEST(DeadlockVerifier, CleanPipelineGetsLm212ProofCertificate) {
  Analyzed a = analyze_src(R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1) => ([ task scale ]) => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  EXPECT_FALSE(a.result.diags.has_errors()) << a.result.diags.to_string();
  EXPECT_EQ(a.result.diags.warning_count(), 0) << a.result.diags.to_string();
  const Diagnostic* d = find_code(a.result.diags, "LM212");
  ASSERT_NE(d, nullptr) << a.result.diags.to_string();
  EXPECT_EQ(d->severity, Severity::kNote);
  ASSERT_EQ(a.result.capacity_reports.size(), 1u);
  const GraphCapacityReport& rep = a.result.capacity_reports[0];
  EXPECT_TRUE(rep.proven);
  EXPECT_EQ(rep.configured_capacity, kDefaultFifoCapacity);
  EXPECT_EQ(rep.min_safe_capacity, 1);
  ASSERT_EQ(rep.edges.size(), 2u);  // source=>scale, scale=>sink
  EXPECT_EQ(rep.edges.front().label, "source=>P.scale");
  EXPECT_EQ(rep.edges.back().label, "P.scale=>sink");
}

TEST(DeadlockVerifier, UndersizedCapacityReportsLm210) {
  AnalysisOptions opts;
  opts.fifo_capacity = 2;  // source pushes 3 per firing — can never fit
  Analyzed a = analyze_src(R"(
    class P {
      local static int id(int x) { return x; }
      static void run(int[[]] data) {
        int[] out = new int[4];
        var g = data.source(3) => ([ task id ]) => out.<int>sink();
        g.finish();
      }
    }
  )",
                           opts);
  const Diagnostic* d = find_code(a.result.diags, "LM210");
  ASSERT_NE(d, nullptr) << a.result.diags.to_string();
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_EQ(a.result.capacity_reports.size(), 1u);
  EXPECT_FALSE(a.result.capacity_reports[0].proven);
  EXPECT_EQ(a.result.capacity_reports[0].min_safe_capacity, 3);
}

TEST(DeadlockVerifier, NonLiteralRateReportsLm211) {
  Analyzed a = analyze_src(R"(
    class P {
      local static int id(int x) { return x; }
      static void run(int[[]] data, int n) {
        int[] out = new int[4];
        var g = data.source(n) => ([ task id ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  const Diagnostic* d = find_code(a.result.diags, "LM211");
  ASSERT_NE(d, nullptr) << a.result.diags.to_string();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(find_code(a.result.diags, "LM212"), nullptr)
      << "no proof certificate without static rates";
}

TEST(DeadlockVerifier, StarvedFilterReportsLm213) {
  // 4 elements: add2 halves the stream to 2, add4 then needs 4 per firing
  // and can never fire at all.
  Analyzed a = analyze_src(R"(
    class P {
      local static int add2(int a, int b) { return a + b; }
      local static int add4(int a, int b, int c, int d) {
        return a + b + c + d;
      }
      static void run() {
        int[[]] src = new int[[]](new int[4]);
        int[] out = new int[4];
        var g = src.source(1) => ([ task add2 ]) => ([ task add4 ])
          => out.<int>sink();
        g.finish();
      }
    }
  )");
  const Diagnostic* d = find_code(a.result.diags, "LM213");
  ASSERT_NE(d, nullptr) << a.result.diags.to_string();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("P.add4"), std::string::npos) << d->message;
  EXPECT_EQ(count_code(a.result.diags, "LM213"), 1)
      << "downstream starvation must not cascade";
}

// ---------------------------------------------------------------------------
// Diagnostic ordering (DiagnosticEngine::sorted regression)
// ---------------------------------------------------------------------------

TEST(DiagnosticOrdering, SameLocationSortsByCodeRegardlessOfInsertion) {
  // LM21x diagnostics anchor on the same graph literal as LM20x ones; the
  // rendered order must not depend on which pass ran first.
  std::vector<Diagnostic> batch = {
      {Severity::kNote, {26, 7}, "proof certificate", "LM212"},
      {Severity::kWarning, {26, 7}, "shared storage", "LM202"},
      {Severity::kError, {26, 7}, "wedges", "LM210"},
      {Severity::kWarning, {12, 3}, "unproven", "LM211"},
  };
  std::vector<std::string> forward;
  {
    DiagnosticEngine d;
    for (const auto& di : batch) d.report(di.severity, di.code, di.loc,
                                          di.message);
    for (const auto& di : d.sorted()) forward.push_back(di.code);
  }
  std::vector<std::string> backward;
  {
    DiagnosticEngine d;
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      d.report(it->severity, it->code, it->loc, it->message);
    }
    for (const auto& di : d.sorted()) backward.push_back(di.code);
  }
  EXPECT_EQ(forward,
            (std::vector<std::string>{"LM211", "LM202", "LM210", "LM212"}));
  EXPECT_EQ(forward, backward)
      << "sorted() must be a total order, independent of insertion order";
}

// ---------------------------------------------------------------------------
// Property: static ranking vs measured EWMA (Spearman ≥ 0.8)
// ---------------------------------------------------------------------------

std::vector<double> ranks_of(const std::vector<double>& xs) {
  std::vector<size_t> idx(xs.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> r(xs.size());
  size_t i = 0;
  while (i < idx.size()) {
    size_t j = i;
    while (j + 1 < idx.size() && xs[idx[j + 1]] == xs[idx[i]]) ++j;
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) r[idx[k]] = avg;
    i = j + 1;
  }
  return r;
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> ra = ranks_of(a), rb = ranks_of(b);
  double ma = 0, mb = 0;
  for (size_t i = 0; i < ra.size(); ++i) {
    ma += ra[i];
    mb += rb[i];
  }
  ma /= static_cast<double>(ra.size());
  mb /= static_cast<double>(rb.size());
  double num = 0, da = 0, db = 0;
  for (size_t i = 0; i < ra.size(); ++i) {
    num += (ra[i] - ma) * (rb[i] - mb);
    da += (ra[i] - ma) * (ra[i] - ma);
    db += (rb[i] - mb) * (rb[i] - mb);
  }
  if (da == 0 || db == 0) return 1.0;
  return num / std::sqrt(da * db);
}

TEST(SpearmanSanity, PerfectAndInvertedRankings) {
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3}, {10, 20, 30}), 1.0);
  EXPECT_DOUBLE_EQ(spearman({1, 2, 3}, {30, 20, 10}), -1.0);
}

DeviceKind device_of(const std::string& key) {
  if (key == "gpu") return DeviceKind::kGpu;
  if (key == "fpga") return DeviceKind::kFpga;
  return DeviceKind::kCpu;
}

TEST(StaticVsMeasured, SpearmanRankCorrelationAtLeastPointEight) {
  std::vector<double> stat, meas;
  for (const Workload& w : workloads::pipeline_suite()) {
    auto cp = runtime::compile(w.lime_source);
    ASSERT_TRUE(cp->ok()) << w.name << ":\n" << cp->diags.to_string();
    const bool bits = w.name == "bitpipe";
    for (const StaticCostEstimate& e : cp->static_costs.estimates) {
      Artifact* a = cp->store.find(e.task_id, device_of(e.device));
      if (!a) continue;  // e.g. no fused CPU artifact is ever built
      auto arity = static_cast<size_t>(a->manifest().arity);
      size_t n = (128 / std::max<size_t>(arity, 1)) * arity;
      if (n == 0) continue;
      std::vector<Value> in;
      in.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        in.push_back(bits ? Value::bit((i & 1) != 0)
                          : Value::i32(static_cast<int32_t>(i % 50 + 1)));
      }
      // Warm once, then feed the better of two timed runs into a fresh
      // EWMA entry — the same measurement the adaptive calibrator makes.
      std::span<const Value> batch(in.data(), in.size());
      (void)a->process(batch);
      double best = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        (void)a->process(batch);
        auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
      }
      obs::CostEntry entry;
      entry.record_batch(best, n, /*alpha=*/0.2);
      stat.push_back(e.us_per_elem);
      meas.push_back(entry.ewma_us_per_elem());
    }
  }
  ASSERT_GE(stat.size(), 8u) << "pipeline suite no longer yields enough "
                                "(task, device) pairs";
  double rho = spearman(stat, meas);
  EXPECT_GE(rho, 0.8) << "static cost model misranks the executors (n="
                      << stat.size() << ")";
}

// ---------------------------------------------------------------------------
// Property: cold-start placement agrees with warmed adaptive (≥ 80%)
// ---------------------------------------------------------------------------

std::map<std::string, DeviceKind> placement_decisions(
    const Workload& w, bool calibrate) {
  auto cp = runtime::compile(w.lime_source);
  EXPECT_TRUE(cp->ok()) << w.name << ":\n" << cp->diags.to_string();
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  rc.enable_calibration = calibrate;
  rc.calibration_elements = 256;
  LiquidRuntime rt(*cp, rc);
  rt.call(w.entry, w.make_args(2048, 1234));
  std::map<std::string, DeviceKind> out;
  for (const auto& s : rt.stats().substitutions) {
    std::string id;
    std::istringstream ids(s.task_ids);
    while (std::getline(ids, id, '+')) out[id] = s.device;
    if (!calibrate) EXPECT_NE(s.source, "measured") << s.task_ids;
  }
  return out;
}

TEST(ColdStartPlacement, AgreesWithWarmedAdaptiveOnMostTasks) {
  int agree = 0, total = 0;
  std::string detail;
  for (const Workload& w : workloads::pipeline_suite()) {
    auto warmed = placement_decisions(w, /*calibrate=*/true);
    auto cold = placement_decisions(w, /*calibrate=*/false);
    for (const auto& [task, dev] : warmed) {
      auto it = cold.find(task);
      if (it == cold.end()) continue;
      ++total;
      if (it->second == dev) {
        ++agree;
      } else {
        detail += w.name + ":" + task + " warmed=" + to_string(dev) +
                  " cold=" + to_string(it->second) + "\n";
      }
    }
  }
  ASSERT_GT(total, 0);
  // ≥ 80% of pipeline-suite tasks land on the same device cold as warm.
  EXPECT_GE(agree * 5, total * 4)
      << agree << "/" << total << " agreed; disagreements:\n"
      << detail;
}

// ---------------------------------------------------------------------------
// Differential: minimal safe capacities compute the same results
// ---------------------------------------------------------------------------

TEST(MinimalCapacity, PipelineSuiteMatchesDefaultCapacityOutputs) {
  for (const Workload& w : workloads::pipeline_suite()) {
    auto run_at = [&](size_t capacity) {
      auto cp = runtime::compile(w.lime_source);
      EXPECT_TRUE(cp->ok()) << w.name;
      RuntimeConfig rc;
      if (capacity != 0) rc.fifo_capacity = capacity;
      LiquidRuntime rt(*cp, rc);
      return rt.call(w.entry, w.make_args(1024, 99));
    };

    auto cp = runtime::compile(w.lime_source);
    ASSERT_TRUE(cp->ok()) << w.name;
    ASSERT_FALSE(cp->capacity_reports.empty()) << w.name;
    int64_t min_safe = 1;
    for (const auto& rep : cp->capacity_reports) {
      EXPECT_TRUE(rep.proven) << w.name;
      min_safe = std::max(min_safe, rep.min_safe_capacity);
    }

    Value def = run_at(0);
    Value tight = run_at(static_cast<size_t>(min_safe));
    EXPECT_TRUE(workloads::results_match(tight, def, 0.0))
        << w.name << " diverged at fifo capacity " << min_safe;
  }
}

}  // namespace
}  // namespace lm::analysis
