// Unit and integration tests for the bytecode compiler + interpreter (S4).
#include <gtest/gtest.h>

#include <limits>

#include "bytecode/compiler.h"
#include "bytecode/interp.h"
#include "tests/lime_test_util.h"

namespace lm::bc {
namespace {

using lime::testing::compile_ok;

struct Compiled {
  std::unique_ptr<lime::Program> program;
  std::unique_ptr<BytecodeModule> module;
};

Compiled build(const std::string& src) {
  auto fr = compile_ok(src);
  DiagnosticEngine diags;
  auto mod = compile_program(*fr.program, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  return {std::move(fr.program), std::move(mod)};
}

TEST(Vm, ReturnsConstant) {
  auto c = build("class C { static int f() { return 42; } }");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.f", {}).as_i32(), 42);
}

TEST(Vm, Arithmetic) {
  auto c = build(R"(
    class C {
      static int f(int a, int b) { return (a + b) * (a - b) / 2 + a % b; }
    }
  )");
  Interpreter in(*c.module);
  int a = 17, b = 5;
  EXPECT_EQ(in.call("C.f", {Value::i32(a), Value::i32(b)}).as_i32(),
            (a + b) * (a - b) / 2 + a % b);
}

TEST(Vm, FloatAndDoubleArithmetic) {
  auto c = build(R"(
    class C {
      static float f(float x) { return x * 2.5f + 1.0f; }
      static double g(double x) { return x / 4.0; }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_FLOAT_EQ(in.call("C.f", {Value::f32(2.0f)}).as_f32(), 6.0f);
  EXPECT_DOUBLE_EQ(in.call("C.g", {Value::f64(10.0)}).as_f64(), 2.5);
}

TEST(Vm, WideningCastsInserted) {
  auto c = build(R"(
    class C { static double f(int x, float y) { return x + y; } }
  )");
  Interpreter in(*c.module);
  EXPECT_DOUBLE_EQ(in.call("C.f", {Value::i32(3), Value::f32(0.5f)}).as_f64(),
                   3.5);
}

TEST(Vm, ControlFlowLoops) {
  auto c = build(R"(
    class C {
      static int sumTo(int n) {
        int acc = 0;
        for (int i = 1; i <= n; i += 1) acc += i;
        return acc;
      }
      static int collatzSteps(int n) {
        int steps = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          steps += 1;
        }
        return steps;
      }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.sumTo", {Value::i32(100)}).as_i32(), 5050);
  EXPECT_EQ(in.call("C.collatzSteps", {Value::i32(27)}).as_i32(), 111);
}

TEST(Vm, BreakAndContinue) {
  auto c = build(R"(
    class C {
      static int f(int n) {
        int acc = 0;
        for (int i = 0; i < n; i += 1) {
          if (i % 3 == 0) continue;
          if (i > 10) break;
          acc += i;
        }
        return acc;
      }
    }
  )");
  Interpreter in(*c.module);
  int want = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) continue;
    if (i > 10) break;
    want += i;
  }
  EXPECT_EQ(in.call("C.f", {Value::i32(100)}).as_i32(), want);
}

TEST(Vm, ShortCircuitEvaluation) {
  // The rhs would divide by zero if not short-circuited.
  auto c = build(R"(
    class C {
      static boolean f(int x) { return x == 0 || 10 / x > 2; }
      static boolean g(int x) { return x != 0 && 10 / x > 2; }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_TRUE(in.call("C.f", {Value::i32(0)}).as_bool());
  EXPECT_FALSE(in.call("C.g", {Value::i32(0)}).as_bool());
  EXPECT_TRUE(in.call("C.g", {Value::i32(3)}).as_bool());
}

TEST(Vm, MethodCalls) {
  auto c = build(R"(
    class C {
      local static int square(int x) { return x * x; }
      static int sumOfSquares(int a, int b) { return square(a) + square(b); }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.sumOfSquares", {Value::i32(3), Value::i32(4)}).as_i32(),
            25);
}

TEST(Vm, RecursionWorks) {
  auto c = build(R"(
    class C {
      local static int fib(int n) {
        return n < 2 ? n : fib(n - 1) + fib(n - 2);
      }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.fib", {Value::i32(15)}).as_i32(), 610);
}

TEST(Vm, InfiniteRecursionRaises) {
  auto c = build("class C { local static int f(int n) { return f(n); } }");
  Interpreter in(*c.module);
  EXPECT_THROW(in.call("C.f", {Value::i32(1)}), RuntimeError);
}

TEST(Vm, ArraysNewIndexStoreLength) {
  auto c = build(R"(
    class C {
      static int f(int n) {
        int[] a = new int[n];
        for (int i = 0; i < a.length; i += 1) a[i] = i * i;
        int acc = 0;
        for (int i = 0; i < a.length; i += 1) acc += a[i];
        return acc;
      }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.f", {Value::i32(5)}).as_i32(), 0 + 1 + 4 + 9 + 16);
}

TEST(Vm, ArrayBoundsChecked) {
  auto c = build(R"(
    class C { static int f(int[] a, int i) { return a[i]; } }
  )");
  Interpreter in(*c.module);
  Value arr = Value::array(make_i32_array({1, 2, 3}));
  EXPECT_EQ(in.call("C.f", {arr, Value::i32(2)}).as_i32(), 3);
  EXPECT_THROW(in.call("C.f", {arr, Value::i32(3)}), RuntimeError);
  EXPECT_THROW(in.call("C.f", {arr, Value::i32(-1)}), RuntimeError);
}

TEST(Vm, DivisionByZeroRaises) {
  auto c = build("class C { static int f(int a, int b) { return a / b; } }");
  Interpreter in(*c.module);
  EXPECT_THROW(in.call("C.f", {Value::i32(1), Value::i32(0)}), RuntimeError);
}

TEST(Vm, StaticFinalConstantsFolded) {
  auto c = build(R"(
    class C {
      static final int N = 6 * 7;
      static final float SCALE = 2.0f * 1.25f;
      static int f() { return N; }
      static float g() { return SCALE; }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.f", {}).as_i32(), 42);
  EXPECT_FLOAT_EQ(in.call("C.g", {}).as_f32(), 2.5f);
}

TEST(Vm, MinValueOverMinusOneFoldsLikeJava) {
  // Java defines MIN_VALUE / -1 == MIN_VALUE and MIN_VALUE % -1 == 0; the
  // constant folder must not evaluate either with C++ division, which
  // traps.
  auto c = build(R"(
    class C {
      static final int Q = (-2147483647 - 1) / -1;
      static final int R = (-2147483647 - 1) % -1;
      static int q() { return Q; }
      static int r() { return R; }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("C.q", {}).as_i32(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(in.call("C.r", {}).as_i32(), 0);
}

TEST(Vm, StaticFinalFoldingMatchesRunTime) {
  // Each initializer folds to Java's value (JLS §15.29), which is also what
  // the VM computes for the same expression from parameters.
  auto c = build(R"(
    class C {
      static final int K = (int) 4294967297L;
      static final long BIG = (long) 9007199254740993L;
      static final long SHIFTED = ((long) 1) << 40;
      static final boolean LESS = 3 < 4;
      static final int WRAPPED = 2147483647 + 1;
      static final int NEGATED = -(-2147483647 - 1);
      static final int SATURATED = (int) 6.0e9f;
      static int k() { return K; }
      static long big() { return BIG; }
      static long shifted() { return SHIFTED; }
      static boolean less() { return LESS; }
      static int wrapped() { return WRAPPED; }
      static int negated() { return NEGATED; }
      static int saturated() { return SATURATED; }
      static int k_at(long v) { return (int) v; }
      static long big_at(long v) { return v; }
      static long shifted_at(long v, long d) { return v << d; }
      static boolean less_at(int a, int b) { return a < b; }
      static int wrapped_at(int a, int b) { return a + b; }
      static int negated_at(int a) { return -a; }
      static int saturated_at(float f) { return (int) f; }
    }
  )");
  Interpreter in(*c.module);
  auto folded = [&](const std::string& name) {
    const CompiledMethod& m =
        c.module->methods[static_cast<size_t>(c.module->index_of(name))];
    EXPECT_TRUE(m.unsupported_reason.empty() &&
                m.code.front().op == Op::kConst)
        << name << " is not folded: " << m.unsupported_reason;
    return in.call(name, {});
  };
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();

  EXPECT_EQ(folded("C.k").as_i32(), 1);
  EXPECT_EQ(in.call("C.k_at", {Value::i64(4294967297LL)}).as_i32(), 1);

  EXPECT_EQ(folded("C.big").as_i64(), 9007199254740993LL);
  EXPECT_EQ(in.call("C.big_at", {Value::i64(9007199254740993LL)}).as_i64(),
            9007199254740993LL);

  EXPECT_EQ(folded("C.shifted").as_i64(), 1099511627776LL);
  EXPECT_EQ(
      in.call("C.shifted_at", {Value::i64(1), Value::i64(40)}).as_i64(),
      1099511627776LL);

  EXPECT_TRUE(folded("C.less").as_bool());
  EXPECT_TRUE(in.call("C.less_at", {Value::i32(3), Value::i32(4)}).as_bool());

  EXPECT_EQ(folded("C.wrapped").as_i32(), kMin);
  EXPECT_EQ(
      in.call("C.wrapped_at", {Value::i32(kMax), Value::i32(1)}).as_i32(),
      kMin);

  EXPECT_EQ(folded("C.negated").as_i32(), kMin);
  EXPECT_EQ(in.call("C.negated_at", {Value::i32(kMin)}).as_i32(), kMin);

  EXPECT_EQ(folded("C.saturated").as_i32(), kMax);
  EXPECT_EQ(in.call("C.saturated_at", {Value::f32(6.0e9f)}).as_i32(), kMax);
}

TEST(Vm, MathIntrinsics) {
  auto c = build(R"(
    class C {
      static float f(float x) { return Math.sqrt(x); }
      static double g(double x, double y) { return Math.pow(x, y); }
      static int h(int a, int b) { return Math.max(a, b) - Math.min(a, b); }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_FLOAT_EQ(in.call("C.f", {Value::f32(9.0f)}).as_f32(), 3.0f);
  EXPECT_DOUBLE_EQ(in.call("C.g", {Value::f64(2), Value::f64(10)}).as_f64(),
                   1024.0);
  EXPECT_EQ(in.call("C.h", {Value::i32(3), Value::i32(9)}).as_i32(), 6);
}

TEST(Vm, BitOperations) {
  auto c = build(R"(
    class C {
      local static bit flip(bit b) { return ~b; }
      local static bit both(bit a, bit b) { return a & b; }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_TRUE(in.call("C.flip", {Value::bit(false)}).as_bit());
  EXPECT_FALSE(in.call("C.flip", {Value::bit(true)}).as_bit());
  EXPECT_TRUE(in.call("C.both", {Value::bit(true), Value::bit(true)}).as_bit());
  EXPECT_FALSE(in.call("C.both", {Value::bit(true), Value::bit(false)}).as_bit());
}

TEST(Vm, UserEnumOperatorMethod) {
  auto c = build(R"(
    public value enum trit {
      lo, mid, hi;
      public trit ~ this {
        return this == lo ? hi : this == hi ? lo : mid;
      }
    }
    class U {
      local static trit inv(trit t) { return ~t; }
    }
  )");
  Interpreter in(*c.module);
  EXPECT_EQ(in.call("U.inv", {Value::i32(0)}).as_i32(), 2);  // lo → hi
  EXPECT_EQ(in.call("U.inv", {Value::i32(1)}).as_i32(), 1);  // mid → mid
  EXPECT_EQ(in.call("U.inv", {Value::i32(2)}).as_i32(), 0);  // hi → lo
}

TEST(Vm, MapOperatorElementwise) {
  auto c = build(R"(
    class C {
      local static int twice(int x) { return 2 * x; }
      local static int[[]] f(int[[]] xs) { return C @ twice(xs); }
    }
  )");
  Interpreter in(*c.module);
  Value xs = Value::array(make_i32_array({1, 2, 3, 4}, true));
  Value out = in.call("C.f", {xs});
  const auto& a = *out.as_array();
  EXPECT_TRUE(a.is_value);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(array_get(a, 0).as_i32(), 2);
  EXPECT_EQ(array_get(a, 3).as_i32(), 8);
}

TEST(Vm, MapBroadcastScalar) {
  auto c = build(R"(
    class V {
      local static float axpy(float a, float x, float y) { return a * x + y; }
      local static float[[]] saxpy(float a, float[[]] x, float[[]] y) {
        return V @ axpy(a, x, y);
      }
    }
  )");
  Interpreter in(*c.module);
  Value x = Value::array(make_f32_array({1, 2, 3}, true));
  Value y = Value::array(make_f32_array({10, 20, 30}, true));
  Value out = in.call("V.saxpy", {Value::f32(2.0f), x, y});
  const auto& a = *out.as_array();
  EXPECT_FLOAT_EQ(array_get(a, 0).as_f32(), 12.0f);
  EXPECT_FLOAT_EQ(array_get(a, 2).as_f32(), 36.0f);
}

TEST(Vm, MapLengthMismatchRaises) {
  auto c = build(R"(
    class C {
      local static int add(int a, int b) { return a + b; }
      static int[[]] f(int[[]] x, int[[]] y) { return C @ add(x, y); }
    }
  )");
  Interpreter in(*c.module);
  Value x = Value::array(make_i32_array({1, 2, 3}, true));
  Value y = Value::array(make_i32_array({1, 2}, true));
  EXPECT_THROW(in.call("C.f", {x, y}), RuntimeError);
}

TEST(Vm, ReduceOperator) {
  auto c = build(R"(
    class R {
      local static int add(int a, int b) { return a + b; }
      local static int sum(int[[]] xs) { return R ! add(xs); }
    }
  )");
  Interpreter in(*c.module);
  Value xs = Value::array(make_i32_array({1, 2, 3, 4, 5}, true));
  EXPECT_EQ(in.call("R.sum", {xs}).as_i32(), 15);
  Value empty = Value::array(make_i32_array({}, true));
  EXPECT_THROW(in.call("R.sum", {empty}), RuntimeError);
}

TEST(Vm, FreezeProducesImmutableCopy) {
  auto c = build(R"(
    class C {
      static int[[]] f(int n) {
        int[] a = new int[n];
        for (int i = 0; i < n; i += 1) a[i] = i;
        int[[]] frozen = new int[[]](a);
        a[0] = 99;  // must not affect the frozen copy
        return frozen;
      }
    }
  )");
  Interpreter in(*c.module);
  Value out = in.call("C.f", {Value::i32(3)});
  EXPECT_TRUE(out.as_array()->is_value);
  EXPECT_EQ(array_get(*out.as_array(), 0).as_i32(), 0);
}

// ---------------------------------------------------------------------------
// Figure 1 end-to-end on the default (inline) task host
// ---------------------------------------------------------------------------

TEST(Vm, Figure1MapFlip) {
  auto c = build(lime::testing::figure1_source());
  Interpreter in(*c.module);
  // mapFlip(100b) == 001b (§2.2).
  Value input = Value::array(make_bit_array({0, 0, 1}, true));  // 100b
  Value out = in.call("Bitflip.mapFlip", {input});
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(array_get(a, 0).as_bit());   // bit[0] = 1
  EXPECT_TRUE(array_get(a, 1).as_bit());   // bit[1] = 1
  EXPECT_FALSE(array_get(a, 2).as_bit());  // bit[2] = 0 → literal 011b
}

TEST(Vm, Figure1TaskFlipThroughTaskGraph) {
  auto c = build(lime::testing::figure1_source());
  Interpreter in(*c.module);
  // The waveform experiment drives 9 input bits (Fig. 4).
  std::vector<uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  Value input = Value::array(make_bit_array(bits, true));
  Value out = in.call("Bitflip.taskFlip", {input});
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(array_get(a, i).as_bit(), bits[i] == 0) << "at bit " << i;
  }
}

TEST(Vm, MapFlipAndTaskFlipAgree) {
  auto c = build(lime::testing::figure1_source());
  Interpreter in(*c.module);
  std::vector<uint8_t> bits = {1, 1, 0, 1, 0, 0, 0, 1};
  Value input = Value::array(make_bit_array(bits, true));
  Value via_map = in.call("Bitflip.mapFlip", {input});
  Value via_task = in.call("Bitflip.taskFlip", {input});
  EXPECT_TRUE(via_map.equals(via_task));
}

TEST(Vm, MultiParamFilterConsumesKElements) {
  // A 2-ary filter fires once per two consecutive elements (§2.2: the actor
  // applies the method when the port holds enough data for the arguments).
  auto c = build(R"(
    class P {
      local static int addPair(int a, int b) { return a + b; }
      static int[[]] pairSums(int[[]] input) {
        int[] result = new int[input.length / 2];
        var g = input.source(1) => ([ task addPair ]) => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  Interpreter in(*c.module);
  Value input = Value::array(make_i32_array({1, 2, 3, 4, 5, 6}, true));
  Value out = in.call("P.pairSums", {input});
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(array_get(a, 0).as_i32(), 3);
  EXPECT_EQ(array_get(a, 1).as_i32(), 7);
  EXPECT_EQ(array_get(a, 2).as_i32(), 11);
}

TEST(Vm, ThreeStagePipeline) {
  auto c = build(R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      local static int offset(int x) { return x + 7; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1)
          => ([ task scale ])
          => ([ task offset ])
          => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  Interpreter in(*c.module);
  Value input = Value::array(make_i32_array({1, 2, 3}, true));
  Value out = in.call("P.run", {input});
  const auto& a = *out.as_array();
  EXPECT_EQ(array_get(a, 0).as_i32(), 10);
  EXPECT_EQ(array_get(a, 1).as_i32(), 13);
  EXPECT_EQ(array_get(a, 2).as_i32(), 16);
}

TEST(Vm, AccelHooksInterceptMap) {
  // A fake accelerator that claims every map and returns a sentinel result,
  // proving the hook path is consulted before interpretation.
  struct FakeAccel : AccelHooks {
    bool try_map(const std::string& id, std::span<const Value>, uint32_t,
                 Value* out) override {
      last_id = id;
      *out = Value::array(make_i32_array({-1, -1}, true));
      return true;
    }
    bool try_reduce(const std::string&, const Value&, Value*) override {
      return false;
    }
    std::string last_id;
  };
  auto c = build(R"(
    class C {
      local static int twice(int x) { return 2 * x; }
      static int[[]] f(int[[]] xs) { return C @ twice(xs); }
    }
  )");
  Interpreter in(*c.module);
  FakeAccel accel;
  in.set_accel_hooks(&accel);
  Value xs = Value::array(make_i32_array({5}, true));
  Value out = in.call("C.f", {xs});
  EXPECT_EQ(accel.last_id, "C.twice");
  EXPECT_EQ(out.as_array()->size(), 2u);
  EXPECT_EQ(array_get(*out.as_array(), 0).as_i32(), -1);
}

TEST(Vm, InstructionCounterAdvances) {
  auto c = build("class C { static int f() { return 1 + 2; } }");
  Interpreter in(*c.module);
  in.call("C.f", {});
  EXPECT_GT(in.instructions_executed(), 0u);
  in.reset_stats();
  EXPECT_EQ(in.instructions_executed(), 0u);
}

TEST(Vm, DisassemblerProducesListing) {
  auto c = build("class C { static int f(int x) { return x + 1; } }");
  std::string dis = c.module->disassemble();
  EXPECT_NE(dis.find("C.f"), std::string::npos);
  EXPECT_NE(dis.find("load"), std::string::npos);
  EXPECT_NE(dis.find("arith.add.i32"), std::string::npos);
  EXPECT_NE(dis.find("return"), std::string::npos);
}

TEST(Vm, SinkTooSmallRaises) {
  auto c = build(R"(
    class C {
      local static int id(int x) { return x; }
      static void f(int[[]] input, int[] out) {
        var g = input.source(1) => ([ task id ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  Interpreter in(*c.module);
  Value input = Value::array(make_i32_array({1, 2, 3}, true));
  Value small = Value::array(make_i32_array({0}));
  EXPECT_THROW(in.call("C.f", {input, small}), RuntimeError);
}

}  // namespace
}  // namespace lm::bc
