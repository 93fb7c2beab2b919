// E3 — Figure 3: data transfer between the managed host and a native
// device using a float array. Measures each stage of the marshaling path
//
//   serialize (Lime value → byte array)
//   cross the native boundary (the JNI-like copy)
//   convert to a C-style value (dense unmarshal)
//   full round trip (all three + the mirror return path)
//
// across array sizes, reporting bytes/second. The shape to reproduce: the
// boundary copy runs at memcpy speed, serialization of dense arrays is
// bulk-copy fast, and per-element costs only appear for bit arrays (which
// pack/unpack 8 per byte). BM_MapRoundTrip moves an offloaded map's
// operands the way GpuKernelArtifact::run_map does and counts what the
// stage rows hide: page faults and fresh buffers per call.
#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include "bytecode/value.h"
#include "serde/buffer_pool.h"
#include "serde/native.h"
#include "serde/wire.h"
#include "util/rng.h"

namespace {

using namespace lm;

bc::Value make_float_array(size_t n) {
  SplitMix64 rng(7);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.next_float();
  return bc::Value::array(bc::make_f32_array(std::move(v), true));
}

void BM_Serialize(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bc::Value v = make_float_array(n);
  auto ser = serde::serializer_for(lime::Type::value_array(lime::Type::float_()));
  for (auto _ : state) {
    ByteWriter w;
    ser->serialize(v, w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 4);
}
BENCHMARK(BM_Serialize)->RangeMultiplier(8)->Range(1 << 10, 1 << 22);

void BM_CrossBoundary(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> payload(n * 4, 0xA5);
  serde::NativeBoundary boundary;
  for (auto _ : state) {
    auto native = boundary.cross_to_native(payload);
    benchmark::DoNotOptimize(native.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 4);
}
BENCHMARK(BM_CrossBoundary)->RangeMultiplier(8)->Range(1 << 10, 1 << 22);

void BM_UnmarshalToC(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bc::Value v = make_float_array(n);
  auto t = lime::Type::value_array(lime::Type::float_());
  auto ser = serde::serializer_for(t);
  ByteWriter w;
  ser->serialize(v, w);
  auto bytes = w.bytes();
  for (auto _ : state) {
    serde::CValue c = serde::unmarshal_native(bytes, t);
    benchmark::DoNotOptimize(c.storage.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 4);
}
BENCHMARK(BM_UnmarshalToC)->RangeMultiplier(8)->Range(1 << 10, 1 << 22);

/// The complete Fig. 3 round trip: float[] in, int[] out.
void BM_FullRoundTrip(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  bc::Value v = make_float_array(n);
  auto float_arr = lime::Type::value_array(lime::Type::float_());
  auto int_arr = lime::Type::value_array(lime::Type::int_());
  auto fser = serde::serializer_for(float_arr);
  auto iser = serde::serializer_for(int_arr);
  serde::NativeBoundary boundary;
  for (auto _ : state) {
    // Host → device.
    ByteWriter w;
    fser->serialize(v, w);
    auto native = boundary.cross_to_native(w.bytes());
    serde::CValue c = serde::unmarshal_native(native, float_arr);
    // The "kernel": floats → ints (so the return type differs, as in Fig. 3).
    serde::CValue out = serde::CValue::make(bc::ElemCode::kI32, true, c.count);
    auto in_f = c.f32s();
    auto out_i = out.i32s();
    for (size_t i = 0; i < c.count; ++i) {
      out_i[i] = static_cast<int32_t>(in_f[i] * 1000.0f);
    }
    // Device → host mirror path.
    auto wire = serde::marshal_native(out);
    auto host = boundary.cross_to_host(wire);
    ByteReader r(host);
    benchmark::DoNotOptimize(iser->deserialize(r));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 8);  // both directions
  state.counters["crossings"] =
      static_cast<double>(boundary.crossings()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_FullRoundTrip)->RangeMultiplier(8)->Range(1 << 10, 1 << 22);

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// saxpy's traffic over 2^18 floats, step for step as run_map moves it:
/// each operand serialized into a wire_pool() buffer, crossed and
/// converted; the result marshaled, crossed back and deserialized into a
/// fresh host array. Reports minor page faults and wire_pool() misses per
/// call, the cost of buffers that are freed and taken again.
void BM_MapRoundTrip(benchmark::State& state) {
  const size_t n = size_t{1} << 18;
  const bc::Value x = make_float_array(n);
  const bc::Value y = make_float_array(n);
  auto t = lime::Type::value_array(lime::Type::float_());
  auto ser = serde::serializer_for(t);
  serde::BufferPool& pool = serde::wire_pool();
  auto to_device = [&](const bc::Value& v, serde::NativeBoundary& boundary) {
    ByteWriter w(pool.acquire(ser->wire_size(v)));
    ser->serialize(v, w);
    serde::PooledBuffer native =
        boundary.cross_to_native(serde::PooledBuffer(pool, w.take()));
    return serde::unmarshal_native(native, t);
  };
  long faults = 0;
  uint64_t misses = 0;
  for (auto _ : state) {
    const long faults0 = minor_faults();
    const uint64_t misses0 = pool.allocations();
    serde::NativeBoundary boundary;
    serde::CValue dx = to_device(x, boundary);
    serde::CValue dy = to_device(y, boundary);
    serde::CValue out = serde::CValue::make(bc::ElemCode::kF32, true, n);
    auto xs = dx.f32s();
    auto ys = dy.f32s();
    auto os = out.f32s();
    for (size_t i = 0; i < n; ++i) os[i] = 2.5f * xs[i] + ys[i];
    serde::PooledBuffer host =
        boundary.cross_to_host(serde::marshal_native(out));
    ByteReader r(host);
    benchmark::DoNotOptimize(ser->deserialize(r));
    faults += minor_faults() - faults0;
    misses += pool.allocations() - misses0;
  }
  const double iters = static_cast<double>(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 12);  // 2 in, 1 out
  state.counters["minflt_per_call"] = static_cast<double>(faults) / iters;
  state.counters["pool_allocs_per_call"] = static_cast<double>(misses) / iters;
}
BENCHMARK(BM_MapRoundTrip);

/// Bit arrays pay a pack/unpack cost (8 bits per wire byte) — the one
/// non-bulk case in the wire format.
void BM_BitArrayRoundTrip(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SplitMix64 rng(3);
  std::vector<uint8_t> bits(n);
  for (auto& b : bits) b = rng.next_bool();
  bc::Value v = bc::Value::array(bc::make_bit_array(std::move(bits), true));
  auto t = lime::Type::value_array(lime::Type::bit());
  auto ser = serde::serializer_for(t);
  for (auto _ : state) {
    ByteWriter w;
    ser->serialize(v, w);
    serde::CValue c = serde::unmarshal_native(w.bytes(), t);
    benchmark::DoNotOptimize(serde::marshal_native(c));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BitArrayRoundTrip)->RangeMultiplier(8)->Range(1 << 10, 1 << 19);

}  // namespace

BENCHMARK_MAIN();
