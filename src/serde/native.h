// The native side of Fig. 3: the JNI-like boundary and C-style values.
//
// Paper: "The communication steps between the host JVM and the native
// device entail (1) serializing a Lime value to a byte array, (2) crossing
// the JNI boundary, and (3) converting this byte array into a C-style
// value. The return path is a mirror image."
//
// NativeBoundary simulates step (2): only raw byte buffers may cross, and
// every crossing copies (as a real JNI GetByteArrayRegion would). CValue is
// the C-style value of step (3): a densely packed buffer a device artifact
// can consume directly. Every buffer on this path (the crossed copies,
// CValue storage, marshal_native's output) is on loan from wire_pool()
// and goes back to it when its owner is destroyed (serde/buffer_pool.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "bytecode/value.h"
#include "lime/type.h"
#include "serde/buffer_pool.h"

namespace lm::serde {

/// The host/native frontier. Deliberately the only way bytes move between
/// the managed world and device artifacts; its counters feed the E3
/// marshaling experiment.
class NativeBoundary {
 public:
  /// Host → native copy (JNI "GetByteArrayRegion" direction).
  PooledBuffer cross_to_native(std::span<const uint8_t> bytes);

  /// Native → host copy ("NewByteArray + SetByteArrayRegion" direction).
  PooledBuffer cross_to_host(std::span<const uint8_t> bytes);

  uint64_t crossings() const {
    return crossings_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_to_native() const {
    return bytes_to_native_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_to_host() const {
    return bytes_to_host_.load(std::memory_order_relaxed);
  }
  void reset_stats();

  /// Process-wide totals over every boundary instance (boundaries are
  /// created per process() call, so per-instance counters alone cannot
  /// answer "how many bytes crossed in this run").
  static uint64_t total_bytes_to_native();
  static uint64_t total_bytes_to_host();
  static uint64_t total_crossings();

 private:
  // Atomic: a boundary may be driven while another thread reads stats.
  std::atomic<uint64_t> crossings_{0};
  std::atomic<uint64_t> bytes_to_native_{0};
  std::atomic<uint64_t> bytes_to_host_{0};
};

/// A C-style value: either one scalar or a dense array. "Marshaling on the
/// C side is similar but more specialized because the data is generally
/// densely packed" (§4.3). Bit arrays arrive packed on the wire but are
/// widened to one byte per bit here so device kernels can index them.
struct CValue {
  bc::ElemCode elem = bc::ElemCode::kI32;
  bool is_array = false;
  size_t count = 0;       // elements (1 for scalars)
  PooledBuffer storage;   // packed native layout

  // Typed views (LM_CHECKed against elem).
  std::span<const int32_t> i32s() const;
  std::span<const int64_t> i64s() const;
  std::span<const float> f32s() const;
  std::span<const double> f64s() const;
  std::span<const uint8_t> bytes() const;  // bool / bit (1 byte per element)
  std::span<int32_t> i32s();
  std::span<int64_t> i64s();
  std::span<float> f32s();
  std::span<double> f64s();
  std::span<uint8_t> bytes();

  /// A zero-filled value.
  static CValue make(bc::ElemCode elem, bool is_array, size_t count);
};

/// Step (3) of Fig. 3: wire bytes → C-style value, driven by the task's
/// declared I/O type.
CValue unmarshal_native(std::span<const uint8_t> wire,
                        const lime::TypeRef& type);

/// Mirror path: C-style value → wire bytes (bit arrays re-pack).
PooledBuffer marshal_native(const CValue& v);

}  // namespace lm::serde
