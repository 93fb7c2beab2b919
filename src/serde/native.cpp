#include "serde/native.h"

#include <cstring>

#include "util/byte_buffer.h"
#include "util/error.h"

namespace lm::serde {

using bc::ElemCode;
using lime::TypeKind;

namespace {
std::atomic<uint64_t> g_total_crossings{0};
std::atomic<uint64_t> g_total_bytes_to_native{0};
std::atomic<uint64_t> g_total_bytes_to_host{0};
}  // namespace

PooledBuffer NativeBoundary::cross_to_native(std::span<const uint8_t> bytes) {
  crossings_.fetch_add(1, std::memory_order_relaxed);
  bytes_to_native_.fetch_add(bytes.size(), std::memory_order_relaxed);
  g_total_crossings.fetch_add(1, std::memory_order_relaxed);
  g_total_bytes_to_native.fetch_add(bytes.size(), std::memory_order_relaxed);
  return PooledBuffer(wire_pool(), bytes);
}

PooledBuffer NativeBoundary::cross_to_host(std::span<const uint8_t> bytes) {
  crossings_.fetch_add(1, std::memory_order_relaxed);
  bytes_to_host_.fetch_add(bytes.size(), std::memory_order_relaxed);
  g_total_crossings.fetch_add(1, std::memory_order_relaxed);
  g_total_bytes_to_host.fetch_add(bytes.size(), std::memory_order_relaxed);
  return PooledBuffer(wire_pool(), bytes);
}

void NativeBoundary::reset_stats() {
  crossings_.store(0, std::memory_order_relaxed);
  bytes_to_native_.store(0, std::memory_order_relaxed);
  bytes_to_host_.store(0, std::memory_order_relaxed);
}

uint64_t NativeBoundary::total_bytes_to_native() {
  return g_total_bytes_to_native.load(std::memory_order_relaxed);
}
uint64_t NativeBoundary::total_bytes_to_host() {
  return g_total_bytes_to_host.load(std::memory_order_relaxed);
}
uint64_t NativeBoundary::total_crossings() {
  return g_total_crossings.load(std::memory_order_relaxed);
}

namespace {

size_t elem_bytes(ElemCode e) {
  switch (e) {
    case ElemCode::kI32: case ElemCode::kF32: return 4;
    case ElemCode::kI64: case ElemCode::kF64: return 8;
    case ElemCode::kBool: case ElemCode::kBit: return 1;
    case ElemCode::kBoxed: break;
  }
  throw InternalError("boxed values have no native layout");
}

template <typename T>
std::span<const T> typed_view(const CValue& v, ElemCode want1,
                              ElemCode want2 = ElemCode::kBoxed) {
  LM_CHECK_MSG(v.elem == want1 || v.elem == want2,
               "CValue elem mismatch: " << bc::to_string(v.elem));
  return {reinterpret_cast<const T*>(v.storage.data()), v.count};
}

template <typename T>
std::span<T> typed_view_mut(CValue& v, ElemCode want1,
                            ElemCode want2 = ElemCode::kBoxed) {
  LM_CHECK_MSG(v.elem == want1 || v.elem == want2,
               "CValue elem mismatch: " << bc::to_string(v.elem));
  return {reinterpret_cast<T*>(v.storage.data()), v.count};
}

}  // namespace

std::span<const int32_t> CValue::i32s() const {
  return typed_view<int32_t>(*this, ElemCode::kI32);
}
std::span<const int64_t> CValue::i64s() const {
  return typed_view<int64_t>(*this, ElemCode::kI64);
}
std::span<const float> CValue::f32s() const {
  return typed_view<float>(*this, ElemCode::kF32);
}
std::span<const double> CValue::f64s() const {
  return typed_view<double>(*this, ElemCode::kF64);
}
std::span<const uint8_t> CValue::bytes() const {
  return typed_view<uint8_t>(*this, ElemCode::kBool, ElemCode::kBit);
}
std::span<int32_t> CValue::i32s() {
  return typed_view_mut<int32_t>(*this, ElemCode::kI32);
}
std::span<int64_t> CValue::i64s() {
  return typed_view_mut<int64_t>(*this, ElemCode::kI64);
}
std::span<float> CValue::f32s() {
  return typed_view_mut<float>(*this, ElemCode::kF32);
}
std::span<double> CValue::f64s() {
  return typed_view_mut<double>(*this, ElemCode::kF64);
}
std::span<uint8_t> CValue::bytes() {
  return typed_view_mut<uint8_t>(*this, ElemCode::kBool, ElemCode::kBit);
}

CValue CValue::make(ElemCode elem, bool is_array, size_t count) {
  CValue v;
  v.elem = elem;
  v.is_array = is_array;
  v.count = count;
  v.storage = PooledBuffer(wire_pool(), count * elem_bytes(elem));
  return v;
}

CValue unmarshal_native(std::span<const uint8_t> wire,
                        const lime::TypeRef& type) {
  LM_CHECK(type != nullptr);
  ByteReader r(wire);
  if (type->is_array_like()) {
    ElemCode ec = bc::elem_code_for(type->elem);
    uint32_t n = r.u32();
    CValue v = CValue::make(ec, true, n);
    if (ec == ElemCode::kBit) {
      // Wire is packed 8/byte; native unpacks to 1 byte per bit.
      auto out = v.bytes();
      for (size_t base = 0; base < n; base += 8) {
        uint8_t byte = r.u8();
        for (size_t k = 0; k < 8 && base + k < n; ++k) {
          out[base + k] = (byte >> k) & 1;
        }
      }
    } else {
      r.raw(v.storage.data(), v.storage.size());
    }
    return v;
  }
  // Scalar.
  switch (type->kind) {
    case TypeKind::kInt:
    case TypeKind::kClass: {  // enum ordinal
      CValue v = CValue::make(ElemCode::kI32, false, 1);
      v.i32s()[0] = r.i32();
      return v;
    }
    case TypeKind::kLong: {
      CValue v = CValue::make(ElemCode::kI64, false, 1);
      v.i64s()[0] = r.i64();
      return v;
    }
    case TypeKind::kFloat: {
      CValue v = CValue::make(ElemCode::kF32, false, 1);
      v.f32s()[0] = r.f32();
      return v;
    }
    case TypeKind::kDouble: {
      CValue v = CValue::make(ElemCode::kF64, false, 1);
      v.f64s()[0] = r.f64();
      return v;
    }
    case TypeKind::kBoolean: {
      CValue v = CValue::make(ElemCode::kBool, false, 1);
      v.bytes()[0] = r.u8();
      return v;
    }
    case TypeKind::kBit: {
      CValue v = CValue::make(ElemCode::kBit, false, 1);
      v.bytes()[0] = r.u8();
      return v;
    }
    default:
      throw InternalError("no native layout for type " + type->to_string());
  }
}

PooledBuffer marshal_native(const CValue& v) {
  const bool packed = v.is_array && v.elem == ElemCode::kBit;
  ByteWriter w(wire_pool().acquire((v.is_array ? 4 : 0) +
                                   (packed ? (v.count + 7) / 8
                                           : v.storage.size())));
  if (v.is_array) {
    w.u32(static_cast<uint32_t>(v.count));
    if (packed) {
      auto in = v.bytes();
      for (size_t base = 0; base < v.count; base += 8) {
        uint8_t byte = 0;
        for (size_t k = 0; k < 8 && base + k < v.count; ++k) {
          if (in[base + k]) byte |= static_cast<uint8_t>(1u << k);
        }
        w.u8(byte);
      }
    } else {
      w.raw(v.storage.data(), v.storage.size());
    }
  } else {
    w.raw(v.storage.data(), v.storage.size());
  }
  return PooledBuffer(wire_pool(), w.take());
}

}  // namespace lm::serde
