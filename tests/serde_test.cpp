// Unit tests for the marshaling layer (S8) — the Fig. 3 data path.
#include <gtest/gtest.h>

#include "serde/batch.h"
#include "serde/buffer_pool.h"
#include "serde/native.h"
#include "serde/wire.h"

namespace lm::serde {
namespace {

using bc::ArrayRef;
using bc::ElemCode;
using bc::Value;
using lime::Type;

Value round_trip(const Value& v, const lime::TypeRef& t) {
  auto ser = serializer_for(t);
  ByteWriter w;
  ser->serialize(v, w);
  EXPECT_EQ(w.size(), ser->wire_size(v));
  ByteReader r(w.bytes());
  Value back = ser->deserialize(r);
  EXPECT_TRUE(r.done()) << "trailing bytes after deserialize";
  return back;
}

TEST(Wire, ScalarRoundTrips) {
  EXPECT_TRUE(round_trip(Value::i32(-7), Type::int_()).equals(Value::i32(-7)));
  EXPECT_TRUE(round_trip(Value::i64(1LL << 40), Type::long_())
                  .equals(Value::i64(1LL << 40)));
  EXPECT_TRUE(
      round_trip(Value::f32(3.25f), Type::float_()).equals(Value::f32(3.25f)));
  EXPECT_TRUE(round_trip(Value::f64(-0.125), Type::double_())
                  .equals(Value::f64(-0.125)));
  EXPECT_TRUE(round_trip(Value::boolean(true), Type::boolean())
                  .equals(Value::boolean(true)));
  EXPECT_TRUE(
      round_trip(Value::bit(true), Type::bit()).equals(Value::bit(true)));
}

TEST(Wire, ArrayRoundTrips) {
  auto t = Type::value_array(Type::float_());
  Value v = Value::array(bc::make_f32_array({1.5f, -2.5f, 0.0f}, true));
  Value back = round_trip(v, t);
  EXPECT_TRUE(back.equals(v));
  EXPECT_TRUE(back.as_array()->is_value);
}

TEST(Wire, MutableArrayDeserializesMutable) {
  auto t = Type::array(Type::int_());
  Value v = Value::array(bc::make_i32_array({7, 8}));
  Value back = round_trip(v, t);
  EXPECT_FALSE(back.as_array()->is_value);
  EXPECT_TRUE(back.equals(v));
}

TEST(Wire, BitArrayPacksEightPerByte) {
  auto t = Type::value_array(Type::bit());
  std::vector<uint8_t> bits(13, 0);
  bits[0] = bits[5] = bits[12] = 1;
  Value v = Value::array(bc::make_bit_array(bits, true));
  auto ser = serializer_for(t);
  // 4-byte count + ceil(13/8) = 2 payload bytes.
  EXPECT_EQ(ser->wire_size(v), 4u + 2u);
  ByteWriter w;
  ser->serialize(v, w);
  EXPECT_EQ(w.size(), 6u);
  ByteReader r(w.bytes());
  Value back = ser->deserialize(r);
  EXPECT_TRUE(back.equals(v));
}

TEST(Wire, EmptyArray) {
  auto t = Type::value_array(Type::int_());
  Value v = Value::array(bc::make_i32_array({}, true));
  EXPECT_TRUE(round_trip(v, t).equals(v));
}

TEST(Wire, EnumTravelsAsOrdinal) {
  auto t = Type::class_("trit", nullptr);
  auto ser = serializer_for(t);
  ByteWriter w;
  ser->serialize(Value::i32(2), w);
  EXPECT_EQ(w.size(), 4u);
  ByteReader r(w.bytes());
  EXPECT_EQ(ser->deserialize(r).as_i32(), 2);
}

TEST(Wire, NestedArrayRejected) {
  auto t = Type::value_array(Type::value_array(Type::int_()));
  EXPECT_THROW(serializer_for(t), InternalError);
}

TEST(Wire, TruncatedStreamRaises) {
  auto t = Type::value_array(Type::int_());
  Value v = Value::array(bc::make_i32_array({1, 2, 3}, true));
  auto ser = serializer_for(t);
  ByteWriter w;
  ser->serialize(v, w);
  auto bytes = w.bytes();
  bytes.resize(bytes.size() - 2);  // chop off part of the payload
  ByteReader r(bytes);
  EXPECT_THROW(ser->deserialize(r), RuntimeError);
}

// ---------------------------------------------------------------------------
// Wire fuzz: randomized round-trips with exact size accounting
// ---------------------------------------------------------------------------

// Deterministic 64-bit LCG (MMIX constants) — reproducible "fuzz" without
// std::random machinery, so a failure seed pins the exact case.
struct Lcg {
  uint64_t s;
  uint64_t next() { return s = s * 6364136223846793005ULL + 1442695040888963407ULL; }
  uint32_t bits(int n) { return static_cast<uint32_t>(next() >> (64 - n)); }
};

// Array lengths that straddle every interesting boundary of the bit-packed
// encoding: empty, sub-byte, exact-byte, byte+1, and multi-word sizes.
constexpr size_t kFuzzLengths[] = {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65};

Value random_array(Lcg& rng, ElemCode elem, size_t n) {
  switch (elem) {
    case ElemCode::kI32: {
      std::vector<int32_t> v(n);
      for (auto& x : v) x = static_cast<int32_t>(rng.next());
      return Value::array(bc::make_i32_array(std::move(v), true));
    }
    case ElemCode::kI64: {
      std::vector<int64_t> v(n);
      for (auto& x : v) x = static_cast<int64_t>(rng.next());
      return Value::array(bc::make_i64_array(std::move(v), true));
    }
    case ElemCode::kF32: {
      std::vector<float> v(n);
      for (auto& x : v) x = static_cast<float>(static_cast<int32_t>(rng.next())) * 0.5f;
      return Value::array(bc::make_f32_array(std::move(v), true));
    }
    case ElemCode::kF64: {
      std::vector<double> v(n);
      for (auto& x : v) x = static_cast<double>(static_cast<int64_t>(rng.next())) * 0.25;
      return Value::array(bc::make_f64_array(std::move(v), true));
    }
    case ElemCode::kBool: {
      std::vector<uint8_t> v(n);
      for (auto& x : v) x = rng.bits(1);
      return Value::array(bc::make_bool_array(std::move(v), true));
    }
    case ElemCode::kBit: {
      std::vector<uint8_t> v(n);
      for (auto& x : v) x = rng.bits(1);
      return Value::array(bc::make_bit_array(std::move(v), true));
    }
    default: break;
  }
  ADD_FAILURE() << "unhandled elem code";
  return Value::i32(0);
}

// The property the transfer accounting (and the framed transport) depends
// on: for every value, the bytes serialize() writes are exactly wire_size(),
// and deserialize() reads them all back into an equal value.
TEST(WireFuzz, SerializedSizeMatchesWireSizeAndRoundTrips) {
  struct ElemCase {
    ElemCode code;
    lime::TypeRef type;
  };
  const ElemCase cases[] = {
      {ElemCode::kI32, Type::int_()},     {ElemCode::kI64, Type::long_()},
      {ElemCode::kF32, Type::float_()},   {ElemCode::kF64, Type::double_()},
      {ElemCode::kBool, Type::boolean()}, {ElemCode::kBit, Type::bit()},
  };
  Lcg rng{0x5eed5eed5eed5eedULL};
  for (const auto& ec : cases) {
    auto t = Type::value_array(ec.type);
    auto ser = serializer_for(t);
    for (size_t n : kFuzzLengths) {
      for (int rep = 0; rep < 8; ++rep) {
        Value v = random_array(rng, ec.code, n);
        ByteWriter w;
        ser->serialize(v, w);
        ASSERT_EQ(w.size(), ser->wire_size(v))
            << ser->type_name() << " n=" << n << " rep=" << rep;
        ByteReader r(w.bytes());
        Value back = ser->deserialize(r);
        ASSERT_TRUE(r.done())
            << ser->type_name() << " n=" << n << ": trailing bytes";
        ASSERT_TRUE(back.equals(v)) << ser->type_name() << " n=" << n;
      }
    }
  }
}

// Every truncation point of a serialized stream must raise, never read
// out of bounds or fabricate elements.
TEST(WireFuzz, EveryTruncationPointRaises) {
  Lcg rng{99};
  auto t = Type::value_array(Type::bit());
  auto ser = serializer_for(t);
  Value v = random_array(rng, ElemCode::kBit, 17);
  ByteWriter w;
  ser->serialize(v, w);
  const auto full = w.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<uint8_t> prefix(full.begin(), full.begin() + cut);
    ByteReader r(prefix);
    EXPECT_THROW(ser->deserialize(r), RuntimeError) << "cut=" << cut;
  }
}

// Types that can never cross a task boundary have no serializer: nested
// arrays and boxed (non-value) element types throw instead of guessing.
TEST(WireFuzz, NonWireTypesRejected) {
  EXPECT_THROW(serializer_for(Type::value_array(Type::value_array(Type::bit()))),
               InternalError);
  EXPECT_THROW(serializer_for(Type::array(Type::array(Type::int_()))),
               InternalError);
}

// pack_batch/unpack_batch are the single framing path shared by the native
// boundary and the socket transport — round-trip equality over random
// batches is exactly the "remote artifacts are drop-in" property.
TEST(WireFuzz, BatchFramingRoundTrips) {
  Lcg rng{0xabcdef};
  for (size_t n : kFuzzLengths) {
    std::vector<Value> elems;
    elems.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      elems.push_back(Value::i32(static_cast<int32_t>(rng.next())));
    }
    auto bytes = pack_batch(elems, Type::int_());
    auto back = unpack_batch(bytes, Type::int_());
    ASSERT_EQ(back.size(), elems.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(back[i].equals(elems[i])) << "n=" << n << " i=" << i;
    }
    // A batch is one wire value-array: its size is the array wire size.
    auto ser = serializer_for(lime::Type::value_array(Type::int_()));
    ASSERT_EQ(bytes.size(), 4u + 4u * n);
    (void)ser;
  }
  // Batches of non-wire element types are rejected up front.
  EXPECT_THROW(pack_batch({}, Type::value_array(Type::int_())),
               InternalError);
}

// ---------------------------------------------------------------------------
// NativeBoundary
// ---------------------------------------------------------------------------

TEST(Boundary, CountsCrossingsAndBytes) {
  NativeBoundary b;
  std::vector<uint8_t> payload(100, 0xCD);
  auto native = b.cross_to_native(payload);
  EXPECT_EQ(native, payload);
  auto host = b.cross_to_host(native);
  EXPECT_EQ(host, payload);
  EXPECT_EQ(b.crossings(), 2u);
  EXPECT_EQ(b.bytes_to_native(), 100u);
  EXPECT_EQ(b.bytes_to_host(), 100u);
  b.reset_stats();
  EXPECT_EQ(b.crossings(), 0u);
}

TEST(Boundary, CrossingCopies) {
  NativeBoundary b;
  std::vector<uint8_t> payload = {1, 2, 3};
  auto native = b.cross_to_native(payload);
  payload[0] = 99;  // mutating the host copy must not affect the native one
  EXPECT_EQ(native[0], 1);
}

// ---------------------------------------------------------------------------
// C-side marshaling (step 3 of Fig. 3)
// ---------------------------------------------------------------------------

TEST(CValue, FloatArrayFullPath) {
  // Fig. 3's example: a float array input. serialize → cross → unmarshal.
  auto t = Type::value_array(Type::float_());
  Value host = Value::array(bc::make_f32_array({0.5f, 1.5f, 2.5f}, true));

  auto ser = serializer_for(t);
  ByteWriter w;
  ser->serialize(host, w);

  NativeBoundary boundary;
  auto native_bytes = boundary.cross_to_native(w.bytes());

  CValue c = unmarshal_native(native_bytes, t);
  EXPECT_TRUE(c.is_array);
  ASSERT_EQ(c.count, 3u);
  EXPECT_FLOAT_EQ(c.f32s()[0], 0.5f);
  EXPECT_FLOAT_EQ(c.f32s()[2], 2.5f);

  // Mirror path: native → wire → host (Fig. 3's int array output).
  auto back_wire = marshal_native(c);
  auto host_bytes = boundary.cross_to_host(back_wire);
  ByteReader r(host_bytes);
  Value back = ser->deserialize(r);
  EXPECT_TRUE(back.equals(host));
}

TEST(CValue, BitArrayUnpacksToBytes) {
  auto t = Type::value_array(Type::bit());
  std::vector<uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};  // 9 bits (Fig. 4)
  Value host = Value::array(bc::make_bit_array(bits, true));
  auto ser = serializer_for(t);
  ByteWriter w;
  ser->serialize(host, w);

  CValue c = unmarshal_native(w.bytes(), t);
  ASSERT_EQ(c.count, 9u);
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(c.bytes()[i], bits[i]) << "bit " << i;
  }
  // Repack and compare the wire images byte-for-byte.
  EXPECT_EQ(marshal_native(c), w.bytes());
}

TEST(CValue, ScalarUnmarshal) {
  auto ser = serializer_for(lime::Type::double_());
  ByteWriter w;
  ser->serialize(bc::Value::f64(6.25), w);
  CValue c = unmarshal_native(w.bytes(), lime::Type::double_());
  EXPECT_FALSE(c.is_array);
  EXPECT_EQ(c.count, 1u);
  EXPECT_DOUBLE_EQ(c.f64s()[0], 6.25);
}

TEST(CValue, TypedViewMismatchThrows) {
  CValue c = CValue::make(ElemCode::kF32, true, 4);
  EXPECT_THROW(c.i32s(), InternalError);
}

TEST(CValue, MakeZeroInitializes) {
  CValue c = CValue::make(ElemCode::kI64, true, 8);
  for (int64_t v : c.i64s()) EXPECT_EQ(v, 0);
  EXPECT_EQ(c.storage.size(), 64u);
}

// ---------------------------------------------------------------------------
// Pooled transfer buffers (serde/buffer_pool.h)
// ---------------------------------------------------------------------------

TEST(BufferPool, PowerOfTwoClassesServeRequestsOfTheirClass) {
  BufferPool pool;
  std::vector<uint8_t> a = pool.acquire(1000);
  EXPECT_EQ(a.capacity(), 1024u);  // a miss allocates a power of two
  pool.release(std::move(a));
  std::vector<uint8_t> b = pool.acquire(513);  // same class: reused
  EXPECT_EQ(b.capacity(), 1024u);
  EXPECT_EQ(pool.reuses(), 1u);
  std::vector<uint8_t> c = pool.acquire(1025);  // next class: a miss
  EXPECT_EQ(c.capacity(), 2048u);
  EXPECT_EQ(pool.allocations(), 2u);
}

TEST(BufferPool, ReleaseBeyondTheIdleCapEvictsTheOldest) {
  BufferPool pool;
  const size_t mib = size_t{1} << 20;
  auto retire = [&](size_t capacity) {
    std::vector<uint8_t> buf;
    buf.reserve(capacity);
    pool.release(std::move(buf));
    EXPECT_LE(pool.idle_bytes(), BufferPool::kMaxIdleBytes);
  };
  retire(3 * mib);  // serves requests of up to 2 MiB
  retire(4 * mib);
  retire(1 * mib);
  EXPECT_EQ(pool.idle_bytes(), 8 * mib);  // exactly the cap: all kept
  retire(1 * mib);                        // evicts the 3 MiB buffer
  EXPECT_EQ(pool.idle_bytes(), 6 * mib);
  EXPECT_EQ(pool.acquire(4 * mib).capacity(), 4 * mib);
  EXPECT_EQ(pool.reuses(), 1u);
  pool.acquire(2 * mib);
  EXPECT_EQ(pool.allocations(), 1u);
}

TEST(PooledBuffer, GoesBackToItsPoolOnEveryPath) {
  BufferPool pool;
  try {
    PooledBuffer buf(pool, 4096);
    EXPECT_EQ(buf.size(), 4096u);
    throw RuntimeError("unwinding");
  } catch (const RuntimeError&) {
  }
  EXPECT_EQ(pool.idle_bytes(), 4096u);
  {
    PooledBuffer moved;
    {
      PooledBuffer buf(pool, std::vector<uint8_t>{1, 2, 3});
      moved = PooledBuffer(pool, std::span<const uint8_t>(buf.data(), 3));
      EXPECT_EQ(moved, std::vector<uint8_t>({1, 2, 3}));
    }
    EXPECT_EQ(pool.reuses(), 0u);  // the 3-byte copy's class was empty
  }
  EXPECT_EQ(pool.allocations(), 2u);
  PooledBuffer again(pool, 4096);
  EXPECT_EQ(pool.reuses(), 1u);
  for (uint8_t b : again) EXPECT_EQ(b, 0);  // zero-filled even when reused
}

}  // namespace
}  // namespace lm::serde
