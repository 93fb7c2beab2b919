#include "serde/batch.h"

#include "serde/wire.h"
#include "util/byte_buffer.h"

namespace lm::serde {

using bc::ArrayRef;
using bc::Value;

namespace {

/// The batch as one value array of `elem_type`.
Value batch_array(std::span<const Value> elems,
                  const lime::TypeRef& elem_type) {
  ArrayRef arr = bc::make_array(bc::elem_code_for(elem_type), elems.size());
  for (size_t i = 0; i < elems.size(); ++i) bc::array_set(*arr, i, elems[i]);
  arr->is_value = true;
  return Value::array(arr);
}

}  // namespace

std::vector<uint8_t> pack_batch(std::span<const Value> elems,
                                const lime::TypeRef& elem_type) {
  ByteWriter w;
  serializer_for(lime::Type::value_array(elem_type))
      ->serialize(batch_array(elems, elem_type), w);
  return w.take();
}

std::vector<uint8_t> pack_batch(std::span<const Value> elems,
                                const lime::TypeRef& elem_type,
                                BufferPool& pool) {
  Value arr = batch_array(elems, elem_type);
  auto ser = serializer_for(lime::Type::value_array(elem_type));
  ByteWriter w(pool.acquire(ser->wire_size(arr)));
  ser->serialize(arr, w);
  return w.take();
}

std::vector<Value> unpack_batch(std::span<const uint8_t> bytes,
                                const lime::TypeRef& elem_type) {
  auto ser = serializer_for(lime::Type::value_array(elem_type));
  ByteReader r(bytes);
  Value v = ser->deserialize(r);
  const ArrayRef& arr = v.as_array();
  std::vector<Value> out;
  out.reserve(arr->size());
  for (size_t i = 0; i < arr->size(); ++i) {
    out.push_back(bc::array_get(*arr, i));
  }
  return out;
}

}  // namespace lm::serde
