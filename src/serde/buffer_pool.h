// Recycled byte buffers for the Fig. 3 transfer path and the wire paths.
//
// Each step of Fig. 3 (serialize, cross, convert, and the mirror path
// back) and each batch framed for a socket needs a buffer, once per call
// or firing. A freed MiB-sized buffer goes back to the kernel, and the
// next transfer pays for it again in page faults: about 256 minor faults
// per MiB, more than the copy itself costs. A BufferPool keeps retired
// buffers and hands their capacity to the next user, so a warm pipeline or
// offloaded map reaches zero fresh allocations (net_test and runtime_test
// assert this via the counters below).
//
// Buffers come in power-of-two size classes: a miss allocates a power of
// two, and a retired buffer serves requests of its own class, so a buffer
// freed by the inbound leg of a transfer serves the outbound leg of the
// same size. The pool keeps at most kMaxFree buffers and kMaxIdleBytes of
// capacity; a release beyond either bound frees the longest-retired
// buffers, so the pool follows the sizes in use now.
//
// PooledBuffer owns a buffer on loan and hands it back when destroyed, on
// every path including exceptions. Code that works with plain vectors
// (pack_batch, the socket paths) calls acquire()/release() itself; a
// forgotten release loses the reuse, not the bytes, but a MiB-sized buffer
// lost that way comes back on the next transfer as ~256 page faults.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace lm::serde {

class BufferPool {
 public:
  /// At most this many retired buffers are kept.
  static constexpr size_t kMaxFree = 64;
  /// At most this much retired capacity is kept, which bounds what the
  /// pool adds to a process's peak RSS. It holds the buffers of one
  /// offloaded map over 2^18 floats (two 2 MiB wire buffers, three 1 MiB
  /// arrays).
  static constexpr size_t kMaxIdleBytes = size_t{8} << 20;

  /// A buffer to encode into: empty, with capacity of at least
  /// `min_capacity` rounded up to a power of two. With no size, the most
  /// recently retired buffer serves. Counts as a fresh allocation only when
  /// no retired buffer of the class was available.
  std::vector<uint8_t> acquire(size_t min_capacity = 0);

  /// Returns a buffer's storage for reuse; contents are discarded. The
  /// moved-from vector is left empty.
  void release(std::vector<uint8_t>&& buf);

  /// Number of acquire() calls that found no retired buffer (and so hit
  /// the allocator). Flat across a warm steady state.
  uint64_t allocations() const;
  /// Number of acquire() calls served from a retired buffer.
  uint64_t reuses() const;
  /// Capacity of the retired buffers held now; at most kMaxIdleBytes.
  size_t idle_bytes() const;

 private:
  mutable std::mutex mu_;
  /// Retired buffers, longest-retired first.
  std::vector<std::vector<uint8_t>> free_;
  size_t idle_bytes_ = 0;
  uint64_t allocations_ = 0;
  uint64_t reuses_ = 0;
};

/// The process-wide pool used by the runtime's transfer paths (Fig. 3 in
/// runtime/artifact.cpp, C-side values, batch framing in src/net/).
/// Thread-safe.
BufferPool& wire_pool();

/// A byte buffer on loan from a BufferPool, returned to it when destroyed.
/// Move-only: a move transfers the loan.
class PooledBuffer {
 public:
  using value_type = uint8_t;
  using iterator = uint8_t*;
  using const_iterator = const uint8_t*;

  PooledBuffer() = default;
  /// `size` zero bytes.
  PooledBuffer(BufferPool& pool, size_t size);
  /// A copy of `bytes`.
  PooledBuffer(BufferPool& pool, std::span<const uint8_t> bytes);
  /// Takes `bytes` (typically from pool.acquire()) on loan from `pool`.
  PooledBuffer(BufferPool& pool, std::vector<uint8_t>&& bytes);
  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  ~PooledBuffer();

  uint8_t* data() { return buf_.data(); }
  const uint8_t* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }
  uint8_t operator[](size_t i) const { return buf_[i]; }
  uint8_t* begin() { return buf_.data(); }
  uint8_t* end() { return buf_.data() + buf_.size(); }
  const uint8_t* begin() const { return buf_.data(); }
  const uint8_t* end() const { return buf_.data() + buf_.size(); }

  friend bool operator==(const PooledBuffer& a, const PooledBuffer& b) {
    return a.buf_ == b.buf_;
  }
  friend bool operator==(const PooledBuffer& a,
                         const std::vector<uint8_t>& b) {
    return a.buf_ == b;
  }

 private:
  void give_back();

  BufferPool* pool_ = nullptr;
  std::vector<uint8_t> buf_;
};

}  // namespace lm::serde
